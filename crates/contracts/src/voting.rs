//! SmartProvenance-style threshold voting contract.
//!
//! SmartProvenance \[63\] authenticates provenance records by submitting each
//! change to a vote among participants; a record becomes *approved* only
//! when a configurable fraction of the electorate accepts it. This contract
//! reproduces that mechanism: proposals keyed by record digest, one vote per
//! member, approval/rejection at a numerator/denominator threshold.

use crate::runtime::{gas, Contract, ContractCtx, ContractError};
use blockprov_crypto::sha256::Hash256;
use blockprov_ledger::tx::AccountId;
use blockprov_wire::{Codec, Reader, WireError, Writer};

/// Proposal lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoteStatus {
    /// Still collecting votes.
    Open,
    /// Reached the approval threshold.
    Approved,
    /// Rejection votes made approval impossible.
    Rejected,
}

impl VoteStatus {
    fn to_byte(self) -> u8 {
        match self {
            VoteStatus::Open => 0,
            VoteStatus::Approved => 1,
            VoteStatus::Rejected => 2,
        }
    }
    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(VoteStatus::Open),
            1 => Some(VoteStatus::Approved),
            2 => Some(VoteStatus::Rejected),
            _ => None,
        }
    }
}

/// Arguments for `propose`: the record digest being authenticated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProposeArgs {
    /// Digest of the provenance record under vote.
    pub record: Hash256,
}

impl Codec for ProposeArgs {
    fn encode(&self, w: &mut Writer) {
        self.record.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            record: Hash256::decode(r)?,
        })
    }
}

/// Arguments for `vote`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteArgs {
    /// Digest of the record under vote.
    pub record: Hash256,
    /// Accept (true) or reject (false).
    pub approve: bool,
}

impl Codec for VoteArgs {
    fn encode(&self, w: &mut Writer) {
        self.record.encode(w);
        self.approve.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            record: Hash256::decode(r)?,
            approve: bool::decode(r)?,
        })
    }
}

/// Threshold voting over provenance record digests.
///
/// Configuration is fixed at deployment: an electorate (who may vote) and an
/// approval threshold `num/den` over the electorate size.
pub struct VotingContract {
    electorate: Vec<AccountId>,
    threshold_num: usize,
    threshold_den: usize,
}

impl VotingContract {
    /// Create with an electorate and an approval fraction (e.g. 2/3).
    pub fn new(electorate: Vec<AccountId>, threshold_num: usize, threshold_den: usize) -> Self {
        assert!(
            threshold_num > 0 && threshold_num <= threshold_den,
            "threshold must be a fraction"
        );
        assert!(!electorate.is_empty(), "empty electorate");
        Self {
            electorate,
            threshold_num,
            threshold_den,
        }
    }

    /// Votes needed for approval.
    pub fn approvals_needed(&self) -> usize {
        // ceil(|E| * num / den)
        (self.electorate.len() * self.threshold_num).div_ceil(self.threshold_den)
    }

    fn status_key(record: &Hash256) -> Vec<u8> {
        let mut k = b"status/".to_vec();
        k.extend_from_slice(record.as_bytes());
        k
    }

    fn vote_key(record: &Hash256, voter: &AccountId) -> Vec<u8> {
        let mut k = b"vote/".to_vec();
        k.extend_from_slice(record.as_bytes());
        k.push(b'/');
        k.extend_from_slice(voter.0.as_bytes());
        k
    }

    fn tally_key(record: &Hash256) -> Vec<u8> {
        let mut k = b"tally/".to_vec();
        k.extend_from_slice(record.as_bytes());
        k
    }

    /// Host-side convenience: read the status of a proposal.
    pub fn status(
        rt: &crate::ContractRuntime,
        id: crate::ContractId,
        record: &Hash256,
    ) -> Option<VoteStatus> {
        rt.read_state(id, &Self::status_key(record))
            .and_then(|v| v.first().copied())
            .and_then(VoteStatus::from_byte)
    }
}

impl Contract for VotingContract {
    fn name(&self) -> &'static str {
        "smartprov-voting"
    }

    fn call(
        &self,
        ctx: &mut ContractCtx<'_>,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        ctx.gas.charge(gas::HASH_BYTE * args.len() as u64)?;
        match method {
            "propose" => {
                let args = ProposeArgs::from_wire(args)
                    .map_err(|e| ContractError::BadArguments(e.to_string()))?;
                if !self.electorate.contains(&ctx.caller) {
                    return Err(ContractError::Rejected("proposer not in electorate".into()));
                }
                let key = Self::status_key(&args.record);
                if ctx.get(&key)?.is_some() {
                    return Err(ContractError::Rejected("already proposed".into()));
                }
                ctx.put(&key, vec![VoteStatus::Open.to_byte()])?;
                ctx.put(&Self::tally_key(&args.record), vec![0, 0])?;
                ctx.emit("proposed", args.record.as_bytes().to_vec())?;
                Ok(vec![])
            }
            "vote" => {
                let args = VoteArgs::from_wire(args)
                    .map_err(|e| ContractError::BadArguments(e.to_string()))?;
                if !self.electorate.contains(&ctx.caller) {
                    return Err(ContractError::Rejected("voter not in electorate".into()));
                }
                let status_key = Self::status_key(&args.record);
                let status = ctx
                    .get(&status_key)?
                    .and_then(|v| v.first().copied())
                    .and_then(VoteStatus::from_byte)
                    .ok_or_else(|| ContractError::Rejected("no such proposal".into()))?;
                if status != VoteStatus::Open {
                    return Err(ContractError::Rejected("voting closed".into()));
                }
                let vote_key = Self::vote_key(&args.record, &ctx.caller);
                if ctx.get(&vote_key)?.is_some() {
                    return Err(ContractError::Rejected("already voted".into()));
                }
                ctx.put(&vote_key, vec![u8::from(args.approve)])?;

                let tally_key = Self::tally_key(&args.record);
                let mut tally = ctx.get(&tally_key)?.unwrap_or_else(|| vec![0, 0]);
                if args.approve {
                    tally[0] += 1;
                } else {
                    tally[1] += 1;
                }
                ctx.put(&tally_key, tally.clone())?;

                let needed = self.approvals_needed();
                let (yes, no) = (tally[0] as usize, tally[1] as usize);
                let new_status = if yes >= needed {
                    VoteStatus::Approved
                } else if self.electorate.len() - no < needed {
                    // Approval can no longer be reached.
                    VoteStatus::Rejected
                } else {
                    VoteStatus::Open
                };
                if new_status != VoteStatus::Open {
                    ctx.put(&status_key, vec![new_status.to_byte()])?;
                    let event = if new_status == VoteStatus::Approved {
                        "approved"
                    } else {
                        "rejected"
                    };
                    ctx.emit(event, args.record.as_bytes().to_vec())?;
                }
                Ok(vec![new_status.to_byte()])
            }
            other => Err(ContractError::UnknownMethod(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ContractRuntime;
    use blockprov_crypto::sha256::sha256;

    fn members(n: usize) -> Vec<AccountId> {
        (0..n)
            .map(|i| AccountId::from_name(&format!("member-{i}")))
            .collect()
    }

    fn setup(n: usize) -> (ContractRuntime, crate::ContractId, Vec<AccountId>) {
        let e = members(n);
        let mut rt = ContractRuntime::new();
        let id = rt.register(Box::new(VotingContract::new(e.clone(), 2, 3)));
        (rt, id, e)
    }

    fn propose(rt: &mut ContractRuntime, id: crate::ContractId, who: AccountId, rec: Hash256) {
        rt.invoke(
            id,
            who,
            "propose",
            &ProposeArgs { record: rec }.to_wire(),
            100_000,
            1,
            0,
        )
        .unwrap();
    }

    fn vote(
        rt: &mut ContractRuntime,
        id: crate::ContractId,
        who: AccountId,
        rec: Hash256,
        approve: bool,
    ) -> Result<VoteStatus, ContractError> {
        let out = rt.invoke(
            id,
            who,
            "vote",
            &VoteArgs {
                record: rec,
                approve,
            }
            .to_wire(),
            100_000,
            1,
            0,
        )?;
        Ok(VoteStatus::from_byte(out.output[0]).unwrap())
    }

    #[test]
    fn two_thirds_approval_flow() {
        let (mut rt, id, e) = setup(6); // needs ceil(6*2/3)=4 approvals
        let rec = sha256(b"record-1");
        propose(&mut rt, id, e[0], rec);
        assert_eq!(
            vote(&mut rt, id, e[0], rec, true).unwrap(),
            VoteStatus::Open
        );
        assert_eq!(
            vote(&mut rt, id, e[1], rec, true).unwrap(),
            VoteStatus::Open
        );
        assert_eq!(
            vote(&mut rt, id, e[2], rec, true).unwrap(),
            VoteStatus::Open
        );
        assert_eq!(
            vote(&mut rt, id, e[3], rec, true).unwrap(),
            VoteStatus::Approved
        );
        assert_eq!(
            VotingContract::status(&rt, id, &rec),
            Some(VoteStatus::Approved)
        );
        // Voting is closed now.
        assert!(matches!(
            vote(&mut rt, id, e[4], rec, true),
            Err(ContractError::Rejected(_))
        ));
    }

    #[test]
    fn early_rejection_when_approval_impossible() {
        let (mut rt, id, e) = setup(6); // 4 approvals needed ⇒ 3 rejections kill it
        let rec = sha256(b"record-2");
        propose(&mut rt, id, e[0], rec);
        assert_eq!(
            vote(&mut rt, id, e[0], rec, false).unwrap(),
            VoteStatus::Open
        );
        assert_eq!(
            vote(&mut rt, id, e[1], rec, false).unwrap(),
            VoteStatus::Open
        );
        assert_eq!(
            vote(&mut rt, id, e[2], rec, false).unwrap(),
            VoteStatus::Rejected
        );
    }

    #[test]
    fn double_vote_and_outsider_rejected() {
        let (mut rt, id, e) = setup(6);
        let rec = sha256(b"record-3");
        propose(&mut rt, id, e[0], rec);
        vote(&mut rt, id, e[0], rec, true).unwrap();
        assert!(matches!(
            vote(&mut rt, id, e[0], rec, true),
            Err(ContractError::Rejected(_))
        ));
        let outsider = AccountId::from_name("outsider");
        assert!(matches!(
            vote(&mut rt, id, outsider, rec, true),
            Err(ContractError::Rejected(_))
        ));
    }

    #[test]
    fn duplicate_proposal_rejected_and_unknown_vote_rejected() {
        let (mut rt, id, e) = setup(4);
        let rec = sha256(b"record-4");
        propose(&mut rt, id, e[0], rec);
        let dup = rt.invoke(
            id,
            e[1],
            "propose",
            &ProposeArgs { record: rec }.to_wire(),
            100_000,
            1,
            0,
        );
        assert!(matches!(dup, Err(ContractError::Rejected(_))));
        let ghost = sha256(b"ghost");
        assert!(matches!(
            vote(&mut rt, id, e[0], ghost, true),
            Err(ContractError::Rejected(_))
        ));
    }

    #[test]
    fn events_track_lifecycle() {
        let (mut rt, id, e) = setup(3); // needs 2 approvals
        let rec = sha256(b"record-5");
        propose(&mut rt, id, e[0], rec);
        vote(&mut rt, id, e[0], rec, true).unwrap();
        vote(&mut rt, id, e[1], rec, true).unwrap();
        let names: Vec<&str> = rt.events().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["proposed", "approved"]);
    }
}
