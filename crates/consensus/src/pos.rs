//! Proof of Stake: stake-weighted leader election and slashing.
//!
//! BlockCloud \[75\] replaces PoW with PoS "to decrease computational
//! requirements"; this module provides the two mechanisms such a design
//! needs: deterministic stake-weighted leader election (every honest node
//! computes the same leader for a height from shared randomness) and
//! equivocation slashing (double-signing a height forfeits stake).

use blockprov_crypto::hmac::HmacDrbg;
use blockprov_crypto::sha256::Hash256;
use blockprov_ledger::block::BlockHash;
use blockprov_ledger::tx::AccountId;
use std::collections::BTreeMap;

/// Why a validator was slashed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlashingReason {
    /// Signed two different blocks at the same height.
    Equivocation {
        /// The offending height.
        height: u64,
        /// First signed block.
        first: BlockHash,
        /// Conflicting second block.
        second: BlockHash,
    },
}

/// A stake table with leader election and evidence handling.
///
/// Validators are kept in a `BTreeMap` so iteration (and therefore election)
/// order is deterministic across nodes.
#[derive(Debug, Clone, Default)]
pub struct ValidatorSet {
    stakes: BTreeMap<AccountId, u64>,
    /// Observed (validator, height) → block, for equivocation detection.
    seen: BTreeMap<(AccountId, u64), BlockHash>,
    /// Slashing events, in detection order.
    slashed: Vec<(AccountId, SlashingReason)>,
}

impl ValidatorSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or top up) a validator's stake.
    pub fn bond(&mut self, validator: AccountId, stake: u64) {
        *self.stakes.entry(validator).or_insert(0) += stake;
    }

    /// Remove stake; removes the validator entirely at zero.
    pub fn unbond(&mut self, validator: &AccountId, stake: u64) {
        if let Some(s) = self.stakes.get_mut(validator) {
            *s = s.saturating_sub(stake);
            if *s == 0 {
                self.stakes.remove(validator);
            }
        }
    }

    /// Current stake of a validator.
    pub fn stake_of(&self, validator: &AccountId) -> u64 {
        self.stakes.get(validator).copied().unwrap_or(0)
    }

    /// Total bonded stake.
    pub fn total_stake(&self) -> u64 {
        self.stakes.values().sum()
    }

    /// Number of validators with stake.
    pub fn len(&self) -> usize {
        self.stakes.len()
    }

    /// True when no stake is bonded.
    pub fn is_empty(&self) -> bool {
        self.stakes.is_empty()
    }

    /// Elect the leader for `height` under shared randomness `epoch_seed`.
    ///
    /// Deterministic: every node with the same view of the stake table picks
    /// the same leader. Selection probability is proportional to stake.
    pub fn leader(&self, epoch_seed: &Hash256, height: u64) -> Option<AccountId> {
        let total = self.total_stake();
        if total == 0 {
            return None;
        }
        let mut seed = Vec::with_capacity(40);
        seed.extend_from_slice(epoch_seed.as_bytes());
        seed.extend_from_slice(&height.to_le_bytes());
        let mut drbg = HmacDrbg::new(&seed);
        let ticket = drbg.gen_range(total);
        let mut acc = 0u64;
        for (v, s) in &self.stakes {
            acc += s;
            if ticket < acc {
                return Some(*v);
            }
        }
        unreachable!("ticket < total implies a winner");
    }

    /// Record a signed block; returns slashing evidence if the validator
    /// already signed a different block at this height.
    pub fn observe_signature(
        &mut self,
        validator: AccountId,
        height: u64,
        block: BlockHash,
    ) -> Option<SlashingReason> {
        match self.seen.get(&(validator, height)) {
            None => {
                self.seen.insert((validator, height), block);
                None
            }
            Some(prev) if *prev == block => None,
            Some(prev) => {
                let reason = SlashingReason::Equivocation {
                    height,
                    first: *prev,
                    second: block,
                };
                // Forfeit the entire stake.
                self.stakes.remove(&validator);
                self.slashed.push((validator, reason.clone()));
                Some(reason)
            }
        }
    }

    /// Slashing history.
    pub fn slashed(&self) -> &[(AccountId, SlashingReason)] {
        &self.slashed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockprov_crypto::sha256::sha256;

    fn acct(name: &str) -> AccountId {
        AccountId::from_name(name)
    }

    fn set() -> ValidatorSet {
        let mut v = ValidatorSet::new();
        v.bond(acct("a"), 50);
        v.bond(acct("b"), 30);
        v.bond(acct("c"), 20);
        v
    }

    #[test]
    fn election_is_deterministic() {
        let v = set();
        let seed = sha256(b"epoch-1");
        for h in 0..20 {
            assert_eq!(v.leader(&seed, h), v.leader(&seed, h));
        }
    }

    #[test]
    fn election_is_roughly_stake_proportional() {
        let v = set();
        let seed = sha256(b"epoch-2");
        let mut wins: BTreeMap<AccountId, u32> = BTreeMap::new();
        for h in 0..2000 {
            *wins.entry(v.leader(&seed, h).unwrap()).or_insert(0) += 1;
        }
        let wa = wins[&acct("a")] as f64 / 2000.0;
        let wb = wins[&acct("b")] as f64 / 2000.0;
        let wc = wins[&acct("c")] as f64 / 2000.0;
        assert!((wa - 0.5).abs() < 0.05, "a won {wa}");
        assert!((wb - 0.3).abs() < 0.05, "b won {wb}");
        assert!((wc - 0.2).abs() < 0.05, "c won {wc}");
    }

    #[test]
    fn empty_set_has_no_leader() {
        let v = ValidatorSet::new();
        assert_eq!(v.leader(&sha256(b"s"), 0), None);
    }

    #[test]
    fn bond_unbond_accounting() {
        let mut v = set();
        assert_eq!(v.total_stake(), 100);
        v.unbond(&acct("a"), 20);
        assert_eq!(v.stake_of(&acct("a")), 30);
        v.unbond(&acct("a"), 100);
        assert_eq!(v.stake_of(&acct("a")), 0);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn equivocation_slashes_entire_stake() {
        let mut v = set();
        let b1 = BlockHash(sha256(b"block-1"));
        let b2 = BlockHash(sha256(b"block-2"));
        assert!(v.observe_signature(acct("a"), 5, b1).is_none());
        // Same block again: fine.
        assert!(v.observe_signature(acct("a"), 5, b1).is_none());
        // Conflicting block: slashed.
        let reason = v.observe_signature(acct("a"), 5, b2).unwrap();
        assert!(matches!(
            reason,
            SlashingReason::Equivocation { height: 5, .. }
        ));
        assert_eq!(v.stake_of(&acct("a")), 0);
        assert_eq!(v.slashed().len(), 1);
        // Slashed validator can no longer win elections.
        let seed = sha256(b"epoch-3");
        for h in 0..200 {
            assert_ne!(v.leader(&seed, h), Some(acct("a")));
        }
    }
}
