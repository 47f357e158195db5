//! Unique-registration and confirmation-based ownership transfer contract.
//!
//! Reproduces the two supply-chain mechanisms from Cui et al. \[23\]:
//!
//! * **legitimate product registration** — a device id registers exactly
//!   once, by an authorized registrar, defeating the "illegitimate product
//!   registration" attack the paper's Table 2 lists;
//! * **confirmation-based ownership transfer** — a transfer must be
//!   *initiated* by the current owner and *confirmed* by the recipient
//!   before ownership changes, preventing theft and mis-shipment (Islam et
//!   al. \[38\] lack exactly this recipient confirmation).

use crate::runtime::{gas, Contract, ContractCtx, ContractError};
use blockprov_crypto::sha256::Hash256;
use blockprov_ledger::tx::AccountId;
use blockprov_wire::{Codec, Reader, WireError, Writer};

/// Arguments for `register`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterArgs {
    /// Unique asset id (e.g. device id / PUF-derived identity hash).
    pub asset: Hash256,
    /// Asset metadata digest (fingerprint, batch info…).
    pub meta: Hash256,
}

impl Codec for RegisterArgs {
    fn encode(&self, w: &mut Writer) {
        self.asset.encode(w);
        self.meta.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            asset: Hash256::decode(r)?,
            meta: Hash256::decode(r)?,
        })
    }
}

/// Arguments for `init_transfer` / `confirm_transfer`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferArgs {
    /// Asset being transferred.
    pub asset: Hash256,
    /// Intended recipient.
    pub to: AccountId,
}

impl Codec for TransferArgs {
    fn encode(&self, w: &mut Writer) {
        self.asset.encode(w);
        self.to.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            asset: Hash256::decode(r)?,
            to: AccountId::decode(r)?,
        })
    }
}

/// Asset registry with two-phase ownership transfer.
pub struct RegistryContract {
    /// Accounts allowed to register new assets (manufacturers).
    registrars: Vec<AccountId>,
}

impl RegistryContract {
    /// Create with the set of authorized registrars.
    pub fn new(registrars: Vec<AccountId>) -> Self {
        Self { registrars }
    }

    fn owner_key(asset: &Hash256) -> Vec<u8> {
        let mut k = b"owner/".to_vec();
        k.extend_from_slice(asset.as_bytes());
        k
    }

    fn pending_key(asset: &Hash256) -> Vec<u8> {
        let mut k = b"pending/".to_vec();
        k.extend_from_slice(asset.as_bytes());
        k
    }

    fn meta_key(asset: &Hash256) -> Vec<u8> {
        let mut k = b"meta/".to_vec();
        k.extend_from_slice(asset.as_bytes());
        k
    }

    /// Host-side read of the current owner.
    pub fn owner_of(
        rt: &crate::ContractRuntime,
        id: crate::ContractId,
        asset: &Hash256,
    ) -> Option<AccountId> {
        rt.read_state(id, &Self::owner_key(asset))
            .and_then(|v| AccountId::from_wire(v).ok())
    }
}

impl Contract for RegistryContract {
    fn name(&self) -> &'static str {
        "supply-registry"
    }

    fn call(
        &self,
        ctx: &mut ContractCtx<'_>,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        ctx.gas.charge(gas::HASH_BYTE * args.len() as u64)?;
        match method {
            "register" => {
                let a = RegisterArgs::from_wire(args)
                    .map_err(|e| ContractError::BadArguments(e.to_string()))?;
                if !self.registrars.contains(&ctx.caller) {
                    return Err(ContractError::Rejected("caller is not a registrar".into()));
                }
                let owner_key = Self::owner_key(&a.asset);
                if ctx.get(&owner_key)?.is_some() {
                    return Err(ContractError::Rejected("asset already registered".into()));
                }
                ctx.put(&owner_key, ctx.caller.to_wire())?;
                ctx.put(&Self::meta_key(&a.asset), a.meta.to_wire())?;
                ctx.emit("registered", a.asset.as_bytes().to_vec())?;
                Ok(vec![])
            }
            "init_transfer" => {
                let a = TransferArgs::from_wire(args)
                    .map_err(|e| ContractError::BadArguments(e.to_string()))?;
                let owner_key = Self::owner_key(&a.asset);
                let owner = ctx
                    .get(&owner_key)?
                    .and_then(|v| AccountId::from_wire(&v).ok())
                    .ok_or_else(|| ContractError::Rejected("unregistered asset".into()))?;
                if owner != ctx.caller {
                    return Err(ContractError::Rejected(
                        "only the owner can transfer".into(),
                    ));
                }
                ctx.put(&Self::pending_key(&a.asset), a.to.to_wire())?;
                ctx.emit("transfer_initiated", a.asset.as_bytes().to_vec())?;
                Ok(vec![])
            }
            "confirm_transfer" => {
                let a = TransferArgs::from_wire(args)
                    .map_err(|e| ContractError::BadArguments(e.to_string()))?;
                let pending_key = Self::pending_key(&a.asset);
                let pending = ctx
                    .get(&pending_key)?
                    .and_then(|v| AccountId::from_wire(&v).ok())
                    .ok_or_else(|| ContractError::Rejected("no pending transfer".into()))?;
                if pending != ctx.caller {
                    return Err(ContractError::Rejected(
                        "only the designated recipient may confirm".into(),
                    ));
                }
                ctx.put(&Self::owner_key(&a.asset), ctx.caller.to_wire())?;
                ctx.delete(&pending_key)?;
                ctx.emit("transfer_confirmed", a.asset.as_bytes().to_vec())?;
                Ok(vec![])
            }
            "cancel_transfer" => {
                let a = TransferArgs::from_wire(args)
                    .map_err(|e| ContractError::BadArguments(e.to_string()))?;
                let owner = ctx
                    .get(&Self::owner_key(&a.asset))?
                    .and_then(|v| AccountId::from_wire(&v).ok())
                    .ok_or_else(|| ContractError::Rejected("unregistered asset".into()))?;
                if owner != ctx.caller {
                    return Err(ContractError::Rejected("only the owner can cancel".into()));
                }
                ctx.delete(&Self::pending_key(&a.asset))?;
                ctx.emit("transfer_cancelled", a.asset.as_bytes().to_vec())?;
                Ok(vec![])
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

    fn acct(n: &str) -> AccountId {
        AccountId::from_name(n)
    }

    fn setup() -> (ContractRuntime, crate::ContractId) {
        let mut rt = ContractRuntime::new();
        let id = rt.register(Box::new(RegistryContract::new(vec![acct("factory")])));
        (rt, id)
    }

    fn call(
        rt: &mut ContractRuntime,
        id: crate::ContractId,
        who: &str,
        method: &str,
        args: Vec<u8>,
    ) -> Result<(), ContractError> {
        rt.invoke(id, acct(who), method, &args, 100_000, 1, 0)
            .map(|_| ())
    }

    #[test]
    fn register_once_only_by_registrar() {
        let (mut rt, id) = setup();
        let asset = sha256(b"device-001");
        let args = RegisterArgs {
            asset,
            meta: sha256(b"meta"),
        }
        .to_wire();
        // Outsider cannot register.
        assert!(matches!(
            call(&mut rt, id, "mallory", "register", args.clone()),
            Err(ContractError::Rejected(_))
        ));
        call(&mut rt, id, "factory", "register", args.clone()).unwrap();
        assert_eq!(
            RegistryContract::owner_of(&rt, id, &asset),
            Some(acct("factory"))
        );
        // Cloned device id cannot re-register (counterfeit defence).
        assert!(matches!(
            call(&mut rt, id, "factory", "register", args),
            Err(ContractError::Rejected(_))
        ));
    }

    #[test]
    fn two_phase_transfer_happy_path() {
        let (mut rt, id) = setup();
        let asset = sha256(b"device-002");
        call(
            &mut rt,
            id,
            "factory",
            "register",
            RegisterArgs {
                asset,
                meta: sha256(b"m"),
            }
            .to_wire(),
        )
        .unwrap();
        call(
            &mut rt,
            id,
            "factory",
            "init_transfer",
            TransferArgs {
                asset,
                to: acct("distributor"),
            }
            .to_wire(),
        )
        .unwrap();
        // Ownership does NOT change until the recipient confirms.
        assert_eq!(
            RegistryContract::owner_of(&rt, id, &asset),
            Some(acct("factory"))
        );
        call(
            &mut rt,
            id,
            "distributor",
            "confirm_transfer",
            TransferArgs {
                asset,
                to: acct("distributor"),
            }
            .to_wire(),
        )
        .unwrap();
        assert_eq!(
            RegistryContract::owner_of(&rt, id, &asset),
            Some(acct("distributor"))
        );
    }

    #[test]
    fn only_owner_initiates_and_only_recipient_confirms() {
        let (mut rt, id) = setup();
        let asset = sha256(b"device-003");
        call(
            &mut rt,
            id,
            "factory",
            "register",
            RegisterArgs {
                asset,
                meta: sha256(b"m"),
            }
            .to_wire(),
        )
        .unwrap();
        // Thief cannot initiate.
        assert!(matches!(
            call(
                &mut rt,
                id,
                "thief",
                "init_transfer",
                TransferArgs {
                    asset,
                    to: acct("thief")
                }
                .to_wire()
            ),
            Err(ContractError::Rejected(_))
        ));
        call(
            &mut rt,
            id,
            "factory",
            "init_transfer",
            TransferArgs {
                asset,
                to: acct("distributor"),
            }
            .to_wire(),
        )
        .unwrap();
        // A different party cannot hijack the confirmation.
        assert!(matches!(
            call(
                &mut rt,
                id,
                "thief",
                "confirm_transfer",
                TransferArgs {
                    asset,
                    to: acct("thief")
                }
                .to_wire()
            ),
            Err(ContractError::Rejected(_))
        ));
    }

    #[test]
    fn owner_can_cancel_pending_transfer() {
        let (mut rt, id) = setup();
        let asset = sha256(b"device-004");
        call(
            &mut rt,
            id,
            "factory",
            "register",
            RegisterArgs {
                asset,
                meta: sha256(b"m"),
            }
            .to_wire(),
        )
        .unwrap();
        call(
            &mut rt,
            id,
            "factory",
            "init_transfer",
            TransferArgs {
                asset,
                to: acct("distributor"),
            }
            .to_wire(),
        )
        .unwrap();
        call(
            &mut rt,
            id,
            "factory",
            "cancel_transfer",
            TransferArgs {
                asset,
                to: acct("distributor"),
            }
            .to_wire(),
        )
        .unwrap();
        // Confirmation now fails.
        assert!(matches!(
            call(
                &mut rt,
                id,
                "distributor",
                "confirm_transfer",
                TransferArgs {
                    asset,
                    to: acct("distributor")
                }
                .to_wire()
            ),
            Err(ContractError::Rejected(_))
        ));
        assert_eq!(
            RegistryContract::owner_of(&rt, id, &asset),
            Some(acct("factory"))
        );
    }

    #[test]
    fn transfer_of_unregistered_asset_rejected() {
        let (mut rt, id) = setup();
        let ghost = sha256(b"ghost-device");
        assert!(matches!(
            call(
                &mut rt,
                id,
                "factory",
                "init_transfer",
                TransferArgs {
                    asset: ghost,
                    to: acct("x")
                }
                .to_wire()
            ),
            Err(ContractError::Rejected(_))
        ));
    }
}
