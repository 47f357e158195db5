//! LedgerView-style access-controlled views over a chain.
//!
//! LedgerView \[66\] adds views to Hyperledger Fabric: a view is a filtered
//! projection of ledger transactions granted to specific parties, either
//! *revocable* (the owner can withdraw access) or *irrevocable* (access,
//! once granted, is a permanent commitment — e.g. a regulator's audit view).
//! This module reproduces both kinds over the `blockprov` ledger.

use blockprov_crypto::sha256::{hash_parts, Hash256};
use blockprov_ledger::chain::Chain;
use blockprov_ledger::tx::{AccountId, Transaction};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Which transactions a view exposes (conjunctive filters; `None` = any).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewFilter {
    /// Restrict to these transaction kinds.
    pub kinds: Option<BTreeSet<u16>>,
    /// Restrict to these authors.
    pub authors: Option<BTreeSet<AccountId>>,
    /// Restrict to `timestamp_ms >= from`.
    pub from_ms: Option<u64>,
    /// Restrict to `timestamp_ms < until`.
    pub until_ms: Option<u64>,
}

impl ViewFilter {
    /// Whether a transaction is visible through this filter.
    pub fn matches(&self, tx: &Transaction) -> bool {
        if let Some(kinds) = &self.kinds {
            if !kinds.contains(&tx.kind) {
                return false;
            }
        }
        if let Some(authors) = &self.authors {
            if !authors.contains(&tx.author) {
                return false;
            }
        }
        if let Some(from) = self.from_ms {
            if tx.timestamp_ms < from {
                return false;
            }
        }
        if let Some(until) = self.until_ms {
            if tx.timestamp_ms >= until {
                return false;
            }
        }
        true
    }
}

/// Identifier of a view (hash of owner + name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewId(pub Hash256);

/// A view definition.
#[derive(Debug, Clone)]
pub struct View {
    /// Identifier.
    pub id: ViewId,
    /// Creating account (may grant/revoke).
    pub owner: AccountId,
    /// Human-readable name.
    pub name: String,
    /// Transaction filter.
    pub filter: ViewFilter,
    /// Whether grants can be withdrawn.
    pub revocable: bool,
    grantees: BTreeSet<AccountId>,
}

/// View-management failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewError {
    /// View id not found.
    UnknownView,
    /// Caller is not the view owner.
    NotOwner,
    /// Attempted to revoke an irrevocable view.
    Irrevocable,
    /// Caller has no grant on the view.
    NotGranted,
}

impl fmt::Display for ViewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewError::UnknownView => write!(f, "unknown view"),
            ViewError::NotOwner => write!(f, "caller does not own the view"),
            ViewError::Irrevocable => write!(f, "view is irrevocable"),
            ViewError::NotGranted => write!(f, "caller has no grant on the view"),
        }
    }
}

impl std::error::Error for ViewError {}

/// Registry and query gateway for views over one chain.
#[derive(Debug, Default)]
pub struct ViewManager {
    views: BTreeMap<ViewId, View>,
}

impl ViewManager {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a view owned by `owner`. Returns its id.
    pub fn create(
        &mut self,
        owner: AccountId,
        name: &str,
        filter: ViewFilter,
        revocable: bool,
    ) -> ViewId {
        let id = ViewId(hash_parts(
            "blockprov-view",
            &[owner.0.as_bytes(), name.as_bytes()],
        ));
        self.views.insert(
            id,
            View {
                id,
                owner,
                name: name.to_string(),
                filter,
                revocable,
                grantees: BTreeSet::new(),
            },
        );
        id
    }

    /// Grant `who` access to the view (owner only).
    pub fn grant(
        &mut self,
        id: ViewId,
        caller: AccountId,
        who: AccountId,
    ) -> Result<(), ViewError> {
        let view = self.views.get_mut(&id).ok_or(ViewError::UnknownView)?;
        if view.owner != caller {
            return Err(ViewError::NotOwner);
        }
        view.grantees.insert(who);
        Ok(())
    }

    /// Revoke `who`'s access (owner only; irrevocable views refuse).
    pub fn revoke(
        &mut self,
        id: ViewId,
        caller: AccountId,
        who: &AccountId,
    ) -> Result<(), ViewError> {
        let view = self.views.get_mut(&id).ok_or(ViewError::UnknownView)?;
        if view.owner != caller {
            return Err(ViewError::NotOwner);
        }
        if !view.revocable {
            return Err(ViewError::Irrevocable);
        }
        view.grantees.remove(who);
        Ok(())
    }

    /// Look up a view.
    pub fn view(&self, id: ViewId) -> Option<&View> {
        self.views.get(&id)
    }

    /// Whether `who` can currently read through the view.
    pub fn has_access(&self, id: ViewId, who: &AccountId) -> bool {
        self.views
            .get(&id)
            .is_some_and(|v| v.owner == *who || v.grantees.contains(who))
    }

    /// Query the chain through a view: returns matching canonical
    /// transactions, oldest block first.
    pub fn query(
        &self,
        id: ViewId,
        caller: &AccountId,
        chain: &Chain,
    ) -> Result<Vec<Transaction>, ViewError> {
        let view = self.views.get(&id).ok_or(ViewError::UnknownView)?;
        if view.owner != *caller && !view.grantees.contains(caller) {
            return Err(ViewError::NotGranted);
        }
        let mut out = Vec::new();
        for hash in chain.canonical_hashes() {
            let block = chain.block(&hash).expect("canonical block stored");
            for tx in &block.txs {
                if view.filter.matches(tx) {
                    out.push(tx.clone());
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockprov_ledger::block::Block;
    use blockprov_ledger::chain::ChainConfig;

    fn acct(n: &str) -> AccountId {
        AccountId::from_name(n)
    }

    fn tx(author: &str, nonce: u64, kind: u16, ts: u64) -> Transaction {
        Transaction::new(acct(author), nonce, ts, kind, vec![])
    }

    fn chain_with_txs() -> Chain {
        // Assemble the whole stream first, then ingest it as one batch
        // through the two-stage pipeline.
        let mut c = Chain::new(ChainConfig::default());
        let b1 = Block::assemble(
            1,
            c.tip(),
            1_000,
            acct("sealer"),
            0,
            vec![
                tx("alice", 0, 1, 100),
                tx("bob", 0, 2, 200),
                tx("alice", 1, 2, 300),
            ],
        );
        let b2 = Block::assemble(
            2,
            b1.hash(),
            2_000,
            acct("sealer"),
            0,
            vec![tx("carol", 0, 1, 400)],
        );
        c.append_batch(vec![b1, b2]).unwrap();
        c
    }

    #[test]
    fn filter_combinations() {
        let t = tx("alice", 0, 2, 250);
        let all = ViewFilter::default();
        assert!(all.matches(&t));
        let kind = ViewFilter {
            kinds: Some([2].into()),
            ..Default::default()
        };
        assert!(kind.matches(&t));
        let wrong_kind = ViewFilter {
            kinds: Some([1].into()),
            ..Default::default()
        };
        assert!(!wrong_kind.matches(&t));
        let author = ViewFilter {
            authors: Some([acct("alice")].into()),
            ..Default::default()
        };
        assert!(author.matches(&t));
        let window = ViewFilter {
            from_ms: Some(200),
            until_ms: Some(300),
            ..Default::default()
        };
        assert!(window.matches(&t));
        let late = ViewFilter {
            from_ms: Some(300),
            ..Default::default()
        };
        assert!(!late.matches(&t));
    }

    #[test]
    fn grant_query_and_revoke() {
        let chain = chain_with_txs();
        let mut vm = ViewManager::new();
        let id = vm.create(
            acct("owner"),
            "kind-2-view",
            ViewFilter {
                kinds: Some([2].into()),
                ..Default::default()
            },
            true,
        );
        // Not granted yet.
        assert_eq!(
            vm.query(id, &acct("auditor"), &chain),
            Err(ViewError::NotGranted)
        );
        vm.grant(id, acct("owner"), acct("auditor")).unwrap();
        let txs = vm.query(id, &acct("auditor"), &chain).unwrap();
        assert_eq!(txs.len(), 2);
        assert!(txs.iter().all(|t| t.kind == 2));
        // Revocation cuts access.
        vm.revoke(id, acct("owner"), &acct("auditor")).unwrap();
        assert_eq!(
            vm.query(id, &acct("auditor"), &chain),
            Err(ViewError::NotGranted)
        );
    }

    #[test]
    fn irrevocable_views_refuse_revocation() {
        let mut vm = ViewManager::new();
        let id = vm.create(acct("owner"), "audit", ViewFilter::default(), false);
        vm.grant(id, acct("owner"), acct("regulator")).unwrap();
        assert_eq!(
            vm.revoke(id, acct("owner"), &acct("regulator")),
            Err(ViewError::Irrevocable)
        );
        assert!(vm.has_access(id, &acct("regulator")));
    }

    #[test]
    fn only_owner_manages_grants() {
        let mut vm = ViewManager::new();
        let id = vm.create(acct("owner"), "v", ViewFilter::default(), true);
        assert_eq!(
            vm.grant(id, acct("mallory"), acct("mallory")),
            Err(ViewError::NotOwner)
        );
        vm.grant(id, acct("owner"), acct("friend")).unwrap();
        assert_eq!(
            vm.revoke(id, acct("mallory"), &acct("friend")),
            Err(ViewError::NotOwner)
        );
    }

    #[test]
    fn owner_always_has_access() {
        let chain = chain_with_txs();
        let mut vm = ViewManager::new();
        let id = vm.create(acct("owner"), "mine", ViewFilter::default(), true);
        let txs = vm.query(id, &acct("owner"), &chain).unwrap();
        assert_eq!(txs.len(), 4);
    }

    #[test]
    fn unknown_view_errors() {
        let mut vm = ViewManager::new();
        let ghost = ViewId(blockprov_crypto::sha256::sha256(b"ghost"));
        assert_eq!(
            vm.grant(ghost, acct("o"), acct("x")),
            Err(ViewError::UnknownView)
        );
        assert!(!vm.has_access(ghost, &acct("x")));
    }
}
