//! Multi-user searchable EHR index — the Niu et al. \[59\] reproduction.
//!
//! \[59\] shares EHRs on a private chain with "multi-user search capabilities
//! … ciphertext-based attribute encryption … detailed access control and
//! prevent\[ing\] unauthorized doctors from uploading false information".
//! True searchable attribute-based encryption needs pairing-based crypto we
//! may not import, so this module implements the hash-only equivalent with
//! the same interface and security *shape* (documented in DESIGN.md):
//!
//! * keywords are never stored in clear: the index maps **trapdoors**
//!   `HMAC(index_key, keyword)` to record postings;
//! * only users explicitly authorized by the patient receive search
//!   capability; searching without it fails closed;
//! * uploads are restricted to *registered* providers (the "false
//!   information from unauthorized doctors" defence), and every posting
//!   names its uploader for accountability.

use blockprov_crypto::hmac::hmac_sha256_parts;
use blockprov_crypto::sha256::Hash256;
use blockprov_ledger::tx::AccountId;
use blockprov_provenance::model::RecordId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Search-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The searcher holds no capability for this index.
    NotAuthorized(AccountId),
    /// The uploader is not a registered provider.
    UnknownUploader(AccountId),
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::NotAuthorized(a) => write!(f, "{a} holds no search capability"),
            SearchError::UnknownUploader(a) => write!(f, "{a} is not a registered provider"),
        }
    }
}

impl std::error::Error for SearchError {}

/// One posting: a record uploaded under some keyword.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    /// The indexed record.
    pub record: RecordId,
    /// Who uploaded it (accountability).
    pub uploader: AccountId,
}

/// A keyword-searchable index over EHR record ids.
///
/// The index key stays server-side; searchers hold only a boolean
/// capability — revoking it stops new searches immediately (unlike pure
/// client-side trapdoor schemes, matching \[59\]'s server-mediated design).
pub struct SearchIndex {
    index_key: [u8; 32],
    postings: BTreeMap<Hash256, Vec<Posting>>,
    providers: BTreeSet<AccountId>,
    capabilities: BTreeSet<AccountId>,
    /// Searches served (for overhead accounting).
    pub searches: u64,
}

impl SearchIndex {
    /// Create an index under a secret key.
    pub fn new(index_key: [u8; 32]) -> Self {
        Self {
            index_key,
            postings: BTreeMap::new(),
            providers: BTreeSet::new(),
            capabilities: BTreeSet::new(),
            searches: 0,
        }
    }

    fn trapdoor(&self, keyword: &str) -> Hash256 {
        // Case-folded so "Diabetes" and "diabetes" share a posting list.
        hmac_sha256_parts(
            &self.index_key,
            &[b"ehr-keyword", keyword.to_lowercase().as_bytes()],
        )
    }

    /// Register a provider allowed to upload postings.
    pub fn register_provider(&mut self, provider: AccountId) {
        self.providers.insert(provider);
    }

    /// Grant a user search capability (patient-side decision).
    pub fn grant_search(&mut self, user: AccountId) {
        self.capabilities.insert(user);
    }

    /// Revoke a user's search capability.
    pub fn revoke_search(&mut self, user: &AccountId) {
        self.capabilities.remove(user);
    }

    /// Index a record under keywords. Only registered providers may upload.
    pub fn index_record(
        &mut self,
        uploader: AccountId,
        record: RecordId,
        keywords: &[&str],
    ) -> Result<(), SearchError> {
        if !self.providers.contains(&uploader) {
            return Err(SearchError::UnknownUploader(uploader));
        }
        for kw in keywords {
            let td = self.trapdoor(kw);
            self.postings
                .entry(td)
                .or_default()
                .push(Posting { record, uploader });
        }
        Ok(())
    }

    /// Search by keyword with a capability check.
    pub fn search(&mut self, user: AccountId, keyword: &str) -> Result<Vec<Posting>, SearchError> {
        if !self.capabilities.contains(&user) {
            return Err(SearchError::NotAuthorized(user));
        }
        self.searches += 1;
        let td = self.trapdoor(keyword);
        Ok(self.postings.get(&td).cloned().unwrap_or_default())
    }

    /// Number of distinct trapdoors (≠ number of keywords leaked: the
    /// keywords themselves are not recoverable from the index).
    pub fn trapdoor_count(&self) -> usize {
        self.postings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockprov_crypto::sha256::sha256;

    fn rid(n: u8) -> RecordId {
        RecordId(sha256(&[n]))
    }

    fn acct(n: &str) -> AccountId {
        AccountId::from_name(n)
    }

    fn index() -> SearchIndex {
        let mut idx = SearchIndex::new([7u8; 32]);
        idx.register_provider(acct("dr-a"));
        idx.register_provider(acct("lab-b"));
        idx.index_record(acct("dr-a"), rid(1), &["diabetes", "hba1c"])
            .unwrap();
        idx.index_record(acct("lab-b"), rid(2), &["hba1c"]).unwrap();
        idx
    }

    #[test]
    fn multi_user_search_with_capabilities() {
        let mut idx = index();
        idx.grant_search(acct("dr-a"));
        idx.grant_search(acct("researcher"));
        let hits = idx.search(acct("dr-a"), "hba1c").unwrap();
        assert_eq!(hits.len(), 2);
        let hits = idx.search(acct("researcher"), "diabetes").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].uploader, acct("dr-a"));
    }

    #[test]
    fn search_without_capability_fails_closed() {
        let mut idx = index();
        assert_eq!(
            idx.search(acct("stranger"), "diabetes"),
            Err(SearchError::NotAuthorized(acct("stranger")))
        );
    }

    #[test]
    fn revocation_is_immediate() {
        let mut idx = index();
        idx.grant_search(acct("u"));
        idx.search(acct("u"), "hba1c").unwrap();
        idx.revoke_search(&acct("u"));
        assert!(idx.search(acct("u"), "hba1c").is_err());
    }

    #[test]
    fn unauthorized_uploads_rejected() {
        let mut idx = index();
        assert_eq!(
            idx.index_record(acct("quack"), rid(9), &["miracle-cure"]),
            Err(SearchError::UnknownUploader(acct("quack")))
        );
    }

    #[test]
    fn keywords_are_case_folded_and_hidden() {
        let mut idx = index();
        idx.grant_search(acct("u"));
        let a = idx.search(acct("u"), "HbA1c").unwrap();
        let b = idx.search(acct("u"), "hba1c").unwrap();
        assert_eq!(a, b);
        // The index stores trapdoors, not keywords: nothing matches the raw
        // keyword bytes.
        assert_eq!(idx.trapdoor_count(), 2);
    }

    #[test]
    fn different_index_keys_produce_unlinkable_trapdoors() {
        let idx_a = SearchIndex::new([1u8; 32]);
        let idx_b = SearchIndex::new([2u8; 32]);
        assert_ne!(idx_a.trapdoor("diabetes"), idx_b.trapdoor("diabetes"));
    }

    #[test]
    fn missing_keyword_returns_empty() {
        let mut idx = index();
        idx.grant_search(acct("u"));
        assert!(idx.search(acct("u"), "nonexistent").unwrap().is_empty());
    }
}
