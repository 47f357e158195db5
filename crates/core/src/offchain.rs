//! Content-addressed off-chain payload store.
//!
//! Stands in for the OpenStack Swift / IPFS stores the surveyed systems use
//! (\[33\], \[56\], HealthBlock \[1\]): payloads live off-chain, addressed by
//! digest; the chain carries only the digest. Experiment E3 measures the
//! on-chain byte savings this split produces.

use blockprov_crypto::sha256::{sha256, Hash256};
use std::collections::HashMap;

/// A content-addressed blob store.
#[derive(Debug, Default)]
pub struct OffChainStore {
    blobs: HashMap<Hash256, Vec<u8>>,
    bytes: u64,
}

impl OffChainStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store content, returning its address. Idempotent.
    pub fn put(&mut self, content: &[u8]) -> Hash256 {
        let addr = sha256(content);
        if !self.blobs.contains_key(&addr) {
            self.bytes += content.len() as u64;
            self.blobs.insert(addr, content.to_vec());
        }
        addr
    }

    /// Fetch content by address.
    pub fn get(&self, addr: &Hash256) -> Option<&[u8]> {
        self.blobs.get(addr).map(Vec::as_slice)
    }

    /// Verify that stored content still matches its address (bit-rot /
    /// tamper check on the off-chain side).
    pub fn verify(&self, addr: &Hash256) -> bool {
        self.get(addr).is_some_and(|c| sha256(c) == *addr)
    }

    /// Number of blobs.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Total payload bytes held off-chain.
    pub fn stored_bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let mut s = OffChainStore::new();
        let addr = s.put(b"payload");
        assert_eq!(s.get(&addr), Some(b"payload".as_slice()));
        assert!(s.verify(&addr));
        assert_eq!(s.len(), 1);
        assert_eq!(s.stored_bytes(), 7);
    }

    #[test]
    fn idempotent_put_does_not_double_count() {
        let mut s = OffChainStore::new();
        s.put(b"same");
        s.put(b"same");
        assert_eq!(s.len(), 1);
        assert_eq!(s.stored_bytes(), 4);
    }

    #[test]
    fn missing_address() {
        let s = OffChainStore::new();
        assert_eq!(s.get(&sha256(b"ghost")), None);
        assert!(!s.verify(&sha256(b"ghost")));
    }
}
