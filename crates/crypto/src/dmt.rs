//! The *distributed Merkle tree* of ForensiBlock \[12\].
//!
//! ForensiBlock verifies the integrity of a forensic **case** without
//! touching other cases' records: each case owns a segment tree over its own
//! records, and a top tree commits to every `(segment key, segment root)`
//! pair. A compound proof then shows (1) a record is in its segment and
//! (2) the segment root is under the top root — so an auditor for case A
//! never sees case B's record hashes.
//!
//! The same structure serves any multi-tenant ledger where per-tenant
//! verification must not leak across tenants (supply-chain lots, hospital
//! wards, workflow runs).

use crate::merkle::{leaf_hash, MerkleProof, MerkleTree};
use crate::sha256::{hash_parts, Hash256};
use blockprov_wire::{Codec, Reader, WireError, Writer};
use std::collections::BTreeMap;

/// A forest of per-segment Merkle trees under one top-level root.
///
/// Segments are keyed by string (case number, lot id, ward name…). The top
/// tree is built over segment keys in lexicographic order so the root is
/// independent of insertion order.
#[derive(Debug, Default, Clone)]
pub struct DistributedMerkleTree {
    segments: BTreeMap<String, Vec<Hash256>>,
    /// Cache invalidated on mutation.
    cache: Option<TreeCache>,
}

#[derive(Debug, Clone)]
struct TreeCache {
    segment_trees: BTreeMap<String, MerkleTree>,
    top: MerkleTree,
    /// Position of each segment in the top tree's leaf order.
    positions: BTreeMap<String, usize>,
}

/// Proof that a record belongs to a segment *and* that segment belongs to the
/// forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompoundProof {
    /// Segment key the record belongs to.
    pub segment: String,
    /// Root of the segment's own tree.
    pub segment_root: Hash256,
    /// Inclusion of the record hash under `segment_root`.
    pub record_proof: MerkleProof,
    /// Inclusion of the segment leaf under the forest root.
    pub segment_proof: MerkleProof,
}

impl CompoundProof {
    /// Verify the compound proof against the forest root.
    pub fn verify(&self, forest_root: &Hash256, record: &[u8]) -> bool {
        self.verify_record_hash(forest_root, &leaf_hash(record))
    }

    /// Verify with a precomputed record leaf hash.
    pub fn verify_record_hash(&self, forest_root: &Hash256, record_leaf: &Hash256) -> bool {
        if !self
            .record_proof
            .verify_leaf_hash(&self.segment_root, record_leaf)
        {
            return false;
        }
        let seg_leaf = segment_leaf(&self.segment, &self.segment_root);
        self.segment_proof.verify_leaf_hash(forest_root, &seg_leaf)
    }
}

impl Codec for CompoundProof {
    fn encode(&self, w: &mut Writer) {
        self.segment.encode(w);
        self.segment_root.encode(w);
        self.record_proof.encode(w);
        self.segment_proof.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            segment: String::decode(r)?,
            segment_root: Hash256::decode(r)?,
            record_proof: MerkleProof::decode(r)?,
            segment_proof: MerkleProof::decode(r)?,
        })
    }
}

/// The leaf committed into the top tree for a segment.
fn segment_leaf(key: &str, root: &Hash256) -> Hash256 {
    leaf_hash(hash_parts("dmt-segment", &[key.as_bytes(), root.as_bytes()]).as_bytes())
}

impl DistributedMerkleTree {
    /// Create an empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record (by hash) to a segment, creating it if needed.
    pub fn append(&mut self, segment: &str, record_hash: Hash256) {
        self.segments
            .entry(segment.to_string())
            .or_default()
            .push(record_hash);
        self.cache = None;
    }

    /// Append raw record bytes (hashed as a leaf).
    pub fn append_data(&mut self, segment: &str, record: &[u8]) {
        self.append(segment, leaf_hash(record));
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of records in a segment.
    pub fn record_count(&self, segment: &str) -> usize {
        self.segments.get(segment).map_or(0, Vec::len)
    }

    /// Total records across all segments.
    pub fn total_records(&self) -> usize {
        self.segments.values().map(Vec::len).sum()
    }

    fn build(&mut self) -> &TreeCache {
        if self.cache.is_none() {
            let mut segment_trees = BTreeMap::new();
            let mut positions = BTreeMap::new();
            let mut top_leaves = Vec::with_capacity(self.segments.len());
            for (pos, (key, hashes)) in self.segments.iter().enumerate() {
                let tree = MerkleTree::from_leaf_hashes(hashes.clone());
                top_leaves.push(segment_leaf(key, &tree.root()));
                positions.insert(key.clone(), pos);
                segment_trees.insert(key.clone(), tree);
            }
            let top = MerkleTree::from_leaf_hashes(top_leaves);
            self.cache = Some(TreeCache {
                segment_trees,
                top,
                positions,
            });
        }
        self.cache.as_ref().expect("just built")
    }

    /// Root over all segments.
    pub fn forest_root(&mut self) -> Hash256 {
        self.build().top.root()
    }

    /// Root of a single segment's tree, if it exists.
    pub fn segment_root(&mut self, segment: &str) -> Option<Hash256> {
        let cache = self.build();
        cache.segment_trees.get(segment).map(MerkleTree::root)
    }

    /// Produce a compound proof for the `index`-th record of `segment`.
    pub fn prove(&mut self, segment: &str, index: usize) -> Option<CompoundProof> {
        let cache = self.build();
        let seg_tree = cache.segment_trees.get(segment)?;
        let record_proof = seg_tree.prove(index)?;
        let pos = *cache.positions.get(segment)?;
        let segment_proof = cache.top.prove(pos)?;
        Some(CompoundProof {
            segment: segment.to_string(),
            segment_root: seg_tree.root(),
            record_proof,
            segment_proof,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forest() -> DistributedMerkleTree {
        let mut f = DistributedMerkleTree::new();
        for case in ["case-001", "case-002", "case-003"] {
            for i in 0..10 {
                f.append_data(case, format!("{case}/record-{i}").as_bytes());
            }
        }
        f
    }

    #[test]
    fn proofs_verify_per_segment() {
        let mut f = forest();
        let root = f.forest_root();
        for case in ["case-001", "case-002", "case-003"] {
            for i in 0..10 {
                let p = f.prove(case, i).unwrap();
                assert!(p.verify(&root, format!("{case}/record-{i}").as_bytes()));
            }
        }
    }

    #[test]
    fn proof_fails_for_wrong_record_or_segment() {
        let mut f = forest();
        let root = f.forest_root();
        let p = f.prove("case-001", 0).unwrap();
        assert!(!p.verify(&root, b"case-001/record-1"));
        // Claiming the proof belongs to another segment must fail.
        let mut forged = p.clone();
        forged.segment = "case-002".to_string();
        assert!(!forged.verify(&root, b"case-001/record-0"));
    }

    #[test]
    fn append_changes_forest_root_only_once_rebuilt() {
        let mut f = forest();
        let before = f.forest_root();
        f.append_data("case-001", b"new-record");
        let after = f.forest_root();
        assert_ne!(before, after);
    }

    #[test]
    fn old_proofs_do_not_verify_after_mutation() {
        let mut f = forest();
        let root_before = f.forest_root();
        let p = f.prove("case-002", 3).unwrap();
        f.append_data("case-002", b"late-arrival");
        let root_after = f.forest_root();
        assert!(p.verify(&root_before, b"case-002/record-3"));
        assert!(!p.verify(&root_after, b"case-002/record-3"));
    }

    #[test]
    fn insertion_order_does_not_affect_root() {
        let mut a = DistributedMerkleTree::new();
        a.append_data("s1", b"r1");
        a.append_data("s2", b"r2");
        let mut b = DistributedMerkleTree::new();
        b.append_data("s2", b"r2");
        b.append_data("s1", b"r1");
        assert_eq!(a.forest_root(), b.forest_root());
    }

    #[test]
    fn missing_segment_and_index() {
        let mut f = forest();
        assert!(f.prove("case-404", 0).is_none());
        assert!(f.prove("case-001", 10).is_none());
        assert_eq!(f.segment_root("case-404"), None);
    }

    #[test]
    fn compound_proof_codec_round_trip() {
        let mut f = forest();
        let root = f.forest_root();
        let p = f.prove("case-003", 7).unwrap();
        let decoded = CompoundProof::from_wire(&p.to_wire()).unwrap();
        assert_eq!(decoded, p);
        assert!(decoded.verify(&root, b"case-003/record-7"));
    }

    #[test]
    fn counts() {
        let f = forest();
        assert_eq!(f.segment_count(), 3);
        assert_eq!(f.record_count("case-001"), 10);
        assert_eq!(f.total_records(), 30);
    }
}
