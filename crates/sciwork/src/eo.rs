//! Earth-observation data management — the Zhang et al. \[87\] reproduction.
//!
//! The surveyed system manages petabyte-scale EO archives with three parts:
//! *users* upload datasets to *data centers*, which store payloads off-chain
//! and record essential information on a consortium *blockchain* whose
//! transactions form a **Directed Acyclic Graph**, "enabling efficient
//! traceability, enhancing scalability and interoperability".
//!
//! This module reproduces that architecture:
//!
//! * Off-chain payloads live in a replicated [`Swarm`]
//!   (the data centers' shared storage; see `blockprov-storage`);
//! * each on-chain [`EoTx`] carries the payload's content identifier and
//!   digest plus **parent edges** to the transactions it derives from
//!   (ingest → processing levels → distribution), forming the DAG;
//! * periodic [`EoNetwork::anchor`] checkpoints hash-chain the DAG frontier,
//!   standing in for the consortium's Raft/PBFT rounds (the consensus
//!   throughput/latency claims are measured separately in experiment E1);
//! * [`EoNetwork::trace`] answers provenance queries by walking parent
//!   edges — `records_examined` grows with lineage *depth*, while the
//!   [`EoNetwork::trace_by_scan`] baseline (a ledger without DAG links)
//!   re-scans the whole transaction list per hop. The gap between the two
//!   is the paper's "efficient traceability" claim (experiment E15).

use blockprov_crypto::sha256::{hash_parts, sha256, Hash256};
use blockprov_storage::{add_file, cat, Chunker, Cid, Swarm};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// Transaction identifier: digest of the transaction's content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EoTxId(pub Hash256);

impl fmt::Display for EoTxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eotx:{}", self.0)
    }
}

/// What an EO transaction records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EoTxKind {
    /// A new raw scene entering the archive (no parents).
    Ingest,
    /// A derived product (has ≥1 parents: its inputs).
    Process,
    /// Delivery of a product to a consumer (1 parent).
    Distribute,
}

/// An on-chain EO transaction: essential information only, payload
/// off-chain behind `cid`.
#[derive(Debug, Clone)]
pub struct EoTx {
    /// Identifier (content digest).
    pub id: EoTxId,
    /// Transaction kind.
    pub kind: EoTxKind,
    /// Parent transactions this one derives from (the DAG edges).
    pub parents: Vec<EoTxId>,
    /// Product name (e.g. "S2A-L1C-tile-33UVP").
    pub name: String,
    /// Submitting data center.
    pub center: String,
    /// Content identifier of the off-chain payload.
    pub cid: Cid,
    /// SHA-256 of the raw payload (end-to-end integrity check).
    pub payload_digest: Hash256,
    /// Payload size in bytes.
    pub payload_bytes: u64,
    /// Logical timestamp (submission order).
    pub seq: u64,
}

/// A consortium checkpoint over a batch of DAG transactions.
#[derive(Debug, Clone)]
pub struct AnchorBlock {
    /// Height of this anchor.
    pub height: u64,
    /// Hash of the previous anchor.
    pub prev: Hash256,
    /// Digest over the anchored transaction ids (in order).
    pub batch_root: Hash256,
    /// Number of transactions anchored.
    pub count: usize,
    /// This anchor's hash.
    pub hash: Hash256,
}

/// Result of a traceability query.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The queried product.
    pub subject: EoTxId,
    /// Every ancestor transaction, nearest first.
    pub lineage: Vec<EoTxId>,
    /// Longest parent-path length to a raw ingest.
    pub depth: usize,
    /// Transaction records examined to assemble the answer (the cost
    /// metric: DAG traversal touches ancestors only; the scan baseline
    /// touches the whole ledger per hop).
    pub records_examined: u64,
}

/// Errors from the EO network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EoError {
    /// Referenced parent transaction does not exist.
    UnknownParent(EoTxId),
    /// Referenced transaction does not exist.
    UnknownTx(EoTxId),
    /// Kind/parents mismatch (e.g. Process with no parents).
    BadShape(&'static str),
    /// Off-chain payload unavailable or corrupted.
    PayloadUnavailable(EoTxId),
    /// Payload bytes do not match the on-chain digest.
    PayloadTampered(EoTxId),
}

impl fmt::Display for EoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EoError::UnknownParent(t) => write!(f, "unknown parent {t}"),
            EoError::UnknownTx(t) => write!(f, "unknown transaction {t}"),
            EoError::BadShape(m) => write!(f, "malformed transaction: {m}"),
            EoError::PayloadUnavailable(t) => write!(f, "payload for {t} unavailable"),
            EoError::PayloadTampered(t) => write!(f, "payload for {t} fails digest check"),
        }
    }
}

impl std::error::Error for EoError {}

/// The EO data-management network: data centers sharing a replicated
/// off-chain store plus the on-chain transaction DAG.
pub struct EoNetwork {
    swarm: Swarm,
    chunker: Chunker,
    txs: Vec<EoTx>,
    index: HashMap<EoTxId, usize>,
    children: HashMap<EoTxId, Vec<EoTxId>>,
    anchors: Vec<AnchorBlock>,
    anchored_upto: usize,
    seq: u64,
}

impl fmt::Debug for EoNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EoNetwork")
            .field("txs", &self.txs.len())
            .field("anchors", &self.anchors.len())
            .finish_non_exhaustive()
    }
}

impl EoNetwork {
    /// A network of `centers` data centers replicating every payload onto
    /// `replication` of them.
    pub fn new(centers: usize, replication: usize) -> Self {
        Self {
            swarm: Swarm::new(centers.max(1), replication.max(1)),
            chunker: Chunker::ContentDefined(4096),
            txs: Vec::new(),
            index: HashMap::new(),
            children: HashMap::new(),
            anchors: Vec::new(),
            anchored_upto: 0,
            seq: 0,
        }
    }

    fn admit(
        &mut self,
        kind: EoTxKind,
        parents: Vec<EoTxId>,
        name: &str,
        center: &str,
        payload: &[u8],
    ) -> Result<EoTxId, EoError> {
        match kind {
            EoTxKind::Ingest if !parents.is_empty() => {
                return Err(EoError::BadShape("ingest must have no parents"))
            }
            EoTxKind::Process if parents.is_empty() => {
                return Err(EoError::BadShape("process needs at least one parent"))
            }
            EoTxKind::Distribute if parents.len() != 1 => {
                return Err(EoError::BadShape("distribute needs exactly one parent"))
            }
            _ => {}
        }
        for p in &parents {
            if !self.index.contains_key(p) {
                return Err(EoError::UnknownParent(*p));
            }
        }
        let cid = add_file(&mut self.swarm, payload, self.chunker, 8);
        let payload_digest = sha256(payload);
        let seq = self.seq;
        self.seq += 1;
        let mut parts: Vec<&[u8]> = vec![name.as_bytes(), center.as_bytes()];
        let parent_bytes: Vec<[u8; 32]> = parents.iter().map(|p| p.0 .0).collect();
        for pb in &parent_bytes {
            parts.push(pb);
        }
        let digest_bytes = payload_digest.0;
        let seq_bytes = seq.to_le_bytes();
        parts.push(&digest_bytes);
        parts.push(&seq_bytes);
        let id = EoTxId(hash_parts("blockprov-eo-tx", &parts));
        let tx = EoTx {
            id,
            kind,
            parents: parents.clone(),
            name: name.to_string(),
            center: center.to_string(),
            cid,
            payload_digest,
            payload_bytes: payload.len() as u64,
            seq,
        };
        self.index.insert(id, self.txs.len());
        for p in parents {
            self.children.entry(p).or_default().push(id);
        }
        self.txs.push(tx);
        Ok(id)
    }

    /// A data center ingests a raw scene.
    pub fn ingest(&mut self, center: &str, name: &str, payload: &[u8]) -> Result<EoTxId, EoError> {
        self.admit(EoTxKind::Ingest, Vec::new(), name, center, payload)
    }

    /// Record a derived product (processing step) with its input products.
    pub fn process(
        &mut self,
        center: &str,
        name: &str,
        parents: &[EoTxId],
        payload: &[u8],
    ) -> Result<EoTxId, EoError> {
        self.admit(EoTxKind::Process, parents.to_vec(), name, center, payload)
    }

    /// Record distribution of a product to a consumer.
    pub fn distribute(
        &mut self,
        center: &str,
        product: EoTxId,
        recipient: &str,
    ) -> Result<EoTxId, EoError> {
        let name = format!("distribution→{recipient}");
        self.admit(EoTxKind::Distribute, vec![product], &name, center, &[])
    }

    /// Look up a transaction.
    pub fn tx(&self, id: &EoTxId) -> Option<&EoTx> {
        self.index.get(id).map(|&i| &self.txs[i])
    }

    /// Downstream transactions deriving from `id`.
    pub fn children_of(&self, id: &EoTxId) -> &[EoTxId] {
        self.children.get(id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total transactions.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Whether the DAG is empty.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Seal every not-yet-anchored transaction into a hash-chained
    /// consortium checkpoint. Returns the new anchor (None if nothing new).
    pub fn anchor(&mut self) -> Option<&AnchorBlock> {
        if self.anchored_upto == self.txs.len() {
            return None;
        }
        let batch = &self.txs[self.anchored_upto..];
        let id_bytes: Vec<[u8; 32]> = batch.iter().map(|t| t.id.0 .0).collect();
        let parts: Vec<&[u8]> = id_bytes.iter().map(|b| b.as_slice()).collect();
        let batch_root = hash_parts("blockprov-eo-anchor-batch", &parts);
        let prev = self.anchors.last().map(|a| a.hash).unwrap_or(Hash256::ZERO);
        let height = self.anchors.len() as u64;
        let hash = hash_parts(
            "blockprov-eo-anchor",
            &[&height.to_le_bytes(), prev.as_bytes(), batch_root.as_bytes()],
        );
        self.anchors.push(AnchorBlock {
            height,
            prev,
            batch_root,
            count: batch.len(),
            hash,
        });
        self.anchored_upto = self.txs.len();
        self.anchors.last()
    }

    /// The anchor chain.
    pub fn anchors(&self) -> &[AnchorBlock] {
        &self.anchors
    }

    /// Verify the anchor chain's hash linkage.
    pub fn verify_anchors(&self) -> bool {
        let mut prev = Hash256::ZERO;
        for a in &self.anchors {
            let expect = hash_parts(
                "blockprov-eo-anchor",
                &[&a.height.to_le_bytes(), prev.as_bytes(), a.batch_root.as_bytes()],
            );
            if a.prev != prev || a.hash != expect {
                return false;
            }
            prev = a.hash;
        }
        true
    }

    /// DAG traceability: breadth-first walk of parent edges from `subject`
    /// back to raw ingests. Cost is proportional to the ancestor set.
    pub fn trace(&self, subject: EoTxId) -> Result<TraceReport, EoError> {
        if !self.index.contains_key(&subject) {
            return Err(EoError::UnknownTx(subject));
        }
        let mut seen: HashSet<EoTxId> = HashSet::new();
        let mut lineage = Vec::new();
        let mut examined = 0u64;
        let mut depth = 0usize;
        let mut frontier = VecDeque::new();
        frontier.push_back((subject, 0usize));
        seen.insert(subject);
        while let Some((id, d)) = frontier.pop_front() {
            let tx = &self.txs[self.index[&id]];
            examined += 1;
            depth = depth.max(d);
            if id != subject {
                lineage.push(id);
            }
            for p in &tx.parents {
                if seen.insert(*p) {
                    frontier.push_back((*p, d + 1));
                }
            }
        }
        Ok(TraceReport { subject, lineage, depth, records_examined: examined })
    }

    /// Baseline traceability on a ledger *without* DAG edges: every hop must
    /// rediscover its parents by scanning the full transaction list (what a
    /// linear chain of opaque transactions forces). Produces the same
    /// lineage with `records_examined ≈ hops × ledger size`.
    pub fn trace_by_scan(&self, subject: EoTxId) -> Result<TraceReport, EoError> {
        if !self.index.contains_key(&subject) {
            return Err(EoError::UnknownTx(subject));
        }
        let mut seen: HashSet<EoTxId> = HashSet::new();
        let mut lineage = Vec::new();
        let mut examined = 0u64;
        let mut depth = 0usize;
        let mut frontier = VecDeque::new();
        frontier.push_back((subject, 0usize));
        seen.insert(subject);
        while let Some((id, d)) = frontier.pop_front() {
            // The scan: walk the whole ledger looking for this tx.
            let mut found: Option<&EoTx> = None;
            for tx in &self.txs {
                examined += 1;
                if tx.id == id {
                    found = Some(tx);
                    break;
                }
            }
            let tx = found.expect("id verified present");
            depth = depth.max(d);
            if id != subject {
                lineage.push(id);
            }
            for p in &tx.parents {
                if seen.insert(*p) {
                    frontier.push_back((*p, d + 1));
                }
            }
        }
        Ok(TraceReport { subject, lineage, depth, records_examined: examined })
    }

    /// Fetch a payload from the data centers and verify it against the
    /// on-chain digest.
    pub fn fetch_verified(&self, id: &EoTxId) -> Result<Vec<u8>, EoError> {
        let tx = self.tx(id).ok_or(EoError::UnknownTx(*id))?;
        let bytes = cat(&self.swarm, &tx.cid).map_err(|_| EoError::PayloadUnavailable(*id))?;
        if sha256(&bytes) != tx.payload_digest {
            return Err(EoError::PayloadTampered(*id));
        }
        Ok(bytes)
    }

    /// Simulate a data-center outage.
    pub fn fail_center(&mut self, index: usize) -> bool {
        self.swarm.fail_peer(index)
    }

    /// Restore a failed data center.
    pub fn recover_center(&mut self, index: usize) -> bool {
        self.swarm.recover_peer(index)
    }

    /// Direct access to the shared off-chain store (benches).
    pub fn swarm(&self) -> &Swarm {
        &self.swarm
    }

    /// Build a synthetic processing pipeline for benches/tests: one raw
    /// scene, then a chain of `levels` derived products, returning the final
    /// product id. Payload sizes shrink per level like real EO pipelines
    /// (L0 raw is the biggest).
    pub fn synthetic_pipeline(
        &mut self,
        center: &str,
        scene: &str,
        levels: usize,
        raw_bytes: usize,
    ) -> Result<EoTxId, EoError> {
        let raw: Vec<u8> = (0..raw_bytes).map(|i| (i as u8).wrapping_mul(31)).collect();
        let mut head = self.ingest(center, &format!("{scene}-L0"), &raw)?;
        for level in 1..=levels {
            let product: Vec<u8> = (0..(raw_bytes / (level + 1)).max(16))
                .map(|i| (i as u8).wrapping_add(level as u8))
                .collect();
            head = self.process(center, &format!("{scene}-L{level}"), &[head], &product)?;
        }
        Ok(head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> EoNetwork {
        EoNetwork::new(4, 2)
    }

    #[test]
    fn ingest_process_distribute_flow() {
        let mut n = net();
        let raw = n.ingest("dc-eu", "S2A-raw", b"raw scene bytes").unwrap();
        let l1 = n.process("dc-eu", "S2A-L1C", &[raw], b"radiometric").unwrap();
        let l2 = n.process("dc-us", "S2A-L2A", &[l1], b"atmospheric").unwrap();
        let d = n.distribute("dc-us", l2, "uni-lab").unwrap();
        assert_eq!(n.len(), 4);
        assert_eq!(n.tx(&d).unwrap().parents, vec![l2]);
        assert_eq!(n.children_of(&raw), &[l1]);
    }

    #[test]
    fn shape_rules_enforced() {
        let mut n = net();
        let raw = n.ingest("dc", "scene", b"x").unwrap();
        assert_eq!(
            n.process("dc", "derived", &[], b"y").unwrap_err(),
            EoError::BadShape("process needs at least one parent")
        );
        let ghost = EoTxId(sha256(b"ghost"));
        assert_eq!(n.process("dc", "p", &[ghost], b"y").unwrap_err(), EoError::UnknownParent(ghost));
        let _ = raw;
    }

    #[test]
    fn trace_collects_full_lineage() {
        let mut n = net();
        let a = n.ingest("dc", "a", b"a").unwrap();
        let b = n.ingest("dc", "b", b"b").unwrap();
        let merged = n.process("dc", "mosaic", &[a, b], b"ab").unwrap();
        let refined = n.process("dc", "refined", &[merged], b"r").unwrap();
        let report = n.trace(refined).unwrap();
        assert_eq!(report.depth, 2);
        let set: HashSet<_> = report.lineage.iter().copied().collect();
        assert_eq!(set, HashSet::from([a, b, merged]));
    }

    #[test]
    fn dag_trace_examines_far_fewer_records_than_scan() {
        let mut n = net();
        // Bulk unrelated traffic to make the ledger big.
        for i in 0..200 {
            n.ingest("dc-noise", &format!("noise-{i}"), &[i as u8]).unwrap();
        }
        let head = n.synthetic_pipeline("dc", "scene", 8, 1024).unwrap();
        let dag = n.trace(head).unwrap();
        let scan = n.trace_by_scan(head).unwrap();
        assert_eq!(dag.lineage.len(), scan.lineage.len(), "same answer");
        assert_eq!(dag.records_examined, 9, "subject + 8 ancestors");
        assert!(
            scan.records_examined > dag.records_examined * 10,
            "scan {} vs dag {}",
            scan.records_examined,
            dag.records_examined
        );
    }

    #[test]
    fn anchors_chain_and_verify() {
        let mut n = net();
        n.ingest("dc", "one", b"1").unwrap();
        let a1 = n.anchor().unwrap().hash;
        assert!(n.anchor().is_none(), "nothing new to anchor");
        n.ingest("dc", "two", b"2").unwrap();
        n.ingest("dc", "three", b"3").unwrap();
        let a2 = n.anchor().unwrap().clone();
        assert_eq!(a2.prev, a1);
        assert_eq!(a2.count, 2);
        assert!(n.verify_anchors());
    }

    #[test]
    fn payload_round_trip_and_digest_check() {
        let mut n = net();
        let id = n.ingest("dc", "scene", b"precious pixels").unwrap();
        assert_eq!(n.fetch_verified(&id).unwrap(), b"precious pixels");
    }

    #[test]
    fn payload_survives_single_center_outage() {
        let mut n = net();
        let id = n.ingest("dc", "scene", &[7u8; 5000]).unwrap();
        n.fail_center(0);
        assert_eq!(n.fetch_verified(&id).unwrap(), vec![7u8; 5000]);
    }

    #[test]
    fn payload_unavailable_after_total_outage() {
        let mut n = net();
        let id = n.ingest("dc", "scene", &[9u8; 100]).unwrap();
        for c in 0..4 {
            n.fail_center(c);
        }
        assert_eq!(n.fetch_verified(&id).unwrap_err(), EoError::PayloadUnavailable(id));
        n.recover_center(1);
        // Whether this particular center held a replica is placement-
        // dependent; recovering all centers always restores availability.
        for c in 0..4 {
            n.recover_center(c);
        }
        assert!(n.fetch_verified(&id).is_ok());
    }

    #[test]
    fn trace_unknown_tx_errors() {
        let n = net();
        let ghost = EoTxId(sha256(b"nope"));
        assert_eq!(n.trace(ghost).unwrap_err(), EoError::UnknownTx(ghost));
    }

    #[test]
    fn on_chain_footprint_is_digests_not_payloads() {
        let mut n = net();
        let big = vec![0xABu8; 1 << 16];
        let id = n.ingest("dc", "big-scene", &big).unwrap();
        let tx = n.tx(&id).unwrap();
        // The on-chain record holds two 32-byte digests + metadata, not the
        // 64 KiB payload.
        assert_eq!(tx.payload_bytes, 1 << 16);
        assert_eq!(tx.cid.0.as_bytes().len(), 32);
    }
}
