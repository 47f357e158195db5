//! Content-addressed distributed storage — the workspace's IPFS substitute.
//!
//! Several systems the paper surveys park bulk payloads in IPFS and anchor
//! only digests on chain: Hasan et al. \[33\] (cloud provenance), HealthBlock
//! \[1\] (EHR sharing), Ahmed et al. \[8\] (media evidence). This crate rebuilds
//! that substrate from scratch so those reproductions exercise a real
//! content-addressed path instead of a mock:
//!
//! * [`chunker`] — fixed-size and content-defined (gear rolling hash)
//!   chunking; the latter preserves deduplication across file edits;
//! * [`dag`] — Merkle-DAG nodes ([`DagNode`]) addressed by [`Cid`] digests,
//!   file/directory assembly, `cat`, and subtree verification;
//! * [`store`] — the local [`BlockStore`]: dedup accounting, pinning, and
//!   mark-and-sweep GC;
//! * [`swarm`] — a replicated [`Swarm`] of peers using rendezvous hashing,
//!   with failure injection, probe-count latency proxies, and repair.
//!
//! On-chain anchoring of roots is done by the consuming crates (a [`Cid`]
//! is 32 bytes — exactly the hash-on-chain/payload-off-chain split whose
//! storage ratio experiment E3 measures); see `tests/storage_anchoring.rs`
//! at the workspace root for the end-to-end flow.

pub mod chunker;
pub mod dag;
pub mod store;
pub mod swarm;

pub use chunker::Chunker;
pub use dag::{
    add_directory, add_file, cat, resolve, verify_subtree, Cid, DagError, DagLink, DagNode,
    DirEntry, NodeSink,
};
pub use store::{BlockStore, StoreStats};
pub use swarm::{Swarm, SwarmStats};
