//! The blockprov node: a long-running HTTP service over a
//! [`blockprov_core::ProvenanceLedger`].
//!
//! The paper surveys provenance blockchains as *services* — systems that
//! clients ingest into and query over a network. This crate is that
//! service tier for the reproduction: a single-writer node that accepts
//! block batches over HTTP, serves provenance queries and Merkle inclusion
//! proofs from lock-free reader snapshots, and exposes its own health as
//! `GET /healthz` + `GET /metrics` (via [`blockprov_health::metrics`]).
//!
//! # Endpoints
//!
//! | Endpoint | Semantics |
//! |---|---|
//! | `POST /blocks` | Ingest a batch (wire-codec body) through the bounded queue; `429 Retry-After` under backpressure |
//! | `GET /tip` | Published tip height/hash and finality checkpoint |
//! | `GET /block/{height}` | Canonical block summary at a height |
//! | `GET /tx/{id}` | Canonical transaction by id (decoded provenance record when applicable) |
//! | `GET /provenance/{artifact}` | All canonical provenance records for an artifact, oldest first |
//! | `GET /prove/{tx}` | Self-contained Merkle inclusion proof |
//! | `GET /healthz` | Liveness + ledger summary |
//! | `GET /metrics` | Prometheus-style text exposition |
//!
//! # Design
//!
//! There is no web framework in the workspace (no registry access), so
//! [`http`] hand-rolls the HTTP/1.1 subset the node needs over
//! [`std::net`] threads, the same way the ledger hand-rolls its
//! validation pool. [`server`] holds the threading model: exactly one
//! writer thread owns the ledger, every read is answered from a cloneable
//! [`blockprov_ledger::ChainReader`] pinned view, and the two meet only at
//! a bounded ingest queue. [`json`] is the tiny response serializer.
//!
//! See `docs/OPERATIONS.md` for the operator's handbook and the
//! `blockprov-node` binary for the deployable entry point (SIGTERM drains
//! the queue and writes the clean-shutdown snapshot before exit).

pub mod http;
pub mod json;
pub mod server;

pub use server::{Node, NodeConfig};
