//! Cross-chain interoperability and provenance (RQ3).
//!
//! The paper's §2.3 lists the mechanism families cross-chain systems build
//! on — notary schemes, hash-locking, atomic swaps, side/relay chains — and
//! §5 surveys the cross-chain *provenance* systems (Vassago \[31\],
//! ForensiCross \[11\], SynergyChain \[21\]). This crate implements one working
//! member of each family:
//!
//! * [`htlc`] — hash time-locked contracts and Herlihy-style atomic swaps
//!   (all-or-nothing across two chains, experiment E8);
//! * [`notary`] — a signature-threshold notary committee attesting
//!   cross-chain events;
//! * [`relay`] — a relay chain holding foreign block headers so light
//!   clients verify foreign transactions by Merkle proof;
//! * [`bridge`] — ForensiCross's BridgeChain: multi-organization
//!   investigation synchronization requiring unanimous validation;
//! * [`vassago`] — Vassago's dependency-chain-guided cross-chain provenance
//!   query, parallel over the relevant shard chains, against the sequential
//!   chain-walk baseline (experiment E6);
//! * [`synergy`] — SynergyChain's three-tier multichain data sharing with
//!   hierarchical access control and catalog-accelerated queries;
//! * [`twolayer`] — InfiniteChain's \[37\] main/side two-layer organization
//!   with distributed auditing, including its heterogeneous-expansion
//!   limitation;
//! * [`tee`] — the TEE-attested query authenticity the survey proposes as a
//!   Vassago enhancement (simulated attestation trust chain);
//! * [`arc`] — ARC \[88\]: asynchronous batched relay for consortium chains
//!   with the alternative trust models (and the evaluation) the survey
//!   says ARC lacks;
//! * [`interop`] — the §6.2 "unified solution": one `ChainConnector`
//!   contract over all four mechanism families plus a conformance suite.

pub mod arc;
pub mod bridge;
pub mod htlc;
pub mod interop;
pub mod notary;
pub mod relay;
pub mod synergy;
pub mod tee;
pub mod twolayer;
pub mod vassago;

pub use arc::{ArcRelay, RequestState, TrustModel};
pub use bridge::{Bridge, BridgeError, OrgChain};
pub use htlc::{AssetChain, AtomicSwap, HtlcError, HtlcState, SwapOutcome};
pub use interop::{
    conformance, ChainConnector, ConformanceReport, DeliveryReceipt, InteropMessage,
};
pub use notary::{Attestation, CrossChainEvent, NotaryCommittee};
pub use relay::{RelayChain, RelayError};
pub use synergy::{HierPath, SynergyNetwork, SynergyQueryReport};
pub use tee::{verify_attested, AttestedResult, Enclave, Measurement, Vendor};
pub use twolayer::{AuditReport, SideRecord, TwoLayerError, TwoLayerNetwork};
pub use vassago::{CrossQueryReport, DependencyChain, VassagoNetwork};
