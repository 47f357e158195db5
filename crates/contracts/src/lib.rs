//! Deterministic smart-contract framework.
//!
//! The surveyed systems lean on smart contracts everywhere: SmartProvenance
//! \[63\] authenticates provenance records through threshold voting contracts,
//! PrivChain \[52\] automates proof verification and incentive payout, Singh
//! et al. \[69\] encode healthcare stakeholder logic, and Cui et al. \[23\] run
//! confirmation-based ownership transfer as Fabric chaincode. This crate is
//! the substrate those reproductions run on:
//!
//! * [`Contract`] — a deterministic state-transition function over a
//!   namespaced key/value store;
//! * [`ContractRuntime`] — registration, invocation with gas metering,
//!   write-buffering with rollback on failure, an event log, and a state
//!   root for block headers;
//! * built-ins: [`voting::VotingContract`] (SmartProvenance threshold
//!   approval) and [`registry::RegistryContract`] (unique registration +
//!   confirmation-based ownership transfer).
//!
//! Determinism rules: contracts may read only their namespace and the
//! invocation context (caller, height, timestamp); all randomness and I/O
//! are forbidden by construction (nothing in the API provides them).

pub mod registry;
pub mod runtime;
pub mod voting;

pub use runtime::{
    Contract, ContractCtx, ContractError, ContractEvent, ContractId, ContractRuntime, GasMeter,
    InvocationReceipt,
};
