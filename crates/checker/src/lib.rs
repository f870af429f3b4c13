//! # cycledger-checker
//!
//! Explicit-state model checking and refinement for the CycLedger consensus
//! core.
//!
//! Two halves, one transition function:
//!
//! * [`model`] — an exhaustive BFS over every message delivery, drop, and
//!   timer interleaving of the intra-committee pipeline (vote
//!   collection under the 4Δ deadline, Algorithm 3, recovery with retry) at
//!   the smallest non-trivial configuration (n = 4, t = 1, 2 rounds), with
//!   hash-consed, symmetry-reduced states and machine-checked safety
//!   assertions: no conflicting quorum certificates, no double-commit,
//!   eviction only with admissible evidence, and a quorum-timeout fallback
//!   that never manufactures a vote.
//! * [`refine`] — replays concrete executions (recorded by
//!   `cycledger_protocol::TraceRecorder`, including the partition- and
//!   churn-fuzz schedules) through the same decision rules, failing if any
//!   concrete step has no abstract counterpart.
//!
//! Both halves decide *everything* via [`cycledger_consensus::transition`] —
//! the same side-effect-free functions the protocol's phase drivers
//! (`phases/{intra,recovery,xshard}.rs`) call — so a bug in a threshold or tally is caught twice: the model
//! run refutes it at the exhaustive bound, and the refinement run refutes it
//! at fuzz scale. The checker's own assertions are validated by self-test:
//! exploring with a deliberately [broken rule](model::BrokenRule) must
//! produce violations.

#![warn(missing_docs)]

pub mod model;
pub mod refine;

pub use model::{
    explore, explore_all, BrokenRule, ExploreStats, Scenario, Violation, ALL_SCENARIOS,
    COMMITTEE_SIZE, ROUNDS,
};
pub use refine::{check_trace, RefinementError, RefinementStats};
