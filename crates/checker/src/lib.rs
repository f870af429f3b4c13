//! # cycledger-checker
//!
//! Exhaustive exploration and refinement for the CycLedger consensus core.
//!
//! * [`mod@explore`] — an enumerating scheduler over the machines the engine
//!   runs (`cycledger_consensus`'s vote collector, Algorithm 3 instance,
//!   impeachment vote, with real keys and signatures): BFS over every
//!   message delivery, drop and timer interleaving of one committee at the
//!   smallest non-trivial size (n = 4, t = 1, 2 rounds), with the safety
//!   assertions checked on what the machines produce — a certificate that
//!   verifies, never two digests certified in one instance, a tally that is
//!   the strict-majority rule over votes actually received, eviction only
//!   on admissible evidence.
//! * [`refine`] — a [`Refiner`] observes real executions (including the
//!   partition- and churn-fuzz schedules) and checks every phase's artifacts
//!   on the round context against the decision rules of
//!   [`cycledger_consensus::transition`], failing if any concrete step has
//!   no counterpart there: the guard at fuzz scale, a different bound. A
//!   closed vote collection is checked by one function, under one set of
//!   rule names, in both modules.
//!
//! The scheduler's own assertions are validated by self-test: exploring with
//! a deliberately [broken rule](explore::broken) planted in the machines
//! must produce violations.

#![warn(missing_docs)]

pub mod explore;
pub mod refine;

pub use explore::{explore, first_pass_in_send_order, ExploreStats, Fixture, Scenario, Violation};
pub use refine::{RefinementError, RefinementStats, Refiner};
