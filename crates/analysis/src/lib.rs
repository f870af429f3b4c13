//! # cycledger-analysis
//!
//! Closed-form analysis mirroring the paper's evaluation:
//!
//! * [`hypergeometric`] — exact hypergeometric tails, KL-divergence bounds and
//!   Monte-Carlo cross-checks behind Fig. 5 and Eq. 3/4.
//! * [`failure`] — per-round failure probabilities of CycLedger and the Table I
//!   comparison protocols, partial-set bounds, union bounds (§V-B, §V-C).
//! * [`complexity`] — Table II per-phase/per-role complexity predictions, which
//!   `BENCH_paper.json`'s `table2` block prints beside the measured means.
//! * [`profiles`] — the rows of Table I for Elastico, OmniLedger, RapidChain
//!   and CycLedger, built from [`failure`] and the network's channel counts.
//! * [`leader_model`] — throughput under dishonest leaders with and without
//!   CycLedger's recovery procedure (the motivation experiment of §I).

#![warn(missing_docs)]

pub mod complexity;
pub mod failure;
pub mod hypergeometric;
pub mod leader_model;
pub mod profiles;

pub use complexity::{table2_prediction, Prediction, RoleClass, SystemSize};
pub use failure::{
    cycledger_round_failure, cycledger_round_failure_exact, partial_set_failure_probability,
    quarter_resilient_round_failure, rapidchain_round_failure, union_bound,
};
pub use hypergeometric::{
    committee_failure_probability, hypergeometric_pmf, hypergeometric_tail, kl_bound,
    kl_divergence, ln_choose, ln_factorial, monte_carlo_failure, simplified_bound,
};
pub use leader_model::{expected_throughput_fraction, recovery_comparison_series};
pub use profiles::{build_table1, profile, ComparisonParams, Protocol, ProtocolProfile};
