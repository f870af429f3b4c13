//! # cycledger-protocol
//!
//! The paper's primary contribution, as a runnable simulation: committee
//! sortition, the seven round phases of §IV, the recovery procedure of
//! Algorithm 6, adversarial behaviours, and a multi-round simulation driver
//! with per-phase, per-role measurement.
//!
//! * [`config`] — simulation parameters (`m`, `c`, `λ`, workload, adversary).
//! * [`adversary`] — the concrete deviations corrupted nodes exercise.
//! * [`node`] — simulated nodes and the PKI registry.
//! * [`sortition`] — referee/leader/partial-set selection and VRF sortition.
//! * [`committee`] — executable committees and network-driven Algorithm 3.
//! * [`phases`] — the seven phases plus recovery, one module each.
//! * [`engine`] — the phase-pipeline engine: [`engine::RoundContext`], the
//!   [`engine::pipeline`] table, the [`engine::env`] task table, and the
//!   persistent [`engine::ShardExecutor`].
//! * [`simulation`] — the multi-round public entry point.
//! * [`report`] — measurement output consumed by benches and experiments.
//! * [`epoch`] — epoch schedule, validator churn, committee reconfiguration.
//! * [`sync`] — state sync for joining/restarting members.
//! * [`traffic`] — open-loop arrival processes and confirm-latency tracking.

#![warn(missing_docs)]

pub mod adversary;
pub mod committee;
pub mod config;
pub mod engine;
pub mod epoch;
pub mod node;
pub mod phases;
pub mod report;
pub mod simulation;
pub mod sortition;
pub mod sync;
pub mod traffic;

pub use adversary::{AdversaryConfig, Behavior, BehaviorMix};
pub use committee::{Committee, InsideConsensusOutcome, LeaderFault};
pub use config::ProtocolConfig;
pub use engine::{NoopObserver, PlaneCounters, RoundContext, RoundObserver, ShardExecutor};
pub use epoch::EpochSchedule;
pub use node::{MembershipState, NodeRegistry, SimNode};
pub use report::{
    EpochTransitionReport, RecoveryOutcome, RecoveryRecord, RoundReport, SimulationSummary,
};
pub use simulation::Simulation;
pub use sortition::{assign_round, AssignmentParams, CommitteeAssignment, RoundAssignment};
pub use traffic::{ArrivalShape, LatencyHistogram, TrafficConfig, TrafficSnapshot};
