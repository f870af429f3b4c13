//! # cycledger-net
//!
//! Deterministic discrete-event network simulation substrate for the CycLedger
//! reproduction. The paper's evaluation is analytical; this crate lets the rest
//! of the workspace *measure* what the paper derives:
//!
//! * [`time`] — simulated clock (`Δ`/`Γ` offsets, phase timeouts).
//! * [`topology`] — node identities, roles, and the connection-channel graph
//!   behind Table I's "Burden on Connection" row.
//! * [`latency`] — per-link-class delay models (§III-B network model).
//! * [`faults`] — deterministic network faults: partition/heal schedules,
//!   targeted delay attacks, loss rates and bursts, reorder jitter.
//! * [`metrics`] — per-node, per-phase message/byte/storage accounting behind
//!   Table II.
//! * [`network`] — the event-queue network itself, with support for fault
//!   plans, virtual-time timers and a drain-until-quiescent event loop for
//!   message-driven protocol phases.

#![warn(missing_docs)]

pub mod faults;
pub mod latency;
pub mod metrics;
pub mod network;
pub mod time;
pub mod topology;

pub use faults::{FaultPlan, LossBurst, Partition, TargetedDelay};
pub use latency::{LatencyConfig, LatencySampler, LinkClass};
pub use metrics::{Counters, MetricsSink, Phase};
pub use network::{DropCounts, Envelope, NetEvent, SimNetwork};
pub use time::{SimDuration, SimTime};
pub use topology::{ChannelSet, NodeId, Role, RoundTopology};
