//! One full protocol round: the seven phases of §IV plus recovery, in order.
//!
//! The heavy lifting lives in [`crate::engine`]: this module only defines the
//! round's public input/output types and hands the input to the standard
//! phase pipeline. Worker threads come from the caller's persistent
//! [`ShardExecutor`] — no threads are spawned inside the round itself.

use cycledger_ledger::utxo::UtxoSet;
use cycledger_ledger::workload::GeneratedTx;
use cycledger_reputation::ReputationTable;

use crate::config::ProtocolConfig;
use crate::engine::{
    run_pipeline_observed, standard_pipeline, RoundArena, RoundContext, RoundObserver,
    ShardExecutor,
};
use crate::node::NodeRegistry;
use crate::report::RoundReport;
use crate::sortition::RoundAssignment;

/// Everything a round needs from the surrounding simulation.
pub struct RoundInput<'a> {
    /// The protocol configuration.
    pub config: &'a ProtocolConfig,
    /// The node registry (PKI + ground truth).
    pub registry: &'a NodeRegistry,
    /// This round's assignment (from the previous block).
    pub assignment: &'a RoundAssignment,
    /// Mutable shard UTXO sets, one per committee.
    pub utxo_sets: &'a mut [UtxoSet],
    /// Mutable global reputation table.
    pub reputation: &'a mut ReputationTable,
    /// Transactions offered by external users this round.
    pub offered: Vec<GeneratedTx>,
    /// Hash of the previous block.
    pub prev_hash: cycledger_crypto::sha256::Digest,
    /// Height the produced block will sit at (the chain height before this
    /// round). Usually equals the round number; it diverges only if an earlier
    /// round failed to produce a block.
    pub block_height: u64,
    /// Reusable per-round scratch buffers (see [`RoundArena`]); the caller
    /// keeps the arena alive across rounds so its capacity is recycled.
    pub arena: &'a mut RoundArena,
    /// Network faults in force this round (partitions, targeted delay,
    /// loss): every phase network is built with this plan. Empty unless the
    /// simulation installed one (`Simulation::set_fault_plan`).
    pub faults: &'a cycledger_net::faults::FaultPlan,
}

/// The result of one round.
pub struct RoundOutput {
    /// The block, if one was produced.
    pub block: Option<cycledger_ledger::block::Block>,
    /// The next round's assignment (None if the beacon failed).
    pub next_assignment: Option<RoundAssignment>,
    /// The measured report.
    pub report: RoundReport,
}

/// Runs one complete round on `executor`'s worker pool by delegating to the
/// standard phase pipeline, with every phase boundary reported to `observer`
/// (see [`RoundObserver`]; [`crate::engine::NoopObserver`] for none).
/// Observation never changes protocol output.
pub fn run_round_observed(
    input: RoundInput<'_>,
    executor: &ShardExecutor,
    observer: &mut dyn RoundObserver,
) -> RoundOutput {
    let mut ctx = RoundContext::new(input, executor);
    run_pipeline_observed(&mut ctx, standard_pipeline(), observer);
    ctx.into_output()
}
