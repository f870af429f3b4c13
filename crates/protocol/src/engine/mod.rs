//! # The round engine
//!
//! The phase-pipeline engine behind
//! [`Simulation::run_round_observed`](crate::simulation::Simulation::run_round_observed),
//! in four explicit pieces:
//!
//! * [`RoundContext`] (`context`) — owns all per-round shared state:
//!   committees, books, workload split, eviction ledger, and the artifacts
//!   each phase produces for its successors.
//! * [`mod@env`] — one way to open, run and close a committee task: the
//!   [`RoundEnv`] every phase entry point takes, the [`Task`] table that
//!   alone maps a task to its label, `seq`, network seed and whether its
//!   network runs under the round's fault plan, and the [`Books`] a task
//!   hands back.
//! * [`pipeline`] — every protocol phase as a function over the context. A
//!   phase declares its inputs and outputs as context artifacts, so phase
//!   order and data flow are visible in one place
//!   ([`pipeline::standard_pipeline`], a static table of a
//!   [`Phase`](cycledger_net::metrics::Phase) and a function each)
//!   instead of being threaded through a single function body.
//! * [`ShardExecutor`] (`executor`) — a persistent worker pool created once
//!   per [`crate::simulation::Simulation`] and reused across rounds. Every
//!   per-committee or per-node cryptographic loop of a round is an executor
//!   batch: the intra-consensus fan-out, the post-recovery consensus
//!   retries, the inter phase's sources, the next round's VRF sortition with
//!   every proof checked in groups of eight (selection, and the genesis and
//!   epoch-boundary assignments) and the per-shard block application and
//!   commit. Work that waits on nothing a batch produces rides in one as its
//!   lead task: the next round's PVSS beacon, PoW admissions and VRF table in
//!   the intra-consensus batch. What stays on the
//!   driver thread is either one instance of something that waits on the
//!   round (the referee's block-generation consensus), cheap (the
//!   semi-commitment exchange's hashes and signatures; the admission of
//!   every quorum certificate, which is lookups in the verdict memo its
//!   instance's task hands back with it), or a fold over shared state
//!   (impeachments, the reputation update's scores) whose order is part of
//!   the determinism contract.
//!
//! ## Determinism contract
//!
//! Identical seeds must yield byte-identical [`crate::SimulationSummary`]
//! output regardless of worker count. The engine guarantees this by
//! construction:
//!
//! * every executor task is a pure function of explicitly captured inputs
//!   with its own seed from the task table,
//! * results return in submission (= committee) order, never completion
//!   order, and
//! * a task's metrics and counters travel back with its result as its
//!   [`Books`], folded into the round's in that order (sums, so any order
//!   would give the same totals).
//!
//! The `determinism_*` tests in `simulation.rs` pin this down for 1, 2 and 8
//! workers.

pub mod arena;
pub mod context;
pub mod env;
pub mod executor;
pub mod pipeline;

pub use arena::{RoundArena, ShardScratch};
pub use context::RoundContext;
pub use env::{Books, PlaneCounters, RoundEnv, Task};
pub use executor::ShardExecutor;
pub use pipeline::standard_pipeline;

/// Observation points the engine exposes to external subsystems.
///
/// The scenario runner's invariant checkers and the checker crate's refiner
/// implement this to watch a round as it executes: the engine calls in at
/// every phase boundary with shared access to the full [`RoundContext`], so
/// an observer can inspect phase artifacts (outcomes, books, recovery log)
/// exactly as each phase produced them. The running phase is
/// [`RoundContext::phase`]; the `&'static str` argument is its
/// [`name`](cycledger_net::metrics::Phase::name). Observers must not affect
/// protocol output — they only read — which keeps the determinism contract
/// intact whether or not one is attached.
pub trait RoundObserver {
    /// Called before a phase executes.
    fn on_phase_start(&mut self, _phase: &'static str, _ctx: &RoundContext<'_>) {}

    /// Called after a phase has executed and written its artifacts.
    fn on_phase_end(&mut self, _phase: &'static str, _ctx: &RoundContext<'_>) {}
}

/// The do-nothing observer used by unobserved runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl RoundObserver for NoopObserver {}

/// Drives the [`standard_pipeline`] over a context, in order, setting
/// [`RoundContext::phase`] before each phase and reporting every phase
/// boundary to `observer`.
pub fn run_pipeline_observed(ctx: &mut RoundContext<'_>, observer: &mut dyn RoundObserver) {
    for &(phase, execute) in standard_pipeline() {
        ctx.phase = phase;
        observer.on_phase_start(phase.name(), ctx);
        execute(ctx);
        observer.on_phase_end(phase.name(), ctx);
    }
}
