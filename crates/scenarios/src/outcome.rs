//! What one scenario run produced: everything the invariant checkers and the
//! JSON report read.

use cycledger_net::metrics::Phase;
use cycledger_net::topology::NodeId;
use cycledger_protocol::adversary::Behavior;
use cycledger_protocol::report::SimulationSummary;
use cycledger_protocol::traffic::TrafficSnapshot;

use crate::spec::Scenario;

/// Ground truth about one node after the run (behaviour reflects any
/// injected faults).
#[derive(Clone, Debug)]
pub struct NodeSnapshot {
    /// The node.
    pub id: NodeId,
    /// Whether the node ended the run honest.
    pub honest: bool,
    /// Final reputation.
    pub reputation: f64,
}

/// A fault injection with its target resolved to a concrete node.
#[derive(Clone, Copy, Debug)]
pub struct ResolvedFault {
    /// Round before which the flip was applied.
    pub round: u64,
    /// The node that was flipped.
    pub node: NodeId,
    /// The behaviour assigned.
    pub behavior: Behavior,
}

/// Light-client proof audit of one run: after the final round, the runner
/// samples outpoints from every shard's UTXO set, asks the store for
/// inclusion proofs (plus one exclusion proof per shard for a never-credited
/// outpoint), and verifies each against the state roots the final round's
/// report published. Collected only under the smt backend — the map backend
/// publishes no roots to verify against.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProofAudit {
    /// Inclusion proofs sampled and checked.
    pub inclusion_checked: usize,
    /// Inclusion proofs that verified against the reported root.
    pub inclusion_verified: usize,
    /// Exclusion proofs sampled and checked (one per shard).
    pub exclusion_checked: usize,
    /// Exclusion proofs that verified against the reported root.
    pub exclusion_verified: usize,
    /// Shards whose reported final root differs from the live set's root
    /// (must be 0: the report is a commitment to the state it ran on).
    pub root_mismatches: usize,
}

/// Everything measured while running one scenario across its worker matrix.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Per-round reports of the baseline run (first worker count).
    pub summary: SimulationSummary,
    /// Canonical digest of the baseline summary (hex).
    pub digest: String,
    /// `(worker_count, digest)` for every entry of the worker matrix.
    pub worker_digests: Vec<(usize, String)>,
    /// Digest of a second, fresh baseline run (run-to-run stability).
    pub rerun_digest: String,
    /// Every fault injection, resolved to concrete nodes.
    pub injected: Vec<ResolvedFault>,
    /// Final per-node ground truth (sorted by node id).
    pub nodes: Vec<NodeSnapshot>,
    /// Number of malicious nodes at the end of the run.
    pub malicious_count: usize,
    /// Total simulated nodes.
    pub total_nodes: usize,
    /// Final chain height of the baseline run.
    pub chain_height: usize,
    /// The phases each round executed, in execution order (from the
    /// [`cycledger_protocol::engine::RoundObserver`] hooks).
    pub phase_trace: Vec<Vec<Phase>>,
    /// Transactions that appear in more than one block of the baseline
    /// run's chain (safety: must be 0; see
    /// [`crate::invariant::Invariant::NoDoubleCommit`]).
    pub duplicate_packed_txs: usize,
    /// Aggregate open-loop traffic statistics of the baseline run
    /// (confirm-latency percentiles, sustained throughput, censor counts);
    /// `None` for closed-loop scenarios.
    pub traffic: Option<TrafficSnapshot>,
    /// Sampled light-client proof checks against the final round's published
    /// state roots; `None` under the map backend (no roots to verify).
    pub proof_audit: Option<ProofAudit>,
}

impl ScenarioOutcome {
    /// Nodes that were flipped to a leader fault by an injection (the
    /// recovery-completeness invariant checks each one was evicted).
    pub fn injected_leader_faults(&self) -> Vec<ResolvedFault> {
        self.injected
            .iter()
            .copied()
            .filter(|f| f.behavior.is_leader_fault())
            .collect()
    }

    /// Highest final reputation among honest nodes.
    pub fn best_honest_reputation(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.honest)
            .map(|n| n.reputation)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Highest final reputation among malicious nodes (−∞ when none).
    pub fn best_malicious_reputation(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| !n.honest)
            .map(|n| n.reputation)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}
