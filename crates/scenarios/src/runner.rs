//! Executes scenarios: single runs, worker-matrix cross-checks, and the
//! parallel matrix runner on the protocol's [`ShardExecutor`].

use cycledger_crypto::sha256::sha256;
use cycledger_crypto::{verify_proof, ProofTerminal};
use cycledger_ledger::smt::key_digest;
use cycledger_ledger::{OutPoint, StateBackend};
use cycledger_net::faults::{CrashStop, FaultPlan, Partition, TargetedDelay, PPM};
use cycledger_net::time::{SimDuration, SimTime};
use cycledger_net::topology::NodeId;
use cycledger_protocol::engine::{RoundContext, RoundObserver, ShardExecutor};
use cycledger_protocol::report::SimulationSummary;
use cycledger_protocol::simulation::Simulation;

use crate::invariant::InvariantResult;
use crate::outcome::{NodeSnapshot, ProofAudit, ResolvedFault, ScenarioOutcome};
use crate::spec::{FaultTarget, NetFaultKind, Scenario};

/// Outpoints sampled per shard for the light-client proof audit (first in
/// sorted-key order, so the sample is deterministic).
const PROOF_SAMPLES_PER_SHARD: usize = 8;

/// A scenario together with its checked invariants.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// Everything the run measured.
    pub outcome: ScenarioOutcome,
    /// One result per declared invariant, in declaration order.
    pub invariants: Vec<InvariantResult>,
}

impl ScenarioRun {
    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        self.invariants.iter().all(|r| r.passed)
    }

    /// The invariants that failed.
    pub fn violations(&self) -> Vec<&InvariantResult> {
        self.invariants.iter().filter(|r| !r.passed).collect()
    }
}

/// Collects the phase names each round executed, through the engine's
/// [`RoundObserver`] hooks.
#[derive(Default)]
struct PhaseTraceObserver {
    rounds: Vec<Vec<&'static str>>,
}

impl PhaseTraceObserver {
    fn begin_round(&mut self) {
        self.rounds.push(Vec::new());
    }
}

impl RoundObserver for PhaseTraceObserver {
    fn on_phase_end(&mut self, phase: &'static str, _ctx: &RoundContext<'_>) {
        self.rounds
            .last_mut()
            .expect("begin_round precedes every pipeline run")
            .push(phase);
    }
}

fn resolve_targets(
    sim: &Simulation,
    target: FaultTarget,
    scenario: &Scenario,
) -> Result<Vec<NodeId>, String> {
    let assignment = sim.assignment();
    Ok(match target {
        FaultTarget::Leader(k) => vec![assignment.committees[k].leader],
        FaultTarget::PartialSetMember { committee, index } => {
            let partial = &assignment.committees[committee].partial_set;
            match partial.get(index) {
                Some(&node) => vec![node],
                None => {
                    return Err(format!(
                        "scenario {:?}: partial set of committee {committee} has {} members, fault wants index {index}",
                        scenario.name,
                        partial.len()
                    ))
                }
            }
        }
        FaultTarget::Node(id) => {
            if id as usize >= sim.registry().len() {
                return Err(format!(
                    "scenario {:?}: fault targets node {id} of {}",
                    scenario.name,
                    sim.registry().len()
                ));
            }
            vec![NodeId(id)]
        }
        FaultTarget::AllLeaders => assignment.committees.iter().map(|c| c.leader).collect(),
        FaultTarget::AllReferees => assignment.referee.clone(),
    })
}

/// The first `count` common (non-leader, non-partial-set) members of
/// committee `k` under the current assignment.
fn resolve_commons(sim: &Simulation, k: usize, count: usize) -> Vec<NodeId> {
    let committee = &sim.assignment().committees[k];
    committee
        .members
        .iter()
        .copied()
        .filter(|&n| n != committee.leader && !committee.partial_set.contains(&n))
        .take(count)
        .collect()
}

/// Resolves the scenario's net-fault schedule for one round into the
/// concrete [`FaultPlan`] the simulation installs before running it.
/// Positional targets are re-resolved against the round's assignment, so
/// the same spec is reproducible for any seed.
fn resolve_fault_plan(
    sim: &Simulation,
    scenario: &Scenario,
    round: u64,
) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::default();
    for injection in scenario.net_faults.iter().filter(|f| f.active_at(round)) {
        match injection.kind {
            NetFaultKind::IsolateLeader { committee } => {
                plan.partitions.push(Partition {
                    group: vec![sim.assignment().committees[committee].leader],
                    from: SimTime::ZERO,
                    until: None,
                });
            }
            NetFaultKind::IsolateCommons { committee, count } => {
                let group = resolve_commons(sim, committee, count);
                if group.len() < count {
                    return Err(format!(
                        "scenario {:?}: committee {committee} has only {} common members, \
                         isolate-commons wants {count}",
                        scenario.name,
                        group.len()
                    ));
                }
                plan.partitions.push(Partition {
                    group,
                    from: SimTime::ZERO,
                    until: None,
                });
            }
            NetFaultKind::Delay { target, micros } => {
                for node in resolve_targets(sim, target, scenario)? {
                    plan.delays.push(TargetedDelay {
                        node,
                        extra: SimDuration::from_micros(micros),
                    });
                }
            }
            NetFaultKind::Loss { ppm } => {
                plan.drop_ppm = plan.drop_ppm.saturating_add(ppm).min(PPM);
            }
            NetFaultKind::CrashStop { target } => {
                for node in resolve_targets(sim, target, scenario)? {
                    plan.crashes.push(CrashStop {
                        member: node,
                        at: SimTime::ZERO,
                        restart_at: None,
                    });
                }
            }
            NetFaultKind::IsolateJoiners => {
                // Every id at or above the initial registry size — including
                // joiners that will only be admitted at this round's closing
                // boundary, which is exactly why this cannot be expressed as
                // a `node:` target (those ids fail resolution until they
                // exist). A partition accepts arbitrary ids, so the group
                // covers the maximum possible joiner population up front.
                let initial = scenario.config.total_nodes() as u32;
                let epochs = match scenario.config.epoch_length {
                    0 => 0,
                    len => scenario.rounds as u64 / len,
                };
                let max_joiners = scenario.config.joins_per_epoch as u64 * epochs;
                plan.partitions.push(Partition {
                    group: (0..max_joiners as u32)
                        .map(|k| NodeId(initial + k))
                        .collect(),
                    from: SimTime::ZERO,
                    until: None,
                });
            }
        }
    }
    Ok(plan)
}

/// Counts transactions that appear in more than one block of the chain
/// (the [`crate::invariant::Invariant::NoDoubleCommit`] safety measurement,
/// and the fuzz suites' double-commit check).
pub fn count_duplicate_packed(sim: &Simulation) -> usize {
    let mut seen = std::collections::HashSet::new();
    let mut duplicates = 0;
    for height in 0..sim.chain().height() as u64 {
        if let Some(block) = sim.chain().block(height) {
            for tx in &block.transactions {
                if !seen.insert(tx.id()) {
                    duplicates += 1;
                }
            }
        }
    }
    duplicates
}

/// Samples light-client proofs against the final round's published state
/// roots: per shard, inclusion proofs for the first
/// [`PROOF_SAMPLES_PER_SHARD`] outpoints in sorted-key order plus one
/// exclusion proof for a never-credited outpoint, each verified with the
/// crypto crate's standalone [`verify_proof`] — exactly what a light client
/// holding nothing but the root would run.
fn audit_state_proofs(sim: &Simulation, summary: &SimulationSummary) -> ProofAudit {
    let mut audit = ProofAudit::default();
    let reported: Vec<_> = summary
        .rounds
        .last()
        .map(|r| r.state_roots.clone())
        .unwrap_or_default();
    for (shard, set) in sim.utxo_sets().iter().enumerate() {
        let Some(&root) = reported.get(shard) else {
            audit.root_mismatches += 1;
            continue;
        };
        if set.state_root() != Some(root) {
            audit.root_mismatches += 1;
            continue;
        }
        for outpoint in set.sorted_outpoints().iter().take(PROOF_SAMPLES_PER_SHARD) {
            audit.inclusion_checked += 1;
            let verified = set.prove(outpoint).is_some_and(|proof| {
                matches!(proof.terminal, ProofTerminal::Included { .. })
                    && verify_proof(&root, &key_digest(outpoint), &proof).is_ok()
            });
            audit.inclusion_verified += usize::from(verified);
        }
        let absent = OutPoint {
            tx_id: sha256(format!("cycledger/scenario-absent/{shard}").as_bytes()),
            index: 0,
        };
        audit.exclusion_checked += 1;
        let verified = set.prove(&absent).is_some_and(|proof| {
            !matches!(proof.terminal, ProofTerminal::Included { .. })
                && verify_proof(&root, &key_digest(&absent), &proof).is_ok()
        });
        audit.exclusion_verified += usize::from(verified);
    }
    audit
}

/// A finished pass: the simulation, the faults it injected and the phases
/// each round ran.
type Pass = (Simulation, Vec<ResolvedFault>, Vec<Vec<&'static str>>);

/// Runs one simulation pass of a scenario at a fixed worker count.
fn run_pass(scenario: &Scenario, worker_threads: usize) -> Result<Pass, String> {
    let mut config = scenario.config;
    config.worker_threads = worker_threads;
    let mut sim = Simulation::new(config)?;
    let mut observer = PhaseTraceObserver::default();
    let mut injected = Vec::new();
    for round in 0..scenario.rounds as u64 {
        for fault in scenario.faults.iter().filter(|f| f.round == round) {
            for node in resolve_targets(&sim, fault.target, scenario)? {
                sim.registry_mut().set_behavior(node, fault.behavior);
                injected.push(ResolvedFault {
                    round,
                    node,
                    behavior: fault.behavior,
                });
            }
        }
        if !scenario.net_faults.is_empty() {
            sim.set_fault_plan(resolve_fault_plan(&sim, scenario, round)?);
        }
        observer.begin_round();
        sim.run_round_observed(&mut observer);
    }
    Ok((sim, injected, observer.rounds))
}

fn summary_of(sim: &Simulation) -> SimulationSummary {
    SimulationSummary {
        rounds: sim.reports().to_vec(),
    }
}

/// Runs a scenario across its whole worker matrix (plus one repeat of the
/// baseline for run-to-run stability) and checks every declared invariant.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioRun, String> {
    scenario.validate()?;
    let baseline_workers = scenario.workers[0];
    // The cross-checks keep only their digests and run before the baseline,
    // so one simulation is alive at a time.
    let digest_at = |workers| {
        run_pass(scenario, workers).map(|(sim, ..)| summary_of(&sim).canonical_digest().to_hex())
    };
    let mut cross_checks = Vec::new();
    for &workers in &scenario.workers[1..] {
        cross_checks.push((workers, digest_at(workers)?));
    }
    let rerun_digest = digest_at(baseline_workers)?;

    let (sim, injected, phase_trace) = run_pass(scenario, baseline_workers)?;
    let summary = summary_of(&sim);
    let digest = summary.canonical_digest().to_hex();
    let mut worker_digests = vec![(baseline_workers, digest.clone())];
    worker_digests.extend(cross_checks);
    let outcome = ScenarioOutcome {
        scenario: scenario.clone(),
        digest,
        worker_digests,
        rerun_digest,
        injected,
        nodes: sim
            .registry()
            .iter()
            .map(|n| NodeSnapshot {
                id: n.id,
                honest: n.is_honest(),
                reputation: sim.reputation().get(n.id),
            })
            .collect(),
        malicious_count: sim.registry().malicious_count(),
        total_nodes: sim.registry().len(),
        chain_height: sim.chain().height(),
        phase_trace,
        duplicate_packed_txs: count_duplicate_packed(&sim),
        traffic: sim.traffic(),
        proof_audit: (sim.config().state_backend == StateBackend::Smt)
            .then(|| audit_state_proofs(&sim, &summary)),
        summary,
    };
    let invariants = scenario
        .invariants
        .iter()
        .map(|inv| inv.check(&outcome))
        .collect();
    Ok(ScenarioRun {
        outcome,
        invariants,
    })
}

/// Runs a whole matrix of scenarios in parallel on a [`ShardExecutor`]
/// (`jobs == 0` sizes the pool from the machine). Results come back in
/// scenario order; a scenario that fails to even run is reported as an
/// `Err` in its slot.
pub fn run_matrix(scenarios: &[Scenario], jobs: usize) -> Vec<Result<ScenarioRun, String>> {
    let executor = ShardExecutor::new(jobs);
    let tasks: Vec<_> = scenarios
        .iter()
        .map(|scenario| move || run_scenario(scenario))
        .collect();
    executor.execute(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::Invariant;
    use crate::registry;
    use cycledger_protocol::adversary::Behavior;
    use cycledger_protocol::config::ProtocolConfig;

    fn tiny_scenario() -> Scenario {
        let config = ProtocolConfig {
            committees: 2,
            committee_size: 8,
            partial_set_size: 2,
            referee_size: 5,
            txs_per_round: 30,
            accounts_per_shard: 24,
            cross_shard_ratio: 0.2,
            invalid_ratio: 0.0,
            pow_difficulty: 2,
            seed: 11,
            ..ProtocolConfig::default()
        };
        let mut scenario = Scenario::new("tiny", config);
        scenario.rounds = 2;
        scenario.workers = vec![1, 2];
        scenario.invariants = vec![
            Invariant::BlocksEveryRound,
            Invariant::DigestMatchesAcrossWorkerCounts,
            Invariant::DigestStableAcrossRuns,
            Invariant::PipelineComplete,
            Invariant::NoHonestNodePunished,
        ];
        scenario
    }

    #[test]
    fn tiny_scenario_passes_and_traces_phases() {
        let run = run_scenario(&tiny_scenario()).expect("runs");
        assert!(run.passed(), "violations: {:?}", run.violations());
        assert_eq!(run.outcome.phase_trace.len(), 2);
        assert_eq!(
            run.outcome.phase_trace[0],
            crate::invariant::STANDARD_PHASES.to_vec()
        );
        assert_eq!(run.outcome.chain_height, 2);
    }

    #[test]
    fn injected_leader_fault_is_resolved_and_recovered() {
        let mut scenario = tiny_scenario();
        scenario.name = "tiny-silent".into();
        scenario.faults.push(crate::spec::FaultInjection {
            round: 0,
            target: FaultTarget::Leader(0),
            behavior: Behavior::SilentLeader,
        });
        scenario.invariants = vec![
            Invariant::AllInjectedLeaderFaultsRecovered,
            Invariant::MinEvictions(1),
            Invariant::NoHonestNodePunished,
        ];
        let run = run_scenario(&scenario).expect("runs");
        assert_eq!(run.outcome.injected.len(), 1);
        assert!(run.passed(), "violations: {:?}", run.violations());
    }

    #[test]
    fn a_failing_invariant_is_reported_not_panicked() {
        let mut scenario = tiny_scenario();
        scenario.name = "tiny-impossible".into();
        // An honest network produces no evictions, so this must fail.
        scenario.invariants = vec![Invariant::MinEvictions(5)];
        let run = run_scenario(&scenario).expect("runs");
        assert!(!run.passed());
        assert_eq!(run.violations().len(), 1);
        assert!(run.violations()[0].detail.contains("0 evictions"));
    }

    #[test]
    fn matrix_runner_preserves_scenario_order() {
        let scenarios = vec![tiny_scenario(), {
            let mut s = tiny_scenario();
            s.name = "tiny-2".into();
            s.config.seed = 12;
            s
        }];
        let results = run_matrix(&scenarios, 2);
        assert_eq!(results.len(), 2);
        for (scenario, result) in scenarios.iter().zip(&results) {
            let run = result.as_ref().expect("runs");
            assert_eq!(run.outcome.scenario.name, scenario.name);
        }
        // Different seeds, different digests.
        let a = results[0].as_ref().unwrap().outcome.digest.clone();
        let b = results[1].as_ref().unwrap().outcome.digest.clone();
        assert_ne!(a, b);
    }

    #[test]
    fn an_out_of_range_delay_target_is_an_error_in_its_slot() {
        let mut scenario = tiny_scenario();
        scenario.net_faults.push(crate::spec::NetFaultInjection {
            from_round: 0,
            until_round: 1,
            kind: NetFaultKind::Delay {
                target: FaultTarget::Leader(9),
                micros: 1_000,
            },
        });
        let results = run_matrix(&[scenario], 1);
        let err = results[0].as_ref().map(|_| ()).unwrap_err();
        assert!(
            err.contains("\"tiny\"") && err.contains("leader:9"),
            "{err}"
        );
    }

    #[test]
    fn builtins_all_validate() {
        for scenario in registry::builtin_scenarios() {
            assert_eq!(scenario.validate(), Ok(()), "{}", scenario.name);
        }
    }
}
