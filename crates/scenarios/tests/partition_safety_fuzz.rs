//! Safety fuzz over random partition/heal schedules (the paper's `t < n/3`
//! corruption bound in force): whatever the network does — severing random
//! member groups, healing at random rounds, dropping traffic — the committed
//! chain must never contain conflicting state:
//!
//! * no transaction commits twice (no double-commit across blocks),
//! * every block applies cleanly in order (checked structurally by
//!   `Chain::append`, which the simulation drives),
//! * no round packs more transactions than it was offered valid ones,
//! * and the whole run is a deterministic function of its seed (same seed,
//!   different worker counts ⇒ identical canonical digest).
//!
//! Inputs are generated by the deterministic proptest shim (seeded from the
//! test name), so the ≥64 schedules exercised here form a fixed-seed quick
//! profile suitable for CI.

use cycledger_checker::{RefinementError, RefinementStats, Refiner};
use cycledger_net::faults::{FaultPlan, Partition};
use cycledger_net::time::SimTime;
use cycledger_net::topology::NodeId;
use cycledger_protocol::adversary::AdversaryConfig;
use cycledger_protocol::config::ProtocolConfig;
use cycledger_protocol::report::SimulationSummary;
use cycledger_protocol::simulation::Simulation;
use cycledger_scenarios::runner::count_duplicate_packed;
use proptest::prelude::*;

fn fuzz_config(seed: u64) -> ProtocolConfig {
    ProtocolConfig {
        committees: 2,
        committee_size: 8,
        partial_set_size: 2,
        referee_size: 5,
        txs_per_round: 24,
        accounts_per_shard: 16,
        cross_shard_ratio: 0.2,
        invalid_ratio: 0.0,
        pow_difficulty: 2,
        // The paper's bound: just under a third of the nodes are corrupted,
        // drawn uniformly over all malicious behaviours.
        adversary: AdversaryConfig::uniform(0.3),
        worker_threads: 1,
        seed,
        ..ProtocolConfig::default()
    }
}

/// One generated partition/heal schedule: for each of the three rounds, a
/// group of node indices to sever (empty = healed) plus an optional
/// mid-phase heal instant in virtual time.
#[derive(Debug, Clone)]
struct Schedule {
    rounds: Vec<Vec<u32>>,
    heal_at_us: Option<u64>,
}

fn run_schedule(
    seed: u64,
    schedule: &Schedule,
    workers: usize,
) -> (
    SimulationSummary,
    usize,
    Result<RefinementStats, RefinementError>,
) {
    let mut config = fuzz_config(seed);
    config.worker_threads = workers;
    let mut sim = Simulation::new(config).expect("valid config");
    // Refinement: every concrete step of the execution must have an abstract
    // counterpart in the model checker's transition relation.
    let mut refiner = Refiner::new();
    let total = sim.registry().len() as u32;
    for group in &schedule.rounds {
        let nodes: Vec<NodeId> = group.iter().map(|&i| NodeId(i % total)).collect();
        let plan = if nodes.is_empty() {
            FaultPlan::default()
        } else {
            FaultPlan {
                partitions: vec![Partition {
                    group: nodes,
                    from: SimTime::ZERO,
                    until: schedule.heal_at_us.map(SimTime),
                }],
                ..FaultPlan::default()
            }
        };
        sim.set_fault_plan(plan);
        sim.run_round_observed(&mut refiner);
    }
    let summary = SimulationSummary {
        rounds: sim.reports().to_vec(),
    };
    (summary, count_duplicate_packed(&sim), refiner.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_partition_schedules_never_produce_conflicting_commits(
        seed in 0u64..100_000,
        group_a in prop::collection::vec(0u32..21, 0..8),
        group_b in prop::collection::vec(0u32..21, 0..8),
        heal_round in 1usize..3,
        heal_mid_phase in any::<bool>(),
    ) {
        // Rounds before `heal_round` are partitioned (two different random
        // groups), rounds after run clean; optionally the partition also
        // heals mid-phase at 120ms of virtual time.
        let mut rounds = vec![group_a, group_b];
        rounds.truncate(heal_round);
        while rounds.len() < 3 {
            rounds.push(Vec::new());
        }
        let schedule = Schedule {
            rounds,
            heal_at_us: heal_mid_phase.then_some(120_000),
        };

        let (summary, duplicates, refinement) = run_schedule(seed, &schedule, 1);

        // Refinement against the model checker's transition relation: the
        // driven execution's decisions, recoveries and counter folds must all
        // be reproducible by the shared decision core.
        if let Err(gap) = &refinement {
            prop_assert!(false, "refinement gap {} under {:?}", gap, &schedule);
        }

        // Safety: nothing commits twice, and no round packs more than it
        // was offered valid transactions.
        prop_assert_eq!(duplicates, 0, "conflicting commits under {:?}", &schedule);
        for report in &summary.rounds {
            prop_assert!(
                report.txs_packed <= report.txs_offered_valid,
                "round {} packed {} of {} valid offered",
                report.round,
                report.txs_packed,
                report.txs_offered_valid
            );
        }
        // The run completed all three rounds (no deadlock, no panic).
        prop_assert_eq!(summary.num_rounds(), 3);

        // Determinism: the same seed and schedule yield byte-identical
        // summaries at a different worker count.
        let (other, _, _) = run_schedule(seed, &schedule, 4);
        prop_assert_eq!(
            format!("{:?}", summary.canonical_digest()),
            format!("{:?}", other.canonical_digest()),
            "digest drift across worker counts under {:?}",
            &schedule
        );
    }
}
