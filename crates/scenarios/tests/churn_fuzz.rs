//! Safety fuzz over epoch churn: random join/leave rates and random
//! partition schedules (including groups that sever future joiners before
//! they even exist) must never corrupt the chain:
//!
//! * no transaction commits twice (no double-commit across blocks),
//! * no member in the `Syncing` state ever casts a counted vote — its slots
//!   resolve `Unknown` until `SyncDone` verifies the tip,
//! * no round packs more transactions than it was offered valid ones,
//! * every epoch boundary fires on schedule despite the churn,
//! * and the whole run is a deterministic function of its seed (same seed,
//!   different worker counts ⇒ identical canonical digest).
//!
//! Inputs are generated by the deterministic proptest shim (seeded from the
//! test name), so the ≥48 schedules exercised here form a fixed-seed quick
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

fn fuzz_config(seed: u64, joins: u32, leaves: u32) -> ProtocolConfig {
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
        // Epoch boundary every second round: a 4-round run crosses two
        // committee handovers, each with `joins` arrivals and up to
        // `leaves` departures (clamped above the sortition floor).
        epoch_length: 2,
        joins_per_epoch: joins,
        leaves_per_epoch: leaves,
        // The paper's bound: just under a third of the nodes are corrupted,
        // drawn uniformly over all malicious behaviours.
        adversary: AdversaryConfig::uniform(0.3),
        worker_threads: 1,
        seed,
        ..ProtocolConfig::default()
    }
}

/// One generated churn schedule: per-round partition groups (indices may
/// point past the initial population, severing joiners that do not exist
/// yet) plus an optional mid-phase heal instant in virtual time.
#[derive(Debug, Clone)]
struct Schedule {
    joins: u32,
    leaves: u32,
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
    let mut config = fuzz_config(seed, schedule.joins, schedule.leaves);
    config.worker_threads = workers;
    let mut sim = Simulation::new(config).expect("valid config");
    // Refinement: every concrete step of the execution must have an abstract
    // counterpart in the model checker's transition relation.
    let mut refiner = Refiner::new();
    for group in &schedule.rounds {
        // Deliberately NOT reduced modulo the live population: ids past the
        // current registry are tomorrow's joiners, and partitioning them
        // ahead of time is exactly the handover-under-partition attack.
        let nodes: Vec<NodeId> = group.iter().map(|&i| NodeId(i)).collect();
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_churn_schedules_never_double_commit_or_count_syncing_votes(
        seed in 0u64..100_000,
        joins in 0u32..3,
        leaves in 0u32..3,
        group_a in prop::collection::vec(0u32..27, 0..8),
        group_b in prop::collection::vec(0u32..27, 0..8),
        heal_round in 1usize..4,
        heal_mid_phase in any::<bool>(),
    ) {
        // Rounds before `heal_round` are partitioned (two random groups,
        // alternating, over a range wide enough to include every possible
        // joiner id), later rounds run clean; optionally the partition also
        // heals mid-phase at 120ms of virtual time.
        let mut rounds = vec![group_a.clone(), group_b, group_a];
        rounds.truncate(heal_round);
        while rounds.len() < 4 {
            rounds.push(Vec::new());
        }
        let schedule = Schedule {
            joins,
            leaves,
            rounds,
            heal_at_us: heal_mid_phase.then_some(120_000),
        };

        let (summary, duplicates, refinement) = run_schedule(seed, &schedule, 1);

        // Refinement against the model checker's transition relation: the
        // driven execution's decisions, recoveries and counter folds must all
        // be reproducible by the shared decision core — even across epoch
        // handovers and mid-sync committees.
        if let Err(gap) = &refinement {
            prop_assert!(false, "refinement gap {} under {:?}", gap, &schedule);
        }

        // Safety: nothing commits twice, and no vote from a member still in
        // the `Syncing` state is ever counted.
        prop_assert_eq!(duplicates, 0, "conflicting commits under {:?}", &schedule);
        prop_assert_eq!(
            summary.total_syncing_votes(),
            0,
            "a Syncing member's vote was counted under {:?}",
            &schedule
        );
        for report in &summary.rounds {
            prop_assert!(
                report.txs_packed <= report.txs_offered_valid,
                "round {} packed {} of {} valid offered",
                report.round,
                report.txs_packed,
                report.txs_offered_valid
            );
        }
        // Liveness bookkeeping: all four rounds ran and both epoch
        // boundaries fired despite the churn.
        prop_assert_eq!(summary.num_rounds(), 4);
        prop_assert_eq!(
            summary.total_epoch_transitions(),
            2,
            "missed epoch boundary under {:?}",
            &schedule
        );

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
