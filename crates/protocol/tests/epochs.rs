//! Integration gates over the multi-epoch lifecycle:
//!
//! * crash-stopped members (the churn fault the paper's reconfiguration
//!   argument assumes) never stall a round or an epoch boundary, and the
//!   run stays deterministic across executor worker counts;
//! * a crash window that ends mid-run restores full liveness afterwards;
//! * joiners partitioned through their admission boundary stay `Syncing`
//!   (their slots abstain, never vote) and catch up via the start-of-round
//!   sync retry once the partition heals;
//! * epoch boundaries fire on schedule through all of the above.

use cycledger_net::faults::FaultPlan;
use cycledger_net::time::SimTime;
use cycledger_net::topology::NodeId;
use cycledger_protocol::config::ProtocolConfig;
use cycledger_protocol::node::MembershipState;
use cycledger_protocol::report::SimulationSummary;
use cycledger_protocol::simulation::Simulation;

fn epoch_config(seed: u64) -> ProtocolConfig {
    ProtocolConfig {
        committees: 2,
        committee_size: 8,
        partial_set_size: 2,
        referee_size: 5,
        txs_per_round: 40,
        accounts_per_shard: 24,
        cross_shard_ratio: 0.2,
        invalid_ratio: 0.0,
        pow_difficulty: 2,
        epoch_length: 2,
        joins_per_epoch: 2,
        leaves_per_epoch: 1,
        seed,
        ..ProtocolConfig::default()
    }
}

/// Runs `rounds` rounds, applying `fault_for_round` before each.
fn run_with_faults(
    mut config: ProtocolConfig,
    workers: usize,
    rounds: u64,
    fault_for_round: impl Fn(&Simulation, u64) -> FaultPlan,
) -> (SimulationSummary, Simulation) {
    config.worker_threads = workers;
    let mut sim = Simulation::new(config).expect("valid config");
    for round in 0..rounds {
        sim.set_fault_plan(fault_for_round(&sim, round));
        sim.run_round();
    }
    let summary = SimulationSummary {
        rounds: sim.reports().to_vec(),
    };
    (summary, sim)
}

#[test]
fn crash_stopped_commons_never_stall_rounds_or_boundaries() {
    // Two commons of committee 0 crash permanently before the first round;
    // every round still commits (their votes backfill `Unknown`), both epoch
    // boundaries fire, and the whole run is worker-count deterministic.
    let run = |workers: usize| {
        run_with_faults(epoch_config(7001), workers, 4, |sim, _| {
            let commons = sim.assignment().committees[0].common_members();
            FaultPlan::default()
                .with_crash(commons[0], SimTime::ZERO, None)
                .with_crash(commons[1], SimTime::ZERO, None)
        })
    };
    let (summary, sim) = run(1);
    assert_eq!(
        summary.blocks_produced(),
        4,
        "crashes must not stall rounds"
    );
    assert_eq!(sim.chain().height(), 4);
    assert_eq!(summary.total_epoch_transitions(), 2);
    assert_eq!(summary.total_syncing_votes(), 0);

    let (other, _) = run(4);
    assert_eq!(
        summary.canonical_digest(),
        other.canonical_digest(),
        "crash-stop schedule must be worker-count deterministic"
    );
}

#[test]
fn liveness_is_full_again_after_a_crash_window_ends() {
    // The same two commons are down for rounds 0-1 (spanning the first
    // boundary) and back for rounds 2-3: the degraded rounds still commit,
    // and the healed rounds run without a single quorum timeout.
    let (summary, sim) = run_with_faults(epoch_config(7002), 1, 4, |sim, round| {
        if round < 2 {
            let commons = sim.assignment().committees[0].common_members();
            FaultPlan::default()
                .with_crash(commons[0], SimTime::ZERO, None)
                .with_crash(commons[1], SimTime::ZERO, None)
        } else {
            FaultPlan::default()
        }
    });
    assert_eq!(summary.blocks_produced(), 4);
    assert_eq!(sim.chain().height(), 4);
    assert_eq!(summary.total_epoch_transitions(), 2);
    let healed_timeouts: usize = summary.rounds[2..].iter().map(|r| r.quorum_timeouts).sum();
    assert_eq!(healed_timeouts, 0, "restarted members restore full quorums");
}

#[test]
fn partitioned_joiners_catch_up_once_the_partition_heals() {
    // Both epochs' joiners (ids continue the index sequence, so the plan can
    // name them before they exist) are severed through the first admission
    // boundary; the heal before round 2 lets the start-of-round sync retry
    // finish the catch-up, flipping them `Syncing` -> `Active`.
    let mut config = epoch_config(7003);
    config.leaves_per_epoch = 0;
    let initial = config.total_nodes() as u32;
    let joiners: Vec<NodeId> = (initial..initial + 4).map(NodeId).collect();
    let (summary, sim) = run_with_faults(config, 1, 4, |_, round| {
        if round < 2 {
            FaultPlan::partition(joiners.clone())
        } else {
            FaultPlan::default()
        }
    });
    assert!(
        summary.total_sync_timeouts() > 0,
        "the first boundary's sync sessions must time out under the partition"
    );
    assert_eq!(
        summary.total_synced(),
        4,
        "every joiner catches up after the heal"
    );
    assert_eq!(sim.registry().count_in_state(MembershipState::Syncing), 0);
    assert_eq!(
        summary.total_syncing_votes(),
        0,
        "no vote counts while catching up"
    );
    assert_eq!(summary.blocks_produced(), 4, "quorum math is unbroken");
    assert_eq!(summary.total_epoch_transitions(), 2);
}
