//! Integration gates over the envelope data plane and its fault paths:
//!
//! * a clean run is live (blocks every round, no quorum timeouts) and
//!   deterministic across 1/2/8 executor workers;
//! * a fault plan is installed whatever `ProtocolConfig::message_driven`
//!   says, and moves the digest the same way on either setting;
//! * a partition severing a committee minority takes the quorum-timeout
//!   fallback and measurably changes round outcomes, liveness resumes after
//!   the heal, and worker-count determinism still holds;
//! * isolating a leader suppresses the quorum certificate and routes the
//!   committee through recovery;
//! * every task kind's books reconcile under a lossy plan, and a faulted
//!   round's report counters are the sum of its tasks' books;
//! * a random-seed property pins that delivery order is seeded virtual
//!   time, never thread order.

use cycledger_net::faults::FaultPlan;
use cycledger_net::latency::LinkClass;
use cycledger_net::metrics::Phase;
use cycledger_net::network::SimNetwork;
use cycledger_net::topology::NodeId;
use cycledger_protocol::adversary::Behavior;
use cycledger_protocol::config::ProtocolConfig;
use cycledger_protocol::engine::{
    Books, PlaneCounters, RoundContext, RoundEnv, RoundObserver, Task,
};
use cycledger_protocol::report::SimulationSummary;
use cycledger_protocol::simulation::Simulation;
use cycledger_protocol::Committee;
use proptest::prelude::*;

fn driven_config(seed: u64) -> ProtocolConfig {
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
fn clean_message_driven_run_is_live_and_deterministic_across_workers() {
    let digest_at = |workers: usize| {
        let (summary, _) =
            run_with_faults(driven_config(901), workers, 3, |_, _| FaultPlan::default());
        assert_eq!(
            summary.blocks_produced(),
            3,
            "liveness at {workers} workers"
        );
        assert_eq!(
            summary.total_quorum_timeouts(),
            0,
            "clean run never times out"
        );
        assert_eq!(summary.total_net_dropped_messages(), 0);
        assert!(summary.mean_acceptance_rate() > 0.9);
        format!("{:?}", summary.canonical_digest())
    };
    let baseline = digest_at(1);
    assert_eq!(baseline, digest_at(2));
    assert_eq!(baseline, digest_at(8));
}

#[test]
fn a_fault_plan_bites_whatever_message_driven_says() {
    // `Simulation::set_fault_plan` installs whatever plan it is handed:
    // partitioning committee 0's commons and the first boundary's joiners
    // (so rounds and state-sync sessions alike run under the plan) moves
    // the digest, and moves it the same way on either setting of the field.
    let digest = |message_driven: bool, faulted: bool| {
        let mut sim = Simulation::new(ProtocolConfig {
            message_driven,
            epoch_length: 2,
            joins_per_epoch: 2,
            ..driven_config(906)
        })
        .unwrap();
        if faulted {
            let committee = &sim.assignment().committees[0];
            let mut cut = committee.common_members().to_vec();
            let nodes = sim.registry().len() as u32;
            cut.extend((nodes..nodes + 2).map(NodeId));
            sim.set_fault_plan(FaultPlan::partition(cut));
        }
        sim.run(3).canonical_digest()
    };
    let faulted = digest(false, true);
    assert_eq!(faulted, digest(true, true));
    assert_ne!(faulted, digest(false, false));
}

#[test]
fn partition_takes_the_timeout_path_and_heals() {
    // Sever four of committee 0's five common members for rounds 0–1, heal
    // from round 2 on. Only four members stay reachable, so:
    //  * the vote deadline fires with four votes missing (quorum-timeout
    //    fallback) and no transaction reaches the strict majority — the
    //    committee's TXdecSET collapses;
    //  * Algorithm 3 cannot assemble a majority of CONFIRMs either, so the
    //    committee goes through recovery — whose impeachment vote is
    //    *itself* blocked by the same partition (no majority reachable), so
    //    the honest leader keeps its seat;
    //  * the healthy committee keeps producing blocks, and after the heal
    //    acceptance returns to normal.
    let commons_of_committee0 = |sim: &Simulation| -> Vec<NodeId> {
        let committee = &sim.assignment().committees[0];
        committee
            .members
            .iter()
            .copied()
            .filter(|&n| n != committee.leader && !committee.partial_set.contains(&n))
            .take(4)
            .collect()
    };
    let run = |workers: usize| {
        run_with_faults(driven_config(903), workers, 4, |sim, round| {
            if round < 2 {
                FaultPlan::partition(commons_of_committee0(sim))
            } else {
                FaultPlan::default()
            }
        })
    };
    let (summary, _) = run(1);

    // The timeout path really fired, and traffic was really dropped.
    assert!(
        summary.rounds[0].quorum_timeouts >= 1,
        "round 0 must take the quorum-timeout fallback"
    );
    assert!(summary.rounds[0].net_dropped_messages > 0);
    // Round outcomes changed: partitioned rounds accept fewer transactions
    // than healed rounds (committee 0's votes fall below strict majority).
    let healed_rate = summary.rounds[3].acceptance_rate();
    let partitioned_rate = summary.rounds[0].acceptance_rate();
    assert!(
        partitioned_rate < healed_rate,
        "partition must shrink acceptance: {partitioned_rate} vs healed {healed_rate}"
    );
    // Liveness throughout, and full recovery after the heal.
    assert_eq!(summary.blocks_produced(), 4);
    assert_eq!(
        summary.rounds[3].quorum_timeouts, 0,
        "healed round is clean"
    );
    assert_eq!(summary.rounds[3].net_dropped_messages, 0);
    assert!(healed_rate > 0.9);
    // Safety: the impeachment triggered by the missing certificate could not
    // assemble a majority under the same partition, so the honest leader was
    // never evicted.
    assert_eq!(summary.total_evictions(), 0);
    assert!(summary.punished_honest().is_empty());

    // Worker-count determinism holds under the fault schedule.
    let digest = |s: &SimulationSummary| format!("{:?}", s.canonical_digest());
    let baseline = digest(&summary);
    let (two, _) = run(2);
    let (eight, _) = run(8);
    assert_eq!(baseline, digest(&two));
    assert_eq!(baseline, digest(&eight));
}

#[test]
fn isolated_leader_loses_certificate_and_is_recovered() {
    // Severing the leader of committee 0 from everyone makes it
    // indistinguishable from a fail-silent leader: no TXList reaches the
    // members, no certificate is produced, and the committee impeaches and
    // replaces it (the synchrony assumption is violated for that node, so
    // the paper's model allows evicting it).
    let (summary, sim) = run_with_faults(driven_config(904), 1, 2, |sim, round| {
        if round == 0 {
            FaultPlan::partition(vec![sim.assignment().committees[0].leader])
        } else {
            FaultPlan::default()
        }
    });
    assert!(
        summary.rounds[0].evicted_leaders.len() == 1,
        "the unreachable leader must be impeached: {:?}",
        summary.rounds[0].evicted_leaders
    );
    // The retry under the new leader and the heal keep the chain alive.
    assert_eq!(summary.blocks_produced(), 2);
    assert_eq!(sim.chain().height(), 2);
    // Round 1 is clean again.
    assert_eq!(summary.rounds[1].quorum_timeouts, 0);
    assert!(summary.rounds[1].evicted_leaders.is_empty());
}

#[test]
fn partition_of_impeachment_votes_blocks_recovery() {
    // The leader of committee 0 goes fail-silent *and* the committee's
    // common members are severed from everyone. The prosecutor cannot
    // assemble an impeachment majority (its accusation broadcast never
    // reaches the commons), so the recovery is rejected and the silent
    // leader keeps its seat this round — recovery accusations really do ride
    // the faulted network.
    let mut config = driven_config(905);
    config.worker_threads = 1;
    let mut sim = Simulation::new(config).expect("valid config");
    let committee = sim.assignment().committees[0].clone();
    sim.registry_mut()
        .set_behavior(committee.leader, Behavior::SilentLeader);
    let commons: Vec<NodeId> = committee
        .members
        .iter()
        .copied()
        .filter(|&n| n != committee.leader && !committee.partial_set.contains(&n))
        .collect();
    assert!(commons.len() > committee.members.len() / 2);
    sim.set_fault_plan(FaultPlan::partition(commons));
    let report = sim.run_round().clone();
    assert_eq!(
        report.evicted_leaders,
        vec![],
        "no impeachment majority is reachable under the partition"
    );
    assert!(
        report
            .recovery_log
            .iter()
            .any(|r| r.outcome == cycledger_protocol::report::RecoveryOutcome::Rejected),
        "the impeachment must have been attempted and rejected: {:?}",
        report.recovery_log
    );
    // The healthy committee keeps the chain alive.
    assert!(report.block_produced);
}

/// A fifth of all envelopes lost, on every link, all round long.
fn lossy() -> FaultPlan {
    FaultPlan {
        drop_ppm: 200_000,
        ..FaultPlan::default()
    }
}

#[test]
fn every_task_kinds_books_reconcile_under_a_lossy_plan() {
    // sends == deliveries + dropped, per task kind: the books `Books::close`
    // hands back account for every envelope offered to the task's network —
    // and the block, whose network stays outside the plan, loses nothing.
    let sim = Simulation::new(driven_config(907)).expect("valid config");
    let referee = Committee::referee(&sim.assignment().referee, sim.registry());
    let plan = lossy();
    let env = RoundEnv {
        config: sim.config(),
        registry: sim.registry(),
        referee: &referee,
        plan: &plan,
        round: 3,
    };
    let kinds = [
        Task::Intra {
            committee: 1,
            retry: false,
        },
        Task::Intra {
            committee: 1,
            retry: true,
        },
        Task::Recovery {
            attempt: 2,
            committee: 1,
        },
        Task::Source(1),
        Task::Block,
    ];
    for task in kinds {
        let row = task.row(env.round);
        let mut net: SimNetwork<u32> = env.open(task);
        let sends = 400;
        for i in 0..sends {
            let (from, to) = (NodeId(i % 7), NodeId(7 + i % 5));
            net.send(from, to, LinkClass::IntraCommittee, i, 32);
        }
        let books = Books::close(net);
        let delivered = books.metrics.phase_total(row.phase).msgs_received;
        let dropped = books.counters.net_dropped;
        assert_eq!(u64::from(sends), delivered + dropped, "{task:?}");
        assert_eq!(dropped > 0, row.under_plan, "{task:?} dropped {dropped}");
        let only_drops = PlaneCounters {
            net_dropped: dropped,
            ..PlaneCounters::default()
        };
        assert_eq!(books.counters, only_drops, "{task:?}");
    }
}

/// Sums what each phase added to the round's books, and what the intra
/// batch's tasks handed back one by one.
#[derive(Default)]
struct BooksAudit {
    at_phase_start: PlaneCounters,
    phases: PlaneCounters,
    intra_phase: PlaneCounters,
    intra_tasks: PlaneCounters,
}

impl RoundObserver for BooksAudit {
    fn on_phase_start(&mut self, _: &'static str, ctx: &RoundContext<'_>) {
        self.at_phase_start = ctx.books.counters;
    }

    fn on_phase_end(&mut self, _: &'static str, ctx: &RoundContext<'_>) {
        let added = ctx.books.counters - self.at_phase_start;
        self.phases += added;
        if ctx.phase == Phase::IntraCommitteeConsensus {
            self.intra_phase = added;
            for outcome in &ctx.intra_outcomes {
                self.intra_tasks += outcome.books.counters;
            }
        }
    }
}

#[test]
fn a_faulted_rounds_report_counters_are_the_sum_of_its_tasks_books() {
    // Loss everywhere plus a syncing member and a severed one: every one of
    // the six counters but `syncing_votes` (which must stay zero) moves.
    let mut sim = Simulation::new(ProtocolConfig {
        cross_shard_ratio: 0.5,
        ..driven_config(908)
    })
    .expect("valid config");
    let commons = sim.assignment().committees[0].common_members().to_vec();
    sim.registry_mut()
        .set_membership(commons[0], cycledger_protocol::MembershipState::Syncing);
    sim.set_fault_plan(FaultPlan {
        partitions: FaultPlan::partition(vec![commons[1]]).partitions,
        ..lossy()
    });
    let mut audit = BooksAudit::default();
    let report = sim.run_round_observed(&mut audit).clone();
    let reported = PlaneCounters {
        quorum_timeouts: report.quorum_timeouts,
        list_timeouts: report.list_timeouts,
        votes_missing: report.votes_missing,
        net_dropped: report.net_dropped_messages,
        syncing_abstentions: report.syncing_abstentions,
        syncing_votes: report.syncing_votes,
    };
    assert_eq!(reported, audit.phases, "the report is the sum over phases");
    assert_eq!(
        audit.intra_phase, audit.intra_tasks,
        "the intra phase folds each of its tasks' books exactly once"
    );
    assert!(audit.intra_tasks.quorum_timeouts >= 1 && audit.intra_tasks.votes_missing >= 2);
    assert!(audit.intra_tasks.net_dropped > 0 && audit.intra_tasks.syncing_abstentions == 1);
    assert!(reported.net_dropped > audit.intra_tasks.net_dropped);
    assert_eq!(reported.syncing_votes, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Delivery order is a function of seeded virtual time, never thread
    /// order: for arbitrary seeds the driven digest is identical at 1, 2 and
    /// 8 workers, and different seeds produce different digests.
    #[test]
    fn driven_digests_are_worker_invariant_for_random_seeds(seed in 0u64..1_000_000) {
        let digest_at = |workers: usize| {
            let mut config = driven_config(seed);
            config.worker_threads = workers;
            let mut sim = Simulation::new(config).unwrap();
            let summary = sim.run(2);
            format!("{:?}", summary.canonical_digest())
        };
        let one = digest_at(1);
        prop_assert_eq!(&one, &digest_at(2));
        prop_assert_eq!(&one, &digest_at(8));
        let mut other_config = driven_config(seed ^ 0xabcdef);
        other_config.worker_threads = 1;
        let mut other = Simulation::new(other_config).unwrap();
        let other_digest = format!("{:?}", other.run(2).canonical_digest());
        prop_assert_ne!(one, other_digest);
    }
}
