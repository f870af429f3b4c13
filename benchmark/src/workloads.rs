//! The four workloads and the fault schedule of the faulty one.
//!
//! Every workload is open loop in virtual time: transactions arrive on the
//! simulated clock at a fixed share of the round capacity whatever the
//! protocol's progress, and confirm latency is timed from the scheduled
//! arrival. The generator lives on that clock, so it is never late.

use cycledger_ledger::StateBackend;
use cycledger_net::faults::{CrashStop, FaultPlan, Partition, TargetedDelay};
use cycledger_net::time::{SimDuration, SimTime};
use cycledger_net::topology::NodeId;
use cycledger_protocol::traffic::{capacity_tps, ArrivalShape, TrafficConfig};
use cycledger_protocol::{Behavior, ProtocolConfig, RoundAssignment, Simulation};

/// `run_seconds` of `BENCHMARK.json`: the measured round counts below are
/// sized so one untraced run measures for about this long on the 2-core
/// reference box, and `--seconds` scales them proportionally.
pub const RUN_SECONDS: u64 = 30;

/// Rounds run after construction and before measuring; part of `setup_s`,
/// excluded from every other number.
pub const WARMUP_ROUNDS: usize = 2;

/// A traced run covers this share of the untraced run's rounds; the rest of
/// its time goes to the probes.
pub const TRACED_SHARE: f64 = 0.3;

/// Rounds per epoch on the workload that has epochs.
pub const EPOCH_LENGTH: u64 = 10;

/// Fewest measured rounds of an untraced run: p90 needs ten samples beyond it.
pub const MIN_ROUNDS: usize = 100;

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// Measured rounds at [`RUN_SECONDS`].
    pub rounds: usize,
    /// Untraced passes over those rounds per run, each on a fresh simulation
    /// with the same inputs; a round's wall time is its fastest execution
    /// (`run::Timing`). More than one only where the rounds are short enough
    /// for the run to stay near [`RUN_SECONDS`].
    pub passes: usize,
    pub committees: usize,
    pub committee_size: usize,
    /// Round packing capacity (`txs_per_round` under open-loop traffic).
    pub capacity: usize,
    pub cross_shard_ratio: f64,
    pub accounts_per_shard: usize,
    pub base_compute_capacity: u32,
    pub state_backend: StateBackend,
    /// Offered load as a share of the analytic capacity.
    pub load: f64,
    pub arrivals: ArrivalShape,
    /// Message-driven plane, epochs with churn, and [`FAULT_SCHEDULE`]
    /// installed round by round.
    pub faulty: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "xshard-8x16",
        why: "8x16 verified, 20% cross-shard: inter-committee consensus does most of the work, \
              so Alg. 3 instance count and cost, batched Schnorr and envelope allocation show here",
        rounds: 100,
        passes: 1,
        committees: 8,
        committee_size: 16,
        capacity: 400,
        cross_shard_ratio: 0.2,
        accounts_per_shard: 96,
        base_compute_capacity: 200,
        state_backend: StateBackend::Map,
        load: 0.9,
        arrivals: ArrivalShape::Constant,
        faulty: false,
    },
    Workload {
        name: "local-8x16",
        why: "same geometry, 0% cross-shard: the inter-committee phase does no work, so it is the \
              bypass for any inter-committee change and the showcase for the other phases",
        rounds: 100,
        passes: 1,
        committees: 8,
        committee_size: 16,
        capacity: 400,
        cross_shard_ratio: 0.0,
        accounts_per_shard: 96,
        base_compute_capacity: 200,
        state_backend: StateBackend::Map,
        load: 0.9,
        arrivals: ArrivalShape::Constant,
        faulty: false,
    },
    Workload {
        name: "state-smt-2x8",
        why:
            "2x8 with 4000 tx/round over 10^5 accounts per shard on the SMT backend: consensus is \
              small and the ledger (generate, apply, Merkle commit) carries the round; memory grows",
        rounds: 100,
        passes: 2,
        committees: 2,
        committee_size: 8,
        capacity: 4000,
        cross_shard_ratio: 0.1,
        accounts_per_shard: 100_000,
        base_compute_capacity: 8000,
        state_backend: StateBackend::Smt,
        load: 0.9,
        arrivals: ArrivalShape::Constant,
        faulty: false,
    },
    Workload {
        name: "faulty-driven-8x16",
        why:
            "8x16 on the message-driven plane with Poisson arrivals, epochs with churn and a fixed \
              schedule of network and leader faults: timeouts, recovery, handover and sync all fire",
        rounds: 100,
        passes: 1,
        committees: 8,
        committee_size: 16,
        capacity: 400,
        cross_shard_ratio: 0.2,
        accounts_per_shard: 96,
        base_compute_capacity: 200,
        state_backend: StateBackend::Map,
        load: 0.75,
        arrivals: ArrivalShape::Poisson,
        faulty: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Measured rounds of an untraced run asked to measure for `seconds`.
    pub fn rounds_for(&self, seconds: u64) -> usize {
        (self.rounds * seconds as usize / RUN_SECONDS as usize).max(MIN_ROUNDS)
    }

    /// The rules common to all workloads, plus this one's geometry and load.
    /// `pipelined` and every other scheduling switch stay at the library
    /// default, so a PR that changes a default is measured as users get it.
    pub fn config(&self, seed: u64) -> ProtocolConfig {
        let mut config = ProtocolConfig {
            committees: self.committees,
            committee_size: self.committee_size,
            partial_set_size: (self.committee_size / 4).max(2),
            referee_size: 7,
            txs_per_round: self.capacity,
            cross_shard_ratio: self.cross_shard_ratio,
            invalid_ratio: 0.05,
            accounts_per_shard: self.accounts_per_shard,
            pow_difficulty: 2,
            base_compute_capacity: self.base_compute_capacity,
            verify_signatures: true,
            worker_threads: crate::sys::worker_threads(),
            state_backend: self.state_backend,
            seed,
            ..ProtocolConfig::default()
        };
        config.traffic = Some(TrafficConfig {
            rate_tps: self.load * capacity_tps(self.capacity, &config.latency),
            shape: self.arrivals,
            warmup_rounds: WARMUP_ROUNDS as u64,
        });
        if self.faulty {
            config.message_driven = true;
            config.epoch_length = EPOCH_LENGTH;
            config.joins_per_epoch = 2;
            config.leaves_per_epoch = 1;
        }
        config
    }

    pub fn schedule(&self) -> &'static [ScheduledFault] {
        if self.faulty {
            &FAULT_SCHEDULE
        } else {
            &[]
        }
    }
}

/// What a scheduled fault does while its window is open. Positional targets
/// are resolved against each round's assignment, exactly as
/// `scenarios::runner` resolves `leader:k` and `partial:k:i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Uniform message loss, parts per million.
    Loss { ppm: u32 },
    /// The committee's leader is partitioned from everyone.
    IsolateLeader { committee: usize },
    /// Extra delay on every link of every partial-set member.
    DelayPartialSet { committee: usize, extra_ms: u64 },
    /// The committee's leader is crash-stopped (neither sends nor receives).
    CrashLeader { committee: usize },
    /// The committee's leader turns Byzantine when the window opens.
    FlipLeader {
        committee: usize,
        behavior: Behavior,
    },
}

/// One entry of the fault schedule, in percent of the measured rounds so a
/// run of any length sees every fault and a clean tail.
#[derive(Clone, Copy, Debug)]
pub struct ScheduledFault {
    pub from_pct: usize,
    pub until_pct: usize,
    pub kind: FaultKind,
}

/// At 100 measured rounds the percentages are round numbers: 10-39 2% loss,
/// 20-23 leader 0 partitioned, 40-43 +300 ms on committee 1's partial set,
/// 60-63 leader 2 crash-stopped, 70 leader 3 equivocates, 80 leader 4 sends
/// a mismatched semi-commitment, 90-99 clean.
///
/// Every node starts honest and the only Byzantine behaviour is what this
/// schedule flips on, so every seed meets the same faults. A standing
/// adversary (20 % of nodes, as the scenario matrix uses) takes the majority
/// of a ~16-member committee or of the 7-member referee about one round in
/// thirty: blocks go missing, honest leaders are evicted, and the tail of the
/// confirm latency swings between two and six rounds from seed to seed —
/// noise no ten-seed median bounds. `CensoringLeader` is left out for the same
/// reason: its 2-gamma takeover stalls the round once per destination shard
/// it had lists for, a count that varies with the seed.
pub const FAULT_SCHEDULE: [ScheduledFault; 6] = [
    ScheduledFault {
        from_pct: 10,
        until_pct: 40,
        kind: FaultKind::Loss { ppm: 20_000 },
    },
    ScheduledFault {
        from_pct: 20,
        until_pct: 24,
        kind: FaultKind::IsolateLeader { committee: 0 },
    },
    ScheduledFault {
        from_pct: 40,
        until_pct: 44,
        kind: FaultKind::DelayPartialSet {
            committee: 1,
            extra_ms: 300,
        },
    },
    ScheduledFault {
        from_pct: 60,
        until_pct: 64,
        kind: FaultKind::CrashLeader { committee: 2 },
    },
    ScheduledFault {
        from_pct: 70,
        until_pct: 71,
        kind: FaultKind::FlipLeader {
            committee: 3,
            behavior: Behavior::EquivocatingLeader,
        },
    },
    ScheduledFault {
        from_pct: 80,
        until_pct: 81,
        kind: FaultKind::FlipLeader {
            committee: 4,
            behavior: Behavior::MismatchedCommitment,
        },
    },
];

/// Share of the run after which [`FAULT_SCHEDULE`] injects nothing more.
pub const CLEAN_TAIL_FROM_PCT: usize = 90;

impl ScheduledFault {
    /// The measured rounds (0-based, half-open) this entry covers in a run of
    /// `rounds`; never empty.
    pub fn window(&self, rounds: usize) -> std::ops::Range<usize> {
        let from = self.from_pct * rounds / 100;
        from..(self.until_pct * rounds / 100).max(from + 1)
    }
}

/// The faults in force for one round, with positional targets resolved.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundFaults {
    pub plan: FaultPlan,
    /// `(committee, leader, behaviour)` flips taking effect this round.
    pub flips: Vec<(usize, NodeId, Behavior)>,
    /// `(committee, leader)` the plan makes unreachable this round. The
    /// committee cannot tell such a leader from a silent one, so it is the
    /// one case where an honest node may lose its seat.
    pub cut_off: Vec<(usize, NodeId)>,
}

/// Resolves `schedule` for measured round `index` of `rounds` against the
/// assignment that round will run under.
pub fn resolve(
    schedule: &[ScheduledFault],
    assignment: &RoundAssignment,
    index: usize,
    rounds: usize,
) -> RoundFaults {
    let mut faults = RoundFaults::default();
    for entry in schedule {
        let window = entry.window(rounds);
        if !window.contains(&index) {
            continue;
        }
        match entry.kind {
            FaultKind::Loss { ppm } => faults.plan.drop_ppm += ppm,
            FaultKind::IsolateLeader { committee } => {
                let leader = assignment.committees[committee].leader;
                faults.plan.partitions.push(Partition {
                    group: vec![leader],
                    from: SimTime::ZERO,
                    until: None,
                });
                faults.cut_off.push((committee, leader));
            }
            FaultKind::DelayPartialSet {
                committee,
                extra_ms,
            } => {
                for &node in &assignment.committees[committee].partial_set {
                    faults.plan.delays.push(TargetedDelay {
                        node,
                        extra: SimDuration::from_millis(extra_ms),
                    });
                }
            }
            FaultKind::CrashLeader { committee } => {
                let leader = assignment.committees[committee].leader;
                faults.plan.crashes.push(CrashStop {
                    member: leader,
                    at: SimTime::ZERO,
                    restart_at: None,
                });
                faults.cut_off.push((committee, leader));
            }
            FaultKind::FlipLeader {
                committee,
                behavior,
            } => {
                if index == window.start {
                    let leader = assignment.committees[committee].leader;
                    faults.flips.push((committee, leader, behavior));
                }
            }
        }
    }
    faults
}

/// Installs one round's faults the way `scenarios::runner` does: behaviour
/// flips through the registry, network faults as the simulation's plan.
pub fn install(sim: &mut Simulation, faults: &RoundFaults) {
    for &(_, node, behavior) in &faults.flips {
        sim.registry_mut().set_behavior(node, behavior);
    }
    sim.set_fault_plan(faults.plan.clone());
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycledger_scenarios::run_scenario;
    use cycledger_scenarios::spec::{
        FaultInjection, FaultTarget, NetFaultInjection, NetFaultKind, Scenario,
    };

    #[test]
    fn every_workload_validates_and_shares_the_common_rules() {
        for workload in &WORKLOADS {
            let config = workload.config(4242);
            assert_eq!(config.validate(), Ok(()), "{}", workload.name);
            assert!(config.verify_signatures);
            assert_eq!(config.pow_difficulty, 2);
            assert_eq!(config.referee_size, 7);
            assert!(!config.pipelined, "scheduling stays at the default");
            assert!(config.traffic.is_some(), "{} is open loop", workload.name);
            assert!(workload.rounds_for(RUN_SECONDS) >= MIN_ROUNDS);
            assert!(workload.rounds_for(1) >= MIN_ROUNDS);
            assert!(workload.passes >= 1);
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }
        assert_eq!(WORKLOADS.iter().filter(|w| w.faulty).count(), 1);
    }

    #[test]
    fn schedule_windows_scale_with_the_run_and_never_vanish() {
        let at_100: Vec<_> = FAULT_SCHEDULE.iter().map(|f| f.window(100)).collect();
        assert_eq!(at_100, [10..40, 20..24, 40..44, 60..64, 70..71, 80..81]);
        for rounds in [10, 30, 100, 137] {
            for entry in &FAULT_SCHEDULE {
                let window = entry.window(rounds);
                assert!(!window.is_empty());
                assert!(window.end <= CLEAN_TAIL_FROM_PCT * rounds / 100);
            }
        }
    }

    /// The same schedule, written as a `scenarios` spec and driven by
    /// `scenarios::runner`, must target the same node ids: the flips are
    /// compared id by id, and the network faults through the run digest,
    /// which diverges if a single partition or delay hits another node.
    #[test]
    fn schedule_resolves_the_same_nodes_as_the_scenario_runner() {
        const ROUNDS: usize = 20;
        let config = ProtocolConfig {
            committees: 5,
            committee_size: 8,
            partial_set_size: 2,
            referee_size: 5,
            txs_per_round: 50,
            accounts_per_shard: 24,
            pow_difficulty: 2,
            verify_signatures: false,
            message_driven: true,
            worker_threads: 1,
            seed: 4242,
            ..ProtocolConfig::default()
        };

        let mut scenario = Scenario::new("benchmark-fault-schedule", config);
        scenario.rounds = ROUNDS;
        scenario.workers = vec![1];
        // A scenario must assert something; the comparison below is ours.
        scenario.invariants = vec![cycledger_scenarios::Invariant::NoDoubleCommit];
        for entry in &FAULT_SCHEDULE {
            let window = entry.window(ROUNDS);
            let mut net = |kind| {
                scenario.net_faults.push(NetFaultInjection {
                    from_round: window.start as u64,
                    until_round: window.end as u64,
                    kind,
                })
            };
            match entry.kind {
                FaultKind::Loss { ppm } => net(NetFaultKind::Loss { ppm }),
                FaultKind::IsolateLeader { committee } => {
                    net(NetFaultKind::IsolateLeader { committee })
                }
                FaultKind::DelayPartialSet {
                    committee,
                    extra_ms,
                } => {
                    for index in 0..config.partial_set_size {
                        net(NetFaultKind::Delay {
                            target: FaultTarget::PartialSetMember { committee, index },
                            micros: extra_ms * 1000,
                        });
                    }
                }
                FaultKind::CrashLeader { committee } => net(NetFaultKind::CrashStop {
                    target: FaultTarget::Leader(committee),
                }),
                FaultKind::FlipLeader {
                    committee,
                    behavior,
                } => scenario.faults.push(FaultInjection {
                    round: window.start as u64,
                    target: FaultTarget::Leader(committee),
                    behavior,
                }),
            }
        }
        let reference = run_scenario(&scenario).expect("scenario runs").outcome;

        let mut sim = Simulation::new(config).unwrap();
        let mut flips = Vec::new();
        for index in 0..ROUNDS {
            let faults = resolve(&FAULT_SCHEDULE, sim.assignment(), index, ROUNDS);
            flips.extend(
                faults
                    .flips
                    .iter()
                    .map(|&(_, node, b)| (index as u64, node, b)),
            );
            install(&mut sim, &faults);
            sim.run_round();
        }
        let expected: Vec<_> = reference
            .injected
            .iter()
            .map(|f| (f.round, f.node, f.behavior))
            .collect();
        assert_eq!(flips.len(), 2);
        assert_eq!(flips, expected);
        let summary = cycledger_protocol::SimulationSummary {
            rounds: sim.reports().to_vec(),
        };
        assert_eq!(summary.canonical_digest().to_hex(), reference.digest);
    }
}
