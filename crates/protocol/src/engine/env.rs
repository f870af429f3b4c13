//! One way to open, run and close a committee task.
//!
//! Every phase of §IV is the same unit of work — a committee-local exchange
//! on a network of its own, most ending in one Algorithm 3 instance — and
//! this module holds what each of them needs to do it:
//!
//! * [`RoundEnv`] — the read-shared inputs of a round, `Copy`, handed to
//!   every phase entry point and captured by every executor task;
//! * [`Task`] — which unit of work, and through [`Task::row`] the **only**
//!   place that maps one to its accounting label, its Algorithm 3 `seq`, its
//!   network seed and whether its network carries the round's fault plan;
//! * [`Books`] — what a task hands back beside its outcome: the traffic its
//!   network carried and the [`PlaneCounters`] of what went missing on it.

use std::ops::{AddAssign, Sub};

use cycledger_consensus::messages::ConsensusId;
use cycledger_net::faults::FaultPlan;
use cycledger_net::metrics::{MetricsSink, Phase};
use cycledger_net::network::SimNetwork;
use cycledger_net::topology::NodeId;

use crate::committee::Committee;
use crate::config::ProtocolConfig;
use crate::node::NodeRegistry;

/// The read-shared inputs of one round.
#[derive(Clone, Copy)]
pub struct RoundEnv<'a> {
    /// The protocol configuration (latency profile and master seed included).
    pub config: &'a ProtocolConfig,
    /// The node registry (PKI + ground truth).
    pub registry: &'a NodeRegistry,
    /// The referee committee `C_R`.
    pub referee: &'a Committee,
    /// Network faults in force this round (empty unless the simulation
    /// installed a plan). A task's network runs under it only where
    /// [`TaskRow::under_plan`] says so.
    pub plan: &'a FaultPlan,
    /// The round number.
    pub round: u64,
}

impl RoundEnv<'_> {
    /// Opens `task`'s network: seeded, labelled and faulted as the task table
    /// says.
    pub fn open<M>(&self, task: Task) -> SimNetwork<M> {
        let row = task.row(self.round);
        let plan = if row.under_plan {
            self.plan.clone()
        } else {
            FaultPlan::default()
        };
        let seed = self.config.seed ^ row.salt;
        let mut net = SimNetwork::with_faults(self.config.latency, seed, plan);
        net.set_phase(row.phase);
        net
    }

    /// The Algorithm 3 instance `task` runs this round.
    pub fn instance(&self, task: Task) -> ConsensusId {
        task.instance(self.round)
    }
}

/// One committee-local unit of work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// The referee committee agrees on the round's semi-commitments.
    SemiCommitment,
    /// Committee `committee` votes on and certifies its `TXdecSET`; `retry`
    /// for the second attempt, under the leader a recovery installed.
    Intra {
        /// Committee index.
        committee: usize,
        /// Second attempt of the round.
        retry: bool,
    },
    /// The round's `attempt`-th impeachment (in attempt order, across all
    /// committees), of `committee`'s leader. No Algorithm 3 instance.
    Recovery {
        /// Recoveries attempted before this one.
        attempt: usize,
        /// Committee index.
        committee: usize,
    },
    /// Committee `k` certifies and forwards its outbound cross-shard lists.
    Source(usize),
    /// Committee `k` votes on, certifies and returns its inbound lists.
    Destination(usize),
    /// Committee `k` certifies its `ScoreList`.
    Reputation(usize),
    /// The referee committee agrees on the block.
    Block,
    /// `member`'s state-sync session. It runs between rounds, so it uses the
    /// table's seed alone ([`Task::seed`], with the rounds completed so far
    /// as the round) and never [`RoundEnv::open`].
    Sync {
        /// The catching-up member.
        member: NodeId,
    },
}

/// One row of the task table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskRow {
    /// The label the task's traffic is accounted under.
    pub phase: Phase,
    /// `seq` of the task's Algorithm 3 instance, if it runs one.
    pub seq: Option<u64>,
    /// What the task's network seed adds to the configuration's: the seed is
    /// `config.seed ^ salt`.
    pub salt: u64,
    /// Whether the task's network carries the round's [`FaultPlan`]. The
    /// three `false` rows are one Algorithm 3 instance each with nothing
    /// waiting on a deadline; they never ran under the plan, and putting
    /// them under it moves every faulted golden.
    pub under_plan: bool,
}

impl Task {
    /// The task's row at `round`. The salts are not a scheme — they are the
    /// expressions each phase grew on its own, kept bit for bit because
    /// every golden digest depends on them. One collision is known: at round
    /// 0 the first recovery attempt in committee `k` has committee `k`'s
    /// first-attempt intra salt (both are `k`); separating them moves every
    /// round-0 recovery golden, so it waits for a re-blessing change.
    pub fn row(self, round: u64) -> TaskRow {
        use Phase::*;
        let row = |phase, seq, salt, under_plan| TaskRow {
            phase,
            seq,
            salt,
            under_plan,
        };
        match self {
            Task::SemiCommitment => {
                row(SemiCommitmentExchange, Some(0x5e1f), round ^ 0x5e1f, false)
            }
            Task::Intra { committee, retry } => {
                let k = committee as u64;
                let attempt = if retry { 0x1_0000 } else { 0 };
                row(
                    IntraCommitteeConsensus,
                    Some(1_000 + k),
                    (round << 8) ^ (attempt + k),
                    true,
                )
            }
            Task::Recovery { attempt, committee } => row(
                Recovery,
                None,
                (round << 40) ^ ((attempt as u64) << 8) ^ committee as u64,
                true,
            ),
            Task::Source(k) => {
                let seq = 2_000 + k as u64;
                row(
                    InterCommitteeConsensus,
                    Some(seq),
                    (round << 16) ^ (seq << 16),
                    true,
                )
            }
            Task::Destination(k) => {
                let seq = 3_000 + k as u64;
                row(
                    InterCommitteeConsensus,
                    Some(seq),
                    (round << 16) ^ (seq << 16),
                    true,
                )
            }
            Task::Reputation(k) => {
                let k = k as u64;
                row(
                    ReputationUpdate,
                    Some(4_000 + k),
                    (round << 24) ^ (0xabc0 + k),
                    false,
                )
            }
            Task::Block => row(BlockGeneration, Some(9_000), (round << 32) ^ 0xb10c, false),
            // The label is the network's default: a session's sink is never
            // read.
            Task::Sync { member } => row(
                CommitteeConfiguration,
                None,
                (round << 48) ^ u64::from(member.0),
                true,
            ),
        }
    }

    /// The task's network seed under the configuration seed `config_seed`.
    pub fn seed(self, config_seed: u64, round: u64) -> u64 {
        config_seed ^ self.row(round).salt
    }

    /// The task's Algorithm 3 instance at `round`; a receiver admits only
    /// certificates naming it. (The block instance is numbered by chain
    /// height, which trails the round after a round without a block.)
    ///
    /// # Panics
    /// For the two tasks that run none (`Recovery`, `Sync`).
    pub fn instance(self, round: u64) -> ConsensusId {
        let seq = self.row(round).seq;
        let seq = seq.expect("the task runs an Algorithm 3 instance");
        ConsensusId { round, seq }
    }
}

/// What the message plane lost or waited out: the six counters a
/// [`crate::report::RoundReport`] carries, per task or summed over a round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaneCounters {
    /// Vote-collection deadlines that fired with votes missing.
    pub quorum_timeouts: usize,
    /// Certified cross-shard `(i, j)` lists that never reached the destination
    /// leader: a forward leg severed or delayed past `4Γ`, or a censoring
    /// leader whose whole partial set colludes (the pair is deferred to a
    /// later round).
    pub list_timeouts: usize,
    /// Individual votes missing at collection deadlines (each recorded as an
    /// all-`Unknown` row; syncing abstentions included).
    pub votes_missing: usize,
    /// Envelopes the fault plan dropped.
    pub net_dropped: u64,
    /// `Syncing` members that received an announcement and deliberately
    /// abstained.
    pub syncing_abstentions: usize,
    /// Votes received from `Syncing` members. Must stay zero — pinned by the
    /// churn fuzz's `NoSyncingVotes` invariant.
    pub syncing_votes: usize,
}

impl AddAssign for PlaneCounters {
    fn add_assign(&mut self, other: PlaneCounters) {
        self.quorum_timeouts += other.quorum_timeouts;
        self.list_timeouts += other.list_timeouts;
        self.votes_missing += other.votes_missing;
        self.net_dropped += other.net_dropped;
        self.syncing_abstentions += other.syncing_abstentions;
        self.syncing_votes += other.syncing_votes;
    }
}

impl Sub for PlaneCounters {
    type Output = PlaneCounters;

    /// What was added since `earlier`, a snapshot of the same running total.
    fn sub(self, earlier: PlaneCounters) -> PlaneCounters {
        PlaneCounters {
            quorum_timeouts: self.quorum_timeouts - earlier.quorum_timeouts,
            list_timeouts: self.list_timeouts - earlier.list_timeouts,
            votes_missing: self.votes_missing - earlier.votes_missing,
            net_dropped: self.net_dropped - earlier.net_dropped,
            syncing_abstentions: self.syncing_abstentions - earlier.syncing_abstentions,
            syncing_votes: self.syncing_votes - earlier.syncing_votes,
        }
    }
}

/// A task's books: the traffic its network carried and what its plane lost.
/// The round keeps one too ([`crate::engine::RoundContext::books`]), the sum
/// of its tasks'.
#[derive(Clone, Debug, Default)]
pub struct Books {
    /// Per-node, per-phase traffic and storage.
    pub metrics: MetricsSink,
    /// Timeouts, missing votes, drops and abstentions.
    pub counters: PlaneCounters,
}

impl Books {
    /// Closes a task's network: drains it to quiescence (late votes,
    /// in-flight forwards, unexpired timers), then takes its drop count and
    /// its sink.
    pub fn close<M>(mut net: SimNetwork<M>) -> Books {
        while net.next_event().is_some() {}
        let counters = PlaneCounters {
            net_dropped: net.dropped_messages(),
            ..PlaneCounters::default()
        };
        Books {
            metrics: net.into_metrics(),
            counters,
        }
    }

    /// Folds a task's books into these. Sums commute, so the result is the
    /// same in any order; the engine folds in committee order anyway.
    pub fn absorb(&mut self, task: &Books) {
        self.metrics.merge(&task.metrics);
        self.counters += task.counters;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The expressions each phase spelled out on its own at commit 898cf3d,
    /// written out literally: `(phase, seq, seed)` of a task under
    /// configuration seed `s` at round `r`.
    fn parent(task: Task, s: u64, r: u64) -> (Phase, Option<u64>, u64) {
        match task {
            // pipeline.rs: `seed = config.seed ^ round`, then
            // semi_commitment.rs: `SimNetwork::new(latency, seed ^ 0x5e1f)`.
            Task::SemiCommitment => (
                Phase::SemiCommitmentExchange,
                Some(0x5e1f),
                (s ^ r) ^ 0x5e1f,
            ),
            // pipeline.rs: `config.seed ^ (round << 8) ^ (seed_salt + k)`,
            // `seed_salt` 0 or 0x1_0000; intra.rs: `seq: 1_000 + index`.
            Task::Intra { committee, retry } => {
                let (k, seed_salt) = (committee as u64, if retry { 0x1_0000 } else { 0 });
                let seed = s ^ (r << 8) ^ (seed_salt + k);
                (Phase::IntraCommitteeConsensus, Some(1_000 + k), seed)
            }
            // context.rs: `seed ^ (round << 40) ^ (log.len() << 8) ^ k`.
            Task::Recovery { attempt, committee } => {
                let seed = s ^ (r << 40) ^ ((attempt as u64) << 8) ^ committee as u64;
                (Phase::Recovery, None, seed)
            }
            // pipeline.rs: `seed: config.seed ^ (round << 16)`, then
            // xshard.rs: `env.seed ^ (seq << 16)`, `seq = side + committee`.
            Task::Source(k) => {
                let seq = 2_000 + k as u64;
                let seed = (s ^ (r << 16)) ^ (seq << 16);
                (Phase::InterCommitteeConsensus, Some(seq), seed)
            }
            Task::Destination(k) => {
                let seq = 3_000 + k as u64;
                let seed = (s ^ (r << 16)) ^ (seq << 16);
                (Phase::InterCommitteeConsensus, Some(seq), seed)
            }
            // pipeline.rs: `config.seed ^ (round << 24)`, then
            // reputation_update.rs: `seed ^ (0xabc0 + index)`, `seq: 4_000 + index`.
            Task::Reputation(k) => {
                let seed = (s ^ (r << 24)) ^ (0xabc0 + k as u64);
                (Phase::ReputationUpdate, Some(4_000 + k as u64), seed)
            }
            // pipeline.rs: `config.seed ^ (round << 32)`, then
            // block_generation.rs: `seed ^ 0xb10c`, `seq: 9_000`.
            Task::Block => (
                Phase::BlockGeneration,
                Some(9_000),
                (s ^ (r << 32)) ^ 0xb10c,
            ),
            // simulation.rs: `seed ^ (reports.len() << 48) ^ member.0`, on a
            // network whose label was never set.
            Task::Sync { member } => {
                let seed = s ^ (r << 48) ^ u64::from(member.0);
                (Phase::CommitteeConfiguration, None, seed)
            }
        }
    }

    /// Every task of one round over `m` committees and `attempts` recoveries
    /// in each, plus a sync session for each of `m` members.
    fn tasks_of_a_round(m: usize, attempts: usize) -> Vec<Task> {
        let mut tasks = vec![Task::SemiCommitment, Task::Block];
        for k in 0..m {
            for retry in [false, true] {
                tasks.push(Task::Intra {
                    committee: k,
                    retry,
                });
            }
            tasks.extend((0..attempts).map(|attempt| Task::Recovery {
                attempt,
                committee: k,
            }));
            tasks.extend([Task::Source(k), Task::Destination(k), Task::Reputation(k)]);
            let member = NodeId(k as u32);
            tasks.push(Task::Sync { member });
        }
        tasks
    }

    #[test]
    fn task_table_reproduces_the_parent_expressions() {
        for s in [0, 1, 42, 4242, 0xdead_beef_cafe_f00d, u64::MAX] {
            for r in [0, 1, 2, 7, 31, 64] {
                for task in tasks_of_a_round(65, 9) {
                    let (phase, seq, seed) = parent(task, s, r);
                    let row = task.row(r);
                    assert_eq!((row.phase, row.seq), (phase, seq), "{task:?} at round {r}");
                    assert_eq!(task.seed(s, r), seed, "{task:?}, seed {s} at round {r}");
                    if let Some(seq) = seq {
                        assert_eq!(task.instance(r), ConsensusId { round: r, seq });
                    }
                    // Semi-commitment, reputation and block opened theirs
                    // with `SimNetwork::new`; everyone else `with_faults`.
                    let plain = matches!(
                        task,
                        Task::SemiCommitment | Task::Reputation(_) | Task::Block
                    );
                    assert_eq!(row.under_plan, !plain, "{task:?}");
                }
            }
        }
    }

    /// The one collision the table has, and keeps: the first recovery
    /// attempt of round 0 in committee `k` runs on the seed of committee
    /// `k`'s intra network (`S ^ (0 << 40) ^ (0 << 8) ^ k == S ^ (0 << 8) ^ k`).
    fn the_round_0_collision(a: Task, b: Task, round: u64) -> bool {
        let pair = |recovery: Task, intra: Task| {
            let Task::Recovery {
                attempt: 0,
                committee,
            } = recovery
            else {
                return false;
            };
            let first_attempt = Task::Intra {
                committee,
                retry: false,
            };
            round == 0 && intra == first_attempt
        };
        pair(a, b) || pair(b, a)
    }

    #[test]
    fn within_one_round_no_two_tasks_share_a_network_seed_but_for_the_round_0_recovery() {
        let tasks: Vec<Task> = tasks_of_a_round(64, 8)
            .into_iter()
            .filter(|task| !matches!(task, Task::Sync { .. }))
            .collect();
        for round in [0, 1, 2, 63, 64] {
            let mut seen: HashMap<u64, Task> = HashMap::new();
            let mut collisions = 0;
            for &task in &tasks {
                if let Some(earlier) = seen.insert(task.seed(4242, round), task) {
                    assert!(
                        the_round_0_collision(earlier, task, round),
                        "{earlier:?} and {task:?} share a seed at round {round}"
                    );
                    collisions += 1;
                }
            }
            assert_eq!(collisions, if round == 0 { 64 } else { 0 }, "round {round}");
        }
    }

    #[test]
    fn plane_counters_add_and_subtract_field_by_field() {
        let a = PlaneCounters {
            quorum_timeouts: 1,
            list_timeouts: 2,
            votes_missing: 3,
            net_dropped: 4,
            syncing_abstentions: 5,
            syncing_votes: 6,
        };
        let mut sum = a;
        sum += a;
        assert_eq!(sum.net_dropped, 8);
        assert_eq!(sum - a, a);
        assert_eq!(a - a, PlaneCounters::default());
    }
}
