//! Deterministic network-fault model: partitions, targeted delay, loss.
//!
//! A [`FaultPlan`] describes how the adversary (or plain bad weather) perturbs
//! the network during one [`SimNetwork`](crate::network::SimNetwork)'s life.
//! Every decision the plan makes is a pure function of `(seed, src, dst,
//! sequence number, virtual time)`, so a faulted run is exactly as
//! reproducible as a clean one: same seed ⇒ same drops, same delays, same
//! delivery order, independent of worker threads or wall-clock. The seed
//! enters through [`FaultDraws`]: the network keys its loss and jitter draws
//! once, when it is built, and each sampled decision costs one SHA-256
//! compression.
//!
//! The model extends the two knobs the network already had:
//!
//! * [`LatencyConfig`](crate::latency::LatencyConfig) bounds honest delay per
//!   link class; the plan layers *extra* delay on top — uniform reorder
//!   jitter and per-node targeted delay (a delay attack pushes a victim's
//!   traffic past protocol deadlines without dropping a byte);
//! * a [`Partition`] severs a group from the rest of the world for a
//!   virtual-time window, healing automatically at `until`.
//!
//! Faults act at *send* time: a message crossing an active partition
//! boundary, or sampled into a loss event, is never enqueued and never
//! charged to the metrics sink. The network
//! counts each category separately so tests can reconcile books exactly
//! (see `dropped_by_partition` & friends on the network).

use cycledger_crypto::opcount::{count, Op};

use crate::latency::LinkDraws;
use crate::time::{SimDuration, SimTime};
use crate::topology::NodeId;

/// Parts per million, the fixed-point probability unit used for loss rates
/// (1_000_000 = drop everything).
pub const PPM: u32 = 1_000_000;

/// One partition span: `group` is severed from every node outside it between
/// `from` (inclusive) and `until` (exclusive). `until = None` means the
/// partition never heals within this network's life.
///
/// Messages *inside* the group still flow, as does traffic wholly outside
/// it — the span cuts exactly the boundary. Overlapping spans compose: a
/// link is severed while any active span separates its endpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// The severed group.
    pub group: Vec<NodeId>,
    /// Start of the span (inclusive).
    pub from: SimTime,
    /// Heal time (exclusive); `None` = never heals.
    pub until: Option<SimTime>,
}

impl Partition {
    /// True while the span is active at `now`.
    pub fn active_at(&self, now: SimTime) -> bool {
        now >= self.from && self.until.is_none_or(|until| now < until)
    }

    /// True if the span separates `a` and `b` at `now`.
    pub fn severs(&self, now: SimTime, a: NodeId, b: NodeId) -> bool {
        self.active_at(now) && (self.group.contains(&a) != self.group.contains(&b))
    }
}

/// Extra deterministic delay on every message sent *or* received by one node
/// (a targeted delay attack: the adversary holds the victim's links at the
/// synchrony bound and beyond).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TargetedDelay {
    /// The delayed node.
    pub node: NodeId,
    /// Extra delay added on top of the sampled link latency.
    pub extra: SimDuration,
}

/// A window of elevated uniform loss (e.g. a congested backbone): every
/// message sent in `[from, until)` is dropped with probability
/// `drop_ppm / 1e6`, sampled deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LossBurst {
    /// Start of the burst (inclusive).
    pub from: SimTime,
    /// End of the burst (exclusive).
    pub until: SimTime,
    /// Drop probability inside the window, in parts per million.
    pub drop_ppm: u32,
}

/// A crash-stop fault: `member` is down from `at` (inclusive) until
/// `restart_at` (exclusive); `restart_at = None` means the node never comes
/// back within this network's life.
///
/// While down the node neither sends nor receives — both directions are cut,
/// unlike a [`TargetedDelay`] (which slows) or the sender-only `silence`
/// mechanism. A message sent *to* a crashed node is dropped at send time,
/// the same admission point as partitions, so books still reconcile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashStop {
    /// The crashed node.
    pub member: NodeId,
    /// Crash instant (inclusive).
    pub at: SimTime,
    /// Restart instant (exclusive); `None` = stays down.
    pub restart_at: Option<SimTime>,
}

impl CrashStop {
    /// True while the node is down at `now`.
    pub fn down_at(&self, now: SimTime) -> bool {
        now >= self.at && self.restart_at.is_none_or(|restart| now < restart)
    }
}

/// The keyed draws behind a network's sampled faults: one `LinkDraws` for
/// loss and one for jitter, both keyed by the network seed.
#[derive(Clone, Copy, Debug)]
pub struct FaultDraws {
    loss: LinkDraws,
    jitter: LinkDraws,
}

impl FaultDraws {
    /// The loss and jitter draws of a network built with `seed`.
    pub fn new(seed: u64) -> FaultDraws {
        FaultDraws {
            loss: LinkDraws::new("cycledger/net-loss", seed),
            jitter: LinkDraws::new("cycledger/net-jitter", seed),
        }
    }
}

/// The full fault model for one simulated network.
///
/// The default plan is empty — a network built with it behaves exactly like
/// one built without a plan, byte for byte.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Partition/heal schedule entries.
    pub partitions: Vec<Partition>,
    /// Per-node targeted extra delays.
    pub delays: Vec<TargetedDelay>,
    /// Baseline uniform loss applied to every message, in parts per million.
    pub drop_ppm: u32,
    /// Reorder jitter: every message gets an extra deterministic delay drawn
    /// uniformly from `[0, jitter]`, which perturbs delivery order relative
    /// to send order without violating `bound + jitter`.
    pub jitter: SimDuration,
    /// Windows of elevated loss.
    pub bursts: Vec<LossBurst>,
    /// Crash-stop schedule entries.
    pub crashes: Vec<CrashStop>,
}

impl FaultPlan {
    /// True when the plan perturbs nothing (the network skips all fault
    /// bookkeeping in that case).
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
            && self.delays.is_empty()
            && self.drop_ppm == 0
            && self.jitter == SimDuration::ZERO
            && self.bursts.is_empty()
            && self.crashes.is_empty()
    }

    /// A plan that only severs `group` from the rest of the world for the
    /// whole network life (the common "round-long partition" shape the
    /// scenario layer emits).
    pub fn partition(group: Vec<NodeId>) -> FaultPlan {
        FaultPlan {
            partitions: vec![Partition {
                group,
                from: SimTime::ZERO,
                until: None,
            }],
            ..FaultPlan::default()
        }
    }

    /// Adds a partition span to the schedule (builder style).
    pub fn with_partition(
        mut self,
        group: Vec<NodeId>,
        from: SimTime,
        until: Option<SimTime>,
    ) -> FaultPlan {
        self.partitions.push(Partition { group, from, until });
        self
    }

    /// Adds a targeted delay (builder style).
    pub fn with_delay(mut self, node: NodeId, extra: SimDuration) -> FaultPlan {
        self.delays.push(TargetedDelay { node, extra });
        self
    }

    /// Adds a crash-stop span (builder style).
    pub fn with_crash(
        mut self,
        member: NodeId,
        at: SimTime,
        restart_at: Option<SimTime>,
    ) -> FaultPlan {
        self.crashes.push(CrashStop {
            member,
            at,
            restart_at,
        });
        self
    }

    /// True if any active partition separates `from` and `to` at `now`.
    pub fn severed(&self, now: SimTime, from: NodeId, to: NodeId) -> bool {
        self.partitions.iter().any(|p| p.severs(now, from, to))
    }

    /// True if `node` is crash-stopped at `now` (neither sends nor receives).
    pub fn crashed(&self, now: SimTime, node: NodeId) -> bool {
        self.crashes
            .iter()
            .any(|c| c.member == node && c.down_at(now))
    }

    /// The total targeted extra delay for a `(from, to)` link: delays on the
    /// sender and on the receiver both apply (the attack holds the victim's
    /// links in both directions).
    pub fn extra_delay(&self, from: NodeId, to: NodeId) -> SimDuration {
        self.delays
            .iter()
            .filter(|d| d.node == from || d.node == to)
            .fold(SimDuration::ZERO, |acc, d| acc.plus(d.extra))
    }

    /// The effective loss probability (ppm, saturating) for a message sent at
    /// `now`: the baseline rate plus any active burst.
    pub fn drop_ppm_at(&self, now: SimTime) -> u32 {
        let burst: u32 = self
            .bursts
            .iter()
            .filter(|b| now >= b.from && now < b.until)
            .map(|b| b.drop_ppm)
            .fold(0, u32::saturating_add);
        self.drop_ppm.saturating_add(burst).min(PPM)
    }

    /// Deterministically decides whether send attempt number `attempt` from
    /// `from` to `to` at `now` is lost: Bernoulli(`drop_ppm_at(now)` / 10^6),
    /// pure in `(draws, from, to, attempt, now)`. The caller must advance
    /// `attempt` for *every* send attempt — including dropped ones — or the
    /// first sampled drop on a link would repeat forever.
    pub fn drops(
        &self,
        draws: &FaultDraws,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        attempt: u64,
    ) -> bool {
        let ppm = self.drop_ppm_at(now);
        if ppm == 0 {
            return false;
        }
        if ppm >= PPM {
            return true;
        }
        count(Op::FaultDraw);
        draws.loss.below(from, to, attempt, PPM as u64) < ppm as u64
    }

    /// Deterministic reorder jitter for send attempt `attempt` from `from`
    /// to `to`: uniform in `[0, jitter]`.
    pub fn jitter_for(
        &self,
        draws: &FaultDraws,
        from: NodeId,
        to: NodeId,
        attempt: u64,
    ) -> SimDuration {
        if self.jitter == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        count(Op::FaultDraw);
        let bound = self.jitter.as_micros() + 1;
        SimDuration::from_micros(draws.jitter.below(from, to, attempt, bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(!plan.severed(SimTime(0), NodeId(0), NodeId(1)));
        assert_eq!(plan.extra_delay(NodeId(0), NodeId(1)), SimDuration::ZERO);
        assert_eq!(plan.drop_ppm_at(SimTime(0)), 0);
        let draws = FaultDraws::new(1);
        assert!(!plan.drops(&draws, SimTime(0), NodeId(0), NodeId(1), 0));
        assert_eq!(
            plan.jitter_for(&draws, NodeId(0), NodeId(1), 0),
            SimDuration::ZERO
        );
    }

    #[test]
    fn partition_severs_only_the_boundary_within_its_window() {
        let plan = FaultPlan::default().with_partition(
            vec![NodeId(1), NodeId(2)],
            SimTime(100),
            Some(SimTime(200)),
        );
        // Before the window: nothing severed.
        assert!(!plan.severed(SimTime(99), NodeId(1), NodeId(5)));
        // Inside: the boundary is cut in both directions…
        assert!(plan.severed(SimTime(100), NodeId(1), NodeId(5)));
        assert!(plan.severed(SimTime(150), NodeId(5), NodeId(2)));
        // …but intra-group and outside-outside links still work.
        assert!(!plan.severed(SimTime(150), NodeId(1), NodeId(2)));
        assert!(!plan.severed(SimTime(150), NodeId(5), NodeId(6)));
        // Heal time is exclusive.
        assert!(!plan.severed(SimTime(200), NodeId(1), NodeId(5)));
    }

    #[test]
    fn unhealed_partition_lasts_forever() {
        let plan = FaultPlan::partition(vec![NodeId(7)]);
        assert!(plan.severed(SimTime(u64::MAX), NodeId(7), NodeId(0)));
        assert!(!plan.is_empty());
    }

    #[test]
    fn targeted_delay_applies_to_both_directions_and_sums() {
        let plan = FaultPlan::default()
            .with_delay(NodeId(3), SimDuration::from_millis(10))
            .with_delay(NodeId(4), SimDuration::from_millis(5));
        assert_eq!(
            plan.extra_delay(NodeId(3), NodeId(9)),
            SimDuration::from_millis(10)
        );
        assert_eq!(
            plan.extra_delay(NodeId(9), NodeId(3)),
            SimDuration::from_millis(10)
        );
        assert_eq!(
            plan.extra_delay(NodeId(3), NodeId(4)),
            SimDuration::from_millis(15)
        );
        assert_eq!(plan.extra_delay(NodeId(8), NodeId(9)), SimDuration::ZERO);
    }

    #[test]
    fn loss_rates_compose_and_saturate() {
        let plan = FaultPlan {
            drop_ppm: 100_000,
            bursts: vec![LossBurst {
                from: SimTime(10),
                until: SimTime(20),
                drop_ppm: PPM,
            }],
            ..FaultPlan::default()
        };
        assert_eq!(plan.drop_ppm_at(SimTime(0)), 100_000);
        assert_eq!(plan.drop_ppm_at(SimTime(10)), PPM);
        assert_eq!(plan.drop_ppm_at(SimTime(20)), 100_000);
        // Inside a total-loss burst everything drops, deterministically.
        assert!(plan.drops(&FaultDraws::new(42), SimTime(15), NodeId(0), NodeId(1), 7));
    }

    #[test]
    fn drop_sampling_is_deterministic_and_seed_sensitive() {
        let plan = FaultPlan {
            drop_ppm: 500_000,
            ..FaultPlan::default()
        };
        let pattern = |seed: u64| -> Vec<bool> {
            let draws = FaultDraws::new(seed);
            (0..64)
                .map(|seq| plan.drops(&draws, SimTime(0), NodeId(1), NodeId(2), seq))
                .collect()
        };
        assert_eq!(pattern(5), pattern(5));
        assert_ne!(pattern(5), pattern(6));
        let dropped = pattern(5).iter().filter(|&&d| d).count();
        assert!((10..=54).contains(&dropped), "≈50% loss, got {dropped}/64");
    }

    #[test]
    fn crash_stop_window_boundaries() {
        let crash = CrashStop {
            member: NodeId(3),
            at: SimTime(100),
            restart_at: Some(SimTime(200)),
        };
        assert!(!crash.down_at(SimTime(99)));
        assert!(crash.down_at(SimTime(100)), "crash instant is inclusive");
        assert!(crash.down_at(SimTime(199)));
        assert!(!crash.down_at(SimTime(200)), "restart instant is exclusive");
    }

    #[test]
    fn crash_stop_without_restart_stays_down() {
        let plan = FaultPlan::default().with_crash(NodeId(5), SimTime(10), None);
        assert!(!plan.is_empty());
        assert!(!plan.crashed(SimTime(9), NodeId(5)));
        assert!(plan.crashed(SimTime(u64::MAX), NodeId(5)));
        assert!(!plan.crashed(SimTime(50), NodeId(6)), "only the member");
    }

    #[test]
    fn loss_burst_boundaries_sit_exactly_on_round_edges() {
        // A scenario round spans [0, ROUND) in the per-round network's
        // virtual time. Pin the half-open burst window against bursts that
        // start or end exactly on those edges: a burst ending at the round
        // start never fires, one starting at the edge fires from its first
        // microsecond, and the `until` edge itself is already healed.
        const ROUND_EDGE: u64 = 1_000;
        let plan = FaultPlan {
            bursts: vec![
                // Ends exactly at the round edge: active strictly before it.
                LossBurst {
                    from: SimTime(0),
                    until: SimTime(ROUND_EDGE),
                    drop_ppm: PPM,
                },
                // Starts exactly at the round edge.
                LossBurst {
                    from: SimTime(ROUND_EDGE * 2),
                    until: SimTime(ROUND_EDGE * 3),
                    drop_ppm: PPM,
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.drop_ppm_at(SimTime(0)), PPM, "from is inclusive");
        assert_eq!(plan.drop_ppm_at(SimTime(ROUND_EDGE - 1)), PPM);
        assert_eq!(
            plan.drop_ppm_at(SimTime(ROUND_EDGE)),
            0,
            "until is exclusive: the edge itself is healed"
        );
        assert_eq!(
            plan.drop_ppm_at(SimTime(ROUND_EDGE * 2)),
            PPM,
            "a burst starting exactly on the edge fires immediately"
        );
        assert_eq!(plan.drop_ppm_at(SimTime(ROUND_EDGE * 3)), 0);
        // Determinism of the sampled decision at the edges.
        let draws = FaultDraws::new(7);
        assert!(plan.drops(&draws, SimTime(ROUND_EDGE - 1), NodeId(0), NodeId(1), 0));
        assert!(!plan.drops(&draws, SimTime(ROUND_EDGE), NodeId(0), NodeId(1), 0));
    }

    #[test]
    fn crash_stop_overlapping_a_partition_span() {
        // Node 1 sits inside a partition [100, 300) and also crashes during
        // [200, 400): the link is unusable for the union of both windows,
        // and each mechanism reports its own span.
        let plan = FaultPlan::default()
            .with_partition(vec![NodeId(1)], SimTime(100), Some(SimTime(300)))
            .with_crash(NodeId(1), SimTime(200), Some(SimTime(400)));
        // Partition only.
        assert!(plan.severed(SimTime(150), NodeId(1), NodeId(2)));
        assert!(!plan.crashed(SimTime(150), NodeId(1)));
        // Overlap: both active.
        assert!(plan.severed(SimTime(250), NodeId(1), NodeId(2)));
        assert!(plan.crashed(SimTime(250), NodeId(1)));
        // Partition healed, crash persists.
        assert!(!plan.severed(SimTime(350), NodeId(1), NodeId(2)));
        assert!(plan.crashed(SimTime(350), NodeId(1)));
        // Both over.
        assert!(!plan.crashed(SimTime(400), NodeId(1)));
        assert!(!plan.severed(SimTime(400), NodeId(1), NodeId(2)));
    }

    #[test]
    fn jitter_is_bounded_and_varies() {
        let plan = FaultPlan {
            jitter: SimDuration::from_millis(2),
            ..FaultPlan::default()
        };
        let draws = FaultDraws::new(9);
        let mut distinct = std::collections::HashSet::new();
        for seq in 0..50 {
            let j = plan.jitter_for(&draws, NodeId(0), NodeId(1), seq);
            assert!(j <= SimDuration::from_millis(2));
            distinct.insert(j);
        }
        assert!(distinct.len() > 10, "jitter should not be constant");
    }

    #[test]
    fn jitter_spans_exactly_zero_to_its_bound() {
        // A 100 µs bound: 101 values, so 10^5 draws reach both ends.
        let plan = FaultPlan {
            jitter: SimDuration::from_micros(100),
            ..FaultPlan::default()
        };
        let draws = FaultDraws::new(4242);
        let (mut lowest, mut highest) = (u64::MAX, 0);
        for seq in 0..100_000u64 {
            let (from, to) = (NodeId((seq % 16) as u32), NodeId((seq / 16 % 16) as u32));
            let j = plan.jitter_for(&draws, from, to, seq).as_micros();
            lowest = lowest.min(j);
            highest = highest.max(j);
        }
        assert_eq!((lowest, highest), (0, 100));
    }
}
