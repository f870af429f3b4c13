//! The discrete-event simulated network.
//!
//! A [`SimNetwork`] holds a virtual clock and a priority queue of in-flight
//! messages. Protocol code sends messages (which are assigned a delivery time by
//! the latency model and charged to the metrics sink) and then repeatedly calls
//! [`SimNetwork::deliver_next`] to pump the queue; every delivery advances the
//! clock to the message's arrival time. The pattern for a phase driver is:
//!
//! ```
//! use cycledger_net::network::SimNetwork;
//! use cycledger_net::latency::{LatencyConfig, LinkClass};
//! use cycledger_net::metrics::Phase;
//! use cycledger_net::topology::NodeId;
//!
//! let mut net: SimNetwork<&'static str> = SimNetwork::new(LatencyConfig::default(), 1);
//! net.set_phase(Phase::IntraCommitteeConsensus);
//! net.send(NodeId(0), NodeId(1), LinkClass::IntraCommittee, "PROPOSE", 64);
//! while let Some(env) = net.deliver_next() {
//!     // react to env, possibly calling net.send(...) again
//!     assert_eq!(env.payload, "PROPOSE");
//! }
//! ```
//!
//! # Message-driven drivers: timeouts and the drain loop
//!
//! Drivers whose control flow depends on *when* messages arrive (quorum
//! collection under partitions, the `2Γ` forwarding timeout) use the event
//! interface instead: [`SimNetwork::schedule_timer`] arms a virtual-time
//! deadline and [`SimNetwork::next_event`] interleaves deliveries and timer
//! firings in virtual-time order. Deadlines are *inclusive*: a message
//! scheduled for the same instant as a timer is delivered first, so "arrived
//! by the deadline" means `delivered_at <= deadline`. A driver drains the
//! network to quiescence with `while let Some(event) = net.next_event()`;
//! the loop terminates because every event either delivers or fires exactly
//! once and sends only schedule future events while the clock advances.
//!
//! Network faults (partitions with heal times, targeted delay, loss — see
//! [`crate::faults::FaultPlan`]) are applied at send time by
//! [`SimNetwork::with_faults`] networks; dropped traffic is counted per
//! category ([`SimNetwork::drop_counts`]) and never charged to the metrics
//! sink.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cycledger_crypto::opcount::{count, Op};

use crate::faults::{FaultDraws, FaultPlan};
use crate::latency::{LatencyConfig, LatencySampler, LinkClass};
use crate::metrics::{MetricsSink, Phase};
use crate::time::{SimDuration, SimTime};
use crate::topology::NodeId;

/// A message in flight or delivered.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Application payload.
    pub payload: M,
    /// Wire size charged to the metrics sink.
    pub bytes: u64,
    /// Time the message was sent.
    pub sent_at: SimTime,
    /// Time the message is (or was) delivered.
    pub delivered_at: SimTime,
    /// Phase under which the message was accounted.
    pub phase: Phase,
}

struct Scheduled<M> {
    deliver_at: SimTime,
    seq: u64,
    envelope: Envelope<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

/// An event surfaced by [`SimNetwork::next_event`]: either a delivered
/// message or a fired virtual-time timer.
#[derive(Clone, Debug)]
pub enum NetEvent<M> {
    /// A message reached its destination.
    Message(Envelope<M>),
    /// A timer armed with [`SimNetwork::schedule_timer`] fired.
    Timer {
        /// The caller-chosen key identifying the timer.
        key: u64,
        /// The virtual time it was armed for.
        at: SimTime,
    },
}

/// Per-category counts of messages the network refused to carry. Dropped
/// traffic is never charged to the metrics sink, so
/// `sends == deliveries + total()` reconciles exactly (pinned by the
/// metrics-audit tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DropCounts {
    /// The sender or receiver was crash-stopped at send time (see
    /// [`crate::faults::CrashStop`]).
    pub crashed: u64,
    /// An active partition severed the link at send time.
    pub partitioned: u64,
    /// Deterministic loss (baseline rate or an active burst).
    pub lossy: u64,
}

impl DropCounts {
    /// Total messages dropped across all categories.
    pub fn total(&self) -> u64 {
        self.crashed + self.partitioned + self.lossy
    }
}

/// The simulated network: clock, in-flight queue, latency model, fault plan,
/// timers, metrics.
pub struct SimNetwork<M> {
    now: SimTime,
    queue: BinaryHeap<Reverse<Scheduled<M>>>,
    seq: u64,
    sampler: LatencySampler,
    metrics: MetricsSink,
    phase: Phase,
    plan: FaultPlan,
    fault_draws: FaultDraws,
    drops: DropCounts,
    /// Send *attempts*, advanced whether or not the message is admitted.
    /// Drop/jitter sampling keys on this — keying on the admitted-send
    /// counter would freeze the sample after a drop, turning a loss *rate*
    /// into a permanently failed link (regression-tested).
    attempts: u64,
    /// Armed timers as `(fire_at, arm_seq, key)`; `arm_seq` breaks ties so
    /// equal deadlines fire in arming order.
    timers: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    timer_seq: u64,
}

impl<M> SimNetwork<M> {
    /// Creates a network with the given latency configuration and seed (and
    /// no fault plan).
    pub fn new(config: LatencyConfig, seed: u64) -> Self {
        Self::with_faults(config, seed, FaultPlan::default())
    }

    /// Creates a network whose traffic is perturbed by `plan`. A network
    /// built with [`FaultPlan::default`] behaves exactly like one from
    /// [`SimNetwork::new`].
    ///
    /// `seed` keys the latency, loss and jitter draws here, one SHA-256
    /// compression each; every later decision about a message is one more.
    pub fn with_faults(config: LatencyConfig, seed: u64, plan: FaultPlan) -> Self {
        SimNetwork {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            sampler: LatencySampler::new(config, seed),
            metrics: MetricsSink::new(),
            phase: Phase::CommitteeConfiguration,
            plan,
            fault_draws: FaultDraws::new(seed),
            drops: DropCounts::default(),
            attempts: 0,
            timers: BinaryHeap::new(),
            timer_seq: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sets the phase label under which subsequent traffic is accounted.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// The currently active phase label.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Total messages dropped by the network (crashes, partitions and
    /// deterministic loss combined; see [`SimNetwork::drop_counts`] for
    /// the per-category split).
    pub fn dropped_messages(&self) -> u64 {
        self.drops.total()
    }

    /// Per-category counts of messages the network refused to carry.
    pub fn drop_counts(&self) -> DropCounts {
        self.drops
    }

    /// Applies the fault plan to a prospective send. `Some(extra)` means the
    /// message goes through with `extra` additional delay; `None` means it
    /// was dropped (and the category counter incremented). Samples key on
    /// the attempt counter, which advances for dropped sends too.
    fn admit(&mut self, from: NodeId, to: NodeId) -> Option<SimDuration> {
        let attempt = self.attempts;
        self.attempts += 1;
        if self.plan.is_empty() {
            return Some(SimDuration::ZERO);
        }
        // Crash-stop is checked before partitions: a crashed node is down
        // regardless of where a partition boundary runs, so an overlap counts
        // as `crashed` (pinned by the overlap test below).
        if self.plan.crashed(self.now, from) || self.plan.crashed(self.now, to) {
            self.drops.crashed += 1;
            return None;
        }
        if self.plan.severed(self.now, from, to) {
            self.drops.partitioned += 1;
            return None;
        }
        if self
            .plan
            .drops(&self.fault_draws, self.now, from, to, attempt)
        {
            self.drops.lossy += 1;
            return None;
        }
        let jitter = self.plan.jitter_for(&self.fault_draws, from, to, attempt);
        Some(self.plan.extra_delay(from, to).plus(jitter))
    }

    /// Sends a message; its delivery time is drawn from the latency model
    /// (plus any fault-plan delay). Returns the scheduled delivery time, or
    /// `None` if the message was dropped (crashed endpoint, active partition,
    /// or sampled loss).
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: LinkClass,
        payload: M,
        bytes: u64,
    ) -> Option<SimTime> {
        self.send_after(from, to, class, payload, bytes, SimDuration::ZERO)
    }

    /// Sends a message with an explicit extra delay on top of the sampled
    /// latency — used to model nodes that deliberately wait (e.g. the partial
    /// set's `2Γ` framing timeout of Lemma 7).
    pub fn send_after(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: LinkClass,
        payload: M,
        bytes: u64,
        extra_delay: SimDuration,
    ) -> Option<SimTime> {
        let fault_delay = self.admit(from, to)?;
        let delay = self
            .sampler
            .sample(class, from, to, self.seq)
            .plus(extra_delay)
            .plus(fault_delay);
        Some(self.enqueue(from, to, payload, bytes, delay))
    }

    fn enqueue(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: M,
        bytes: u64,
        delay: SimDuration,
    ) -> SimTime {
        let deliver_at = self.now.after(delay);
        count(Op::EnvelopeSent);
        self.metrics.record_message(self.phase, from, to, bytes);
        let envelope = Envelope {
            from,
            to,
            payload,
            bytes,
            sent_at: self.now,
            delivered_at: deliver_at,
            phase: self.phase,
        };
        self.queue.push(Reverse(Scheduled {
            deliver_at,
            seq: self.seq,
            envelope,
        }));
        self.seq += 1;
        deliver_at
    }

    /// Delivers the next in-flight message, advancing the clock to its delivery
    /// time. Returns `None` when the queue is empty.
    ///
    /// The clock is monotone: if the caller already advanced past a pending
    /// message's scheduled time (via [`SimNetwork::advance_to`]), the message
    /// is delivered *now* rather than moving time backwards — its
    /// `delivered_at` reflects the effective (clamped) delivery instant.
    pub fn deliver_next(&mut self) -> Option<Envelope<M>> {
        let Reverse(mut scheduled) = self.queue.pop()?;
        self.now = self.now.max(scheduled.deliver_at);
        scheduled.envelope.delivered_at = self.now;
        Some(scheduled.envelope)
    }

    /// Arms a virtual-time timer to fire `after` from now, returning the
    /// deadline. `key` is handed back in the [`NetEvent::Timer`] so a driver
    /// can arm several timers and tell them apart.
    pub fn schedule_timer(&mut self, after: SimDuration, key: u64) -> SimTime {
        let at = self.now.after(after);
        self.timers.push(Reverse((at, self.timer_seq, key)));
        self.timer_seq += 1;
        at
    }

    /// Number of armed timers that have not fired yet.
    pub fn pending_timers(&self) -> usize {
        self.timers.len()
    }

    /// Delivers the next event — message arrival or timer firing — in
    /// virtual-time order, advancing the clock. Returns `None` when both the
    /// message queue and the timer queue are empty (quiescence).
    ///
    /// Deadlines are inclusive: when a message and a timer fall on the same
    /// instant the message is delivered first, so a driver that tallies on
    /// `Timer` has seen everything that arrived *by* the deadline. The
    /// tie-break is [`crate::time::message_beats_timer`]; `cycledger-checker`'s
    /// scheduler takes the same side of it.
    pub fn next_event(&mut self) -> Option<NetEvent<M>> {
        let msg_at = self.queue.peek().map(|Reverse(s)| s.deliver_at);
        let timer_at = self.timers.peek().map(|Reverse((at, _, _))| *at);
        match (msg_at, timer_at) {
            (None, None) => None,
            (Some(_), None) => self.deliver_next().map(NetEvent::Message),
            (Some(m), Some(t)) if crate::time::message_beats_timer(m, t) => {
                self.deliver_next().map(NetEvent::Message)
            }
            _ => {
                let Reverse((at, _, key)) = self.timers.pop()?;
                self.now = self.now.max(at);
                Some(NetEvent::Timer { key, at })
            }
        }
    }

    /// Number of messages still in flight.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Advances the clock without delivering anything (models idle waiting up to
    /// a protocol-defined offset such as "start phase two after 8Δ").
    ///
    /// Time never moves backwards: a target in the past saturates to the
    /// current clock. Historically the saturation stopped here — a
    /// subsequent [`SimNetwork::deliver_next`] of a message scheduled
    /// *before* the advanced-to instant would silently rewind `now`; the
    /// delivery path now clamps too, so the clock is monotone through any
    /// interleaving of advances and deliveries.
    pub fn advance_to(&mut self, time: SimTime) {
        if time > self.now {
            self.now = time;
        }
    }

    /// Records protocol storage against the current phase.
    pub fn record_storage(&mut self, node: NodeId, bytes: u64) {
        self.metrics.record_storage(self.phase, node, bytes);
    }

    /// Accounts a message in the metrics sink *without* scheduling a delivery.
    ///
    /// Only for legs no control flow depends on — the certificate content a
    /// leader announces beside a certified root (the inter-committee phase's
    /// one use; block propagation and score forwards charge their sink the
    /// same way): the bytes and message counts matter for Table II, but
    /// nobody waits on the delivery, so pumping them through the event queue
    /// would add nothing. Any leg a timeout, a tally or a quorum waits on
    /// (TXList and votes, accusations and impeachment votes, cross-shard
    /// forwards and replies) is a real envelope (`send`), so a fault plan can
    /// hit it and Table II's rows count what was sent.
    pub fn account_message(&mut self, from: NodeId, to: NodeId, bytes: u64) {
        self.metrics.record_message(self.phase, from, to, bytes);
    }

    /// Read access to the metrics sink.
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// Consumes the network and returns its metrics.
    pub fn into_metrics(self) -> MetricsSink {
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> SimNetwork<u32> {
        SimNetwork::new(LatencyConfig::default(), 99)
    }

    #[test]
    fn delivery_advances_clock_in_order() {
        let mut net = net();
        for i in 0..20u32 {
            net.send(NodeId(0), NodeId(1), LinkClass::IntraCommittee, i, 16);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some(env) = net.deliver_next() {
            assert!(env.delivered_at >= last, "deliveries must be time ordered");
            assert_eq!(env.delivered_at, net.now());
            last = env.delivered_at;
            count += 1;
        }
        assert_eq!(count, 20);
        assert_eq!(net.pending(), 0);
    }

    #[test]
    fn latency_respects_class_bound() {
        let mut net = net();
        net.send(NodeId(0), NodeId(1), LinkClass::IntraCommittee, 1, 8);
        let env = net.deliver_next().unwrap();
        let delay = env.delivered_at.since(env.sent_at);
        assert!(delay <= LatencyConfig::default().delta);
    }

    #[test]
    fn send_after_adds_extra_delay() {
        let mut net = net();
        let extra = SimDuration::from_millis(500);
        net.send_after(NodeId(0), NodeId(1), LinkClass::IntraCommittee, 1, 8, extra);
        let env = net.deliver_next().unwrap();
        assert!(env.delivered_at.since(env.sent_at) >= extra);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let mut net = net();
        net.advance_to(SimTime(5_000));
        assert_eq!(net.now(), SimTime(5_000));
        net.advance_to(SimTime(1_000));
        assert_eq!(net.now(), SimTime(5_000));
    }

    #[test]
    fn clock_stays_monotone_when_advancing_past_pending_deliveries() {
        // Regression: `advance_to` saturated, but a later `deliver_next` of a
        // message scheduled before the advanced-to instant rewound the clock.
        let mut net = net();
        let scheduled = net
            .send(NodeId(0), NodeId(1), LinkClass::IntraCommittee, 1, 8)
            .unwrap();
        let far = SimTime(scheduled.as_micros() + 1_000_000);
        net.advance_to(far);
        let env = net.deliver_next().expect("message still pending");
        assert_eq!(net.now(), far, "delivery must not move time backwards");
        assert_eq!(
            env.delivered_at, far,
            "effective delivery instant is the clamped clock"
        );
    }

    #[test]
    fn timers_interleave_with_messages_in_virtual_time_order() {
        let mut net = net();
        // delta = 50ms, so the message lands in (12.5ms, 50ms].
        net.send(NodeId(0), NodeId(1), LinkClass::IntraCommittee, 7, 8);
        net.schedule_timer(SimDuration::from_millis(200), 42);
        net.schedule_timer(SimDuration::from_millis(60), 43);
        assert_eq!(net.pending_timers(), 2);
        let mut order = Vec::new();
        while let Some(event) = net.next_event() {
            match event {
                NetEvent::Message(env) => order.push(format!("msg:{}", env.payload)),
                NetEvent::Timer { key, at } => {
                    assert_eq!(net.now(), at);
                    order.push(format!("timer:{key}"));
                }
            }
        }
        assert_eq!(order, ["msg:7", "timer:43", "timer:42"]);
        assert_eq!(net.pending_timers(), 0);
    }

    #[test]
    fn message_at_deadline_instant_is_delivered_before_the_timer() {
        // Deadlines are inclusive: arm a timer, then craft a message landing
        // exactly on it by scheduling with an explicit extra delay.
        let mut net: SimNetwork<u32> = SimNetwork::new(
            LatencyConfig {
                delta: SimDuration::from_micros(1),
                gamma: SimDuration::from_micros(2),
                partial_bound: SimDuration::from_micros(3),
            },
            1,
        );
        // With delta=1µs the sampled delay is exactly 1µs (see latency tests).
        let deadline = net.schedule_timer(SimDuration::from_micros(1), 9);
        let arrival = net
            .send(NodeId(0), NodeId(1), LinkClass::IntraCommittee, 5, 8)
            .unwrap();
        assert_eq!(arrival, deadline);
        assert!(matches!(net.next_event(), Some(NetEvent::Message(_))));
        assert!(matches!(
            net.next_event(),
            Some(NetEvent::Timer { key: 9, .. })
        ));
    }

    #[test]
    fn partition_drops_boundary_traffic_and_heals() {
        use crate::faults::Partition;
        let plan = FaultPlan {
            partitions: vec![Partition {
                group: vec![NodeId(1)],
                from: SimTime::ZERO,
                until: Some(SimTime(100_000)),
            }],
            ..FaultPlan::default()
        };
        let mut net: SimNetwork<u32> = SimNetwork::with_faults(LatencyConfig::default(), 3, plan);
        // Severed while the partition is active, both directions.
        assert!(net
            .send(NodeId(1), NodeId(2), LinkClass::IntraCommittee, 1, 8)
            .is_none());
        assert!(net
            .send(NodeId(2), NodeId(1), LinkClass::IntraCommittee, 1, 8)
            .is_none());
        // Unrelated traffic flows.
        assert!(net
            .send(NodeId(2), NodeId(3), LinkClass::IntraCommittee, 1, 8)
            .is_some());
        assert_eq!(net.drop_counts().partitioned, 2);
        // After the heal instant the link works again.
        net.advance_to(SimTime(100_000));
        assert!(net
            .send(NodeId(1), NodeId(2), LinkClass::IntraCommittee, 1, 8)
            .is_some());
        assert_eq!(net.drop_counts().partitioned, 2);
        assert_eq!(net.dropped_messages(), 2);
    }

    #[test]
    fn crash_stop_cuts_both_directions_until_restart() {
        let plan = FaultPlan::default().with_crash(NodeId(4), SimTime(10), Some(SimTime(100_000)));
        let mut net: SimNetwork<u32> = SimNetwork::with_faults(LatencyConfig::default(), 6, plan);
        // Before the crash instant the node is fine.
        assert!(net
            .send(NodeId(4), NodeId(1), LinkClass::IntraCommittee, 1, 8)
            .is_some());
        net.advance_to(SimTime(10));
        // Down: outgoing and incoming both drop, counted as `crashed`.
        assert!(net
            .send(NodeId(4), NodeId(1), LinkClass::IntraCommittee, 1, 8)
            .is_none());
        assert!(net
            .send(NodeId(1), NodeId(4), LinkClass::IntraCommittee, 1, 8)
            .is_none());
        // Traffic not touching the crashed node flows.
        assert!(net
            .send(NodeId(1), NodeId(2), LinkClass::IntraCommittee, 1, 8)
            .is_some());
        assert_eq!(net.drop_counts().crashed, 2);
        // After restart the node serves again.
        net.advance_to(SimTime(100_000));
        assert!(net
            .send(NodeId(1), NodeId(4), LinkClass::IntraCommittee, 1, 8)
            .is_some());
        assert_eq!(net.drop_counts().crashed, 2);
        assert_eq!(net.dropped_messages(), 2);
    }

    #[test]
    fn crash_overlapping_partition_counts_as_crashed() {
        // Node 5 is both inside an active partition and crash-stopped: the
        // crash wins the category (checked first in `admit`), and once the
        // crash window ends the partition keeps the link severed.
        let plan = FaultPlan::default()
            .with_partition(vec![NodeId(5)], SimTime::ZERO, None)
            .with_crash(NodeId(5), SimTime::ZERO, Some(SimTime(50_000)));
        let mut net: SimNetwork<u32> = SimNetwork::with_faults(LatencyConfig::default(), 8, plan);
        assert!(net
            .send(NodeId(5), NodeId(1), LinkClass::IntraCommittee, 1, 8)
            .is_none());
        assert_eq!(net.drop_counts().crashed, 1);
        assert_eq!(net.drop_counts().partitioned, 0);
        net.advance_to(SimTime(50_000));
        assert!(net
            .send(NodeId(5), NodeId(1), LinkClass::IntraCommittee, 1, 8)
            .is_none());
        assert_eq!(net.drop_counts().crashed, 1);
        assert_eq!(net.drop_counts().partitioned, 1);
        assert_eq!(net.dropped_messages(), 2);
    }

    #[test]
    fn targeted_delay_pushes_messages_past_the_class_bound() {
        let extra = SimDuration::from_millis(500);
        let plan = FaultPlan::default().with_delay(NodeId(1), extra);
        let mut net: SimNetwork<u32> = SimNetwork::with_faults(LatencyConfig::default(), 4, plan);
        net.send(NodeId(1), NodeId(2), LinkClass::IntraCommittee, 1, 8);
        let env = net.deliver_next().unwrap();
        assert!(env.delivered_at.since(env.sent_at) >= extra);
        // Untargeted traffic still respects the bound.
        net.send(NodeId(3), NodeId(4), LinkClass::IntraCommittee, 1, 8);
        let env = net.deliver_next().unwrap();
        assert!(env.delivered_at.since(env.sent_at) <= LatencyConfig::default().delta);
    }

    #[test]
    fn dropped_messages_and_metrics_reconcile_exactly() {
        // The metrics-audit contract: sends = deliveries + drops, the sink
        // sees only delivered traffic, and per-category drop counters add up.
        use crate::faults::LossBurst;
        let plan = FaultPlan {
            drop_ppm: 300_000,
            partitions: vec![crate::faults::Partition {
                group: vec![NodeId(9)],
                from: SimTime::ZERO,
                until: None,
            }],
            bursts: vec![LossBurst {
                from: SimTime::ZERO,
                until: SimTime(1),
                drop_ppm: 0,
            }],
            ..FaultPlan::default()
        }
        .with_crash(NodeId(8), SimTime::ZERO, None);
        let mut net: SimNetwork<u32> = SimNetwork::with_faults(LatencyConfig::default(), 7, plan);
        net.set_phase(Phase::IntraCommitteeConsensus);
        let mut attempted = 0u64;
        let mut admitted = 0u64;
        for seq in 0..200u32 {
            let (from, to) = match seq % 4 {
                0 => (NodeId(8), NodeId(1)), // crashed sender
                1 => (NodeId(9), NodeId(1)), // partitioned sender
                2 => (NodeId(1), NodeId(9)), // partitioned receiver
                _ => (NodeId(1), NodeId(2)), // lossy but otherwise healthy
            };
            attempted += 1;
            if net
                .send(from, to, LinkClass::IntraCommittee, seq, 10)
                .is_some()
            {
                admitted += 1;
            }
        }
        let drops = net.drop_counts();
        assert_eq!(drops.crashed, 50);
        assert_eq!(drops.partitioned, 100);
        assert!(drops.lossy > 0, "30% loss over 50 sends must drop some");
        assert_eq!(attempted, admitted + drops.total());
        assert_eq!(net.dropped_messages(), drops.total());
        // Only admitted messages were charged, symmetrically.
        let sink = net.metrics();
        let total_sent: u64 = [1, 2, 8, 9]
            .map(|n| sink.node_phase(NodeId(n), Phase::IntraCommitteeConsensus))
            .iter()
            .map(|c| c.msgs_sent)
            .sum();
        let total_received: u64 = [1, 2, 8, 9]
            .map(|n| sink.node_phase(NodeId(n), Phase::IntraCommitteeConsensus))
            .iter()
            .map(|c| c.msgs_received)
            .sum();
        assert_eq!(total_sent, admitted);
        assert_eq!(total_received, admitted);
        let bytes_sent: u64 = [1, 2, 8, 9]
            .map(|n| sink.node_phase(NodeId(n), Phase::IntraCommitteeConsensus))
            .iter()
            .map(|c| c.bytes_sent)
            .sum();
        assert_eq!(bytes_sent, admitted * 10);
        // Every admitted message is eventually delivered.
        let mut delivered = 0u64;
        while net.deliver_next().is_some() {
            delivered += 1;
        }
        assert_eq!(delivered, admitted);
    }

    #[test]
    fn loss_rate_approximates_the_configured_ppm_on_a_single_link() {
        // Regression: drop sampling used to key on the admitted-send
        // counter, which does not advance on a drop — so the first sampled
        // drop on a link repeated forever and a 10% loss rate behaved like a
        // dead link. Keying on the attempt counter restores the rate.
        let plan = FaultPlan {
            drop_ppm: 100_000, // 10%
            ..FaultPlan::default()
        };
        let mut net: SimNetwork<u32> = SimNetwork::with_faults(LatencyConfig::default(), 13, plan);
        let mut dropped = 0u64;
        for i in 0..1_000u32 {
            if net
                .send(NodeId(0), NodeId(1), LinkClass::IntraCommittee, i, 8)
                .is_none()
            {
                dropped += 1;
            }
        }
        assert!(
            (50..=200).contains(&dropped),
            "10% loss over 1000 sends on one link should drop ~100, got {dropped}"
        );
    }

    #[test]
    fn a_two_percent_plan_drops_two_percent_of_a_million_sends() {
        let plan = FaultPlan {
            drop_ppm: 20_000,
            ..FaultPlan::default()
        };
        let mut net: SimNetwork<u32> =
            SimNetwork::with_faults(LatencyConfig::default(), 4242, plan);
        let mut dropped = 0u64;
        for batch in 0..1_000u32 {
            for i in 0..1_000u32 {
                let (from, to) = (NodeId(i % 64), NodeId((i + 1 + batch) % 64));
                dropped += u64::from(
                    net.send(from, to, LinkClass::IntraCommittee, i, 8)
                        .is_none(),
                );
            }
            while net.deliver_next().is_some() {}
        }
        assert_eq!(net.drop_counts().lossy, dropped);
        assert!(
            (18_000..=22_000).contains(&dropped),
            "2% of 10^6 is 20 000, got {dropped}"
        );
    }

    #[test]
    fn jitter_reorders_but_preserves_the_message_set() {
        let run = |jitter_ms: u64| -> Vec<u32> {
            let plan = FaultPlan {
                jitter: SimDuration::from_millis(jitter_ms),
                ..FaultPlan::default()
            };
            let mut net: SimNetwork<u32> =
                SimNetwork::with_faults(LatencyConfig::default(), 11, plan);
            for i in 0..32u32 {
                net.send(NodeId(0), NodeId(1), LinkClass::IntraCommittee, i, 8);
            }
            let mut order = Vec::new();
            while let Some(env) = net.deliver_next() {
                order.push(env.payload);
            }
            order
        };
        let clean = run(0);
        let jittered = run(400);
        assert_ne!(clean, jittered, "jitter must be able to reorder delivery");
        let sorted = |mut v: Vec<u32>| {
            v.sort_unstable();
            v
        };
        assert_eq!(
            sorted(clean),
            sorted(jittered),
            "no message lost or duplicated"
        );
    }

    #[test]
    fn phase_label_is_attached_to_messages() {
        let mut net = net();
        net.set_phase(Phase::Recovery);
        assert_eq!(net.phase(), Phase::Recovery);
        net.send(NodeId(0), NodeId(1), LinkClass::KeyMemberMesh, 1, 32);
        let env = net.deliver_next().unwrap();
        assert_eq!(env.phase, Phase::Recovery);
        assert_eq!(
            net.metrics()
                .node_phase(NodeId(0), Phase::Recovery)
                .msgs_sent,
            1
        );
    }

    #[test]
    fn storage_recording_goes_to_current_phase() {
        let mut net = net();
        net.set_phase(Phase::BlockGeneration);
        net.record_storage(NodeId(4), 1234);
        assert_eq!(
            net.metrics()
                .node_phase(NodeId(4), Phase::BlockGeneration)
                .storage_bytes,
            1234
        );
        let metrics = net.into_metrics();
        assert_eq!(metrics.entry_count(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut net: SimNetwork<u32> = SimNetwork::new(LatencyConfig::default(), seed);
            let mut times = Vec::new();
            for i in 0..10 {
                net.send(NodeId(0), NodeId(1), LinkClass::KeyMemberMesh, i, 8);
            }
            while let Some(env) = net.deliver_next() {
                times.push((env.payload, env.delivered_at));
            }
            times
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
