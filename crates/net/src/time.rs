//! Simulated time.
//!
//! The paper's network model (§III-B) is parameterised by two delay bounds:
//! `Δ` for synchronous intra-committee links and `Γ` for the synchronous mesh
//! between leaders and partial-set members, plus partially-synchronous links for
//! everything else. A deterministic discrete-event clock lets us reason about
//! recommended phase offsets ("the recommended delay is 8Δ") and the 2Γ framing
//! timeout of Lemma 7 exactly.

/// A point in simulated time, in microseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Adds a duration.
    pub fn after(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Duration elapsed since `earlier` (saturating at zero).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Microsecond value.
    pub fn as_micros(self) -> u64 {
        self.0
    }
}

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000)
    }

    /// Microsecond value.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Multiplies by an integer factor (used for offsets like `8Δ` and `2Γ`).
    pub fn times(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Adds two durations.
    pub fn plus(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

/// An inclusive virtual-time deadline.
///
/// Every deadline in the simulator shares one boundary rule: an event that
/// occurs *exactly at* the deadline still makes it. [`SimNetwork::next_event`]
/// delivers a message timestamped at the timer's instant before firing the
/// timer, and the driven vote collectors accept a vote arriving at the
/// deadline instant. This type is that rule, spelled once.
///
/// [`SimNetwork::next_event`]: https://docs.rs/cycledger-net
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Deadline(SimTime);

impl Deadline {
    /// A deadline at an absolute instant.
    pub fn at(t: SimTime) -> Deadline {
        Deadline(t)
    }

    /// A deadline `d` after `now`.
    pub fn after(now: SimTime, d: SimDuration) -> Deadline {
        Deadline(now.after(d))
    }

    /// The instant the deadline sits at.
    pub fn instant(self) -> SimTime {
        self.0
    }

    /// True if an event at `t` beats the deadline — **inclusive**: an event
    /// exactly at the deadline is still in time.
    pub fn includes(self, t: SimTime) -> bool {
        t <= self.0
    }

    /// True if the deadline has strictly passed at `t` (the complement of
    /// [`includes`](Self::includes)).
    pub fn expired(self, t: SimTime) -> bool {
        t > self.0
    }
}

/// The event-queue tie-break rule, spelled once: a message timestamped at or
/// before a timer's instant is delivered before that timer fires. This is the
/// queue-side twin of [`Deadline::includes`] — together they make every
/// deadline in the simulator inclusive (a vote arriving *exactly at* `4Δ`
/// still counts toward quorum). `cycledger-checker`'s scheduler takes the
/// same side of the tie: a delivery it enables beside the vote deadline is
/// handed to the collector *at* the deadline instant.
pub const fn message_beats_timer(message_at: SimTime, timer_at: SimTime) -> bool {
    message_at.0 <= timer_at.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO.after(SimDuration::from_millis(5));
        assert_eq!(t.as_micros(), 5_000);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_millis(5));
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros(3).times(8).as_micros(), 24);
        assert_eq!(
            SimDuration::from_millis(1)
                .plus(SimDuration::from_micros(500))
                .as_micros(),
            1_500
        );
    }

    #[test]
    fn ordering() {
        assert!(SimTime(3) < SimTime(4));
        assert!(SimDuration::from_millis(2) > SimDuration::from_micros(1999));
    }

    #[test]
    fn saturating_behaviour() {
        let t = SimTime(u64::MAX);
        assert_eq!(t.after(SimDuration(10)).0, u64::MAX);
        assert_eq!(SimDuration(u64::MAX).times(2).0, u64::MAX);
    }

    #[test]
    fn deadline_is_inclusive_at_the_boundary() {
        let deadline = Deadline::after(SimTime(100), SimDuration::from_micros(50));
        assert_eq!(deadline.instant(), SimTime(150));
        // Strictly before: in time.
        assert!(deadline.includes(SimTime(149)));
        // Exactly at the deadline: still in time — this is the boundary rule
        // every collector and `next_event` tie-break share.
        assert!(deadline.includes(SimTime(150)));
        assert!(!deadline.expired(SimTime(150)));
        // One microsecond past: expired.
        assert!(!deadline.includes(SimTime(151)));
        assert!(deadline.expired(SimTime(151)));
    }

    #[test]
    fn deadline_at_absolute_instant() {
        let deadline = Deadline::at(SimTime(7));
        assert!(deadline.includes(SimTime::ZERO));
        assert!(deadline.includes(SimTime(7)));
        assert!(deadline.expired(SimTime(8)));
    }

    #[test]
    fn deadline_saturates_like_simtime() {
        let deadline = Deadline::after(SimTime(u64::MAX), SimDuration(10));
        assert_eq!(deadline.instant(), SimTime(u64::MAX));
        assert!(deadline.includes(SimTime(u64::MAX)));
    }

    #[test]
    fn message_beats_timer_is_inclusive_on_the_tie() {
        // Strictly earlier message: delivered first, obviously.
        assert!(message_beats_timer(SimTime(99), SimTime(100)));
        // Exactly at the timer instant: the message still wins the tie —
        // this is what makes every deadline in the simulator inclusive.
        assert!(message_beats_timer(SimTime(100), SimTime(100)));
        // One tick past: the timer fires first.
        assert!(!message_beats_timer(SimTime(101), SimTime(100)));
    }

    #[test]
    fn tie_break_agrees_with_deadline_inclusion_everywhere() {
        // The two halves of the boundary rule can never disagree: a message
        // ordered before a deadline's timer is exactly a message the deadline
        // includes.
        let deadline = Deadline::at(SimTime(50));
        for t in 0..=100u64 {
            assert_eq!(
                message_beats_timer(SimTime(t), deadline.instant()),
                deadline.includes(SimTime(t)),
                "divergence at t={t}"
            );
        }
    }
}
