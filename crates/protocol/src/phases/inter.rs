//! Phase 4 — inter-committee consensus (§IV-D, Lemmas 6 & 7): what the phase
//! reports. The phase itself is `phases/xshard.rs`.
//!
//! Each input committee voted on its outbound transactions in its intra vote
//! (phase 3), against the shard that owns their inputs, and its intra
//! instance certified what that vote accepted as the leaves of its vector
//! (leaf 0 its `V List`). So the phase runs no vote and no Algorithm 3
//! instance: the input committee forwards every accepted list, with a Merkle
//! proof and that one certificate, to the destination's leader and partial
//! set, and the destination admits it against the certificate. Forwards
//! travel the key-member mesh under a [`list_deadline`]; a destination's
//! partial set relays a list its leader is still missing at `2Γ`, and a
//! forward that misses the deadline anyway defers that pair's transactions
//! to a later round.
//!
//! Two leader attacks are modelled: a **censoring** input-committee leader
//! withholds the certified lists, and after the `2Γ` timeout an honest member
//! of its partial set forwards them instead (Lemma 6) and raises an
//! impeachment; framing is impossible because the destination's partial set
//! also watches its own leader for `2Γ` (Lemma 7) — only the input leader is
//! ever reported, and only when it really withheld.

use cycledger_consensus::impeach::Accusation;
use cycledger_ledger::transaction::Transaction;
use cycledger_net::latency::LatencyConfig;
use cycledger_net::time::SimDuration;
use cycledger_net::topology::NodeId;

/// The destination leader's deadline for a forwarded cross-shard list:
/// `4Γ`. Honest forwards arrive within `Γ`; the Lemma 6 takeover (an honest
/// partial-set member forwarding after the `2Γ` censorship timeout) within
/// `3Γ`; a relay by the destination's own partial set at `2Γ` within
/// `2Γ + Δ` — so only genuine network faults miss this deadline.
pub fn list_deadline(latency: &LatencyConfig) -> SimDuration {
    latency.gamma.times(4)
}

/// A leader liveness complaint raised by a partial-set member after the `2Γ`
/// timeout (censored cross-shard traffic). Unlike signed witnesses, this is an
/// omission fault: eviction goes through the committee impeachment vote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CensorshipReport {
    /// Committee whose leader withheld traffic.
    pub committee: usize,
    /// The accused leader.
    pub leader: NodeId,
    /// The honest partial-set member that took over forwarding.
    pub reporter: NodeId,
    /// Number of transactions that were withheld, across all destinations.
    pub withheld: usize,
}

impl CensorshipReport {
    /// The timeout accusation the reporter raises: the committee observed
    /// the omission itself.
    pub fn accusation(&self) -> Accusation {
        Accusation::Timeout {
            leader: self.leader,
            committee: self.committee,
            observed_by_committee: true,
        }
    }
}

/// Outcome of the inter-committee consensus phase.
#[derive(Clone, Debug, Default)]
pub struct InterOutcome {
    /// Cross-shard transactions the input committee accepted and the
    /// destination admitted, per input committee.
    pub accepted: Vec<Vec<Transaction>>,
    /// Censorship reports, one per censoring leader.
    pub censorship_reports: Vec<CensorshipReport>,
    /// Extra latency incurred by `2Γ` timeouts (microseconds of simulated time).
    pub timeout_delays: u64,
}
