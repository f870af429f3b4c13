//! Message, byte and storage accounting.
//!
//! Table II of the paper reports per-phase, per-role communication and storage
//! complexity. The simulator measures these directly: every message sent through
//! [`crate::network::SimNetwork`] is charged to its sender and receiver under the
//! currently active phase label, and protocol code reports storage via
//! [`MetricsSink::record_storage`].

use cycledger_crypto::fxhash::{FxBuildHasher, FxHashMap};
use cycledger_crypto::point::Point;

use crate::topology::NodeId;

/// Wire size in bytes of a canonically encoded set of group elements (e.g.
/// the PVSS commitment vector a dealer broadcasts, or the sortition gamma
/// points in a configuration proof), as produced by the crypto layer's
/// [`cycledger_crypto::pvss::encode_point_set`]: an 8-byte length prefix plus
/// 64 affine bytes per point. The encoding is fixed-width, so the size is
/// computed arithmetically — no affine conversion or allocation just to meter
/// a message (a test pins this to the real encoder's output).
pub fn point_set_wire_bytes(points: &[Point]) -> u64 {
    8 + points.len() as u64 * 64
}

/// Protocol phases used as accounting labels (matching §IV and Table II).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Phase {
    /// Committee configuration (Alg. 1 & 2).
    CommitteeConfiguration,
    /// Semi-commitment exchanging (Alg. 4).
    SemiCommitmentExchange,
    /// Intra-committee consensus (Alg. 5).
    IntraCommitteeConsensus,
    /// Inter-committee consensus (§IV-D).
    InterCommitteeConsensus,
    /// Reputation updating (§IV-E).
    ReputationUpdate,
    /// Referee committee / leaders / partial-set selection (§IV-F).
    KeyMemberSelection,
    /// Block generation and propagation (§IV-G).
    BlockGeneration,
    /// Leader re-selection / recovery procedure (Alg. 6).
    Recovery,
}

impl Phase {
    /// All phases, in protocol order.
    pub const ALL: [Phase; 8] = [
        Phase::CommitteeConfiguration,
        Phase::SemiCommitmentExchange,
        Phase::IntraCommitteeConsensus,
        Phase::InterCommitteeConsensus,
        Phase::ReputationUpdate,
        Phase::KeyMemberSelection,
        Phase::BlockGeneration,
        Phase::Recovery,
    ];

    /// A stable small integer identifying the phase, used for canonical
    /// (sorted) serialization of metrics. Independent of declaration order
    /// tricks: this is the protocol order of [`Phase::ALL`].
    pub fn stable_id(self) -> u8 {
        match self {
            Phase::CommitteeConfiguration => 0,
            Phase::SemiCommitmentExchange => 1,
            Phase::IntraCommitteeConsensus => 2,
            Phase::InterCommitteeConsensus => 3,
            Phase::ReputationUpdate => 4,
            Phase::KeyMemberSelection => 5,
            Phase::BlockGeneration => 6,
            Phase::Recovery => 7,
        }
    }

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::CommitteeConfiguration => "Committee Configuration",
            Phase::SemiCommitmentExchange => "Semi-Commitment Exchanging",
            Phase::IntraCommitteeConsensus => "Intra-committee Consensus",
            Phase::InterCommitteeConsensus => "Inter-committee Consensus",
            Phase::ReputationUpdate => "Reputation Updating",
            Phase::KeyMemberSelection => "Key Member Selection",
            Phase::BlockGeneration => "Block Generation & Propagation",
            Phase::Recovery => "Leader Re-selection (Recovery)",
        }
    }
}

/// Per-node, per-phase counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages received.
    pub msgs_received: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Peak bytes of protocol state retained for the phase.
    pub storage_bytes: u64,
}

impl Counters {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        self.msgs_sent += other.msgs_sent;
        self.msgs_received += other.msgs_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.storage_bytes += other.storage_bytes;
    }

    /// Total communication (sent + received) in bytes.
    pub fn comm_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

/// Accumulates counters keyed by `(node, phase)`.
///
/// Keys come from the round assignment (never attacker-chosen), so the map
/// uses the fast Fx hasher; every protocol-visible read goes through the
/// sorted [`MetricsSink::canonical_entries`] path, never raw iteration order.
#[derive(Clone, Debug, Default)]
pub struct MetricsSink {
    counters: FxHashMap<(NodeId, Phase), Counters>,
}

impl MetricsSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a sink pre-sized for roughly `nodes` participants (each node
    /// typically accrues a few phase entries per round).
    pub fn with_node_capacity(nodes: usize) -> Self {
        MetricsSink {
            counters: FxHashMap::with_capacity_and_hasher(nodes * 4, FxBuildHasher::default()),
        }
    }

    fn entry(&mut self, node: NodeId, phase: Phase) -> &mut Counters {
        self.counters.entry((node, phase)).or_default()
    }

    /// Records a message of `bytes` sent from `from` to `to` during `phase`.
    pub fn record_message(&mut self, phase: Phase, from: NodeId, to: NodeId, bytes: u64) {
        let s = self.entry(from, phase);
        s.msgs_sent += 1;
        s.bytes_sent += bytes;
        let r = self.entry(to, phase);
        r.msgs_received += 1;
        r.bytes_received += bytes;
    }

    /// Records `bytes` of protocol state stored by `node` for `phase`.
    pub fn record_storage(&mut self, phase: Phase, node: NodeId, bytes: u64) {
        self.entry(node, phase).storage_bytes += bytes;
    }

    /// Counters for one `(node, phase)` pair.
    pub fn node_phase(&self, node: NodeId, phase: Phase) -> Counters {
        self.counters
            .get(&(node, phase))
            .copied()
            .unwrap_or_default()
    }

    /// Sums counters across all nodes for one phase.
    pub fn phase_total(&self, phase: Phase) -> Counters {
        let mut total = Counters::default();
        for ((_, p), c) in &self.counters {
            if *p == phase {
                total.merge(c);
            }
        }
        total
    }

    /// Aggregates per-phase counters over a set of nodes (e.g. "all leaders"),
    /// returning `(total, per-node maximum)` for that group.
    pub fn group_phase(&self, nodes: &[NodeId], phase: Phase) -> (Counters, Counters) {
        let mut total = Counters::default();
        let mut max = Counters::default();
        for &n in nodes {
            let c = self.node_phase(n, phase);
            total.merge(&c);
            max.msgs_sent = max.msgs_sent.max(c.msgs_sent);
            max.msgs_received = max.msgs_received.max(c.msgs_received);
            max.bytes_sent = max.bytes_sent.max(c.bytes_sent);
            max.bytes_received = max.bytes_received.max(c.bytes_received);
            max.storage_bytes = max.storage_bytes.max(c.storage_bytes);
        }
        (total, max)
    }

    /// Merges another sink into this one (per-committee tasks run on worker
    /// threads and their metrics are combined afterwards). Counters add, so
    /// the result does not depend on merge order.
    pub fn merge(&mut self, other: &MetricsSink) {
        for (key, c) in &other.counters {
            self.counters.entry(*key).or_default().merge(c);
        }
    }

    /// Total number of distinct `(node, phase)` entries (mostly for tests).
    pub fn entry_count(&self) -> usize {
        self.counters.len()
    }

    /// All entries in canonical `(node, phase)` order, independent of the
    /// underlying hash map's iteration order.
    pub fn canonical_entries(&self) -> Vec<((NodeId, Phase), Counters)> {
        let mut entries: Vec<((NodeId, Phase), Counters)> =
            self.counters.iter().map(|(k, c)| (*k, *c)).collect();
        entries.sort_by_key(|((node, phase), _)| (node.0, phase.stable_id()));
        entries
    }

    /// Appends a canonical byte encoding of the sink to `out`: entries sorted
    /// by `(node, phase)` with fixed-width big-endian counters. Two sinks with
    /// equal content produce identical bytes regardless of insertion order or
    /// the process's hash seed — the basis of the engine's determinism checks.
    pub fn write_canonical_bytes(&self, out: &mut Vec<u8>) {
        let entries = self.canonical_entries();
        // Fixed-width records: reserve the exact output size up front so the
        // caller's scratch buffer is extended at most once per sink.
        out.reserve(8 + entries.len() * 45);
        out.extend_from_slice(&(entries.len() as u64).to_be_bytes());
        for ((node, phase), c) in entries {
            out.extend_from_slice(&node.0.to_be_bytes());
            out.push(phase.stable_id());
            out.extend_from_slice(&c.msgs_sent.to_be_bytes());
            out.extend_from_slice(&c.msgs_received.to_be_bytes());
            out.extend_from_slice(&c.bytes_sent.to_be_bytes());
            out.extend_from_slice(&c.bytes_received.to_be_bytes());
            out.extend_from_slice(&c.storage_bytes.to_be_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut sink = MetricsSink::new();
        sink.record_message(Phase::IntraCommitteeConsensus, NodeId(1), NodeId(2), 100);
        sink.record_message(Phase::IntraCommitteeConsensus, NodeId(1), NodeId(3), 50);
        sink.record_storage(Phase::IntraCommitteeConsensus, NodeId(1), 500);

        let n1 = sink.node_phase(NodeId(1), Phase::IntraCommitteeConsensus);
        assert_eq!(n1.msgs_sent, 2);
        assert_eq!(n1.bytes_sent, 150);
        assert_eq!(n1.storage_bytes, 500);
        let n2 = sink.node_phase(NodeId(2), Phase::IntraCommitteeConsensus);
        assert_eq!(n2.msgs_received, 1);
        assert_eq!(n2.bytes_received, 100);
        assert_eq!(
            sink.node_phase(NodeId(9), Phase::Recovery),
            Counters::default()
        );
    }

    #[test]
    fn totals_and_groups() {
        let mut sink = MetricsSink::new();
        sink.record_message(Phase::BlockGeneration, NodeId(0), NodeId(1), 10);
        sink.record_message(Phase::Recovery, NodeId(0), NodeId(2), 20);
        let phase_total = sink.phase_total(Phase::BlockGeneration);
        assert_eq!(phase_total.msgs_sent, 1);
        assert_eq!(phase_total.msgs_received, 1);

        let (group_total, group_max) =
            sink.group_phase(&[NodeId(1), NodeId(2)], Phase::BlockGeneration);
        assert_eq!(group_total.bytes_received, 10);
        assert_eq!(group_max.bytes_received, 10);
    }

    #[test]
    fn merge_combines_sinks() {
        let mut a = MetricsSink::new();
        let mut b = MetricsSink::new();
        a.record_message(Phase::Recovery, NodeId(1), NodeId(2), 7);
        b.record_message(Phase::Recovery, NodeId(1), NodeId(2), 3);
        b.record_storage(Phase::Recovery, NodeId(5), 11);
        a.merge(&b);
        assert_eq!(a.node_phase(NodeId(1), Phase::Recovery).bytes_sent, 10);
        assert_eq!(a.node_phase(NodeId(5), Phase::Recovery).storage_bytes, 11);
        assert_eq!(a.entry_count(), 3);
    }

    #[test]
    fn point_set_wire_bytes_matches_real_encoding() {
        use cycledger_crypto::pvss::encode_point_set;
        use cycledger_crypto::scalar::Scalar;
        assert_eq!(point_set_wire_bytes(&[]), 8);
        let mut points: Vec<Point> = (1..=3)
            .map(|k| Point::mul_generator(&Scalar::from_u64(k)))
            .collect();
        points.push(Point::infinity());
        assert_eq!(
            point_set_wire_bytes(&points),
            encode_point_set(&points).len() as u64
        );
    }

    #[test]
    fn canonical_bytes_are_order_independent() {
        let mut a = MetricsSink::new();
        let mut b = MetricsSink::new();
        a.record_message(Phase::Recovery, NodeId(1), NodeId(2), 7);
        a.record_storage(Phase::BlockGeneration, NodeId(9), 3);
        b.record_storage(Phase::BlockGeneration, NodeId(9), 3);
        b.record_message(Phase::Recovery, NodeId(1), NodeId(2), 7);
        let mut bytes_a = Vec::new();
        let mut bytes_b = Vec::new();
        a.write_canonical_bytes(&mut bytes_a);
        b.write_canonical_bytes(&mut bytes_b);
        assert_eq!(bytes_a, bytes_b);
        assert!(!bytes_a.is_empty());
        let entries = a.canonical_entries();
        assert!(entries.windows(2).all(|w| {
            (w[0].0 .0 .0, w[0].0 .1.stable_id()) < (w[1].0 .0 .0, w[1].0 .1.stable_id())
        }));
    }

    #[test]
    fn stable_ids_match_protocol_order() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.stable_id() as usize, i);
        }
    }

    #[test]
    fn phase_labels_are_distinct() {
        let labels: std::collections::HashSet<_> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), Phase::ALL.len());
    }

    #[test]
    fn counters_merge_and_comm() {
        let mut a = Counters {
            msgs_sent: 1,
            msgs_received: 2,
            bytes_sent: 3,
            bytes_received: 4,
            storage_bytes: 5,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.msgs_sent, 2);
        assert_eq!(a.comm_bytes(), 14);
    }
}
