//! The reputation table and leader selection.
//!
//! The referee committee maintains every participant's accumulated reputation,
//! adds the round's cosine-similarity scores (§IV-E), applies the cube-root
//! punishment to convicted leaders (§VII-B), and picks the `m` highest-reputation
//! participants as the next round's leaders (§IV-F). Reward distribution over
//! `g(reputation)` lives in [`crate::mapping`].

use std::collections::HashMap;

use cycledger_net::topology::NodeId;

use crate::mapping::{distribute_rewards, leader_punishment};

/// The network-wide reputation table, keyed by node id.
#[derive(Clone, Debug, Default)]
pub struct ReputationTable {
    reputations: HashMap<NodeId, f64>,
}

impl ReputationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table where every listed node starts at reputation zero
    /// ("for a newly joined node … the reputation will start from zero", §VII-A).
    pub fn with_members(members: impl IntoIterator<Item = NodeId>) -> Self {
        ReputationTable {
            reputations: members.into_iter().map(|n| (n, 0.0)).collect(),
        }
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.reputations.len()
    }

    /// True if no nodes are tracked.
    pub fn is_empty(&self) -> bool {
        self.reputations.is_empty()
    }

    /// Current reputation of a node (0 for unknown nodes, matching the paper's
    /// newly-joined default).
    pub fn get(&self, node: NodeId) -> f64 {
        self.reputations.get(&node).copied().unwrap_or(0.0)
    }

    /// Registers a node if not yet present (reputation 0).
    pub fn register(&mut self, node: NodeId) {
        self.reputations.entry(node).or_insert(0.0);
    }

    /// Adds a round score to a node's reputation ("C_R updates their reputation
    /// by simply adding the listed score").
    pub fn add_score(&mut self, node: NodeId, score: f64) {
        *self.reputations.entry(node).or_insert(0.0) += score;
    }

    /// Applies the cube-root punishment to a convicted leader and returns the
    /// new reputation.
    pub fn punish_leader(&mut self, node: NodeId) -> f64 {
        let entry = self.reputations.entry(node).or_insert(0.0);
        *entry = leader_punishment(*entry);
        *entry
    }

    /// Grants the leader bonus ("leaders obtain some extra reputation as a bonus
    /// for their hard work", §VII-A).
    pub fn grant_leader_bonus(&mut self, node: NodeId, bonus: f64) {
        self.add_score(node, bonus.max(0.0));
    }

    /// Selects the `count` participants with the highest reputation as the next
    /// round's leaders. Ties break by node id for determinism. Nodes not in
    /// `participants` are never selected (they did not solve the PoW puzzle).
    pub fn select_leaders(&self, participants: &[NodeId], count: usize) -> Vec<NodeId> {
        let mut ranked: Vec<NodeId> = participants.to_vec();
        ranked.sort_by(|a, b| {
            self.get(*b)
                .partial_cmp(&self.get(*a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        ranked.truncate(count);
        ranked
    }

    /// Distributes `total_fee` across `participants` proportionally to
    /// `g(reputation)`; returns `(node, reward)` pairs in participant order.
    pub fn distribute_fees(&self, participants: &[NodeId], total_fee: u64) -> Vec<(NodeId, u64)> {
        let reps: Vec<f64> = participants.iter().map(|&n| self.get(n)).collect();
        participants
            .iter()
            .copied()
            .zip(distribute_rewards(total_fee, &reps))
            .collect()
    }

    /// Snapshot of all `(node, reputation)` pairs, sorted by node id (for
    /// deterministic block encoding).
    pub fn snapshot(&self) -> Vec<(NodeId, f64)> {
        let mut items: Vec<(NodeId, f64)> =
            self.reputations.iter().map(|(n, r)| (*n, *r)).collect();
        items.sort_by_key(|(n, _)| *n);
        items
    }

    /// Encodes a reputation as the fixed-point integer stored in blocks
    /// (1e6 = 1.0).
    pub fn to_fixed_point(rep: f64) -> i64 {
        (rep * 1e6).round() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn new_nodes_start_at_zero() {
        let table = ReputationTable::with_members(nodes(5));
        assert_eq!(table.len(), 5);
        assert!(!table.is_empty());
        assert_eq!(table.get(NodeId(3)), 0.0);
        assert_eq!(table.get(NodeId(99)), 0.0, "unknown nodes default to zero");
    }

    #[test]
    fn scores_accumulate() {
        let mut table = ReputationTable::new();
        table.add_score(NodeId(1), 0.5);
        table.add_score(NodeId(1), 0.75);
        table.add_score(NodeId(1), -0.25);
        assert!((table.get(NodeId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn punish_leader_takes_cube_root() {
        let mut table = ReputationTable::new();
        table.add_score(NodeId(0), 27.0);
        assert!((table.punish_leader(NodeId(0)) - 3.0).abs() < 1e-12);
        assert!((table.get(NodeId(0)) - 3.0).abs() < 1e-12);
        // Punishing an unknown node leaves it at zero.
        assert_eq!(table.punish_leader(NodeId(7)), 0.0);
    }

    #[test]
    fn leader_bonus_is_non_negative() {
        let mut table = ReputationTable::new();
        table.grant_leader_bonus(NodeId(0), 0.5);
        table.grant_leader_bonus(NodeId(0), -3.0);
        assert!((table.get(NodeId(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn leader_selection_picks_highest_reputation() {
        let mut table = ReputationTable::with_members(nodes(6));
        table.add_score(NodeId(0), 3.0);
        table.add_score(NodeId(1), 5.0);
        table.add_score(NodeId(2), 1.0);
        table.add_score(NodeId(3), 5.0);
        let participants = nodes(6);
        let leaders = table.select_leaders(&participants, 3);
        // Ties (1 and 3 both at 5.0) break by node id.
        assert_eq!(leaders, vec![NodeId(1), NodeId(3), NodeId(0)]);
        // Non-participants are excluded even with top reputation.
        let leaders = table.select_leaders(&[NodeId(2), NodeId(4)], 1);
        assert_eq!(leaders, vec![NodeId(2)]);
        // Requesting more leaders than participants returns them all.
        assert_eq!(table.select_leaders(&[NodeId(2)], 5), vec![NodeId(2)]);
    }

    #[test]
    fn fee_distribution_follows_reputation() {
        let mut table = ReputationTable::with_members(nodes(3));
        table.add_score(NodeId(0), 10.0);
        table.add_score(NodeId(1), 0.0);
        table.add_score(NodeId(2), -5.0);
        let rewards = table.distribute_fees(&nodes(3), 9_000);
        assert_eq!(rewards.iter().map(|(_, r)| r).sum::<u64>(), 9_000);
        assert!(rewards[0].1 > rewards[1].1);
        assert!(rewards[1].1 > rewards[2].1);
    }

    #[test]
    fn snapshot_is_sorted_and_fixed_point_round_trips() {
        let mut table = ReputationTable::new();
        table.add_score(NodeId(5), 1.25);
        table.add_score(NodeId(2), -0.5);
        let snap = table.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, NodeId(2));
        assert_eq!(snap[1].0, NodeId(5));
        for (_, rep) in snap {
            let fp = ReputationTable::to_fixed_point(rep);
            assert!((fp as f64 / 1e6 - rep).abs() < 1e-6);
        }
    }
}
