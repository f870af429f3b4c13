//! Node identities, roles and the connection-channel graph.
//!
//! One of the paper's headline points (Table I, "Burden on Connection") is that
//! CycLedger only needs reliable channels *within* committees, between key
//! members, and from key members to the referee committee — not a clique over
//! all honest nodes as in Elastico/OmniLedger/RapidChain. This module tracks
//! which channels are established so the benchmark harness can count them.

use std::collections::HashSet;

/// Identifier of a simulated node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Protocol role of a node within a round (hierarchy of Fig. 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Role {
    /// Ordinary committee member.
    CommonMember,
    /// Committee leader `l_k`.
    Leader,
    /// Member of a committee's partial set (potential leader).
    PartialSetMember,
    /// Member of the referee committee `C_R`.
    Referee,
}

impl Role {
    /// Leaders and partial-set members are the paper's "key members".
    pub fn is_key_member(self) -> bool {
        matches!(self, Role::Leader | Role::PartialSetMember)
    }
}

/// The set of reliable channels established in the network.
///
/// Channels are undirected; `(a, b)` and `(b, a)` are the same channel.
#[derive(Clone, Debug, Default)]
pub struct ChannelSet {
    channels: HashSet<(NodeId, NodeId)>,
}

impl ChannelSet {
    /// Creates an empty channel set.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Establishes a channel between two distinct nodes. Returns `true` if the
    /// channel is new.
    pub fn connect(&mut self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        self.channels.insert(Self::key(a, b))
    }

    /// Establishes channels between every pair in `nodes` (a clique).
    pub fn connect_clique(&mut self, nodes: &[NodeId]) {
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                self.connect(a, b);
            }
        }
    }

    /// Establishes channels from every node in `from` to every node in `to`.
    pub fn connect_bipartite(&mut self, from: &[NodeId], to: &[NodeId]) {
        for &a in from {
            for &b in to {
                self.connect(a, b);
            }
        }
    }

    /// True if a channel exists between the two nodes.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.channels.contains(&Self::key(a, b))
    }

    /// Total number of established channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Number of channels incident to `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.channels
            .iter()
            .filter(|(a, b)| *a == node || *b == node)
            .count()
    }
}

/// The CycLedger round topology: per-committee cliques, a key-member mesh, and
/// key-member ↔ referee links (§III-B).
#[derive(Clone, Debug)]
pub struct RoundTopology {
    /// Channels required by CycLedger's network model.
    pub channels: ChannelSet,
    /// Per-node role assignment.
    pub roles: Vec<Role>,
}

impl RoundTopology {
    /// Builds the topology from a committee layout.
    ///
    /// * `committees[k]` lists the nodes of committee `k` with the leader first
    ///   and partial-set members next (`partial_size` of them).
    /// * `referee` lists the referee committee members.
    pub fn build(
        total_nodes: usize,
        committees: &[Vec<NodeId>],
        partial_size: usize,
        referee: &[NodeId],
    ) -> RoundTopology {
        let mut channels = ChannelSet::new();
        let mut roles = vec![Role::CommonMember; total_nodes];
        for &r in referee {
            roles[r.index()] = Role::Referee;
        }
        let mut key_members: Vec<NodeId> = Vec::new();
        for members in committees {
            // Good connection within a committee.
            channels.connect_clique(members);
            if let Some(&leader) = members.first() {
                roles[leader.index()] = Role::Leader;
                key_members.push(leader);
            }
            for &pm in members.iter().skip(1).take(partial_size) {
                roles[pm.index()] = Role::PartialSetMember;
                key_members.push(pm);
            }
        }
        // All leaders and partial-set members are linked with each other...
        channels.connect_clique(&key_members);
        // ...and each key member is connected to the whole referee committee.
        channels.connect_bipartite(&key_members, referee);
        // The referee committee is internally well connected (it runs Alg. 3 and
        // the randomness beacon among its own members).
        channels.connect_clique(referee);
        RoundTopology { channels, roles }
    }

    /// Number of channels a full clique over all honest nodes would need —
    /// the "heavy" connection burden of prior protocols in Table I.
    pub fn full_clique_channels(total_nodes: usize) -> usize {
        total_nodes * total_nodes.saturating_sub(1) / 2
    }

    /// How many channels [`Self::build`] establishes, counted instead of
    /// built: a clique per committee, the key-member mesh less the pairs a
    /// committee's clique already holds, every key member to every referee,
    /// the referee clique — the "light" connection burden of Table I. A
    /// committee's key members are its leader and `partial_size` partial-set
    /// members, at most all of it. Exact when the committees and the referee
    /// committee are pairwise disjoint, as sortition seats them.
    pub fn cycledger_channels(
        committee_sizes: impl IntoIterator<Item = usize>,
        partial_size: usize,
        referee_size: usize,
    ) -> usize {
        let pairs = Self::full_clique_channels;
        let (mut cliques, mut keys, mut held) = (0, 0, 0);
        for size in committee_sizes {
            let key_members = size.min(1 + partial_size);
            cliques += pairs(size);
            keys += key_members;
            held += pairs(key_members);
        }
        cliques + pairs(keys) - held + keys * referee_size + pairs(referee_size)
    }

    /// Nodes with a given role.
    pub fn nodes_with_role(&self, role: Role) -> Vec<NodeId> {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == role)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committee_layout(
        m: usize,
        c: usize,
        referee_size: usize,
    ) -> (Vec<Vec<NodeId>>, Vec<NodeId>, usize) {
        let mut next = 0u32;
        let referee: Vec<NodeId> = (0..referee_size)
            .map(|_| {
                let id = NodeId(next);
                next += 1;
                id
            })
            .collect();
        let committees: Vec<Vec<NodeId>> = (0..m)
            .map(|_| {
                (0..c)
                    .map(|_| {
                        let id = NodeId(next);
                        next += 1;
                        id
                    })
                    .collect()
            })
            .collect();
        (committees, referee, next as usize)
    }

    #[test]
    fn channel_set_basics() {
        let mut cs = ChannelSet::new();
        assert!(cs.connect(NodeId(1), NodeId(2)));
        assert!(!cs.connect(NodeId(2), NodeId(1)), "undirected duplicate");
        assert!(!cs.connect(NodeId(3), NodeId(3)), "no self loops");
        assert!(cs.connected(NodeId(1), NodeId(2)));
        assert!(!cs.connected(NodeId(1), NodeId(3)));
        assert_eq!(cs.channel_count(), 1);
        assert_eq!(cs.degree(NodeId(1)), 1);
        assert_eq!(cs.degree(NodeId(9)), 0);
    }

    #[test]
    fn clique_count() {
        let mut cs = ChannelSet::new();
        let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
        cs.connect_clique(&nodes);
        assert_eq!(cs.channel_count(), 10);
    }

    #[test]
    fn round_topology_assigns_roles() {
        let (committees, referee, total) = committee_layout(3, 10, 5);
        let topo = RoundTopology::build(total, &committees, 2, &referee);
        assert_eq!(topo.nodes_with_role(Role::Leader).len(), 3);
        assert_eq!(topo.nodes_with_role(Role::PartialSetMember).len(), 6);
        assert_eq!(topo.nodes_with_role(Role::Referee).len(), 5);
        assert_eq!(
            topo.nodes_with_role(Role::CommonMember).len(),
            total - 3 - 6 - 5
        );
        assert!(Role::Leader.is_key_member());
        assert!(Role::PartialSetMember.is_key_member());
        assert!(!Role::CommonMember.is_key_member());
        assert!(!Role::Referee.is_key_member());
    }

    #[test]
    fn cycledger_topology_is_lighter_than_clique() {
        let (committees, referee, total) = committee_layout(10, 50, 20);
        let topo = RoundTopology::build(total, &committees, 5, &referee);
        let clique = RoundTopology::full_clique_channels(total);
        assert!(
            topo.channels.channel_count() < clique / 2,
            "CycLedger channels {} should be far below full clique {}",
            topo.channels.channel_count(),
            clique
        );
    }

    #[test]
    fn counted_channels_match_the_built_topology() {
        // Uneven committees, one smaller than its key set, an empty
        // referee committee, no committees at all.
        for (sizes, partial, referee) in [
            (vec![6, 2, 9, 1], 3, 4),
            (vec![5, 5], 0, 3),
            (vec![4, 7], 2, 0),
            (vec![], 2, 5),
        ] {
            let mut next = referee as u32;
            let committees: Vec<Vec<NodeId>> = sizes
                .iter()
                .map(|&size| {
                    next += size as u32;
                    (next - size as u32..next).map(NodeId).collect()
                })
                .collect();
            let referees: Vec<NodeId> = (0..referee as u32).map(NodeId).collect();
            let topo = RoundTopology::build(next as usize, &committees, partial, &referees);
            assert_eq!(
                RoundTopology::cycledger_channels(sizes.iter().copied(), partial, referee),
                topo.channels.channel_count(),
                "{sizes:?}, partial {partial}, referee {referee}"
            );
        }
    }

    #[test]
    fn intra_committee_links_exist() {
        let (committees, referee, total) = committee_layout(2, 4, 3);
        let topo = RoundTopology::build(total, &committees, 1, &referee);
        // Members of the same committee are connected.
        assert!(topo.channels.connected(committees[0][0], committees[0][3]));
        // Leaders of different committees are connected (key-member mesh).
        assert!(topo.channels.connected(committees[0][0], committees[1][0]));
        // A common member of one committee is NOT connected to a common member
        // of another committee.
        assert!(!topo.channels.connected(committees[0][3], committees[1][3]));
        // Key members reach the referee committee.
        assert!(topo.channels.connected(committees[0][0], referee[0]));
    }
}
