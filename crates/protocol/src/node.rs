//! Simulated nodes and the node registry (the PKI of §III-A).

use cycledger_crypto::hmac::HmacDrbg;
use cycledger_crypto::schnorr::{Keypair, PreparedKey};
#[cfg(test)]
use cycledger_crypto::vrf::{self, VrfOutput};
use cycledger_net::topology::NodeId;

use crate::adversary::{AdversaryConfig, Behavior};
use cycledger_consensus::quorum::CommitteeKeys;

/// Where a node stands in the validator lifecycle.
///
/// Node ids are registry indices, so nodes are never removed: a validator
/// that leaves is marked [`MembershipState::Left`] and simply stops being
/// eligible for any role. A joiner enters as [`MembershipState::Syncing`] —
/// it sits in committees as a common member but abstains from votes (the
/// quorum fallback counts it `Unknown`) until state sync verifies its chain
/// against the certified tip, at which point it becomes `Active`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipState {
    /// Full participant: may vote, lead, referee, and deal.
    Active,
    /// Joined but still catching up; common member only, abstains from votes.
    Syncing,
    /// Departed; excluded from sortition and the PoW participant set.
    Left,
}

impl MembershipState {
    /// True if the node is still part of the validator set at all.
    pub fn participates(self) -> bool {
        !matches!(self, MembershipState::Left)
    }

    /// True if the node may cast votes and take trusted roles (leader,
    /// partial set, referee, beacon dealer).
    pub fn may_vote(self) -> bool {
        matches!(self, MembershipState::Active)
    }
}

/// One simulated node: identity, keys, behaviour, and compute capacity.
#[derive(Clone, Debug)]
pub struct SimNode {
    /// Network identity.
    pub id: NodeId,
    /// Long-lived key pair registered with the PKI.
    pub keypair: Keypair,
    /// The public half of `keypair` with its table, built when the node is
    /// registered: what every verifier of the node's signatures and
    /// sortition proofs multiplies.
    pub verifying_key: PreparedKey,
    /// Honest or one of the adversarial behaviours.
    pub behavior: Behavior,
    /// Number of transactions the node can validate per round; beyond this it
    /// votes `Unknown` (the computing-power model behind reputation, §VII-A).
    pub compute_capacity: u32,
    /// Validator-lifecycle state; `Active` for the genesis population.
    pub membership: MembershipState,
}

impl SimNode {
    /// Node `i` of the registry drawn from `seed`: its key pair derives from
    /// `cycledger-node-{seed}-{i}`, and its key's table is built here, once.
    fn new(
        i: usize,
        seed: u64,
        behavior: Behavior,
        compute_capacity: u32,
        membership: MembershipState,
    ) -> SimNode {
        let keypair = Keypair::from_seed(format!("cycledger-node-{seed}-{i}").as_bytes());
        SimNode {
            id: NodeId(i as u32),
            keypair,
            verifying_key: PreparedKey::new(keypair.public),
            behavior,
            compute_capacity,
            membership,
        }
    }

    /// True if the node follows the protocol.
    pub fn is_honest(&self) -> bool {
        !self.behavior.is_malicious()
    }
}

/// The registry of all simulated nodes — effectively the PKI plus the ground
/// truth the experiment harness uses (who is corrupted, who has how much
/// compute).
#[derive(Clone, Debug)]
pub struct NodeRegistry {
    nodes: Vec<SimNode>,
    /// Nodes whose sortition proof fails verification (test-only fault
    /// injection: see [`NodeRegistry::forge_sortition_proof`]).
    #[cfg(test)]
    forgers: Vec<NodeId>,
}

impl NodeRegistry {
    /// Creates `total` nodes with behaviours from the adversary config and
    /// compute capacities in `[base, base + spread]`, all derived from `seed`.
    pub fn generate(
        total: usize,
        adversary: &AdversaryConfig,
        base_compute: u32,
        compute_spread: u32,
        seed: u64,
    ) -> NodeRegistry {
        let behaviors = adversary.assign(total, seed);
        let mut drbg = HmacDrbg::from_parts("cycledger/node-compute", &[&seed.to_be_bytes()]);
        let nodes = (0..total)
            .map(|i| {
                let capacity = base_compute
                    + if compute_spread == 0 {
                        0
                    } else {
                        drbg.next_below(compute_spread as u64 + 1) as u32
                    };
                SimNode::new(i, seed, behaviors[i], capacity, MembershipState::Active)
            })
            .collect();
        NodeRegistry {
            nodes,
            #[cfg(test)]
            forgers: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node by id.
    pub fn node(&self, id: NodeId) -> &SimNode {
        &self.nodes[id.index()]
    }

    /// The sortition proof node `id` submits with its PoW solution: its VRF
    /// evaluation on `prover`'s input under its registered key pair (what
    /// the draw's evaluation tasks compute for it).
    #[cfg(test)]
    pub(crate) fn sortition_proof(&self, id: NodeId, prover: &vrf::Prover) -> VrfOutput {
        let keypair = &self.node(id).keypair;
        let output = prover.evaluate(&keypair.secret, &keypair.public);
        self.forge_submitted(&[id], vec![output])[0]
    }

    /// `outputs` (`outputs[i]` the evaluation of `ids[i]`) as submitted:
    /// a forger's replaced by its forgery, the output it drew under a
    /// response no key answers.
    #[cfg(test)]
    pub(crate) fn forge_submitted(
        &self,
        ids: &[NodeId],
        mut outputs: Vec<VrfOutput>,
    ) -> Vec<VrfOutput> {
        let one = cycledger_crypto::scalar::Scalar::from_u64(1);
        for (id, output) in ids.iter().zip(&mut outputs) {
            if self.forgers.contains(id) {
                output.proof.s = output.proof.s.add(&one);
            }
        }
        outputs
    }

    /// Makes node `id` submit a sortition proof that fails verification
    /// from now on, claiming the seat its honest proof would draw.
    #[cfg(test)]
    pub(crate) fn forge_sortition_proof(&mut self, id: NodeId) {
        self.forgers.push(id);
    }

    /// All node ids.
    pub fn ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|n| n.id).collect()
    }

    /// Iterates over all nodes.
    pub fn iter(&self) -> impl Iterator<Item = &SimNode> {
        self.nodes.iter()
    }

    /// Number of malicious nodes.
    pub fn malicious_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_honest()).count()
    }

    /// Builds the public-key directory for a set of nodes (what committee
    /// members learn during committee configuration).
    pub fn committee_keys(&self, members: &[NodeId]) -> CommitteeKeys {
        CommitteeKeys::new(
            members
                .iter()
                .map(|&id| (id, self.node(id).verifying_key.clone())),
        )
    }

    /// Overrides one node's behaviour (used by targeted fault-injection tests).
    pub fn set_behavior(&mut self, id: NodeId, behavior: Behavior) {
        self.nodes[id.index()].behavior = behavior;
    }

    /// One node's membership state.
    pub fn membership(&self, id: NodeId) -> MembershipState {
        self.nodes[id.index()].membership
    }

    /// Moves a node to a new membership state.
    pub fn set_membership(&mut self, id: NodeId, state: MembershipState) {
        self.nodes[id.index()].membership = state;
    }

    /// Node ids that have not left (the sortition population).
    pub fn participating_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.membership.participates())
            .map(|n| n.id)
            .collect()
    }

    /// Number of nodes currently in the given state.
    pub fn count_in_state(&self, state: MembershipState) -> usize {
        self.nodes.iter().filter(|n| n.membership == state).count()
    }

    /// Appends `count` honest joiners in the [`MembershipState::Syncing`]
    /// state, continuing the id sequence and the `cycledger-node-{seed}-{i}`
    /// key-derivation scheme so a joiner's identity is exactly what node `i`
    /// would have been had it existed at genesis. Returns the new ids.
    pub fn extend(
        &mut self,
        count: usize,
        base_compute: u32,
        compute_spread: u32,
        seed: u64,
    ) -> Vec<NodeId> {
        let start = self.nodes.len();
        (start..start + count)
            .map(|i| {
                // Joiner capacities come from a per-node stream (not the
                // genesis batch stream, whose cursor is long gone) so they are
                // deterministic regardless of how many epochs have elapsed.
                let capacity = base_compute
                    + if compute_spread == 0 {
                        0
                    } else {
                        let mut drbg = HmacDrbg::from_parts(
                            "cycledger/node-compute-join",
                            &[&seed.to_be_bytes(), &(i as u64).to_be_bytes()],
                        );
                        drbg.next_below(compute_spread as u64 + 1) as u32
                    };
                let node = SimNode::new(
                    i,
                    seed,
                    Behavior::Honest,
                    capacity,
                    MembershipState::Syncing,
                );
                let id = node.id;
                self.nodes.push(node);
                id
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycledger_crypto::schnorr::VerifyingKey;

    #[test]
    fn generation_is_deterministic_and_sized() {
        let adv = AdversaryConfig::uniform(0.25);
        let a = NodeRegistry::generate(40, &adv, 100, 50, 7);
        let b = NodeRegistry::generate(40, &adv, 100, 50, 7);
        assert_eq!(a.len(), 40);
        assert!(!a.is_empty());
        assert_eq!(a.malicious_count(), 10);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.behavior, y.behavior);
            assert_eq!(x.compute_capacity, y.compute_capacity);
            assert_eq!(x.keypair.public, y.keypair.public);
        }
    }

    #[test]
    fn compute_capacity_within_range() {
        let adv = AdversaryConfig::default();
        let reg = NodeRegistry::generate(50, &adv, 200, 100, 3);
        for node in reg.iter() {
            assert!((200..=300).contains(&node.compute_capacity));
        }
        let reg = NodeRegistry::generate(10, &adv, 50, 0, 3);
        assert!(reg.iter().all(|n| n.compute_capacity == 50));
    }

    #[test]
    fn keys_are_distinct_and_directory_matches() {
        let adv = AdversaryConfig::default();
        let reg = NodeRegistry::generate(20, &adv, 10, 0, 1);
        let keys = reg.committee_keys(&reg.ids());
        assert_eq!(keys.len(), 20);
        let distinct: std::collections::HashSet<_> =
            reg.iter().map(|n| n.keypair.public.to_bytes()).collect();
        assert_eq!(distinct.len(), 20);
        for node in reg.iter() {
            assert_eq!(
                keys.get(node.id).map(|key| key.public_key()),
                Some(&node.keypair.public)
            );
            assert_eq!(node.verifying_key.public_key(), &node.keypair.public);
        }
    }

    #[test]
    fn an_epoch_joiner_is_registered_with_a_table_and_its_echo_verifies() {
        use cycledger_consensus::messages::{make_echo, make_propose, verify_echo_cached};
        use cycledger_consensus::{ConsensusId, SigCache};

        let mut reg = NodeRegistry::generate(10, &AdversaryConfig::default(), 100, 0, 9);
        let joiner = reg.extend(1, 100, 0, 9)[0];
        let node = reg.node(joiner);
        assert_eq!(node.verifying_key.public_key(), &node.keypair.public);
        let leader = NodeId(0);
        let keys = reg.committee_keys(&[leader, joiner]);
        let (leader_key, joiner_key) = (keys.get(leader).unwrap(), keys.get(joiner).unwrap());
        assert_eq!(joiner_key.public_key(), &node.keypair.public);

        let id = ConsensusId { round: 3, seq: 1 };
        let propose = make_propose(
            id,
            b"joiner payload".to_vec(),
            leader,
            &reg.node(leader).keypair,
        );
        let echo = make_echo(&propose, joiner, &node.keypair);
        assert!(verify_echo_cached(
            &echo,
            joiner_key,
            leader_key,
            &SigCache::new()
        ));
        // An ECHO in the joiner's name under another node's key fails
        // through the joiner's table, as it does through the bare key.
        let forged = make_echo(&propose, joiner, &reg.node(NodeId(1)).keypair);
        assert!(!verify_echo_cached(
            &forged,
            joiner_key,
            leader_key,
            &SigCache::new()
        ));
        let signed =
            cycledger_consensus::messages::echo_signing_bytes(&id, &propose.digest, joiner);
        assert!(!cycledger_crypto::schnorr::verify(
            &node.keypair.public,
            &signed,
            &forged.signature
        ));
    }

    #[test]
    fn extend_appends_syncing_joiners_with_contiguous_ids() {
        let adv = AdversaryConfig::default();
        let mut reg = NodeRegistry::generate(10, &adv, 100, 50, 9);
        assert_eq!(reg.count_in_state(MembershipState::Active), 10);
        let joined = reg.extend(3, 100, 50, 9);
        assert_eq!(joined, vec![NodeId(10), NodeId(11), NodeId(12)]);
        assert_eq!(reg.len(), 13);
        assert_eq!(reg.count_in_state(MembershipState::Syncing), 3);
        for &id in &joined {
            assert_eq!(reg.membership(id), MembershipState::Syncing);
            assert!(reg.node(id).is_honest());
            assert!((100..=150).contains(&reg.node(id).compute_capacity));
            // Key derivation continues the genesis scheme: the joiner's key is
            // what node `i` would have had at genesis.
            assert_eq!(
                reg.node(id).keypair.public,
                Keypair::from_seed(format!("cycledger-node-9-{}", id.index()).as_bytes()).public
            );
        }
        // Extending twice is deterministic and order-independent per node.
        let mut again = NodeRegistry::generate(10, &adv, 100, 50, 9);
        again.extend(2, 100, 50, 9);
        let more = again.extend(1, 100, 50, 9);
        assert_eq!(more, vec![NodeId(12)]);
        assert_eq!(
            again.node(NodeId(12)).compute_capacity,
            reg.node(NodeId(12)).compute_capacity
        );
    }

    #[test]
    fn membership_transitions_and_participation() {
        let adv = AdversaryConfig::default();
        let mut reg = NodeRegistry::generate(4, &adv, 10, 0, 1);
        reg.set_membership(NodeId(1), MembershipState::Left);
        reg.set_membership(NodeId(2), MembershipState::Syncing);
        assert_eq!(
            reg.participating_ids(),
            vec![NodeId(0), NodeId(2), NodeId(3)]
        );
        assert!(MembershipState::Active.may_vote());
        assert!(!MembershipState::Syncing.may_vote());
        assert!(MembershipState::Syncing.participates());
        assert!(!MembershipState::Left.participates());
        reg.set_membership(NodeId(2), MembershipState::Active);
        assert_eq!(reg.count_in_state(MembershipState::Syncing), 0);
    }

    #[test]
    fn behavior_override_counts_as_malicious() {
        let adv = AdversaryConfig::default();
        let mut reg = NodeRegistry::generate(10, &adv, 10, 0, 1);
        assert_eq!(reg.malicious_count(), 0);
        reg.set_behavior(NodeId(0), Behavior::WrongVoter);
        reg.set_behavior(NodeId(1), Behavior::SilentLeader);
        assert_eq!(reg.malicious_count(), 2);
    }
}
