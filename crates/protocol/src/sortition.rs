//! Round configuration: referee committee, leaders, partial sets and committee
//! membership (Algorithm 1 and §IV-F).
//!
//! Key members of round `r` are chosen at the end of round `r-1` by the referee
//! committee:
//!
//! * **Referee committee** — hash lottery over `H(r ‖ R^r ‖ PK ‖ "REFEREE")`;
//!   the nodes with the smallest lottery values win (equivalent to the paper's
//!   difficulty-threshold formulation, but yields an exact committee size, which
//!   keeps simulations comparable across configurations).
//! * **Leaders** — the `m` participants with the highest reputation (§IV-F).
//! * **Partial sets** — hash lottery `H(r ‖ R^r ‖ PK ‖ "PARTIAL") mod m` assigns
//!   a committee, the `λ` smallest lottery values per committee win.
//! * **Common members** — every remaining participant runs cryptographic
//!   sortition (Algorithm 1): a VRF on `COMMON_MEMBER ‖ r ‖ R^r` whose output
//!   mod `m` is the committee index. A participant submits its proof with its
//!   PoW solution, and the draw checks every proof before it seats anyone: a
//!   node whose proof fails sits in no committee, so in no row of the
//!   configuration the block certifies (a departure from Algorithm 2, where
//!   the key members check the claims; see ARCHITECTURE.md).

use cycledger_crypto::sha256::{hash_parts, Digest};
use cycledger_crypto::vrf;
use cycledger_net::topology::{NodeId, RoundTopology};
use cycledger_reputation::ReputationTable;

use crate::engine::ShardExecutor;
use crate::node::{MembershipState, NodeRegistry};

/// Assignment of one committee for a round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitteeAssignment {
    /// Committee index `k` (also the shard index it maintains).
    pub index: usize,
    /// The leader `l_k`.
    pub leader: NodeId,
    /// The partial set `C_{k,partial}`.
    pub partial_set: Vec<NodeId>,
    /// Every member including the leader and partial set (leader first, then
    /// partial set, then common members).
    pub members: Vec<NodeId>,
}

impl CommitteeAssignment {
    /// Committee size `C`.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Common members (everyone who is not a key member).
    pub fn common_members(&self) -> &[NodeId] {
        &self.members[1 + self.partial_set.len()..]
    }
}

/// The full configuration of one round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundAssignment {
    /// Round number.
    pub round: u64,
    /// Round randomness `R^r` the assignment was derived from.
    pub randomness: Digest,
    /// The referee committee `C_R`.
    pub referee: Vec<NodeId>,
    /// The `m` ordinary committees.
    pub committees: Vec<CommitteeAssignment>,
}

impl RoundAssignment {
    /// All nodes participating in this round.
    pub fn participants(&self) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = self.referee.clone();
        for c in &self.committees {
            all.extend_from_slice(&c.members);
        }
        all
    }

    /// How many channels [`Self::topology`] holds, counted instead of built
    /// ([`RoundTopology::cycledger_channels`] over the real committee sizes).
    /// Exact because sortition seats a node once.
    pub fn channel_count(&self) -> usize {
        let partial = self.committees.first().map_or(0, |c| c.partial_set.len());
        RoundTopology::cycledger_channels(
            self.committees.iter().map(CommitteeAssignment::size),
            partial,
            self.referee.len(),
        )
    }

    /// Builds the network topology (channel graph) implied by this
    /// assignment — the reference [`Self::channel_count`] is pinned to.
    pub fn topology(&self, total_nodes: usize) -> RoundTopology {
        let member_lists: Vec<Vec<NodeId>> =
            self.committees.iter().map(|c| c.members.clone()).collect();
        let partial = self
            .committees
            .first()
            .map(|c| c.partial_set.len())
            .unwrap_or(0);
        RoundTopology::build(total_nodes, &member_lists, partial, &self.referee)
    }

    /// The sortition input string of Algorithm 1 for this round.
    pub fn sortition_input(round: u64, randomness: &Digest) -> Vec<u8> {
        let mut input = Vec::with_capacity(64);
        input.extend_from_slice(b"COMMON_MEMBER");
        input.extend_from_slice(&round.to_be_bytes());
        input.extend_from_slice(randomness.as_bytes());
        input
    }
}

fn lottery_value(round: u64, randomness: &Digest, node: NodeId, role: &str) -> u64 {
    hash_parts(&[
        b"cycledger/lottery",
        &round.to_be_bytes(),
        randomness.as_bytes(),
        &node.0.to_be_bytes(),
        role.as_bytes(),
    ])
    .prefix_u64()
}

/// Sortition proofs checked as one `vrf::Prover::verify_batch` group, one executor
/// task each. Groups are cut by proof index, so where a forged proof sends
/// its group down the per-proof path is the same at every worker count.
pub(crate) const PROOFS_PER_GROUP: usize = 8;

/// Parameters for building a round assignment.
#[derive(Clone, Copy, Debug)]
pub struct AssignmentParams {
    /// Number of committees `m`.
    pub committees: usize,
    /// Partial-set size `λ`.
    pub partial_set_size: usize,
    /// Referee committee size.
    pub referee_size: usize,
}

/// Builds the assignment for `round` from the participant set, the round
/// randomness and the current reputation table, on the caller thread.
///
/// [`assign_round_on`] with an inline executor. Kept only because
/// `benchmark/src/probes.rs` calls this six-argument form and `benchmark/`
/// is frozen against the parent commit; fold it into `assign_round_on` (and
/// move the fixtures over) the next time that package may change.
pub fn assign_round(
    registry: &NodeRegistry,
    participants: &[NodeId],
    params: AssignmentParams,
    round: u64,
    randomness: Digest,
    reputation: &ReputationTable,
) -> RoundAssignment {
    assign_round_on(
        &ShardExecutor::new(1),
        registry,
        participants,
        params,
        round,
        randomness,
        reputation,
    )
}

/// [`assign_round`] with the common members' VRF proofs evaluated and
/// checked on `executor`: [`SortitionBase::assign`] on a base built here.
pub fn assign_round_on(
    executor: &ShardExecutor,
    registry: &NodeRegistry,
    participants: &[NodeId],
    params: AssignmentParams,
    round: u64,
    randomness: Digest,
    reputation: &ReputationTable,
) -> RoundAssignment {
    let base = SortitionBase::new(round, randomness);
    base.assign(executor, registry, participants, params, reputation)
}

/// The part of a round's sortition fixed by its round number and randomness
/// alone: the lottery inputs and the round's one [`vrf::Prover`] (a
/// fixed-base table of the round's VRF base). The selection phase builds the
/// next round's beside the intra-consensus instances, before the reputation
/// update the leader choice waits on.
pub struct SortitionBase {
    round: u64,
    randomness: Digest,
    prover: vrf::Prover,
}

impl SortitionBase {
    /// Builds the base of `round` drawn from `randomness`.
    pub fn new(round: u64, randomness: Digest) -> SortitionBase {
        let prover = vrf::Prover::new(&RoundAssignment::sortition_input(round, &randomness));
        SortitionBase {
            round,
            randomness,
            prover,
        }
    }

    /// The randomness `R^r` the base was drawn from.
    pub fn randomness(&self) -> Digest {
        self.randomness
    }

    /// Builds the assignment from the participant set and the current
    /// reputation table. The common members' VRF sortition (step 4) is one
    /// `executor` batch: each task evaluates the proofs of a group of
    /// `PROOFS_PER_GROUP` participants, as they submit them, and checks the
    /// group with the base's `vrf::Prover::verify_batch`, on the `H` the
    /// evaluations used. A participant whose proof fails is
    /// seated nowhere. The assignment is identical at any worker count:
    /// verdicts come back in proof order and the committees are filled
    /// serially from them.
    pub fn assign(
        &self,
        executor: &ShardExecutor,
        registry: &NodeRegistry,
        participants: &[NodeId],
        params: AssignmentParams,
        reputation: &ReputationTable,
    ) -> RoundAssignment {
        let (round, randomness) = (self.round, self.randomness);
        assert!(params.committees > 0, "need at least one committee");
        // Trusted roles (referee, leader, partial set) are drawn only from
        // `Active` members; `Syncing` joiners sit in committees as common members
        // (they abstain from votes until caught up), and `Left` nodes never
        // appear in `participants` at all. A fully `Active` population makes
        // `trusted == participants`, so pre-epoch assignments are unchanged.
        let trusted: Vec<NodeId> = participants
            .iter()
            .copied()
            .filter(|&id| registry.node(id).membership.may_vote())
            .collect();
        let syncing: Vec<NodeId> = participants
            .iter()
            .copied()
            .filter(|&id| registry.node(id).membership == MembershipState::Syncing)
            .collect();
        assert!(
            trusted.len() > params.referee_size + params.committees * (1 + params.partial_set_size),
            "not enough participants for the requested configuration"
        );

        // 1. Referee committee: smallest lottery values.
        let mut by_referee_lottery: Vec<NodeId> = trusted.clone();
        by_referee_lottery.sort_by_cached_key(|&id| {
            (
                lottery_value(round, &randomness, id, "REFEREE_COMMITTEE_MEMBER"),
                id,
            )
        });
        let referee: Vec<NodeId> = by_referee_lottery[..params.referee_size].to_vec();
        let referee_set: std::collections::HashSet<NodeId> = referee.iter().copied().collect();

        // 2. Leaders: highest reputation among the remaining active participants.
        let eligible: Vec<NodeId> = trusted
            .iter()
            .copied()
            .filter(|id| !referee_set.contains(id))
            .collect();
        let leaders = reputation.select_leaders(&eligible, params.committees);
        let leader_set: std::collections::HashSet<NodeId> = leaders.iter().copied().collect();

        // 3. Partial sets: per-committee hash lottery over the remaining nodes.
        let mut partial_sets: Vec<Vec<NodeId>> = vec![Vec::new(); params.committees];
        let mut remaining: Vec<NodeId> = eligible
            .iter()
            .copied()
            .filter(|id| !leader_set.contains(id))
            .collect();
        // Sort by (lottery value) so the λ smallest per committee win determinately.
        remaining.sort_by_cached_key(|&id| {
            (
                lottery_value(round, &randomness, id, "PARTIAL_SET_MEMBER"),
                id,
            )
        });
        let mut used: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
        for &id in &remaining {
            let committee = (lottery_value(round, &randomness, id, "PARTIAL_SET_COMMITTEE")
                % params.committees as u64) as usize;
            if partial_sets[committee].len() < params.partial_set_size {
                partial_sets[committee].push(id);
                used.insert(id);
            }
        }
        // Backfill any committee whose lottery under-filled (possible for tiny
        // populations) from the unused pool, preserving lottery order.
        for partial_set in partial_sets.iter_mut().take(params.committees) {
            if partial_set.len() < params.partial_set_size {
                for &id in &remaining {
                    if partial_set.len() >= params.partial_set_size {
                        break;
                    }
                    if !used.contains(&id) {
                        partial_set.push(id);
                        used.insert(id);
                    }
                }
            }
        }

        // 4. Common members: VRF-based sortition (Algorithm 1) for everyone
        //    left, each proof checked before its committee index is taken.
        let sortitioned: Vec<NodeId> = remaining
            .iter()
            .filter(|id| !used.contains(id))
            .chain(&syncing)
            .copied()
            .collect();
        let groups = sortitioned.chunks(PROOFS_PER_GROUP).map(|group| {
            move || {
                let proofs: Vec<_> = group
                    .iter()
                    .map(|&id| registry.sortition_proof(id, &self.prover))
                    .collect();
                let entries: Vec<_> = group
                    .iter()
                    .zip(&proofs)
                    .map(|(&id, output)| (&registry.node(id).verifying_key, output))
                    .collect();
                let valid = self.prover.verify_batch(&entries);
                (proofs, valid)
            }
        });
        let drawn = executor.execute(groups.collect());
        let drawn = drawn
            .iter()
            .flat_map(|(proofs, valid)| proofs.iter().zip(valid));
        let mut commons: Vec<Vec<NodeId>> = vec![Vec::new(); params.committees];
        for (&id, (output, &valid)) in sortitioned.iter().zip(drawn) {
            if valid {
                commons[vrf::output_to_committee(&output.hash, params.committees)].push(id);
            }
        }

        let committees = (0..params.committees)
            .map(|k| {
                let mut members = vec![leaders[k]];
                members.extend_from_slice(&partial_sets[k]);
                members.extend_from_slice(&commons[k]);
                CommitteeAssignment {
                    index: k,
                    leader: leaders[k],
                    partial_set: partial_sets[k].clone(),
                    members,
                }
            })
            .collect();

        RoundAssignment {
            round,
            randomness,
            referee,
            committees,
        }
    }
}

/// The order the draw of `assignment` checked its common members' proofs
/// in: the active ones by their partial-set lottery value, then the syncing
/// ones in id order.
#[cfg(test)]
pub(crate) fn proof_order(assignment: &RoundAssignment, registry: &NodeRegistry) -> Vec<NodeId> {
    let (round, randomness) = (assignment.round, &assignment.randomness);
    let commons = assignment.committees.iter();
    let commons = commons.flat_map(|c| c.common_members().iter().copied());
    let (mut order, mut syncing): (Vec<NodeId>, Vec<NodeId>) =
        commons.partition(|&id| registry.node(id).membership.may_vote());
    order.sort_by_cached_key(|&id| {
        (
            lottery_value(round, randomness, id, "PARTIAL_SET_MEMBER"),
            id,
        )
    });
    syncing.sort();
    order.extend(syncing);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryConfig;
    use cycledger_crypto::sha256::sha256;

    fn setup(total: usize) -> (NodeRegistry, ReputationTable) {
        let registry = NodeRegistry::generate(total, &AdversaryConfig::default(), 100, 0, 11);
        let reputation = ReputationTable::with_members(registry.ids());
        (registry, reputation)
    }

    fn params() -> AssignmentParams {
        AssignmentParams {
            committees: 4,
            partial_set_size: 3,
            referee_size: 7,
        }
    }

    #[test]
    fn assignment_partitions_participants() {
        let (registry, reputation) = setup(80);
        let assignment = assign_round(
            &registry,
            &registry.ids(),
            params(),
            1,
            sha256(b"seed-1"),
            &reputation,
        );
        let mut all = assignment.participants();
        all.sort();
        let mut expected = registry.ids();
        expected.sort();
        assert_eq!(
            all, expected,
            "every participant lands in exactly one place"
        );
        assert_eq!(assignment.referee.len(), 7);
        assert_eq!(assignment.committees.len(), 4);
        for c in &assignment.committees {
            assert_eq!(c.partial_set.len(), 3);
            assert_eq!(c.members[0], c.leader);
            assert!(c.size() >= 4, "leader + partial set at minimum");
            assert_eq!(c.common_members().len(), c.size() - 1 - c.partial_set.len());
        }
    }

    /// SHA-256 compressions of one assignment at the tracked geometry (128
    /// nodes, 8 committees). Each lottery value is a two-block hash and each
    /// sort computes it once per node: 128 for the referee lottery, 113 for
    /// the partial-set lottery and 113 more for its committee draw are 708
    /// compressions. The round's `vrf::Prover` hashes its input to the
    /// curve in two tries of two blocks (4), and the 81 common members'
    /// VRF evaluations on it cost 3 805. The other 2 750 are the draw
    /// checking the 81 proofs, one `Prover::verify_batch` a group: ten
    /// groups of eight at 270 each and a last group of one at 50 (5 361
    /// while every coefficient came from a generator of its own). Until the
    /// checks took the prover's base, the prover and each group also looked
    /// it up in a process-wide `hash_to_curve` memo under a three-block
    /// key: 12 × 3 more, 7 303. At commit ee421ab the two sorts hashed both
    /// sides of every comparison and this assignment cost 13 264; before
    /// the draw checked its proofs it cost 4 520.
    #[cfg(feature = "opcount")]
    #[test]
    fn the_lottery_sorts_hash_once_per_node() {
        use cycledger_crypto::opcount::scope;
        let (registry, reputation) = setup(128);
        let params = AssignmentParams {
            committees: 8,
            partial_set_size: 4,
            referee_size: 7,
        };
        let ids = registry.ids();
        let randomness = sha256(b"seed-pin");
        let assign = |round| assign_round(&registry, &ids, params, round, randomness, &reputation);
        assign(0); // builds the static tables
        let mut assignment = None;
        let tally = scope(|| assignment = Some(assign(1)));
        let sortitioned = proof_order(&assignment.unwrap(), &registry).len();
        assert_eq!((sortitioned, tally.sha256_blocks), (81, 7267));
    }

    /// An all-honest population loses no seat to the proof check: the draw's
    /// batch verifier accepts every common member's proof, and every
    /// participant outside the referee and the key members is seated.
    #[test]
    fn all_honest_members_verify() {
        let (registry, reputation) = setup(60);
        let randomness = sha256(b"seed-honest");
        let assignment = assign_round(
            &registry,
            &registry.ids(),
            params(),
            2,
            randomness,
            &reputation,
        );
        let input = RoundAssignment::sortition_input(2, &randomness);
        let prover = vrf::Prover::new(&input);
        let order = proof_order(&assignment, &registry);
        let proofs: Vec<_> = order
            .iter()
            .map(|&id| registry.sortition_proof(id, &prover))
            .collect();
        let entries: Vec<_> = order
            .iter()
            .zip(&proofs)
            .map(|(&id, output)| (&registry.node(id).keypair.public, output))
            .collect();
        let valid = prover.verify_batch(&entries);
        assert_eq!(valid.len(), 60 - 7 - 4 * (1 + 3));
        assert!(valid.iter().all(|&v| v), "no honest proof is rejected");
    }

    #[test]
    fn sortition_proofs_verify_and_match_committee() {
        let (registry, reputation) = setup(60);
        let randomness = sha256(b"seed-2");
        let assignment = assign_round(
            &registry,
            &registry.ids(),
            params(),
            3,
            randomness,
            &reputation,
        );
        let input = RoundAssignment::sortition_input(3, &randomness);
        let prover = vrf::Prover::new(&input);
        let order = proof_order(&assignment, &registry);
        assert_eq!(order.len(), 60 - 7 - 4 * (1 + 3));
        for (k, committee) in assignment.committees.iter().enumerate() {
            for &node in committee.common_members() {
                let output = registry.sortition_proof(node, &prover);
                let public = &registry.node(node).keypair.public;
                assert!(vrf::verify(public, &input, &output));
                assert_eq!(
                    vrf::output_to_committee(&output.hash, 4),
                    k,
                    "node must sit in the committee its VRF output designates"
                );
            }
        }
    }

    #[test]
    fn leaders_are_highest_reputation() {
        let (registry, mut reputation) = setup(80);
        // Give a few nodes standout reputation; they should become leaders
        // unless drafted into the referee committee.
        for id in [10u32, 20, 30, 40] {
            reputation.add_score(NodeId(id), 50.0);
        }
        let assignment = assign_round(
            &registry,
            &registry.ids(),
            params(),
            2,
            sha256(b"seed-3"),
            &reputation,
        );
        let leader_set: std::collections::HashSet<NodeId> =
            assignment.committees.iter().map(|c| c.leader).collect();
        for id in [10u32, 20, 30, 40] {
            let node = NodeId(id);
            if assignment.referee.contains(&node) {
                continue;
            }
            assert!(
                leader_set.contains(&node),
                "high-reputation node {id} must lead"
            );
        }
    }

    #[test]
    fn different_randomness_changes_assignment() {
        let (registry, reputation) = setup(80);
        let a = assign_round(
            &registry,
            &registry.ids(),
            params(),
            1,
            sha256(b"ra"),
            &reputation,
        );
        let b = assign_round(
            &registry,
            &registry.ids(),
            params(),
            1,
            sha256(b"rb"),
            &reputation,
        );
        assert_ne!(
            a.referee, b.referee,
            "referee lottery must depend on randomness"
        );
    }

    #[test]
    fn assignment_is_deterministic() {
        let (registry, reputation) = setup(70);
        let a = assign_round(
            &registry,
            &registry.ids(),
            params(),
            5,
            sha256(b"rx"),
            &reputation,
        );
        let b = assign_round(
            &registry,
            &registry.ids(),
            params(),
            5,
            sha256(b"rx"),
            &reputation,
        );
        assert_eq!(a.referee, b.referee);
        for (ca, cb) in a.committees.iter().zip(&b.committees) {
            assert_eq!(ca.members, cb.members);
        }
    }

    #[test]
    fn topology_reflects_assignment() {
        let (registry, reputation) = setup(60);
        let assignment = assign_round(
            &registry,
            &registry.ids(),
            params(),
            1,
            sha256(b"topo"),
            &reputation,
        );
        let topo = assignment.topology(registry.len());
        // Leaders of two committees are connected via the key-member mesh.
        let l0 = assignment.committees[0].leader;
        let l1 = assignment.committees[1].leader;
        assert!(topo.channels.connected(l0, l1));
        // A leader reaches the referee committee.
        assert!(topo.channels.connected(l0, assignment.referee[0]));
    }

    #[test]
    fn syncing_members_only_take_common_roles() {
        let (mut registry, mut reputation) = setup(80);
        // Even with standout reputation a syncing joiner must not be given a
        // trusted role — only a common-member seat.
        for id in [3u32, 4, 5] {
            registry.set_membership(NodeId(id), MembershipState::Syncing);
            reputation.add_score(NodeId(id), 100.0);
        }
        registry.set_membership(NodeId(6), MembershipState::Left);
        let assignment = assign_round(
            &registry,
            &registry.participating_ids(),
            params(),
            2,
            sha256(b"sync-roles"),
            &reputation,
        );
        let all = assignment.participants();
        assert!(!all.contains(&NodeId(6)), "left nodes never participate");
        for id in [3u32, 4, 5].map(NodeId) {
            assert!(!assignment.referee.contains(&id));
            for c in &assignment.committees {
                assert_ne!(c.leader, id);
                assert!(!c.partial_set.contains(&id));
            }
            assert!(
                assignment
                    .committees
                    .iter()
                    .any(|c| c.common_members().contains(&id)),
                "syncing node {id:?} must sit somewhere as a common member"
            );
        }
    }

    #[test]
    fn sortition_is_identical_at_every_executor_width() {
        let (mut registry, reputation) = setup(82);
        // A `Syncing` tail rides behind the active commons in the mapped
        // list; 82 nodes leave 59 to sortition, a short last group of three.
        for id in [70u32, 71, 72] {
            registry.set_membership(NodeId(id), MembershipState::Syncing);
        }
        let assign = |workers: usize| {
            assign_round_on(
                &ShardExecutor::new(workers),
                &registry,
                &registry.participating_ids(),
                params(),
                4,
                sha256(b"width"),
                &reputation,
            )
        };
        let baseline = assign(1);
        let order = proof_order(&baseline, &registry);
        assert_eq!(order.len(), 59);
        assert_eq!(
            order[59 - 3..],
            [70u32, 71, 72].map(NodeId),
            "syncing nodes come last"
        );
        for workers in [2, 3, 8] {
            let wide = assign(workers);
            assert_eq!(wide.referee, baseline.referee);
            for (a, b) in wide.committees.iter().zip(&baseline.committees) {
                assert_eq!(a.members, b.members, "{workers} workers");
                assert_eq!(a.partial_set, b.partial_set);
            }
        }
    }

    #[test]
    fn membership_filter_is_a_noop_for_fully_active_populations() {
        let (registry, reputation) = setup(70);
        let a = assign_round(
            &registry,
            &registry.ids(),
            params(),
            5,
            sha256(b"noop"),
            &reputation,
        );
        let b = assign_round(
            &registry,
            &registry.participating_ids(),
            params(),
            5,
            sha256(b"noop"),
            &reputation,
        );
        assert_eq!(a.referee, b.referee);
        for (ca, cb) in a.committees.iter().zip(&b.committees) {
            assert_eq!(ca.members, cb.members);
        }
    }

    #[test]
    #[should_panic(expected = "not enough participants")]
    fn too_few_participants_panics() {
        let (registry, reputation) = setup(20);
        assign_round(
            &registry,
            &registry.ids(),
            params(),
            1,
            sha256(b"x"),
            &reputation,
        );
    }
}
