//! Committees and the network-driven execution of Algorithm 3.
//!
//! [`run_inside_consensus`] takes a committee, a leader payload and a leader
//! fault mode, and plays the full PROPOSE / ECHO / CONFIRM exchange over the
//! simulated network: every message is signed, routed, delayed and charged to
//! the metrics sink, and every honest member runs the
//! [`cycledger_consensus::MemberState`] machine. The outcome carries the quorum
//! certificate (if one was produced) with the instance's verdict memo beside
//! it, any equivocation evidence honest members extracted, and the payload the
//! honest majority accepted.

use std::collections::BTreeMap;

use cycledger_consensus::alg3::{LeaderState, MemberAction, MemberState};
use cycledger_consensus::envelope::CarriesAlg3;
use cycledger_consensus::messages::{
    make_propose, make_propose_unsigned, Alg3Message, ConsensusId,
};
use cycledger_consensus::quorum::{CommitteeKeys, QuorumCertificate};
use cycledger_consensus::sigcache::{SigCache, Verdicts};
use cycledger_consensus::witness::EquivocationEvidence;
use cycledger_net::latency::LinkClass;
use cycledger_net::network::SimNetwork;
use cycledger_net::topology::NodeId;

use crate::adversary::Behavior;
use crate::node::NodeRegistry;
use crate::sortition::CommitteeAssignment;

/// A committee instantiated for execution: the assignment plus the key
/// directory its members learned during committee configuration.
#[derive(Clone, Debug)]
pub struct Committee {
    /// Which committee this is (also the shard index).
    pub index: usize,
    /// The current leader.
    pub leader: NodeId,
    /// The partial set.
    pub partial_set: Vec<NodeId>,
    /// All members (leader first).
    pub members: Vec<NodeId>,
    /// Public keys of all members.
    pub keys: CommitteeKeys,
}

impl Committee {
    /// Builds a committee from its assignment and the node registry.
    pub fn from_assignment(assignment: &CommitteeAssignment, registry: &NodeRegistry) -> Self {
        Committee {
            index: assignment.index,
            leader: assignment.leader,
            partial_set: assignment.partial_set.clone(),
            members: assignment.members.clone(),
            keys: registry.committee_keys(&assignment.members),
        }
    }

    /// The referee committee `C_R` over `members`: its first member leads,
    /// it has no partial set, and its index is `usize::MAX`.
    pub fn referee(members: &[NodeId], registry: &NodeRegistry) -> Self {
        Committee {
            index: usize::MAX,
            leader: members[0],
            partial_set: Vec::new(),
            members: members.to_vec(),
            keys: registry.committee_keys(members),
        }
    }

    /// Committee size `C`.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Majority threshold `⌊C/2⌋ + 1` (delegates to the shared decision core).
    pub fn majority(&self) -> usize {
        cycledger_consensus::transition::majority_threshold(self.size())
    }

    /// True if `node` belongs to this committee.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// Replaces the leader (after a recovery) with a member of the partial set;
    /// the old leader stays an ordinary member for the rest of the round.
    pub fn install_leader(&mut self, new_leader: NodeId) {
        assert!(self.contains(new_leader), "new leader must be a member");
        self.leader = new_leader;
        self.partial_set.retain(|&n| n != new_leader);
    }

    /// The serialized member list `S` whose hash is the semi-commitment.
    pub fn member_list_bytes(&self, registry: &NodeRegistry) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.members.len() * 68);
        for &m in &self.members {
            out.extend_from_slice(&m.0.to_be_bytes());
            out.extend_from_slice(&registry.node(m).keypair.public.to_bytes());
        }
        out
    }
}

/// How the leader misbehaves during one Algorithm 3 instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LeaderFault {
    /// Follows the protocol.
    None,
    /// Sends nothing.
    Silent,
    /// Sends `payload` to the first half of the committee and `alternate` to the
    /// second half.
    Equivocate {
        /// The conflicting payload delivered to the second half.
        alternate: Vec<u8>,
    },
}

impl LeaderFault {
    /// Derives the fault mode for an Algorithm 3 instance from a node behaviour.
    pub fn from_behavior(behavior: Behavior, payload: &[u8]) -> LeaderFault {
        match behavior {
            Behavior::SilentLeader => LeaderFault::Silent,
            Behavior::EquivocatingLeader => {
                let mut alternate = payload.to_vec();
                alternate.extend_from_slice(b"/equivocated");
                LeaderFault::Equivocate { alternate }
            }
            _ => LeaderFault::None,
        }
    }
}

/// Result of one network-driven Algorithm 3 instance.
#[derive(Clone, Debug)]
pub struct InsideConsensusOutcome {
    /// The certificate produced by the leader, if the instance completed.
    pub certificate: Option<QuorumCertificate>,
    /// Every signature verdict the instance reached, the certificate's
    /// CONFIRMs among them: whoever receives the certificate checks it against
    /// this ([`QuorumCertificate::verify_memoized`]) and so verifies only what
    /// the instance did not.
    pub memo: Verdicts,
    /// The payload accepted by the honest majority (None if the instance never
    /// started, e.g. a silent leader).
    pub accepted_payload: Option<Vec<u8>>,
    /// Equivocation evidence produced by honest members (empty when the leader
    /// behaved).
    pub equivocation: Vec<EquivocationEvidence>,
    /// Total messages exchanged in this instance.
    pub messages: u64,
}

/// Runs one Algorithm 3 instance for `committee` over `net`.
///
/// `malicious_members` (typically nodes whose behaviour is malicious and who are
/// not the leader) stay silent during the instance — the worst they can do to an
/// instance led by an honest leader, since forged messages are rejected anyway.
///
/// Generic over the envelope type: the phases whose whole exchange is the
/// instance (semi-commitment, reputation, block generation) and the benches
/// run it over a plain [`Alg3Message`] network, the intra- and inter-committee
/// phases over a [`cycledger_consensus::envelope::CommitteeMessage`] network
/// (whose non-Alg3 envelopes still in flight — e.g. late vote replies — are
/// drained and ignored). The event loop ends at quiescence, so a network whose fault
/// plan severs part of the committee simply yields fewer CONFIRMs and
/// possibly no certificate — the caller's recovery path takes it from there.
///
/// Every caller in the workspace passes `verify_signatures = true`. `false`
/// (placeholder signatures, nothing checked) is kept for one caller outside
/// it, `benchmark/src/probes.rs`, whose `consensus.probe.alg3_unverified_ms`
/// times what an instance costs besides its signatures.
#[allow(clippy::too_many_arguments)]
pub fn run_inside_consensus<M: CarriesAlg3>(
    net: &mut SimNetwork<M>,
    committee: &Committee,
    registry: &NodeRegistry,
    id: ConsensusId,
    payload: Vec<u8>,
    fault: LeaderFault,
    verify_signatures: bool,
) -> InsideConsensusOutcome {
    let leader_node = committee.leader;
    let leader_key = registry.node(leader_node).keypair;
    let mut messages = 0u64;

    if fault == LeaderFault::Silent {
        // The leader never proposes; nothing happens in this instance. The
        // timeout-based detection lives at the phase level (the partial set
        // notices the missing proposal after the phase deadline).
        return InsideConsensusOutcome {
            certificate: None,
            memo: Verdicts::default(),
            accepted_payload: None,
            equivocation: Vec::new(),
            messages: 0,
        };
    }

    // Build the proposals the leader will distribute. On the fast path
    // (verification off) nothing will ever check the Schnorr signatures, so
    // the leader attaches placeholders instead of paying a curve
    // multiplication per proposal; digests and wire sizes are unchanged.
    let main_propose = if verify_signatures {
        make_propose(id, payload, leader_node, &leader_key)
    } else {
        make_propose_unsigned(id, payload, leader_node)
    };
    let alt_propose = match &fault {
        LeaderFault::Equivocate { alternate } => Some(if verify_signatures {
            make_propose(id, alternate.clone(), leader_node, &leader_key)
        } else {
            make_propose_unsigned(id, alternate.clone(), leader_node)
        }),
        _ => None,
    };

    // Per-member state machines (the leader participates as a member too).
    // All state machines of one instance share a signature-verification memo:
    // the same multicast signature is then checked once for the whole
    // committee instead of once per receiver (same ground-truth-sharing idiom
    // as the per-transaction validity table in the inter-consensus phase).
    let sig_cache = SigCache::new();
    let mut members: BTreeMap<NodeId, MemberState> = BTreeMap::new();
    for &node in &committee.members {
        let mut state = MemberState::new(
            node,
            registry.node(node).keypair,
            leader_node,
            id,
            committee.keys.clone(),
        );
        state.set_verify_signatures(verify_signatures);
        state.set_sig_cache(sig_cache.clone());
        members.insert(node, state);
    }
    let mut leader_state = LeaderState::new(id, main_propose.digest, committee.keys.clone());
    leader_state.set_verify_signatures(verify_signatures);
    leader_state.set_sig_cache(sig_cache.clone());

    // Malicious non-leader members do not participate (worst case:
    // withholding), and neither do `Syncing` joiners — they abstain from all
    // consensus traffic until state sync verifies their chain.
    let silent_members: std::collections::HashSet<NodeId> = committee
        .members
        .iter()
        .copied()
        .filter(|&n| {
            n != leader_node
                && (registry.node(n).behavior.is_malicious()
                    || !registry.node(n).membership.may_vote())
        })
        .collect();

    // Step 1: the leader multicasts the proposal(s).
    for (idx, &node) in committee
        .members
        .iter()
        .enumerate()
        .filter(|(_, &n)| n != leader_node)
    {
        let propose = match (&fault, &alt_propose) {
            (LeaderFault::Equivocate { .. }, Some(alt)) if idx % 2 == 1 => alt.clone(),
            _ => main_propose.clone(),
        };
        let message = Alg3Message::Propose(propose);
        let size = message.wire_size();
        net.send(
            leader_node,
            node,
            LinkClass::IntraCommittee,
            M::from_alg3(message),
            size,
        );
        messages += 1;
    }
    // The leader processes its own proposal locally (no network hop).
    let mut pending_local: Vec<(NodeId, Vec<MemberAction>)> = Vec::new();
    if let Some(state) = members.get_mut(&leader_node) {
        let actions = state.handle_propose(&main_propose);
        pending_local.push((leader_node, actions));
    }

    let mut equivocation: Vec<EquivocationEvidence> = Vec::new();
    let mut certificate: Option<QuorumCertificate> = None;

    // Helper that routes a batch of member actions onto the network.
    let dispatch = |from: NodeId,
                    actions: Vec<MemberAction>,
                    net: &mut SimNetwork<M>,
                    equivocation: &mut Vec<EquivocationEvidence>,
                    messages: &mut u64| {
        for action in actions {
            match action {
                MemberAction::BroadcastEcho(echo) => {
                    if silent_members.contains(&from) {
                        continue;
                    }
                    let size = Alg3Message::Echo(echo.clone()).wire_size();
                    for &target in &committee.members {
                        if target == from {
                            continue;
                        }
                        let message = Alg3Message::Echo(echo.clone());
                        net.send(
                            from,
                            target,
                            LinkClass::IntraCommittee,
                            M::from_alg3(message),
                            size,
                        );
                        *messages += 1;
                    }
                }
                MemberAction::SendConfirm(confirm) => {
                    if silent_members.contains(&from) {
                        continue;
                    }
                    let message = Alg3Message::Confirm(confirm);
                    let size = message.wire_size();
                    net.send(
                        from,
                        leader_node,
                        LinkClass::IntraCommittee,
                        M::from_alg3(message),
                        size,
                    );
                    *messages += 1;
                }
                MemberAction::ReportEquivocation(evidence) => {
                    equivocation.push(evidence);
                }
            }
        }
    };

    for (from, actions) in pending_local {
        dispatch(from, actions, net, &mut equivocation, &mut messages);
    }

    // Event loop: pump the network until the instance quiesces. Envelopes
    // that are not Algorithm 3 traffic (possible on a shared message-driven
    // network, e.g. vote replies that missed the leader's deadline) are
    // drained and ignored.
    while let Some(envelope) = net.deliver_next() {
        let to = envelope.to;
        let Some(alg3) = envelope.payload.into_alg3() else {
            continue;
        };
        match alg3 {
            Alg3Message::Propose(p) => {
                if let Some(state) = members.get_mut(&to) {
                    let actions = state.handle_propose(&p);
                    dispatch(to, actions, net, &mut equivocation, &mut messages);
                }
            }
            Alg3Message::Echo(e) => {
                if let Some(state) = members.get_mut(&to) {
                    let actions = state.handle_echo(&e);
                    dispatch(to, actions, net, &mut equivocation, &mut messages);
                }
            }
            Alg3Message::Confirm(c) => {
                if to == leader_node {
                    if let Some(cert) = leader_state.handle_confirm(&c) {
                        certificate = Some(cert);
                    }
                }
            }
        }
    }

    // What did the honest majority accept? (Relevant mostly for the equivocation
    // case, where different halves saw different payloads.)
    let mut payload_counts: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
    for (&node, state) in &members {
        if node != leader_node
            && (registry.node(node).behavior.is_malicious()
                || !registry.node(node).membership.may_vote())
        {
            continue;
        }
        if let Some(p) = state.accepted_payload() {
            *payload_counts.entry(p.to_vec()).or_insert(0) += 1;
        }
    }
    let accepted_payload = payload_counts
        .into_iter()
        .max_by_key(|(_, count)| *count)
        .map(|(p, _)| p);

    InsideConsensusOutcome {
        certificate,
        memo: sig_cache.into_verdicts(),
        accepted_payload,
        equivocation,
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryConfig;
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_consensus::messages::make_confirm;
    use cycledger_consensus::quorum::verify_certs_batch;
    use cycledger_crypto::schnorr::Keypair;
    use cycledger_crypto::sha256::sha256;
    use cycledger_net::latency::LatencyConfig;
    use cycledger_net::metrics::Phase;
    use cycledger_reputation::ReputationTable;
    use proptest::prelude::*;

    fn build_committee(adversary: AdversaryConfig, seed: u64) -> (Committee, NodeRegistry) {
        let registry = NodeRegistry::generate(60, &adversary, 100, 0, seed);
        let reputation = ReputationTable::with_members(registry.ids());
        let assignment = assign_round(
            &registry,
            &registry.ids(),
            AssignmentParams {
                committees: 3,
                partial_set_size: 3,
                referee_size: 5,
            },
            1,
            sha256(b"committee-test"),
            &reputation,
        );
        (
            Committee::from_assignment(&assignment.committees[0], &registry),
            registry,
        )
    }

    fn consensus_id() -> ConsensusId {
        ConsensusId { round: 1, seq: 1 }
    }

    #[test]
    fn honest_committee_reaches_consensus_over_network() {
        let (committee, registry) = build_committee(AdversaryConfig::default(), 5);
        let mut net: SimNetwork<Alg3Message> = SimNetwork::new(LatencyConfig::default(), 1);
        net.set_phase(Phase::IntraCommitteeConsensus);
        let outcome = run_inside_consensus(
            &mut net,
            &committee,
            &registry,
            consensus_id(),
            b"the TXdecSET".to_vec(),
            LeaderFault::None,
            true,
        );
        let cert = outcome.certificate.expect("consensus must complete");
        assert_eq!(cert.verify_majority(&committee.keys), Ok(()));
        assert_eq!(
            outcome.accepted_payload.as_deref(),
            Some(&b"the TXdecSET"[..])
        );
        assert!(outcome.equivocation.is_empty());
        assert!(cert.signer_count() >= committee.majority());
        assert!(outcome.messages > committee.size() as u64);
        // Traffic was charged to the metrics sink.
        let leader_counters = net
            .metrics()
            .node_phase(committee.leader, Phase::IntraCommitteeConsensus);
        assert!(leader_counters.msgs_sent as usize >= committee.size() - 1);
    }

    /// What one honest instance spends, exactly. The committee has 15
    /// members — the size closest to c = 16 that sortition hands out at
    /// 8×16, and the one `consensus.probe.alg3_msgs` reports: 14 PROPOSEs,
    /// 15 × 14 ECHOes and 15 CONFIRMs are 239 envelopes, each with one
    /// latency draw of 18 SHA-256 compressions — 4 302 of the 7 303. The
    /// other 105 generators are nonces, challenges and batch coefficients.
    /// At commit b85479e, where a one-shot generator cost 14 compressions
    /// more, the same instance hashed 12 119 blocks, 7 648 of them in draws.
    #[cfg(feature = "opcount")]
    #[test]
    fn honest_instance_envelopes_and_draws_are_pinned() {
        use cycledger_crypto::opcount::scope;
        let registry = NodeRegistry::generate(15, &AdversaryConfig::default(), 100, 0, 4242);
        let members = registry.ids();
        let committee = Committee {
            index: 0,
            leader: members[0],
            partial_set: members[1..4].to_vec(),
            keys: registry.committee_keys(&members),
            members,
        };
        let run = |seq: u64| {
            let mut net: SimNetwork<Alg3Message> = SimNetwork::new(LatencyConfig::default(), 4242);
            let outcome = run_inside_consensus(
                &mut net,
                &committee,
                &registry,
                ConsensusId { round: 0, seq },
                vec![0xA5u8; 3200],
                LeaderFault::None,
                true,
            );
            assert!(outcome.certificate.is_some());
            outcome.messages
        };
        run(1); // builds the static tables and the zero-key schedule
        let mut messages = 0;
        let tally = scope(|| messages = run(2));
        println!("{tally:?}");
        assert_eq!(messages, 239);
        assert_eq!(
            (tally.envelopes_sent, tally.latency_draws, tally.fault_draws),
            (239, 239, 0)
        );
        assert_eq!(
            (tally.drbg_instantiations, tally.sha256_blocks),
            (344, 7303)
        );
    }

    /// An honest instance of `committee` under `id`: its certificate and the
    /// verdict memo it leaves behind.
    fn certified(
        committee: &Committee,
        registry: &NodeRegistry,
        id: ConsensusId,
    ) -> (QuorumCertificate, Verdicts) {
        let mut net: SimNetwork<Alg3Message> = SimNetwork::new(LatencyConfig::default(), id.seq);
        let payload = b"the certified payload".to_vec();
        let fault = LeaderFault::None;
        let outcome = run_inside_consensus(&mut net, committee, registry, id, payload, fault, true);
        let certificate = outcome.certificate.expect("honest instance certifies");
        (certificate, outcome.memo)
    }

    /// One way to spoil a certificate; `a` and `b` pick the signatures.
    fn tamper(
        kind: usize,
        (a, b): (usize, usize),
        cert: &mut QuorumCertificate,
        committee: &Committee,
        registry: &NodeRegistry,
    ) {
        let n = cert.signatures.len();
        let (a, b) = (a % n, (a % n + 1 + b % (n - 1)) % n);
        let (member, signature) = cert.signatures[a];
        let confirm = |digest, keypair| make_confirm(cert.id, digest, member, keypair, vec![]);
        match kind {
            0 => {}
            // The same member's valid signature, over another digest.
            1 => {
                let keypair = registry.node(member).keypair;
                cert.signatures[a].1 = confirm(sha256(b"another digest"), &keypair).signature;
            }
            // Another member's CONFIRM signature.
            2 => cert.signatures[a].1 = cert.signatures[b].1,
            // A forged `(R, s)`: the right bytes under somebody else's key.
            3 => {
                let forger = Keypair::from_seed(b"not a member's key");
                cert.signatures[a].1 = confirm(cert.digest, &forger).signature;
            }
            // A signer counted twice, a signer from outside the committee.
            4 => cert.signatures.push((member, signature)),
            5 => cert.signatures.push((NodeId(u32::MAX), signature)),
            6 => cert.signatures.truncate(committee.majority() - 1),
            // The whole certificate under another round's instance, or under
            // the instance this committee runs on the other side of a phase.
            7 => cert.id.round += 1,
            8 => cert.id.seq += 1_000,
            _ => unreachable!("nine kinds"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Whatever is done to a certificate, and whichever memo it is
        /// checked against — its own instance's (which knows every signature
        /// it was formed from), another instance's, none — the verdict is
        /// the sequential, memo-less one.
        #[test]
        fn prop_a_warm_memo_never_changes_a_certificate_verdict(
            kind in 0usize..9,
            a in 0usize..64,
            b in 0usize..64,
            whose_memo in 0usize..3,
        ) {
            let (committee, registry) = build_committee(AdversaryConfig::default(), 12);
            let id = ConsensusId { round: 3, seq: 2_000 };
            let (mut cert, own) = certified(&committee, &registry, id);
            // The same committee and payload one round on: same digest, same
            // signers, every signature over other bytes.
            let next = ConsensusId { round: 4, ..id };
            let (_, foreign) = certified(&committee, &registry, next);
            tamper(kind, (a, b), &mut cert, &committee, &registry);

            let (keys, majority) = (&committee.keys, committee.majority());
            let reference = cert.verify(keys, majority);
            prop_assert_eq!(reference.is_ok(), kind == 0);
            prop_assert_eq!(verify_certs_batch(&[(&cert, keys, majority)]), [reference]);
            let memo = SigCache::from([own, foreign, Verdicts::default()][whose_memo].clone());
            prop_assert_eq!(cert.verify_memoized(keys, majority, &memo), reference);
            // Again, every miss now memoised: a `false` stays `false`.
            prop_assert_eq!(cert.verify_memoized(keys, majority, &memo), reference);
        }
    }

    /// What forged signatures cost a receiver that holds the instance's memo:
    /// a lookup per signature, then the k it has never seen as one batch and
    /// — the batch failing — one check each. (At commit ee421ab: the round's
    /// combined batch, this certificate's batch, then every one of its
    /// signatures singly.)
    #[cfg(feature = "opcount")]
    #[test]
    fn forged_signatures_cost_one_batch_and_one_check_per_miss() {
        use cycledger_crypto::opcount::scope;
        let (committee, registry) = build_committee(AdversaryConfig::default(), 12);
        let (cert, memo) = certified(&committee, &registry, consensus_id());
        let n = cert.signer_count() as u64;
        for k in 0..4 {
            let mut cert = cert.clone();
            for a in 0..k {
                tamper(3, (a, 0), &mut cert, &committee, &registry);
            }
            let memo = SigCache::from(memo.clone());
            let (keys, majority) = (&committee.keys, committee.majority());
            let mut verdict = Ok(());
            let tally = scope(|| verdict = cert.verify_memoized(keys, majority, &memo));
            assert_eq!(verdict.is_ok(), k == 0);
            let k = k as u64;
            let batched = if k > 1 { (1, k) } else { (0, 0) };
            assert_eq!(
                (tally.sig_batches, tally.sigs_batched),
                batched,
                "{k} forged"
            );
            assert_eq!(
                (tally.sigs_single, tally.memo_lookups),
                (k, n + k),
                "{k} forged"
            );
        }
    }

    #[test]
    fn silent_leader_produces_nothing() {
        let (committee, registry) = build_committee(AdversaryConfig::default(), 6);
        let mut net: SimNetwork<Alg3Message> = SimNetwork::new(LatencyConfig::default(), 2);
        let outcome = run_inside_consensus(
            &mut net,
            &committee,
            &registry,
            consensus_id(),
            b"payload".to_vec(),
            LeaderFault::Silent,
            true,
        );
        assert!(outcome.certificate.is_none());
        assert!(outcome.accepted_payload.is_none());
        assert_eq!(outcome.messages, 0);
    }

    #[test]
    fn equivocating_leader_is_detected() {
        let (committee, registry) = build_committee(AdversaryConfig::default(), 7);
        let mut net: SimNetwork<Alg3Message> = SimNetwork::new(LatencyConfig::default(), 3);
        let outcome = run_inside_consensus(
            &mut net,
            &committee,
            &registry,
            consensus_id(),
            b"list A".to_vec(),
            LeaderFault::Equivocate {
                alternate: b"list B".to_vec(),
            },
            true,
        );
        assert!(
            !outcome.equivocation.is_empty(),
            "honest members must produce equivocation evidence"
        );
        let leader_pk = registry.node(committee.leader).keypair.public;
        for evidence in &outcome.equivocation {
            assert!(evidence.verify(&leader_pk));
        }
    }

    #[test]
    fn consensus_survives_minority_of_silent_members() {
        // Corrupt just under half of this committee's non-leader members (they
        // withhold all Algorithm 3 traffic); the honest majority still completes
        // the instance.
        let (committee, mut registry) = build_committee(AdversaryConfig::default(), 8);
        let non_leader: Vec<NodeId> = committee
            .members
            .iter()
            .copied()
            .filter(|&n| n != committee.leader)
            .collect();
        let corrupt = (committee.size() - 1) / 2 - 1;
        for &member in non_leader.iter().take(corrupt) {
            registry.set_behavior(member, Behavior::WrongVoter);
        }
        let mut net: SimNetwork<Alg3Message> = SimNetwork::new(LatencyConfig::default(), 4);
        let outcome = run_inside_consensus(
            &mut net,
            &committee,
            &registry,
            consensus_id(),
            b"payload".to_vec(),
            LeaderFault::None,
            true,
        );
        let cert = outcome.certificate.expect("honest majority suffices");
        assert!(cert.signer_count() >= committee.majority());
    }

    #[test]
    fn fast_path_without_verification_matches_outcome() {
        let (committee, registry) = build_committee(AdversaryConfig::default(), 9);
        let run = |verify: bool| {
            let mut net: SimNetwork<Alg3Message> = SimNetwork::new(LatencyConfig::default(), 5);
            run_inside_consensus(
                &mut net,
                &committee,
                &registry,
                consensus_id(),
                b"same payload".to_vec(),
                LeaderFault::None,
                verify,
            )
        };
        let with = run(true);
        let without = run(false);
        assert_eq!(with.certificate.is_some(), without.certificate.is_some());
        assert_eq!(with.accepted_payload, without.accepted_payload);
        assert_eq!(with.messages, without.messages);
    }

    #[test]
    fn committee_helpers() {
        let (mut committee, registry) = build_committee(AdversaryConfig::default(), 10);
        assert!(committee.contains(committee.leader));
        assert!(committee.majority() > committee.size() / 2);
        let list = committee.member_list_bytes(&registry);
        assert_eq!(list.len(), committee.size() * 68);
        let new_leader = committee.partial_set[0];
        committee.install_leader(new_leader);
        assert_eq!(committee.leader, new_leader);
        assert!(!committee.partial_set.contains(&new_leader));
    }

    #[test]
    #[should_panic(expected = "new leader must be a member")]
    fn installing_foreign_leader_panics() {
        let (mut committee, _) = build_committee(AdversaryConfig::default(), 11);
        committee.install_leader(NodeId(9999));
    }
}
