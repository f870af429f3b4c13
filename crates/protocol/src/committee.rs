//! Committees and the network-driven execution of Algorithm 3.
//!
//! [`run_inside_consensus`] is the transport of one
//! [`cycledger_consensus::alg3::Instance`] over the simulated network: what
//! the instance asks to have sent is routed, delayed and charged to the
//! metrics sink, what arrives is handed back to it. The outcome carries the
//! quorum certificate (if one was produced) with the instance's verdict memo
//! beside it and any equivocation evidence honest members extracted.

use cycledger_consensus::alg3::{Action, Instance, Seats};
use cycledger_consensus::envelope::CarriesAlg3;
use cycledger_consensus::messages::{Alg3Message, ConsensusId};
use cycledger_consensus::quorum::{CommitteeKeys, QuorumCertificate};
use cycledger_consensus::sigcache::{SigCache, Verdicts};
use cycledger_consensus::witness::EquivocationEvidence;
use cycledger_crypto::schnorr::Keypair;
use cycledger_net::latency::LinkClass;
use cycledger_net::network::SimNetwork;
use cycledger_net::topology::NodeId;

pub use cycledger_consensus::alg3::LeaderFault;

use crate::node::{NodeRegistry, SimNode};
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
    /// Equivocation evidence produced by honest members (empty when the leader
    /// behaved).
    pub equivocation: Vec<EquivocationEvidence>,
    /// Total messages exchanged in this instance.
    pub messages: u64,
}

/// Runs one Algorithm 3 instance for `committee` over `net`: opens the
/// [`Instance`], puts what it asks for on the network as `IntraCommittee`
/// envelopes, hands it every Algorithm 3 envelope the network delivers, and
/// closes it at quiescence.
///
/// Non-leader members that are malicious or still `Syncing` are seated mute
/// ([`Seats::mute`]). Generic over the envelope type: the phases whose whole
/// exchange is the instance (semi-commitment, reputation, block generation)
/// and the benches run it over a plain [`Alg3Message`] network, the intra-
/// and inter-committee phases over a
/// [`cycledger_consensus::envelope::CommitteeMessage`] network, whose other
/// envelopes still in flight — e.g. late vote replies — are drained and
/// ignored. A network whose fault plan severs part of the committee simply
/// yields fewer CONFIRMs and possibly no certificate — the caller's recovery
/// path takes it from there.
///
/// Every caller in the workspace passes `verify_signatures = true`. `false`
/// (placeholder signatures, nothing checked) is kept for one caller outside
/// it, `benchmark/src/probes.rs`, whose `consensus.probe.alg3_unverified_ms`
/// times what an instance costs besides its signatures.
pub fn run_inside_consensus<M: CarriesAlg3>(
    net: &mut SimNetwork<M>,
    committee: &Committee,
    registry: &NodeRegistry,
    id: ConsensusId,
    payload: Vec<u8>,
    fault: LeaderFault,
    verify_signatures: bool,
) -> InsideConsensusOutcome {
    let seated = committee.members.iter().map(|&node| registry.node(node));
    let keypairs: Vec<Keypair> = seated.clone().map(|node| node.keypair).collect();
    let withholds = |node: &SimNode| node.behavior.is_malicious() || !node.membership.may_vote();
    let mute = seated.map(|node| node.id != committee.leader && withholds(node));
    let mute: Vec<bool> = mute.collect();
    let seats = Seats {
        nodes: &committee.members,
        keypairs: &keypairs,
        mute: &mute,
        keys: &committee.keys,
        leader: committee.leader,
    };
    let (verify, memo) = (verify_signatures, SigCache::new());
    let mut asked = Vec::new();
    let mut instance = Instance::open(seats, id, payload, fault, verify, memo, &mut asked);
    let mut messages = 0;
    loop {
        for Action { from, to, message } in asked.drain(..) {
            let (size, class) = (message.wire_size(), LinkClass::IntraCommittee);
            let mut post = |to: NodeId, message: Alg3Message| {
                net.send(from, to, class, M::from_alg3(message), size);
                messages += 1;
            };
            match to {
                Some(to) => post(to, message),
                // An ECHO: one envelope per other member, in committee order.
                None => {
                    let others = committee.members.iter().filter(|&&to| to != from);
                    others.for_each(|&to| post(to, message.clone()));
                }
            }
        }
        let Some(envelope) = net.deliver_next() else {
            break;
        };
        if let Some(message) = envelope.payload.into_alg3() {
            instance.deliver(envelope.to, &message, &mut asked);
        }
    }
    let (certificate, memo, equivocation) = instance.close();
    InsideConsensusOutcome {
        certificate,
        memo,
        equivocation,
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryConfig, Behavior};
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_consensus::messages::{make_confirm, payload_digest};
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
        assert_eq!(cert.digest, payload_digest(b"the TXdecSET"));
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
    /// latency draw of one SHA-256 compression, and building the network
    /// keys its three draws with three more — 242 of the 3 243. The 105
    /// generators are nonces, challenges and batch coefficients. While a
    /// latency draw was an HMAC-DRBG of its own (commit 8a5a2b3) the same
    /// instance made 344 generators and hashed 7 303 blocks, 4 302 of them
    /// in draws; at commit b85479e, 12 119.
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
            (105, 3243)
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
        assert!(outcome.certificate.is_none() && outcome.equivocation.is_empty());
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
        let certified = |outcome: &InsideConsensusOutcome| {
            let certificate = outcome.certificate.as_ref().expect("certifies either way");
            (certificate.digest, certificate.signer_count())
        };
        assert_eq!(certified(&with), certified(&without));
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
