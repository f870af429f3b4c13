//! The leader re-selection (recovery) procedure — Algorithm 6, §V-D.
//!
//! A partial-set member holding a witness (or a timeout-based censorship
//! report) broadcasts it to its committee and asks for an impeachment vote.
//! Honest members approve only accusations they can verify. If a majority
//! approves, the prosecutor forwards the witness and the vote certificate to the
//! referee committee, which re-verifies it, agrees via Algorithm 3, installs a
//! new leader drawn from the partial set, and punishes the old one (reputation
//! cut to its cube root, §VII-B).

use cycledger_consensus::envelope::CommitteeMessage;
pub use cycledger_consensus::impeach::Accusation;
use cycledger_consensus::impeach::{Impeachment, Verdict};
use cycledger_crypto::sha256::hash_parts;
use cycledger_net::latency::LinkClass;
use cycledger_net::network::{NetEvent, SimNetwork};
use cycledger_net::topology::NodeId;
use cycledger_reputation::ReputationTable;

use crate::committee::Committee;
use crate::engine::env::{Books, RoundEnv, Task};
use crate::phases::intra::vote_deadline;

/// Result of running the recovery procedure for one committee.
#[derive(Clone, Debug)]
pub struct RecoveryOutcome {
    /// Committee index.
    pub committee: usize,
    /// The evicted leader, if the impeachment succeeded.
    pub evicted: Option<NodeId>,
    /// The newly installed leader.
    pub new_leader: Option<NodeId>,
    /// Impeachment approvals counted by the prosecutor (for the refinement
    /// checker: `evicted.is_some()` must imply a committee majority).
    pub approvals: usize,
    /// Why the impeachment failed (for diagnostics / tests).
    pub rejection_reason: Option<&'static str>,
}

/// Timer key: the prosecutor's impeachment-vote deadline.
const IMPEACH_TIMER: u64 = 3;

/// Runs the recovery procedure for one committee given an accusation — the
/// round's `attempt`-th — with the accusation broadcast, impeachment votes
/// and referee notifications travelling as envelopes under a `4Δ` approval
/// deadline. Members the round's plan severs from the prosecutor cannot
/// approve, so an impeachment under partition can fail for lack of a
/// majority.
///
/// On success, mutates `committee` (new leader installed) and `reputation`
/// (cube-root punishment for the old leader).
pub fn run_recovery(
    env: &RoundEnv<'_>,
    attempt: usize,
    committee: &mut Committee,
    accusation: Accusation,
    prosecutor: NodeId,
    reputation: &mut ReputationTable,
) -> (RecoveryOutcome, Books) {
    let (registry, referee) = (env.registry, env.referee);
    let accused = accusation.accused();
    let mut net: SimNetwork<CommitteeMessage> = env.open(Task::Recovery {
        attempt,
        committee: committee.index,
    });

    // The impeachment machine settles admissibility, answers and the count;
    // this function is its transport.
    let node = |id: NodeId| registry.node(id);
    let mut vote: Impeachment<'_> = Impeachment::open(
        &committee.members,
        committee.leader,
        &accusation,
        &node(accused).keypair.public,
        prosecutor,
        node(prosecutor).is_honest(),
    );
    let witness_bytes = accusation.wire_size();

    // 1. The prosecutor broadcasts the accusation.
    let envelope = CommitteeMessage::Accusation {
        committee: committee.index as u32,
        accused,
    };
    for &member in &committee.members {
        if member != prosecutor {
            net.send(
                prosecutor,
                member,
                LinkClass::IntraCommittee,
                envelope.clone(),
                witness_bytes,
            );
        }
    }

    // 2. Members vote on the impeachment; approvals must reach the
    //    prosecutor by the 4Δ deadline.
    net.schedule_timer(vote_deadline(&env.config.latency), IMPEACH_TIMER);
    while let Some(event) = net.next_event() {
        match event {
            NetEvent::Message(msg) => match msg.payload {
                CommitteeMessage::Accusation { .. } => {
                    let member = node(msg.to);
                    let may_vote = member.membership.may_vote();
                    if let Some(approve) = vote.member_vote(msg.to, member.is_honest(), may_vote) {
                        net.send(
                            msg.to,
                            prosecutor,
                            LinkClass::IntraCommittee,
                            CommitteeMessage::ImpeachVote {
                                committee: committee.index as u32,
                                approve,
                            },
                            8,
                        );
                    }
                }
                CommitteeMessage::ImpeachVote { approve, .. } if msg.to == prosecutor => {
                    vote.on_vote(msg.from, approve);
                }
                _ => {}
            },
            NetEvent::Timer {
                key: IMPEACH_TIMER, ..
            } => break,
            NetEvent::Timer { .. } => {}
        }
    }
    let (approvals, verdict) = (vote.approvals(), vote.verdict());

    let index = committee.index;
    let rejected = |reason| RecoveryOutcome {
        committee: index,
        evicted: None,
        new_leader: None,
        approvals,
        rejection_reason: Some(reason),
    };

    if verdict == Verdict::NoMajority {
        let outcome = rejected("impeachment did not reach a committee majority");
        return (outcome, Books::close(net));
    }

    // 3. The prosecutor forwards accusation + vote certificate to C_R, which
    //    re-verifies the evidence itself before acting (Claim 4: malicious
    //    committee votes alone can never evict an honest leader).
    for &rm in &referee.members {
        net.send(
            prosecutor,
            rm,
            LinkClass::KeyMemberMesh,
            envelope.clone(),
            witness_bytes + 8 * approvals as u64,
        );
    }
    if verdict == Verdict::EvidenceRejected {
        let outcome = rejected("referee committee rejected the evidence");
        return (outcome, Books::close(net));
    }

    // 4. C_R agrees (Algorithm 3 among referees; one broadcast round here)
    //    and notifies the committee of the new leader, chosen from the
    //    partial set by a hash lottery over the round randomness.
    for &rm in &referee.members {
        for &member in &committee.members {
            net.send(rm, member, LinkClass::KeyMemberMesh, envelope.clone(), 16);
        }
    }
    let candidates: Vec<NodeId> = committee
        .partial_set
        .iter()
        .copied()
        .filter(|&n| n != accused)
        .collect();
    if candidates.is_empty() {
        let outcome = rejected("no partial-set member available to take over");
        return (outcome, Books::close(net));
    }
    let pick = hash_parts(&[
        b"cycledger/new-leader",
        &env.round.to_be_bytes(),
        &(committee.index as u64).to_be_bytes(),
        &accused.0.to_be_bytes(),
    ])
    .prefix_u64() as usize
        % candidates.len();
    let new_leader = candidates[pick];
    committee.install_leader(new_leader);
    reputation.punish_leader(accused);

    let outcome = RecoveryOutcome {
        committee: committee.index,
        evicted: Some(accused),
        new_leader: Some(new_leader),
        approvals,
        rejection_reason: None,
    };
    (outcome, Books::close(net))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryConfig, Behavior};
    use crate::config::ProtocolConfig;
    use crate::node::NodeRegistry;
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_consensus::witness::{
        member_list_signing_bytes, CommitmentMismatchEvidence, Witness,
    };
    use cycledger_crypto::schnorr::sign;
    use cycledger_crypto::sha256::sha256;
    use cycledger_net::faults::FaultPlan;
    use cycledger_net::metrics::{MetricsSink, Phase};

    struct Fixture {
        registry: NodeRegistry,
        committee: Committee,
        referee: Committee,
        reputation: ReputationTable,
    }

    fn fixture(seed: u64) -> Fixture {
        let registry = NodeRegistry::generate(60, &AdversaryConfig::default(), 100, 0, seed);
        let reputation = ReputationTable::with_members(registry.ids());
        let assignment = assign_round(
            &registry,
            &registry.ids(),
            AssignmentParams {
                committees: 2,
                partial_set_size: 3,
                referee_size: 5,
            },
            1,
            sha256(b"recovery"),
            &reputation,
        );
        let committee = Committee::from_assignment(&assignment.committees[0], &registry);
        let referee = Committee::referee(&assignment.referee, &registry);
        Fixture {
            registry,
            committee,
            referee,
            reputation,
        }
    }

    impl Fixture {
        /// One recovery under the default latency profile and an empty fault
        /// plan.
        fn recover(
            &mut self,
            accusation: Accusation,
            prosecutor: NodeId,
            round: u64,
        ) -> (RecoveryOutcome, MetricsSink) {
            let config = ProtocolConfig {
                seed: 7,
                ..ProtocolConfig::default()
            };
            let env = RoundEnv {
                config: &config,
                registry: &self.registry,
                referee: &self.referee,
                plan: &FaultPlan::default(),
                round,
            };
            let (outcome, books) = run_recovery(
                &env,
                0,
                &mut self.committee,
                accusation,
                prosecutor,
                &mut self.reputation,
            );
            assert_eq!(
                books.counters.net_dropped, 0,
                "nothing drops under an empty plan"
            );
            (outcome, books.metrics)
        }

        /// A commitment-mismatch witness over the real member list, signed
        /// by `signer` in the leader's name.
        fn witness(&self, signer: NodeId, recorded: &[u8]) -> Witness {
            let (committee, list) = (
                &self.committee,
                self.committee.member_list_bytes(&self.registry),
            );
            let signature = sign(
                &self.registry.node(signer).keypair.secret,
                &member_list_signing_bytes(1, committee.index, &list),
            );
            Witness::CommitmentMismatch(CommitmentMismatchEvidence {
                round: 1,
                committee: committee.index,
                leader: committee.leader,
                member_list: list,
                list_signature: signature,
                recorded_commitment: sha256(recorded),
            })
        }
    }

    #[test]
    fn valid_witness_evicts_and_punishes_leader() {
        let mut fx = fixture(101);
        let (old_leader, size) = (fx.committee.leader, fx.committee.size());
        let prosecutor = fx.committee.partial_set[0];
        fx.reputation.add_score(old_leader, 27.0);
        let accusation = Accusation::Signed(fx.witness(old_leader, b"a different commitment"));
        let (outcome, metrics) = fx.recover(accusation, prosecutor, 1);
        assert_eq!(outcome.evicted, Some(old_leader));
        // Everyone but the accused approves; the prosecutor's own approval
        // is counted, never sent.
        assert_eq!(outcome.approvals, size - 1);
        let new_leader = outcome.new_leader.expect("new leader installed");
        assert_ne!(new_leader, old_leader);
        assert_eq!(fx.committee.leader, new_leader);
        assert!(!fx.committee.partial_set.contains(&new_leader));
        // Cube-root punishment: 27 → 3.
        assert!((fx.reputation.get(old_leader) - 3.0).abs() < 1e-9);
        let recovery = Phase::Recovery;
        assert!(metrics.phase_total(recovery).msgs_sent > 0);
        // The prosecutor hears one vote from every member but the accused and
        // itself, then the verdict from each referee.
        assert_eq!(
            metrics.node_phase(prosecutor, recovery).msgs_received as usize,
            (size - 2) + fx.referee.size()
        );
    }

    #[test]
    fn forged_witness_cannot_frame_an_honest_leader() {
        let mut fx = fixture(102);
        let honest_leader = fx.committee.leader;
        // The false accuser forges "evidence" signed with its own key.
        let accuser = fx.committee.partial_set[0];
        let forged = fx.witness(accuser, b"fake");
        let (outcome, _) = fx.recover(Accusation::Signed(forged), accuser, 1);
        assert_eq!(outcome.evicted, None);
        assert!(outcome.rejection_reason.is_some());
        assert_eq!(
            fx.committee.leader, honest_leader,
            "leader must keep its seat"
        );
        assert_eq!(
            fx.reputation.get(honest_leader),
            0.0,
            "no punishment applied"
        );
    }

    #[test]
    fn observed_timeout_evicts_silent_leader() {
        let mut fx = fixture(103);
        let old_leader = fx.committee.leader;
        fx.registry.set_behavior(old_leader, Behavior::SilentLeader);
        let honest = |pm: &NodeId| fx.registry.node(*pm).is_honest();
        let prosecutor = fx.committee.partial_set.iter().copied().find(honest);
        let accusation = Accusation::Timeout {
            leader: old_leader,
            committee: fx.committee.index,
            observed_by_committee: true,
        };
        let (outcome, _) = fx.recover(accusation, prosecutor.unwrap(), 2);
        assert_eq!(outcome.evicted, Some(old_leader));
        assert!(outcome.new_leader.is_some());
    }

    #[test]
    fn unobserved_timeout_accusation_is_rejected() {
        let mut fx = fixture(104);
        let leader = fx.committee.leader;
        let accuser = fx.committee.partial_set[0];
        let accusation = Accusation::Timeout {
            leader,
            committee: fx.committee.index,
            observed_by_committee: false,
        };
        let (outcome, _) = fx.recover(accusation, accuser, 2);
        assert_eq!(outcome.evicted, None);
        assert_eq!(fx.committee.leader, leader);
    }
}
