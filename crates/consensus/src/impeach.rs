//! The impeachment vote of the recovery procedure (Algorithm 6, Claims 3–4),
//! as a pure machine: plain values in, decisions through
//! [`crate::transition`], no network, no registry, no clock.
//!
//! A prosecutor opens an [`Impeachment`] over its committee's seats with an
//! [`Accusation`]; the machine settles whether the evidence is admissible,
//! says what each member answers when the accusation reaches it
//! ([`Impeachment::member_vote`]), counts the answers that reach the
//! prosecutor ([`Impeachment::on_vote`]) and, when the prosecutor's deadline
//! has passed, gives the [`Verdict`] — the committee's majority first, then
//! the referee committee's own check of the evidence. Sending the envelopes,
//! installing the new leader and the punishment stay with the caller.

use std::marker::PhantomData;

use cycledger_crypto::schnorr::VerifyingKey;
use cycledger_net::topology::NodeId;

use crate::transition::{
    impeachment_passes, signed_accusation_admissible, timeout_accusation_admissible, Paper, Rules,
};
use crate::witness::{EquivocationEvidence, Witness};

/// An accusation against a leader, either backed by a signed witness or by a
/// committee-observable omission (timeout).
#[derive(Clone, Debug)]
// A signed witness dwarfs the timeout variant; accusations are rare,
// short-lived values, so clarity wins over boxing here.
#[allow(clippy::large_enum_variant)]
pub enum Accusation {
    /// A leader-signed witness (equivocation / commitment mismatch).
    Signed(Witness),
    /// A liveness complaint: the leader never proposed / never forwarded.
    /// Honest members approve it only if they observed the omission themselves,
    /// which the simulator encodes in `observed_by_committee`.
    Timeout {
        /// The accused leader.
        leader: NodeId,
        /// The committee that timed out on its leader.
        committee: usize,
        /// True when the committee's honest members actually observed the
        /// omission (false for a fabricated complaint against a live leader).
        observed_by_committee: bool,
    },
}

impl Accusation {
    /// What a partial-set member brings against `leader` of `committee` when
    /// [`needs_recovery`](crate::transition::needs_recovery) sends the
    /// committee to recovery after its consensus: the first equivocation
    /// evidence honest members filed, else the missing proposal or
    /// certificate as a timeout.
    pub fn after_consensus(
        evidence: Option<&EquivocationEvidence>,
        leader: NodeId,
        committee: usize,
        observed_by_committee: bool,
    ) -> Accusation {
        match evidence {
            Some(evidence) => Accusation::Signed(Witness::Equivocation(evidence.clone())),
            None => Accusation::Timeout {
                leader,
                committee,
                observed_by_committee,
            },
        }
    }

    /// The accused leader.
    pub fn accused(&self) -> NodeId {
        match self {
            Accusation::Signed(w) => w.accused(),
            Accusation::Timeout { leader, .. } => *leader,
        }
    }

    /// Approximate wire size (for network accounting).
    pub fn wire_size(&self) -> u64 {
        match self {
            Accusation::Signed(w) => w.wire_size(),
            Accusation::Timeout { .. } => 64,
        }
    }
}

/// How an impeachment ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The approvals that reached the prosecutor are no committee majority.
    NoMajority,
    /// The committee approved, and the referee committee — which re-verifies
    /// the evidence itself — threw it out (Claim 4).
    EvidenceRejected,
    /// The committee approved on evidence the referee committee upholds.
    Evict,
}

/// One impeachment vote over `seats`, from the prosecutor's side. (`Hash` is
/// state identity for an explorer.)
#[derive(Clone, Debug, Hash)]
pub struct Impeachment<'c, R = Paper> {
    seats: &'c [NodeId],
    accused: NodeId,
    evidence_valid: bool,
    /// Seats whose vote has been counted (the prosecutor's own included), in
    /// id order; of those, how many approved.
    voted: Vec<NodeId>,
    approvals: usize,
    rules: PhantomData<R>,
}

impl<'c, R: Rules> Impeachment<'c, R> {
    /// Opens the vote: settles whether `accusation` is admissible — it names
    /// the sitting `leader`, and a signed witness verifies under
    /// `accused_key` — and counts the prosecutor's own answer, which never
    /// travels.
    pub fn open(
        seats: &'c [NodeId],
        leader: NodeId,
        accusation: &Accusation,
        accused_key: &impl VerifyingKey,
        prosecutor: NodeId,
        prosecutor_is_honest: bool,
    ) -> Self {
        let accused = accusation.accused();
        let evidence_valid = match accusation {
            Accusation::Signed(witness) => {
                signed_accusation_admissible(accused == leader, witness.verify(accused_key))
            }
            Accusation::Timeout {
                observed_by_committee,
                ..
            } => timeout_accusation_admissible(accused == leader, *observed_by_committee),
        };
        let mut vote = Impeachment {
            seats,
            accused,
            evidence_valid,
            voted: Vec::with_capacity(seats.len()),
            approvals: 0,
            rules: PhantomData,
        };
        if let Some(approve) = vote.member_vote(prosecutor, prosecutor_is_honest, true) {
            vote.on_vote(prosecutor, approve);
        }
        vote
    }

    /// Whether the accusation was admissible.
    pub fn evidence_valid(&self) -> bool {
        self.evidence_valid
    }

    /// What `member` answers when the accusation reaches it. `None`: it says
    /// nothing — it holds no seat, it is the accused (who never votes on its
    /// own impeachment), or it is a `Syncing` joiner that may not vote yet
    /// (silence counts against approval, the same quorum arithmetic as its
    /// all-`Unknown` transaction votes).
    pub fn member_vote(&self, member: NodeId, is_honest: bool, may_vote: bool) -> Option<bool> {
        let votes = may_vote && member != self.accused && self.seats.contains(&member);
        votes.then(|| R::member_approves_impeachment(is_honest, self.evidence_valid))
    }

    /// An impeachment vote from `sender` reached the prosecutor. Counted —
    /// `true` — once per seated sender other than the accused.
    pub fn on_vote(&mut self, sender: NodeId, approve: bool) -> bool {
        if sender == self.accused || !self.seats.contains(&sender) {
            return false;
        }
        let Err(slot) = self.voted.binary_search(&sender) else {
            return false;
        };
        self.voted.insert(slot, sender);
        self.approvals += usize::from(approve);
        true
    }

    /// Approvals counted so far.
    pub fn approvals(&self) -> usize {
        self.approvals
    }

    /// The outcome over the votes counted so far — final once the
    /// prosecutor's deadline has passed.
    pub fn verdict(&self) -> Verdict {
        if !impeachment_passes(self.approvals, self.seats.len()) {
            Verdict::NoMajority
        } else if !R::referee_upholds(self.evidence_valid) {
            Verdict::EvidenceRejected
        } else {
            Verdict::Evict
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycledger_crypto::schnorr::Keypair;

    const SEATS: [NodeId; 5] = [NodeId(1), NodeId(2), NodeId(3), NodeId(4), NodeId(5)];
    const LEADER: NodeId = SEATS[0];
    const PROSECUTOR: NodeId = SEATS[1];

    /// A vote on a timeout against `accused`, the prosecutor's own answer in.
    fn open(accused: NodeId, observed: bool, prosecutor_is_honest: bool) -> Impeachment<'static> {
        let accusation = Accusation::Timeout {
            leader: accused,
            committee: 0,
            observed_by_committee: observed,
        };
        let key = Keypair::from_seed(b"leader").public;
        Impeachment::open(
            &SEATS,
            LEADER,
            &accusation,
            &key,
            PROSECUTOR,
            prosecutor_is_honest,
        )
    }

    /// An observed timeout against the sitting leader: admissible, one
    /// approval (the honest prosecutor's) of the three a committee of five
    /// needs.
    fn admissible() -> Impeachment<'static> {
        let vote = open(LEADER, true, true);
        assert!(vote.evidence_valid());
        assert_eq!((vote.approvals(), vote.verdict()), (1, Verdict::NoMajority));
        vote
    }

    #[test]
    fn a_majority_on_admissible_evidence_evicts() {
        let mut vote = admissible();
        assert_eq!(vote.member_vote(SEATS[2], true, true), Some(true));
        assert!(vote.on_vote(SEATS[2], true) && vote.on_vote(SEATS[3], false));
        assert_eq!(vote.verdict(), Verdict::NoMajority, "two of five");
        assert!(vote.on_vote(SEATS[4], true));
        assert_eq!((vote.approvals(), vote.verdict()), (3, Verdict::Evict));
    }

    #[test]
    fn the_referee_throws_out_what_only_malicious_members_approved() {
        let mut vote = open(LEADER, false, false);
        assert!(!vote.evidence_valid());
        assert_eq!(vote.member_vote(SEATS[2], true, true), Some(false));
        assert_eq!(vote.member_vote(SEATS[2], false, true), Some(true));
        // Were a majority to approve all the same, Claim 4 still holds.
        assert!(vote.on_vote(SEATS[2], true) && vote.on_vote(SEATS[3], true));
        assert_eq!(vote.verdict(), Verdict::EvidenceRejected);
        // Naming someone other than the sitting leader is never admissible.
        assert!(!open(SEATS[4], true, true).evidence_valid());
    }

    #[test]
    fn the_accused_and_syncing_members_say_nothing() {
        let vote = admissible();
        assert_eq!(vote.member_vote(LEADER, true, true), None);
        assert_eq!(vote.member_vote(SEATS[2], true, false), None);
        assert_eq!(vote.member_vote(NodeId(99), true, true), None);
    }

    // The inline loop this machine replaced added one approval per approving
    // `ImpeachVote` envelope, whoever sent it: each of the next three tests
    // reaches `Evict` under that arithmetic.

    #[test]
    fn an_approval_from_outside_the_committee_is_not_counted() {
        let mut vote = admissible();
        assert!(vote.on_vote(SEATS[2], true) && !vote.on_vote(NodeId(99), true));
        assert_eq!((vote.approvals(), vote.verdict()), (2, Verdict::NoMajority));
    }

    #[test]
    fn an_approval_from_the_accused_is_not_counted() {
        let mut vote = admissible();
        assert!(vote.on_vote(SEATS[2], true) && !vote.on_vote(LEADER, true));
        assert_eq!((vote.approvals(), vote.verdict()), (2, Verdict::NoMajority));
    }

    #[test]
    fn a_second_approval_from_one_member_is_not_counted() {
        let mut vote = admissible();
        assert!(vote.on_vote(SEATS[2], true) && !vote.on_vote(SEATS[2], true));
        assert!(!vote.on_vote(PROSECUTOR, true), "its own is in already");
        assert_eq!((vote.approvals(), vote.verdict()), (2, Verdict::NoMajority));
    }
}
