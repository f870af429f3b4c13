//! Witnesses of leader misbehaviour.
//!
//! The paper defines a witness as a pair of messages `W = (m_l, m_0)` where
//! `m_l` is signed by the leader and the pair together proves the leader broke
//! the protocol (§V-D). Two concrete witness shapes arise in CycLedger:
//!
//! * **Equivocation** — the leader signed two *different* digests for the same
//!   `(r, sn)` consensus instance (caught during Algorithm 3).
//! * **Commitment mismatch** — the leader signed a member list `S` whose hash
//!   does not equal the semi-commitment the referee committee distributed
//!   (caught during semi-commitment verification, Algorithm 4 step 3).
//!
//! Claims 3 and 4 say the recovery procedure is complete and sound: a faulty
//! leader is always caught (the partial set sees every protocol message) and an
//! honest leader can never be framed (a witness requires the leader's own
//! signature, which cannot be forged). The verification functions here are what
//! the referee committee runs before evicting a leader.

use cycledger_crypto::schnorr::{verify, Signature, VerifyingKey};
use cycledger_crypto::sha256::{hash_parts, Digest};
use cycledger_net::topology::NodeId;

use crate::messages::{propose_signing_bytes, ConsensusId};

/// Proof that a leader signed two different digests for one consensus instance.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EquivocationEvidence {
    /// The consensus instance.
    pub id: ConsensusId,
    /// The accused leader.
    pub leader: NodeId,
    /// First digest and the leader's signature over it.
    pub digest_a: Digest,
    /// Signature over `(id, digest_a)`.
    pub sig_a: Signature,
    /// Second, different digest.
    pub digest_b: Digest,
    /// Signature over `(id, digest_b)`.
    pub sig_b: Signature,
}

impl EquivocationEvidence {
    /// Verifies the evidence against the leader's public key: both signatures
    /// must be valid leader signatures and the digests must differ.
    pub fn verify(&self, leader_pk: &impl VerifyingKey) -> bool {
        crate::transition::digests_conflict(&self.digest_a, &self.digest_b)
            && verify(
                leader_pk,
                &propose_signing_bytes(&self.id, &self.digest_a),
                &self.sig_a,
            )
            && verify(
                leader_pk,
                &propose_signing_bytes(&self.id, &self.digest_b),
                &self.sig_b,
            )
    }
}

/// Signing payload a leader uses when sending its member list to the partial
/// set during semi-commitment exchange (Algorithm 4 step 1).
pub fn member_list_signing_bytes(round: u64, committee: usize, member_list: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(member_list.len() + 32);
    out.extend_from_slice(b"cycledger/semi-com-member-list");
    out.extend_from_slice(&round.to_be_bytes());
    out.extend_from_slice(&(committee as u64).to_be_bytes());
    out.extend_from_slice(member_list);
    out
}

/// The semi-commitment of a member list: `H(S)` (§IV-B).
pub fn semi_commitment(member_list: &[u8]) -> Digest {
    hash_parts(&[b"cycledger/semi-commitment", member_list])
}

/// Proof that the leader's signed member list does not hash to the
/// semi-commitment recorded by the referee committee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitmentMismatchEvidence {
    /// Round in question.
    pub round: u64,
    /// Committee index.
    pub committee: usize,
    /// The accused leader.
    pub leader: NodeId,
    /// The member list the leader sent (serialized), i.e. `m_l`.
    pub member_list: Vec<u8>,
    /// Leader's signature over the member list.
    pub list_signature: Signature,
    /// The semi-commitment distributed by the referee committee, i.e. `m_0`.
    pub recorded_commitment: Digest,
}

impl CommitmentMismatchEvidence {
    /// Verifies the evidence: the leader really signed this member list, and its
    /// hash differs from the recorded semi-commitment.
    pub fn verify(&self, leader_pk: &impl VerifyingKey) -> bool {
        crate::transition::digests_conflict(
            &semi_commitment(&self.member_list),
            &self.recorded_commitment,
        ) && verify(
            leader_pk,
            &member_list_signing_bytes(self.round, self.committee, &self.member_list),
            &self.list_signature,
        )
    }
}

/// Any witness a partial-set member may submit to impeach a leader.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Witness {
    /// The leader equivocated inside Algorithm 3.
    Equivocation(EquivocationEvidence),
    /// The leader's member list contradicts its semi-commitment.
    CommitmentMismatch(CommitmentMismatchEvidence),
}

impl Witness {
    /// The accused leader.
    pub fn accused(&self) -> NodeId {
        match self {
            Witness::Equivocation(e) => e.leader,
            Witness::CommitmentMismatch(e) => e.leader,
        }
    }

    /// Verifies the witness against the accused leader's public key.
    pub fn verify(&self, leader_pk: &impl VerifyingKey) -> bool {
        match self {
            Witness::Equivocation(e) => e.verify(leader_pk),
            Witness::CommitmentMismatch(e) => e.verify(leader_pk),
        }
    }

    /// Approximate wire size (for network accounting).
    pub fn wire_size(&self) -> u64 {
        match self {
            Witness::Equivocation(_) => 16 + 4 + 2 * (32 + 96),
            Witness::CommitmentMismatch(e) => 8 + 8 + 4 + e.member_list.len() as u64 + 96 + 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycledger_crypto::schnorr::{sign, Keypair};

    fn id() -> ConsensusId {
        ConsensusId { round: 4, seq: 9 }
    }

    fn equivocation(leader: &Keypair) -> EquivocationEvidence {
        let da = hash_parts(&[b"list A"]);
        let db = hash_parts(&[b"list B"]);
        EquivocationEvidence {
            id: id(),
            leader: NodeId(3),
            digest_a: da,
            sig_a: sign(&leader.secret, &propose_signing_bytes(&id(), &da)),
            digest_b: db,
            sig_b: sign(&leader.secret, &propose_signing_bytes(&id(), &db)),
        }
    }

    #[test]
    fn real_equivocation_verifies() {
        let leader = Keypair::from_seed(b"bad-leader");
        let ev = equivocation(&leader);
        assert!(ev.verify(&leader.public));
        assert!(Witness::Equivocation(ev).verify(&leader.public));
    }

    #[test]
    fn equivocation_with_equal_digests_rejected() {
        let leader = Keypair::from_seed(b"leader");
        let d = hash_parts(&[b"same"]);
        let sig = sign(&leader.secret, &propose_signing_bytes(&id(), &d));
        let ev = EquivocationEvidence {
            id: id(),
            leader: NodeId(3),
            digest_a: d,
            sig_a: sig,
            digest_b: d,
            sig_b: sig,
        };
        assert!(!ev.verify(&leader.public));
    }

    #[test]
    fn forged_equivocation_cannot_frame_honest_leader() {
        // A malicious partial-set member fabricates "evidence" with its own key.
        let honest_leader = Keypair::from_seed(b"honest-leader");
        let malicious = Keypair::from_seed(b"malicious-member");
        let ev = equivocation(&malicious);
        assert!(
            !ev.verify(&honest_leader.public),
            "witness must be signed by the accused leader (Claim 4)"
        );
    }

    #[test]
    fn commitment_mismatch_verifies_only_when_hash_differs() {
        let leader = Keypair::from_seed(b"leader-cm");
        let list = b"PK1,PK2,PK3".to_vec();
        let sig = sign(&leader.secret, &member_list_signing_bytes(7, 2, &list));
        // Honest case: recorded commitment matches ⇒ no valid witness.
        let honest = CommitmentMismatchEvidence {
            round: 7,
            committee: 2,
            leader: NodeId(1),
            member_list: list.clone(),
            list_signature: sig,
            recorded_commitment: semi_commitment(&list),
        };
        assert!(!honest.verify(&leader.public));
        // Dishonest case: commitment recorded at C_R differs from what the
        // leader signed ⇒ valid witness.
        let dishonest = CommitmentMismatchEvidence {
            recorded_commitment: hash_parts(&[b"something else"]),
            ..honest.clone()
        };
        assert!(dishonest.verify(&leader.public));
        let w = Witness::CommitmentMismatch(dishonest);
        assert_eq!(w.accused(), NodeId(1));
        assert!(w.wire_size() > 100);
    }

    #[test]
    fn commitment_mismatch_with_forged_signature_rejected() {
        let leader = Keypair::from_seed(b"leader-cm2");
        let impostor = Keypair::from_seed(b"impostor-cm2");
        let list = b"PK1,PK2".to_vec();
        let ev = CommitmentMismatchEvidence {
            round: 1,
            committee: 0,
            leader: NodeId(5),
            member_list: list.clone(),
            list_signature: sign(&impostor.secret, &member_list_signing_bytes(1, 0, &list)),
            recorded_commitment: hash_parts(&[b"different"]),
        };
        assert!(!ev.verify(&leader.public));
    }

    #[test]
    fn witness_accused_and_size_for_equivocation() {
        let leader = Keypair::from_seed(b"leader-acc");
        let w = Witness::Equivocation(equivocation(&leader));
        assert_eq!(w.accused(), NodeId(3));
        assert!(w.wire_size() > 200);
    }

    #[test]
    fn semi_commitment_is_deterministic() {
        assert_eq!(semi_commitment(b"abc"), semi_commitment(b"abc"));
        assert_ne!(semi_commitment(b"abc"), semi_commitment(b"abd"));
    }
}
