//! Wire messages for the inside-committee consensus (Algorithm 3).
//!
//! Algorithm 3 is a three-step synchronous broadcast: the leader PROPOSEs
//! `(r, sn, H(M), M)`, members ECHO the digest (relaying the leader-signed
//! proposal so everyone can check the leader said the same thing to everyone),
//! and once a member has seen identical ECHOes from more than half the committee
//! it CONFIRMs back to the leader together with the echo signatures it collected.
//!
//! Every message is signed; signatures are what make leader equivocation
//! *provable* (a witness needs a leader-signed message, Claim 4) and what makes
//! a quorum certificate transferable to the referee committee.

use std::sync::Arc;

use cycledger_crypto::schnorr::{sign, Keypair, PublicKey, SecretKey, Signature};
use cycledger_crypto::sha256::Digest;
use cycledger_net::topology::NodeId;

use crate::sigcache::SigCache;

/// Identifier of one consensus instance: the round number and the leader's
/// monotonically increasing sequence number (the paper's `(r, sn)` pair).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ConsensusId {
    /// Protocol round `r`.
    pub round: u64,
    /// Sequence number `sn`, unique per leader per round.
    pub seq: u64,
}

impl ConsensusId {
    fn encode(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.round.to_be_bytes());
        out[8..].copy_from_slice(&self.seq.to_be_bytes());
        out
    }
}

/// The leader's PROPOSE message.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Propose {
    /// Consensus instance.
    pub id: ConsensusId,
    /// Digest `H(M)` of the proposed payload.
    pub digest: Digest,
    /// The payload `M` itself. Shared behind an `Arc`: the leader multicasts
    /// the same proposal to every member, so per-recipient clones must not
    /// copy the payload bytes.
    pub payload: Arc<Vec<u8>>,
    /// Leader who proposed.
    pub leader: NodeId,
    /// Leader's signature over `(PROPOSE, id, digest)`.
    pub signature: Signature,
}

/// A member's ECHO message (carries the leader-signed proposal header so that
/// receivers can verify leader origin without having heard the PROPOSE).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Echo {
    /// Consensus instance.
    pub id: ConsensusId,
    /// Digest being echoed.
    pub digest: Digest,
    /// The echoing member.
    pub member: NodeId,
    /// The member's signature over `(ECHO, id, digest, member)`.
    pub signature: Signature,
    /// The leader that issued the proposal this echo refers to.
    pub leader: NodeId,
    /// The leader's PROPOSE signature, relayed.
    pub propose_signature: Signature,
}

/// A member's CONFIRM message back to the leader, carrying the echo signatures
/// that justify it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Confirm {
    /// Consensus instance.
    pub id: ConsensusId,
    /// Digest being confirmed.
    pub digest: Digest,
    /// The confirming member.
    pub member: NodeId,
    /// The member's signature over `(CONFIRM, id, digest, member)`.
    pub signature: Signature,
    /// Echo signatures collected by this member: `(echoer, signature)`.
    pub echo_signatures: Vec<(NodeId, Signature)>,
}

/// All Algorithm 3 traffic, plus the abort notice honest members broadcast when
/// they catch the leader equivocating.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Alg3Message {
    /// Leader → members.
    Propose(Propose),
    /// Member → members.
    Echo(Echo),
    /// Member → leader.
    Confirm(Confirm),
}

impl Alg3Message {
    /// Approximate wire size in bytes (used for network accounting).
    pub fn wire_size(&self) -> u64 {
        match self {
            Alg3Message::Propose(p) => 16 + 32 + p.payload.len() as u64 + 96,
            Alg3Message::Echo(_) => 16 + 32 + 4 + 96 + 96,
            Alg3Message::Confirm(c) => 16 + 32 + 4 + 96 + c.echo_signatures.len() as u64 * (4 + 96),
        }
    }
}

/// Length of [`propose_signing_bytes`]: domain tag, `(r, sn)`, digest.
pub const PROPOSE_SIGNING_LEN: usize = 22 + 16 + 32;
/// Length of [`echo_signing_bytes`]: domain tag, `(r, sn)`, digest, member.
pub const ECHO_SIGNING_LEN: usize = 19 + 16 + 32 + 4;
/// Length of [`confirm_signing_bytes`]: domain tag, `(r, sn)`, digest, member.
pub const CONFIRM_SIGNING_LEN: usize = 22 + 16 + 32 + 4;

/// Concatenates the parts of a signing payload into a stack array; the parts
/// must fill it exactly.
fn signing_bytes<const N: usize>(parts: &[&[u8]]) -> [u8; N] {
    let mut out = [0u8; N];
    let mut at = 0;
    for part in parts {
        out[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    assert_eq!(at, N, "signing payload parts must fill the array");
    out
}

/// Signing payload for a PROPOSE.
pub fn propose_signing_bytes(id: &ConsensusId, digest: &Digest) -> [u8; PROPOSE_SIGNING_LEN] {
    signing_bytes(&[b"cycledger/alg3-propose", &id.encode(), digest.as_bytes()])
}

/// Signing payload for an ECHO.
pub fn echo_signing_bytes(
    id: &ConsensusId,
    digest: &Digest,
    member: NodeId,
) -> [u8; ECHO_SIGNING_LEN] {
    signing_bytes(&[
        b"cycledger/alg3-echo",
        &id.encode(),
        digest.as_bytes(),
        &member.0.to_be_bytes(),
    ])
}

/// Signing payload for a CONFIRM.
pub fn confirm_signing_bytes(
    id: &ConsensusId,
    digest: &Digest,
    member: NodeId,
) -> [u8; CONFIRM_SIGNING_LEN] {
    signing_bytes(&[
        b"cycledger/alg3-confirm",
        &id.encode(),
        digest.as_bytes(),
        &member.0.to_be_bytes(),
    ])
}

/// A fixed, precomputed signature used when the simulation fast path skips
/// signature generation (see [`make_propose_unsigned`]). Deterministic, so
/// runs with signing disabled stay byte-identical across worker counts.
pub fn placeholder_signature() -> Signature {
    static PLACEHOLDER: std::sync::OnceLock<Signature> = std::sync::OnceLock::new();
    *PLACEHOLDER.get_or_init(|| {
        let key = SecretKey::from_seed(b"cycledger/alg3-placeholder");
        sign(&key, b"cycledger/alg3-placeholder-signature")
    })
}

/// Builds a signed PROPOSE for a payload.
pub fn make_propose(
    id: ConsensusId,
    payload: Vec<u8>,
    leader: NodeId,
    leader_key: &Keypair,
) -> Propose {
    let digest = cycledger_crypto::sha256::hash_parts(&[b"cycledger/alg3-payload", &payload]);
    let signature = leader_key.sign(&propose_signing_bytes(&id, &digest));
    Propose {
        id,
        digest,
        payload: Arc::new(payload),
        leader,
        signature,
    }
}

/// Builds a PROPOSE carrying a placeholder signature.
///
/// **Simulation fast path**: when signature verification is disabled for a
/// run, nothing ever checks the Schnorr signatures, yet producing them
/// dominated wall-clock time (one curve multiplication per message). The
/// payload digest — which drives echo matching and equivocation detection —
/// is still computed exactly as in [`make_propose`], and message sizes are
/// accounted identically, so protocol decisions and metrics are unchanged.
pub fn make_propose_unsigned(id: ConsensusId, payload: Vec<u8>, leader: NodeId) -> Propose {
    let digest = cycledger_crypto::sha256::hash_parts(&[b"cycledger/alg3-payload", &payload]);
    Propose {
        id,
        digest,
        payload: Arc::new(payload),
        leader,
        signature: placeholder_signature(),
    }
}

/// Digest of a payload, as computed by [`make_propose`]; members recompute it
/// to check the leader's claimed digest.
pub fn payload_digest(payload: &[u8]) -> Digest {
    cycledger_crypto::sha256::hash_parts(&[b"cycledger/alg3-payload", payload])
}

/// Verifies a PROPOSE's digest and, memoized in `cache`, its signature
/// against the leader's public key.
///
/// The leader multicasts one proposal to the whole committee, so every member
/// checks the *same* `(leader key, header, signature)` triple; the shared memo
/// collapses those to a single curve evaluation. The digest/payload
/// consistency check still runs per call.
pub fn verify_propose_cached(propose: &Propose, leader_pk: &PublicKey, cache: &SigCache) -> bool {
    propose.digest == payload_digest(&propose.payload)
        && cache.verify(
            leader_pk,
            &propose_signing_bytes(&propose.id, &propose.digest),
            &propose.signature,
        )
}

/// Builds a signed ECHO relaying the leader's signature.
pub fn make_echo(propose: &Propose, member: NodeId, member_key: &Keypair) -> Echo {
    let signature = member_key.sign(&echo_signing_bytes(&propose.id, &propose.digest, member));
    Echo {
        id: propose.id,
        digest: propose.digest,
        member,
        signature,
        leader: propose.leader,
        propose_signature: propose.signature,
    }
}

/// Builds an ECHO with a placeholder member signature (simulation fast path;
/// see [`make_propose_unsigned`]). The relayed leader signature is still
/// copied from the proposal so equivocation evidence keeps its shape.
pub fn make_echo_unsigned(propose: &Propose, member: NodeId) -> Echo {
    Echo {
        id: propose.id,
        digest: propose.digest,
        member,
        signature: placeholder_signature(),
        leader: propose.leader,
        propose_signature: propose.signature,
    }
}

/// Verifies an ECHO on the spot — the member's own signature and the relayed
/// leader signature, both memoized in `cache`.
///
/// This is the path for an echo that changes more than a tally (it makes the
/// receiver adopt a digest, or contradicts the one it accepted); echoes that
/// merely add to the tally wait for the quorum batch
/// ([`SigCache::verify_batch`]).
pub fn verify_echo_cached(
    echo: &Echo,
    member_pk: &PublicKey,
    leader_pk: &PublicKey,
    cache: &SigCache,
) -> bool {
    cache.verify(
        member_pk,
        &echo_signing_bytes(&echo.id, &echo.digest, echo.member),
        &echo.signature,
    ) && cache.verify(
        leader_pk,
        &propose_signing_bytes(&echo.id, &echo.digest),
        &echo.propose_signature,
    )
}

/// Builds a signed CONFIRM carrying the collected echo signatures.
pub fn make_confirm(
    id: ConsensusId,
    digest: Digest,
    member: NodeId,
    member_key: &Keypair,
    echo_signatures: Vec<(NodeId, Signature)>,
) -> Confirm {
    let signature = member_key.sign(&confirm_signing_bytes(&id, &digest, member));
    Confirm {
        id,
        digest,
        member,
        signature,
        echo_signatures,
    }
}

/// Builds a CONFIRM with a placeholder signature (simulation fast path; see
/// [`make_propose_unsigned`]).
pub fn make_confirm_unsigned(
    id: ConsensusId,
    digest: Digest,
    member: NodeId,
    echo_signatures: Vec<(NodeId, Signature)>,
) -> Confirm {
    Confirm {
        id,
        digest,
        member,
        signature: placeholder_signature(),
        echo_signatures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycledger_crypto::schnorr::verify;

    fn id() -> ConsensusId {
        ConsensusId { round: 3, seq: 11 }
    }

    #[test]
    fn propose_round_trip() {
        let leader = Keypair::from_seed(b"leader");
        let p = make_propose(id(), b"payload".to_vec(), NodeId(0), &leader);
        assert!(verify_propose_cached(&p, &leader.public, &SigCache::new()));
        assert_eq!(p.digest, payload_digest(b"payload"));
    }

    #[test]
    fn propose_with_wrong_digest_rejected() {
        let leader = Keypair::from_seed(b"leader");
        let mut p = make_propose(id(), b"payload".to_vec(), NodeId(0), &leader);
        p.payload = Arc::new(b"swapped".to_vec());
        assert!(!verify_propose_cached(&p, &leader.public, &SigCache::new()));
    }

    #[test]
    fn echo_relay_check() {
        let leader = Keypair::from_seed(b"leader");
        let member = Keypair::from_seed(b"member");
        let cache = SigCache::new();
        // An echo whose relayed leader signature is forged fails.
        let impostor = Keypair::from_seed(b"impostor");
        let forged_propose = make_propose(id(), b"payload".to_vec(), NodeId(0), &impostor);
        let bad = make_echo(&forged_propose, NodeId(5), &member);
        assert!(!verify_echo_cached(
            &bad,
            &member.public,
            &leader.public,
            &cache
        ));
    }

    #[test]
    fn cached_verifiers_agree_with_direct_verification() {
        let leader = Keypair::from_seed(b"leader");
        let member = Keypair::from_seed(b"member");
        let impostor = Keypair::from_seed(b"impostor");
        let cache = SigCache::new();
        let p = make_propose(id(), b"payload".to_vec(), NodeId(0), &leader);
        let e = make_echo(&p, NodeId(5), &member);
        let c = make_confirm(id(), p.digest, NodeId(5), &member, vec![]);
        let confirm_bytes = confirm_signing_bytes(&c.id, &c.digest, c.member);
        assert!(verify(&member.public, &confirm_bytes, &c.signature));
        assert!(!verify(&impostor.public, &confirm_bytes, &c.signature));
        for _ in 0..2 {
            assert!(verify_propose_cached(&p, &leader.public, &cache));
            assert!(!verify_propose_cached(&p, &impostor.public, &cache));
            assert!(verify_echo_cached(
                &e,
                &member.public,
                &leader.public,
                &cache
            ));
            assert!(!verify_echo_cached(
                &e,
                &impostor.public,
                &leader.public,
                &cache
            ));
        }
        // The echo's relayed leader signature shares the propose memo entry:
        // 1 good propose + 1 bad propose + 1 good echo member sig + 1 bad echo
        // member sig = 4 distinct triples.
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn signing_payloads_are_domain_separated() {
        let d = payload_digest(b"x");
        let i = id();
        let a = propose_signing_bytes(&i, &d);
        let b = echo_signing_bytes(&i, &d, NodeId(1));
        let c = confirm_signing_bytes(&i, &d, NodeId(1));
        assert_ne!(a[..], b[..]);
        assert_ne!(b[..], c[..]);
        assert_ne!(a[..], c[..]);
        // Every byte of each array is written: the layout ends with the
        // fields the domain tag is followed by.
        assert_eq!(a[22..38], i.encode());
        assert_eq!(a[38..], d.as_bytes()[..]);
        assert_eq!(b[19 + 48..], 1u32.to_be_bytes());
        assert_eq!(c[22 + 48..], 1u32.to_be_bytes());
    }

    #[test]
    fn wire_sizes_are_positive_and_grow_with_content() {
        let leader = Keypair::from_seed(b"leader");
        let member = Keypair::from_seed(b"member");
        let p = make_propose(id(), vec![0u8; 100], NodeId(0), &leader);
        let e = make_echo(&p, NodeId(1), &member);
        let c_small = make_confirm(id(), p.digest, NodeId(1), &member, vec![]);
        let c_big = make_confirm(
            id(),
            p.digest,
            NodeId(1),
            &member,
            vec![(NodeId(2), e.signature), (NodeId(3), e.signature)],
        );
        assert!(Alg3Message::Propose(p).wire_size() > 100);
        assert!(
            Alg3Message::Confirm(c_big.clone()).wire_size()
                > Alg3Message::Confirm(c_small).wire_size()
        );
        assert!(Alg3Message::Echo(e).wire_size() > 0);
        let _ = c_big;
    }
}
