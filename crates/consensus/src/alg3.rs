//! Per-node state machines for Algorithm 3 ("Inside-committee Consensus").
//!
//! The leader PROPOSEs a payload; every member ECHOes the digest and relays the
//! leader-signed proposal; once a member has identical ECHOes from more than half
//! of the committee (plus the leader's PROPOSE) it CONFIRMs back to the leader
//! with the echo signatures attached; the leader terminates with a
//! [`QuorumCertificate`] once more than half of the committee has CONFIRMed.
//!
//! The state machines are transport-agnostic: they consume verified-or-rejected
//! messages and emit actions (messages to send, or misbehaviour evidence). The
//! protocol crate drives them over the simulated network, which is where
//! latency, phases, and adversarial scheduling come in.
//!
//! **Signatures are verified at quorum, not at arrival.** A message that
//! changes state beyond a tally is checked on the spot: the PROPOSE, an ECHO
//! that makes a member adopt a digest before the PROPOSE reaches it, and an
//! ECHO whose digest contradicts the accepted one (equivocation evidence must
//! carry verified signatures). An ECHO that merely adds to a member's tally,
//! and every CONFIRM at the leader, is buffered unchecked; the buffer is
//! checked as one [`SigCache::verify_batch`] at the moment the quorum could
//! first be met — counting the buffered senders as if all were valid — and
//! only the valid enter the tally, in arrival order. What arrives after the
//! member has confirmed, or after the certificate exists, decides nothing and
//! is dropped unchecked. The tally at each decision point is exactly what
//! per-message checks would have produced, so CONFIRMs and certificates are
//! byte-identical; only the number of curve operations differs.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use cycledger_crypto::schnorr::{BatchEntry, Keypair, Signature};
use cycledger_crypto::sha256::Digest;
use cycledger_net::topology::NodeId;

use crate::messages::{
    confirm_signing_bytes, echo_signing_bytes, make_confirm, make_confirm_unsigned, make_echo,
    make_echo_unsigned, propose_signing_bytes, verify_echo_cached, verify_propose_cached, Confirm,
    ConsensusId, Echo, Propose,
};
use crate::quorum::{CommitteeKeys, QuorumCertificate};
use crate::sigcache::SigCache;
use crate::transition::{confirm_quorum, digests_conflict, echo_quorum};
use crate::witness::EquivocationEvidence;

/// The signatures of one quorum step — ECHOes at a member, CONFIRMs at the
/// leader: those verified, and those buffered for the batch check.
#[derive(Clone, Debug, Default, Hash)]
struct SignatureTally {
    verified: BTreeMap<NodeId, Signature>,
    /// Unchecked, in arrival order.
    pending: Vec<(NodeId, Signature)>,
    /// Distinct senders in `pending` that `verified` lacks.
    fresh_senders: usize,
}

impl SignatureTally {
    /// Buffers an unchecked signature. A sender may appear more than once —
    /// anyone can claim a sender, so a buffered signature cannot shadow a
    /// later one — but counts once towards [`Self::reachable`].
    fn defer(&mut self, sender: NodeId, signature: Signature) {
        if self.verified.get(&sender) == Some(&signature)
            || self.pending.contains(&(sender, signature))
        {
            return;
        }
        if !self.verified.contains_key(&sender) && self.pending.iter().all(|(s, _)| *s != sender) {
            self.fresh_senders += 1;
        }
        self.pending.push((sender, signature));
    }

    /// Senders the tally would hold if every buffered signature were valid.
    fn reachable(&self) -> usize {
        self.verified.len() + self.fresh_senders
    }

    /// Checks the buffer as one batch and moves the valid signatures into
    /// `verified` in arrival order (a sender's later valid signature replaces
    /// its earlier one, as it would have on arrival). `signing_bytes` gives
    /// the bytes `sender` signed; every buffered sender has a key in `keys`.
    fn settle<const N: usize>(
        &mut self,
        cache: &SigCache,
        keys: &CommitteeKeys,
        signing_bytes: impl Fn(NodeId) -> [u8; N],
    ) {
        if self.pending.is_empty() {
            return;
        }
        let messages: Vec<[u8; N]> = self
            .pending
            .iter()
            .map(|(sender, _)| signing_bytes(*sender))
            .collect();
        let entries: Vec<BatchEntry<'_>> = self
            .pending
            .iter()
            .zip(&messages)
            .map(|((sender, signature), message)| BatchEntry {
                public_key: keys.get(*sender).expect("membership checked on arrival"),
                message,
                signature,
            })
            .collect();
        let verdicts = cache.verify_batch(&entries);
        for ((sender, signature), valid) in self.pending.drain(..).zip(verdicts) {
            if valid {
                self.verified.insert(sender, signature);
            }
        }
        self.fresh_senders = 0;
    }

    fn signatures(&self) -> Vec<(NodeId, Signature)> {
        self.verified.iter().map(|(n, s)| (*n, *s)).collect()
    }
}

/// Actions a member state machine asks its driver to perform.
#[derive(Clone, Debug)]
pub enum MemberAction {
    /// Broadcast this ECHO to the whole committee.
    BroadcastEcho(Echo),
    /// Send this CONFIRM to the leader.
    SendConfirm(Confirm),
    /// The leader equivocated; stop the instance and report to the partial set.
    ReportEquivocation(EquivocationEvidence),
}

/// A committee member's view of one Algorithm 3 instance.
#[derive(Clone, Debug)]
pub struct MemberState {
    me: NodeId,
    keypair: Keypair,
    leader: NodeId,
    id: ConsensusId,
    keys: CommitteeKeys,
    /// The first valid leader proposal we accepted: `(digest, leader signature)`.
    accepted: Option<(Digest, Signature)>,
    /// Payload of the accepted proposal (shared with the proposal itself).
    payload: Option<std::sync::Arc<Vec<u8>>>,
    /// Echo signatures collected for the accepted digest.
    echoes: SignatureTally,
    confirmed: bool,
    halted: bool,
    verify_signatures: bool,
    sig_cache: SigCache,
}

impl MemberState {
    /// Creates the member-side state for one consensus instance.
    pub fn new(
        me: NodeId,
        keypair: Keypair,
        leader: NodeId,
        id: ConsensusId,
        keys: CommitteeKeys,
    ) -> Self {
        MemberState {
            me,
            keypair,
            leader,
            id,
            keys,
            accepted: None,
            payload: None,
            echoes: SignatureTally::default(),
            confirmed: false,
            halted: false,
            verify_signatures: true,
            sig_cache: SigCache::default(),
        }
    }

    /// Shares a verification memo with the other state machines of this
    /// instance (see [`SigCache`]): the same `(key, message, signature)`
    /// triple — e.g. the leader's multicast PROPOSE signature — is then
    /// checked once for the whole committee instead of once per receiver.
    pub fn set_sig_cache(&mut self, cache: SigCache) {
        self.sig_cache = cache;
    }

    /// Disables cryptographic verification of incoming messages **and**
    /// generation of this member's own signatures (placeholder signatures are
    /// attached instead, keeping message shapes and wire sizes identical).
    ///
    /// This is a *simulation fast path*: in the simulator, honest nodes only ever
    /// emit messages they could legitimately sign, so skipping verification does
    /// not change any protocol outcome — it only removes the O(c²) signature
    /// checks per instance *and* the O(c) signing multiplications that dominate
    /// wall-clock time at large committee sizes. No round of the engine uses
    /// it: it is kept for the one probe that times an instance without its
    /// signatures (`run_inside_consensus` in the protocol crate says which).
    pub fn set_verify_signatures(&mut self, verify: bool) {
        self.verify_signatures = verify;
    }

    /// Echo for an accepted proposal: real signature when verification is on,
    /// placeholder on the fast path (nothing will check it).
    fn build_echo(&self, propose: &Propose) -> Echo {
        if self.verify_signatures {
            make_echo(propose, self.me, &self.keypair)
        } else {
            make_echo_unsigned(propose, self.me)
        }
    }

    /// True once the member has stopped participating (leader caught cheating).
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The payload this member accepted (if any) — what it will treat as the
    /// committee's working data when the instance completes.
    pub fn accepted_payload(&self) -> Option<&[u8]> {
        self.payload.as_deref().map(|v| v.as_slice())
    }

    /// True once the member has sent its CONFIRM.
    pub fn has_confirmed(&self) -> bool {
        self.confirmed
    }

    /// Handles a PROPOSE from the leader.
    pub fn handle_propose(&mut self, propose: &Propose) -> Vec<MemberAction> {
        if self.halted || propose.id != self.id || propose.leader != self.leader {
            return Vec::new();
        }
        let Some(leader_pk) = self.keys.get(self.leader) else {
            return Vec::new();
        };
        if self.verify_signatures && !verify_propose_cached(propose, leader_pk, &self.sig_cache) {
            // Unsigned/garbled proposal: ignore (an invalid signature is not
            // evidence of anything — anyone could have forged it).
            return Vec::new();
        }
        match &self.accepted {
            None => {
                self.accepted = Some((propose.digest, propose.signature));
                self.echo_and_maybe_confirm(propose)
            }
            Some((digest, _)) if *digest == propose.digest && self.payload.is_none() => {
                // We adopted the digest earlier from a relayed echo (the network
                // delivered a peer's ECHO before the leader's PROPOSE); now that
                // the payload has arrived we can echo and, if the quorum of
                // echoes is already in, confirm.
                self.echo_and_maybe_confirm(propose)
            }
            Some((digest, sig)) if digests_conflict(digest, &propose.digest) => {
                // Two leader-signed digests for the same (r, sn): equivocation.
                self.halted = true;
                vec![MemberAction::ReportEquivocation(EquivocationEvidence {
                    id: self.id,
                    leader: self.leader,
                    digest_a: *digest,
                    sig_a: *sig,
                    digest_b: propose.digest,
                    sig_b: propose.signature,
                })]
            }
            Some(_) => Vec::new(), // duplicate of what we already accepted
        }
    }

    /// Takes the payload of the accepted proposal, echoes it and counts the
    /// echo (a member counts its own, which needs no check).
    fn echo_and_maybe_confirm(&mut self, propose: &Propose) -> Vec<MemberAction> {
        self.payload = Some(propose.payload.clone());
        let echo = self.build_echo(propose);
        self.echoes.verified.insert(self.me, echo.signature);
        let mut actions = vec![MemberAction::BroadcastEcho(echo)];
        actions.extend(self.maybe_confirm());
        actions
    }

    /// Handles an ECHO from another member.
    pub fn handle_echo(&mut self, echo: &Echo) -> Vec<MemberAction> {
        if self.halted || echo.id != self.id || echo.leader != self.leader {
            return Vec::new();
        }
        let (Some(member_pk), Some(leader_pk)) =
            (self.keys.get(echo.member), self.keys.get(self.leader))
        else {
            return Vec::new();
        };
        match self.accepted {
            Some((digest, leader_signature)) if !digests_conflict(&digest, &echo.digest) => {
                // At most one more echo in the tally — and once the CONFIRM
                // is out the tally decides nothing.
                if self.confirmed {
                    return Vec::new();
                }
                if !self.verify_signatures {
                    self.echoes.verified.insert(echo.member, echo.signature);
                    return self.maybe_confirm();
                }
                // The relayed leader signature is the accepted — verified —
                // one, unless the leader signed the same header twice.
                if echo.propose_signature != leader_signature
                    && !self.sig_cache.verify(
                        leader_pk,
                        &propose_signing_bytes(&echo.id, &echo.digest),
                        &echo.propose_signature,
                    )
                {
                    return Vec::new();
                }
                self.echoes.defer(echo.member, echo.signature);
                self.maybe_confirm()
            }
            accepted => {
                // This echo would make us adopt a digest, or accuse the
                // leader: it is checked before it does either.
                if self.verify_signatures
                    && !verify_echo_cached(echo, member_pk, leader_pk, &self.sig_cache)
                {
                    return Vec::new();
                }
                let Some((digest, sig)) = accepted else {
                    // We have not heard the leader directly, but the echo
                    // relays a valid leader-signed proposal header. Adopt the
                    // digest (we still cannot confirm until we also hold the
                    // payload via PROPOSE, but we can start counting echoes).
                    self.accepted = Some((echo.digest, echo.propose_signature));
                    self.echoes.verified.insert(echo.member, echo.signature);
                    return Vec::new();
                };
                // The relayed leader signature proves the leader also signed a
                // different digest: equivocation caught via a peer's echo.
                self.halted = true;
                vec![MemberAction::ReportEquivocation(EquivocationEvidence {
                    id: self.id,
                    leader: self.leader,
                    digest_a: digest,
                    sig_a: sig,
                    digest_b: echo.digest,
                    sig_b: echo.propose_signature,
                })]
            }
        }
    }

    fn maybe_confirm(&mut self) -> Vec<MemberAction> {
        if self.confirmed || self.payload.is_none() {
            return Vec::new();
        }
        let Some((digest, _)) = self.accepted else {
            return Vec::new();
        };
        let committee_size = self.keys.len();
        if !echo_quorum(self.echoes.reachable(), committee_size) {
            return Vec::new();
        }
        let id = self.id;
        self.echoes.settle(&self.sig_cache, &self.keys, |member| {
            echo_signing_bytes(&id, &digest, member)
        });
        if !echo_quorum(self.echoes.verified.len(), committee_size) {
            return Vec::new();
        }
        self.confirmed = true;
        let echo_signatures = self.echoes.signatures();
        let confirm = if self.verify_signatures {
            make_confirm(self.id, digest, self.me, &self.keypair, echo_signatures)
        } else {
            make_confirm_unsigned(self.id, digest, self.me, echo_signatures)
        };
        vec![MemberAction::SendConfirm(confirm)]
    }
}

/// State identity for an explorer: everything a reaction depends on. Left
/// out are the verdict memo — it changes what a verdict costs, never the
/// verdict — and what `me` and the instance determine (key pair, directory).
impl Hash for MemberState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.me, self.leader, self.id, &self.accepted, &self.payload).hash(state);
        (
            &self.echoes,
            self.confirmed,
            self.halted,
            self.verify_signatures,
        )
            .hash(state);
    }
}

/// The leader's view of one Algorithm 3 instance: collecting CONFIRMs.
#[derive(Clone, Debug)]
pub struct LeaderState {
    id: ConsensusId,
    digest: Digest,
    keys: CommitteeKeys,
    confirms: SignatureTally,
    certificate: Option<QuorumCertificate>,
    verify_signatures: bool,
    sig_cache: SigCache,
}

impl LeaderState {
    /// Creates the leader-side state after the leader has built its proposal.
    pub fn new(id: ConsensusId, digest: Digest, keys: CommitteeKeys) -> Self {
        LeaderState {
            id,
            digest,
            keys,
            confirms: SignatureTally::default(),
            certificate: None,
            verify_signatures: true,
            sig_cache: SigCache::default(),
        }
    }

    /// Shares a verification memo with the members of this instance (see
    /// [`MemberState::set_sig_cache`]).
    pub fn set_sig_cache(&mut self, cache: SigCache) {
        self.sig_cache = cache;
    }

    /// Disables cryptographic verification of incoming CONFIRMs (see
    /// [`MemberState::set_verify_signatures`] for the rationale).
    pub fn set_verify_signatures(&mut self, verify: bool) {
        self.verify_signatures = verify;
    }

    /// Handles a CONFIRM from a member; returns the quorum certificate the
    /// first time a majority of valid CONFIRMs is in. CONFIRMs that arrive
    /// after that are dropped.
    pub fn handle_confirm(&mut self, confirm: &Confirm) -> Option<QuorumCertificate> {
        if self.certificate.is_some()
            || confirm.id != self.id
            || confirm.digest != self.digest
            || !self.keys.contains(confirm.member)
        {
            return None;
        }
        if self.verify_signatures {
            self.confirms.defer(confirm.member, confirm.signature);
        } else {
            self.confirms
                .verified
                .insert(confirm.member, confirm.signature);
        }
        let committee_size = self.keys.len();
        if !confirm_quorum(self.confirms.reachable(), committee_size) {
            return None;
        }
        let (id, digest) = (self.id, self.digest);
        self.confirms.settle(&self.sig_cache, &self.keys, |member| {
            confirm_signing_bytes(&id, &digest, member)
        });
        if !confirm_quorum(self.confirms.verified.len(), committee_size) {
            return None;
        }
        self.certificate = Some(QuorumCertificate {
            id: self.id,
            digest: self.digest,
            signatures: self.confirms.signatures(),
        });
        self.certificate.clone()
    }

    /// The certificate, if the instance already completed.
    pub fn certificate(&self) -> Option<&QuorumCertificate> {
        self.certificate.as_ref()
    }
}

/// State identity for an explorer, as for [`MemberState`].
impl Hash for LeaderState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.id, self.digest, &self.confirms, &self.certificate).hash(state);
        self.verify_signatures.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{make_propose, payload_digest, Alg3Message};
    use cycledger_crypto::hmac::HmacDrbg;

    /// Builds a committee of `n` members; node 0 is the leader.
    fn committee(n: usize) -> (Vec<Keypair>, CommitteeKeys) {
        let keypairs: Vec<Keypair> = (0..n)
            .map(|i| Keypair::from_seed(format!("alg3-member-{i}").as_bytes()))
            .collect();
        let keys = CommitteeKeys::new(
            keypairs
                .iter()
                .enumerate()
                .map(|(i, kp)| (NodeId(i as u32), kp.public)),
        );
        (keypairs, keys)
    }

    fn instance_id() -> ConsensusId {
        ConsensusId { round: 1, seq: 1 }
    }

    /// A member of `committee(n)` led by node 0, on the given memo.
    fn member(i: u32, kps: &[Keypair], keys: &CommitteeKeys, cache: &SigCache) -> MemberState {
        let mut state = MemberState::new(
            NodeId(i),
            kps[i as usize],
            NodeId(0),
            instance_id(),
            keys.clone(),
        );
        state.set_sig_cache(cache.clone());
        state
    }

    /// The honest ECHO of member `i` for `propose`.
    fn echo_of(i: u32, propose: &Propose, kps: &[Keypair]) -> Echo {
        make_echo(propose, NodeId(i), &kps[i as usize])
    }

    /// An ECHO claiming member `i` whose signature is over something else.
    fn forged_echo_of(i: u32, propose: &Propose, kps: &[Keypair]) -> Echo {
        Echo {
            signature: kps[i as usize].sign(b"not an echo"),
            ..echo_of(i, propose, kps)
        }
    }

    /// Runs a full honest instance in-memory — PROPOSE to everyone, then every
    /// ECHO to every member in id order, then the CONFIRMs — on one shared
    /// memo, and returns the certificate.
    fn run_honest(n: usize, payload: &[u8]) -> (QuorumCertificate, Vec<MemberState>) {
        let (kps, keys) = committee(n);
        let id = instance_id();
        let cache = SigCache::new();
        let propose = make_propose(id, payload.to_vec(), NodeId(0), &kps[0]);
        let mut leader = LeaderState::new(id, propose.digest, keys.clone());
        leader.set_sig_cache(cache.clone());
        let mut members: Vec<MemberState> = (0..n as u32)
            .map(|i| member(i, &kps, &keys, &cache))
            .collect();

        // Step 1: PROPOSE delivered to everyone; collect echoes.
        let mut echoes = Vec::new();
        for member in members.iter_mut() {
            for action in member.handle_propose(&propose) {
                if let MemberAction::BroadcastEcho(e) = action {
                    echoes.push(e);
                }
            }
        }
        // Step 2: deliver every echo to every member; collect confirms.
        let mut confirms = Vec::new();
        for member in members.iter_mut() {
            for echo in &echoes {
                if echo.member == member.me {
                    continue;
                }
                for action in member.handle_echo(echo) {
                    if let MemberAction::SendConfirm(c) = action {
                        confirms.push(c);
                    }
                }
            }
        }
        // Step 3: leader collects confirms.
        let mut cert = None;
        for confirm in &confirms {
            if let Some(c) = leader.handle_confirm(confirm) {
                cert = Some(c);
            }
        }
        (
            cert.expect("honest run must produce a certificate"),
            members,
        )
    }

    #[test]
    fn honest_instance_reaches_quorum() {
        for n in [4usize, 5, 7, 10] {
            let (cert, members) = run_honest(n, b"TXdecSET payload");
            let (_, keys) = committee(n);
            assert_eq!(cert.verify_majority(&keys), Ok(()), "n = {n}");
            // Exactly the quorum: later CONFIRMs are dropped.
            assert_eq!(cert.signer_count(), n / 2 + 1);
            // Every member accepted the same payload.
            for m in &members {
                assert_eq!(m.accepted_payload(), Some(&b"TXdecSET payload"[..]));
                assert!(!m.is_halted());
                assert!(m.has_confirmed());
            }
        }
    }

    #[test]
    fn equivocating_leader_is_caught_by_propose() {
        let (kps, keys) = committee(5);
        let id = instance_id();
        let p1 = make_propose(id, b"list A".to_vec(), NodeId(0), &kps[0]);
        let p2 = make_propose(id, b"list B".to_vec(), NodeId(0), &kps[0]);
        let mut member = member(1, &kps, &keys, &SigCache::new());
        assert_eq!(member.handle_propose(&p1).len(), 1);
        let actions = member.handle_propose(&p2);
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            MemberAction::ReportEquivocation(ev) => {
                assert!(ev.verify(&kps[0].public), "evidence must be verifiable");
                assert_eq!(ev.leader, NodeId(0));
            }
            other => panic!("expected equivocation report, got {other:?}"),
        }
        assert!(member.is_halted());
        // A halted member ignores further traffic.
        assert!(member.handle_propose(&p1).is_empty());
    }

    #[test]
    fn equivocation_is_caught_via_relayed_echo() {
        // The leader tells member 1 "list A" and member 2 "list B"; member 1
        // catches the inconsistency when member 2's echo arrives — also after
        // it has confirmed "list A", when same-digest echoes are no longer
        // even looked at.
        let (kps, keys) = committee(5);
        let id = instance_id();
        let p1 = make_propose(id, b"list A".to_vec(), NodeId(0), &kps[0]);
        let p2 = make_propose(id, b"list B".to_vec(), NodeId(0), &kps[0]);
        for confirm_first in [false, true] {
            let mut m1 = member(1, &kps, &keys, &SigCache::new());
            m1.handle_propose(&p1);
            if confirm_first {
                m1.handle_echo(&echo_of(3, &p1, &kps));
                m1.handle_echo(&echo_of(4, &p1, &kps));
            }
            assert_eq!(m1.has_confirmed(), confirm_first);
            // A conflicting echo with a forged signature accuses nobody.
            assert!(m1.handle_echo(&forged_echo_of(2, &p2, &kps)).is_empty());
            assert!(!m1.is_halted());
            let actions = m1.handle_echo(&echo_of(2, &p2, &kps));
            assert!(
                matches!(actions.as_slice(), [MemberAction::ReportEquivocation(ev)] if ev.verify(&kps[0].public))
            );
            assert!(m1.is_halted());
        }
    }

    #[test]
    fn member_does_not_confirm_without_majority_echoes() {
        let (kps, keys) = committee(7); // threshold 4
        let propose = make_propose(instance_id(), b"payload".to_vec(), NodeId(0), &kps[0]);
        let cache = SigCache::new();
        let mut member = member(1, &kps, &keys, &cache);
        member.handle_propose(&propose); // own echo = 1
        assert_eq!(cache.len(), 1, "the PROPOSE is checked on arrival");
        // Two more echoes: total 3 < 4, no confirm yet — and no check either.
        for i in 2..4 {
            let actions = member.handle_echo(&echo_of(i, &propose, &kps));
            assert!(actions.is_empty(), "no confirm before threshold");
        }
        assert!(!member.has_confirmed());
        assert_eq!(cache.len(), 1, "echoes wait for the quorum");
        // One more echo crosses the threshold: the three are checked together.
        let actions = member.handle_echo(&echo_of(4, &propose, &kps));
        let [MemberAction::SendConfirm(confirm)] = actions.as_slice() else {
            panic!("expected a CONFIRM, got {actions:?}");
        };
        let signers: Vec<u32> = confirm.echo_signatures.iter().map(|(n, _)| n.0).collect();
        assert_eq!(signers, [1, 2, 3, 4]);
        assert!(member.has_confirmed());
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn forged_echo_in_the_quorum_batch_is_isolated() {
        let (kps, keys) = committee(7); // threshold 4
        let propose = make_propose(instance_id(), b"payload".to_vec(), NodeId(0), &kps[0]);
        for real_one_follows in [false, true] {
            let mut member = member(1, &kps, &keys, &SigCache::new());
            member.handle_propose(&propose);
            assert!(member.handle_echo(&echo_of(2, &propose, &kps)).is_empty());
            assert!(member
                .handle_echo(&forged_echo_of(3, &propose, &kps))
                .is_empty());
            // Four senders are in reach, so the buffer is checked: the batch
            // fails, the fallback keeps 2 and 4, and the quorum is not met.
            assert!(member.handle_echo(&echo_of(4, &propose, &kps)).is_empty());
            assert!(!member.has_confirmed());
            // The forgery did not use up member 3's place in the tally.
            let next = if real_one_follows { 3 } else { 5 };
            let actions = member.handle_echo(&echo_of(next, &propose, &kps));
            let [MemberAction::SendConfirm(confirm)] = actions.as_slice() else {
                panic!("expected a CONFIRM, got {actions:?}");
            };
            let mut expected = vec![1, 2, 4, next];
            expected.sort_unstable();
            let signers: Vec<u32> = confirm.echo_signatures.iter().map(|(n, _)| n.0).collect();
            assert_eq!(signers, expected);
            for (node, signature) in &confirm.echo_signatures {
                assert_eq!(*signature, echo_of(node.0, &propose, &kps).signature);
            }
        }
    }

    #[test]
    fn duplicate_echoes_do_not_inflate_quorum() {
        let (kps, keys) = committee(7); // threshold 4
        let propose = make_propose(instance_id(), b"payload".to_vec(), NodeId(0), &kps[0]);
        let cache = SigCache::new();
        let mut member = member(1, &kps, &keys, &cache);
        member.handle_propose(&propose);
        // The same sender over and over — verbatim, and with another
        // signature — stays one sender: the quorum is not even in reach.
        for _ in 0..3 {
            assert!(member.handle_echo(&echo_of(2, &propose, &kps)).is_empty());
            assert!(member
                .handle_echo(&forged_echo_of(2, &propose, &kps))
                .is_empty());
            assert!(member.handle_echo(&echo_of(3, &propose, &kps)).is_empty());
        }
        assert_eq!(member.echoes.reachable(), 3);
        assert_eq!(member.echoes.pending.len(), 3);
        assert_eq!(cache.len(), 1, "nothing but the PROPOSE was checked");
        assert!(!member.has_confirmed());
    }

    #[test]
    fn propose_arriving_after_echoes_still_leads_to_confirm() {
        // The network may deliver peers' echoes before the leader's own PROPOSE
        // (independent per-link latencies). The late PROPOSE must still trigger
        // this member's echo and, once the quorum of echoes is in, its CONFIRM.
        let (kps, keys) = committee(5); // threshold 3
        let propose = make_propose(instance_id(), b"late propose".to_vec(), NodeId(0), &kps[0]);
        let cache = SigCache::new();
        let mut late = member(1, &kps, &keys, &cache);
        // A forged echo adopts nothing...
        assert!(late
            .handle_echo(&forged_echo_of(2, &propose, &kps))
            .is_empty());
        assert!(late.accepted.is_none());
        // ...nor does one relaying a header the leader never signed.
        let impostor = Keypair::from_seed(b"impostor");
        let fake = make_propose(instance_id(), b"fake".to_vec(), NodeId(0), &impostor);
        assert!(late.handle_echo(&echo_of(2, &fake, &kps)).is_empty());
        assert!(late.accepted.is_none());
        let checked = cache.len();
        // The first honest echo makes the member adopt the digest, so it is
        // checked on the spot: its own signature and the relayed leader's.
        assert!(late.handle_echo(&echo_of(2, &propose, &kps)).is_empty());
        assert_eq!(late.accepted.map(|(d, _)| d), Some(propose.digest));
        assert_eq!(cache.len(), checked + 2);
        // Echoes from members 3 and 4 only add to the tally: buffered.
        for i in 3..5 {
            assert!(
                late.handle_echo(&echo_of(i, &propose, &kps)).is_empty(),
                "cannot confirm without the payload"
            );
        }
        assert_eq!(cache.len(), checked + 2);
        assert!(!late.has_confirmed());
        // The leader's PROPOSE finally lands: the member echoes and confirms
        // with every echo it holds.
        let actions = late.handle_propose(&propose);
        let [MemberAction::BroadcastEcho(_), MemberAction::SendConfirm(confirm)] =
            actions.as_slice()
        else {
            panic!("expected an ECHO and a CONFIRM, got {actions:?}");
        };
        assert_eq!(confirm.echo_signatures.len(), 4);
        assert!(late.has_confirmed());
        assert_eq!(late.accepted_payload(), Some(&b"late propose"[..]));
    }

    #[test]
    fn forged_messages_are_ignored() {
        let (kps, keys) = committee(5);
        let outsider = Keypair::from_seed(b"outsider");
        let id = instance_id();
        let mut member = member(1, &kps, &keys, &SigCache::new());
        // A proposal "from the leader" signed by an outsider is dropped silently.
        let forged = make_propose(id, b"evil".to_vec(), NodeId(0), &outsider);
        assert!(member.handle_propose(&forged).is_empty());
        assert!(member.accepted_payload().is_none());
        // An echo from a non-member is dropped too.
        let real = make_propose(id, b"ok".to_vec(), NodeId(0), &kps[0]);
        member.handle_propose(&real);
        let echo = make_echo(&real, NodeId(9), &outsider);
        assert!(member.handle_echo(&echo).is_empty());
        assert!(member.echoes.pending.is_empty());
    }

    #[test]
    fn late_messages_are_dropped_unverified() {
        let (kps, keys) = committee(5); // threshold 3
        let id = instance_id();
        let propose = make_propose(id, b"payload".to_vec(), NodeId(0), &kps[0]);
        let cache = SigCache::new();
        let mut member = member(1, &kps, &keys, &cache);
        member.handle_propose(&propose);
        member.handle_echo(&echo_of(2, &propose, &kps));
        member.handle_echo(&echo_of(3, &propose, &kps));
        assert!(member.has_confirmed());
        let mut leader = LeaderState::new(id, propose.digest, keys.clone());
        leader.set_sig_cache(cache.clone());
        let confirm =
            |i: u32| make_confirm(id, propose.digest, NodeId(i), &kps[i as usize], vec![]);
        assert!(leader.handle_confirm(&confirm(1)).is_none());
        assert!(leader.handle_confirm(&confirm(2)).is_none());
        let certificate = leader.handle_confirm(&confirm(3)).expect("quorum of 3");
        let checked = cache.len();
        assert_eq!(checked, 1 + 2 + 3);
        // Honest or forged, what comes now is not looked at.
        assert!(member.handle_echo(&echo_of(4, &propose, &kps)).is_empty());
        assert!(member
            .handle_echo(&forged_echo_of(0, &propose, &kps))
            .is_empty());
        assert!(leader.handle_confirm(&confirm(4)).is_none());
        let forged = make_confirm(id, propose.digest, NodeId(0), &kps[4], vec![]);
        assert!(leader.handle_confirm(&forged).is_none());
        assert_eq!(cache.len(), checked);
        assert!(member.echoes.pending.is_empty() && leader.confirms.pending.is_empty());
        assert_eq!(leader.certificate(), Some(&certificate));
    }

    #[test]
    fn leader_ignores_invalid_or_mismatched_confirms() {
        let (kps, keys) = committee(5);
        let id = instance_id();
        let digest = payload_digest(b"payload");
        let mut leader = LeaderState::new(id, digest, keys.clone());
        // Confirm for a different digest, and one from a non-member.
        let wrong = make_confirm(id, payload_digest(b"other"), NodeId(1), &kps[1], vec![]);
        assert!(leader.handle_confirm(&wrong).is_none());
        let outsider = make_confirm(id, digest, NodeId(9), &kps[1], vec![]);
        assert!(leader.handle_confirm(&outsider).is_none());
        assert_eq!(leader.confirms.reachable(), 0);
        // Confirm signed by the wrong node: counted as in reach until the
        // batch check throws it out.
        let forged = make_confirm(id, digest, NodeId(2), &kps[1], vec![]);
        assert!(leader.handle_confirm(&forged).is_none());
        let c = |i: u32| make_confirm(id, digest, NodeId(i), &kps[i as usize], vec![]);
        assert!(leader.handle_confirm(&c(1)).is_none());
        assert!(leader.handle_confirm(&c(3)).is_none());
        assert!(
            leader.certificate().is_none(),
            "two valid CONFIRMs of three"
        );
        // The third valid one — from the member the forgery named — makes
        // exactly one certificate.
        let certificate = leader.handle_confirm(&c(2)).expect("quorum");
        assert_eq!(
            certificate.signatures,
            [1, 2, 3].map(|i| (NodeId(i), c(i).signature))
        );
        assert_eq!(certificate.verify_majority(&keys), Ok(()));
        assert!(leader.handle_confirm(&c(4)).is_none());
        assert_eq!(leader.certificate(), Some(&certificate));
    }

    #[test]
    fn duplicate_confirms_do_not_inflate_quorum() {
        let (kps, keys) = committee(5);
        let id = instance_id();
        let digest = payload_digest(b"payload");
        let mut leader = LeaderState::new(id, digest, keys);
        let c1 = make_confirm(id, digest, NodeId(1), &kps[1], vec![]);
        for _ in 0..5 {
            assert!(leader.handle_confirm(&c1).is_none());
        }
        assert_eq!(leader.confirms.reachable(), 1);
    }

    #[test]
    fn unverified_fast_path_tallies_on_arrival() {
        let (kps, keys) = committee(5); // threshold 3
        let id = instance_id();
        let propose = crate::messages::make_propose_unsigned(id, b"fast".to_vec(), NodeId(0));
        let cache = SigCache::new();
        let mut members: Vec<MemberState> =
            (0..3).map(|i| member(i, &kps, &keys, &cache)).collect();
        for m in &mut members {
            m.set_verify_signatures(false);
        }
        let echoes: Vec<Echo> = members
            .iter_mut()
            .map(|m| match m.handle_propose(&propose).as_slice() {
                [MemberAction::BroadcastEcho(e)] => e.clone(),
                other => panic!("expected an ECHO, got {other:?}"),
            })
            .collect();
        assert!(members[0].handle_echo(&echoes[1]).is_empty());
        let actions = members[0].handle_echo(&echoes[2]);
        let [MemberAction::SendConfirm(confirm)] = actions.as_slice() else {
            panic!("expected a CONFIRM, got {actions:?}");
        };
        let mut leader = LeaderState::new(id, propose.digest, keys);
        leader.set_verify_signatures(false);
        let from = |i: u32| Confirm {
            member: NodeId(i),
            ..confirm.clone()
        };
        assert!(leader.handle_confirm(&from(0)).is_none());
        assert!(leader.handle_confirm(&from(1)).is_none());
        assert!(leader.handle_confirm(&from(2)).is_some());
        assert!(cache.is_empty(), "nothing is verified, nothing buffered");
        assert!(members[0].echoes.pending.is_empty() && leader.confirms.pending.is_empty());
    }

    /// The machines this module replaced, kept as the oracle of
    /// [`lazy_machines_match_the_eager_oracle`]: every signature is checked
    /// when its message arrives, with plain `schnorr::verify` and no memo.
    mod eager {
        use super::super::*;
        use crate::messages::payload_digest;
        use cycledger_crypto::schnorr::verify;

        pub struct Member {
            me: NodeId,
            keypair: Keypair,
            id: ConsensusId,
            keys: CommitteeKeys,
            accepted: Option<(Digest, Signature)>,
            payload: bool,
            echoes: BTreeMap<NodeId, Signature>,
            confirmed: bool,
            halted: bool,
        }

        impl Member {
            pub fn new(me: NodeId, keypair: Keypair, id: ConsensusId, keys: CommitteeKeys) -> Self {
                Member {
                    me,
                    keypair,
                    id,
                    keys,
                    accepted: None,
                    payload: false,
                    echoes: BTreeMap::new(),
                    confirmed: false,
                    halted: false,
                }
            }

            fn leader_signed(&self, digest: &Digest, signature: &Signature) -> bool {
                let leader_pk = self.keys.get(NodeId(0)).expect("leader is a member");
                verify(
                    leader_pk,
                    &propose_signing_bytes(&self.id, digest),
                    signature,
                )
            }

            fn equivocation(&mut self, digest_b: Digest, sig_b: Signature) -> Vec<MemberAction> {
                let (digest_a, sig_a) = self.accepted.expect("conflict with an accepted digest");
                self.halted = true;
                vec![MemberAction::ReportEquivocation(EquivocationEvidence {
                    id: self.id,
                    leader: NodeId(0),
                    digest_a,
                    sig_a,
                    digest_b,
                    sig_b,
                })]
            }

            pub fn handle_propose(&mut self, propose: &Propose) -> Vec<MemberAction> {
                if self.halted
                    || propose.id != self.id
                    || propose.leader != NodeId(0)
                    || propose.digest != payload_digest(&propose.payload)
                    || !self.leader_signed(&propose.digest, &propose.signature)
                {
                    return Vec::new();
                }
                match self.accepted {
                    Some((digest, _)) if digest != propose.digest => {
                        return self.equivocation(propose.digest, propose.signature)
                    }
                    Some(_) if self.payload => return Vec::new(),
                    _ => {}
                }
                self.accepted
                    .get_or_insert((propose.digest, propose.signature));
                self.payload = true;
                let echo = make_echo(propose, self.me, &self.keypair);
                self.echoes.insert(self.me, echo.signature);
                let mut actions = vec![MemberAction::BroadcastEcho(echo)];
                actions.extend(self.maybe_confirm());
                actions
            }

            pub fn handle_echo(&mut self, echo: &Echo) -> Vec<MemberAction> {
                if self.halted || echo.id != self.id || echo.leader != NodeId(0) {
                    return Vec::new();
                }
                let Some(member_pk) = self.keys.get(echo.member) else {
                    return Vec::new();
                };
                let bytes = echo_signing_bytes(&echo.id, &echo.digest, echo.member);
                if !verify(member_pk, &bytes, &echo.signature)
                    || !self.leader_signed(&echo.digest, &echo.propose_signature)
                {
                    return Vec::new();
                }
                match self.accepted {
                    None => {
                        self.accepted = Some((echo.digest, echo.propose_signature));
                        self.echoes.insert(echo.member, echo.signature);
                        Vec::new()
                    }
                    Some((digest, _)) if digest != echo.digest => {
                        self.equivocation(echo.digest, echo.propose_signature)
                    }
                    Some(_) => {
                        self.echoes.insert(echo.member, echo.signature);
                        self.maybe_confirm()
                    }
                }
            }

            fn maybe_confirm(&mut self) -> Vec<MemberAction> {
                if self.confirmed || !self.payload || self.echoes.len() <= self.keys.len() / 2 {
                    return Vec::new();
                }
                self.confirmed = true;
                let (digest, _) = self.accepted.expect("payload implies an accepted digest");
                vec![MemberAction::SendConfirm(make_confirm(
                    self.id,
                    digest,
                    self.me,
                    &self.keypair,
                    self.echoes.iter().map(|(n, s)| (*n, *s)).collect(),
                ))]
            }
        }

        pub struct Leader {
            id: ConsensusId,
            digest: Digest,
            keys: CommitteeKeys,
            confirms: BTreeMap<NodeId, Signature>,
            certified: bool,
        }

        impl Leader {
            pub fn new(id: ConsensusId, digest: Digest, keys: CommitteeKeys) -> Self {
                Leader {
                    id,
                    digest,
                    keys,
                    confirms: BTreeMap::new(),
                    certified: false,
                }
            }

            pub fn handle_confirm(&mut self, confirm: &Confirm) -> Option<QuorumCertificate> {
                if confirm.id != self.id || confirm.digest != self.digest {
                    return None;
                }
                let member_pk = self.keys.get(confirm.member)?;
                let bytes = confirm_signing_bytes(&confirm.id, &confirm.digest, confirm.member);
                if !verify(member_pk, &bytes, &confirm.signature) {
                    return None;
                }
                self.confirms.insert(confirm.member, confirm.signature);
                if self.certified || self.confirms.len() <= self.keys.len() / 2 {
                    return None;
                }
                self.certified = true;
                Some(QuorumCertificate {
                    id: self.id,
                    digest: self.digest,
                    signatures: self.confirms.iter().map(|(n, s)| (*n, *s)).collect(),
                })
            }
        }
    }

    /// Plays one instance at committee size `c` on the lazy machines and the
    /// eager oracle in lockstep, delivering the in-flight messages in an
    /// order drawn from `seed` (so ECHOes overtake the PROPOSE, CONFIRMs
    /// overtake ECHOes). With `hostile`, the leader equivocates towards some
    /// members and the schedule is salted with forged ECHOes and CONFIRMs
    /// (in a real sender's name) and verbatim duplicates. Every reaction is
    /// compared as it happens — `Debug` output shows every signature byte —
    /// and the number of certificates is returned.
    fn play_against_oracle(c: usize, seed: u64, hostile: bool) -> usize {
        let (kps, keys) = committee(c);
        let id = instance_id();
        let mut rng = HmacDrbg::from_parts("alg3-delivery-order", &[&seed.to_be_bytes()]);
        let mut below = move |n: usize| rng.next_below(n as u64) as usize;
        let propose = make_propose(id, b"certified list".to_vec(), NodeId(0), &kps[0]);
        let alternate = make_propose(id, b"another list".to_vec(), NodeId(0), &kps[0]);
        let cache = SigCache::new();
        let mut lazy: Vec<MemberState> = (0..c as u32)
            .map(|i| member(i, &kps, &keys, &cache))
            .collect();
        let mut oracle: Vec<eager::Member> = (0..c)
            .map(|i| eager::Member::new(NodeId(i as u32), kps[i], id, keys.clone()))
            .collect();
        let mut lazy_leader = LeaderState::new(id, propose.digest, keys.clone());
        lazy_leader.set_sig_cache(cache);
        let mut oracle_leader = eager::Leader::new(id, propose.digest, keys.clone());

        let mut in_flight: Vec<(usize, Alg3Message)> = (0..c)
            .map(|to| {
                let equivocate = hostile && to % 2 == 1 && seed.is_multiple_of(3);
                let p = if equivocate { &alternate } else { &propose };
                (to, Alg3Message::Propose(p.clone()))
            })
            .collect();
        let mut certificates = 0;
        while !in_flight.is_empty() {
            let (to, message) = in_flight.swap_remove(below(in_flight.len()));
            if hostile && below(8) == 0 {
                in_flight.push((to, message.clone()));
            }
            let (got, expected) = match &message {
                Alg3Message::Propose(p) => {
                    (lazy[to].handle_propose(p), oracle[to].handle_propose(p))
                }
                Alg3Message::Echo(e) => (lazy[to].handle_echo(e), oracle[to].handle_echo(e)),
                Alg3Message::Confirm(confirm) => {
                    let got = lazy_leader.handle_confirm(confirm);
                    assert_eq!(got, oracle_leader.handle_confirm(confirm), "seed {seed}");
                    if let Some(certificate) = got {
                        assert_eq!(certificate.verify_majority(&keys), Ok(()));
                        certificates += 1;
                    }
                    continue;
                }
            };
            assert_eq!(
                format!("{got:?}"),
                format!("{expected:?}"),
                "c {c} seed {seed}: member {to} on {message:?}"
            );
            for action in got {
                match action {
                    MemberAction::BroadcastEcho(echo) => {
                        for target in (0..c).filter(|&t| t != to) {
                            if hostile && below(6) == 0 {
                                let forged = Echo {
                                    signature: kps[to].sign(b"forged"),
                                    member: NodeId(below(c) as u32),
                                    ..echo.clone()
                                };
                                in_flight.push((target, Alg3Message::Echo(forged)));
                            }
                            in_flight.push((target, Alg3Message::Echo(echo.clone())));
                        }
                    }
                    MemberAction::SendConfirm(confirm) => {
                        if hostile && below(3) == 0 {
                            let forged = Confirm {
                                member: NodeId(below(c) as u32),
                                ..confirm.clone()
                            };
                            in_flight.push((0, Alg3Message::Confirm(forged)));
                        }
                        in_flight.push((0, Alg3Message::Confirm(confirm)));
                    }
                    MemberAction::ReportEquivocation(evidence) => {
                        assert!(evidence.verify(&kps[0].public));
                    }
                }
            }
        }
        certificates
    }

    #[test]
    fn lazy_machines_match_the_eager_oracle() {
        for c in [4usize, 5, 8, 16] {
            for seed in 0..64 {
                assert_eq!(play_against_oracle(c, seed, false), 1, "c {c} seed {seed}");
            }
            for seed in 64..96 {
                assert!(play_against_oracle(c, seed, true) <= 1);
            }
        }
    }

    /// The cost ledger's row for one instance, in exact counts: an honest
    /// c = 16 instance, every message delivered in id order.
    ///
    /// | per instance                         | parent (eager) | now |
    /// |--------------------------------------|----------------|-----|
    /// | signatures verified                  |             33 |  19 |
    /// | … one at a time                      |             33 |   2 |
    /// | … in batches (calls)                 |          0 (0) | 17 (2) |
    /// | memo lookups                         |            512 | 153 |
    /// | … that hash a SHA-256 key            |            512 |   0 |
    ///
    /// 19 = the PROPOSE, the ECHOes of the nine members some quorum needed
    /// (eight in the first member's batch, one more for the second member)
    /// and nine CONFIRMs in one batch; any delivery order stays within
    /// 1 + 16 + 9 = 26. Lookups: 16 for the PROPOSE, 8 per member for its
    /// quorum of ECHOes, 9 for the CONFIRMs — `sigcache`'s own opcount test
    /// pins that a lookup costs no SHA-256 compression.
    #[cfg(feature = "opcount")]
    #[test]
    fn honest_instance_signature_checks_are_pinned() {
        use cycledger_crypto::opcount::scope;
        run_honest(4, b"warm the static tables");
        let tally = scope(|| run_honest(16, b"TXdecSET payload"));
        println!("{tally:?}");
        let verified = tally.sigs_single + tally.sigs_batched;
        assert!(verified <= 26);
        assert_eq!(
            (
                tally.sigs_single,
                tally.sigs_batched,
                tally.sig_batches,
                tally.memo_lookups
            ),
            (2, 17, 2, 153)
        );
    }
}
