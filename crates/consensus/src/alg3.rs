//! Per-node state machines for Algorithm 3 ("Inside-committee Consensus").
//!
//! The leader PROPOSEs a payload; every member ECHOes the digest and relays the
//! leader-signed proposal; once a member has identical ECHOes from more than half
//! of the committee (plus the leader's PROPOSE) it CONFIRMs back to the leader
//! with the echo signatures attached; the leader terminates with a
//! [`QuorumCertificate`] once more than half of the committee has CONFIRMed.
//!
//! The state machines are transport-agnostic: they consume verified-or-rejected
//! messages and emit actions (messages to send, or misbehaviour evidence).
//! [`Instance`] composes one committee's worth of them — who is sent which
//! PROPOSE, who never sends, where evidence goes — and is what a transport
//! steps: the protocol crate pumps it over the simulated network, which is
//! where latency, phases, and adversarial scheduling come in, and the checker
//! delivers its messages in every order.
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
//!
//! **An instance allocates per member, not per message.** A machine pushes
//! its reactions into a buffer its caller owns — [`Instance`] keeps one,
//! drained into the transport's list after every delivery — and a tally is
//! a sorted list and a buffer, each sized for the quorum it collects. The
//! quorum batches check in the verdict memo's scratch
//! (`SigCache::verify_signed`), which [`Instance::open`] sizes for the
//! committee along with the memo's table, and the collector's tally becomes
//! the certificate. What is left is a fixed handful per instance and, per
//! member, its two tally lists and its CONFIRM's echo signatures — message
//! content: 61 allocations for an honest `c = 15` instance, 109 at `c = 31`
//! (`crates/protocol/tests/instance_allocations.rs`).

use std::hash::{Hash, Hasher};

use cycledger_crypto::schnorr::{Keypair, Signature};
use cycledger_crypto::sha256::Digest;
use cycledger_net::topology::NodeId;

use crate::messages::{
    confirm_signing_bytes, echo_signing_bytes, make_confirm, make_confirm_unsigned, make_echo,
    make_echo_unsigned, make_propose, make_propose_unsigned, propose_signing_bytes,
    verify_echo_cached, verify_propose_cached, Alg3Message, Confirm, ConsensusId, Echo, Propose,
};
use crate::quorum::{CommitteeKeys, QuorumCertificate};
use crate::sigcache::{SigCache, Verdicts};
use crate::transition::{confirm_quorum, digests_conflict, echo_quorum, majority_threshold};
use crate::witness::EquivocationEvidence;

/// The signatures of one quorum step — ECHOes at a member, CONFIRMs at the
/// leader: those verified, and those buffered for the batch check.
#[derive(Clone, Debug, Hash)]
struct SignatureTally {
    /// One signature per sender, in sender order.
    verified: Vec<(NodeId, Signature)>,
    /// Unchecked, in arrival order.
    pending: Vec<(NodeId, Signature)>,
    /// Distinct senders in `pending` that `verified` lacks.
    fresh_senders: usize,
}

impl SignatureTally {
    /// A tally with room for the `quorum` it collects, in both lists: the
    /// one allocation each makes in a run that reaches its quorum without a
    /// forgery in the way.
    fn for_quorum(quorum: usize) -> SignatureTally {
        SignatureTally {
            verified: Vec::with_capacity(quorum),
            pending: Vec::with_capacity(quorum),
            fresh_senders: 0,
        }
    }

    fn signature_of(&self, sender: NodeId) -> Option<&Signature> {
        let at = self.verified.binary_search_by_key(&sender, |(s, _)| *s);
        at.ok().map(|at| &self.verified[at].1)
    }

    /// Counts `signature` as verified, replacing `sender`'s earlier one.
    fn insert(&mut self, sender: NodeId, signature: Signature) {
        match self.verified.binary_search_by_key(&sender, |(s, _)| *s) {
            Ok(at) => self.verified[at].1 = signature,
            Err(at) => self.verified.insert(at, (sender, signature)),
        }
    }

    /// Buffers an unchecked signature. A sender may appear more than once —
    /// anyone can claim a sender, so a buffered signature cannot shadow a
    /// later one — but counts once towards [`Self::reachable`].
    fn defer(&mut self, sender: NodeId, signature: Signature) {
        let verified = self.signature_of(sender);
        if verified == Some(&signature) || self.pending.contains(&(sender, signature)) {
            return;
        }
        if verified.is_none() && self.pending.iter().all(|(s, _)| *s != sender) {
            self.fresh_senders += 1;
        }
        self.pending.push((sender, signature));
    }

    /// Senders the tally would hold if every buffered signature were valid.
    fn reachable(&self) -> usize {
        self.verified.len() + self.fresh_senders
    }

    /// Checks the buffer as one batch (`SigCache::verify_signed`, in the
    /// memo's scratch) and moves the valid signatures into `verified` in
    /// arrival order (a sender's later valid signature replaces its earlier
    /// one, as it would have on arrival). `signing_bytes` gives the bytes
    /// `sender` signed; every buffered sender has a key in `keys`.
    fn settle<const N: usize>(
        &mut self,
        cache: &SigCache,
        keys: &CommitteeKeys,
        signing_bytes: impl Fn(NodeId) -> [u8; N],
    ) {
        if self.pending.is_empty() {
            return;
        }
        let key = |sender| keys.get(sender).expect("membership checked on arrival");
        let signers = self
            .pending
            .iter()
            .map(|(sender, signature)| (key(*sender), signature));
        let signed = self
            .pending
            .iter()
            .map(|(sender, _)| signing_bytes(*sender));
        let verdicts = cache.verify_signed(signers, signed);
        for (index, valid) in verdicts.iter().enumerate() {
            if *valid {
                let (sender, signature) = self.pending[index];
                self.insert(sender, signature);
            }
        }
        self.pending.clear();
        self.fresh_senders = 0;
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
    /// The member stopped participating: it caught the leader cheating.
    halted: bool,
    /// `false` is a probe's counterfactual, set by [`Instance::open`] alone:
    /// nothing incoming is checked and the member's own signatures are
    /// placeholders (same message shapes and wire sizes), which times what
    /// an instance costs besides its signatures. No round of the engine
    /// uses it (`run_inside_consensus` in the protocol crate says who does).
    verify_signatures: bool,
    /// The instance's verification memo (see [`SigCache`]): a triple every
    /// receiver checks — the leader's multicast PROPOSE signature — is
    /// verified once for the whole committee.
    sig_cache: SigCache,
}

impl MemberState {
    /// Creates the member-side state for one consensus instance, verifying
    /// through the instance's memo `sig_cache`.
    pub fn new(
        me: NodeId,
        keypair: Keypair,
        leader: NodeId,
        id: ConsensusId,
        keys: CommitteeKeys,
        sig_cache: SigCache,
    ) -> Self {
        MemberState {
            me,
            keypair,
            leader,
            id,
            echoes: SignatureTally::for_quorum(keys.majority_threshold()),
            keys,
            accepted: None,
            payload: None,
            confirmed: false,
            halted: false,
            verify_signatures: true,
            sig_cache,
        }
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

    /// Handles a PROPOSE from the leader, pushing what it asks for onto `out`.
    pub fn handle_propose(&mut self, propose: &Propose, out: &mut Vec<MemberAction>) {
        if self.halted || propose.id != self.id || propose.leader != self.leader {
            return;
        }
        let Some(leader_pk) = self.keys.get(self.leader) else {
            return;
        };
        if self.verify_signatures && !verify_propose_cached(propose, leader_pk, &self.sig_cache) {
            // Unsigned/garbled proposal: ignore (an invalid signature is not
            // evidence of anything — anyone could have forged it).
            return;
        }
        match &self.accepted {
            None => {
                self.accepted = Some((propose.digest, propose.signature));
                self.echo_and_maybe_confirm(propose, out);
            }
            Some((digest, _)) if *digest == propose.digest && self.payload.is_none() => {
                // We adopted the digest earlier from a relayed echo (the network
                // delivered a peer's ECHO before the leader's PROPOSE); now that
                // the payload has arrived we can echo and, if the quorum of
                // echoes is already in, confirm.
                self.echo_and_maybe_confirm(propose, out);
            }
            Some((digest, sig)) if digests_conflict(digest, &propose.digest) => {
                // Two leader-signed digests for the same (r, sn): equivocation.
                self.halted = true;
                out.push(MemberAction::ReportEquivocation(EquivocationEvidence {
                    id: self.id,
                    leader: self.leader,
                    digest_a: *digest,
                    sig_a: *sig,
                    digest_b: propose.digest,
                    sig_b: propose.signature,
                }));
            }
            Some(_) => {} // duplicate of what we already accepted
        }
    }

    /// Takes the payload of the accepted proposal, echoes it and counts the
    /// echo (a member counts its own, which needs no check).
    fn echo_and_maybe_confirm(&mut self, propose: &Propose, out: &mut Vec<MemberAction>) {
        self.payload = Some(propose.payload.clone());
        let echo = self.build_echo(propose);
        self.echoes.insert(self.me, echo.signature);
        out.push(MemberAction::BroadcastEcho(echo));
        self.maybe_confirm(out);
    }

    /// Handles an ECHO from another member, pushing what it asks for onto
    /// `out`.
    pub fn handle_echo(&mut self, echo: &Echo, out: &mut Vec<MemberAction>) {
        if self.halted || echo.id != self.id || echo.leader != self.leader {
            return;
        }
        let (Some(member_pk), Some(leader_pk)) =
            (self.keys.get(echo.member), self.keys.get(self.leader))
        else {
            return;
        };
        match self.accepted {
            Some((digest, leader_signature)) if !digests_conflict(&digest, &echo.digest) => {
                // At most one more echo in the tally — and once the CONFIRM
                // is out the tally decides nothing.
                if self.confirmed {
                    return;
                }
                if !self.verify_signatures {
                    self.echoes.insert(echo.member, echo.signature);
                    self.maybe_confirm(out);
                    return;
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
                    return;
                }
                self.echoes.defer(echo.member, echo.signature);
                self.maybe_confirm(out);
            }
            accepted => {
                // This echo would make us adopt a digest, or accuse the
                // leader: it is checked before it does either.
                if self.verify_signatures
                    && !verify_echo_cached(echo, member_pk, leader_pk, &self.sig_cache)
                {
                    return;
                }
                let Some((digest, sig)) = accepted else {
                    // We have not heard the leader directly, but the echo
                    // relays a valid leader-signed proposal header. Adopt the
                    // digest (we still cannot confirm until we also hold the
                    // payload via PROPOSE, but we can start counting echoes).
                    self.accepted = Some((echo.digest, echo.propose_signature));
                    self.echoes.insert(echo.member, echo.signature);
                    return;
                };
                // The relayed leader signature proves the leader also signed a
                // different digest: equivocation caught via a peer's echo.
                self.halted = true;
                out.push(MemberAction::ReportEquivocation(EquivocationEvidence {
                    id: self.id,
                    leader: self.leader,
                    digest_a: digest,
                    sig_a: sig,
                    digest_b: echo.digest,
                    sig_b: echo.propose_signature,
                }));
            }
        }
    }

    fn maybe_confirm(&mut self, out: &mut Vec<MemberAction>) {
        if self.confirmed || self.payload.is_none() {
            return;
        }
        let Some((digest, _)) = self.accepted else {
            return;
        };
        let committee_size = self.keys.len();
        if !echo_quorum(self.echoes.reachable(), committee_size) {
            return;
        }
        let id = self.id;
        self.echoes.settle(&self.sig_cache, &self.keys, |member| {
            echo_signing_bytes(&id, &digest, member)
        });
        if !echo_quorum(self.echoes.verified.len(), committee_size) {
            return;
        }
        self.confirmed = true;
        let echo_signatures = self.echoes.verified.clone();
        let confirm = if self.verify_signatures {
            make_confirm(self.id, digest, self.me, &self.keypair, echo_signatures)
        } else {
            make_confirm_unsigned(self.id, digest, self.me, echo_signatures)
        };
        out.push(MemberAction::SendConfirm(confirm));
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
    /// Creates the leader-side state after the leader has built its proposal,
    /// verifying through the instance's memo `sig_cache`.
    pub fn new(id: ConsensusId, digest: Digest, keys: CommitteeKeys, sig_cache: SigCache) -> Self {
        LeaderState {
            id,
            digest,
            confirms: SignatureTally::for_quorum(keys.majority_threshold()),
            keys,
            certificate: None,
            verify_signatures: true,
            sig_cache,
        }
    }

    /// Handles a CONFIRM from a member; returns whether it formed the quorum
    /// certificate ([`certificate`](Self::certificate)) — true the first time
    /// a majority of valid CONFIRMs is in. CONFIRMs that arrive after that
    /// are dropped.
    pub fn handle_confirm(&mut self, confirm: &Confirm) -> bool {
        if self.certificate.is_some()
            || confirm.id != self.id
            || confirm.digest != self.digest
            || !self.keys.contains(confirm.member)
        {
            return false;
        }
        if self.verify_signatures {
            self.confirms.defer(confirm.member, confirm.signature);
        } else {
            self.confirms.insert(confirm.member, confirm.signature);
        }
        let committee_size = self.keys.len();
        if !confirm_quorum(self.confirms.reachable(), committee_size) {
            return false;
        }
        let (id, digest) = (self.id, self.digest);
        self.confirms.settle(&self.sig_cache, &self.keys, |member| {
            confirm_signing_bytes(&id, &digest, member)
        });
        if !confirm_quorum(self.confirms.verified.len(), committee_size) {
            return false;
        }
        // Nothing enters the tally once the certificate exists, so its list
        // becomes the certificate's.
        self.certificate = Some(QuorumCertificate {
            id: self.id,
            digest: self.digest,
            signatures: std::mem::take(&mut self.confirms.verified),
        });
        true
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

/// How the leader misbehaves during one Algorithm 3 instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LeaderFault {
    /// Follows the protocol.
    None,
    /// Sends nothing.
    Silent,
    /// Sends `payload` to the even seats of the committee and `alternate` to
    /// the odd ones.
    Equivocate {
        /// The conflicting payload delivered to the odd seats.
        alternate: Vec<u8>,
    },
}

/// The committee an instance runs in, as plain values in seat order.
#[derive(Clone, Copy, Debug)]
pub struct Seats<'c> {
    /// Who holds each seat.
    pub nodes: &'c [NodeId],
    /// Each seat's key pair.
    pub keypairs: &'c [Keypair],
    /// Seats that take part in nothing they would have to send: their machine
    /// runs, its ECHO and CONFIRM stay home. The worst a malicious member can
    /// do to an honest leader's instance — a forged message is rejected
    /// anyway — and what a joiner still syncing does.
    pub mute: &'c [bool],
    /// The committee's key directory.
    pub keys: &'c CommitteeKeys,
    /// The sitting leader, who holds one of the seats.
    pub leader: NodeId,
}

/// What an [`Instance`] asks its transport to send.
#[derive(Clone, Debug, Hash)]
pub struct Action {
    /// The sending seat.
    pub from: NodeId,
    /// The receiving seat; `None` — an ECHO — is every seat but the sender's.
    pub to: Option<NodeId>,
    /// A PROPOSE from the leader, or a CONFIRM to it, or an ECHO.
    pub message: Alg3Message,
}

/// One Algorithm 3 instance, composed: a [`MemberState`] per seat (the
/// leader's among them) and one CONFIRM collector per digest the leader
/// signed, all on one verdict memo. A transport [`open`](Self::open)s it,
/// sends what it asks for, hands it every message that arrives
/// ([`deliver`](Self::deliver)) and [`close`](Self::close)s it when nothing
/// is left in flight; no network, no clock.
#[derive(Clone, Debug)]
pub struct Instance<'c> {
    seats: Seats<'c>,
    members: Vec<MemberState>,
    /// The first collects for the payload, the second — under an equivocating
    /// leader — for the alternate; a silent leader has none.
    collectors: Vec<LeaderState>,
    /// Evidence honest members produced, in report order.
    equivocation: Vec<EquivocationEvidence>,
    memo: SigCache,
    /// What the machine a message was delivered to asks for, until it is
    /// filed: empty between deliveries, and reused by every one.
    reactions: Vec<MemberAction>,
}

impl<'c> Instance<'c> {
    /// Seats the machines on `memo` and plays the leader's opening into
    /// `out`: a PROPOSE to every other seat — under
    /// [`LeaderFault::Equivocate`] the alternate to the odd seats — then what
    /// the leader's own machine makes of its proposal, which travels no
    /// network. `verify = false` makes every machine skip verification and
    /// sign with placeholders (see `MemberState`'s `verify_signatures`).
    ///
    /// The memo is sized here for what an instance of this committee
    /// verifies (`SigCache::reserve`), so the machines' verdicts and quorum
    /// batches allocate nothing more.
    pub fn open(
        seats: Seats<'c>,
        id: ConsensusId,
        payload: Vec<u8>,
        fault: LeaderFault,
        verify: bool,
        memo: SigCache,
        out: &mut Vec<Action>,
    ) -> Self {
        let Seats {
            nodes,
            keypairs,
            keys,
            leader,
            ..
        } = seats;
        let seated = nodes.iter().position(|&node| node == leader);
        let leader_seat = seated.expect("the leader holds a seat");
        assert_eq!(
            (keypairs.len(), seats.mute.len()),
            (nodes.len(), nodes.len())
        );
        // Without verification nothing checks a signature, so the leader
        // attaches placeholders; digests and wire sizes are unchanged.
        let propose = |payload: Vec<u8>| {
            if verify {
                make_propose(id, payload, leader, &keypairs[leader_seat])
            } else {
                make_propose_unsigned(id, payload, leader)
            }
        };
        let (main, alternate) = match fault {
            LeaderFault::None => (Some(propose(payload)), None),
            LeaderFault::Silent => (None, None),
            LeaderFault::Equivocate { alternate } => {
                (Some(propose(payload)), Some(propose(alternate)))
            }
        };
        memo.reserve(memo_verdicts(nodes.len()), nodes.len());
        let member = |(&node, &keypair): (&NodeId, &Keypair)| MemberState {
            verify_signatures: verify,
            ..MemberState::new(node, keypair, leader, id, keys.clone(), memo.clone())
        };
        let collector = |signed: &Propose| LeaderState {
            verify_signatures: verify,
            ..LeaderState::new(id, signed.digest, keys.clone(), memo.clone())
        };
        let mut instance = Instance {
            seats,
            members: nodes.iter().zip(keypairs).map(member).collect(),
            collectors: main.iter().chain(&alternate).map(collector).collect(),
            equivocation: Vec::new(),
            memo,
            reactions: Vec::new(),
        };
        // A silent leader's missing proposal is for the partial set to
        // notice, after the phase deadline.
        let Some(main) = main else {
            return instance;
        };
        for (seat, &to) in nodes.iter().enumerate() {
            if to != leader {
                // Seat parity picks among what the leader signed.
                let odd = alternate.as_ref().filter(|_| seat % 2 == 1);
                let propose = odd.unwrap_or(&main).clone();
                let (from, to, message) = (leader, Some(to), Alg3Message::Propose(propose));
                out.push(Action { from, to, message });
            }
        }
        let reactions = &mut instance.reactions;
        instance.members[leader_seat].handle_propose(&main, reactions);
        instance.file(leader_seat, out);
        instance
    }

    /// Hands `message` to the machine of the seat it is addressed to — a
    /// CONFIRM to the leader's collectors — and pushes what that machine asks
    /// to have sent into `out`. Addressed to nobody seated, it is dropped.
    pub fn deliver(&mut self, to: NodeId, message: &Alg3Message, out: &mut Vec<Action>) {
        let Some(seat) = self.seats.nodes.iter().position(|&node| node == to) else {
            return;
        };
        let (member, reactions) = (&mut self.members[seat], &mut self.reactions);
        match message {
            Alg3Message::Propose(propose) => member.handle_propose(propose, reactions),
            Alg3Message::Echo(echo) => member.handle_echo(echo, reactions),
            Alg3Message::Confirm(confirm) => {
                if to == self.seats.leader {
                    for collector in &mut self.collectors {
                        collector.handle_confirm(confirm);
                    }
                }
                return;
            }
        }
        self.file(seat, out);
    }

    /// The sends of the seat's reactions go out unless it is mute; evidence
    /// goes on file.
    fn file(&mut self, seat: usize, out: &mut Vec<Action>) {
        let Seats { nodes, mute, .. } = self.seats;
        for action in self.reactions.drain(..) {
            let (to, message) = match action {
                MemberAction::BroadcastEcho(echo) => (None, Alg3Message::Echo(echo)),
                MemberAction::SendConfirm(confirm) => {
                    (Some(self.seats.leader), Alg3Message::Confirm(confirm))
                }
                MemberAction::ReportEquivocation(found) => {
                    self.equivocation.push(found);
                    continue;
                }
            };
            if !mute[seat] {
                let from = nodes[seat];
                out.push(Action { from, to, message });
            }
        }
    }

    /// The certificate over the payload's digest, once it exists.
    pub fn certificate(&self) -> Option<&QuorumCertificate> {
        self.collectors.first()?.certificate()
    }

    /// Every certificate formed so far, one per digest at most: two is an
    /// agreement violation.
    pub fn certificates(&self) -> impl Iterator<Item = &QuorumCertificate> {
        self.collectors.iter().filter_map(|c| c.certificate())
    }

    /// Equivocation evidence on file, in report order.
    pub fn equivocation(&self) -> &[EquivocationEvidence] {
        &self.equivocation
    }

    /// Ends the instance: the certificate over the payload's digest if one
    /// formed, every signature verdict reached — the table itself, taken out
    /// of the memo ([`SigCache::into_verdicts`]) — and the evidence on file.
    pub fn close(
        mut self,
    ) -> (
        Option<QuorumCertificate>,
        Verdicts,
        Vec<EquivocationEvidence>,
    ) {
        let main = self.collectors.first_mut();
        let certificate = main.and_then(|collector| collector.certificate.take());
        (certificate, self.memo.into_verdicts(), self.equivocation)
    }
}

/// Verdicts an honest instance of `c` seats memoises at most: the PROPOSE,
/// every member's ECHO and a quorum of CONFIRMs (measured at 8×16: 23–27 at
/// `c = 17`, 37–39 at `c = 25`). Forgeries and a second proposal grow the
/// memo past it.
fn memo_verdicts(c: usize) -> usize {
    1 + c + majority_threshold(c)
}

/// State identity for an explorer: the machines, the evidence and who is
/// seated how; the memo is left out as it is for [`MemberState`], and the
/// reaction buffer is empty between deliveries.
impl Hash for Instance<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.seats.nodes, self.seats.mute, self.seats.leader).hash(state);
        (&self.members, &self.collectors, &self.equivocation).hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::payload_digest;
    use cycledger_crypto::hmac::HmacDrbg;
    use cycledger_crypto::schnorr::PreparedKey;

    /// Builds a committee of `n` members; node 0 is the leader.
    fn committee(n: usize) -> (Vec<Keypair>, CommitteeKeys) {
        let keypairs: Vec<Keypair> = (0..n)
            .map(|i| Keypair::from_seed(format!("alg3-member-{i}").as_bytes()))
            .collect();
        let keys = CommitteeKeys::new(
            keypairs
                .iter()
                .enumerate()
                .map(|(i, kp)| (NodeId(i as u32), PreparedKey::new(kp.public))),
        );
        (keypairs, keys)
    }

    fn instance_id() -> ConsensusId {
        ConsensusId { round: 1, seq: 1 }
    }

    /// A member of `committee(n)` led by node 0, on the given memo.
    fn member(i: u32, kps: &[Keypair], keys: &CommitteeKeys, cache: &SigCache) -> MemberState {
        MemberState::new(
            NodeId(i),
            kps[i as usize],
            NodeId(0),
            instance_id(),
            keys.clone(),
            cache.clone(),
        )
    }

    /// The machines' reactions, as the list the tests read.
    impl MemberState {
        fn on_propose(&mut self, propose: &Propose) -> Vec<MemberAction> {
            let mut out = Vec::new();
            self.handle_propose(propose, &mut out);
            out
        }

        fn on_echo(&mut self, echo: &Echo) -> Vec<MemberAction> {
            let mut out = Vec::new();
            self.handle_echo(echo, &mut out);
            out
        }
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
        let mut leader = LeaderState::new(id, propose.digest, keys.clone(), cache.clone());
        let mut members: Vec<MemberState> = (0..n as u32)
            .map(|i| member(i, &kps, &keys, &cache))
            .collect();

        // Step 1: PROPOSE delivered to everyone; collect echoes.
        let mut echoes = Vec::new();
        for member in members.iter_mut() {
            for action in member.on_propose(&propose) {
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
                for action in member.on_echo(echo) {
                    if let MemberAction::SendConfirm(c) = action {
                        confirms.push(c);
                    }
                }
            }
        }
        // Step 3: leader collects confirms; exactly one forms the certificate.
        let formed = confirms.iter().filter(|c| leader.handle_confirm(c)).count();
        assert_eq!(formed, 1);
        let cert = leader.certificate().cloned();
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
                assert_eq!(m.payload.as_deref(), Some(&b"TXdecSET payload".to_vec()));
                assert!(!m.halted);
                assert!(m.confirmed);
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
        assert_eq!(member.on_propose(&p1).len(), 1);
        let actions = member.on_propose(&p2);
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            MemberAction::ReportEquivocation(ev) => {
                assert!(ev.verify(&kps[0].public), "evidence must be verifiable");
                assert_eq!(ev.leader, NodeId(0));
            }
            other => panic!("expected equivocation report, got {other:?}"),
        }
        assert!(member.halted);
        // A halted member ignores further traffic.
        assert!(member.on_propose(&p1).is_empty());
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
            m1.on_propose(&p1);
            if confirm_first {
                m1.on_echo(&echo_of(3, &p1, &kps));
                m1.on_echo(&echo_of(4, &p1, &kps));
            }
            assert_eq!(m1.confirmed, confirm_first);
            // A conflicting echo with a forged signature accuses nobody.
            assert!(m1.on_echo(&forged_echo_of(2, &p2, &kps)).is_empty());
            assert!(!m1.halted);
            let actions = m1.on_echo(&echo_of(2, &p2, &kps));
            assert!(
                matches!(actions.as_slice(), [MemberAction::ReportEquivocation(ev)] if ev.verify(&kps[0].public))
            );
            assert!(m1.halted);
        }
    }

    #[test]
    fn member_does_not_confirm_without_majority_echoes() {
        let (kps, keys) = committee(7); // threshold 4
        let propose = make_propose(instance_id(), b"payload".to_vec(), NodeId(0), &kps[0]);
        let cache = SigCache::new();
        let mut member = member(1, &kps, &keys, &cache);
        member.on_propose(&propose); // own echo = 1
        assert_eq!(cache.len(), 1, "the PROPOSE is checked on arrival");
        // Two more echoes: total 3 < 4, no confirm yet — and no check either.
        for i in 2..4 {
            let actions = member.on_echo(&echo_of(i, &propose, &kps));
            assert!(actions.is_empty(), "no confirm before threshold");
        }
        assert!(!member.confirmed);
        assert_eq!(cache.len(), 1, "echoes wait for the quorum");
        // One more echo crosses the threshold: the three are checked together.
        let actions = member.on_echo(&echo_of(4, &propose, &kps));
        let [MemberAction::SendConfirm(confirm)] = actions.as_slice() else {
            panic!("expected a CONFIRM, got {actions:?}");
        };
        let signers: Vec<u32> = confirm.echo_signatures.iter().map(|(n, _)| n.0).collect();
        assert_eq!(signers, [1, 2, 3, 4]);
        assert!(member.confirmed);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn forged_echo_in_the_quorum_batch_is_isolated() {
        let (kps, keys) = committee(7); // threshold 4
        let propose = make_propose(instance_id(), b"payload".to_vec(), NodeId(0), &kps[0]);
        for real_one_follows in [false, true] {
            let mut member = member(1, &kps, &keys, &SigCache::new());
            member.on_propose(&propose);
            assert!(member.on_echo(&echo_of(2, &propose, &kps)).is_empty());
            assert!(member
                .on_echo(&forged_echo_of(3, &propose, &kps))
                .is_empty());
            // Four senders are in reach, so the buffer is checked: the batch
            // fails, the fallback keeps 2 and 4, and the quorum is not met.
            assert!(member.on_echo(&echo_of(4, &propose, &kps)).is_empty());
            assert!(!member.confirmed);
            // The forgery did not use up member 3's place in the tally.
            let next = if real_one_follows { 3 } else { 5 };
            let actions = member.on_echo(&echo_of(next, &propose, &kps));
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
        member.on_propose(&propose);
        // The same sender over and over — verbatim, and with another
        // signature — stays one sender: the quorum is not even in reach.
        for _ in 0..3 {
            assert!(member.on_echo(&echo_of(2, &propose, &kps)).is_empty());
            assert!(member
                .on_echo(&forged_echo_of(2, &propose, &kps))
                .is_empty());
            assert!(member.on_echo(&echo_of(3, &propose, &kps)).is_empty());
        }
        assert_eq!(member.echoes.reachable(), 3);
        assert_eq!(member.echoes.pending.len(), 3);
        assert_eq!(cache.len(), 1, "nothing but the PROPOSE was checked");
        assert!(!member.confirmed);
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
        assert!(late.on_echo(&forged_echo_of(2, &propose, &kps)).is_empty());
        assert!(late.accepted.is_none());
        // ...nor does one relaying a header the leader never signed.
        let impostor = Keypair::from_seed(b"impostor");
        let fake = make_propose(instance_id(), b"fake".to_vec(), NodeId(0), &impostor);
        assert!(late.on_echo(&echo_of(2, &fake, &kps)).is_empty());
        assert!(late.accepted.is_none());
        let checked = cache.len();
        // The first honest echo makes the member adopt the digest, so it is
        // checked on the spot: its own signature and the relayed leader's.
        assert!(late.on_echo(&echo_of(2, &propose, &kps)).is_empty());
        assert_eq!(late.accepted.map(|(d, _)| d), Some(propose.digest));
        assert_eq!(cache.len(), checked + 2);
        // Echoes from members 3 and 4 only add to the tally: buffered.
        for i in 3..5 {
            assert!(
                late.on_echo(&echo_of(i, &propose, &kps)).is_empty(),
                "cannot confirm without the payload"
            );
        }
        assert_eq!(cache.len(), checked + 2);
        assert!(!late.confirmed);
        // The leader's PROPOSE finally lands: the member echoes and confirms
        // with every echo it holds.
        let actions = late.on_propose(&propose);
        let [MemberAction::BroadcastEcho(_), MemberAction::SendConfirm(confirm)] =
            actions.as_slice()
        else {
            panic!("expected an ECHO and a CONFIRM, got {actions:?}");
        };
        assert_eq!(confirm.echo_signatures.len(), 4);
        assert!(late.confirmed);
        assert_eq!(late.payload.as_deref(), Some(&b"late propose".to_vec()));
    }

    #[test]
    fn forged_messages_are_ignored() {
        let (kps, keys) = committee(5);
        let outsider = Keypair::from_seed(b"outsider");
        let id = instance_id();
        let mut member = member(1, &kps, &keys, &SigCache::new());
        // A proposal "from the leader" signed by an outsider is dropped silently.
        let forged = make_propose(id, b"evil".to_vec(), NodeId(0), &outsider);
        assert!(member.on_propose(&forged).is_empty());
        assert!(member.payload.is_none());
        // An echo from a non-member is dropped too.
        let real = make_propose(id, b"ok".to_vec(), NodeId(0), &kps[0]);
        member.on_propose(&real);
        let echo = make_echo(&real, NodeId(9), &outsider);
        assert!(member.on_echo(&echo).is_empty());
        assert!(member.echoes.pending.is_empty());
    }

    #[test]
    fn late_messages_are_dropped_unverified() {
        let (kps, keys) = committee(5); // threshold 3
        let id = instance_id();
        let propose = make_propose(id, b"payload".to_vec(), NodeId(0), &kps[0]);
        let cache = SigCache::new();
        let mut member = member(1, &kps, &keys, &cache);
        member.on_propose(&propose);
        member.on_echo(&echo_of(2, &propose, &kps));
        member.on_echo(&echo_of(3, &propose, &kps));
        assert!(member.confirmed);
        let mut leader = LeaderState::new(id, propose.digest, keys.clone(), cache.clone());
        let confirm =
            |i: u32| make_confirm(id, propose.digest, NodeId(i), &kps[i as usize], vec![]);
        assert!(!leader.handle_confirm(&confirm(1)));
        assert!(!leader.handle_confirm(&confirm(2)));
        assert!(leader.handle_confirm(&confirm(3)), "quorum of 3");
        let certificate = leader.certificate().cloned().unwrap();
        let checked = cache.len();
        assert_eq!(checked, 1 + 2 + 3);
        // Honest or forged, what comes now is not looked at.
        assert!(member.on_echo(&echo_of(4, &propose, &kps)).is_empty());
        assert!(member
            .on_echo(&forged_echo_of(0, &propose, &kps))
            .is_empty());
        assert!(!leader.handle_confirm(&confirm(4)));
        let forged = make_confirm(id, propose.digest, NodeId(0), &kps[4], vec![]);
        assert!(!leader.handle_confirm(&forged));
        assert_eq!(cache.len(), checked);
        assert!(member.echoes.pending.is_empty() && leader.confirms.pending.is_empty());
        assert_eq!(leader.certificate(), Some(&certificate));
    }

    #[test]
    fn leader_ignores_invalid_or_mismatched_confirms() {
        let (kps, keys) = committee(5);
        let id = instance_id();
        let digest = payload_digest(b"payload");
        let mut leader = LeaderState::new(id, digest, keys.clone(), SigCache::new());
        // Confirm for a different digest, and one from a non-member.
        let wrong = make_confirm(id, payload_digest(b"other"), NodeId(1), &kps[1], vec![]);
        assert!(!leader.handle_confirm(&wrong));
        let outsider = make_confirm(id, digest, NodeId(9), &kps[1], vec![]);
        assert!(!leader.handle_confirm(&outsider));
        assert_eq!(leader.confirms.reachable(), 0);
        // Confirm signed by the wrong node: counted as in reach until the
        // batch check throws it out.
        let forged = make_confirm(id, digest, NodeId(2), &kps[1], vec![]);
        assert!(!leader.handle_confirm(&forged));
        let c = |i: u32| make_confirm(id, digest, NodeId(i), &kps[i as usize], vec![]);
        assert!(!leader.handle_confirm(&c(1)));
        assert!(!leader.handle_confirm(&c(3)));
        assert!(
            leader.certificate().is_none(),
            "two valid CONFIRMs of three"
        );
        // The third valid one — from the member the forgery named — makes
        // exactly one certificate.
        assert!(leader.handle_confirm(&c(2)), "quorum");
        let certificate = leader.certificate().cloned().unwrap();
        assert_eq!(
            certificate.signatures,
            [1, 2, 3].map(|i| (NodeId(i), c(i).signature))
        );
        assert_eq!(certificate.verify_majority(&keys), Ok(()));
        assert!(!leader.handle_confirm(&c(4)));
        assert_eq!(leader.certificate(), Some(&certificate));
    }

    #[test]
    fn duplicate_confirms_do_not_inflate_quorum() {
        let (kps, keys) = committee(5);
        let id = instance_id();
        let digest = payload_digest(b"payload");
        let mut leader = LeaderState::new(id, digest, keys, SigCache::new());
        let c1 = make_confirm(id, digest, NodeId(1), &kps[1], vec![]);
        for _ in 0..5 {
            assert!(!leader.handle_confirm(&c1));
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
            m.verify_signatures = false;
        }
        let echoes: Vec<Echo> = members
            .iter_mut()
            .map(|m| match m.on_propose(&propose).as_slice() {
                [MemberAction::BroadcastEcho(e)] => e.clone(),
                other => panic!("expected an ECHO, got {other:?}"),
            })
            .collect();
        assert!(members[0].on_echo(&echoes[1]).is_empty());
        let actions = members[0].on_echo(&echoes[2]);
        let [MemberAction::SendConfirm(confirm)] = actions.as_slice() else {
            panic!("expected a CONFIRM, got {actions:?}");
        };
        let mut leader = LeaderState::new(id, propose.digest, keys, cache.clone());
        leader.verify_signatures = false;
        let from = |i: u32| Confirm {
            member: NodeId(i),
            ..confirm.clone()
        };
        assert!(!leader.handle_confirm(&from(0)));
        assert!(!leader.handle_confirm(&from(1)));
        assert!(leader.handle_confirm(&from(2)));
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
        use std::collections::BTreeMap;

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

    /// `action` as the envelopes the engine posts for it in a committee of
    /// `c` (node `i` in seat `i`): `(from, to, message)`, an ECHO once per
    /// other seat in seat order.
    fn envelopes(action: Action, c: usize) -> Vec<(usize, usize, Alg3Message)> {
        let Action { from, to, message } = action;
        let others = (0..c).filter(|&to| to != from.index());
        let to = to.map_or_else(|| others.collect(), |to| vec![to.index()]);
        let envelope = |to| (from.index(), to, message.clone());
        to.into_iter().map(envelope).collect()
    }

    /// Steps one instance over `c` seats — holding the keys
    /// `NodeRegistry::generate(c, .., seed 24)` of the protocol crate hands
    /// out — on the schedule that delivers every envelope in the order it was
    /// sent, and returns the envelope count, the closed instance and the
    /// transcript: one line per envelope as it is sent, then the certificate,
    /// then the evidence.
    fn in_send_order(
        c: usize,
        fault: LeaderFault,
        mute: &[bool],
    ) -> (
        usize,
        Option<QuorumCertificate>,
        Vec<EquivocationEvidence>,
        String,
    ) {
        let seed = |i: usize| format!("cycledger-node-24-{i}");
        let keypairs: Vec<Keypair> = (0..c)
            .map(|i| Keypair::from_seed(seed(i).as_bytes()))
            .collect();
        let nodes: Vec<NodeId> = (0..c as u32).map(NodeId).collect();
        let keys = CommitteeKeys::new(
            nodes
                .iter()
                .zip(&keypairs)
                .map(|(n, kp)| (*n, PreparedKey::new(kp.public))),
        );
        let seats = Seats {
            nodes: &nodes,
            keypairs: &keypairs,
            mute,
            keys: &keys,
            leader: NodeId(0),
        };
        let (payload, memo) = (b"the certified list".to_vec(), SigCache::new());
        let mut asked = Vec::new();
        let mut instance =
            Instance::open(seats, instance_id(), payload, fault, true, memo, &mut asked);
        let (mut sent, mut transcript) = (0, String::new());
        let mut in_flight = std::collections::VecDeque::new();
        loop {
            for (from, to, message) in asked.drain(..).flat_map(|action| envelopes(action, c)) {
                transcript.push_str(&format!("{from}>{to} {message:?}\n"));
                in_flight.push_back((to, message));
                sent += 1;
            }
            let Some((to, message)) = in_flight.pop_front() else {
                break;
            };
            instance.deliver(NodeId(to as u32), &message, &mut asked);
        }
        assert!(instance.certificates().count() <= 1);
        let (certificate, _, equivocation) = instance.close();
        transcript.push_str(&format!("certificate {certificate:?}\n"));
        transcript.push_str(&format!("evidence {equivocation:?}\n"));
        (sent, certificate, equivocation, transcript)
    }

    /// `(c, scenario, envelopes, signers, pieces of evidence, transcript digest)`.
    type ParentRun = (
        usize,
        &'static str,
        usize,
        &'static [u32],
        usize,
        &'static str,
    );

    /// What `committee::run_inside_consensus` of the protocol crate produced
    /// at commit e59183c — where it composed the machines itself — over a
    /// network whose every leg takes 1µs (which delivers in send order), for
    /// a committee of the first `c` nodes of a seed-24 registry led by node 0
    /// certifying `b"the certified list"` under `ConsensusId { 1, 1 }`:
    /// envelopes sent, the certificate's signers, pieces of evidence, and the
    /// SHA-256 of the transcript (every envelope's `Debug` in send order,
    /// then the certificate's, then the evidence's — every signature byte).
    /// `equivocating` sends `b"another list"` to the odd seats;
    /// `mute-minority` has the last `(c - 1) / 2` seats withhold, which
    /// leaves exactly a quorum.
    #[rustfmt::skip]
    const PARENT_DRIVER: [ParentRun; 12] = [
        (4, "honest", 19, &[0, 2, 3], 0, "58569f031df087a5e7205e94070570dfafff703a68a8f48b56ee30b7ab23d0ab"),
        (4, "silent", 0, &[], 0, "421e004c4f6e733c9903fd2c287a519498fd818621eba5dc355e99d68519bb4a"),
        (4, "equivocating", 15, &[], 4, "f52c1342e3ab5bcefff2a38c668f6e2624005eb40ab43cbdf83808eeba5ae3a7"),
        (4, "mute-minority", 15, &[0, 1, 2], 0, "c20f9c5029d043a1af66009a290dc97f994ac338cebfae52e730d0f53eef3149"),
        (8, "honest", 71, &[0, 4, 5, 6, 7], 0, "7cc7cb729ace30ae58f844231199192f1e2be4471c106982884ec76bad722503"),
        (8, "silent", 0, &[], 0, "421e004c4f6e733c9903fd2c287a519498fd818621eba5dc355e99d68519bb4a"),
        (8, "equivocating", 63, &[], 8, "d19b156edf1c3c80d9d978f7a87202db440693a9a1ec3cf8f717f7c15b65aed4"),
        (8, "mute-minority", 47, &[0, 1, 2, 3, 4], 0, "0cfbfd289b31bee7788036a055e13c51511b35f9138fa5ef37fe1ca7632bd3ef"),
        (16, "honest", 271, &[0, 8, 9, 10, 11, 12, 13, 14, 15], 0, "3255d4c4fb2867b6801da553f5474739822688a9f3789b427f424d7f651b4a44"),
        (16, "silent", 0, &[], 0, "421e004c4f6e733c9903fd2c287a519498fd818621eba5dc355e99d68519bb4a"),
        (16, "equivocating", 255, &[], 16, "087b376ece1769805c922f95637c6856293bd14294d0f3d07e6d0222b25f5e43"),
        (16, "mute-minority", 159, &[0, 1, 2, 3, 4, 5, 6, 7, 8], 0, "0ebd19b53ec6ef28bca3fcd1c6bc3d54da013ab3a48be4605c3337e3654eeb3a"),
    ];

    #[test]
    fn instance_in_send_order_reproduces_the_parent_driver() {
        for (c, scenario, envelopes, signers, evidence, digest) in PARENT_DRIVER {
            let fault = match scenario {
                "silent" => LeaderFault::Silent,
                "equivocating" => LeaderFault::Equivocate {
                    alternate: b"another list".to_vec(),
                },
                _ => LeaderFault::None,
            };
            let withholding = if scenario == "mute-minority" {
                (c - 1) / 2
            } else {
                0
            };
            let mute: Vec<bool> = (0..c).map(|seat| seat >= c - withholding).collect();
            let (sent, certificate, equivocation, transcript) = in_send_order(c, fault, &mute);
            let signed: Vec<u32> = certificate
                .iter()
                .flat_map(|qc| qc.signatures.iter().map(|(node, _)| node.0))
                .collect();
            assert_eq!(
                (sent, &signed[..], equivocation.len()),
                (envelopes, signers, evidence),
                "c {c} {scenario}"
            );
            let got = cycledger_crypto::sha256::sha256(transcript.as_bytes()).to_hex();
            assert_eq!(got, digest, "c {c} {scenario}");
            if let Some(certificate) = &certificate {
                assert_eq!(certificate.digest, payload_digest(b"the certified list"));
            }
        }
    }

    /// What the eager oracle's member asked for, in the instance's terms.
    fn asked_and_filed(
        from: usize,
        actions: Vec<MemberAction>,
    ) -> (Vec<Action>, Vec<EquivocationEvidence>) {
        let (mut asked, mut filed) = (Vec::new(), Vec::new());
        let from = NodeId(from as u32);
        for action in actions {
            let (to, message) = match action {
                MemberAction::BroadcastEcho(echo) => (None, Alg3Message::Echo(echo)),
                MemberAction::SendConfirm(confirm) => {
                    (Some(NodeId(0)), Alg3Message::Confirm(confirm))
                }
                MemberAction::ReportEquivocation(found) => {
                    filed.push(found);
                    continue;
                }
            };
            asked.push(Action { from, to, message });
        }
        (asked, filed)
    }

    /// Plays one instance at committee size `c` on an [`Instance`] and on the
    /// eager oracle in lockstep, delivering the in-flight messages in an
    /// order drawn from `seed` (so ECHOes overtake the PROPOSE, CONFIRMs
    /// overtake ECHOes). With `hostile`, the leader of every third seed
    /// equivocates and the schedule is salted with forged ECHOes and CONFIRMs
    /// (in a real sender's name) and verbatim duplicates. Every reaction is
    /// compared as it happens — `Debug` output shows every signature byte —
    /// and whether the instance certified is returned.
    fn play_against_oracle(c: usize, seed: u64, hostile: bool) -> bool {
        let (kps, keys) = committee(c);
        let id = instance_id();
        let mut rng = HmacDrbg::from_parts("alg3-delivery-order", &[&seed.to_be_bytes()]);
        let mut below = move |n: usize| rng.next_below(n as u64) as usize;
        let nodes: Vec<NodeId> = (0..c as u32).map(NodeId).collect();
        let seats = Seats {
            nodes: &nodes,
            keypairs: &kps,
            mute: &vec![false; c],
            keys: &keys,
            leader: NodeId(0),
        };
        let fault = if hostile && seed.is_multiple_of(3) {
            let alternate = b"another list".to_vec();
            LeaderFault::Equivocate { alternate }
        } else {
            LeaderFault::None
        };
        let payload = b"certified list".to_vec();
        let propose = make_propose(id, payload.clone(), NodeId(0), &kps[0]);
        let mut oracle: Vec<eager::Member> = (0..c)
            .map(|i| eager::Member::new(NodeId(i as u32), kps[i], id, keys.clone()))
            .collect();
        let mut oracle_leader = eager::Leader::new(id, propose.digest, keys.clone());
        let mut oracle_certificate = None;

        // The opening: the leader's machine takes its own proposal.
        let mut asked = Vec::new();
        let mut instance =
            Instance::open(seats, id, payload, fault, true, SigCache::new(), &mut asked);
        let mut expected = asked_and_filed(0, oracle[0].handle_propose(&propose));
        let mut filed = 0;
        let mut in_flight: Vec<(usize, Alg3Message)> = Vec::new();
        let mut delivered: Option<(usize, Alg3Message)> = None;
        loop {
            // The opening's PROPOSEs have no counterpart: the oracle has
            // members and a collector, no proposing leader.
            let reactions = asked
                .iter()
                .filter(|action| !matches!(action.message, Alg3Message::Propose(_)));
            let got = (
                reactions.collect::<Vec<_>>(),
                &instance.equivocation()[filed..],
            );
            assert_eq!(
                format!("{got:?}"),
                format!("({:?}, {:?})", expected.0, expected.1),
                "c {c} seed {seed}: on {delivered:?}"
            );
            for evidence in got.1 {
                assert!(evidence.verify(&kps[0].public));
            }
            filed = instance.equivocation().len();
            for (from, to, message) in asked.drain(..).flat_map(|action| envelopes(action, c)) {
                let forged = match &message {
                    Alg3Message::Echo(echo) if hostile && below(6) == 0 => {
                        Some(Alg3Message::Echo(Echo {
                            signature: kps[from].sign(b"forged"),
                            member: NodeId(below(c) as u32),
                            ..echo.clone()
                        }))
                    }
                    Alg3Message::Confirm(confirm) if hostile && below(3) == 0 => {
                        Some(Alg3Message::Confirm(Confirm {
                            member: NodeId(below(c) as u32),
                            ..confirm.clone()
                        }))
                    }
                    _ => None,
                };
                in_flight.extend(forged.map(|forged| (to, forged)));
                in_flight.push((to, message));
            }
            if in_flight.is_empty() {
                break;
            }
            let (to, message) = in_flight.swap_remove(below(in_flight.len()));
            if hostile && below(8) == 0 {
                in_flight.push((to, message.clone()));
            }
            instance.deliver(NodeId(to as u32), &message, &mut asked);
            expected = match &message {
                Alg3Message::Propose(p) => asked_and_filed(to, oracle[to].handle_propose(p)),
                Alg3Message::Echo(e) => asked_and_filed(to, oracle[to].handle_echo(e)),
                Alg3Message::Confirm(confirm) => {
                    let formed = oracle_leader.handle_confirm(confirm);
                    oracle_certificate = oracle_certificate.or(formed);
                    assert_eq!(instance.certificate(), oracle_certificate.as_ref());
                    (Vec::new(), Vec::new())
                }
            };
            delivered = Some((to, message));
        }
        assert!(instance.certificates().count() <= 1);
        if let Some(certificate) = instance.certificate() {
            assert_eq!(certificate.verify_majority(&keys), Ok(()));
        }
        instance.certificate().is_some()
    }

    #[test]
    fn lazy_machines_match_the_eager_oracle() {
        for c in [4usize, 5, 8, 16] {
            for seed in 0..64 {
                assert!(play_against_oracle(c, seed, false), "c {c} seed {seed}");
            }
            for seed in 64..96 {
                play_against_oracle(c, seed, true);
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
