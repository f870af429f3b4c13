//! The single, side-effect-free decision core of the consensus protocol.
//!
//! Every quantitative rule the protocol applies — quorum thresholds
//! (Algorithm 3), the strict-majority `TXdecSET` tally (Algorithm 5), the
//! quorum-timeout fallback's missing-vote arithmetic (§IV-C step 4), the
//! impeachment admissibility/approval rules of the recovery procedure
//! (Algorithm 6, Claims 3 & 4), and the admit rule for a certified
//! cross-shard list (§IV-D) — is a pure function in this module.
//!
//! The machines of this crate ([`crate::alg3`], [`crate::collect`],
//! [`crate::impeach`], [`crate::votes`], [`crate::quorum`]) decide through
//! these functions and nothing else, and there is one copy of each machine:
//! the `cycledger-protocol` phase loops feed them from a network, and the
//! `cycledger-checker` scheduler feeds the *same* machines every schedule.
//! What is left for the checker's refinement layer is the plumbing at fuzz
//! scale — message routing, deadlines, counters — which it covers by
//! replaying concrete traces through these functions.
//!
//! Nothing here allocates, reads clocks, or touches the network; every
//! function is total over its inputs.

use cycledger_crypto::sha256::Digest;

use crate::votes::Vote;

/// The majority threshold `⌊C/2⌋ + 1` used throughout Algorithm 3 and the
/// recovery vote (Algorithm 6): the smallest count that is a strict majority
/// of a committee of `committee_size`.
pub const fn majority_threshold(committee_size: usize) -> usize {
    committee_size / 2 + 1
}

/// True once a member has identical echoes from a strict majority of the
/// committee — the condition under which it CONFIRMs (Algorithm 3, member
/// side). `echoes` counts distinct members, including the member's own echo.
pub const fn echo_quorum(echoes: usize, committee_size: usize) -> bool {
    echoes >= majority_threshold(committee_size)
}

/// True once the leader holds CONFIRMs from a strict majority of the
/// committee — the condition under which Algorithm 3 terminates with a
/// [`QuorumCertificate`](crate::quorum::QuorumCertificate). `confirms`
/// counts distinct members.
pub const fn confirm_quorum(confirms: usize, committee_size: usize) -> bool {
    confirms >= majority_threshold(committee_size)
}

/// True iff a transaction enters `TXdecSET`: strictly more than half of the
/// committee voted `Yes` (Algorithm 5, line 14). Exactly half is *not* a
/// majority; `Unknown` votes (including every backfilled all-`Unknown` row)
/// count toward nothing.
pub const fn tx_accepted(yes_votes: usize, committee_size: usize) -> bool {
    yes_votes * 2 > committee_size
}

/// How many votes the quorum-timeout fallback must backfill as all-`Unknown`
/// rows: the committee members whose replies had not arrived when the
/// deadline fired. Saturating, so a spurious extra reply can never produce a
/// negative count.
pub const fn expected_votes_missing(committee_size: usize, votes_received: usize) -> usize {
    committee_size.saturating_sub(votes_received)
}

/// True iff the vote collection took the quorum-timeout fallback path: the
/// deadline fired with at least one vote still missing (§IV-C step 4).
pub const fn quorum_timed_out(votes_missing: usize) -> bool {
    votes_missing > 0
}

/// True iff two leader-signed digests for the same consensus instance
/// constitute equivocation: the digests differ. (Signature validity is the
/// caller's concern — see [`crate::witness::EquivocationEvidence::verify`].)
pub fn digests_conflict(a: &Digest, b: &Digest) -> bool {
    a != b
}

/// Admissibility of a *signed* accusation (equivocation / commitment
/// mismatch): the accused must currently hold the leader seat and the
/// witness must check out. `witness_verifies` is the outcome of the
/// cryptographic check — or `true` on the simulation fast path, whose
/// contract guarantees witnesses only ever originate from real misbehaviour.
pub const fn signed_accusation_admissible(accused_is_leader: bool, witness_verifies: bool) -> bool {
    accused_is_leader && witness_verifies
}

/// Admissibility of a *timeout* accusation (silent or censoring leader):
/// honest members approve only omissions they observed themselves — a
/// fabricated complaint against a live leader finds no honest support
/// (Claim 3).
pub const fn timeout_accusation_admissible(
    accused_is_leader: bool,
    observed_by_committee: bool,
) -> bool {
    accused_is_leader && observed_by_committee
}

/// Whether one member approves an impeachment: honest members approve
/// exactly the accusations whose evidence is valid; malicious members
/// approve anything (the worst case for a framed leader — but they are a
/// minority, so their approvals never carry a vote alone, Claim 4).
pub const fn member_approves_impeachment(member_is_honest: bool, evidence_valid: bool) -> bool {
    !member_is_honest || evidence_valid
}

/// True iff an impeachment carries: approvals from a strict majority of the
/// committee (the same threshold as Algorithm 3's quorums).
pub const fn impeachment_passes(approvals: usize, committee_size: usize) -> bool {
    approvals >= majority_threshold(committee_size)
}

/// Whether a committee goes through recovery after its intra-committee
/// consensus: its leader announced nothing, or honest members hold
/// equivocation evidence, or work was offered and no certificate came of it
/// (an idle committee without a certificate has nothing to recover).
pub const fn needs_recovery(
    leader_silent: bool,
    equivocation_reported: bool,
    certified: bool,
    work_offered: bool,
) -> bool {
    leader_silent || equivocation_reported || (!certified && work_offered)
}

/// The rules the vote collector and the impeachment machine decide by, as a
/// type parameter those machines default to [`Paper`]. It exists for one
/// caller: the checker's self-test substitutes a deliberately broken rule
/// and must then find a violation. Nothing selects a rule at run time.
pub trait Rules {
    /// What the leader records, per transaction, for a member whose reply
    /// missed the deadline (§IV-C step 4): `Unknown`, which counts toward
    /// nothing.
    const BACKFILL: Vote = Vote::Unknown;

    /// [`tx_accepted`].
    fn tx_accepted(yes_votes: usize, committee_size: usize) -> bool {
        tx_accepted(yes_votes, committee_size)
    }

    /// [`member_approves_impeachment`].
    fn member_approves_impeachment(member_is_honest: bool, evidence_valid: bool) -> bool {
        member_approves_impeachment(member_is_honest, evidence_valid)
    }

    /// The referee committee's own check of an impeachment that carried the
    /// committee's vote: it evicts only on evidence it re-verified itself, so
    /// a vote majority alone never evicts (Claim 4).
    fn referee_upholds(evidence_valid: bool) -> bool {
        evidence_valid
    }
}

/// The rules as the paper states them: every default of [`Rules`].
#[derive(Clone, Copy, Debug, Default, Hash)]
pub struct Paper;

impl Rules for Paper {}

/// Whether a committee admits one leaf of another committee's certified
/// vector — a forwarded `TXList_{i,j}` at the destination, or the returned
/// vote result at the source (§IV-D). All four facts must hold:
/// the certificate names the expected `(round, committee, side)` instance,
/// its digest commits to the carried Merkle root, the proof links the leaf
/// the receiver recomputed from the list it was handed to that root, and the
/// certificate itself verifies at the sender committee's majority threshold.
pub const fn certified_leaf_admissible(
    instance_matches: bool,
    root_certified: bool,
    leaf_proven: bool,
    certificate_valid: bool,
) -> bool {
    instance_matches && root_certified && leaf_proven && certificate_valid
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycledger_crypto::sha256::sha256;

    #[test]
    fn majority_threshold_is_strict_majority() {
        for size in 1..=33usize {
            let t = majority_threshold(size);
            assert!(
                t * 2 > size,
                "threshold {t} must be a strict majority of {size}"
            );
            assert!(
                (t - 1) * 2 <= size,
                "threshold {t} must be minimal for {size}"
            );
        }
        // The checker's tiny config, spelled out: n = 4 needs 3, not 2.
        assert_eq!(majority_threshold(4), 3);
    }

    #[test]
    fn quorum_edges_at_n4() {
        assert!(!echo_quorum(2, 4));
        assert!(echo_quorum(3, 4));
        assert!(!confirm_quorum(2, 4));
        assert!(confirm_quorum(3, 4));
        assert!(!impeachment_passes(2, 4));
        assert!(impeachment_passes(3, 4));
    }

    #[test]
    fn exactly_half_yes_is_rejected() {
        assert!(!tx_accepted(2, 4));
        assert!(tx_accepted(3, 4));
        assert!(!tx_accepted(0, 0));
        assert!(!tx_accepted(4, 8));
        assert!(tx_accepted(5, 8));
    }

    #[test]
    fn missing_votes_arithmetic() {
        assert_eq!(expected_votes_missing(8, 8), 0);
        assert_eq!(expected_votes_missing(8, 3), 5);
        assert_eq!(expected_votes_missing(8, 9), 0, "saturates");
        assert!(!quorum_timed_out(0));
        assert!(quorum_timed_out(1));
    }

    #[test]
    fn equivocation_requires_distinct_digests() {
        let a = sha256(b"list A");
        let b = sha256(b"list B");
        assert!(digests_conflict(&a, &b));
        assert!(!digests_conflict(&a, &a));
    }

    #[test]
    fn accusation_admissibility() {
        assert!(signed_accusation_admissible(true, true));
        assert!(!signed_accusation_admissible(false, true));
        assert!(!signed_accusation_admissible(true, false));
        assert!(timeout_accusation_admissible(true, true));
        assert!(!timeout_accusation_admissible(true, false));
        assert!(!timeout_accusation_admissible(false, true));
    }

    #[test]
    fn recovery_routing_boundaries() {
        // A certificate over offered work, nothing reported: no recovery.
        assert!(!needs_recovery(false, false, true, true));
        // No certificate is a failure only when there was work to certify.
        assert!(needs_recovery(false, false, false, true));
        assert!(!needs_recovery(false, false, false, false));
        // Silence and equivocation route to recovery whatever else holds —
        // a certificate formed beside reported evidence included.
        for (certified, offered) in [(false, false), (false, true), (true, false), (true, true)] {
            assert!(needs_recovery(true, false, certified, offered));
            assert!(needs_recovery(false, true, certified, offered));
        }
    }

    #[test]
    fn certified_leaf_needs_every_fact() {
        assert!(certified_leaf_admissible(true, true, true, true));
        for missing in 0..4 {
            let fact = |i| i != missing;
            assert!(!certified_leaf_admissible(
                fact(0),
                fact(1),
                fact(2),
                fact(3)
            ));
        }
    }

    #[test]
    fn approval_rules() {
        assert!(member_approves_impeachment(true, true));
        assert!(!member_approves_impeachment(true, false));
        assert!(member_approves_impeachment(false, true));
        assert!(
            member_approves_impeachment(false, false),
            "malicious approve anything"
        );
    }
}
