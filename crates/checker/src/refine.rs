//! Refinement: concrete executions against the abstract transition relation.
//!
//! [`Refiner`] is a [`RoundObserver`]. Attached to real runs — the refinement
//! tests and every partition- and churn-fuzz schedule — it checks at each
//! phase boundary, on the [`RoundContext`] the engine hands every observer,
//! that **every concrete step has an abstract counterpart** in the shared
//! decision core ([`cycledger_consensus::transition`]): each committee's
//! intra outcome, each new recovery record and the phase's counter delta. A
//! step the shared functions cannot reproduce means a phase driver
//! (`phases/{intra,recovery,xshard}.rs`, the one implementation every run
//! uses) computed a decision some way other than the one the model checker
//! exhaustively verified — exactly the drift this layer exists
//! to catch. A closed vote collection is checked by `check_vote`, the
//! function the explorer checks its own collections with.

use cycledger_consensus::transition::{
    digests_conflict, expected_votes_missing, impeachment_passes, majority_threshold,
    quorum_timed_out, tx_accepted,
};
use cycledger_consensus::votes::{Vote, VoteList};
use cycledger_protocol::phases::intra::IntraOutcome;
use cycledger_protocol::{
    PlaneCounters, RecoveryOutcome, RecoveryRecord, RoundContext, RoundObserver,
};

/// The phases whose artifacts are checked.
const INTRA: &str = "intra-consensus";
const RECOVERY: &str = "intra-recovery";
const INTER: &str = "inter-consensus";

/// A broken rule: its name and what broke it.
pub(crate) type Failure = (&'static str, String);

/// Aggregate evidence of a successful refinement pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefinementStats {
    /// Per-committee consensus outcomes checked.
    pub committee_steps: usize,
    /// Individual per-transaction decisions replayed through the tally rule.
    pub decisions: usize,
    /// Recovery attempts checked.
    pub recovery_steps: usize,
    /// Phase-counter deltas reconciled.
    pub phase_deltas: usize,
}

/// A concrete step with no abstract counterpart.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefinementError {
    /// Which rule the step broke.
    pub rule: &'static str,
    /// Where in the run (round / phase / committee where applicable).
    pub location: String,
    /// What the concrete execution did vs. what the model requires.
    pub detail: String,
}

impl std::fmt::Display for RefinementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.rule, self.location, self.detail)
    }
}

impl std::error::Error for RefinementError {}

/// Checks one closed vote collection of a committee of `size` and returns
/// how many decisions it checked. `missing` is what the collection counted
/// missing, `received` the rows the checker saw arrive. The `Yes` / `No`
/// counts are recounted from the raw rows — deliberately not through
/// [`VoteList::tally`] — so the production tally meets an independent count.
pub(crate) fn check_vote(
    size: usize,
    list: &VoteList,
    missing: usize,
    received: usize,
    decision: &[i8],
) -> Result<usize, Failure> {
    // After the all-`Unknown` backfill the list holds exactly C rows, and
    // missing = C − received.
    let rows = list.voter_count();
    if rows != size || missing != expected_votes_missing(size, received) {
        let detail = format!("{rows} rows of {size}, {missing} missing, {received} received");
        return Err(("vote-accounting-skew", detail));
    }
    let mut counts = vec![(0usize, 0usize); list.tx_ids.len()];
    for row in &list.votes {
        for ((yes, no), vote) in counts.iter_mut().zip(&row.votes) {
            match vote {
                Vote::Yes => *yes += 1,
                Vote::No => *no += 1,
                Vote::Unknown => {}
            }
        }
    }
    // Backfilled rows count toward neither side, and each decision is the
    // strict-majority rule over what the rows say.
    for (k, (&(yes, no), &decision)) in counts.iter().zip(decision).enumerate() {
        if yes + no > received {
            let detail = format!("tx {k}: {yes} yes + {no} no from {received} received");
            return Err(("manufactured-votes", detail));
        }
        let expected = if tx_accepted(yes, size) { 1 } else { -1 };
        if decision != expected {
            let detail = format!("tx {k}: decision {decision} on {yes} yes of {size}");
            return Err(("tally-divergence", detail));
        }
    }
    Ok(decision.len())
}

/// Checks one committee's intra outcome in a committee of `size`; returns
/// how many decisions it checked.
fn check_committee(outcome: &IntraOutcome, size: usize) -> Result<usize, Failure> {
    let counters = outcome.books.counters;
    let (missing, syncing_votes) = (counters.votes_missing, counters.syncing_votes);
    if outcome.leader_silent {
        // A silent leader produces the all-rejected outcome without a vote
        // collection: no rows, no missing count, no certificate.
        let rows = outcome.vote_list.voter_count();
        if rows != 0 || missing != 0 || syncing_votes != 0 {
            let detail = format!("{rows} rows, {missing} missing, {syncing_votes} syncing votes");
            return Err(("silent-leader-empty", detail));
        }
        if outcome.certificate.is_some() {
            let detail = "certificate without an announced TXList".to_string();
            return Err(("silent-leader-cert", detail));
        }
        if outcome.decision.iter().any(|&d| d != -1) {
            let detail = "accepted without an announced TXList".to_string();
            return Err(("silent-leader-decision", detail));
        }
        return Ok(0);
    }
    let received = size.saturating_sub(missing);
    let decisions = check_vote(
        size,
        &outcome.vote_list,
        missing,
        received,
        &outcome.decision,
    )?;
    let timeouts = counters.quorum_timeouts;
    if (timeouts > 0) != quorum_timed_out(missing) {
        let detail = format!("{timeouts} quorum timeouts with {missing} votes missing");
        return Err(("quorum-timeout-flag", detail));
    }
    // Syncing members abstain: a counted vote means the membership gate
    // leaked.
    if syncing_votes != 0 {
        let detail = format!("{syncing_votes} votes from syncing members");
        return Err(("syncing-vote-counted", detail));
    }
    let (signers, quorum) = (outcome.certificate.as_ref(), majority_threshold(size));
    if let Some(signers) = signers.map(|c| c.signer_count()).filter(|&n| n < quorum) {
        let detail = format!("a certificate with {signers} signers, quorum is {quorum}");
        return Err(("cert-below-quorum", detail));
    }
    // The structural half of what witness verification re-checks with
    // signatures: evidence pairs two different digests.
    if !outcome
        .equivocation
        .iter()
        .all(|e| digests_conflict(&e.digest_a, &e.digest_b))
    {
        let detail = "equivocation evidence pairing identical digests".to_string();
        return Err(("non-conflicting-evidence", detail));
    }
    Ok(decisions)
}

/// Checks one recovery record of a committee of `size`.
fn check_recovery(record: &RecoveryRecord, size: usize) -> Result<(), Failure> {
    // An eviction needs an impeachment majority.
    let approvals = record.approvals;
    if record.outcome == RecoveryOutcome::Evicted && !impeachment_passes(approvals, size) {
        let detail = format!("evicted with {approvals} approvals in a committee of {size}");
        return Err(("eviction-below-majority", detail));
    }
    // Skipped means no prosecutor was available, by definition.
    if record.outcome == RecoveryOutcome::Skipped && record.prosecutor.is_some() {
        let detail = "skipped although a prosecutor existed".to_string();
        return Err(("skip-with-prosecutor", detail));
    }
    Ok(())
}

/// Reconciles what `phase` added to the round's counters with the sum of the
/// books of the committees it checked.
fn reconcile(phase: &str, delta: PlaneCounters, tasks: PlaneCounters) -> Result<(), Failure> {
    if delta.syncing_votes != 0 {
        let detail = format!(
            "{} syncing votes folded into the round",
            delta.syncing_votes
        );
        return Err(("syncing-vote-counted", detail));
    }
    // The intra phase folds its tasks' books and nothing else; the recovery
    // phase folds its impeachments' networks too, so only the vote counters
    // are the retries' alone.
    let votes = |c: PlaneCounters| (c.quorum_timeouts, c.votes_missing);
    let folded = match phase {
        INTRA => delta == tasks,
        RECOVERY => votes(delta) == votes(tasks),
        _ => true,
    };
    if !folded {
        let detail = format!("the phase folded {delta:?}, its committees sum to {tasks:?}");
        return Err(("counter-reconciliation", detail));
    }
    Ok(())
}

/// A [`RoundObserver`] that checks every round it observes against the
/// abstract transition relation. Attach it with
/// `Simulation::run_round_observed` or `Simulation::run_observed`, then
/// [`finish`](Refiner::finish) it.
#[derive(Debug, Default)]
pub struct Refiner {
    stats: RefinementStats,
    first_error: Option<RefinementError>,
    /// The round's counters and recovery-log length at the current phase's
    /// start.
    mark: PlaneCounters,
    recoveries_mark: usize,
}

impl Refiner {
    /// A refiner that has checked nothing yet.
    pub fn new() -> Refiner {
        Refiner::default()
    }

    /// What was checked, or the first concrete step with no abstract
    /// counterpart, located and self-describing.
    pub fn finish(self) -> Result<RefinementStats, RefinementError> {
        self.first_error.map_or(Ok(self.stats), Err)
    }

    /// Checks what `phase` left on `ctx`: the outcomes of the committees it
    /// ran consensus for — every one in the intra phase, the retried ones in
    /// recovery — the records it added to the recovery log, and its counter
    /// delta.
    fn check_phase(&mut self, phase: &str, ctx: &RoundContext<'_>) -> Result<(), RefinementError> {
        let round = ctx.round;
        let located = |committee: Option<usize>| {
            move |(rule, detail): Failure| {
                let location = match committee {
                    Some(k) => format!("round {round} / {phase} / committee {k}"),
                    None => format!("round {round} / {phase}"),
                };
                RefinementError {
                    rule,
                    location,
                    detail,
                }
            }
        };
        let added = &ctx.recovery_log[self.recoveries_mark..];
        let retried = added
            .iter()
            .filter(|r| r.outcome == RecoveryOutcome::Evicted);
        let checked: Vec<usize> = match phase {
            INTRA => (0..ctx.committee_count()).collect(),
            RECOVERY => retried.map(|r| r.committee).collect(),
            _ => Vec::new(),
        };
        let mut tasks = PlaneCounters::default();
        for k in checked {
            let outcome = &ctx.intra_outcomes[k];
            let size = ctx.committees[k].size();
            let decisions = check_committee(outcome, size).map_err(located(Some(k)))?;
            self.stats.decisions += decisions;
            self.stats.committee_steps += 1;
            tasks += outcome.books.counters;
        }
        for record in added {
            let size = ctx.committees[record.committee].size();
            check_recovery(record, size).map_err(located(Some(record.committee)))?;
            self.stats.recovery_steps += 1;
        }
        if matches!(phase, INTRA | RECOVERY | INTER) {
            let delta = ctx.books.counters - self.mark;
            reconcile(phase, delta, tasks).map_err(located(None))?;
            self.stats.phase_deltas += 1;
        }
        Ok(())
    }
}

impl RoundObserver for Refiner {
    fn on_phase_start(&mut self, _phase: &'static str, ctx: &RoundContext<'_>) {
        self.mark = ctx.books.counters;
        self.recoveries_mark = ctx.recovery_log.len();
    }

    fn on_phase_end(&mut self, phase: &'static str, ctx: &RoundContext<'_>) {
        if self.first_error.is_none() {
            self.first_error = self.check_phase(phase, ctx).err();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use cycledger_consensus::witness::EquivocationEvidence;
    use cycledger_net::topology::NodeId;
    use cycledger_protocol::{ProtocolConfig, Simulation};

    use super::*;

    /// Committee 0's intra outcome and size, as the intra phase left them in
    /// the first round of a fault-free 2 × 8 run.
    fn honest() -> &'static (IntraOutcome, usize) {
        #[derive(Default)]
        struct AfterIntra(Option<(IntraOutcome, usize)>);
        impl RoundObserver for AfterIntra {
            fn on_phase_end(&mut self, phase: &'static str, ctx: &RoundContext<'_>) {
                if phase == INTRA {
                    let size = ctx.committees[0].size();
                    self.0 = Some((ctx.intra_outcomes[0].clone(), size));
                }
            }
        }
        static HONEST: OnceLock<(IntraOutcome, usize)> = OnceLock::new();
        HONEST.get_or_init(|| {
            let config = ProtocolConfig {
                committees: 2,
                committee_size: 8,
                partial_set_size: 2,
                referee_size: 5,
                txs_per_round: 16,
                accounts_per_shard: 16,
                pow_difficulty: 2,
                worker_threads: 1,
                seed: 7,
                ..ProtocolConfig::default()
            };
            let mut sim = Simulation::new(config).expect("valid config");
            let mut seen = AfterIntra::default();
            sim.run_round_observed(&mut seen);
            seen.0.expect("the intra phase ran")
        })
    }

    /// A check's verdict with the rule name alone.
    fn rule<T>(checked: Result<T, Failure>) -> Result<T, &'static str> {
        checked.map_err(|(rule, _)| rule)
    }

    /// The rule the honest outcome — which refines — breaks once `tamper`ed.
    fn broken_by(tamper: impl FnOnce(&mut IntraOutcome)) -> Result<usize, &'static str> {
        let (outcome, size) = honest();
        assert_eq!(
            rule(check_committee(outcome, *size)),
            Ok(outcome.decision.len())
        );
        let mut outcome = outcome.clone();
        tamper(&mut outcome);
        rule(check_committee(&outcome, *size))
    }

    #[test]
    fn a_silent_leader_leaves_no_rows_no_certificate_and_no_acceptance() {
        let (honest, size) = honest();
        assert!(honest.certificate.is_some() && honest.decision.contains(&1));
        let mut silent = honest.clone();
        silent.leader_silent = true;
        silent.vote_list.votes.clear();
        silent.certificate = None;
        silent.decision.fill(-1);
        assert_eq!(rule(check_committee(&silent, *size)), Ok(0));
        let mut with_rows = silent.clone();
        with_rows.vote_list = honest.vote_list.clone();
        let mut with_certificate = silent.clone();
        with_certificate.certificate = honest.certificate.clone();
        let mut accepting = silent.clone();
        accepting.decision = honest.decision.clone();
        for (outcome, broken) in [
            (with_rows, "silent-leader-empty"),
            (with_certificate, "silent-leader-cert"),
            (accepting, "silent-leader-decision"),
        ] {
            assert_eq!(rule(check_committee(&outcome, *size)), Err(broken));
        }
    }

    #[test]
    fn a_backfill_short_of_the_committee_breaks_vote_accounting() {
        let short = broken_by(|outcome| {
            outcome.vote_list.votes.pop();
        });
        assert_eq!(short, Err("vote-accounting-skew"));
    }

    #[test]
    fn more_votes_than_voters_present_are_manufactured() {
        // Every member voted on the first transaction; say one was missing.
        let (outcome, _) = honest();
        assert!(outcome
            .vote_list
            .votes
            .iter()
            .all(|row| row.votes[0] != Vote::Unknown));
        let manufactured = broken_by(|outcome| {
            outcome.books.counters.votes_missing = 1;
            outcome.books.counters.quorum_timeouts = 1;
        });
        assert_eq!(manufactured, Err("manufactured-votes"));
    }

    #[test]
    fn a_decision_the_majority_rule_does_not_make_diverges() {
        let flipped = broken_by(|outcome| outcome.decision[0] = -outcome.decision[0]);
        assert_eq!(flipped, Err("tally-divergence"));
    }

    #[test]
    fn the_quorum_timeout_flag_follows_the_missing_count() {
        let flagged = broken_by(|outcome| outcome.books.counters.quorum_timeouts = 1);
        assert_eq!(flagged, Err("quorum-timeout-flag"));
    }

    #[test]
    fn a_counted_syncing_vote_is_flagged_in_a_committee_and_in_a_phase() {
        let counted = broken_by(|outcome| outcome.books.counters.syncing_votes = 1);
        assert_eq!(counted, Err("syncing-vote-counted"));
        let folded = PlaneCounters {
            syncing_votes: 1,
            ..PlaneCounters::default()
        };
        let none = PlaneCounters::default();
        assert_eq!(
            rule(reconcile(INTER, folded, none)),
            Err("syncing-vote-counted")
        );
    }

    #[test]
    fn a_certificate_needs_a_majority_of_signers() {
        let cut = broken_by(|outcome| {
            let certificate = outcome
                .certificate
                .as_mut()
                .expect("the honest pass certifies");
            certificate.signatures.truncate(majority_threshold(8) - 1);
        });
        assert_eq!(cut, Err("cert-below-quorum"));
    }

    #[test]
    fn equivocation_evidence_pairs_two_digests() {
        let identical = broken_by(|outcome| {
            let certificate = outcome
                .certificate
                .as_ref()
                .expect("the honest pass certifies");
            let (leader, signature) = certificate.signatures[0];
            outcome.equivocation.push(EquivocationEvidence {
                id: certificate.id,
                leader,
                digest_a: certificate.digest,
                sig_a: signature,
                digest_b: certificate.digest,
                sig_b: signature,
            });
        });
        assert_eq!(identical, Err("non-conflicting-evidence"));
    }

    /// A recovery record of committee 0, checked at C = 8.
    fn recovery(
        outcome: RecoveryOutcome,
        prosecutor: Option<u32>,
        approvals: usize,
    ) -> Result<(), &'static str> {
        let record = RecoveryRecord {
            committee: 0,
            accused: NodeId(0),
            accused_was_honest: false,
            prosecutor: prosecutor.map(NodeId),
            approvals,
            outcome,
        };
        rule(check_recovery(&record, 8))
    }

    #[test]
    fn an_eviction_needs_an_impeachment_majority() {
        assert_eq!(recovery(RecoveryOutcome::Evicted, Some(1), 5), Ok(()));
        assert_eq!(recovery(RecoveryOutcome::Rejected, Some(1), 4), Ok(()));
        let below = recovery(RecoveryOutcome::Evicted, Some(1), 4);
        assert_eq!(below, Err("eviction-below-majority"));
    }

    #[test]
    fn a_skipped_recovery_names_no_prosecutor() {
        assert_eq!(recovery(RecoveryOutcome::Skipped, None, 0), Ok(()));
        let named = recovery(RecoveryOutcome::Skipped, Some(1), 0);
        assert_eq!(named, Err("skip-with-prosecutor"));
    }

    #[test]
    fn a_phase_folds_each_of_its_tasks_once() {
        let task = PlaneCounters {
            quorum_timeouts: 1,
            votes_missing: 2,
            net_dropped: 3,
            ..PlaneCounters::default()
        };
        let mut twice = task;
        twice += task;
        let mut dropped_elsewhere = task;
        dropped_elsewhere.net_dropped += 1;
        let skew = Err("counter-reconciliation");
        assert_eq!(rule(reconcile(INTRA, task, task)), Ok(()));
        assert_eq!(rule(reconcile(INTRA, twice, task)), skew);
        assert_eq!(rule(reconcile(INTRA, dropped_elsewhere, task)), skew);
        // The recovery phase's impeachments drop envelopes of their own: only
        // its vote counters are the retries'.
        assert_eq!(rule(reconcile(RECOVERY, dropped_elsewhere, task)), Ok(()));
        assert_eq!(rule(reconcile(RECOVERY, twice, task)), skew);
    }
}
