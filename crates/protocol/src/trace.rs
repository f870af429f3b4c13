//! Execution-trace export for refinement checking.
//!
//! [`TraceRecorder`] is a [`RoundObserver`] that snapshots, at every phase
//! boundary, exactly the facts the `cycledger-checker` refinement layer needs
//! to replay a concrete execution through the shared decision core
//! ([`cycledger_consensus::transition`]): per-committee vote tallies and
//! decisions, certificate signer counts, quorum-timeout bookkeeping, the
//! recovery log, and the per-phase deltas of the round's timeout / drop
//! counters. The recorder only reads the [`RoundContext`] — attaching it
//! never changes protocol output (the [`RoundObserver`] contract).
//!
//! The point of the exercise: every concrete step recorded here must be
//! reproducible by the shared decision rules. The checker's `refine` module
//! consumes an [`ExecutionTrace`] and fails loudly on any step
//! `consensus::transition` cannot reproduce — catching at fuzz scale what the
//! plumbing around the machines (routing, deadlines, counters) could get
//! wrong, where the exhaustive run covers the machines themselves at n = 4.

use cycledger_consensus::votes::{Vote, VoteList};

use crate::engine::{PlaneCounters, RoundContext, RoundObserver};
use crate::report::{RecoveryOutcome, RecoveryRecord};

/// Phase names the recorder snapshots committee outcomes at.
const INTRA_PHASE: &str = "intra-consensus";
const RECOVERY_PHASE: &str = "intra-recovery";
const INTER_PHASE: &str = "inter-consensus";

/// One committee's intra-consensus outcome, reduced to the decision-relevant
/// facts the refinement layer replays through the shared transition core.
#[derive(Clone, Debug)]
pub struct CommitteeStep {
    /// Round the step happened in.
    pub round: u64,
    /// Phase boundary the snapshot was taken at (`"intra-consensus"` for the
    /// main batch, `"intra-recovery"` for post-recovery retries).
    pub phase: &'static str,
    /// Committee index.
    pub committee: usize,
    /// Committee size `C` at snapshot time.
    pub committee_size: usize,
    /// True when the leader never announced a `TXList`.
    pub leader_silent: bool,
    /// Whether the vote-collection deadline fired with votes missing.
    pub quorum_timeout: bool,
    /// Votes missing at the deadline (backfilled as all-`Unknown` rows).
    pub votes_missing: usize,
    /// Deliberate abstentions by `Syncing` members.
    pub syncing_abstentions: usize,
    /// Votes received from `Syncing` members (must stay zero).
    pub syncing_votes: usize,
    /// Vote rows in the leader's `V List` after backfill.
    pub voter_rows: usize,
    /// Per-transaction `Yes` counts, recounted from the raw vote rows.
    pub yes_counts: Vec<usize>,
    /// Per-transaction `No` counts, recounted from the raw vote rows.
    pub no_counts: Vec<usize>,
    /// The decision vector production committed to (+1 / −1 per tx).
    pub decision: Vec<i8>,
    /// Distinct signer count of the quorum certificate, if one was produced.
    pub certificate_signers: Option<usize>,
    /// Equivocation evidence extracted by honest members.
    pub equivocation_count: usize,
    /// True iff every piece of evidence pairs two *different* digests.
    pub equivocations_conflict: bool,
}

/// One recovery attempt, as the engine logged it.
#[derive(Clone, Debug)]
pub struct RecoveryStep {
    /// Round the attempt happened in.
    pub round: u64,
    /// Phase the attempt was made from.
    pub phase: &'static str,
    /// The logged record (committee, approvals, committee size, outcome).
    pub record: RecoveryRecord,
}

/// What one phase added to the round's plane counters, for reconciling
/// `RoundReport` totals against the per-committee steps.
#[derive(Clone, Debug)]
pub struct PhaseDelta {
    /// Round the phase ran in.
    pub round: u64,
    /// Phase name.
    pub phase: &'static str,
    /// The round's counters at the phase's end minus those at its start.
    pub counters: PlaneCounters,
    /// Committees whose consensus was retried under a new leader during this
    /// phase (non-empty only for `"intra-recovery"`).
    pub retried: Vec<usize>,
}

/// Everything one or more observed rounds exported for refinement.
#[derive(Clone, Debug, Default)]
pub struct ExecutionTrace {
    /// Per-committee consensus steps, in snapshot order.
    pub steps: Vec<CommitteeStep>,
    /// Recovery attempts, in attempt order.
    pub recoveries: Vec<RecoveryStep>,
    /// Per-phase counter deltas, in phase order.
    pub phase_deltas: Vec<PhaseDelta>,
}

/// A [`RoundObserver`] that records an [`ExecutionTrace`] across every round
/// it observes. Attach with [`crate::Simulation::run_round_observed`] or
/// [`crate::Simulation::run_observed`], then hand
/// [`trace`](TraceRecorder::into_trace) to the checker's refinement pass.
#[derive(Clone, Debug, Default)]
pub struct TraceRecorder {
    trace: ExecutionTrace,
    /// The round's counters and recovery-log length at the current phase's
    /// start.
    mark: PlaneCounters,
    recoveries_mark: usize,
}

impl TraceRecorder {
    /// A fresh recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder::default()
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    /// Consumes the recorder into its trace.
    pub fn into_trace(self) -> ExecutionTrace {
        self.trace
    }

    fn snapshot_committee(&mut self, ctx: &RoundContext<'_>, phase: &'static str, k: usize) {
        let outcome = &ctx.intra_outcomes[k];
        let counters = outcome.books.counters;
        let size = ctx.committees[k].size();
        let (yes_counts, no_counts) = count_votes(&outcome.vote_list);
        self.trace.steps.push(CommitteeStep {
            round: ctx.round,
            phase,
            committee: k,
            committee_size: size,
            leader_silent: outcome.leader_silent,
            quorum_timeout: counters.quorum_timeouts > 0,
            votes_missing: counters.votes_missing,
            syncing_abstentions: counters.syncing_abstentions,
            syncing_votes: counters.syncing_votes,
            voter_rows: outcome.vote_list.voter_count(),
            yes_counts,
            no_counts,
            decision: outcome.decision.clone(),
            certificate_signers: outcome.certificate.as_ref().map(|c| c.signer_count()),
            equivocation_count: outcome.equivocation.len(),
            equivocations_conflict: outcome.equivocation.iter().all(|e| {
                cycledger_consensus::transition::digests_conflict(&e.digest_a, &e.digest_b)
            }),
        });
    }

    fn collect_recoveries(&mut self, ctx: &RoundContext<'_>, phase: &'static str) {
        for record in &ctx.recovery_log[self.recoveries_mark..] {
            self.trace.recoveries.push(RecoveryStep {
                round: ctx.round,
                phase,
                record: record.clone(),
            });
        }
    }

    fn push_delta(&mut self, ctx: &RoundContext<'_>, phase: &'static str, retried: Vec<usize>) {
        self.trace.phase_deltas.push(PhaseDelta {
            round: ctx.round,
            phase,
            counters: ctx.books.counters - self.mark,
            retried,
        });
    }
}

impl RoundObserver for TraceRecorder {
    fn on_phase_start(&mut self, _phase: &'static str, ctx: &RoundContext<'_>) {
        self.mark = ctx.books.counters;
        self.recoveries_mark = ctx.recovery_log.len();
    }

    fn on_phase_end(&mut self, phase: &'static str, ctx: &RoundContext<'_>) {
        match phase {
            INTRA_PHASE => {
                for k in 0..ctx.committee_count() {
                    self.snapshot_committee(ctx, phase, k);
                }
                self.push_delta(ctx, phase, Vec::new());
            }
            RECOVERY_PHASE => {
                // Committees evicted during this phase had their consensus
                // retried under the new leader; their outcomes were replaced
                // in place, so re-snapshot exactly those.
                let retried: Vec<usize> = ctx.recovery_log[self.recoveries_mark..]
                    .iter()
                    .filter(|r| r.outcome == RecoveryOutcome::Evicted)
                    .map(|r| r.committee)
                    .collect();
                for &k in &retried {
                    self.snapshot_committee(ctx, phase, k);
                }
                self.push_delta(ctx, phase, retried);
            }
            INTER_PHASE => {
                self.push_delta(ctx, phase, Vec::new());
            }
            _ => {}
        }
        self.collect_recoveries(ctx, phase);
    }
}

/// Recounts `Yes` / `No` votes per transaction from the raw vote rows —
/// deliberately *not* via [`VoteList::tally`], so the refinement compares the
/// production tally against an independent mechanical count.
fn count_votes(list: &VoteList) -> (Vec<usize>, Vec<usize>) {
    let mut yes = vec![0usize; list.tx_ids.len()];
    let mut no = vec![0usize; list.tx_ids.len()];
    for row in &list.votes {
        for (k, vote) in row.votes.iter().enumerate() {
            match vote {
                Vote::Yes => yes[k] += 1,
                Vote::No => no[k] += 1,
                Vote::Unknown => {}
            }
        }
    }
    (yes, no)
}
