//! The standard seven-phase pipeline, each protocol phase as a
//! [`RoundPhase`] implementation over [`RoundContext`].
//!
//! Inputs and outputs of every phase are explicit context artifacts (see the
//! per-phase docs): a phase only reads artifacts produced by earlier phases
//! and writes its own, which is what lets the engine hand the parallel ones
//! to the [`ShardExecutor`](crate::engine::ShardExecutor) without changing
//! observable behaviour.

use cycledger_consensus::votes::VoteList;
use cycledger_consensus::witness::Witness;
use cycledger_ledger::transaction::Transaction;
use cycledger_ledger::StateBackend;
use cycledger_net::metrics::WorkerSinkPool;
use cycledger_net::topology::NodeId;

use crate::engine::context::RoundContext;
use crate::engine::RoundPhase;
use crate::phases::block_generation::run_block_generation;
use crate::phases::configuration::run_committee_configuration;
use crate::phases::intra::{run_intra_consensus, IntraOutcome};
use crate::phases::recovery::Accusation;
use crate::phases::reputation_update::run_reputation_update;
use crate::phases::selection::run_selection;
use crate::phases::semi_commitment::run_semi_commitment_exchange;
use crate::phases::xshard::{self, InterEnv};
use crate::sortition::AssignmentParams;

/// The standard pipeline in protocol order (§IV).
pub fn standard_pipeline() -> Vec<Box<dyn RoundPhase>> {
    vec![
        Box::new(ConfigurationPhase),
        Box::new(SemiCommitmentPhase),
        Box::new(IntraConsensusPhase),
        Box::new(IntraRecoveryPhase),
        Box::new(InterConsensusPhase),
        Box::new(ReputationUpdatePhase),
        Box::new(SelectionPhase),
        Box::new(BlockGenerationPhase),
    ]
}

/// Phase 1 — committee configuration (Alg. 1 & 2). The sortition proofs
/// are verified as one chunked executor batch.
///
/// Inputs: the round assignment. Outputs: configuration traffic in
/// `ctx.metrics`, `ctx.configuration`, and `ctx.committees` without the
/// members whose claim the key members rejected.
pub struct ConfigurationPhase;

impl RoundPhase for ConfigurationPhase {
    fn name(&self) -> &'static str {
        "committee-configuration"
    }

    fn execute(&mut self, ctx: &mut RoundContext<'_>) {
        let outcome = run_committee_configuration(
            ctx.executor,
            ctx.registry,
            ctx.assignment,
            ctx.config.latency.delta,
            ctx.config.verify_signatures,
            &mut ctx.metrics,
        );
        // The engine's assignment always comes from `assign_round_on` over
        // this very registry — one reused after a beacon failure still
        // carries the round its proofs were drawn for — so every proof
        // verifies; a rejection here means sortition and configuration
        // disagree.
        debug_assert!(outcome.rejected.is_empty(), "{:?}", outcome.rejected);
        ctx.apply_configuration(outcome);
    }
}

/// Phase 2 — semi-commitment exchange (Alg. 4), plus recovery for any
/// commitment-mismatch witness.
///
/// Inputs: `ctx.committees`. Outputs: `ctx.witnesses`, evictions in
/// `ctx.evicted`, mutated committees/reputation on successful impeachment.
pub struct SemiCommitmentPhase;

impl RoundPhase for SemiCommitmentPhase {
    fn name(&self) -> &'static str {
        "semi-commitment-exchange"
    }

    fn execute(&mut self, ctx: &mut RoundContext<'_>) {
        let semi = run_semi_commitment_exchange(
            ctx.registry,
            &ctx.committees,
            &ctx.referee,
            ctx.round,
            ctx.config.latency,
            ctx.config.verify_signatures,
            ctx.config.seed ^ ctx.round,
            &mut ctx.metrics,
        );
        ctx.witnesses += semi.witnesses.len();
        for witness in semi.witnesses {
            let k = match &witness {
                Witness::CommitmentMismatch(e) => e.committee,
                Witness::Equivocation(_) => continue,
            };
            ctx.attempt_recovery(k, Accusation::Signed(witness));
        }
    }
}

/// Phase 3 — intra-committee consensus (Alg. 5), one committee per executor
/// task.
///
/// Inputs: `ctx.intra_per_shard`, `ctx.committees`, the shard UTXO sets.
/// Outputs: `ctx.intra_outcomes` (committee order) and per-worker metrics
/// merged in committee order.
///
/// When signature verification is on, the driver then plays the referee's
/// part: the certificates forwarded with the `TXdecSET`s of **all**
/// committees are checked with one cross-committee
/// [`verify_certs_batch`] — a single random-linear-combination batch per
/// round rather than one batch per certificate. A certificate that fails is
/// discarded, which routes the committee through recovery exactly as if the
/// leader had never produced one.
///
/// [`verify_certs_batch`]: cycledger_consensus::quorum::verify_certs_batch
pub struct IntraConsensusPhase;

impl RoundPhase for IntraConsensusPhase {
    fn name(&self) -> &'static str {
        "intra-consensus"
    }

    fn execute(&mut self, ctx: &mut RoundContext<'_>) {
        let mut outcomes = run_intra_batch(ctx, None);
        if ctx.config.verify_signatures {
            // Referee-side certificate verification, aggregated across every
            // committee: one random-linear-combination batch covers all the
            // round's `TXdecSET` certificates instead of one batch per
            // committee. A certificate that fails is treated exactly like a
            // leader that never produced one — its decisions must not reach
            // the block builder, and the committee goes through recovery.
            let with_certs: Vec<usize> = (0..outcomes.len())
                .filter(|&k| outcomes[k].certificate.is_some())
                .collect();
            let batch: Vec<_> = with_certs
                .iter()
                .map(|&k| {
                    let keys = &ctx.committees[k].keys;
                    (
                        outcomes[k].certificate.as_ref().expect("filtered above"),
                        keys,
                        keys.majority_threshold(),
                    )
                })
                .collect();
            let verdicts = cycledger_consensus::quorum::verify_certs_batch(&batch);
            drop(batch);
            for (&k, verdict) in with_certs.iter().zip(&verdicts) {
                if verdict.is_err() {
                    outcomes[k].certificate = None;
                    outcomes[k].decided.clear();
                    outcomes[k].decided_indices.clear();
                }
            }
        }
        ctx.intra_outcomes = outcomes;
    }
}

/// Phase 3b — recovery for leaders that failed intra consensus, then one
/// parallel retry batch under the new leaders.
///
/// Inputs: `ctx.intra_outcomes`. Outputs: updated outcomes for recovered
/// committees, evictions, witnesses, skipped-recovery count.
///
/// Impeachments run sequentially in committee order (they mutate the global
/// reputation table and the referee's metrics), but the retried consensus
/// instances — pure functions of the post-recovery committees — run as one
/// executor batch.
pub struct IntraRecoveryPhase;

impl RoundPhase for IntraRecoveryPhase {
    fn name(&self) -> &'static str {
        "intra-recovery"
    }

    fn execute(&mut self, ctx: &mut RoundContext<'_>) {
        let m = ctx.committee_count();
        let mut retries: Vec<usize> = Vec::new();
        for k in 0..m {
            let needs_recovery = ctx.intra_outcomes[k].leader_silent
                || !ctx.intra_outcomes[k].equivocation.is_empty()
                || (ctx.intra_outcomes[k].certificate.is_none()
                    && !ctx.intra_per_shard[k].is_empty());
            if !needs_recovery {
                continue;
            }
            ctx.witnesses += ctx.intra_outcomes[k].equivocation.len();
            let accusation = if let Some(evidence) = ctx.intra_outcomes[k].equivocation.first() {
                Accusation::Signed(Witness::Equivocation(evidence.clone()))
            } else {
                Accusation::Timeout {
                    leader: ctx.committees[k].leader,
                    committee: k,
                    observed_by_committee: true,
                }
            };
            if let crate::engine::context::RecoveryAttempt::Evicted(_) =
                ctx.attempt_recovery(k, accusation)
            {
                retries.push(k);
            }
        }
        if retries.is_empty() {
            return;
        }

        // Retry the intra phase under the new leaders, in parallel. Both
        // attempts really happened this round: the retry's counters fold in
        // on top of the main batch's.
        let results = run_intra_batch(ctx, Some(&retries));
        for (outcome, &k) in results.into_iter().zip(&retries) {
            ctx.intra_outcomes[k] = outcome;
        }
    }
}

/// Runs intra-committee consensus as one executor batch: for every committee,
/// or — `retry` — for the ascending list of committees whose leader a
/// recovery just replaced, under network seeds apart from the first
/// attempt's. Returns the outcomes in committee order, with their metrics
/// merged into `ctx.metrics` and their timeout / drop / abstention counters
/// folded into the round's in that same order.
fn run_intra_batch(ctx: &mut RoundContext<'_>, retry: Option<&[usize]>) -> Vec<IntraOutcome> {
    let m = ctx.committee_count();
    let (batch_size, seed_salt) = retry.map_or((m, 0), |ks| (ks.len(), 0x1_0000));
    let selected = |k: usize| retry.is_none_or(|ks| ks.contains(&k));
    let committees = &ctx.committees;
    let utxo_sets: &[_] = ctx.utxo_sets;
    let intra_per_shard = &ctx.intra_per_shard;
    let registry = ctx.registry;
    let referee_members = &ctx.assignment.referee;
    let round = ctx.round;
    let config = ctx.config;
    let faults = ctx.faults;

    // Each task owns one pool slot and its committee's arena scratch slot
    // exclusively for the batch's lifetime — per-worker sinks and reusable
    // validity tables without locks, merged/recycled in committee order below.
    // (A retry simply recomputes the validity table: the offered list is
    // unchanged, but the slot may have been resized.)
    let scratch_slots = ctx.arena.shard_slots(m).iter_mut().enumerate();
    let scratch_slots = scratch_slots.filter(|(k, _)| selected(*k));
    let mut pool = WorkerSinkPool::new(batch_size);
    let tasks: Vec<_> = pool
        .slots_mut()
        .iter_mut()
        .zip(scratch_slots)
        .map(|(slot, (k, scratch))| {
            move || {
                let (outcome, sink) = run_intra_consensus(
                    registry,
                    &committees[k],
                    &utxo_sets[k],
                    &intra_per_shard[k],
                    referee_members,
                    round,
                    config.latency,
                    config.verify_signatures,
                    config.seed ^ (round << 8) ^ (seed_salt + k as u64),
                    scratch,
                    faults,
                );
                *slot = sink;
                outcome
            }
        })
        .collect();
    let outcomes: Vec<IntraOutcome> = ctx.executor.execute(tasks);
    pool.merge_into(&mut ctx.metrics);
    debug_assert!(outcomes
        .iter()
        .map(|o| o.committee)
        .eq((0..m).filter(|&k| selected(k))));
    for outcome in &outcomes {
        ctx.quorum_timeouts += usize::from(outcome.quorum_timeout);
        ctx.votes_missing += outcome.votes_missing;
        ctx.net_dropped += outcome.net_dropped;
        ctx.syncing_abstentions += outcome.syncing_abstentions;
        ctx.syncing_votes += outcome.syncing_votes;
    }
    outcomes
}

/// Phase 4 — inter-committee consensus over cross-shard transactions
/// (§IV-D), plus impeachment of censoring leaders.
///
/// Inputs: `ctx.cross_shard`, post-recovery committees. Outputs: `ctx.inter`,
/// `ctx.censorship_count`, further evictions.
pub struct InterConsensusPhase;

impl RoundPhase for InterConsensusPhase {
    fn name(&self) -> &'static str {
        "inter-consensus"
    }

    fn execute(&mut self, ctx: &mut RoundContext<'_>) {
        let env = InterEnv {
            plan: ctx.faults,
            registry: ctx.registry,
            committees: &ctx.committees,
            utxo_sets: ctx.utxo_sets,
            round: ctx.round,
            latency: ctx.config.latency,
            verify_signatures: ctx.config.verify_signatures,
            seed: ctx.config.seed ^ (ctx.round << 16),
        };
        let inter = xshard::run_phase(&env, &ctx.cross_shard, ctx.executor, &mut ctx.metrics);
        ctx.quorum_timeouts += inter.quorum_timeouts;
        ctx.list_timeouts += inter.list_timeouts;
        ctx.votes_missing += inter.votes_missing;
        ctx.net_dropped += inter.net_dropped;
        ctx.syncing_abstentions += inter.syncing_abstentions;
        ctx.syncing_votes += inter.syncing_votes;
        ctx.witnesses += inter.equivocation.len();
        ctx.censorship_count = inter.censorship_reports.len();
        // The reports are only needed for the impeachments below; nothing
        // downstream reads them out of `ctx.inter` again.
        let mut inter = inter;
        let reports = std::mem::take(&mut inter.censorship_reports);
        ctx.inter = Some(inter);
        for report in &reports {
            // The committee observed the timeout; impeach the censoring
            // leader — once, however many destinations it withheld from —
            // unless an earlier phase already replaced it.
            let k = report.committee;
            if ctx.evicted.iter().any(|(ek, _)| *ek == k) {
                continue;
            }
            ctx.attempt_recovery_by(k, Accusation::from_censorship(report), report.reporter);
        }
    }
}

/// Phase 5 — reputation updating from the intra-phase votes (§IV-E).
///
/// Inputs: `ctx.intra_outcomes`. Outputs: mutated reputation table, traffic
/// in `ctx.metrics`.
pub struct ReputationUpdatePhase;

impl RoundPhase for ReputationUpdatePhase {
    fn name(&self) -> &'static str {
        "reputation-update"
    }

    fn execute(&mut self, ctx: &mut RoundContext<'_>) {
        // Borrow the vote lists and decisions straight out of the intra
        // outcomes — the seed cloned both per committee per round.
        let inputs: Vec<(usize, &VoteList, &[i8], bool)> = ctx
            .intra_outcomes
            .iter()
            .map(|o| {
                (
                    o.committee,
                    &o.vote_list,
                    o.decision.as_slice(),
                    o.certificate.is_some(),
                )
            })
            .collect();
        run_reputation_update(
            ctx.executor,
            ctx.registry,
            &ctx.committees,
            &ctx.assignment.referee,
            &inputs,
            ctx.reputation,
            ctx.config.leader_bonus,
            ctx.round,
            ctx.config.latency,
            ctx.config.verify_signatures,
            ctx.config.seed ^ (ctx.round << 24),
            &mut ctx.metrics,
        );
    }
}

/// Phase 6 — beacon, PoW participation, next-round selection (§IV-F).
///
/// Inputs: the reputation table after updates. Outputs: `ctx.selection`.
pub struct SelectionPhase;

impl RoundPhase for SelectionPhase {
    fn name(&self) -> &'static str {
        "selection"
    }

    fn execute(&mut self, ctx: &mut RoundContext<'_>) {
        ctx.selection = Some(run_selection(
            ctx.executor,
            ctx.registry,
            &ctx.assignment.referee,
            AssignmentParams {
                committees: ctx.config.committees,
                partial_set_size: ctx.config.partial_set_size,
                referee_size: ctx.config.referee_size,
            },
            ctx.reputation,
            ctx.round,
            ctx.assignment.randomness,
            ctx.config.pow_difficulty,
            &mut ctx.metrics,
        ));
    }
}

/// Phase 7 — block generation, propagation and per-shard application
/// (§IV-G).
///
/// Inputs: `ctx.intra_outcomes`, `ctx.inter`, `ctx.selection`. Outputs:
/// `ctx.block_outcome`, `ctx.cross_packed_ids`, and the block applied to
/// every shard's UTXO set — one executor task per shard, since the sets are
/// disjoint.
pub struct BlockGenerationPhase;

impl RoundPhase for BlockGenerationPhase {
    fn name(&self) -> &'static str {
        "block-generation"
    }

    fn execute(&mut self, ctx: &mut RoundContext<'_>) {
        // Stage candidates in the arena's reusable buffer, taking ownership
        // of the decided/accepted transactions instead of cloning them (no
        // later phase reads them, and `Transaction` clones would still pay
        // an Arc bump each).
        let mut candidates: Vec<Transaction> = std::mem::take(&mut ctx.arena.candidates);
        for outcome in &mut ctx.intra_outcomes {
            candidates.append(&mut outcome.decided);
        }
        if let Some(inter) = &mut ctx.inter {
            for txs in &mut inter.accepted {
                for tx in txs.drain(..) {
                    ctx.cross_packed_ids.insert(tx.id());
                    candidates.push(tx);
                }
            }
        }
        let all_nodes: Vec<NodeId> = ctx.registry.ids();
        let block_outcome = run_block_generation(
            ctx.registry,
            &ctx.referee,
            &all_nodes,
            ctx.selection
                .as_ref()
                .and_then(|s| s.next_assignment.as_ref()),
            &mut candidates,
            ctx.utxo_sets,
            &mut ctx.arena.overlay,
            ctx.reputation,
            ctx.prev_hash,
            ctx.block_height,
            ctx.config.latency,
            ctx.config.verify_signatures,
            ctx.config.seed ^ (ctx.round << 32),
            &mut ctx.metrics,
        );
        // Return the (drained) buffer to the arena for the next round.
        ctx.arena.candidates = candidates;

        // Apply the released block to every shard's UTXO set, one executor
        // task per shard (the per-shard sets are disjoint by construction),
        // each over the transactions that touch its shard.
        if let Some(block) = &block_outcome.block {
            let touched = ctx
                .arena
                .index_by_touched_shard(&block.transactions, ctx.utxo_sets.len());
            let tasks: Vec<_> = ctx
                .utxo_sets
                .iter_mut()
                .zip(touched)
                .map(|(set, positions)| {
                    move || {
                        for &position in positions {
                            set.apply(&block.transactions[position]);
                        }
                    }
                })
                .collect();
            let _: Vec<()> = ctx.executor.execute(tasks);
        }
        // Seal each shard's round delta into a versioned state root — one
        // executor task per shard, mirroring the apply batch. Rounds run
        // even when no block was produced (the root just re-publishes), so
        // every round report carries exactly one root per shard.
        if ctx.config.state_backend == StateBackend::Smt {
            let round = ctx.round;
            let tasks: Vec<_> = ctx
                .utxo_sets
                .iter_mut()
                .map(|set| move || set.commit_round(round).expect("smt backend returns a root"))
                .collect();
            ctx.state_roots = ctx.executor.execute(tasks);
        }
        ctx.block_outcome = Some(block_outcome);
    }
}
