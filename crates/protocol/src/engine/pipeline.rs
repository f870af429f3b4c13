//! The standard seven-phase pipeline, each protocol phase as a function over
//! [`RoundContext`].
//!
//! Inputs and outputs of every phase are explicit context artifacts (see the
//! per-phase docs): a phase only reads artifacts produced by earlier phases
//! and writes its own, which is what lets the engine hand the parallel ones
//! to the [`ShardExecutor`](crate::engine::ShardExecutor) without changing
//! observable behaviour.

use cycledger_consensus::sigcache::SigCache;
use cycledger_consensus::transition::needs_recovery;
use cycledger_consensus::votes::VoteList;
use cycledger_consensus::witness::Witness;
use cycledger_ledger::StateBackend;

use crate::committee::Committee;
use crate::engine::context::{RecoveryAttempt, RoundContext};
use crate::phases::block_generation::run_block_generation;
use crate::phases::configuration::run_committee_configuration;
use crate::phases::intra::{run_intra_consensus, IntraOutcome};
use crate::phases::recovery::Accusation;
use crate::phases::reputation_update::run_reputation_update;
use crate::phases::selection::run_selection;
use crate::phases::semi_commitment::run_semi_commitment_exchange;
use crate::phases::xshard;

/// One phase of the pipeline: the name observers and traces see, and the
/// function that runs it on the driver thread (delegating data-parallel work
/// to [`RoundContext::executor`]).
pub type Phase = (&'static str, fn(&mut RoundContext<'_>));

/// The standard pipeline in protocol order (§IV).
pub fn standard_pipeline() -> &'static [Phase] {
    &[
        ("committee-configuration", configuration),
        ("semi-commitment-exchange", semi_commitment),
        ("intra-consensus", intra_consensus),
        ("intra-recovery", intra_recovery),
        ("inter-consensus", inter_consensus),
        ("reputation-update", reputation_update),
        ("selection", selection),
        ("block-generation", block_generation),
    ]
}

/// Phase 1 — committee configuration (Alg. 1 & 2). The sortition proofs
/// are verified as one chunked executor batch.
///
/// Inputs: the round assignment. Outputs: configuration traffic in
/// `ctx.books`, `ctx.configuration`, and `ctx.committees` without the
/// members whose claim the key members rejected.
pub fn configuration(ctx: &mut RoundContext<'_>) {
    let metrics = &mut ctx.books.metrics;
    let outcome = run_committee_configuration(&ctx.env, ctx.executor, ctx.assignment, metrics);
    // The engine's assignment always comes from `assign_round_on` over
    // this very registry — one reused after a beacon failure still
    // carries the round its proofs were drawn for — so every proof
    // verifies; a rejection here means sortition and configuration
    // disagree.
    debug_assert!(outcome.rejected.is_empty(), "{:?}", outcome.rejected);
    ctx.apply_configuration(outcome);
}

/// Phase 2 — semi-commitment exchange (Alg. 4), plus recovery for any
/// commitment-mismatch witness.
///
/// Inputs: `ctx.committees`. Outputs: `ctx.witnesses`, evictions in
/// `ctx.recovery_log`, mutated committees/reputation on successful
/// impeachment.
pub fn semi_commitment(ctx: &mut RoundContext<'_>) {
    let semi = run_semi_commitment_exchange(&ctx.env, &ctx.committees, &mut ctx.books);
    ctx.witnesses += semi.witnesses.len();
    for witness in semi.witnesses {
        let k = match &witness {
            Witness::CommitmentMismatch(e) => e.committee,
            Witness::Equivocation(_) => continue,
        };
        ctx.attempt_recovery(k, Accusation::Signed(witness));
    }
}

/// Phase 3 — intra-committee consensus (Alg. 5), one committee per executor
/// task.
///
/// Inputs: `ctx.intra_per_shard`, `ctx.committees`, the shard UTXO sets.
/// Outputs: `ctx.intra_outcomes` (committee order), each certificate already
/// through the referee's check (`run_intra_batch`), and every task's books
/// folded into `ctx.books` in committee order.
pub fn intra_consensus(ctx: &mut RoundContext<'_>) {
    ctx.intra_outcomes = run_intra_batch(ctx, None);
}

/// Phase 3b — recovery for leaders that failed intra consensus, then one
/// parallel retry batch under the new leaders.
///
/// Inputs: `ctx.intra_outcomes`. Outputs: updated outcomes for recovered
/// committees, evictions, witnesses, skipped-recovery count.
///
/// Impeachments run sequentially in committee order (they mutate the global
/// reputation table and the round's books), but the retried consensus
/// instances — pure functions of the post-recovery committees — run as one
/// executor batch.
pub fn intra_recovery(ctx: &mut RoundContext<'_>) {
    let m = ctx.committee_count();
    let mut retries: Vec<usize> = Vec::new();
    for k in 0..m {
        let outcome = &ctx.intra_outcomes[k];
        if !needs_recovery(
            outcome.leader_silent,
            !outcome.equivocation.is_empty(),
            outcome.certificate.is_some(),
            !ctx.intra_per_shard[k].is_empty(),
        ) {
            continue;
        }
        ctx.witnesses += ctx.intra_outcomes[k].equivocation.len();
        let evidence = ctx.intra_outcomes[k].equivocation.first();
        let accusation = Accusation::after_consensus(evidence, ctx.committees[k].leader, k, true);
        if let RecoveryAttempt::Evicted(_) = ctx.attempt_recovery(k, accusation) {
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

/// Runs intra-committee consensus as one executor batch: for every committee,
/// or — `retry` — for the ascending list of committees whose leader a
/// recovery just replaced (the task table seeds a retry's network apart from
/// the first attempt's). Returns the outcomes in committee order, with their
/// books folded into `ctx.books` in that same order.
///
/// The driver then plays the referee's part on every outcome of the batch,
/// first attempt or retry: [`referee_check`] on the certificate forwarded
/// with the `TXdecSET`.
fn run_intra_batch(ctx: &mut RoundContext<'_>, retry: Option<&[usize]>) -> Vec<IntraOutcome> {
    let m = ctx.committee_count();
    let selected = |k: usize| retry.is_none_or(|ks| ks.contains(&k));
    let env = &ctx.env;
    let committees = &ctx.committees;
    let utxo_sets: &[_] = ctx.utxo_sets;
    let intra_per_shard = &ctx.intra_per_shard;

    // Each task owns its committee's arena scratch slot exclusively for the
    // batch's lifetime — reusable validity tables without locks. (A retry
    // simply recomputes the validity table: the offered list is unchanged,
    // but the slot may have been resized.)
    let scratch_slots = ctx.arena.shard_slots(m).iter_mut().enumerate();
    let tasks: Vec<_> = scratch_slots
        .filter(|(k, _)| selected(*k))
        .map(|(k, scratch)| {
            let (committee, utxo, offered) = (&committees[k], &utxo_sets[k], &intra_per_shard[k]);
            move || run_intra_consensus(env, committee, retry.is_some(), utxo, offered, scratch)
        })
        .collect();
    let mut outcomes: Vec<IntraOutcome> = ctx.executor.execute(tasks);
    debug_assert!(outcomes
        .iter()
        .map(|o| o.committee)
        .eq((0..m).filter(|&k| selected(k))));
    for outcome in &outcomes {
        ctx.books.absorb(&outcome.books);
    }
    referee_check(&mut outcomes, committees);
    outcomes
}

/// The referee's check of the certificates forwarded with a batch's
/// `TXdecSET`s, each against the key directory of the committee that sent it
/// (`outcome.committee` — a retry batch holds some committees, not all) and
/// the verdict memo of the instance that formed it: the signatures that
/// instance's leader verified cost lookups here, and only what it never saw
/// is verified on the driver thread. A certificate that fails is treated
/// exactly like a leader that never produced one — its decisions must not
/// reach the block builder; after the first attempt the committee goes
/// through recovery, after a retry it packs nothing this round.
fn referee_check(outcomes: &mut [IntraOutcome], committees: &[Committee]) {
    for outcome in outcomes {
        let memo = SigCache::from(std::mem::take(&mut outcome.memo));
        let Some(certificate) = &outcome.certificate else {
            continue;
        };
        let keys = &committees[outcome.committee].keys;
        let verdict = certificate.verify_memoized(keys, keys.majority_threshold(), &memo);
        if verdict.is_err() {
            outcome.certificate = None;
            outcome.decided.clear();
        }
    }
}

/// Phase 4 — inter-committee consensus over cross-shard transactions
/// (§IV-D), plus impeachment of censoring leaders.
///
/// Inputs: `ctx.cross_shard`, post-recovery committees. Outputs: `ctx.inter`,
/// `ctx.censorship_count`, further evictions.
pub fn inter_consensus(ctx: &mut RoundContext<'_>) {
    let inter = xshard::run_phase(
        &ctx.env,
        &ctx.committees,
        ctx.utxo_sets,
        &ctx.cross_shard,
        ctx.executor,
        &mut ctx.books,
    );
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
        if ctx.evicted().any(|(ek, _)| ek == k) {
            continue;
        }
        ctx.attempt_recovery_by(k, report.accusation(), report.reporter);
    }
}

/// Phase 5 — reputation updating from the intra-phase votes (§IV-E).
///
/// Inputs: `ctx.intra_outcomes`. Outputs: mutated reputation table, traffic
/// in `ctx.metrics`.
pub fn reputation_update(ctx: &mut RoundContext<'_>) {
    // Borrow the vote lists and decisions straight out of the intra
    // outcomes.
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
        &ctx.env,
        ctx.executor,
        &ctx.committees,
        &inputs,
        ctx.reputation,
        &mut ctx.books,
    );
}

/// Phase 6 — beacon, PoW participation, next-round selection (§IV-F).
///
/// Inputs: the reputation table after updates. Outputs: `ctx.selection`.
pub fn selection(ctx: &mut RoundContext<'_>) {
    ctx.selection = Some(run_selection(
        &ctx.env,
        ctx.executor,
        ctx.reputation,
        ctx.assignment.randomness,
        &mut ctx.books.metrics,
    ));
}

/// Phase 7 — block generation, propagation and per-shard application
/// (§IV-G).
///
/// Inputs: `ctx.intra_outcomes`, `ctx.inter`, `ctx.selection`. Outputs:
/// `ctx.block_outcome`, `ctx.cross_packed_ids`, and the block applied to
/// every shard's UTXO set — one executor task per shard, since the sets are
/// disjoint.
pub fn block_generation(ctx: &mut RoundContext<'_>) {
    // Stage candidates in the arena's reusable buffer, taking ownership
    // of the decided/accepted transactions instead of cloning them (no
    // later phase reads them, and `Transaction` clones would still pay
    // an Arc bump each).
    let candidates = &mut ctx.arena.candidates;
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
    let next = ctx.selection.as_ref();
    let block_outcome = run_block_generation(
        &ctx.env,
        ctx.chain,
        next.and_then(|s| s.next_assignment.as_ref()),
        ctx.arena,
        ctx.utxo_sets,
        ctx.reputation,
        &mut ctx.books,
    );

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
    if ctx.env.config.state_backend == StateBackend::Smt {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::engine::RoundObserver;
    use crate::simulation::Simulation;
    use cycledger_consensus::quorum::QuorumCertificate;

    /// Copies what the intra-consensus phase left on the context.
    #[derive(Default)]
    struct AfterIntra {
        outcomes: Vec<IntraOutcome>,
        committees: Vec<Committee>,
    }

    impl RoundObserver for AfterIntra {
        fn on_phase_end(&mut self, phase: &'static str, ctx: &RoundContext<'_>) {
            if phase == "intra-consensus" {
                self.outcomes = ctx.intra_outcomes.clone();
                self.committees = ctx.committees.clone();
            }
        }
    }

    #[test]
    fn a_retry_outcome_goes_through_the_same_referee_check_as_a_first_pass_one() {
        let config = ProtocolConfig {
            committees: 3,
            committee_size: 8,
            partial_set_size: 2,
            referee_size: 5,
            txs_per_round: 90,
            accounts_per_shard: 24,
            pow_difficulty: 2,
            ..ProtocolConfig::default()
        };
        let mut sim = Simulation::new(config).unwrap();
        let mut seen = AfterIntra::default();
        sim.run_round_observed(&mut seen);
        let (outcomes, committees) = (seen.outcomes, seen.committees);
        assert!(outcomes
            .iter()
            .all(|o| o.certificate.is_some() && !o.decided.is_empty()));

        let cut = |qc: &mut QuorumCertificate| qc.signatures.truncate(committees[2].majority() - 1);
        let foreign = |qc: &mut QuorumCertificate| qc.signatures[0].0 = committees[0].members[1];
        let tampers: [&dyn Fn(&mut QuorumCertificate); 2] = [&cut, &foreign];
        // The first pass holds every committee; a retry only those whose
        // leader a recovery replaced — here committee 2 alone, at position 0.
        for batch in [outcomes.clone(), vec![outcomes[2].clone()]] {
            let mut kept = batch.clone();
            referee_check(&mut kept, &committees);
            assert!(kept
                .iter()
                .all(|o| o.certificate.is_some() && !o.decided.is_empty()));
            for tamper in tampers {
                let mut batch = batch.clone();
                let last = batch.last_mut().unwrap();
                assert_eq!(last.committee, 2);
                tamper(last.certificate.as_mut().unwrap());
                referee_check(&mut batch, &committees);
                let (last, others) = batch.split_last().unwrap();
                assert!(last.certificate.is_none());
                assert!(last.decided.is_empty());
                assert!(others.iter().all(|o| o.certificate.is_some()));
            }
        }
    }

    /// Driver-thread operation counts of a fault-free verified 8×16 round on
    /// two workers. Every batch of the two phases holds eight tasks, so the
    /// executor runs none inline and the driver thread's tally is exactly
    /// what the round does outside an executor task: the referee's and the
    /// receivers' certificate checks are one memo lookup per certificate
    /// signature and no signature verification at all. (At commit ee421ab
    /// the same two phases verified 210 signatures here, in three batches.)
    #[cfg(feature = "opcount")]
    #[test]
    fn a_fault_free_round_verifies_no_signature_on_the_driver_thread_in_intra_and_inter() {
        use cycledger_crypto::opcount::{current, Tally};

        /// Per phase: signatures verified singly, batches, memo lookups.
        #[derive(Default)]
        struct DriverTally {
            started: Tally,
            spent: Vec<(&'static str, [u64; 3])>,
            intra_signatures: usize,
        }

        impl RoundObserver for DriverTally {
            fn on_phase_start(&mut self, _: &'static str, _: &RoundContext<'_>) {
                self.started = current();
            }

            fn on_phase_end(&mut self, phase: &'static str, ctx: &RoundContext<'_>) {
                let (before, after) = (self.started, current());
                let spent = [
                    after.sigs_single - before.sigs_single,
                    after.sig_batches - before.sig_batches,
                    after.memo_lookups - before.memo_lookups,
                ];
                self.spent.push((phase, spent));
                if phase == "intra-consensus" {
                    let certificates = ctx.intra_outcomes.iter().flat_map(|o| &o.certificate);
                    self.intra_signatures = certificates.map(|qc| qc.signer_count()).sum();
                }
            }
        }

        let config = ProtocolConfig {
            committees: 8,
            committee_size: 16,
            partial_set_size: 4,
            txs_per_round: 400,
            pow_difficulty: 2,
            worker_threads: 2,
            seed: 4242,
            ..ProtocolConfig::default()
        };
        let mut sim = Simulation::new(config).unwrap();
        let mut driver = DriverTally::default();
        let report = sim.run_round_observed(&mut driver);
        assert!(report.block_produced && report.evicted_leaders.is_empty());
        let lookups = |name: &str| {
            let phase = driver.spent.iter().find(|(phase, _)| *phase == name);
            let (_, [singly, batches, lookups]) = phase.expect("the phase ran");
            assert_eq!((*singly, *batches), (0, 0), "{name}");
            *lookups
        };
        let intra = lookups("intra-consensus");
        assert_eq!(intra, driver.intra_signatures as u64);
        assert_eq!(intra, 71);
        // The same committees certify once as sources and once as
        // destinations, each at its majority of CONFIRMs again.
        assert_eq!(lookups("inter-consensus"), 2 * intra);
    }
}
