//! The standard pipeline, each protocol phase as a function over
//! [`RoundContext`].
//!
//! Inputs and outputs of every phase are explicit context artifacts (see the
//! per-phase docs): a phase only reads artifacts produced by earlier phases
//! and writes its own, which is what lets the engine hand the parallel ones
//! to the [`ShardExecutor`](crate::engine::ShardExecutor) without changing
//! observable behaviour.
//!
//! Phases keep the paper's numbers. Phase 1, committee configuration
//! (Alg. 1 & 2), has no entry: a member's configuration is its row of the
//! configuration the previous block certified (phase 7), and the sortition
//! proofs behind the rows were checked as the selection phase drew them.

use std::collections::BTreeMap;

use cycledger_consensus::sigcache::SigCache;
use cycledger_consensus::transition::needs_recovery;
use cycledger_consensus::witness::Witness;
use cycledger_ledger::workload::GeneratedTx;
use cycledger_ledger::StateBackend;
use cycledger_net::metrics::Phase;

use crate::adversary::Behavior;
use crate::committee::Committee;
use crate::engine::context::RoundContext;
use crate::engine::env::Task;
use crate::phases::block_generation::run_block_generation;
use crate::phases::intra::{run_intra_consensus, IntraOutcome};
use crate::phases::recovery::Accusation;
use crate::phases::reputation_update::run_reputation_update;
use crate::phases::selection::{prepare_selection, run_selection};
use crate::phases::semi_commitment::{fabricated_witness, run_semi_commitment_exchange};
use crate::phases::xshard::{self, PairList};
use crate::report::RecoveryOutcome;

/// The function that runs a phase on the driver thread (delegating
/// data-parallel work to [`RoundContext::executor`]).
pub type PhaseFn = fn(&mut RoundContext<'_>);

/// The standard pipeline in protocol order (§IV): each phase and its
/// function.
pub fn standard_pipeline() -> &'static [(Phase, PhaseFn)] {
    use Phase::*;
    &[
        (SemiCommitmentExchange, semi_commitment),
        (IntraCommitteeConsensus, intra_consensus),
        (Recovery, intra_recovery),
        (InterCommitteeConsensus, inter_consensus),
        (ReputationUpdate, reputation_update),
        (KeyMemberSelection, selection),
        (BlockGeneration, block_generation),
    ]
}

/// Phase 2 — semi-commitment exchange (Alg. 4), plus recovery for any
/// commitment-mismatch witness, then for every fabricated one a
/// `FalseAccuser` in a partial set brings against its sitting leader (not
/// counted as a witness). The referee's agreement on the recorded
/// commitments is the block instance's: the block header commits to them
/// (phase 7).
///
/// Inputs: `ctx.committees`. Outputs: `ctx.recorded_commitments`,
/// `ctx.witnesses`, attempts in `ctx.recovery_log`, mutated
/// committees/reputation on successful impeachment.
pub fn semi_commitment(ctx: &mut RoundContext<'_>) {
    let semi = run_semi_commitment_exchange(&ctx.env, &ctx.committees, &mut ctx.books.metrics);
    ctx.recorded_commitments = semi.recorded_commitments;
    ctx.witnesses += semi.witnesses.len();
    for evidence in semi.witnesses {
        let k = evidence.committee;
        let witness = Witness::CommitmentMismatch(evidence);
        ctx.attempt_recovery(k, Accusation::Signed(witness), None);
    }
    let (env, framing) = (&ctx.env, Behavior::FalseAccuser);
    let seats = ctx.committees.iter();
    let forged: Vec<_> = seats
        .flat_map(|c| c.partial_set.iter().map(move |&accuser| (c, accuser)))
        .filter(|&(_, accuser)| env.registry.node(accuser).behavior == framing)
        .map(|(c, accuser)| (c.index, accuser, fabricated_witness(env, c, accuser)))
        .collect();
    for (k, accuser, witness) in forged {
        ctx.attempt_recovery(k, Accusation::Signed(witness), Some(accuser));
    }
}

/// Phase 3 — intra-committee consensus (Alg. 5), one committee per executor
/// task. The batch's lead task is the selection phase's round-start part
/// ([`prepare_selection`]): the next round's beacon, PoW admissions and VRF
/// table wait on nothing this round produces.
///
/// Inputs: `ctx.intra_per_shard`, `ctx.committees`, the shard UTXO sets.
/// Outputs: `ctx.intra_outcomes` (committee order), each certificate already
/// through the referee's check (`run_intra_batch`), every task's books
/// folded into `ctx.books` in committee order, and
/// `ctx.prepared_selection`.
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
        // Work is offered transactions or outbound lists.
        let source = |g: &GeneratedTx| xshard::pair_of(&g.tx, &ctx.routes).0 == k;
        let work_offered = !ctx.intra_per_shard[k].is_empty() || ctx.cross_shard.iter().any(source);
        if !needs_recovery(
            outcome.leader_silent,
            !outcome.equivocation.is_empty(),
            outcome.certificate.is_some(),
            work_offered,
        ) {
            continue;
        }
        ctx.witnesses += ctx.intra_outcomes[k].equivocation.len();
        let evidence = ctx.intra_outcomes[k].equivocation.first();
        let accusation = Accusation::after_consensus(evidence, ctx.committees[k].leader, k, true);
        if ctx.attempt_recovery(k, accusation, None) == RecoveryOutcome::Evicted {
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
/// led by [`prepare_selection`] into `ctx.prepared_selection`, or — `retry`
/// — for the ascending list of committees whose leader a recovery just
/// replaced (the task table seeds a retry's network apart from the first
/// attempt's). Each committee certifies its outbound cross-shard lists with
/// its `V List`. Returns the outcomes in committee order, with their books
/// folded into `ctx.books` in that same order.
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
    let outbound = xshard::group_outbound(&ctx.cross_shard, &ctx.routes);

    // Each task owns its committee's arena scratch slot exclusively for the
    // batch's lifetime — reusable validity tables without locks. (A retry
    // simply recomputes the validity table: the offered list is unchanged,
    // but the slot may have been resized.)
    let scratch_slots = ctx.arena.shard_slots(m).iter_mut().enumerate();
    let tasks: Vec<_> = scratch_slots
        .filter(|(k, _)| selected(*k))
        .map(|(k, scratch)| {
            let (committee, utxo, offered) = (&committees[k], &utxo_sets[k], &intra_per_shard[k]);
            let lists = outbound.get(&k).map_or(&[][..], Vec::as_slice);
            let retry = retry.is_some();
            move || run_intra_consensus(env, committee, retry, utxo, offered, lists, scratch)
        })
        .collect();
    let mut outcomes: Vec<IntraOutcome> = match retry {
        Some(_) => ctx.executor.execute(tasks),
        None => {
            let randomness = ctx.assignment.randomness;
            let round_start = move || prepare_selection(env, randomness);
            let (prepared, outcomes) = ctx.executor.execute_led(round_start, tasks);
            ctx.prepared_selection = Some(prepared);
            outcomes
        }
    };
    debug_assert!(outcomes
        .iter()
        .map(|o| o.committee)
        .eq((0..m).filter(|&k| selected(k))));
    for outcome in &outcomes {
        ctx.books.absorb(&outcome.books);
    }
    referee_check(ctx.round, &mut outcomes, committees, &outbound);
    outcomes
}

/// The referee's check of what a batch's leaders forwarded — a `TXdecSET`,
/// the `V List` and the certificate over that list — each against the
/// committee that sent it (`outcome.committee` — a retry batch holds some
/// committees, not all) and its `outbound` lists. The certificate must name
/// the attempt's instance and cover the forwarded list as leaf 0 of the
/// committee's vector; the list must name the offered transactions, then
/// the outbound ones in outbound-vector order; its tally over the committee
/// must accept exactly the forwarded transactions among the offered ones,
/// and leaf `1 + i` must be outbound list `i` cut down to what the tally
/// accepted of it; and the signatures must hold, checked against the verdict
/// memo of the instance that formed the certificate: what that instance's
/// leader verified costs lookups here, and only what it never saw is
/// verified on the driver thread. An admitted outcome's decision vector is
/// the referee's own tally, which the reputation update scores against. A
/// forward that fails is treated exactly like a leader that never produced a
/// certificate — its decisions must not reach the block builder; after the
/// first attempt the committee goes through recovery, after a retry it packs
/// nothing this round.
pub(crate) fn referee_check(
    round: u64,
    outcomes: &mut [IntraOutcome],
    committees: &[Committee],
    outbound: &BTreeMap<usize, Vec<PairList<'_>>>,
) {
    for outcome in outcomes {
        let memo = SigCache::from(std::mem::take(&mut outcome.memo));
        let Some(certificate) = &outcome.certificate else {
            continue;
        };
        let committee = &committees[outcome.committee];
        let lists = outbound.get(&outcome.committee);
        let lists = lists.map_or(&[][..], Vec::as_slice);
        let (list, offered) = (&outcome.vote_list, outcome.offered);
        let outbound_ids = lists.iter().flat_map(|list| list.ids());
        let tail = list.tx_ids.get(offered..);
        let columns = tail.is_some_and(|ids| ids.iter().copied().eq(outbound_ids));
        let tally = list.tally(committee.size());
        let indices = &tally.accepted_indices;
        let tallied = indices[..indices.partition_point(|&i| i < offered)].iter();
        let tallied = tallied.map(|&i| list.tx_ids[i]);
        let keys = &committee.keys;
        let attempt = Task::Intra {
            committee: outcome.committee,
            retry: outcome.retry,
        };
        let (tree, expected) = (outcome.vector.as_ref(), attempt.instance(round));
        let valid = certificate.verify_memoized(keys, keys.majority_threshold(), &memo);
        let valid = valid.is_ok();
        let admits = |index, leaf: &[u8]| {
            xshard::leaf_admitted(certificate, tree, index, expected, leaf, valid)
        };
        let outbound_leaves = || {
            let accepted = xshard::accepted_lists(lists, &tally.decision[offered..]);
            let leaf = |(i, list)| admits(1 + i, &xshard::list_leaf(list));
            accepted.iter().enumerate().all(leaf)
        };
        let admitted = columns
            && tallied.eq(outcome.decided.iter().map(|tx| tx.id()))
            && admits(0, &list.to_payload())
            && outbound_leaves();
        if admitted {
            outcome.decision = tally.decision;
        } else {
            outcome.certificate = None;
            outcome.decided.clear();
        }
    }
}

/// Phase 4 — inter-committee consensus over cross-shard transactions
/// (§IV-D), plus impeachment of censoring leaders.
///
/// Inputs: `ctx.cross_shard`, post-recovery committees. Outputs: `ctx.inter`
/// (its censorship accusations counted in the report), further evictions.
pub fn inter_consensus(ctx: &mut RoundContext<'_>) {
    let inter = xshard::run_phase(
        &ctx.env,
        &ctx.committees,
        &ctx.cross_shard,
        &ctx.routes,
        &ctx.intra_outcomes,
        ctx.executor,
        &mut ctx.books,
    );
    for (k, accusation) in &inter.censorship {
        // The committee observed the timeout; impeach the censoring leader —
        // once, however many destinations it withheld from — unless an
        // earlier phase already replaced it.
        if ctx.evicted().any(|(ek, _)| ek == *k) {
            continue;
        }
        ctx.attempt_recovery(*k, accusation.clone(), None);
    }
    ctx.inter = Some(inter);
}

/// Phase 5 — reputation updating from the certified `V List`s (§IV-E): a
/// serial fold on the driver, no message and no executor batch.
///
/// Inputs: `ctx.intra_outcomes` the referee admitted, post-inter
/// committees. Outputs: mutated reputation table.
pub fn reputation_update(ctx: &mut RoundContext<'_>) {
    let outcomes = ctx.intra_outcomes.iter();
    run_reputation_update(
        outcomes.map(|o| {
            let (admitted, offered) = (o.certificate.is_some(), &o.decision[..o.offered]);
            (o.committee, &o.vote_list, offered, admitted)
        }),
        &ctx.committees,
        ctx.reputation,
    );
}

/// Phase 6 — beacon, PoW participation, next-round selection (§IV-F), on
/// the round-start part the intra-consensus batch prepared.
///
/// Inputs: `ctx.prepared_selection`, the reputation table after updates.
/// Outputs: `ctx.selection`.
pub fn selection(ctx: &mut RoundContext<'_>) {
    let prepared = ctx.prepared_selection.take();
    let prepared = prepared.expect("the intra-consensus batch prepares the selection");
    let (metrics, draw) = (&mut ctx.books.metrics, &mut ctx.arena.draw);
    let outcome = run_selection(
        &ctx.env,
        ctx.executor,
        draw,
        ctx.reputation,
        prepared,
        metrics,
    );
    ctx.selection = Some(outcome);
}

/// Phase 7 — block generation, propagation and per-shard application
/// (§IV-G).
///
/// Inputs: `ctx.intra_outcomes`, `ctx.inter`, `ctx.selection`,
/// `ctx.recorded_commitments`. Outputs: `ctx.block_outcome`,
/// `ctx.cross_packed_ids`, and the block applied to every shard's UTXO set —
/// one executor task per shard, since the sets are disjoint.
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
    let selection = ctx.selection.as_ref();
    let next = selection.and_then(|s| s.next_assignment.as_ref());
    let block_outcome = run_block_generation(
        &ctx.env,
        ctx.chain,
        (
            next,
            &ctx.recorded_commitments,
            &ctx.committees,
            &ctx.intra_outcomes,
        ),
        ctx.arena,
        ctx.utxo_sets,
        ctx.reputation,
        &mut ctx.books,
    );

    // Apply the released block to every shard's UTXO set and, on the SMT
    // backend, seal the shard's round delta into a versioned state root:
    // one executor task per shard (the per-shard sets are disjoint by
    // construction), each over its slice of the block: the transactions
    // that touch its shard, from the index block generation built.
    // Rounds commit even when no block was produced (the root just
    // re-publishes), so every round report carries exactly one root per
    // shard.
    let (round, smt) = (ctx.round, ctx.env.config.state_backend == StateBackend::Smt);
    let block = block_outcome.block.as_ref();
    if block.is_some() || smt {
        let touched = match block {
            Some(_) => &ctx.arena.touched[..],
            None => &[],
        };
        let tasks: Vec<_> = ctx
            .utxo_sets
            .iter_mut()
            .enumerate()
            .map(|(shard, set)| {
                let positions = touched.get(shard).map_or(&[][..], Vec::as_slice);
                move || {
                    if let Some(block) = block {
                        for &position in positions {
                            set.apply(&block.transactions[position]);
                        }
                    }
                    smt.then(|| set.commit_round(round).expect("smt backend returns a root"))
                }
            })
            .collect();
        ctx.state_roots = ctx.executor.execute(tasks).into_iter().flatten().collect();
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

    #[test]
    fn the_pipeline_runs_seven_distinct_phases_and_no_configuration() {
        let phases: Vec<Phase> = standard_pipeline().iter().map(|&(p, _)| p).collect();
        assert_eq!(phases.len(), 7);
        let distinct: std::collections::HashSet<Phase> = phases.iter().copied().collect();
        assert_eq!(distinct.len(), 7);
        // A member's configuration is its certified row: no phase runs it.
        assert!(!phases.contains(&Phase::CommitteeConfiguration));
    }

    /// Copies what the intra-consensus phase left on the context.
    #[derive(Default)]
    struct AfterIntra {
        outcomes: Vec<IntraOutcome>,
        committees: Vec<Committee>,
        cross_shard: Vec<GeneratedTx>,
        round: u64,
    }

    impl RoundObserver for AfterIntra {
        fn on_phase_end(&mut self, _: &'static str, ctx: &RoundContext<'_>) {
            if ctx.phase == Phase::IntraCommitteeConsensus {
                self.outcomes = ctx.intra_outcomes.clone();
                self.committees = ctx.committees.clone();
                self.cross_shard = ctx.cross_shard.clone();
                self.round = ctx.round;
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
        let (outcomes, committees, round) = (seen.outcomes, seen.committees, seen.round);
        let outbound = xshard::group_outbound(&seen.cross_shard, committees.len());
        assert!(outbound.contains_key(&2), "committee 2 has outbound lists");
        assert!(outcomes
            .iter()
            .all(|o| o.certificate.is_some() && !o.decided.is_empty()));

        fn qc(o: &mut IntraOutcome) -> &mut QuorumCertificate {
            o.certificate.as_mut().unwrap()
        }
        let cut = |o: &mut IntraOutcome| qc(o).signatures.truncate(committees[2].majority() - 1);
        let foreign = |o: &mut IntraOutcome| qc(o).signatures[0].0 = committees[0].members[1];
        // A decided set the certified V List's tally does not accept, and a
        // V List the certificate does not cover.
        let shed = |o: &mut IntraOutcome| drop(o.decided.pop());
        let recast = |o: &mut IntraOutcome| o.vote_list.votes.swap(0, 1);
        // A certificate checked as the other attempt's.
        let attempt = |o: &mut IntraOutcome| o.retry = !o.retry;
        let tampers: [&dyn Fn(&mut IntraOutcome); 5] = [&cut, &foreign, &shed, &recast, &attempt];
        // The first pass holds every committee; a retry only those whose
        // leader a recovery replaced — here committee 2 alone, at position 0.
        for batch in [outcomes.clone(), vec![outcomes[2].clone()]] {
            let mut kept = batch.clone();
            referee_check(round, &mut kept, &committees, &outbound);
            assert!(kept
                .iter()
                .all(|o| o.certificate.is_some() && !o.decided.is_empty()));
            for tamper in tampers {
                let mut batch = batch.clone();
                let last = batch.last_mut().unwrap();
                assert_eq!(last.committee, 2);
                tamper(last);
                referee_check(round, &mut batch, &committees, &outbound);
                let (last, others) = batch.split_last().unwrap();
                assert!(last.certificate.is_none());
                assert!(last.decided.is_empty());
                assert!(others.iter().all(|o| o.certificate.is_some()));
            }
        }
    }

    /// Committee 0 is offered no transaction of its own, only outbound lists,
    /// and its first leader is fail-silent: the lists are work, so the
    /// committee goes through recovery, and they travel in the same round
    /// under the retry's certificate.
    #[test]
    fn a_silent_leader_with_only_outbound_lists_is_recovered_and_its_lists_land() {
        #[derive(Default)]
        struct Source0 {
            offered: usize,
            retry_certified: bool,
            accepted: usize,
        }
        impl RoundObserver for Source0 {
            fn on_phase_end(&mut self, _: &'static str, ctx: &RoundContext<'_>) {
                let outcome = ctx.intra_outcomes.first();
                match ctx.phase {
                    Phase::Recovery => {
                        self.offered = ctx.intra_per_shard[0].len();
                        self.retry_certified =
                            outcome.is_some_and(|o| o.retry && o.certificate.is_some());
                    }
                    Phase::InterCommitteeConsensus => {
                        self.accepted = ctx.inter.as_ref().map_or(0, |i| i.accepted[0].len());
                    }
                    _ => {}
                }
            }
        }

        let config = ProtocolConfig {
            committees: 3,
            committee_size: 8,
            partial_set_size: 2,
            referee_size: 5,
            txs_per_round: 90,
            accounts_per_shard: 24,
            cross_shard_ratio: 1.0,
            invalid_ratio: 0.0,
            pow_difficulty: 2,
            ..ProtocolConfig::default()
        };
        let mut sim = Simulation::new(config).unwrap();
        let leader = sim.assignment().committees[0].leader;
        let silent = crate::adversary::Behavior::SilentLeader;
        sim.registry_mut().set_behavior(leader, silent);
        let mut seen = Source0::default();
        let report = sim.run_round_observed(&mut seen);
        assert_eq!(seen.offered, 0, "committee 0 has outbound lists only");
        assert_eq!(report.evicted_leaders, [(0, leader)]);
        assert!(seen.retry_certified);
        assert!(seen.accepted > 0, "its lists were accepted this round");
        assert!(report.block_produced);
    }

    /// Driver-thread operation counts of a fault-free verified 8×16 round on
    /// two workers. Every batch of the two phases holds eight tasks, so the
    /// executor runs none inline and the driver thread's tally is exactly
    /// what the round does outside an executor task: the referee's
    /// certificate check is one memo lookup per certificate signature and no
    /// signature verification at all, and admitting a forward costs nothing.
    /// (At commit ee421ab the same two phases verified 210 signatures here,
    /// in three batches.) The round runs `m + 1` Algorithm 3 instances: one
    /// per committee and the block one, which also certifies the recorded
    /// semi-commitments; the semi-commitment exchange sends its three legs
    /// and nothing else.
    #[cfg(feature = "opcount")]
    #[test]
    fn a_fault_free_round_verifies_no_signature_on_the_driver_thread_in_intra_and_inter() {
        use cycledger_crypto::opcount::{current, Tally};
        use Phase::{
            BlockGeneration, InterCommitteeConsensus, IntraCommitteeConsensus,
            SemiCommitmentExchange,
        };

        const LABELS: [Phase; 2] = [SemiCommitmentExchange, InterCommitteeConsensus];
        fn sent(ctx: &RoundContext<'_>, label: Phase) -> u64 {
            ctx.books.metrics.phase_total(label).msgs_sent
        }

        /// Per phase: signatures verified singly, batches, memo lookups;
        /// the semi-commitment and inter-committee messages sent before it;
        /// and the Algorithm 3 instances the round ran.
        #[derive(Default)]
        struct DriverTally {
            started: Tally,
            sent: [u64; 2],
            spent: Vec<(Phase, [u64; 3])>,
            intra_signatures: usize,
            instances: usize,
            forwards: u64,
            semi: u64,
        }

        impl RoundObserver for DriverTally {
            fn on_phase_start(&mut self, _: &'static str, ctx: &RoundContext<'_>) {
                self.started = current();
                self.sent = LABELS.map(|label| sent(ctx, label));
            }

            fn on_phase_end(&mut self, _: &'static str, ctx: &RoundContext<'_>) {
                let (before, after) = (self.started, current());
                let spent = [
                    after.sigs_single - before.sigs_single,
                    after.sig_batches - before.sig_batches,
                    after.memo_lookups - before.memo_lookups,
                ];
                self.spent.push((ctx.phase, spent));
                if ctx.phase == IntraCommitteeConsensus {
                    let certificates = ctx.intra_outcomes.iter().flat_map(|o| &o.certificate);
                    self.intra_signatures = certificates.map(|qc| qc.signer_count()).sum();
                    let silent = ctx.intra_outcomes.iter().filter(|o| o.leader_silent);
                    self.instances += ctx.intra_outcomes.len() - silent.count();
                }
                let [semi, inter] = [0, 1].map(|i| sent(ctx, LABELS[i]) - self.sent[i]);
                if ctx.phase == InterCommitteeConsensus {
                    // No instance and no vote: one forward per list to the
                    // destination's leader and partial set, and nothing else.
                    let m = ctx.committee_count();
                    let pairs = ctx.cross_shard.iter().map(|g| xshard::pair_of(&g.tx, m));
                    let pairs: std::collections::BTreeSet<_> = pairs.collect();
                    let legs = |&(_, dest): &(usize, usize)| {
                        1 + ctx.committees[dest].partial_set.len() as u64
                    };
                    assert_eq!(inter, pairs.iter().map(legs).sum::<u64>());
                    self.forwards = inter;
                }
                if ctx.phase == SemiCommitmentExchange {
                    self.semi = semi;
                }
                let block = ctx.block_outcome.as_ref().and_then(|b| b.block.as_ref());
                if ctx.phase == BlockGeneration && block.is_some() {
                    self.instances += 1;
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
        let lookups = |phase: Phase| {
            let spent = driver.spent.iter().find(|(ran, _)| *ran == phase);
            let (_, [singly, batches, lookups]) = spent.expect("the phase ran");
            assert_eq!((*singly, *batches), (0, 0), "{phase:?}");
            *lookups
        };
        let intra = lookups(IntraCommitteeConsensus);
        assert_eq!(intra, driver.intra_signatures as u64);
        assert_eq!(intra, 71);
        // A forward rides the intra certificate the referee admitted and
        // costs nothing.
        assert_eq!(lookups(InterCommitteeConsensus), 0);
        assert!(driver.forwards > 0);
        assert_eq!(driver.instances, 8 + 1);
        // Leader → referee (8 × 7), leader → partial set (8 × 4) and the
        // referee's relay to every key member (7 × 8 × 5).
        assert_eq!(driver.semi, 56 + 32 + 280);
    }
}
