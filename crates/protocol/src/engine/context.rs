//! [`RoundContext`]: the per-round shared state every phase reads and writes.

use cycledger_crypto::fxhash::FxHashSet;
use cycledger_crypto::sha256::Digest;
use cycledger_ledger::block::{Block, Chain};
use cycledger_ledger::transaction::TxId;
use cycledger_ledger::utxo::UtxoSet;
use cycledger_ledger::workload::{GeneratedTx, TxKind};
use cycledger_net::metrics::MetricsSink;
use cycledger_net::topology::{NodeId, RoundTopology};
use cycledger_reputation::ReputationTable;

use crate::committee::Committee;
use crate::engine::arena::RoundArena;
use crate::engine::env::{Books, PlaneCounters, RoundEnv};
use crate::engine::executor::ShardExecutor;
use crate::phases::block_generation::BlockOutcome;
use crate::phases::configuration::ConfigurationOutcome;
use crate::phases::inter::InterOutcome;
use crate::phases::intra::IntraOutcome;
use crate::phases::recovery::{run_recovery, Accusation};
use crate::phases::selection::SelectionOutcome;
use crate::report::{RecoveryOutcome, RecoveryRecord, RoleGroups, RoundReport};
use crate::sortition::RoundAssignment;

/// What one recovery attempt did to the accused committee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAttempt {
    /// The leader was evicted and a partial-set member installed.
    Evicted(NodeId),
    /// The impeachment ran but did not evict (bad evidence, no majority, or
    /// an empty candidate pool at the referee step).
    Rejected,
    /// The recovery could not even start: the partial set has no member left
    /// to prosecute, so the committee skips recovery this round instead of
    /// panicking (the next sortition refills the partial set).
    Skipped,
}

/// Per-round shared state, owned by the engine and threaded through every
/// phase of [`crate::engine::pipeline`].
///
/// The context splits into three bands:
///
/// * **round inputs** — the [`RoundEnv`], the assignment, the chain tip,
///   the executor: shared immutable borrows;
/// * **simulation state** — UTXO sets and the reputation table: exclusive
///   borrows that persist across rounds;
/// * **round artifacts** — committees, books, phase outcomes: owned by the
///   context, produced by one phase and consumed by later ones, assembled
///   into the [`RoundReport`] at the end.
pub struct RoundContext<'a> {
    /// Configuration, registry, referee committee, fault plan and round
    /// number: what every phase entry point and every task reads.
    pub env: RoundEnv<'a>,
    /// This round's assignment (from the previous block).
    pub assignment: &'a RoundAssignment,
    /// The persistent worker pool shared by all parallel phases.
    pub executor: &'a ShardExecutor,
    /// Reusable scratch buffers recycled across rounds (reset on context
    /// construction; drained and refilled by the phases).
    pub arena: &'a mut RoundArena,
    /// The round number (`env.round`).
    pub round: u64,
    /// The chain this round's block extends: its tip is the previous block,
    /// its height the one the produced block will sit at. Usually the round
    /// number; it trails only if an earlier round failed to produce a block.
    pub chain: &'a Chain,

    /// Mutable shard UTXO sets (simulation state).
    pub utxo_sets: &'a mut [UtxoSet],
    /// Mutable global reputation table (simulation state).
    pub reputation: &'a mut ReputationTable,

    /// Committees as executable objects (leaders may change during recovery).
    pub committees: Vec<Committee>,
    /// The round's books: every task's, folded in committee order, plus what
    /// the phases account on the driver thread.
    pub books: Books,
    /// Signed witnesses produced so far.
    pub witnesses: usize,
    /// Every recovery attempted so far, in attempt order (the invariant
    /// observation log surfaced through [`RoundReport::recovery_log`]; the
    /// report's evicted leaders and skipped-recovery count are derived from
    /// it, so the log is the single source of truth).
    pub recovery_log: Vec<RecoveryRecord>,

    /// Per-shard intra-committee transaction lists (workload split).
    pub intra_per_shard: Vec<Vec<GeneratedTx>>,
    /// Cross-shard transactions (workload split).
    pub cross_shard: Vec<GeneratedTx>,
    /// Number of transactions offered this round.
    pub offered_total: usize,
    /// Of those, how many were valid (ground truth).
    pub offered_valid: usize,
    /// Of those, how many were cross-shard (ground truth).
    pub offered_cross: usize,

    /// Output of the committee-configuration phase.
    pub configuration: Option<ConfigurationOutcome>,
    /// Output of the intra-consensus phase, one entry per committee.
    pub intra_outcomes: Vec<IntraOutcome>,
    /// Output of the inter-consensus phase.
    pub inter: Option<InterOutcome>,
    /// Censorship reports observed during inter consensus.
    pub censorship_count: usize,
    /// Output of the selection phase.
    pub selection: Option<SelectionOutcome>,
    /// Output of the block-generation phase.
    pub block_outcome: Option<BlockOutcome>,
    /// Authenticated state roots committed by this round's block application,
    /// one per shard in shard order. Stays empty on the map backend.
    pub state_roots: Vec<Digest>,
    /// Ids of cross-shard transactions offered to the block builder (for the
    /// packed-cross-shard report column).
    pub cross_packed_ids: FxHashSet<TxId>,
}

impl<'a> RoundContext<'a> {
    /// Builds the context of round `env.round` over `assignment`:
    /// instantiates the committees and resets the arena. The offered
    /// workload comes in through [`offer`](Self::offer).
    pub fn new(
        env: RoundEnv<'a>,
        assignment: &'a RoundAssignment,
        executor: &'a ShardExecutor,
        chain: &'a Chain,
        utxo_sets: &'a mut [UtxoSet],
        reputation: &'a mut ReputationTable,
        arena: &'a mut RoundArena,
    ) -> Self {
        arena.begin_round();
        let committee_count = assignment.committees.len();
        let committees: Vec<Committee> = assignment
            .committees
            .iter()
            .map(|c| Committee::from_assignment(c, env.registry))
            .collect();

        RoundContext {
            env,
            assignment,
            executor,
            arena,
            round: env.round,
            chain,
            utxo_sets,
            reputation,
            committees,
            books: Books {
                metrics: MetricsSink::with_node_capacity(env.registry.len()),
                counters: PlaneCounters::default(),
            },
            witnesses: 0,
            recovery_log: Vec::new(),
            intra_per_shard: vec![Vec::new(); committee_count],
            cross_shard: Vec::new(),
            offered_total: 0,
            offered_valid: 0,
            offered_cross: 0,
            configuration: None,
            intra_outcomes: Vec::new(),
            inter: None,
            censorship_count: 0,
            selection: None,
            block_outcome: None,
            state_roots: Vec::new(),
            cross_packed_ids: FxHashSet::default(),
        }
    }

    /// Takes the transactions external users offered this round and splits
    /// them into per-shard intra lists and cross-shard transactions.
    pub fn offer(&mut self, offered: Vec<GeneratedTx>) {
        let committee_count = self.committee_count();
        self.offered_total += offered.len();
        self.offered_valid += offered.iter().filter(|g| g.kind.is_valid()).count();
        self.offered_cross += offered
            .iter()
            .filter(|g| g.kind == TxKind::CrossShard)
            .count();
        for gen in offered {
            match gen.tx.home_shard(committee_count) {
                Some(shard) => self.intra_per_shard[shard].push(gen),
                None => self.cross_shard.push(gen),
            }
        }
    }

    /// Number of ordinary committees `m`.
    pub fn committee_count(&self) -> usize {
        self.committees.len()
    }

    /// Records the configuration phase's outcome and removes every member
    /// whose sortition claim was rejected from its instantiated committee
    /// (member list and key directory), so it neither votes nor counts
    /// towards the committee's quorum in any later phase.
    pub fn apply_configuration(&mut self, outcome: ConfigurationOutcome) {
        for &(k, member) in &outcome.rejected {
            let committee = &mut self.committees[k];
            committee.members.retain(|&m| m != member);
            committee.keys = self.env.registry.committee_keys(&committee.members);
        }
        self.configuration = Some(outcome);
    }

    /// Picks the prosecutor for committee `k`: the first honest partial-set
    /// member, falling back to the first partial-set member of any behaviour,
    /// or `None` when the partial set has been drained by earlier recoveries
    /// (the engine then records a skipped recovery and the round continues).
    pub fn pick_prosecutor(&self, k: usize) -> Option<NodeId> {
        let partial = &self.committees[k].partial_set;
        partial
            .iter()
            .copied()
            .find(|&pm| self.env.registry.node(pm).is_honest())
            .or_else(|| partial.first().copied())
    }

    /// Runs the recovery procedure for committee `k` with an automatically
    /// picked prosecutor, keeping the eviction ledger and skip counter
    /// consistent. Returns what happened.
    pub fn attempt_recovery(&mut self, k: usize, accusation: Accusation) -> RecoveryAttempt {
        let Some(prosecutor) = self.pick_prosecutor(k) else {
            let accused = self.committees[k].leader;
            self.recovery_log.push(RecoveryRecord {
                committee: k,
                accused,
                accused_was_honest: self.env.registry.node(accused).is_honest(),
                prosecutor: None,
                approvals: 0,
                outcome: RecoveryOutcome::Skipped,
            });
            return RecoveryAttempt::Skipped;
        };
        self.attempt_recovery_by(k, accusation, prosecutor)
    }

    /// Like [`attempt_recovery`](Self::attempt_recovery) but with an explicit
    /// prosecutor (censorship reports name their reporter).
    pub fn attempt_recovery_by(
        &mut self,
        k: usize,
        accusation: Accusation,
        prosecutor: NodeId,
    ) -> RecoveryAttempt {
        let accused = self.committees[k].leader;
        let accused_was_honest = self.env.registry.node(accused).is_honest();
        // Recoveries run sequentially on the driver thread, so the attempt
        // index makes the task's network seed unique and deterministic.
        let (outcome, books) = run_recovery(
            &self.env,
            self.recovery_log.len(),
            &mut self.committees[k],
            accusation,
            prosecutor,
            self.reputation,
        );
        self.books.absorb(&books);
        let (attempt, logged) = match outcome.evicted {
            Some(old) => (RecoveryAttempt::Evicted(old), RecoveryOutcome::Evicted),
            None => (RecoveryAttempt::Rejected, RecoveryOutcome::Rejected),
        };
        self.recovery_log.push(RecoveryRecord {
            committee: k,
            accused,
            accused_was_honest,
            prosecutor: Some(prosecutor),
            approvals: outcome.approvals,
            outcome: logged,
        });
        attempt
    }

    /// Leaders evicted so far, `(committee, old leader)` in attempt order.
    pub fn evicted(&self) -> impl Iterator<Item = (usize, NodeId)> + '_ {
        self.recovery_log
            .iter()
            .filter(|r| r.outcome == RecoveryOutcome::Evicted)
            .map(|r| (r.committee, r.accused))
    }

    /// Role groups of this round's assignment (Table II reporting).
    fn role_groups(&self) -> RoleGroups {
        let mut groups = RoleGroups {
            referee_members: self.assignment.referee.clone(),
            ..Default::default()
        };
        for c in &self.assignment.committees {
            groups.key_members.push(c.leader);
            groups.key_members.extend_from_slice(&c.partial_set);
            groups.common_members.extend_from_slice(c.common_members());
        }
        groups
    }

    /// Consumes the context into the round's output: the block, if one was
    /// produced; the next round's assignment (`None` if the beacon failed);
    /// and the [`RoundReport`] assembled from the phase artifacts.
    pub fn into_output(self) -> (Option<Block>, Option<RoundAssignment>, RoundReport) {
        let (roles, counters) = (self.role_groups(), self.books.counters);
        let evicted_leaders = self.evicted().collect();
        let inter = self.inter.unwrap_or_default();
        let block_outcome = self.block_outcome.expect("block generation phase ran");

        let nodes = self.env.registry.len();
        let channels = self.assignment.channel_count();
        let full_clique = RoundTopology::full_clique_channels(nodes);

        let txs_packed = block_outcome
            .block
            .as_ref()
            .map(|b| b.tx_count())
            .unwrap_or(0);
        let cross_packed = block_outcome
            .block
            .as_ref()
            .map(|b| {
                b.transactions
                    .iter()
                    .filter(|t| self.cross_packed_ids.contains(&t.id()))
                    .count()
            })
            .unwrap_or(0);
        let fees = block_outcome
            .block
            .as_ref()
            .map(|b| b.total_fees())
            .unwrap_or(0);

        let report = RoundReport {
            round: self.round,
            block_produced: block_outcome.block.is_some(),
            txs_offered: self.offered_total,
            txs_offered_valid: self.offered_valid,
            txs_offered_cross_shard: self.offered_cross,
            txs_packed,
            txs_packed_cross_shard: cross_packed,
            rejected_by_referee: block_outcome.rejected_by_referee,
            evicted_leaders,
            witnesses: self.witnesses,
            skipped_recoveries: self
                .recovery_log
                .iter()
                .filter(|r| r.outcome == RecoveryOutcome::Skipped)
                .count(),
            censorship_reports: self.censorship_count,
            recovery_log: self.recovery_log,
            fees_distributed: fees,
            channels,
            full_clique_channels: full_clique,
            metrics: self.books.metrics,
            roles,
            timeout_delays_us: inter.timeout_delays,
            message_driven: self.env.config.message_driven,
            quorum_timeouts: counters.quorum_timeouts,
            list_timeouts: counters.list_timeouts,
            votes_missing: counters.votes_missing,
            net_dropped_messages: counters.net_dropped,
            syncing_abstentions: counters.syncing_abstentions,
            syncing_votes: counters.syncing_votes,
            // Attached by the simulation driver when this round closes an
            // epoch (see `Simulation::run_round_observed`).
            epoch_transition: None,
            // Attached by the simulation driver when the run is open-loop.
            traffic: None,
            state_roots: self.state_roots,
        };

        let next_assignment = self.selection.and_then(|s| s.next_assignment);
        (block_outcome.block, next_assignment, report)
    }
}

#[cfg(test)]
mod tests {
    /// `offer` routes every input and output of the round through
    /// `AccountId::shard`, whose per-thread memo must hold the largest
    /// tracked working set: `state-smt-2x8`'s 2 x 10^5 accounts, routed a
    /// second time, hash nothing.
    #[cfg(feature = "opcount")]
    #[test]
    fn a_second_pass_over_two_hundred_thousand_accounts_hashes_nothing() {
        use cycledger_crypto::opcount::scope;
        use cycledger_ledger::transaction::AccountId;

        let route = || {
            for account in 0..200_000u64 {
                std::hint::black_box(AccountId(account).shard(2));
            }
        };
        let first = scope(route);
        let second = scope(route);
        assert!(first.sha256_blocks > 0, "{first:?}");
        assert_eq!(second.sha256_blocks, 0, "{second:?}");
    }
}
