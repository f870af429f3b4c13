//! Multi-round simulation driver: the public entry point of the crate.
//!
//! ```
//! use cycledger_protocol::config::ProtocolConfig;
//! use cycledger_protocol::simulation::Simulation;
//!
//! let mut config = ProtocolConfig::default();
//! config.committee_size = 10;
//! config.committees = 2;
//! config.txs_per_round = 40;
//! let mut sim = Simulation::new(config).expect("valid config");
//! let summary = sim.run(2);
//! assert_eq!(summary.num_rounds(), 2);
//! ```

use cycledger_crypto::sha256::hash_parts;
use cycledger_ledger::block::Chain;
use cycledger_ledger::utxo::UtxoSet;
use cycledger_ledger::workload::{Workload, WorkloadConfig};
use cycledger_reputation::ReputationTable;

use crate::committee::Committee;
use crate::config::ProtocolConfig;
use crate::engine::{
    run_pipeline_observed, standard_pipeline, NoopObserver, RoundArena, RoundContext, RoundEnv,
    RoundObserver, ShardExecutor, Task,
};
use crate::epoch::{self, EpochSchedule};
use crate::node::{MembershipState, NodeRegistry};
use crate::report::{EpochTransitionReport, RoundReport, SimulationSummary};
use crate::sortition::{assign_round_on, RoundAssignment};
use crate::sync::{run_state_sync, SyncConfig};
use crate::traffic::{OpenLoopDriver, TrafficSnapshot};

/// A running CycLedger simulation: persistent chain, UTXO state, reputation and
/// round assignment across rounds, plus the persistent worker pool every
/// round's parallel phases run on.
pub struct Simulation {
    config: ProtocolConfig,
    registry: NodeRegistry,
    reputation: ReputationTable,
    chain: Chain,
    utxo_sets: Vec<UtxoSet>,
    workload: Workload,
    assignment: RoundAssignment,
    reports: Vec<RoundReport>,
    executor: ShardExecutor,
    /// Per-round scratch buffers recycled across rounds (see [`RoundArena`]).
    arena: RoundArena,
    /// Network faults in force for subsequent rounds (see
    /// [`Simulation::set_fault_plan`]).
    fault_plan: cycledger_net::faults::FaultPlan,
    /// State-sync results from mid-epoch retries, folded into the next
    /// boundary's [`EpochTransitionReport`].
    sync_carry: SyncTotals,
    /// Open-loop traffic driver (`config.traffic`): arrival backlog,
    /// in-flight confirm tracking and the aggregate latency histogram.
    /// `None` keeps the historical closed-loop workload.
    traffic: Option<OpenLoopDriver>,
}

/// Accumulated state-sync session results.
#[derive(Clone, Copy, Debug, Default)]
struct SyncTotals {
    synced: usize,
    timeouts: usize,
    chunks: usize,
}

impl SyncTotals {
    fn add(&mut self, other: SyncTotals) {
        self.synced += other.synced;
        self.timeouts += other.timeouts;
        self.chunks += other.chunks;
    }
}

impl Simulation {
    /// Builds a simulation from a configuration (validated first).
    pub fn new(config: ProtocolConfig) -> Result<Simulation, String> {
        config.validate()?;
        let registry = NodeRegistry::generate(
            config.total_nodes(),
            &config.adversary,
            config.base_compute_capacity,
            config.compute_capacity_spread,
            config.seed,
        );
        let reputation = ReputationTable::with_members(registry.ids());
        let genesis_randomness = hash_parts(&[b"cycledger/genesis", &config.seed.to_be_bytes()]);
        // Created once and reused by every round (see the engine's
        // determinism contract: worker count never changes results) — and
        // first, so the genesis sortition already runs on it.
        let executor = ShardExecutor::new(config.worker_threads);
        let assignment = assign_round_on(
            &executor,
            &registry,
            &registry.ids(),
            config.assignment_params(),
            0,
            genesis_randomness,
            &reputation,
        );
        let workload = Workload::new(WorkloadConfig {
            num_shards: config.committees,
            accounts_per_shard: config.accounts_per_shard,
            genesis_amount: 1_000,
            cross_shard_ratio: config.cross_shard_ratio,
            invalid_ratio: config.invalid_ratio,
            seed: config.seed,
        });
        let utxo_sets = workload.build_genesis_utxo_sets_with(config.state_backend);
        Ok(Simulation {
            config,
            registry,
            reputation,
            chain: Chain::new(),
            utxo_sets,
            workload,
            assignment,
            reports: Vec::new(),
            executor,
            arena: RoundArena::new(),
            fault_plan: cycledger_net::faults::FaultPlan::default(),
            sync_carry: SyncTotals::default(),
            traffic: config
                .traffic
                .map(|tc| OpenLoopDriver::new(tc, config.latency, config.seed)),
        })
    }

    /// Installs the network-fault plan subsequent rounds' task networks (those
    /// the `Task` table puts under it — all but the semi-commitment,
    /// reputation and block instances) and state-sync sessions run under. Scenario drivers call this
    /// between rounds to activate and heal partitions, targeted delays and
    /// loss windows — passing the default (empty) plan heals everything.
    ///
    /// This is the one place `config.message_driven` is consulted: with the
    /// flag off the plan is discarded and every round keeps running under
    /// the empty plan, so a fault schedule can never perturb a run that did
    /// not opt in. The flag selects no code — both settings run the same
    /// envelope implementation of every committee interaction.
    pub fn set_fault_plan(&mut self, plan: cycledger_net::faults::FaultPlan) {
        if self.config.message_driven {
            self.fault_plan = plan;
        }
    }

    /// The persistent shard executor backing the round pipeline.
    pub fn executor(&self) -> &ShardExecutor {
        &self.executor
    }

    /// The shard UTXO sets, with every block of the chain applied.
    pub fn utxo_sets(&self) -> &[UtxoSet] {
        &self.utxo_sets
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// The node registry (ground truth for experiments).
    pub fn registry(&self) -> &NodeRegistry {
        &self.registry
    }

    /// Mutable access to the registry, for targeted fault injection between
    /// rounds (corruption takes a round to take effect in the paper's model —
    /// callers flip behaviours between rounds, never mid-round).
    pub fn registry_mut(&mut self) -> &mut NodeRegistry {
        &mut self.registry
    }

    /// The global reputation table.
    pub fn reputation(&self) -> &ReputationTable {
        &self.reputation
    }

    /// The block chain built so far.
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// The current round assignment.
    pub fn assignment(&self) -> &RoundAssignment {
        &self.assignment
    }

    /// Reports of all rounds run so far.
    pub fn reports(&self) -> &[RoundReport] {
        &self.reports
    }

    /// Cumulative open-loop traffic statistics (arrival/confirm/censor
    /// counters plus the confirm-latency percentiles), or `None` when the
    /// run is closed-loop.
    pub fn traffic(&self) -> Option<TrafficSnapshot> {
        self.traffic.as_ref().map(|driver| driver.snapshot())
    }

    /// Runs one round and returns its report.
    pub fn run_round(&mut self) -> &RoundReport {
        self.run_round_observed(&mut NoopObserver)
    }

    /// Runs one round with every phase boundary reported to `observer` (see
    /// [`RoundObserver`]); observation never changes protocol output.
    pub fn run_round_observed(&mut self, observer: &mut dyn RoundObserver) -> &RoundReport {
        // Members still `Syncing` from an earlier boundary retry their state
        // sync at each round start (fresh backoff budget, current fault
        // plan); successes turn `Active` before the round's committees
        // convene, and the results fold into the next boundary's transition
        // report.
        if self.config.epoch_length > 0
            && self.registry.count_in_state(MembershipState::Syncing) > 0
        {
            let totals = self.run_sync_sessions();
            self.sync_carry.add(totals);
        }
        // Closed-loop (default): the generator feeds exactly `txs_per_round`
        // fresh transactions. Open-loop: the driver admits queued arrivals up
        // to that capacity and tracks each injected transaction's arrival
        // time for confirm-latency accounting.
        let offered = match &mut self.traffic {
            Some(driver) => {
                let count = driver.begin_round(self.config.txs_per_round);
                let batch = self.workload.generate_batch(count);
                driver.register_batch(&batch);
                batch
            }
            None => self.workload.generate_batch(self.config.txs_per_round),
        };
        let referee = Committee::referee(&self.assignment.referee, &self.registry);
        let env = RoundEnv {
            config: &self.config,
            registry: &self.registry,
            referee: &referee,
            plan: &self.fault_plan,
            round: self.assignment.round,
        };
        let mut ctx = RoundContext::new(
            env,
            &self.assignment,
            &self.executor,
            &self.chain,
            &mut self.utxo_sets,
            &mut self.reputation,
            &mut self.arena,
        );
        ctx.offer(offered);
        run_pipeline_observed(&mut ctx, standard_pipeline(), observer);
        let (block, next_assignment, mut report) = ctx.into_output();
        let mut packed: cycledger_crypto::fxhash::FxHashSet<cycledger_ledger::transaction::TxId> =
            cycledger_crypto::fxhash::FxHashSet::default();
        if let Some(block) = block {
            packed.extend(block.transactions.iter().map(|t| t.id()));
            self.chain
                .append(block)
                .expect("round driver produced a block that does not extend the chain");
        }
        // The block is applied: the outputs of the transactions *in it* are
        // now spendable by the external users feeding the workload. Only
        // packed transactions confirm — a failed committee, a network fault
        // or a round without a block keeps transactions out, and confirming
        // those anyway would have the generator spend outputs that never
        // existed. The rest expire and their inputs return to the users.
        self.workload.confirm_packed(|id| packed.contains(id));
        // Open-loop accounting: close the driver's round window (stretched by
        // any consensus stall) and resolve every in-flight transaction as
        // confirmed (packed) or *censored* (not packed: its inputs were just
        // respent by `confirm_packed`, so it can never confirm later).
        if let Some(driver) = &mut self.traffic {
            report.traffic =
                Some(driver.complete_round(report.timeout_delays_us, |id| packed.contains(id)));
        }
        if let Some(next) = next_assignment {
            self.assignment = next;
        } else {
            // Beacon failure (every referee dealer malicious): reuse the current
            // assignment so the simulation can continue and the failure shows up
            // in the report instead of aborting the run. The sortition proofs
            // stay valid for `sortition_round`, the round they were drawn for.
            self.assignment.round += 1;
        }
        self.reports.push(report);
        self.maybe_close_epoch();
        self.reports.last().expect("just pushed")
    }

    /// One state-sync session per `Syncing` member (in id order), each over a
    /// fresh driven network carrying the current fault plan — partitions and
    /// crashes hit sync traffic exactly like consensus traffic. Members that
    /// verify their chain turn `Active`; the rest stay `Syncing` (abstaining
    /// from votes) and retry next round.
    fn run_sync_sessions(&mut self) -> SyncTotals {
        let syncing: Vec<_> = self
            .registry
            .iter()
            .filter(|n| n.membership == MembershipState::Syncing)
            .map(|n| n.id)
            .collect();
        let mut totals = SyncTotals::default();
        if syncing.is_empty() {
            return totals;
        }
        // Peers are the sitting referee committee — the members whose
        // quorum-certified header chain the syncing node verifies against.
        let peers = self.assignment.referee.clone();
        let sync_config = SyncConfig::from_latency(self.config.latency);
        let tip = self.chain.tip_hash();
        for member in syncing {
            let seed = Task::Sync { member }.seed(self.config.seed, self.reports.len() as u64);
            let mut net = cycledger_net::network::SimNetwork::with_faults(
                self.config.latency,
                seed,
                self.fault_plan.clone(),
            );
            let outcome = run_state_sync(member, &peers, &self.chain, tip, &mut net, &sync_config);
            totals.timeouts += outcome.timeouts;
            totals.chunks += outcome.chunks;
            if outcome.synced {
                self.registry
                    .set_membership(member, MembershipState::Active);
                totals.synced += 1;
            }
        }
        totals
    }

    /// If the round just pushed closed an epoch, runs the transition: the
    /// leave lottery retires validators, joiners enter `Syncing`, state sync
    /// runs for every `Syncing` member, and the committees are reshuffled
    /// with the boundary round's beacon output folded back into the
    /// sortition randomness. The what-happened record is attached to the
    /// boundary round's report.
    fn maybe_close_epoch(&mut self) {
        let Some(schedule) = EpochSchedule::from_config(&self.config) else {
            return;
        };
        let completed = self.reports.len() as u64;
        if !schedule.is_boundary(completed) {
            return;
        }
        let epoch = schedule.epoch_of(completed - 1);
        let params = self.config.assignment_params();
        // The boundary round's PVSS beacon output already seeded the next
        // assignment's randomness; fold it into the epoch derivation so the
        // epoch's committees depend on it ("feed the beacon back in").
        let randomness = epoch::epoch_randomness(epoch, self.assignment.randomness);
        let left = epoch::pick_leavers(&self.registry, params, &schedule, epoch, randomness);
        for &node in &left {
            self.registry.set_membership(node, MembershipState::Left);
        }
        let joined = self.registry.extend(
            schedule.joins_per_epoch as usize,
            self.config.base_compute_capacity,
            self.config.compute_capacity_spread,
            self.config.seed,
        );
        for &node in &joined {
            // Reputation starts from zero for a newly joined node (§VII-A);
            // everyone else's carries over untouched.
            self.reputation.register(node);
        }
        let mut totals = std::mem::take(&mut self.sync_carry);
        totals.add(self.run_sync_sessions());
        // Reshuffle the committees over the surviving population under the
        // epoch randomness. Reputation carry-over means long-standing honest
        // nodes keep their leader eligibility across the boundary.
        let reshuffled = assign_round_on(
            &self.executor,
            &self.registry,
            &self.registry.participating_ids(),
            params,
            self.assignment.round,
            randomness,
            &self.reputation,
        );
        let reshuffled_seats = epoch::seat_changes(&self.assignment, &reshuffled);
        self.assignment = reshuffled;
        let report = self.reports.last_mut().expect("boundary follows a round");
        report.epoch_transition = Some(EpochTransitionReport {
            epoch,
            joined,
            left,
            synced: totals.synced,
            still_syncing: self.registry.count_in_state(MembershipState::Syncing),
            sync_timeouts: totals.timeouts,
            sync_chunks: totals.chunks,
            reshuffled_seats,
        });
    }

    /// Runs `rounds` rounds and returns the aggregate summary.
    pub fn run(&mut self, rounds: usize) -> SimulationSummary {
        self.run_observed(rounds, &mut NoopObserver)
    }

    /// Runs `rounds` rounds with a phase observer attached to every round.
    pub fn run_observed(
        &mut self,
        rounds: usize,
        observer: &mut dyn RoundObserver,
    ) -> SimulationSummary {
        for _ in 0..rounds {
            self.run_round_observed(observer);
        }
        SimulationSummary {
            rounds: self.reports.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryConfig, Behavior};
    use crate::traffic::TrafficConfig;

    fn small_config() -> ProtocolConfig {
        ProtocolConfig {
            committees: 2,
            committee_size: 8,
            partial_set_size: 2,
            referee_size: 5,
            txs_per_round: 60,
            accounts_per_shard: 24,
            cross_shard_ratio: 0.2,
            invalid_ratio: 0.1,
            pow_difficulty: 2,
            ..ProtocolConfig::default()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// `RoundReport::channels` is counted from the assignment; the
        /// topology built as a set is the reference. Sortition sizes
        /// committees unevenly, and the run crosses what produces an
        /// assignment: genesis, the selection phase, and two epoch
        /// reshuffles over a churned membership.
        #[test]
        fn prop_channel_count_matches_the_built_topology(
            committees in 1usize..5,
            committee_size in 4usize..10,
            partial_set_size in 0usize..3,
            referee_size in 3usize..6,
            seed in 0u64..1 << 32,
        ) {
            let config = ProtocolConfig {
                committees,
                committee_size,
                partial_set_size,
                referee_size,
                txs_per_round: 8,
                accounts_per_shard: 8,
                pow_difficulty: 2,
                epoch_length: 2,
                joins_per_epoch: 3,
                leaves_per_epoch: 2,
                worker_threads: 1,
                seed,
                ..ProtocolConfig::default()
            };
            let mut sim = Simulation::new(config).unwrap();
            let mut sizes = std::collections::BTreeSet::new();
            for round in 0..5 {
                let (assignment, nodes) = (sim.assignment(), sim.registry().len());
                let built = assignment.topology(nodes).channels.channel_count();
                proptest::prop_assert_eq!(assignment.channel_count(), built, "round {}", round);
                sizes.extend(assignment.committees.iter().map(|c| c.size()));
                proptest::prop_assert_eq!(sim.run_round().channels, built);
            }
            proptest::prop_assert!(committees == 1 || sizes.len() > 1, "{:?}", sizes);
        }
    }

    #[test]
    fn honest_network_produces_blocks_every_round() {
        let mut sim = Simulation::new(small_config()).unwrap();
        let summary = sim.run(3);
        assert_eq!(summary.num_rounds(), 3);
        assert_eq!(summary.blocks_produced(), 3);
        assert_eq!(summary.total_evictions(), 0);
        assert!(
            summary.mean_acceptance_rate() > 0.9,
            "rate = {}",
            summary.mean_acceptance_rate()
        );
        assert_eq!(sim.chain().height(), 3);
        // Rounds advance and assignments rotate.
        assert_eq!(sim.assignment().round, 3);
    }

    #[test]
    fn adversarial_leaders_are_evicted_and_blocks_still_flow() {
        let mut config = small_config();
        config.adversary = AdversaryConfig::with_behavior(0.25, Behavior::EquivocatingLeader);
        config.seed = 77;
        let mut sim = Simulation::new(config).unwrap();
        // Force the leader of committee 0 in the first round to be an
        // equivocator so at least one eviction is guaranteed.
        let leader = sim.assignment().committees[0].leader;
        sim.registry_mut()
            .set_behavior(leader, Behavior::EquivocatingLeader);
        let summary = sim.run(2);
        assert!(
            summary.total_evictions() >= 1,
            "the equivocating leader must be evicted"
        );
        assert_eq!(
            summary.blocks_produced(),
            2,
            "recovery keeps blocks flowing"
        );
        // The punished leader's reputation is cut to its cube root at every
        // eviction, so it must end strictly below the best honest peer (who
        // accumulated scores unpunished).
        let best_honest = sim
            .registry()
            .ids()
            .iter()
            .filter(|&&n| sim.registry().node(n).is_honest())
            .map(|&n| sim.reputation().get(n))
            .fold(0.0f64, f64::max);
        assert!(
            sim.reputation().get(leader) < best_honest,
            "punished leader ({}) must trail the best honest peer ({best_honest})",
            sim.reputation().get(leader)
        );
    }

    #[test]
    fn reputation_accumulates_for_honest_nodes() {
        let mut sim = Simulation::new(small_config()).unwrap();
        sim.run(2);
        let any_positive = sim
            .registry()
            .ids()
            .iter()
            .any(|&n| sim.reputation().get(n) > 0.5);
        assert!(any_positive, "honest voters must accumulate reputation");
    }

    fn summary_digest(mut config: ProtocolConfig, workers: usize, rounds: usize) -> String {
        config.worker_threads = workers;
        let mut sim = Simulation::new(config).unwrap();
        let summary = sim.run(rounds);
        format!("{:?}", summary.canonical_digest())
    }

    #[test]
    fn a_lone_equivocator_is_evicted_on_its_signed_proposals() {
        // An otherwise honest network: the only accusation is the witness
        // distilled from the leader's two signed PROPOSEs, and the recovery
        // evidence check must accept it.
        let mut sim = Simulation::new(small_config()).unwrap();
        let leader = sim.assignment().committees[0].leader;
        sim.registry_mut()
            .set_behavior(leader, Behavior::EquivocatingLeader);
        let summary = sim.run(2);
        assert!(
            summary.total_evictions() >= 1,
            "equivocator must be evicted"
        );
        assert_eq!(
            summary.blocks_produced(),
            2,
            "recovery keeps blocks flowing"
        );
    }

    #[test]
    fn determinism_same_summary_for_1_2_and_8_workers() {
        // Identical seeds must yield byte-identical summaries regardless of
        // executor width — the engine's core contract. `pipelined` and
        // `verify_signatures` select no code while the fields exist, so they
        // are two more inert inputs.
        let mut config = small_config();
        let baseline = summary_digest(config, 1, 3);
        for (pipelined, verify_signatures) in
            [(false, false), (false, true), (true, false), (true, true)]
        {
            config.pipelined = pipelined;
            config.verify_signatures = verify_signatures;
            for workers in [1, 2, 8] {
                assert_eq!(baseline, summary_digest(config, workers, 3));
            }
        }
        // Inert down to the operation: one worker runs everything inline on
        // this thread, so its tally sees every signature made, verified
        // singly or in a batch, and every memo lookup of the run.
        #[cfg(feature = "opcount")]
        {
            let mut tally = |verify_signatures| {
                config.verify_signatures = verify_signatures;
                cycledger_crypto::opcount::scope(|| summary_digest(config, 1, 3))
            };
            let (off, on) = (tally(false), tally(true));
            assert_eq!(off, on);
            assert!(on.sigs_batched > 0 && on.memo_lookups > 0, "{on:?}");
        }
    }

    #[test]
    fn determinism_holds_under_adversarial_recovery_load() {
        // Recoveries, retries and censorship reports exercise every executor
        // batch type; the digest must still be independent of worker count —
        // every certificate, a retry's included, is admitted from a verdict
        // memo that crossed from the worker that formed it.
        let mut config = small_config();
        config.cross_shard_ratio = 0.4;
        config.adversary = AdversaryConfig::with_behavior(0.3, Behavior::EquivocatingLeader);
        config.seed = 77;
        let baseline = summary_digest(config, 1, 3);
        assert_eq!(baseline, summary_digest(config, 2, 3));
        assert_eq!(baseline, summary_digest(config, 8, 3));
    }

    #[test]
    fn smt_backend_extends_but_never_perturbs_the_map_digest() {
        // The authenticated backend must make identical validation decisions
        // to the flat map: round for round, its canonical bytes are exactly
        // the map run's bytes plus the tagged state-root extension block.
        let mut config = small_config();
        let mut map_sim = Simulation::new(config).unwrap();
        let map_summary = map_sim.run(3);
        config.state_backend = cycledger_ledger::StateBackend::Smt;
        let mut smt_sim = Simulation::new(config).unwrap();
        let smt_summary = smt_sim.run(3);

        let m = config.committees;
        let encode = |r: &crate::report::RoundReport| {
            let mut bytes = Vec::new();
            r.write_canonical_bytes(&mut bytes);
            bytes
        };
        for (map_round, smt_round) in map_summary.rounds.iter().zip(&smt_summary.rounds) {
            assert!(map_round.state_roots.is_empty());
            assert_eq!(
                smt_round.state_roots.len(),
                m,
                "one root per shard per round"
            );
            let map_bytes = encode(map_round);
            let smt_bytes = encode(smt_round);
            assert_eq!(
                &smt_bytes[..map_bytes.len()],
                &map_bytes[..],
                "round {} diverged beyond the extension block",
                map_round.round
            );
            assert_eq!(smt_bytes.len(), map_bytes.len() + 1 + 8 + m * 32);
        }

        // Rounds with different packed transactions commit different roots.
        assert_ne!(
            smt_summary.rounds[0].state_roots,
            smt_summary.rounds[2].state_roots
        );
    }

    #[test]
    fn smt_backend_digest_is_schedule_independent() {
        // Worker width must not move the state roots.
        let mut config = small_config();
        config.state_backend = cycledger_ledger::StateBackend::Smt;
        let baseline = summary_digest(config, 1, 3);
        assert_eq!(baseline, summary_digest(config, 2, 3));
        assert_eq!(baseline, summary_digest(config, 8, 3));
    }

    #[test]
    fn smt_backend_roots_prove_committed_utxos() {
        // Every UTXO a shard holds after the run must carry an inclusion
        // proof against that shard's last committed root, and absent
        // outpoints an exclusion proof — the light-client contract.
        let mut config = small_config();
        config.state_backend = cycledger_ledger::StateBackend::Smt;
        let mut sim = Simulation::new(config).unwrap();
        let summary = sim.run(2);
        let last_roots = summary.rounds.last().unwrap().state_roots.clone();
        for (shard, set) in sim.utxo_sets().iter().enumerate() {
            let root = last_roots[shard];
            assert_eq!(set.state_root(), Some(root));
            assert_eq!(set.root_at_round(1), Some(root));
            for outpoint in set.sorted_outpoints().iter().take(8) {
                let key = cycledger_ledger::smt::key_digest(outpoint);
                let proof = set.prove(outpoint).expect("authenticated backend");
                assert_eq!(
                    cycledger_crypto::verify_proof(&root, &key, &proof),
                    Ok(()),
                    "inclusion proof failed for shard {shard}"
                );
            }
            let absent = cycledger_ledger::OutPoint {
                tx_id: cycledger_crypto::sha256::sha256(b"never-credited"),
                index: 0,
            };
            let proof = set.prove(&absent).unwrap();
            let key = cycledger_ledger::smt::key_digest(&absent);
            assert_eq!(cycledger_crypto::verify_proof(&root, &key, &proof), Ok(()));
        }
    }

    #[test]
    fn determinism_digest_differs_across_seeds() {
        let mut config = small_config();
        let a = summary_digest(config, 2, 2);
        config.seed = 4242;
        let b = summary_digest(config, 2, 2);
        assert_ne!(a, b, "the digest must actually depend on the run");
    }

    #[test]
    fn round_survives_recovery_draining_the_partial_set() {
        // Regression for the seed's `partial_set[0]` panic: a mismatched-
        // commitment leader is impeached during the semi-commitment phase,
        // which promotes the committee's only partial-set member to leader
        // and leaves the partial set empty. Adversarial common members then
        // keep Algorithm 3 from certifying, so the intra phase wants a second
        // recovery — and there is nobody left to prosecute. The seed indexed
        // an empty `partial_set` here and panicked; the engine records a
        // skipped recovery and finishes the round.
        let mut config = small_config();
        config.partial_set_size = 1;
        config.cross_shard_ratio = 0.0;
        config.invalid_ratio = 0.0;
        let mut sim = Simulation::new(config).unwrap();
        let committee0 = sim.assignment().committees[0].clone();
        sim.registry_mut()
            .set_behavior(committee0.leader, Behavior::MismatchedCommitment);
        let commons: Vec<_> = committee0
            .members
            .iter()
            .copied()
            .filter(|&m| m != committee0.leader && !committee0.partial_set.contains(&m))
            .collect();
        for &m in commons.iter().take(4) {
            sim.registry_mut().set_behavior(m, Behavior::WrongVoter);
        }
        let summary = sim.run(2);
        assert_eq!(summary.num_rounds(), 2);
        assert!(
            summary.total_skipped_recoveries() >= 1,
            "the drained partial set must surface as a skipped recovery"
        );
        assert!(
            summary.total_evictions() >= 1,
            "the mismatched-commitment leader is still evicted first"
        );
        assert!(
            summary.blocks_produced() >= 1,
            "other committees keep the chain moving"
        );
    }

    fn epoch_config() -> ProtocolConfig {
        ProtocolConfig {
            epoch_length: 2,
            joins_per_epoch: 2,
            leaves_per_epoch: 1,
            ..small_config()
        }
    }

    #[test]
    fn epoch_transitions_churn_the_validator_set() {
        let mut sim = Simulation::new(epoch_config()).unwrap();
        let initial_nodes = sim.registry().len();
        let summary = sim.run(6);
        // Boundaries after rounds 2, 4 and 6.
        assert_eq!(summary.total_epoch_transitions(), 3);
        assert_eq!(
            sim.registry().len(),
            initial_nodes + 6,
            "2 joiners per epoch"
        );
        let left = sim.registry().count_in_state(MembershipState::Left);
        assert_eq!(left, 3, "1 leaver per epoch");
        // No faults: every joiner syncs at its admission boundary.
        assert_eq!(summary.total_synced(), 6);
        assert_eq!(sim.registry().count_in_state(MembershipState::Syncing), 0);
        assert_eq!(summary.total_sync_timeouts(), 0);
        // The chain never skips or forks a round.
        assert_eq!(summary.blocks_produced(), 6);
        assert_eq!(sim.chain().height(), 6);
        // The reshuffle actually moved seats and is recorded.
        let boundary = summary.rounds[1]
            .epoch_transition
            .as_ref()
            .expect("round 1 closes epoch 0");
        assert_eq!(boundary.epoch, 0);
        assert_eq!(boundary.joined.len(), 2);
        assert_eq!(boundary.left.len(), 1);
        assert!(boundary.reshuffled_seats > 0, "epoch randomness reshuffles");
        // Non-boundary rounds carry no transition.
        assert!(summary.rounds[0].epoch_transition.is_none());
        assert!(summary.rounds[2].epoch_transition.is_none());
    }

    #[test]
    fn epoch_runs_are_deterministic_across_worker_counts_on_both_planes() {
        // The sortition, proof-verification and score-certification batches
        // all do real work, on either plane and through the boundary
        // reshuffles after rounds 2 and 4 (with `Syncing` joiners in the
        // mapped sortition list).
        for message_driven in [false, true] {
            let config = ProtocolConfig {
                message_driven,
                ..epoch_config()
            };
            let baseline = summary_digest(config, 1, 5);
            for workers in [2, 8] {
                assert_eq!(
                    baseline,
                    summary_digest(config, workers, 5),
                    "message_driven={message_driven}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn a_reused_assignment_keeps_its_sortition_proofs_verifiable() {
        // Every referee dealer corrupt: the beacon fails each round, so the
        // genesis assignment is reused with only `round` bumped. Its proofs
        // were drawn for round 0 and must keep verifying against that round
        // (the configuration phase debug-asserts no rejection), so every
        // common member keeps its seat.
        let mut sim = Simulation::new(small_config()).unwrap();
        let genesis = sim.assignment.clone();
        for &member in &genesis.referee {
            sim.registry.set_behavior(member, Behavior::LazyVoter);
        }
        let summary = sim.run(3);
        // A fully lazy referee committee certifies no block either.
        assert_eq!(summary.blocks_produced(), 0);
        assert_eq!(sim.assignment.round, genesis.round + 3);
        assert_eq!(sim.assignment.sortition_round, genesis.round);
        assert_eq!(sim.assignment.sortition_proofs, genesis.sortition_proofs);
        let env = RoundEnv {
            config: &sim.config,
            registry: &sim.registry,
            referee: &Committee::referee(&sim.assignment.referee, &sim.registry),
            plan: &sim.fault_plan,
            round: sim.assignment.round,
        };
        let outcome = crate::phases::configuration::run_committee_configuration(
            &env,
            &sim.executor,
            &sim.assignment,
            &mut cycledger_net::metrics::MetricsSink::new(),
        );
        assert!(outcome.rejected.is_empty(), "{:?}", outcome.rejected);
        assert_eq!(outcome.verified_members, genesis.sortition_proofs.len());
    }

    #[test]
    fn a_rejected_sortition_claim_loses_its_seat_before_the_vote() {
        use crate::engine::pipeline;
        use crate::phases::configuration::run_committee_configuration;

        let mut sim = Simulation::new(small_config()).unwrap();
        // Another node's proof under the victim's name: fails verification.
        let victim = sim.assignment.sortition_proofs[0].0;
        sim.assignment.sortition_proofs[0].1 = sim.assignment.sortition_proofs[1].1;
        let home = sim
            .assignment
            .committees
            .iter()
            .position(|c| c.members.contains(&victim))
            .unwrap();
        let seats = sim.assignment.committees[home].size();
        let offered = sim.workload.generate_batch(sim.config.txs_per_round);
        let referee = Committee::referee(&sim.assignment.referee, &sim.registry);
        let env = RoundEnv {
            config: &sim.config,
            registry: &sim.registry,
            referee: &referee,
            plan: &sim.fault_plan,
            round: sim.assignment.round,
        };
        let mut ctx = RoundContext::new(
            env,
            &sim.assignment,
            &sim.executor,
            &sim.chain,
            &mut sim.utxo_sets,
            &mut sim.reputation,
            &mut sim.arena,
        );
        ctx.offer(offered);
        let outcome = run_committee_configuration(
            &ctx.env,
            ctx.executor,
            ctx.assignment,
            &mut ctx.books.metrics,
        );
        assert_eq!(outcome.rejected, vec![(home, victim)]);
        ctx.apply_configuration(outcome);
        assert_eq!(ctx.configuration.as_ref().unwrap().rejected.len(), 1);
        assert!(!ctx.committees[home].contains(victim));
        assert_eq!(ctx.committees[home].size(), seats - 1);
        assert_eq!(ctx.committees[home].keys.len(), seats - 1);

        pipeline::intra_consensus(&mut ctx);
        let outcome = &ctx.intra_outcomes[home];
        assert!(outcome.certificate.is_some(), "the rest still certify");
        assert_eq!(outcome.vote_list.votes.len(), seats - 1);
        assert!(outcome.vote_list.votes.iter().all(|v| v.voter != victim));
    }

    #[test]
    fn epoch_transition_reaches_the_canonical_digest() {
        let mut without = epoch_config();
        without.epoch_length = 0;
        without.joins_per_epoch = 0;
        without.leaves_per_epoch = 0;
        assert_ne!(
            summary_digest(epoch_config(), 1, 3),
            summary_digest(without, 1, 3),
            "churn must be digest-relevant"
        );
    }

    #[test]
    fn disabled_epochs_leave_reports_untouched() {
        let mut sim = Simulation::new(small_config()).unwrap();
        let summary = sim.run(3);
        assert!(summary.rounds.iter().all(|r| r.epoch_transition.is_none()));
        assert_eq!(summary.total_syncing_abstentions(), 0);
        assert_eq!(
            sim.registry().count_in_state(MembershipState::Active),
            sim.registry().len()
        );
    }

    #[test]
    fn partitioned_joiners_stay_syncing_and_abstain_without_voting() {
        // Joiner ids are predictable (they continue the index sequence), so
        // the fault plan can partition them away before they are admitted:
        // their state sync times out at every attempt, they stay `Syncing`
        // across the remaining rounds, and in driven mode their TXList slots
        // show up as abstentions — never as votes.
        let mut config = epoch_config();
        config.message_driven = true;
        config.leaves_per_epoch = 0;
        let initial_nodes = config.total_nodes() as u32;
        let mut sim = Simulation::new(config).unwrap();
        // Both boundaries' joiners (two per epoch, ids continuing the index
        // sequence) are cut off.
        let joiners: Vec<_> = (initial_nodes..initial_nodes + 4)
            .map(cycledger_net::topology::NodeId)
            .collect();
        sim.set_fault_plan(cycledger_net::faults::FaultPlan::partition(joiners));
        let summary = sim.run(5);
        assert_eq!(summary.total_synced(), 0, "partitioned sync cannot finish");
        assert!(summary.total_sync_timeouts() > 0);
        assert_eq!(
            sim.registry().count_in_state(MembershipState::Syncing),
            4,
            "both epochs' joiners are still catching up"
        );
        assert_eq!(
            summary.total_syncing_votes(),
            0,
            "a Syncing member must never cast a vote"
        );
        assert_eq!(summary.blocks_produced(), 5, "quorum math is unbroken");
        assert_eq!(
            sim.chain().height(),
            5,
            "no double-commit, no skipped round"
        );
    }

    #[test]
    fn syncing_members_abstain_in_driven_rounds() {
        // A member flipped to `Syncing` mid-epoch (as a restart would) still
        // receives its TXList but deliberately abstains; the slot counts
        // `Unknown` and consensus proceeds.
        let mut config = small_config();
        config.message_driven = true;
        let mut sim = Simulation::new(config).unwrap();
        let commons = sim.assignment().committees[0].common_members().to_vec();
        let member = commons[0];
        sim.registry_mut()
            .set_membership(member, MembershipState::Syncing);
        let summary = sim.run(1);
        assert!(
            summary.total_syncing_abstentions() > 0,
            "the Syncing member's TXList reply must be withheld"
        );
        assert_eq!(summary.total_syncing_votes(), 0);
        assert_eq!(summary.blocks_produced(), 1);
    }

    #[test]
    fn executor_is_persistent_across_rounds() {
        let mut config = small_config();
        config.worker_threads = 2;
        let mut sim = Simulation::new(config).unwrap();
        assert_eq!(sim.executor().worker_count(), 2);
        sim.run(2);
        let batches = sim.executor().batches_executed();
        // At least intra + block-apply batches for each of the two rounds,
        // all through the one persistent pool.
        assert!(
            batches >= 4,
            "expected >= 4 executor batches, got {batches}"
        );
    }

    #[test]
    fn channel_burden_is_below_full_clique_even_at_toy_scale() {
        // The asymptotic advantage (Table I) shows up at scale; even at this toy
        // size CycLedger's topology needs strictly fewer channels than a clique
        // over all nodes, and the gap is measured precisely by the Table I bench.
        let mut sim = Simulation::new(small_config()).unwrap();
        let report = sim.run_round().clone();
        assert!(report.channels < report.full_clique_channels);
        assert!(report.block_produced);
        assert!(report.txs_packed > 0);
    }

    fn traffic_config(rate_tps: f64) -> ProtocolConfig {
        ProtocolConfig {
            traffic: Some(TrafficConfig {
                rate_tps,
                shape: crate::traffic::ArrivalShape::Constant,
                warmup_rounds: 1,
            }),
            ..small_config()
        }
    }

    #[test]
    fn open_loop_drive_tracks_confirm_latency() {
        // 20 tps against a 50 tps capacity (60 tx / 1.2 s): the backlog stays
        // bounded, every injected transaction resolves the round it enters,
        // and confirm latencies stay within one round window.
        let mut sim = Simulation::new(traffic_config(20.0)).unwrap();
        sim.run(6);
        let snapshot = sim.traffic().expect("open-loop run has a snapshot");
        assert_eq!(
            snapshot.censored, 0,
            "an honest fault-free run packs everything"
        );
        assert!(snapshot.rejected_invalid > 0, "invalid_ratio 0.1 must show");
        assert_eq!(
            snapshot.injected,
            snapshot.confirmed + snapshot.rejected_invalid,
            "every injected transaction resolves in its round"
        );
        assert!(snapshot.samples > 0, "post-warmup confirmations recorded");
        assert!(snapshot.p50_us > 0);
        assert!(snapshot.p50_us <= snapshot.p99_us);
        assert!(snapshot.p99_us <= snapshot.p999_us);
        assert!(snapshot.p999_us <= snapshot.max_us);
        // Sustained throughput tracks the offered valid rate (~18 tps).
        let sustained = snapshot.sustained_tps();
        assert!(
            (15.0..21.0).contains(&sustained),
            "sustained {sustained} tps should track the offered 20 tps"
        );
        for report in sim.reports() {
            let traffic = report.traffic.expect("every round carries traffic");
            assert!(
                traffic.max_latency_us <= traffic.round_duration_us,
                "under-capacity confirmations happen within their round"
            );
        }
    }

    #[test]
    fn overload_builds_backlog_and_latency_diverges() {
        // 200 tps against the same 50 tps capacity: the backlog must grow
        // monotonically and confirm latency must exceed a round window.
        let mut sim = Simulation::new(traffic_config(200.0)).unwrap();
        sim.run(6);
        let snapshot = sim.traffic().unwrap();
        assert!(snapshot.backlog > 0, "saturated run must queue arrivals");
        let backlogs: Vec<_> = sim
            .reports()
            .iter()
            .map(|r| r.traffic.unwrap().backlog)
            .collect();
        assert!(
            backlogs.windows(2).all(|w| w[0] <= w[1]),
            "backlog must be non-decreasing at 4x capacity: {backlogs:?}"
        );
        assert!(
            snapshot.p99_us > 1_200_000,
            "saturated p99 ({} µs) must exceed one nominal round",
            snapshot.p99_us
        );
        assert!(
            snapshot.p99_delta() > 24.0,
            "p99 beyond 24Δ marks saturation"
        );
    }

    #[test]
    fn open_loop_runs_are_deterministic_across_worker_counts() {
        let config = traffic_config(80.0);
        let baseline = summary_digest(config, 1, 4);
        assert_eq!(baseline, summary_digest(config, 2, 4));
        assert_eq!(baseline, summary_digest(config, 8, 4));
    }

    #[test]
    fn closed_loop_reports_carry_no_traffic_block() {
        let mut sim = Simulation::new(small_config()).unwrap();
        sim.run(2);
        assert!(sim.traffic().is_none());
        assert!(sim.reports().iter().all(|r| r.traffic.is_none()));
    }

    #[test]
    fn driven_faults_censor_expired_transactions() {
        // A partition severs four of committee 0's five common members for
        // the first two rounds: its votes fall below the strict majority, its
        // transactions never reach the block, and the workload respends their
        // inputs. The open-loop driver must record those as *censored* — a
        // counted, canonical-bytes-relevant outcome — not silently drop them
        // from the latency accounting.
        let mut config = small_config();
        config.message_driven = true;
        config.invalid_ratio = 0.0;
        config.traffic = Some(TrafficConfig {
            rate_tps: 40.0,
            shape: crate::traffic::ArrivalShape::Constant,
            warmup_rounds: 0,
        });
        let mut sim = Simulation::new(config).unwrap();
        let committee = sim.assignment().committees[0].clone();
        let commons: Vec<_> = committee
            .members
            .iter()
            .copied()
            .filter(|&n| n != committee.leader && !committee.partial_set.contains(&n))
            .take(4)
            .collect();
        sim.set_fault_plan(cycledger_net::faults::FaultPlan::partition(commons));
        sim.run_round();
        sim.run_round();
        sim.set_fault_plan(cycledger_net::faults::FaultPlan::default());
        sim.run_round();
        let snapshot = sim.traffic().unwrap();
        assert!(
            snapshot.censored > 0,
            "the partitioned committee's transactions must resolve as censored"
        );
        assert!(
            snapshot.confirmed > 0,
            "the healthy committee still confirms"
        );
        assert_eq!(
            snapshot.injected,
            snapshot.confirmed + snapshot.censored + snapshot.rejected_invalid,
            "censoring must never lose a transaction from the accounting"
        );
        // Per-round attribution: at least one partitioned round carries a
        // nonzero censored count in its traffic block.
        assert!(
            sim.reports()[..2]
                .iter()
                .any(|r| r.traffic.unwrap().censored > 0),
            "censoring must be attributed to the partitioned rounds"
        );
        assert!(sim.reports()[0].quorum_timeouts > 0, "partition really bit");
    }

    #[test]
    fn a_round_without_a_block_confirms_nothing() {
        // A fully lazy referee committee certifies no block (and no beacon,
        // so the assignment is reused): nothing was packed, so nothing may
        // be reported confirmed and the generator may not spend outputs that
        // never existed — on either setting of the flag.
        for message_driven in [false, true] {
            let mut sim = Simulation::new(ProtocolConfig {
                message_driven,
                ..traffic_config(20.0)
            })
            .unwrap();
            for member in sim.assignment.referee.clone() {
                sim.registry.set_behavior(member, Behavior::LazyVoter);
            }
            let summary = sim.run(2);
            assert_eq!(summary.blocks_produced(), 0);
            let snapshot = sim.traffic().unwrap();
            assert_eq!(snapshot.confirmed, 0, "message_driven={message_driven}");
            assert!(snapshot.censored > 0);
            assert_eq!(
                snapshot.injected,
                snapshot.censored + snapshot.rejected_invalid
            );
        }
    }

    #[test]
    fn a_censoring_leader_is_reported_charged_and_impeached_once_per_round() {
        // Four committees, mostly cross-shard traffic: the censoring leader
        // withholds lists for three destinations, which is still one
        // takeover — one report, one 2Γ stall, one impeachment attempt.
        let config = ProtocolConfig {
            committees: 4,
            cross_shard_ratio: 0.8,
            txs_per_round: 120,
            ..small_config()
        };
        for message_driven in [false, true] {
            let mut sim = Simulation::new(ProtocolConfig {
                message_driven,
                ..config
            })
            .unwrap();
            let leader = sim.assignment().committees[0].leader;
            sim.registry_mut()
                .set_behavior(leader, Behavior::CensoringLeader);
            let report = sim.run_round().clone();
            assert_eq!(report.censorship_reports, 1);
            assert_eq!(
                report.timeout_delays_us,
                2 * config.latency.gamma.as_micros()
            );
            assert_eq!(report.recovery_log.len(), 1);
            assert_eq!(report.evicted_leaders, vec![(0, leader)]);
            assert_eq!(report.list_timeouts, 0);
        }
    }

    #[test]
    fn censorship_recovery_stall_stretches_the_traffic_window() {
        // A censoring leader forces the 2Γ concealment-recovery timers
        // (`timeout_delays_us`); the open-loop driver must stretch that
        // round's virtual window by exactly the stall, delaying every later
        // arrival's confirmation.
        let mut sim = Simulation::new(traffic_config(20.0)).unwrap();
        let leader = sim.assignment().committees[0].leader;
        sim.registry_mut()
            .set_behavior(leader, Behavior::CensoringLeader);
        let report = sim.run_round().clone();
        assert!(report.timeout_delays_us > 0, "recovery timers must run");
        let traffic = report.traffic.expect("open-loop round");
        assert_eq!(
            traffic.round_duration_us,
            1_200_000 + report.timeout_delays_us,
            "the stall extends the nominal 1.2 s window one-for-one"
        );
    }
}
