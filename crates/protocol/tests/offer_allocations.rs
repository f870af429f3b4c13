//! Classifying a round's offered transactions (`RoundContext::offer`) and
//! the referee's re-validation of them (`UtxoOverlay`) allocate nothing per
//! transaction. The binary installs the counting allocator, whose counters
//! are global, so it holds this one test alone; the workloads that generate
//! the batches are dropped (their helper threads joined) before counting.

use cycledger_ledger::utxo::UtxoOverlay;
use cycledger_ledger::workload::{GeneratedTx, Workload, WorkloadConfig};
use cycledger_net::faults::FaultPlan;
use cycledger_protocol::engine::{RoundArena, RoundEnv};
use cycledger_protocol::{Committee, ProtocolConfig, RoundContext, Simulation};

#[global_allocator]
static ALLOC: alloccount::CountingAllocator = alloccount::CountingAllocator;

fn config() -> ProtocolConfig {
    ProtocolConfig {
        committees: 4,
        committee_size: 8,
        partial_set_size: 2,
        referee_size: 5,
        accounts_per_shard: 64,
        cross_shard_ratio: 0.3,
        invalid_ratio: 0.05,
        pow_difficulty: 2,
        worker_threads: 1,
        ..ProtocolConfig::default()
    }
}

fn batch(config: &ProtocolConfig, seed: u64, count: usize) -> Vec<GeneratedTx> {
    let mut workload = Workload::new(WorkloadConfig {
        num_shards: config.committees,
        accounts_per_shard: config.accounts_per_shard,
        genesis_amount: 1_000,
        cross_shard_ratio: config.cross_shard_ratio,
        invalid_ratio: config.invalid_ratio,
        seed,
    });
    workload.generate_batch(count)
}

#[test]
fn offering_and_revalidating_a_batch_allocates_nothing_per_transaction() {
    assert!(alloccount::counting_enabled());
    let config = config();
    let sim = Simulation::new(config).unwrap();
    let referee = Committee::referee(&sim.assignment().referee, sim.registry());
    let plan = FaultPlan::default();
    let env = RoundEnv {
        config: sim.config(),
        registry: sim.registry(),
        referee: &referee,
        plan: &plan,
        round: sim.assignment().round,
    };
    let mut sets = sim.utxo_sets().to_vec();
    let mut reputation = sim.reputation().clone();
    let mut arena = RoundArena::new();
    let mut overlay = UtxoOverlay::new();

    // The first size warms this thread's shard-key memo; the next two are
    // pinned: one allocation per list the offer fills, whatever the size.
    for (seed, count) in [(1, 400), (2, 40), (3, 400)] {
        let offered = batch(&config, seed, count);
        let mut ctx = RoundContext::new(
            env,
            sim.assignment(),
            sim.executor(),
            sim.chain(),
            &mut sets,
            &mut reputation,
            &mut arena,
        );
        let before = alloccount::snapshot();
        ctx.offer(offered);
        let offer = alloccount::snapshot().since(&before);
        let lists = ctx.intra_per_shard.iter().filter(|l| !l.is_empty()).count()
            + usize::from(!ctx.cross_shard.is_empty());

        // The referee's pass over the same batch, once to size the overlay's
        // tables and once counted.
        let offered: Vec<&GeneratedTx> = ctx
            .intra_per_shard
            .iter()
            .flatten()
            .chain(&ctx.cross_shard)
            .collect();
        let revalidate = |overlay: &mut UtxoOverlay| {
            overlay.clear();
            for gen in &offered {
                if overlay.validate_across(&gen.tx, ctx.utxo_sets).is_ok() {
                    overlay.apply(&gen.tx);
                }
            }
        };
        revalidate(&mut overlay);
        let before = alloccount::snapshot();
        revalidate(&mut overlay);
        let revalidation = alloccount::snapshot().since(&before);

        if seed == 1 {
            continue;
        }
        assert_eq!(offer.allocations, lists as u64, "offer of {count}");
        assert_eq!(revalidation.allocations, 0, "re-validation of {count}");
        assert_eq!(revalidation.reallocations, 0, "re-validation of {count}");
    }
}
