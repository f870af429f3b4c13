//! # cycledger-bench
//!
//! The benchmark and experiment harness: one generator binary per table/figure
//! of the paper plus Criterion benches. The binaries print the same rows/series
//! the paper reports; `docs/benchmarks.md` indexes the committed baselines
//! and what regenerates each.
//!
//! Binaries (run with `cargo run --release -p cycledger-bench --bin <name>`):
//!
//! * `gen_table1` — protocol comparison (Table I).
//! * `gen_table2` — per-phase, per-role complexity measured on the simulator
//!   (Table II).
//! * `gen_fig4` — the reward-mapping function `g(x)` (Fig. 4).
//! * `gen_fig5` — committee-sampling failure probability (Fig. 5) plus the
//!   partial-set bound (§V-C).
//! * `gen_scalability` — throughput vs. number of committees (§III-D).
//! * `gen_recovery` — throughput with dishonest leaders, with and without the
//!   recovery procedure (Table I "High Efficiency w.r.t Dishonest Leaders").
//! * `gen_incentive` — reputation and reward split by behaviour (§VII).

#![warn(missing_docs)]

use cycledger_consensus::{Alg3Message, ConsensusId};
use cycledger_net::latency::LatencyConfig;
use cycledger_net::network::SimNetwork;
use cycledger_protocol::committee::run_inside_consensus;
use cycledger_protocol::{
    AdversaryConfig, Behavior, Committee, InsideConsensusOutcome, LeaderFault, NodeRegistry,
    ProtocolConfig, Simulation,
};

/// Builds a simulation configuration sized for benchmarking: small PoW
/// difficulty, fifty transactions per committee. The figure and table
/// generators, the virtual-time latency sweep and the tracked wall-clock
/// series (`gen_bench_round`) all run it with every signature made and
/// verified — there is no other way to run a round.
pub fn bench_config(committees: usize, committee_size: usize, seed: u64) -> ProtocolConfig {
    ProtocolConfig {
        committees,
        committee_size,
        partial_set_size: (committee_size / 4).max(2),
        referee_size: 7,
        txs_per_round: 50 * committees,
        cross_shard_ratio: 0.2,
        invalid_ratio: 0.05,
        accounts_per_shard: 96,
        pow_difficulty: 2,
        seed,
        ..ProtocolConfig::default()
    }
}

/// One Algorithm 3 instance to time — the unit of work every phase of a
/// round repeats: an all-honest committee of `committee_size` certifies a
/// list of 100 transaction ids over the simulated network, every signature
/// made and verified. Each call of the returned closure is a fresh instance
/// (its own network, sequence number and verification memo).
pub fn alg3_instance(committee_size: usize) -> impl FnMut() -> InsideConsensusOutcome {
    let registry =
        NodeRegistry::generate(committee_size, &AdversaryConfig::default(), 100, 0, 4242);
    let members = registry.ids();
    let committee = Committee {
        index: 0,
        leader: members[0],
        partial_set: members[1..=(committee_size / 4).max(2)].to_vec(),
        keys: registry.committee_keys(&members),
        members,
    };
    let payload = vec![0xA5u8; 32 * 100];
    let mut seq = 0;
    move || {
        seq += 1;
        let mut net: SimNetwork<Alg3Message> = SimNetwork::new(LatencyConfig::default(), 4242);
        let outcome = run_inside_consensus(
            &mut net,
            &committee,
            &registry,
            ConsensusId { round: 0, seq },
            payload.clone(),
            LeaderFault::None,
            true,
        );
        assert!(outcome.certificate.is_some(), "honest instance certifies");
        outcome
    }
}

/// Runs a short simulation and returns mean transactions packed per round.
pub fn measure_throughput(config: ProtocolConfig, rounds: usize) -> f64 {
    let mut sim = Simulation::new(config).expect("valid bench configuration");
    sim.run(rounds).mean_throughput()
}

/// Runs a short simulation with a given fraction of leader-targeted adversaries
/// and returns `(mean throughput, total evictions, blocks produced)`.
pub fn measure_adversarial(
    mut config: ProtocolConfig,
    fraction: f64,
    behavior: Behavior,
    rounds: usize,
) -> (f64, usize, usize) {
    config.adversary = AdversaryConfig::with_behavior(fraction, behavior);
    let mut sim = Simulation::new(config).expect("valid bench configuration");
    let summary = sim.run(rounds);
    (
        summary.mean_throughput(),
        summary.total_evictions(),
        summary.blocks_produced(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_valid() {
        for (m, c) in [(2usize, 8usize), (4, 12), (8, 16)] {
            assert_eq!(bench_config(m, c, 1).validate(), Ok(()), "m={m} c={c}");
        }
    }

    #[test]
    fn alg3_instance_certifies_every_time() {
        let mut instance = alg3_instance(8);
        let first = instance();
        let second = instance();
        assert_eq!(first.messages, second.messages);
        assert_ne!(first.certificate, second.certificate, "a new (r, sn)");
    }

    #[test]
    fn throughput_measurement_runs() {
        let mut cfg = bench_config(2, 8, 3);
        cfg.txs_per_round = 40;
        let tput = measure_throughput(cfg, 1);
        assert!(tput > 0.0);
    }
}
