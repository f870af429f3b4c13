//! Scalability sweep: grow the number of committees at fixed committee size and
//! watch throughput grow quasi-linearly with `n` (§III-D "Scalability").
//!
//! ```text
//! cargo run --release --example scalability_sweep
//! ```

use cycledger::protocol::{ProtocolConfig, Simulation};

fn main() {
    println!("committees |   n  | offered | packed/round | packed per committee");
    println!("-----------+------+---------+--------------+---------------------");
    let committee_size = 8;
    for committees in [2usize, 3, 4, 6, 8] {
        let config = ProtocolConfig {
            committees,
            committee_size,
            partial_set_size: 2,
            referee_size: 5,
            // Offered load scales with the number of shards, as in the paper's
            // model of external users spread uniformly over shards.
            txs_per_round: 60 * committees,
            cross_shard_ratio: 0.15,
            invalid_ratio: 0.0,
            accounts_per_shard: 48,
            pow_difficulty: 2,
            seed: 31,
            ..ProtocolConfig::default()
        };
        let n = config.ordinary_nodes();
        let mut sim = Simulation::new(config).expect("valid configuration");
        let summary = sim.run(2);
        let throughput = summary.mean_throughput();
        println!(
            "{committees:>10} | {n:>4} | {:>7} | {throughput:>12.1} | {:>20.1}",
            60 * committees,
            throughput / committees as f64
        );
    }
    println!(
        "\nThroughput grows with the number of committees while the per-committee work stays\n\
         flat — the scale-out property sharding is meant to deliver (Table I, complexity row)."
    );
}
