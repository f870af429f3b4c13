//! # cycledger-bench
//!
//! The benchmark and experiment harness: one generator binary per table/figure
//! of the paper, and one per committed `BENCH_*.json` baseline. The binaries
//! print the same rows/series the paper reports; `docs/benchmarks.md` indexes
//! the committed baselines and what regenerates each. The `gen_bench_*`
//! binaries print through [`Json`] and read their flags with [`Args`].
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

use std::fmt;

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

/// A committee geometry of the tracked generators, as `--config` names it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of committees.
    pub committees: usize,
    /// Members per committee.
    pub committee_size: usize,
}

impl Geometry {
    /// `8x16`, the tracked configuration and the default.
    pub const TRACKED: Geometry = Geometry {
        committees: 8,
        committee_size: 16,
    };
    /// `64x32`, the large-scale profile.
    pub const LARGE: Geometry = Geometry {
        committees: 64,
        committee_size: 32,
    };

    /// [`bench_config`] at this geometry, seed 4242.
    pub fn config(self) -> ProtocolConfig {
        bench_config(self.committees, self.committee_size, 4242)
    }
}

/// A flag a generator binary may take.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--smoke`: the short run `scripts/perf_gate.py` gates.
    Smoke,
    /// `--config 8x16|64x32`: the committee geometry.
    Config,
}

/// What a generator binary was asked to run.
pub struct Args {
    /// `--smoke` was given.
    pub smoke: bool,
    /// `--config`'s geometry, [`Geometry::TRACKED`] without it.
    pub geometry: Geometry,
}

impl Args {
    /// Reads the process arguments of `binary`, which takes the flags in
    /// `takes`. Any other argument, or a `--config` naming no geometry,
    /// prints the binary's usage line and exits with status 2.
    pub fn parse(binary: &str, takes: &[Flag]) -> Args {
        let usage = || -> ! {
            let flags: Vec<&str> = takes
                .iter()
                .map(|flag| match flag {
                    Flag::Smoke => "[--smoke]",
                    Flag::Config => "[--config 8x16|64x32]",
                })
                .collect();
            eprintln!("usage: {binary} {}", flags.join(" "));
            std::process::exit(2);
        };
        let mut args = Args {
            smoke: false,
            geometry: Geometry::TRACKED,
        };
        let mut argv = std::env::args().skip(1);
        while let Some(arg) = argv.next() {
            match arg.as_str() {
                "--smoke" if takes.contains(&Flag::Smoke) => args.smoke = true,
                "--config" if takes.contains(&Flag::Config) => {
                    args.geometry = match argv.next().as_deref() {
                        Some("8x16") => Geometry::TRACKED,
                        Some("64x32") => Geometry::LARGE,
                        _ => usage(),
                    }
                }
                _ => usage(),
            }
        }
        args
    }
}

/// A JSON document as the `gen_bench_*` binaries print it: one entry per
/// line, two spaces of indent per level, commas placed by the writer.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A number printed with the given count of decimal places.
    Num(f64, usize),
    /// An integer.
    Int(u64),
    /// A string, escaped on output.
    Str(String),
    /// An object's entries, in print order.
    Obj(Vec<(String, Json)>),
    /// An array's items.
    Arr(Vec<Json>),
}

impl Json {
    /// An object from `(key, value)` entries.
    pub fn obj<'a>(entries: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Num(x, places) => return write!(f, "{x:.places$}"),
            Json::Int(n) => return write!(f, "{n}"),
            Json::Str(s) => return write_str(f, s),
            Json::Obj(entries) => (
                '{',
                '}',
                entries.iter().map(|(k, v)| (Some(&**k), v)).collect(),
            ),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        };
        write!(f, "{open}")?;
        for (i, (key, value)) in items.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            write!(f, "{comma}\n{:indent$}", "", indent = 2 * depth + 2)?;
            if let Some(key) = key {
                write_str(f, key)?;
                write!(f, ": ")?;
            }
            value.write(f, depth + 1)?;
        }
        if !items.is_empty() {
            write!(f, "\n{:indent$}", "", indent = 2 * depth)?;
        }
        write!(f, "{close}")
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
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
    fn json_places_commas_per_level_and_escapes_strings() {
        let doc = Json::obj([
            ("name", Json::Str(r#"a "b" \c"#.into())),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("x", Json::Num(1.26, 1)), ("n", Json::Int(7))]),
                    Json::obj([
                        ("x", Json::Num(2.0, 3)),
                        ("inner", Json::obj([("y", Json::Num(0.123_45, 2))])),
                        ("empty", Json::Arr(Vec::new())),
                    ]),
                ]),
            ),
            ("last", Json::Num(2.7, 0)),
        ]);
        let expected = r#"{
  "name": "a \"b\" \\c",
  "rows": [
    {
      "x": 1.3,
      "n": 7
    },
    {
      "x": 2.000,
      "inner": {
        "y": 0.12
      },
      "empty": []
    }
  ],
  "last": 3
}"#;
        assert_eq!(doc.to_string(), expected);
    }

    #[test]
    fn throughput_measurement_runs() {
        let mut cfg = bench_config(2, 8, 3);
        cfg.txs_per_round = 40;
        let tput = measure_throughput(cfg, 1);
        assert!(tput > 0.0);
    }
}
