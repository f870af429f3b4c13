//! # cycledger-bench
//!
//! The benchmark and experiment harness: [`paper`] builds the paper's
//! evaluation (Tables I–II, the tracked round's envelopes and executor
//! batches, Figs. 4–5, scalability, recovery, incentives, the open-loop
//! latency sweep) as one document, and one generator binary
//! per committed `BENCH_*.json` baseline measures the rest.
//! `docs/benchmarks.md` indexes the committed files and what regenerates
//! each. The binaries print through [`Json`].
//!
//! Binaries (run with `cargo run --release -p cycledger-bench --bin <name>`):
//!
//! * `gen_paper` — [`paper::document`], committed as `BENCH_paper.json`.
//! * `gen_bench_crypto`, `gen_bench_round`, `gen_bench_state` — the
//!   `BENCH_crypto`, `_round` and `_state` baselines, one run each.

#![warn(missing_docs)]

use std::fmt;

use cycledger_consensus::{Alg3Message, ConsensusId};
use cycledger_net::latency::LatencyConfig;
use cycledger_net::network::SimNetwork;
use cycledger_protocol::committee::run_inside_consensus;
use cycledger_protocol::{
    AdversaryConfig, Committee, InsideConsensusOutcome, LeaderFault, NodeRegistry, ProtocolConfig,
};

pub mod paper;

/// Builds a simulation configuration sized for benchmarking: small PoW
/// difficulty, fifty transactions per committee. The paper document (its
/// virtual-time latency sweep included) and the tracked wall-clock series
/// (`gen_bench_round`) both run it with every signature made and
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

/// Rounds a tracked series measures, after its warm-up round: the
/// `gen_bench_round` series and the paper document's `tracked_round` block.
/// Rounds differ — buffers still grow, every second epoch-variant round
/// closes an epoch — so a per-round mean only repeats over a fixed span.
pub const TRACKED_ROUNDS: u64 = 16;

/// A count over a series' [`TRACKED_ROUNDS`] rounds as its per-round mean to
/// four places, the form of every row a gate compares by `==`: a mean over
/// 16 rounds is a multiple of 1/16 = 0.0625, so four places print it
/// exactly, and one more in a single round moves the printed value.
pub fn exact_per_round(count: u64) -> Json {
    Json::Num(count as f64 / TRACKED_ROUNDS as f64, 4)
}

/// The epoch-lifecycle variant of a config: an epoch boundary (beacon,
/// churn, state sync, reshuffle) every second round, so half the measured
/// rounds pay the full handover cost.
pub fn epoch_variant(config: ProtocolConfig) -> ProtocolConfig {
    ProtocolConfig {
        epoch_length: 2,
        joins_per_epoch: 2,
        leaves_per_epoch: 1,
        ..config
    }
}

/// Describes [`epoch_variant`].
pub const EPOCH_VARIANT: &str =
    "same geometry with epoch_length 2, joins_per_epoch 2, leaves_per_epoch 1 \
     (every second round closes an epoch: beacon, churn, state sync, reshuffle)";

/// One Algorithm 3 instance to time — the unit of work every phase of a
/// round repeats: an all-honest committee of `committee_size` certifies a
/// list of 100 transaction ids over the simulated network, every signature
/// made and, if `verify`, verified (unverified, an instance costs what is not
/// signature work: the network, the machines, the tallies). Each call of the
/// returned closure is a fresh instance (its own network, sequence number and
/// verification memo).
pub fn alg3_instance(
    committee_size: usize,
    verify: bool,
) -> impl FnMut() -> InsideConsensusOutcome {
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
            verify,
        );
        assert!(outcome.certificate.is_some(), "honest instance certifies");
        outcome
    }
}

/// A JSON document as the generator binaries print it: one entry per line,
/// two spaces of indent per level, commas placed by the writer.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A number printed with the given count of decimal places.
    Num(f64, usize),
    /// A number printed in exponent form with the given count of decimal
    /// places in its mantissa (`8.531e-9`), for values fixed decimals would
    /// print as zero.
    Exp(f64, usize),
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
            Json::Exp(x, places) => return write!(f, "{x:.places$e}"),
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

/// A JSON string literal: `"` and `\` escaped, a newline, tab or carriage
/// return as `\n`, `\t`, `\r`, any other control character as `\u00XX`.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\t' => write!(f, "\\t")?,
            '\r' => write!(f, "\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
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
        let mut instance = alg3_instance(8, true);
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
            ("tail", Json::Exp(8.225_4e-20, 3)),
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
  "last": 3,
  "tail": 8.225e-20
}"#;
        assert_eq!(doc.to_string(), expected);

        // Control characters print as escapes, never raw.
        let controls = Json::Str("line\nbreak\ttab\rreturn\u{1}\u{1f}".into());
        assert_eq!(
            controls.to_string(),
            r#""line\nbreak\ttab\rreturn\u0001\u001f""#
        );
    }
}
