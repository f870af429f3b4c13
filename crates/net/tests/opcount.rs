//! Exact costs of the message plane's per-envelope draws, gated at zero
//! tolerance. Run with `cargo test -p cycledger-net --features opcount`.
//!
//! A network keys one `LinkDraws` per kind of decision — latency, loss,
//! jitter — when it is built; every envelope then draws its latency with one
//! SHA-256 compression, and a lossy or jittered network pays one more per
//! decision. SHA-256 compressions — `naive` is the HMAC-DRBG per decision of
//! commit b85479e, `drbg` the one that kept its key schedule and owed its
//! closing update (commit 46d96b8), `now` the keyed one-block hash
//! (`cycledger_crypto::sha256::KeyedHash`); no generator is made any more:
//!
//! | operation                            | naive | drbg | now | generators |
//! |--------------------------------------|-------|------|-----|------------|
//! | `LatencySampler::sample`             |    32 |   18 |   1 | 1 → 0      |
//! | `send` on a clean network            |    32 |   18 |   1 | 1 → 0      |
//! | `send` under loss + jitter, admitted |    96 |   54 |   3 | 3 → 0      |
//! | building a `SimNetwork`              |     0 |    0 |   3 | 0          |
#![cfg(feature = "opcount")]

use cycledger_crypto::opcount::{scope, Tally};
use cycledger_net::faults::FaultPlan;
use cycledger_net::latency::{LatencyConfig, LatencySampler, LinkClass};
use cycledger_net::network::SimNetwork;
use cycledger_net::time::SimDuration;
use cycledger_net::topology::NodeId;

/// With this seed no draw in these tests has all four words of its block
/// rejected (for these bounds a word is rejected with odds below 10^-13).
const SEED: u64 = 4242;

#[test]
fn one_latency_draw_is_one_compression_and_no_generator() {
    let sampler = LatencySampler::new(LatencyConfig::default(), SEED);
    let draw = scope(|| sampler.sample(LinkClass::IntraCommittee, NodeId(3), NodeId(11), 7));
    assert_eq!(
        draw,
        Tally {
            sha256_blocks: 1,
            latency_draws: 1,
            ..Tally::default()
        }
    );
}

#[test]
fn a_network_keys_its_three_draws_once() {
    let built = scope(|| SimNetwork::<u64>::new(LatencyConfig::default(), SEED));
    assert_eq!(
        built,
        Tally {
            sha256_blocks: 3,
            ..Tally::default()
        }
    );
}

#[test]
fn an_envelope_costs_its_draws() {
    let mut clean: SimNetwork<u64> = SimNetwork::new(LatencyConfig::default(), SEED);
    let sent = scope(|| clean.send(NodeId(3), NodeId(11), LinkClass::IntraCommittee, 1, 128));
    assert_eq!(
        sent,
        Tally {
            sha256_blocks: 1,
            envelopes_sent: 1,
            latency_draws: 1,
            ..Tally::default()
        }
    );
    let delivered = scope(|| clean.deliver_next());
    assert_eq!(delivered, Tally::default(), "delivery draws nothing");

    let plan = FaultPlan {
        drop_ppm: 1,
        jitter: SimDuration::from_millis(2),
        ..FaultPlan::default()
    };
    let mut faulty: SimNetwork<u64> = SimNetwork::with_faults(LatencyConfig::default(), SEED, plan);
    let sent = scope(|| {
        let at = faulty.send(NodeId(3), NodeId(11), LinkClass::IntraCommittee, 1, 128);
        assert!(at.is_some(), "one in a million: admitted");
    });
    assert_eq!(
        sent,
        Tally {
            sha256_blocks: 3,
            envelopes_sent: 1,
            latency_draws: 1,
            fault_draws: 2,
            ..Tally::default()
        }
    );
}
