//! Exact costs of the message plane's per-envelope draws, gated at zero
//! tolerance. Run with `cargo test -p cycledger-net --features opcount`.
//!
//! Every envelope instantiates one HMAC-DRBG keyed by `(seed, from, to, seq)`
//! and draws its latency from it; a lossy or jittered network instantiates
//! one more per decision. SHA-256 compressions per draw — `naive` is the
//! generator of commit b85479e, `now` the one that keeps its key schedule
//! and owes its closing update (`cycledger_crypto::hmac`):
//!
//! | operation                            | naive | now | generators |
//! |--------------------------------------|-------|-----|------------|
//! | `LatencySampler::sample`             |    32 |  18 | 1          |
//! | `send` on a clean network            |    32 |  18 | 1          |
//! | `send` under loss + jitter, admitted |    96 |  54 | 3          |
#![cfg(feature = "opcount")]

use cycledger_crypto::opcount::{scope, Tally};
use cycledger_net::faults::FaultPlan;
use cycledger_net::latency::{LatencyConfig, LatencySampler, LinkClass};
use cycledger_net::network::SimNetwork;
use cycledger_net::time::SimDuration;
use cycledger_net::topology::NodeId;

/// With this seed no `next_below` in these tests rejects its first `u64`
/// (a second request on one generator would pay the update the first owed).
const SEED: u64 = 4242;

#[test]
fn one_latency_draw_is_one_generator_and_eighteen_compressions() {
    let sampler = LatencySampler::new(LatencyConfig::default(), SEED);
    // The all-zero instantiation key's schedule is computed once a process.
    sampler.sample(LinkClass::IntraCommittee, NodeId(0), NodeId(1), 0);
    let draw = scope(|| sampler.sample(LinkClass::IntraCommittee, NodeId(3), NodeId(11), 7));
    assert_eq!(
        draw,
        Tally {
            sha256_blocks: 18,
            drbg_instantiations: 1,
            latency_draws: 1,
            ..Tally::default()
        }
    );
}

#[test]
fn an_envelope_costs_its_draws() {
    let mut clean: SimNetwork<u64> = SimNetwork::new(LatencyConfig::default(), SEED);
    clean.send(NodeId(0), NodeId(1), LinkClass::IntraCommittee, 0, 128);
    let sent = scope(|| clean.send(NodeId(3), NodeId(11), LinkClass::IntraCommittee, 1, 128));
    assert_eq!(
        sent,
        Tally {
            sha256_blocks: 18,
            drbg_instantiations: 1,
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
            sha256_blocks: 54,
            drbg_instantiations: 3,
            envelopes_sent: 1,
            latency_draws: 1,
            fault_draws: 2,
            ..Tally::default()
        }
    );
}
