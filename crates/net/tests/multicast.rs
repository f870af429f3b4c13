//! Property: a multicast is a loop of sends. Posting one payload to a list of
//! recipients keeps the payload once, but every recipient is still admitted,
//! drawn a latency, charged and sequenced on its own and in order — so two
//! networks driven by the same script, one multicasting and one looping
//! `send`, surface the same events (timers interleaved), every envelope field
//! equal, and end with the same drop counts, queue lengths and metrics bytes,
//! under every kind of fault.

use cycledger_net::faults::FaultPlan;
use cycledger_net::latency::{LatencyConfig, LinkClass};
use cycledger_net::metrics::Phase;
use cycledger_net::network::{DropCounts, NetEvent, SimNetwork};
use cycledger_net::time::{SimDuration, SimTime};
use cycledger_net::topology::NodeId;
use proptest::prelude::*;

const NODES: u64 = 7;

/// What one event showed: a message's every field, or a timer's key and
/// deadline.
#[derive(Debug, PartialEq)]
enum Seen {
    Message {
        from: NodeId,
        to: NodeId,
        payload: Vec<u64>,
        bytes: u64,
        sent_at: SimTime,
        delivered_at: SimTime,
        phase: Phase,
    },
    Timer {
        key: u64,
        at: SimTime,
    },
}

/// Everything a script run exposes.
#[derive(Debug, PartialEq)]
struct Run {
    events: Vec<Seen>,
    /// `pending()` after every step.
    pending: Vec<usize>,
    drops: DropCounts,
    metrics: Vec<u8>,
}

/// A plan with each fault kind the bits of `word` switch on: loss, a
/// partition, a crash-stop and a targeted delay.
fn plan(word: u64) -> FaultPlan {
    let on = |bit: u32| word >> bit & 1 == 1;
    let mut plan = FaultPlan::default();
    if on(0) {
        plan.drop_ppm = 150_000;
    }
    if on(1) {
        let group = vec![NodeId(1), NodeId(2)];
        plan = plan.with_partition(group, SimTime::ZERO, Some(SimTime(300_000)));
    }
    if on(2) {
        plan = plan.with_crash(NodeId(3), SimTime(10_000), Some(SimTime(500_000)));
    }
    if on(3) {
        plan = plan.with_delay(NodeId(4), SimDuration::from_millis(120));
    }
    plan
}

fn record(event: NetEvent<Vec<u64>>) -> Seen {
    match event {
        NetEvent::Message(env) => Seen::Message {
            from: env.from,
            to: env.to,
            payload: env.payload,
            bytes: env.bytes,
            sent_at: env.sent_at,
            delivered_at: env.delivered_at,
            phase: env.phase,
        },
        NetEvent::Timer { key, at } => Seen::Timer { key, at },
    }
}

/// Runs the script `ops` (one word per step) on a fresh network; posts go
/// out as one multicast each or, with `multicast` false, as a loop of sends.
fn run(seed: u64, plan_word: u64, ops: &[u64], multicast: bool) -> Run {
    let mut net: SimNetwork<Vec<u64>> =
        SimNetwork::with_faults(LatencyConfig::default(), seed, plan(plan_word));
    let (mut events, mut pending) = (Vec::new(), Vec::new());
    for (step, &word) in ops.iter().enumerate() {
        match word % 8 {
            // A post: up to six recipients, repeats and the sender included.
            0..=4 => {
                let from = NodeId(((word >> 3) % NODES) as u32);
                let k = (word >> 8) % 7;
                let recipients = (0..k).map(|i| NodeId(((word >> (12 + 4 * i)) % NODES) as u32));
                let class = [LinkClass::IntraCommittee, LinkClass::KeyMemberMesh]
                    [(word >> 38) as usize % 2];
                net.set_phase(Phase::ALL[(word >> 40) as usize % Phase::ALL.len()]);
                let (payload, bytes) = (vec![step as u64, word], (word >> 48) % 512);
                if multicast {
                    net.multicast(from, recipients, class, payload, bytes);
                } else {
                    for to in recipients {
                        net.send(from, to, class, payload.clone(), bytes);
                    }
                }
            }
            5 => {
                let after = SimDuration::from_micros((word >> 3) % 200_000);
                net.schedule_timer(after, word >> 32);
            }
            6 => {
                for _ in 0..(word >> 3) % 8 {
                    let Some(event) = net.next_event() else { break };
                    events.push(record(event));
                }
            }
            _ => net.advance_to(SimTime(net.now().as_micros() + (word >> 3) % 50_000)),
        }
        pending.push(net.pending());
    }
    while let Some(event) = net.next_event() {
        events.push(record(event));
    }
    pending.push(net.pending());
    let mut metrics = Vec::new();
    net.metrics().write_canonical_bytes(&mut metrics);
    Run {
        events,
        pending,
        drops: net.drop_counts(),
        metrics,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_multicast_is_a_loop_of_sends(
        seed in any::<u64>(),
        plan_word in 0u64..16,
        ops in prop::collection::vec(any::<u64>(), 8..64),
    ) {
        let looped = run(seed, plan_word, &ops, false);
        let posted = run(seed, plan_word, &ops, true);
        prop_assert_eq!(posted, looped);
    }
}

#[test]
fn the_script_exercises_drops_timers_and_fan_out() {
    // Guards the property above against a script that never drops, never
    // fires a timer or never fans out: one fixed run shows all three.
    let mut rng = proptest::test_runner::TestRng::from_seed(4242);
    let ops: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
    let run = run(4242, 0b1111, &ops, true);
    let messages = run
        .events
        .iter()
        .filter(|e| matches!(e, Seen::Message { .. }));
    let timers = run
        .events
        .iter()
        .filter(|e| matches!(e, Seen::Timer { .. }));
    let (messages, timers) = (messages.count(), timers.count());
    println!("{messages} messages, {timers} timers, {:?}", run.drops);
    let drops = run.drops;
    assert!(drops.crashed > 0 && drops.partitioned > 0 && drops.lossy > 0);
    assert!(timers > 0);
    assert!(messages > ops.len() / 2);
}
