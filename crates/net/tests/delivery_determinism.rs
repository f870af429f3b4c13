//! Property: `SimNetwork` delivery is a deterministic function of
//! `(seed, send sequence)` — same seed ⇒ identical envelope order, different
//! seeds permute order without losing or duplicating messages, and fault
//! plans keep both properties (drops are part of the deterministic function,
//! not noise).

use cycledger_net::faults::{FaultPlan, Partition, TargetedDelay};
use cycledger_net::latency::{LatencyConfig, LinkClass};
use cycledger_net::network::SimNetwork;
use cycledger_net::time::{SimDuration, SimTime};
use cycledger_net::topology::NodeId;
use proptest::prelude::*;

/// One deterministic "send script" derived from the generated inputs: a
/// fixed fan of messages among `nodes` nodes, tagged with their send index.
fn run_script(
    seed: u64,
    nodes: u32,
    sends: usize,
    plan: FaultPlan,
) -> (Vec<(u32, NodeId, SimTime)>, u64) {
    let mut net: SimNetwork<u32> = SimNetwork::with_faults(LatencyConfig::default(), seed, plan);
    for i in 0..sends as u32 {
        let from = NodeId(i % nodes);
        let to = NodeId((i + 1 + i / nodes) % nodes);
        if from == to {
            continue;
        }
        let class = match i % 2 {
            0 => LinkClass::IntraCommittee,
            _ => LinkClass::KeyMemberMesh,
        };
        net.send(from, to, class, i, 8 + (i % 5) as u64);
    }
    let mut order = Vec::new();
    while let Some(env) = net.deliver_next() {
        order.push((env.payload, env.to, env.delivered_at));
    }
    (order, net.dropped_messages())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn same_seed_same_delivery_order(seed in any::<u64>(), sends in 16usize..96) {
        let (a, dropped_a) = run_script(seed, 6, sends, FaultPlan::default());
        let (b, dropped_b) = run_script(seed, 6, sends, FaultPlan::default());
        prop_assert_eq!(&a, &b, "same seed must reproduce the envelope order exactly");
        prop_assert_eq!(dropped_a, dropped_b);
    }

    #[test]
    fn different_seeds_permute_without_losing_messages(seed in any::<u64>(), sends in 32usize..96) {
        let (a, _) = run_script(seed, 6, sends, FaultPlan::default());
        let (b, _) = run_script(seed ^ 0x9e3779b97f4a7c15, 6, sends, FaultPlan::default());
        // Same multiset of (payload, destination): nothing lost, nothing
        // duplicated — only timing (and with it order) may change.
        let strip = |v: &[(u32, NodeId, SimTime)]| {
            let mut keys: Vec<(u32, NodeId)> = v.iter().map(|(p, to, _)| (*p, *to)).collect();
            keys.sort_unstable_by_key(|(p, to)| (*p, to.0));
            keys
        };
        prop_assert_eq!(strip(&a), strip(&b));
    }

    #[test]
    fn faulted_runs_are_equally_deterministic(seed in any::<u64>(), sends in 32usize..96) {
        let plan = FaultPlan {
            drop_ppm: 120_000,
            delays: vec![TargetedDelay {
                node: NodeId(3),
                extra: SimDuration::from_millis(80),
            }],
            partitions: vec![Partition {
                group: vec![NodeId(2)],
                from: SimTime::ZERO,
                until: Some(SimTime(40_000)),
            }],
            ..FaultPlan::default()
        };
        let (a, dropped_a) = run_script(seed, 6, sends, plan.clone());
        let (b, dropped_b) = run_script(seed, 6, sends, plan);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(dropped_a, dropped_b);
        // And the clean run at the same seed delivers a superset.
        let (clean, _) = run_script(seed, 6, sends, FaultPlan::default());
        prop_assert!(clean.len() >= a.len());
    }
}
