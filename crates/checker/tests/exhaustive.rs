//! The exhaustive run over the real machines, its self-test, the check that
//! the scheduler moves their messages the way the engine's driver does, and
//! refinement over real executions (each refinement rule's own self-test sits
//! beside it, in `refine.rs`).
//!
//! The headline deliverable: BFS over **every** message delivery, drop, and
//! timer interleaving of the n = 4 / t = 1 / 2-round committee finds **zero**
//! safety violations, and the bound is pinned — the run is only meaningful if
//! it actually covered the state space it claims, so the per-scenario state
//! counts are asserted exactly.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use cycledger_checker::explore::{
    broken, explore, first_pass_in_send_order, ExploreStats, Fixture, Scenario,
};
use cycledger_checker::refine::{RefinementStats, Refiner};
use cycledger_consensus::transition::Paper;
use cycledger_ledger::workload::{Workload, WorkloadConfig};
use cycledger_net::faults::FaultPlan;
use cycledger_net::latency::LatencyConfig;
use cycledger_net::time::SimDuration;
use cycledger_protocol::adversary::{AdversaryConfig, Behavior};
use cycledger_protocol::config::ProtocolConfig;
use cycledger_protocol::engine::{RoundEnv, ShardScratch};
use cycledger_protocol::phases::intra::{run_intra_consensus, IntraOutcome};
use cycledger_protocol::simulation::Simulation;
use cycledger_protocol::{Committee, NodeRegistry};

/// Exact reachable-state counts per scenario, pinned as a regression guard:
/// a change that silently shrinks the explored space (and so weakens the
/// exhaustiveness claim) fails here before anyone trusts its zero-violation
/// result — and one that blows it up fails the time bound below. Since the
/// certified payload is the `V List`, schedules that differ in whose rows
/// arrived before the deadline certify different payloads, where a payload of
/// the decided ids alone merged them (118 956 / 71 407 / 74 735 / 1 204 /
/// 119 276 before).
const EXPECTED_STATES: [(Scenario, usize); 5] = [
    (Scenario::AllHonest, 470_796),
    (Scenario::SilentLeader, 282_511),
    (Scenario::EquivocatingLeader, 294_923),
    (Scenario::CrashedMember, 2_278),
    (Scenario::FalseAccusation, 471_116),
];

/// The clean run, made once for the tests that read it, with its wall time
/// per scenario.
fn clean_run() -> &'static [(ExploreStats, Duration)] {
    static RUN: OnceLock<Vec<(ExploreStats, Duration)>> = OnceLock::new();
    RUN.get_or_init(|| {
        let timed = |(scenario, _)| {
            let started = Instant::now();
            (explore::<Paper>(scenario), started.elapsed())
        };
        EXPECTED_STATES.into_iter().map(timed).collect()
    })
}

/// The exhaustiveness bound is the deliverable: every scenario explores to
/// fixpoint with zero violations over exactly the pinned state space — and
/// in release inside 120 s, so a state-space blow-up is a red test, not a
/// slow job. One line per scenario with `--nocapture`.
#[test]
fn exhaustive_enumeration_finds_no_safety_violations() {
    let mut total = Duration::ZERO;
    for ((scenario, expected), (stats, wall)) in EXPECTED_STATES.into_iter().zip(clean_run()) {
        println!(
            "{scenario:?}: {} states, {} transitions, {} terminals, {} ms",
            stats.states,
            stats.transitions,
            stats.terminal_states,
            wall.as_millis()
        );
        assert!(
            stats.violations.is_empty(),
            "{scenario:?}: {} violations, first: {:?}",
            stats.violations.len(),
            stats.violations.first()
        );
        assert_eq!(stats.states, expected, "{scenario:?}: explored states");
        assert!(stats.transitions > stats.states, "{scenario:?}");
        assert!(stats.terminal_states > 0, "{scenario:?}: no terminal state");
        total += *wall;
    }
    println!("clean run: {} ms", total.as_millis());
    if !cfg!(debug_assertions) {
        assert!(total < Duration::from_secs(120), "clean run took {total:?}");
    }
}

/// Liveness smoke: some schedule commits both rounds in every scenario,
/// because in every one a quorum of ⌊4/2⌋+1 = 3 is alive and the leader is
/// seated — it echoes and confirms as a member. That includes
/// `CrashedMember`: three live members are exactly the threshold, so the
/// one full-commit terminal there is reached only when nothing a live member
/// sends is lost. (The hand-written model this run replaced gave the leader
/// no ECHO or CONFIRM of its own, which made every quorum need all three
/// member slots and `CrashedMember` never commit; the machines the engine
/// runs say otherwise.) n = 4 still proves thresholds and nothing about
/// collusion.
#[test]
fn full_commit_reachability_matches_quorum_arithmetic() {
    for ((scenario, _), (stats, _)) in EXPECTED_STATES.into_iter().zip(clean_run()) {
        assert!(
            stats.full_commit_terminals > 0,
            "{scenario:?}: no interleaving commits both rounds"
        );
        assert!(stats.full_commit_terminals < stats.terminal_states);
    }
}

/// Self-test: the checker must flag a deliberately broken rule planted in
/// the real machines, or its zero-violation result means nothing. Each is
/// caught by the matching assertion, with a non-empty counterexample trace.
#[test]
fn broken_rules_are_flagged_with_counterexamples() {
    // Committing at exactly half the committee (t+1 votes) breaks the
    // strict-majority tally rule.
    let stats = explore::<broken::CommitAtHalf>(Scenario::AllHonest);
    let v = stats
        .violations
        .iter()
        .find(|v| v.kind == "tally-divergence")
        .expect("CommitAtHalf must produce a tally divergence");
    assert!(!v.trace.is_empty(), "violation without a counterexample");

    // Backfilling missing voters as Yes manufactures votes out of the
    // quorum-timeout fallback.
    let stats = explore::<broken::BackfillYes>(Scenario::AllHonest);
    let v = stats
        .violations
        .iter()
        .find(|v| v.kind == "manufactured-votes")
        .expect("BackfillYes must produce manufactured votes");
    assert!(!v.trace.is_empty());

    // Dropping the evidence-verification gates lets a fabricated accusation
    // evict a correct leader.
    let stats = explore::<broken::SkipRefereeCheck>(Scenario::FalseAccusation);
    let v = stats
        .violations
        .iter()
        .find(|v| v.kind == "eviction-without-evidence")
        .expect("SkipRefereeCheck must produce an unevidenced eviction");
    assert!(
        v.trace.len() >= 2,
        "unevidenced eviction needs a multi-step schedule, got {:?}",
        v.trace
    );
}

/// A committee of four over one shard with one valid transaction offered —
/// the scheduler's fixture and the driver's inputs from the same registry —
/// and what `run_intra_consensus` makes of it on a network whose every leg
/// takes exactly 1µs, which delivers in send order.
fn scheduler_and_driver(leader: Behavior) -> (Fixture, NodeRegistry, IntraOutcome) {
    let mut registry = NodeRegistry::generate(4, &AdversaryConfig::default(), 100, 0, 22);
    let members = registry.ids();
    registry.set_behavior(members[0], leader);
    let committee = Committee {
        index: 0,
        leader: members[0],
        partial_set: members[1..3].to_vec(),
        keys: registry.committee_keys(&members),
        members: members.clone(),
    };
    let mut workload = Workload::new(WorkloadConfig {
        num_shards: 1,
        cross_shard_ratio: 0.0,
        invalid_ratio: 0.0,
        ..WorkloadConfig::default()
    });
    let utxo = workload.build_genesis_utxo_sets().remove(0);
    let offered = workload.generate_batch(1);
    let unit = LatencyConfig {
        delta: SimDuration::from_micros(1),
        gamma: SimDuration::from_micros(2),
        partial_bound: SimDuration::from_micros(3),
    };
    let config = ProtocolConfig {
        latency: unit,
        seed: 22,
        ..ProtocolConfig::default()
    };
    // Nobody to forward the certificate to: the comparison ends with it.
    let no_referee = Committee {
        index: usize::MAX,
        leader: members[0],
        partial_set: Vec::new(),
        keys: registry.committee_keys(&[]),
        members: Vec::new(),
    };
    let env = RoundEnv {
        config: &config,
        registry: &registry,
        referee: &no_referee,
        plan: &FaultPlan::default(),
        round: 0,
    };
    let scratch = &mut ShardScratch::default();
    let outcome = run_intra_consensus(&env, &committee, false, &utxo, &offered, &[], scratch);
    let seated: Vec<_> = members
        .iter()
        .map(|&member| (member, registry.node(member).keypair))
        .collect();
    (Fixture::new(&seated, offered[0].tx.id()), registry, outcome)
}

/// The scheduler is a transport of the machines as the driver is — both step
/// the same `alg3::Instance`, and this pins the part each writes itself:
/// fault-free, its deliver-everything-in-send-order schedule and
/// `run_intra_consensus` end with the same decision vector and the same
/// certificate — digest, signer set, signatures.
#[test]
fn the_scheduler_and_the_driver_certify_the_same_thing() {
    let (fixture, _, driven) = scheduler_and_driver(Behavior::Honest);
    let (decision, instance) = first_pass_in_send_order(&fixture, Scenario::AllHonest);
    assert_eq!(decision, [1]);
    assert_eq!(decision, driven.decision);
    let certificate = instance.certificate().expect("the honest pass certifies");
    assert_eq!(certificate.signer_count(), 3);
    assert_eq!(Some(certificate), driven.certificate.as_ref());
    assert!(instance.equivocation().is_empty() && driven.equivocation.is_empty());
}

/// Likewise under an equivocating leader: both end without a certificate and
/// with evidence that verifies under the leader's key.
#[test]
fn the_scheduler_and_the_driver_catch_the_same_equivocation() {
    let (fixture, registry, driven) = scheduler_and_driver(Behavior::EquivocatingLeader);
    let (decision, instance) = first_pass_in_send_order(&fixture, Scenario::EquivocatingLeader);
    assert_eq!(decision, driven.decision);
    assert_eq!(
        (instance.certificate(), driven.certificate.as_ref()),
        (None, None)
    );
    let leader_key = registry.node(registry.ids()[0]).keypair.public;
    for evidence in [instance.equivocation(), &driven.equivocation[..]] {
        assert!(!evidence.is_empty());
        assert!(evidence.iter().all(|e| e.verify(&leader_key)));
    }
    assert_eq!(instance.equivocation(), driven.equivocation);
}

fn sim_config(adversary: AdversaryConfig, seed: u64) -> ProtocolConfig {
    ProtocolConfig {
        committees: 2,
        committee_size: 8,
        partial_set_size: 2,
        referee_size: 5,
        txs_per_round: 16,
        accounts_per_shard: 16,
        pow_difficulty: 2,
        adversary,
        worker_threads: 1,
        seed,
        ..ProtocolConfig::default()
    }
}

/// What the checker that recorded these executions and replayed the
/// recording reported on them at commit 951dfc0, the refiner reading the same
/// steps off the round instead — but for the decisions, which count every
/// column of a `V List`: since a committee votes on its outbound
/// cross-shard transactions in its intra vote, those columns are replayed
/// through the tally rule too (39 and 41 offered columns at 951dfc0).
const HONEST_STATS: RefinementStats = RefinementStats {
    committee_steps: 6,
    decisions: 48,
    recovery_steps: 0,
    phase_deltas: 9,
};
const ADVERSARIAL_STATS: RefinementStats = RefinementStats {
    decisions: 48,
    ..HONEST_STATS
};

/// Refinement over a clean execution: every concrete step has an abstract
/// counterpart.
#[test]
fn refinement_holds_over_honest_driven_execution() {
    let config = sim_config(AdversaryConfig::default(), 7);
    let mut sim = Simulation::new(config).expect("valid config");
    let mut refiner = Refiner::new();
    sim.run_observed(3, &mut refiner);
    let stats = refiner.finish().expect("refinement gap in an honest run");
    assert_eq!(stats, HONEST_STATS);
}

/// Refinement over adversarial executions: with silent, equivocating or
/// false-accusing nodes the run stays within the abstract transition
/// relation. These three rounds run no recovery; the partition- and
/// churn-fuzz schedules refine those.
#[test]
fn refinement_holds_over_adversarial_driven_executions() {
    for behavior in [
        Behavior::SilentLeader,
        Behavior::EquivocatingLeader,
        Behavior::FalseAccuser,
    ] {
        let adversary = AdversaryConfig::with_behavior(0.3, behavior);
        let mut sim = Simulation::new(sim_config(adversary, 11)).expect("valid config");
        let mut refiner = Refiner::new();
        sim.run_observed(3, &mut refiner);
        let stats = refiner
            .finish()
            .unwrap_or_else(|gap| panic!("refinement gap under {behavior:?}: {gap}"));
        assert_eq!(stats, ADVERSARIAL_STATS, "{behavior:?}");
    }
}
