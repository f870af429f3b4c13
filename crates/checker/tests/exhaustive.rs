//! The exhaustive model-checking run, its self-test, and refinement over
//! real executions.
//!
//! The headline deliverable: BFS over **every** message delivery, drop, and
//! timer interleaving of the n = 4 / t = 1 / 2-round model finds **zero**
//! safety violations, and the bound is pinned — the run is only meaningful if
//! it actually covered the state space it claims, so the per-scenario state
//! counts are asserted as exact regression pins and the total as an explicit
//! lower bound.

use cycledger_checker::model::{explore, explore_all, BrokenRule, Scenario, ALL_SCENARIOS};
use cycledger_checker::refine::check_trace;
use cycledger_protocol::adversary::{AdversaryConfig, Behavior};
use cycledger_protocol::config::ProtocolConfig;
use cycledger_protocol::simulation::Simulation;
use cycledger_protocol::TraceRecorder;

/// Exact reachable-state counts per scenario, pinned as a regression guard:
/// a model change that silently shrinks the explored space (and so weakens
/// the exhaustiveness claim) fails here before anyone trusts its zero-
/// violation result.
const EXPECTED_STATES: [(Scenario, usize); 5] = [
    (Scenario::AllHonest, 12_934),
    (Scenario::SilentLeader, 10_172),
    (Scenario::EquivocatingLeader, 39_095),
    (Scenario::CrashedMember, 660),
    (Scenario::FalseAccusation, 32_934),
];

/// The exhaustiveness bound is the deliverable: every scenario explores to
/// fixpoint with zero violations, and the state space actually covered is
/// asserted as a lower bound.
#[test]
fn exhaustive_enumeration_finds_no_safety_violations() {
    let mut total_states = 0usize;
    for (scenario, expected) in EXPECTED_STATES {
        let stats = explore(scenario, None);
        assert!(
            stats.violations.is_empty(),
            "{scenario:?}: {} violations, first: {:?}",
            stats.violations.len(),
            stats.violations.first()
        );
        assert_eq!(
            stats.states, expected,
            "{scenario:?}: explored {} states, pinned {}",
            stats.states, expected
        );
        assert!(
            stats.transitions > stats.states,
            "{scenario:?}: fewer transitions than states"
        );
        assert!(
            stats.terminal_states > 0,
            "{scenario:?}: exploration never reached a terminal state"
        );
        total_states += stats.states;
    }
    // The ISSUE's exhaustiveness bound, as an explicit lower bound on the
    // symmetry-reduced state space covered by the clean run.
    assert!(
        total_states >= 95_000,
        "state space shrank below the exhaustiveness bound: {total_states}"
    );
}

/// The aggregate entry point agrees with the per-scenario runs.
#[test]
fn explore_all_aggregates_every_scenario() {
    let total = explore_all();
    assert!(total.violations.is_empty());
    assert_eq!(
        total.states,
        EXPECTED_STATES.iter().map(|&(_, n)| n).sum::<usize>()
    );
}

/// Liveness smoke: under full delivery the model commits both rounds in
/// every scenario a certificate is reachable in — and in none where it is
/// not. At n = 4 a crashed member makes every quorum unreachable (quorum =
/// the whole member set), so `CrashedMember` must show zero full commits;
/// that degenerate behaviour is exactly what the docs warn n = 4 does not
/// generalize from.
#[test]
fn full_commit_reachability_matches_quorum_arithmetic() {
    for scenario in ALL_SCENARIOS {
        let stats = explore(scenario, None);
        if scenario == Scenario::CrashedMember {
            assert_eq!(
                stats.full_commit_terminals, 0,
                "a 3-member quorum cannot survive a crashed member at n=4"
            );
        } else {
            assert!(
                stats.full_commit_terminals > 0,
                "{scenario:?}: no interleaving commits both rounds"
            );
        }
    }
}

/// Self-test: the checker must flag a deliberately broken transition, or its
/// zero-violation result means nothing. Each broken rule is caught by the
/// matching assertion, with a non-empty counterexample trace.
#[test]
fn broken_rules_are_flagged_with_counterexamples() {
    // Committing at exactly half the committee (t+1 votes) breaks the
    // strict-majority tally rule.
    let stats = explore(Scenario::AllHonest, Some(BrokenRule::CommitAtHalf));
    let v = stats
        .violations
        .iter()
        .find(|v| v.kind == "tally-divergence")
        .expect("CommitAtHalf must produce a tally divergence");
    assert!(!v.trace.is_empty(), "violation without a counterexample");

    // Backfilling missing voters as Yes manufactures votes out of the
    // quorum-timeout fallback.
    let stats = explore(Scenario::AllHonest, Some(BrokenRule::BackfillYes));
    let v = stats
        .violations
        .iter()
        .find(|v| v.kind == "manufactured-votes")
        .expect("BackfillYes must produce manufactured votes");
    assert!(!v.trace.is_empty());

    // Dropping the evidence-verification gates lets a fabricated accusation
    // evict a correct leader.
    let stats = explore(
        Scenario::FalseAccusation,
        Some(BrokenRule::SkipRefereeCheck),
    );
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

fn sim_config(adversary: AdversaryConfig, seed: u64, message_driven: bool) -> ProtocolConfig {
    ProtocolConfig {
        committees: 2,
        committee_size: 8,
        partial_set_size: 2,
        referee_size: 5,
        txs_per_round: 16,
        accounts_per_shard: 16,
        pow_difficulty: 2,
        message_driven,
        adversary,
        worker_threads: 1,
        seed,
        ..ProtocolConfig::default()
    }
}

/// Refinement over a clean execution, with and without the fault-plan opt-in
/// (one implementation runs either way): every concrete step has an abstract
/// counterpart.
#[test]
fn refinement_holds_over_honest_driven_execution() {
    for message_driven in [false, true] {
        let config = sim_config(AdversaryConfig::default(), 7, message_driven);
        let mut sim = Simulation::new(config).expect("valid config");
        let mut recorder = TraceRecorder::new();
        sim.run_observed(3, &mut recorder);
        let trace = recorder.into_trace();
        assert!(!trace.steps.is_empty(), "recorder saw no committee steps");
        let stats = check_trace(&trace).expect("refinement gap in an honest run");
        assert!(stats.committee_steps >= 6, "3 rounds x 2 committees");
        assert!(stats.decisions > 0);
        assert!(stats.phase_deltas > 0);
    }
}

/// Refinement over adversarial executions: silent, equivocating and
/// false-accusing leaders all stay within the abstract transition relation
/// (the recoveries they trigger included), on either setting of the flag.
#[test]
fn refinement_holds_over_adversarial_driven_executions() {
    for behavior in [
        Behavior::SilentLeader,
        Behavior::EquivocatingLeader,
        Behavior::FalseAccuser,
    ] {
        for message_driven in [false, true] {
            let adversary = AdversaryConfig::with_behavior(0.3, behavior);
            let config = sim_config(adversary, 11, message_driven);
            let mut sim = Simulation::new(config).expect("valid config");
            let mut recorder = TraceRecorder::new();
            sim.run_observed(3, &mut recorder);
            let trace = recorder.into_trace();
            let stats = check_trace(&trace).unwrap_or_else(|gap| {
                panic!("refinement gap under {behavior:?}, message_driven={message_driven}: {gap}")
            });
            assert!(stats.committee_steps >= 6, "{behavior:?}: too few steps");
        }
    }
}

/// Refinement self-test: a trace whose concrete step has no abstract
/// counterpart (a decision that contradicts the recounted tally) must be
/// rejected.
#[test]
fn refinement_flags_a_decision_with_no_abstract_counterpart() {
    let config = sim_config(AdversaryConfig::default(), 7, true);
    let mut sim = Simulation::new(config).expect("valid config");
    let mut recorder = TraceRecorder::new();
    sim.run_round_observed(&mut recorder);
    let mut trace = recorder.into_trace();
    assert!(check_trace(&trace).is_ok(), "clean trace must refine");

    // Flip one committed decision: accepted with a tally the strict-majority
    // rule rejects (or vice versa).
    let step = trace.steps.first_mut().expect("at least one step");
    let k = 0;
    step.decision[k] = -step.decision[k];
    let gap = check_trace(&trace).expect_err("flipped decision must be rejected");
    assert_eq!(gap.rule, "decision-divergence");

    // And a manufactured vote: more Yes votes than present voters.
    let step = trace.steps.first_mut().expect("at least one step");
    step.decision[k] = -step.decision[k]; // restore
    step.yes_counts[k] = step.committee_size + 1;
    let gap = check_trace(&trace).expect_err("manufactured votes must be rejected");
    assert_eq!(gap.rule, "manufactured-votes");
}
