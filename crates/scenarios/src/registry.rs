//! The built-in scenario registry: one named, invariant-gated configuration
//! per adversarial behaviour of §III-C, plus mixed-adversary, workload and
//! scaling sweeps. `scenario-runner --list` prints this table; the README
//! maps each entry to its paper claim.

use cycledger_ledger::StateBackend;
use cycledger_protocol::adversary::{AdversaryConfig, Behavior, BehaviorMix};
use cycledger_protocol::config::ProtocolConfig;
use cycledger_protocol::traffic::{ArrivalShape, TrafficConfig};

use crate::invariant::Invariant;
use crate::spec::{
    FaultInjection, FaultTarget, LatencyProfile, NetFaultInjection, NetFaultKind, Scenario,
};

/// The small two-committee configuration most security scenarios run on:
/// large enough to exercise every phase (cross-shard traffic included),
/// small enough that a full worker-matrix pass stays in the smoke budget.
fn security_config(seed: u64) -> ProtocolConfig {
    ProtocolConfig {
        committees: 2,
        committee_size: 8,
        partial_set_size: 2,
        referee_size: 5,
        txs_per_round: 40,
        accounts_per_shard: 32,
        cross_shard_ratio: 0.25,
        invalid_ratio: 0.05,
        pow_difficulty: 2,
        seed,
        ..ProtocolConfig::default()
    }
}

/// The invariants every scenario asserts: determinism across the worker
/// matrix and across consecutive runs, the standard pipeline shape, and the
/// soundness baseline that no honest node is ever punished.
fn common_invariants() -> Vec<Invariant> {
    vec![
        Invariant::DigestMatchesAcrossWorkerCounts,
        Invariant::DigestStableAcrossRuns,
        Invariant::PipelineComplete,
        Invariant::NoHonestNodePunished,
    ]
}

fn leader_fault_scenario(
    name: &str,
    claim: &str,
    description: &str,
    seed: u64,
    behavior: Behavior,
    extra: Vec<Invariant>,
) -> Scenario {
    let mut scenario = Scenario::new(name, security_config(seed));
    scenario.description = description.into();
    scenario.paper_claim = claim.into();
    scenario.smoke = true;
    scenario.faults.push(FaultInjection {
        round: 0,
        target: FaultTarget::Leader(0),
        behavior,
    });
    scenario.invariants = common_invariants();
    scenario.invariants.extend([
        Invariant::AllInjectedLeaderFaultsRecovered,
        Invariant::MinEvictions(1),
    ]);
    scenario.invariants.extend(extra);
    scenario
}

/// Builds the full built-in registry.
pub fn builtin_scenarios() -> Vec<Scenario> {
    let mut scenarios = Vec::new();

    // 1 — honest baseline: liveness and throughput with no adversary.
    let mut honest = Scenario::new("honest-baseline", security_config(101));
    honest.description = "No adversary: every round produces a block, nobody is evicted, valid \
         transactions are accepted at a high rate."
        .into();
    honest.paper_claim = "§IV (liveness)".into();
    honest.smoke = true;
    honest.invariants = common_invariants();
    honest.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::NoEvictions,
        Invariant::MinMeanAcceptanceRate(0.9),
        Invariant::PackedWithinOfferedValid,
    ]);
    scenarios.push(honest);

    // 2-5 — one scenario per leader fault of §III-C.
    scenarios.push(leader_fault_scenario(
        "silent-leader",
        "Claim 3 (completeness)",
        "A fail-silent leader is detected via the partial set and evicted; \
         blocks keep flowing.",
        102,
        Behavior::SilentLeader,
        vec![Invariant::BlocksEveryRound],
    ));
    scenarios.push(leader_fault_scenario(
        "equivocating-leader",
        "Claim 3 / Algorithm 3",
        "A leader proposing different payloads to different committee halves \
         is caught by the Algorithm 3 abort, a signed witness is produced, \
         and the leader is evicted.",
        103,
        Behavior::EquivocatingLeader,
        vec![Invariant::MinWitnesses(1), Invariant::BlocksEveryRound],
    ));
    scenarios.push(leader_fault_scenario(
        "mismatched-commitment",
        "Theorem 2",
        "A leader whose semi-commitment does not match the member list is \
         impeached on an unforgeable witness.",
        104,
        Behavior::MismatchedCommitment,
        vec![Invariant::MinWitnesses(1)],
    ));
    let mut censor = leader_fault_scenario(
        "censoring-leader",
        "Lemma 6",
        "A leader concealing cross-shard transaction lists is reported by \
         timeout, evicted, and the censored transactions still apply via the \
         partial set.",
        105,
        Behavior::CensoringLeader,
        vec![
            Invariant::MinCensorshipReports(1),
            Invariant::CensoredCrossShardTxsEventuallyApply,
            Invariant::BlocksEveryRound,
        ],
    );
    censor.config.cross_shard_ratio = 0.8;
    censor.config.invalid_ratio = 0.0;
    scenarios.push(censor);

    // 6 — wrong voters: reputation punishes systematic misvoting (§VII-B).
    let mut wrong = Scenario::new("wrong-voters", security_config(106));
    wrong.config.adversary = AdversaryConfig::with_behavior(0.25, Behavior::WrongVoter);
    wrong.description = "A quarter of nodes vote the opposite of their honest judgement on \
         every transaction: blocks still flow and none of them out-earns the \
         best honest node."
        .into();
    wrong.paper_claim = "§VII-B".into();
    wrong.smoke = true;
    wrong.invariants = common_invariants();
    wrong.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::MaliciousNeverOutearnHonest,
        Invariant::AdversaryBoundRespected,
    ]);
    scenarios.push(wrong);

    // 7 — lazy voters: free-riding earns nothing (§VII-A).
    let mut lazy = Scenario::new("lazy-voters", security_config(107));
    lazy.config.adversary = AdversaryConfig::with_behavior(0.25, Behavior::LazyVoter);
    lazy.description = "A quarter of nodes always vote Unknown: their reputation stalls at \
         the bottom while honest voters accumulate scores."
        .into();
    lazy.paper_claim = "§VII-A".into();
    lazy.smoke = true;
    lazy.invariants = common_invariants();
    lazy.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::MaliciousNeverOutearnHonest,
    ]);
    scenarios.push(lazy);

    // 8 — false accusers: fabricated witnesses never evict honest leaders
    // (Claim 4's premise of honest leaders and referees is enforced by
    // per-round injections, as the paper's w.h.p. argument needs real sizes).
    let mut framed = Scenario::new("false-accusers", security_config(108));
    framed.config.adversary = AdversaryConfig::with_behavior(0.3, Behavior::FalseAccuser);
    framed.description = "Malicious partial-set members submit fabricated witnesses against \
         honest leaders every round; soundness holds and nobody is evicted."
        .into();
    framed.paper_claim = "Claim 4 (soundness)".into();
    framed.smoke = true;
    for round in 0..3 {
        framed.faults.push(FaultInjection {
            round,
            target: FaultTarget::AllLeaders,
            behavior: Behavior::Honest,
        });
        framed.faults.push(FaultInjection {
            round,
            target: FaultTarget::AllReferees,
            behavior: Behavior::Honest,
        });
    }
    framed.invariants = common_invariants();
    framed
        .invariants
        .extend([Invariant::NoEvictions, Invariant::BlocksEveryRound]);
    scenarios.push(framed);

    // 9 — mixed adversary: every behaviour at once under the paper bound.
    let mut mixed = Scenario::new("mixed-adversary", security_config(109));
    mixed.config.adversary = AdversaryConfig::uniform(0.25);
    mixed.config.cross_shard_ratio = 0.3;
    mixed.description = "A quarter of nodes drawn uniformly over all seven malicious \
         behaviours: the protocol keeps producing blocks without ever \
         punishing an honest node."
        .into();
    mixed.paper_claim = "§III-C (adversary model)".into();
    mixed.smoke = true;
    mixed.invariants = common_invariants();
    mixed.invariants.extend([
        Invariant::MinBlocksProduced(2),
        Invariant::AdversaryBoundRespected,
    ]);
    scenarios.push(mixed);

    // 10 — adversary-bound clamp: a nominal 50% adversary is deterministically
    // clamped to the paper's t < n/3 before assignment.
    let mut clamp = Scenario::new("adversary-bound-clamp", security_config(110));
    clamp.config.adversary = AdversaryConfig {
        malicious_fraction: 0.5,
        mix: BehaviorMix::Uniform,
    };
    clamp.description = "A nominal 50% corruption request is clamped to the paper's t < n/3 \
         bound at assignment time; under the clamped adversary the protocol \
         still makes progress."
        .into();
    clamp.paper_claim = "§III-C (t < n/3)".into();
    clamp.smoke = true;
    clamp.invariants = common_invariants();
    clamp.invariants.extend([
        Invariant::AdversaryBoundRespected,
        Invariant::MinBlocksProduced(1),
    ]);
    scenarios.push(clamp);

    // 11 — cross-shard heavy workload (no adversary).
    let mut cross = Scenario::new("cross-shard-heavy", security_config(111));
    cross.config.cross_shard_ratio = 0.8;
    cross.config.invalid_ratio = 0.0;
    cross.description = "80% cross-shard workload through the inter-committee path: \
         everything applies, every round."
        .into();
    cross.paper_claim = "§IV-D".into();
    cross.invariants = common_invariants();
    cross.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::CensoredCrossShardTxsEventuallyApply,
        Invariant::MinMeanAcceptanceRate(0.8),
        Invariant::PackedWithinOfferedValid,
    ]);
    scenarios.push(cross);

    // 12 — invalid flood: committees filter garbage.
    let mut invalid = Scenario::new("invalid-flood", security_config(112));
    invalid.config.invalid_ratio = 0.5;
    invalid.description = "Half the offered transactions are deliberately invalid: none of \
         them reaches a block, valid ones still flow."
        .into();
    invalid.paper_claim = "§IV-C (validation)".into();
    invalid.invariants = common_invariants();
    invalid.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::PackedWithinOfferedValid,
        Invariant::MinMeanAcceptanceRate(0.8),
        Invariant::NoEvictions,
    ]);
    scenarios.push(invalid);

    // 13 — WAN latency profile: the protocol tolerates stretched bounds.
    let mut wan = Scenario::new("wan-latency", security_config(113));
    wan.config.latency = LatencyProfile::Wan.config();
    wan.rounds = 2;
    wan.description = "The stretched wide-area latency profile (Δ=150ms, Γ=600ms): \
         synchrony-bound phases still complete every round."
        .into();
    wan.paper_claim = "§III-B (network model)".into();
    wan.invariants = common_invariants();
    wan.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::MinMeanAcceptanceRate(0.9),
    ]);
    scenarios.push(wan);

    // 14 — scaling sweep: 4 committees x 12 members.
    let mut scale4 = Scenario::new(
        "scaling-4x12",
        ProtocolConfig {
            committees: 4,
            committee_size: 12,
            partial_set_size: 3,
            referee_size: 7,
            txs_per_round: 120,
            accounts_per_shard: 48,
            cross_shard_ratio: 0.3,
            invalid_ratio: 0.05,
            pow_difficulty: 2,
            seed: 114,
            ..ProtocolConfig::default()
        },
    );
    scale4.description = "Four committees of twelve: the failure-probability cross-check ties \
         the analysis crate's exact hypergeometric bound to the scenario's \
         (n, t, m, c, λ)."
        .into();
    scale4.paper_claim = "§VI / Table I row 4".into();
    scale4.invariants = common_invariants();
    scale4.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::FailureProbabilityBelow(0.2),
    ]);
    scenarios.push(scale4);

    // 15 — scaling sweep: 8 committees x 8 members.
    let mut scale8 = Scenario::new(
        "scaling-8x8",
        ProtocolConfig {
            committees: 8,
            committee_size: 8,
            partial_set_size: 3,
            referee_size: 5,
            txs_per_round: 160,
            accounts_per_shard: 24,
            cross_shard_ratio: 0.3,
            invalid_ratio: 0.05,
            pow_difficulty: 2,
            seed: 115,
            ..ProtocolConfig::default()
        },
    );
    scale8.rounds = 2;
    scale8.description = "Eight committees of eight: the widest shard fan-out in the matrix, \
         exercising the executor across more shards than workers."
        .into();
    scale8.paper_claim = "§VI (scalability)".into();
    scale8.invariants = common_invariants();
    scale8.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::FailureProbabilityBelow(0.35),
    ]);
    scenarios.push(scale8);

    scenarios.extend(network_scenarios());
    scenarios.extend(epoch_scenarios());
    scenarios.extend(traffic_scenarios());
    scenarios.extend(state_scenarios());

    scenarios
}

/// The network-fault family: partitions with heal points, a delay attack, a
/// loss window, and clean baselines pinning that the envelope data plane
/// itself neither times out nor drifts.
fn network_scenarios() -> Vec<Scenario> {
    let mut scenarios = Vec::new();

    // 16 — clean message-driven baseline: the envelope data plane changes no
    // outcome on a healthy network.
    let mut baseline = Scenario::new("message-driven-baseline", security_config(120));
    baseline.description = "Committee traffic (TXList, votes, Algorithm 3, forwards, recovery) \
         rides the discrete-event network with virtual-time deadlines; on a \
         healthy network no deadline ever fires and every valid transaction \
         still lands."
        .into();
    baseline.paper_claim = "§III-B (network model)".into();
    baseline.smoke = true;
    baseline.invariants = common_invariants();
    baseline.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::NoQuorumTimeouts,
        Invariant::MinMeanAcceptanceRate(0.9),
        Invariant::PackedWithinOfferedValid,
        Invariant::NoDoubleCommit,
        Invariant::NoEvictions,
    ]);
    scenarios.push(baseline);

    // 17 — partition of a committee majority's worth of common members, with
    // a heal: the quorum-timeout fallback fires, decisions degrade, the
    // impeachment triggered by the missing certificate is itself blocked by
    // the partition (so the honest leader keeps its seat), and liveness
    // fully resumes after the heal.
    let mut partition = Scenario::new("partition-minority", security_config(121));
    partition.rounds = 4;
    partition.description = "Four of committee 0's five common members are severed for rounds \
         0-1 and healed from round 2: vote deadlines fire, the committee's \
         TXdecSET collapses, the impeachment cannot reach a majority under \
         the same partition, and acceptance returns to normal after the heal."
        .into();
    partition.paper_claim = "§III-B (synchrony bounds) / Claim 4 (soundness)".into();
    partition.smoke = true;
    partition.net_faults.push(NetFaultInjection {
        from_round: 0,
        until_round: 2,
        kind: NetFaultKind::IsolateCommons {
            committee: 0,
            count: 4,
        },
    });
    partition.invariants = common_invariants();
    partition.invariants.extend([
        Invariant::MinQuorumTimeouts(2),
        Invariant::MinNetDroppedMessages(1),
        Invariant::BlocksEveryRound,
        Invariant::NoEvictions,
        Invariant::MinAcceptanceFromRound(2, 0.9),
        Invariant::NoDoubleCommit,
    ]);
    scenarios.push(partition);

    // 18 — isolated leader: a leader severed from its whole committee is
    // indistinguishable from a fail-silent one, so the committee impeaches
    // and replaces it and the round still completes. The synchrony
    // assumption is violated *for that node*, so this is the one documented
    // case where an honest node loses its seat — which is why the scenario
    // asserts eviction rather than `NoHonestNodePunished`.
    let mut isolated = Scenario::new("partition-isolated-leader", security_config(122));
    isolated.rounds = 3;
    isolated.description = "The leader of committee 0 is severed from everyone in round 0 and \
         healed afterwards: no TXList or proposal escapes the partition, the \
         committee times out, impeaches the unreachable leader, retries under \
         a partial-set member, and keeps producing blocks."
        .into();
    isolated.paper_claim = "Claim 3 (completeness, under a synchrony violation)".into();
    isolated.net_faults.push(NetFaultInjection {
        from_round: 0,
        until_round: 1,
        kind: NetFaultKind::IsolateLeader { committee: 0 },
    });
    isolated.invariants = vec![
        Invariant::DigestMatchesAcrossWorkerCounts,
        Invariant::DigestStableAcrossRuns,
        Invariant::PipelineComplete,
        Invariant::MinQuorumTimeouts(1),
        Invariant::MinEvictions(1),
        Invariant::BlocksEveryRound,
        Invariant::BlocksFromRound(1),
        Invariant::NoDoubleCommit,
    ];
    scenarios.push(isolated);

    // 19 — targeted delay attack: a partial-set straggler's votes are pushed
    // past the 4Δ deadline without a single message being lost. The timeout
    // path is taken every partitioned round, yet decisions are unchanged
    // (the other seven members carry the strict majority) — a pure timing
    // perturbation.
    let mut straggler = Scenario::new("targeted-delay-straggler", security_config(123));
    straggler.rounds = 3;
    straggler.description = "All traffic to and from one partial-set member of committee 0 is \
         delayed by 600 ms for rounds 0-1 (the vote deadline is 4Δ = 200 ms): \
         its votes expire to Unknown, the quorum-timeout path fires, and \
         nothing else changes — no losses, no evictions, full acceptance."
        .into();
    straggler.paper_claim = "§III-B (delay attacks within synchrony bounds)".into();
    straggler.smoke = true;
    straggler.net_faults.push(NetFaultInjection {
        from_round: 0,
        until_round: 2,
        kind: NetFaultKind::Delay {
            target: FaultTarget::PartialSetMember {
                committee: 0,
                index: 0,
            },
            micros: 600_000,
        },
    });
    straggler.invariants = common_invariants();
    straggler.invariants.extend([
        Invariant::MinQuorumTimeouts(2),
        Invariant::BlocksEveryRound,
        Invariant::MinMeanAcceptanceRate(0.9),
        Invariant::NoEvictions,
        Invariant::NoDoubleCommit,
    ]);
    scenarios.push(straggler);

    // 20 — loss burst: a lossy window over the first two rounds, healed
    // afterwards. Dropped envelopes perturb vote collection; liveness and
    // safety hold throughout and acceptance recovers once the loss clears.
    let mut lossy = Scenario::new("loss-burst", security_config(124));
    lossy.rounds = 4;
    lossy.description = "Every message is dropped with probability 15% during rounds 0-1 \
         (deterministically sampled): some votes and echoes vanish, deadlines \
         fire, blocks keep flowing, nothing commits twice, and acceptance \
         recovers from round 2 on."
        .into();
    lossy.paper_claim = "§III-B (partial synchrony)".into();
    lossy.net_faults.push(NetFaultInjection {
        from_round: 0,
        until_round: 2,
        kind: NetFaultKind::Loss { ppm: 150_000 },
    });
    lossy.invariants = vec![
        Invariant::DigestMatchesAcrossWorkerCounts,
        Invariant::DigestStableAcrossRuns,
        Invariant::PipelineComplete,
        Invariant::MinNetDroppedMessages(10),
        Invariant::MinBlocksProduced(3),
        Invariant::BlocksFromRound(2),
        Invariant::MinAcceptanceFromRound(2, 0.9),
        Invariant::NoDoubleCommit,
    ];
    scenarios.push(lossy);

    // 21 — WAN + message-driven: deadlines are derived from Δ/Γ, so the
    // stretched profile produces no spurious timeouts.
    let mut wan = Scenario::new("message-driven-wan", security_config(125));
    wan.config.latency = LatencyProfile::Wan.config();
    wan.rounds = 2;
    wan.description = "The message-driven plane under the wide-area profile (Δ=150ms, \
         Γ=600ms): virtual-time deadlines scale with the synchrony bounds, so \
         a healthy WAN round never times out."
        .into();
    wan.paper_claim = "§III-B (network model)".into();
    wan.invariants = common_invariants();
    wan.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::NoQuorumTimeouts,
        Invariant::MinMeanAcceptanceRate(0.9),
        Invariant::NoDoubleCommit,
    ]);
    scenarios.push(wan);

    scenarios
}

/// The epoch-lifecycle family: committee reconfiguration every E rounds with
/// validator churn, state-sync catch-up for joiners, an adversary whose
/// corrupt fraction drifts toward the paper's `t` as malicious validators
/// join, and a handover attacked by a partition. The base `security_config`
/// geometry has 21 nodes against a sortition floor of 12, leaving headroom
/// for the leave lottery.
fn epoch_scenarios() -> Vec<Scenario> {
    let mut scenarios = Vec::new();

    // 22 — epoch baseline: three clean boundaries. Every joiner catches up
    // at its own boundary, nobody votes while
    // `Syncing`, and the pre-epoch phases stay byte-identical (the epoch
    // machinery runs *between* rounds, never inside the pipeline).
    let mut baseline = Scenario::new("epoch-baseline", security_config(130));
    baseline.rounds = 6;
    baseline.config.epoch_length = 2;
    baseline.config.joins_per_epoch = 2;
    baseline.config.leaves_per_epoch = 1;
    baseline.description = "Epochs of two rounds with two joins and one leave per boundary: the \
         PVSS beacon re-seeds sortition, committees reshuffle with reputation \
         carry-over, every joiner completes state sync at its own boundary, \
         and blocks keep flowing through all three transitions."
        .into();
    baseline.paper_claim = "§VII-A (epochal reconfiguration)".into();
    baseline.smoke = true;
    baseline.invariants = common_invariants();
    baseline.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::MinEpochTransitions(3),
        Invariant::MinSynced(6),
        Invariant::NoSyncingVotes,
        Invariant::PackedWithinOfferedValid,
    ]);
    scenarios.push(baseline);

    // 23 — steady churn: four boundaries, two joins and two leaves each,
    // every committee message on the discrete-event network. The validator
    // set turns over by ~40% across the run
    // while liveness and safety hold.
    let mut churn = Scenario::new("churn-steady", security_config(131));
    churn.rounds = 8;
    churn.config.epoch_length = 2;
    churn.config.joins_per_epoch = 2;
    churn.config.leaves_per_epoch = 2;
    churn.description = "Eight message-driven rounds across four epoch boundaries, each \
         admitting two validators and retiring up to two by lottery: state \
         sync rides the same network as consensus, every joiner turns Active \
         at its boundary, and no transaction ever commits twice."
        .into();
    churn.paper_claim = "§VII-A (validator churn)".into();
    churn.smoke = true;
    churn.invariants = common_invariants();
    churn.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::MinEpochTransitions(4),
        Invariant::MinSynced(8),
        Invariant::NoSyncingVotes,
        Invariant::NoDoubleCommit,
    ]);
    scenarios.push(churn);

    // 24 — adversarial epoch: joiner NodeIds are predictable (appended
    // contiguously), so the spec flips each admitted pair malicious one
    // round after its boundary. The corrupt fraction drifts from 4/21 up to
    // exactly the paper bound of 8/27 — the protocol must hold at t, not
    // just below it.
    let mut adversarial = Scenario::new("adversarial-epoch", security_config(134));
    adversarial.rounds = 6;
    adversarial.config.epoch_length = 2;
    adversarial.config.joins_per_epoch = 2;
    adversarial.config.adversary = AdversaryConfig::uniform(0.2);
    adversarial.description = "Every epoch's two joiners are corrupted right after admission \
         (wrong-voter / lazy-voter), drifting the corrupt fraction from 4 of \
         21 to the exact t < n/3 bound at 8 of 27: blocks keep flowing, \
         syncing members never vote, and no honest node is punished."
        .into();
    adversarial.paper_claim = "§III-C (t < n/3, adaptive joins)".into();
    for (round, joiner) in [(2, 21), (2, 22), (4, 23), (4, 24)] {
        adversarial.faults.push(FaultInjection {
            round,
            target: FaultTarget::Node(joiner),
            behavior: if joiner % 2 == 1 {
                Behavior::WrongVoter
            } else {
                Behavior::LazyVoter
            },
        });
    }
    adversarial.invariants = common_invariants();
    adversarial.invariants.extend([
        Invariant::AdversaryBoundRespected,
        Invariant::MinEpochTransitions(3),
        Invariant::NoSyncingVotes,
        Invariant::MinBlocksProduced(4),
        Invariant::NoDoubleCommit,
    ]);
    scenarios.push(adversarial);

    // 25 — handover under partition: the joiner id range (including ids that
    // do not exist yet) is severed across two boundaries, so state sync
    // times out with bounded backoff and the joiners stay `Syncing` —
    // abstaining, never voting — until the heal at round 4 lets the
    // start-of-round retry succeed.
    let mut handover = Scenario::new("handover-under-partition", security_config(133));
    handover.rounds = 6;
    handover.config.epoch_length = 2;
    handover.config.joins_per_epoch = 2;
    handover.description = "A partition severs every joining validator through rounds 1-3, \
         covering two epoch boundaries: their state-sync sessions time out \
         through peer rotation and backoff, they abstain (counted Unknown) \
         without ever voting, the sitting committees keep producing blocks, \
         and the round-4 heal lets every delayed joiner catch up."
        .into();
    handover.paper_claim = "§VII-A (handover) / §III-B (synchrony)".into();
    handover.net_faults.push(NetFaultInjection {
        from_round: 1,
        until_round: 4,
        kind: NetFaultKind::IsolateJoiners,
    });
    handover.invariants = common_invariants();
    handover.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::MinEpochTransitions(3),
        Invariant::MinSyncTimeouts(1),
        Invariant::MinSynced(6),
        Invariant::NoSyncingVotes,
        Invariant::NoDoubleCommit,
    ]);
    scenarios.push(handover);

    scenarios
}

/// The open-loop traffic family: transactions arrive on a virtual-time
/// clock at a configured rate instead of being replenished to a full batch
/// each round, and the scenarios assert latency/throughput SLOs on top of
/// the usual safety invariants. The base `security_config` geometry sustains
/// `txs_per_round / (8Δ + 4Γ)` ≈ 33 tx/s, so 20 tx/s is comfortably
/// under-provisioned and 66 tx/s is a deliberate 2× overload.
fn traffic_scenarios() -> Vec<Scenario> {
    let mut scenarios = Vec::new();

    // 26 — under-provisioned constant arrivals: every transaction confirms
    // within its own round, so the p99 confirm latency stays below one
    // nominal round (24Δ) and the sustained throughput tracks the offered
    // rate minus the deliberately-invalid fraction.
    let mut baseline = Scenario::new("traffic-baseline", security_config(135));
    baseline.rounds = 5;
    baseline.config.traffic = Some(TrafficConfig {
        rate_tps: 20.0,
        shape: ArrivalShape::Constant,
        warmup_rounds: 1,
    });
    baseline.description = "Open-loop constant arrivals at 20 tx/s against ~33 tx/s of round \
         capacity: no backlog forms, every arrival confirms inside its own \
         round, and the p99 confirm latency stays below one nominal round \
         duration (24Δ)."
        .into();
    baseline.paper_claim = "§VIII (latency evaluation)".into();
    baseline.smoke = true;
    baseline.invariants = common_invariants();
    baseline.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::PackedWithinOfferedValid,
        Invariant::MaxP99Latency(26.0),
        Invariant::MinSustainedTps(17.0),
    ]);
    scenarios.push(baseline);

    // 27 — Poisson arrivals at the same mean rate: bursts may momentarily
    // exceed per-round capacity (an arrival can slip one round), so the
    // latency bound is looser, but the sustained rate still tracks the mean.
    let mut poisson = Scenario::new("traffic-poisson", security_config(136));
    poisson.rounds = 6;
    poisson.config.traffic = Some(TrafficConfig {
        rate_tps: 20.0,
        shape: ArrivalShape::Poisson,
        warmup_rounds: 1,
    });
    poisson.description = "Open-loop Poisson arrivals with a 20 tx/s mean: inter-arrival gaps \
         are drawn from the exponential inverse-CDF on the deterministic \
         DRBG, bursts stay within a round or two of capacity, and throughput \
         converges on the offered mean."
        .into();
    poisson.paper_claim = "§VIII (latency evaluation)".into();
    poisson.smoke = true;
    poisson.invariants = common_invariants();
    poisson.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::PackedWithinOfferedValid,
        Invariant::MaxP99Latency(50.0),
        Invariant::MinSustainedTps(14.0),
    ]);
    scenarios.push(poisson);

    // 28 — 2× overload: arrivals outpace capacity, the backlog grows without
    // bound, and confirm latency diverges — but the *sustained* throughput
    // pins at round capacity, which is the saturation property the
    // `gen_bench_latency` knee sweep measures. No latency SLO is asserted
    // because none can hold past saturation.
    let mut overload = Scenario::new("traffic-overload", security_config(137));
    overload.rounds = 6;
    overload.config.traffic = Some(TrafficConfig {
        rate_tps: 66.0,
        shape: ArrivalShape::Constant,
        warmup_rounds: 1,
    });
    overload.description = "Open-loop constant arrivals at 66 tx/s against ~33 tx/s of \
         capacity: the backlog grows every round and waiting time diverges, \
         yet the pipeline keeps confirming at full round capacity — saturated \
         but never collapsing."
        .into();
    overload.paper_claim = "§VIII (throughput saturation)".into();
    overload.smoke = true;
    overload.invariants = common_invariants();
    overload.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::PackedWithinOfferedValid,
        Invariant::MinSustainedTps(25.0),
    ]);
    scenarios.push(overload);

    // 29 — the long soak: ten thousand rounds of open-loop traffic across a
    // hundred epoch boundaries under the uniform adversary mix. Single
    // worker count and `smoke = false` keep it out of the debug-mode matrix
    // (the release-mode latency gate runs it via
    // `scenario-runner --scenario traffic-soak-10k`).
    let mut soak = Scenario::new("traffic-soak-10k", security_config(138));
    soak.rounds = 10_000;
    soak.workers = vec![1];
    soak.config.traffic = Some(TrafficConfig {
        rate_tps: 20.0,
        shape: ArrivalShape::Poisson,
        warmup_rounds: 2,
    });
    soak.config.epoch_length = 100;
    soak.config.joins_per_epoch = 1;
    soak.config.leaves_per_epoch = 1;
    soak.config.adversary = AdversaryConfig::uniform(0.2);
    soak.description = "Ten thousand rounds of 20 tx/s Poisson traffic with a fifth of the \
         nodes drawn uniformly over every malicious behaviour and a churn \
         boundary every hundred rounds: latency SLOs hold across ~100 epochs \
         of leader faults, censorship stalls, and validator turnover."
        .into();
    soak.paper_claim = "§VIII (sustained operation) / §VII-A".into();
    soak.smoke = false;
    // `NoHonestNodePunished` is deliberately absent: the paper's soundness
    // claim is w.h.p. *per round*, and at this small geometry (committees of
    // 8, referee set of 5) the per-round failure probability is large enough
    // that ten thousand adversarial rounds are statistically guaranteed to
    // evict a handful of honest nodes — observed: ~7 per 10k rounds. The
    // scaling scenarios pin that probability analytically via
    // `FailureProbabilityBelow`; the soak instead asserts that throughput
    // and latency SLOs survive the resulting churn.
    soak.invariants = vec![
        Invariant::DigestMatchesAcrossWorkerCounts,
        Invariant::DigestStableAcrossRuns,
        Invariant::PipelineComplete,
    ];
    soak.invariants.extend([
        Invariant::MinBlocksProduced(9_500),
        Invariant::MinEpochTransitions(99),
        Invariant::NoSyncingVotes,
        Invariant::AdversaryBoundRespected,
        Invariant::MaxP99Latency(40.0),
        Invariant::MinSustainedTps(15.0),
        // The one traffic scenario whose rounds leave valid transactions
        // out (failed committees, block-less rounds): they must resolve as
        // censored, not as confirmations of transactions in no block.
        Invariant::ConfirmedEqualsPacked,
    ]);
    scenarios.push(soak);

    scenarios
}

/// The authenticated-state family: the sparse Merkle UTXO backend commits a
/// versioned state root per shard per round (riding each report's
/// canonical bytes), and sampled light-client proofs are verified
/// against exactly those published roots. Validation decisions are identical
/// to the map backend's, so the rest of the matrix is untouched.
fn state_scenarios() -> Vec<Scenario> {
    let mut scenarios = Vec::new();

    // 30 — authenticated baseline: every round publishes one sparse Merkle
    // root per shard, and the run stays deterministic across the worker
    // matrix with the per-round commit folded into block apply.
    let mut auth = Scenario::new("state-authenticated", security_config(140));
    auth.config.state_backend = StateBackend::Smt;
    auth.description = "The sparse Merkle UTXO backend under the standard mixed workload: \
         every round's report carries one state root per shard, blocks keep \
         flowing, and the digests stay schedule-independent with the \
         per-round tree commit folded into block apply."
        .into();
    auth.paper_claim = "§IV-C (authenticated state)".into();
    auth.smoke = true;
    auth.invariants = common_invariants();
    auth.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::StateRootsEveryRound,
        Invariant::PackedWithinOfferedValid,
        Invariant::MinMeanAcceptanceRate(0.8),
    ]);
    scenarios.push(auth);

    // 31 — light clients: sampled inclusion proofs for committed UTXOs and
    // an exclusion proof per shard for a never-credited outpoint, all
    // verified by the crypto crate's standalone verifier against the final
    // round's published roots — the paper's "partial state" reading, where a
    // member holds a root and checks membership without the full set.
    let mut light = Scenario::new("light-client-proof", security_config(141));
    light.config.state_backend = StateBackend::Smt;
    light.rounds = 4;
    light.config.cross_shard_ratio = 0.4;
    light.description = "Four rounds on the sparse Merkle backend, then a light-client audit: \
         eight sampled inclusion proofs per shard plus one exclusion proof \
         per shard, each verified against the last report's state roots with \
         nothing but the root and the proof in hand."
        .into();
    light.paper_claim = "§IV-C (partial state / light verification)".into();
    light.smoke = true;
    light.invariants = common_invariants();
    light.invariants.extend([
        Invariant::BlocksEveryRound,
        Invariant::StateRootsEveryRound,
        Invariant::LightClientProofsVerify(8),
    ]);
    scenarios.push(light);

    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn at_least_twelve_builtins_all_valid_with_unique_names() {
        let scenarios = builtin_scenarios();
        assert!(scenarios.len() >= 12, "only {} builtins", scenarios.len());
        let names: HashSet<_> = scenarios.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario names");
        for s in &scenarios {
            assert_eq!(s.validate(), Ok(()), "{}", s.name);
            assert!(!s.description.is_empty(), "{} has no description", s.name);
            assert!(!s.paper_claim.is_empty(), "{} has no paper claim", s.name);
        }
    }

    #[test]
    fn every_behavior_variant_is_covered_with_an_invariant() {
        let scenarios = builtin_scenarios();
        let mut covered: HashSet<Behavior> = HashSet::new();
        for s in &scenarios {
            assert!(!s.invariants.is_empty());
            for f in &s.faults {
                covered.insert(f.behavior);
            }
            match s.config.adversary.mix {
                BehaviorMix::Fixed(b) => {
                    if s.config.adversary.malicious_fraction > 0.0 {
                        covered.insert(b);
                    }
                }
                BehaviorMix::Uniform => {
                    // Uniform draws over all malicious behaviours.
                    covered.extend([
                        Behavior::SilentLeader,
                        Behavior::EquivocatingLeader,
                        Behavior::MismatchedCommitment,
                        Behavior::CensoringLeader,
                        Behavior::WrongVoter,
                        Behavior::LazyVoter,
                        Behavior::FalseAccuser,
                    ]);
                }
            }
        }
        covered.insert(Behavior::Honest); // the baseline scenario
        assert_eq!(covered.len(), 8, "uncovered behaviours remain");
        // Beyond mix coverage, every leader fault has a *dedicated* scenario
        // with a targeted injection.
        for behavior in [
            Behavior::SilentLeader,
            Behavior::EquivocatingLeader,
            Behavior::MismatchedCommitment,
            Behavior::CensoringLeader,
        ] {
            assert!(
                scenarios
                    .iter()
                    .any(|s| s.faults.iter().any(|f| f.behavior == behavior)),
                "{behavior:?} has no targeted scenario"
            );
        }
    }

    #[test]
    fn traffic_family_is_open_loop_with_slos() {
        let scenarios = builtin_scenarios();
        let traffic: Vec<_> = scenarios
            .iter()
            .filter(|s| s.config.traffic.is_some())
            .collect();
        assert!(traffic.len() >= 4, "traffic family too thin");
        for s in &traffic {
            assert!(
                s.invariants.iter().any(|i| matches!(
                    i,
                    Invariant::MaxP99Latency(_) | Invariant::MinSustainedTps(_)
                )),
                "{}: open-loop scenario asserts no traffic SLO",
                s.name
            );
        }
        // SLO invariants only make sense with an open-loop driver attached;
        // `Scenario::validate` enforces this, the registry must respect it.
        for s in &scenarios {
            if s.config.traffic.is_none() {
                assert!(
                    !s.invariants.iter().any(|i| matches!(
                        i,
                        Invariant::MaxP99Latency(_) | Invariant::MinSustainedTps(_)
                    )),
                    "{}: traffic SLO on a closed-loop scenario",
                    s.name
                );
            }
        }
        // The soak is the only long scenario, and it opts out of the debug
        // matrix via the `rounds > 1000` exemption plus a single-worker list.
        for s in &scenarios {
            if s.rounds > 1000 {
                assert!(!s.smoke, "{}: long scenarios cannot be smoke", s.name);
                assert_eq!(
                    s.workers,
                    vec![1],
                    "{}: long scenarios run one worker",
                    s.name
                );
            }
        }
    }

    #[test]
    fn smoke_subset_is_marked() {
        let smoke = builtin_scenarios().into_iter().filter(|s| s.smoke);
        let smoke: Vec<String> = smoke.map(|s| s.name).collect();
        assert!(smoke.len() >= 8, "smoke matrix too thin: {smoke:?}");
        assert!(smoke.contains(&"honest-baseline".to_string()));
        assert!(smoke.contains(&"mixed-adversary".to_string()));
    }
}
