//! Machine-checkable invariants: each maps one of the paper's claims onto a
//! predicate over a [`ScenarioOutcome`].

use cycledger_analysis::failure::cycledger_round_failure_exact;
use cycledger_net::metrics::Phase;
use cycledger_protocol::adversary::AdversaryConfig;

use crate::outcome::ScenarioOutcome;

/// The phases of the standard pipeline, in protocol order — the
/// [`Invariant::PipelineComplete`] reference sequence, written out here
/// rather than read off the engine's table so that the check is independent
/// of it.
pub const STANDARD_PHASES: [Phase; 7] = [
    Phase::SemiCommitmentExchange,
    Phase::IntraCommitteeConsensus,
    Phase::Recovery,
    Phase::InterCommitteeConsensus,
    Phase::ReputationUpdate,
    Phase::KeyMemberSelection,
    Phase::BlockGeneration,
];

/// A machine-checkable claim over a scenario run.
///
/// Every variant has a canonical kebab-case spec string (see
/// [`Invariant::to_spec`]) used by the TOML schema and the JSON reports;
/// parameterised variants append `:value`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Invariant {
    /// The canonical summary digest is identical for every worker count in
    /// the scenario's matrix (the engine's determinism contract).
    DigestMatchesAcrossWorkerCounts,
    /// Two consecutive fresh runs produce the same digest.
    DigestStableAcrossRuns,
    /// No recovery ever evicted a node that was honest when accused
    /// (soundness, Claim 4 / Theorem 2).
    NoHonestNodePunished,
    /// Every node flipped to a leader fault by an injection was evicted by a
    /// recovery (completeness, Claim 3).
    AllInjectedLeaderFaultsRecovered,
    /// Every offered cross-shard transaction lands in a block despite
    /// censorship (Lemma 6: concealment cannot block cross-shard progress —
    /// anything weaker would be satisfied by uncensored committees alone).
    CensoredCrossShardTxsEventuallyApply,
    /// A block was produced every round (liveness).
    BlocksEveryRound,
    /// At least this many blocks were produced.
    MinBlocksProduced(usize),
    /// Mean acceptance rate of valid offered transactions is at least this.
    MinMeanAcceptanceRate(f64),
    /// No leader was evicted anywhere in the run.
    NoEvictions,
    /// At least this many evictions happened.
    MinEvictions(usize),
    /// At least this many censoring leaders were accused of a timeout (the
    /// report's `censorship_reports`).
    MinCensorshipAccusations(usize),
    /// At least this many signed witnesses were produced.
    MinWitnesses(usize),
    /// No round packs more transactions than it was offered valid ones
    /// (invalid transactions never inflate blocks).
    PackedWithinOfferedValid,
    /// No malicious node ends the run with more reputation than the best
    /// honest node (§VII-A/§VII-B: free-riders stall, cheaters are cut).
    MaliciousNeverOutearnHonest,
    /// The realised corrupted-node count respects the paper's `t < n/3`
    /// bound (the [`AdversaryConfig::assign`] clamp).
    AdversaryBoundRespected,
    /// The analysis crate's exact per-round failure probability for this
    /// scenario's `(n, t, m, c, λ)` stays below the bound (Table I row 4
    /// cross-check).
    FailureProbabilityBelow(f64),
    /// Every round executed the seven standard phases in protocol order
    /// (checked through the engine's observer hooks).
    PipelineComplete,
    /// At least this many quorum-timeout fallbacks fired across the run (a
    /// fault scenario must actually perturb the vote collection, or it
    /// proves nothing).
    MinQuorumTimeouts(usize),
    /// No quorum timeout ever fired (a fault-free run, on any latency
    /// profile, stays on the fast path).
    NoQuorumTimeouts,
    /// The network dropped at least this many envelopes (the partition/loss
    /// schedule really cut traffic).
    MinNetDroppedMessages(u64),
    /// Liveness resumes after a heal: every round from `r` on produced a
    /// block.
    BlocksFromRound(u64),
    /// Acceptance recovers after a heal: the mean acceptance rate over
    /// rounds `>= r` is at least the given rate.
    MinAcceptanceFromRound(u64, f64),
    /// Safety: no transaction was committed twice across the whole chain
    /// (the partition/reorder schedule never double-applied anything).
    NoDoubleCommit,
    /// At least this many epoch transitions (leave lottery, joins, state
    /// sync, committee reshuffle) actually ran — an epoch scenario must
    /// cross boundaries or it proves nothing.
    MinEpochTransitions(usize),
    /// No vote was ever received from a `Syncing` member: a validator that
    /// has not verified its chain tip abstains (counted `Unknown`) until
    /// `SyncDone`, full stop.
    NoSyncingVotes,
    /// At least this many members completed state sync and turned `Active`
    /// across the run's epoch boundaries.
    MinSynced(usize),
    /// At least this many state-sync requests timed out — a
    /// handover-under-partition scenario must actually delay catch-up.
    MinSyncTimeouts(usize),
    /// Open-loop traffic: the p99 confirm latency, measured in Δ units of
    /// the scenario's latency profile, is at most this (the latency SLO).
    /// Requires `config.traffic` — a closed-loop run has no latency
    /// distribution to gate.
    MaxP99Latency(f64),
    /// Open-loop traffic: confirmed throughput over the whole run, in
    /// transactions per second of virtual time, is at least this (the
    /// sustained-rate SLO). Requires `config.traffic`.
    MinSustainedTps(f64),
    /// Open-loop traffic: over the whole run, the transactions reported
    /// confirmed are exactly the transactions packed into blocks — a round
    /// that leaves a transaction out censors it, never confirms it on trust.
    /// Requires `config.traffic`.
    ConfirmedEqualsPacked,
    /// Authenticated state: every round's report carries exactly one sparse
    /// Merkle state root per shard. Requires `state_backend = "smt"` — the
    /// map backend publishes no roots, so the check would be vacuous.
    StateRootsEveryRound,
    /// Light clients: at least this many sampled inclusion proofs (plus one
    /// exclusion proof per shard) verified against the final round's
    /// published state roots, with zero failures and zero mismatches between
    /// the reported roots and the live UTXO sets. Requires
    /// `state_backend = "smt"`.
    LightClientProofsVerify(usize),
}

/// Outcome of checking one invariant.
#[derive(Clone, Debug)]
pub struct InvariantResult {
    /// The canonical spec string of the invariant.
    pub invariant: String,
    /// Whether the invariant held.
    pub passed: bool,
    /// Human-readable evidence (measured values either way).
    pub detail: String,
}

spec_heads!(Invariant, "invariant",
    "digest-matches-across-worker-counts" => DigestMatchesAcrossWorkerCounts,
    "digest-stable-across-runs" => DigestStableAcrossRuns,
    "no-honest-node-punished" => NoHonestNodePunished,
    "all-injected-leader-faults-recovered" => AllInjectedLeaderFaultsRecovered,
    "censored-cross-shard-txs-eventually-apply" => CensoredCrossShardTxsEventuallyApply,
    "blocks-every-round" => BlocksEveryRound,
    "min-blocks" => MinBlocksProduced(n),
    "min-acceptance" => MinMeanAcceptanceRate(rate),
    "no-evictions" => NoEvictions,
    "min-evictions" => MinEvictions(n),
    "min-censorship-reports" => MinCensorshipAccusations(n),
    "min-witnesses" => MinWitnesses(n),
    "packed-within-offered-valid" => PackedWithinOfferedValid,
    "malicious-never-outearn-honest" => MaliciousNeverOutearnHonest,
    "adversary-bound-respected" => AdversaryBoundRespected,
    "failure-probability-below" => FailureProbabilityBelow(p),
    "pipeline-complete" => PipelineComplete,
    "min-quorum-timeouts" => MinQuorumTimeouts(n),
    "no-quorum-timeouts" => NoQuorumTimeouts,
    "min-net-dropped" => MinNetDroppedMessages(n),
    "blocks-from-round" => BlocksFromRound(round),
    "min-acceptance-from" => MinAcceptanceFromRound(round, rate),
    "no-double-commit" => NoDoubleCommit,
    "min-epoch-transitions" => MinEpochTransitions(n),
    "no-syncing-votes" => NoSyncingVotes,
    "min-synced" => MinSynced(n),
    "min-sync-timeouts" => MinSyncTimeouts(n),
    "max-p99-latency" => MaxP99Latency(delta),
    "min-sustained-tps" => MinSustainedTps(tps),
    "confirmed-equals-packed" => ConfirmedEqualsPacked,
    "state-root" => StateRootsEveryRound,
    "light-client-proof" => LightClientProofsVerify(n),
);

impl Invariant {
    /// Checks the invariant against a finished run.
    pub fn check(self, outcome: &ScenarioOutcome) -> InvariantResult {
        let (passed, detail) = self.evaluate(outcome);
        InvariantResult {
            invariant: self.to_spec(),
            passed,
            detail,
        }
    }

    fn evaluate(self, outcome: &ScenarioOutcome) -> (bool, String) {
        let summary = &outcome.summary;
        match self {
            Invariant::DigestMatchesAcrossWorkerCounts => {
                let baseline = &outcome.digest;
                let mismatched: Vec<String> = outcome
                    .worker_digests
                    .iter()
                    .filter(|(_, d)| d != baseline)
                    .map(|(w, d)| format!("{w} workers -> {d}"))
                    .collect();
                if mismatched.is_empty() {
                    let counts: Vec<String> = outcome
                        .worker_digests
                        .iter()
                        .map(|(w, _)| w.to_string())
                        .collect();
                    (
                        true,
                        format!("digest {} at {} workers", baseline, counts.join("/")),
                    )
                } else {
                    (false, format!("digest drift: {}", mismatched.join(", ")))
                }
            }
            Invariant::DigestStableAcrossRuns => {
                let stable = outcome.rerun_digest == outcome.digest;
                (
                    stable,
                    format!(
                        "run 1 -> {}, run 2 -> {}",
                        outcome.digest, outcome.rerun_digest
                    ),
                )
            }
            Invariant::NoHonestNodePunished => {
                let punished = summary.punished_honest();
                (
                    punished.is_empty(),
                    format!("honest nodes evicted: {punished:?}"),
                )
            }
            Invariant::AllInjectedLeaderFaultsRecovered => {
                let injected = outcome.injected_leader_faults();
                let evicted: Vec<_> = summary
                    .rounds
                    .iter()
                    .flat_map(|r| r.evicted_leaders.iter().map(|(_, n)| *n))
                    .collect();
                let missed: Vec<_> = injected
                    .iter()
                    .filter(|f| !evicted.contains(&f.node))
                    .map(|f| f.node)
                    .collect();
                (
                    missed.is_empty(),
                    format!(
                        "{} injected leader fault(s), unrecovered: {missed:?}",
                        injected.len()
                    ),
                )
            }
            Invariant::CensoredCrossShardTxsEventuallyApply => {
                let cross_packed: usize = summary
                    .rounds
                    .iter()
                    .map(|r| r.txs_packed_cross_shard)
                    .sum();
                let cross_offered: usize = summary
                    .rounds
                    .iter()
                    .map(|r| r.txs_offered_cross_shard)
                    .sum();
                // "Eventually apply" must mean *all* of them: a censoring
                // leader conceals only its own committee's lists, so any
                // weaker check would be satisfied by the other committees'
                // unaffected traffic and the Lemma 6 gate would be vacuous.
                (
                    cross_packed == cross_offered,
                    format!("{cross_packed} of {cross_offered} offered cross-shard txs applied"),
                )
            }
            Invariant::BlocksEveryRound => {
                let produced = summary.blocks_produced();
                (
                    produced == summary.num_rounds(),
                    format!("{produced} blocks over {} rounds", summary.num_rounds()),
                )
            }
            Invariant::MinBlocksProduced(min) => at_least(summary.blocks_produced(), min, "blocks"),
            Invariant::MinMeanAcceptanceRate(min) => {
                let rate = summary.mean_acceptance_rate();
                (
                    rate >= min,
                    format!("mean acceptance {rate:.4} (need >= {min})"),
                )
            }
            Invariant::NoEvictions => {
                let evictions = summary.total_evictions();
                (evictions == 0, format!("{evictions} evictions"))
            }
            Invariant::MinEvictions(min) => at_least(summary.total_evictions(), min, "evictions"),
            Invariant::MinCensorshipAccusations(min) => at_least(
                summary.total_censorship_reports(),
                min,
                "censorship reports",
            ),
            Invariant::MinWitnesses(min) => at_least(summary.total_witnesses(), min, "witnesses"),
            Invariant::PackedWithinOfferedValid => {
                let violating: Vec<u64> = summary
                    .rounds
                    .iter()
                    .filter(|r| r.txs_packed > r.txs_offered_valid)
                    .map(|r| r.round)
                    .collect();
                (
                    violating.is_empty(),
                    format!("rounds packing beyond offered-valid: {violating:?}"),
                )
            }
            Invariant::MaliciousNeverOutearnHonest => {
                let best_honest = outcome.best_honest_reputation();
                let best_malicious = outcome.best_malicious_reputation();
                (
                    outcome.malicious_count == 0 || best_malicious <= best_honest + 1e-9,
                    format!(
                        "best malicious reputation {best_malicious:.4} vs best honest {best_honest:.4}"
                    ),
                )
            }
            Invariant::AdversaryBoundRespected => {
                let bound = AdversaryConfig::max_corrupted(outcome.total_nodes);
                (
                    outcome.malicious_count <= bound,
                    format!(
                        "{} of {} nodes malicious (paper bound t <= {bound})",
                        outcome.malicious_count, outcome.total_nodes
                    ),
                )
            }
            Invariant::FailureProbabilityBelow(bound) => {
                let cfg = &outcome.scenario.config;
                let p = cycledger_round_failure_exact(
                    outcome.total_nodes as u64,
                    outcome.malicious_count as u64,
                    cfg.committees as u64,
                    cfg.committee_size as u64,
                    cfg.partial_set_size as u32,
                );
                (
                    p <= bound,
                    format!("exact per-round failure probability {p:.3e} (need <= {bound:.3e})"),
                )
            }
            Invariant::MinQuorumTimeouts(min) => at_least(
                summary.total_quorum_timeouts(),
                min,
                "quorum timeout(s) fired",
            ),
            Invariant::NoQuorumTimeouts => {
                let fired = summary.total_quorum_timeouts();
                (fired == 0, format!("{fired} quorum timeout(s) fired"))
            }
            Invariant::MinNetDroppedMessages(min) => at_least(
                summary.total_net_dropped_messages(),
                min,
                "envelope(s) dropped by the fault plan",
            ),
            Invariant::BlocksFromRound(from) => {
                let missing: Vec<u64> = summary
                    .rounds
                    .iter()
                    .filter(|r| r.round >= from && !r.block_produced)
                    .map(|r| r.round)
                    .collect();
                (
                    missing.is_empty(),
                    format!("rounds >= {from} without a block: {missing:?}"),
                )
            }
            Invariant::MinAcceptanceFromRound(from, min) => {
                let tail: Vec<f64> = summary
                    .rounds
                    .iter()
                    .filter(|r| r.round >= from)
                    .map(|r| r.acceptance_rate())
                    .collect();
                if tail.is_empty() {
                    (false, format!("no rounds at or after round {from}"))
                } else {
                    let mean = tail.iter().sum::<f64>() / tail.len() as f64;
                    (
                        mean >= min,
                        format!("mean acceptance {mean:.4} over rounds >= {from} (need >= {min})"),
                    )
                }
            }
            Invariant::NoDoubleCommit => {
                let dupes = outcome.duplicate_packed_txs;
                (
                    dupes == 0,
                    format!("{dupes} transaction(s) committed more than once"),
                )
            }
            Invariant::MinEpochTransitions(min) => at_least(
                summary.total_epoch_transitions(),
                min,
                "epoch transition(s)",
            ),
            Invariant::NoSyncingVotes => {
                let votes = summary.total_syncing_votes();
                let abstentions = summary.total_syncing_abstentions();
                (
                    votes == 0,
                    format!("{votes} vote(s) received from Syncing members ({abstentions} abstention(s))"),
                )
            }
            Invariant::MinSynced(min) => at_least(
                summary.total_synced(),
                min,
                "member(s) completed state sync",
            ),
            Invariant::MinSyncTimeouts(min) => {
                at_least(summary.total_sync_timeouts(), min, "state-sync timeout(s)")
            }
            Invariant::MaxP99Latency(max_delta) => match &outcome.traffic {
                None => (false, "scenario has no open-loop traffic".into()),
                Some(traffic) => {
                    let p99 = traffic.p99_delta();
                    (
                        p99 <= max_delta,
                        format!(
                            "p99 confirm latency {p99:.2}Δ = {} µs over {} sample(s) \
                             (need <= {max_delta}Δ)",
                            traffic.p99_us, traffic.samples
                        ),
                    )
                }
            },
            Invariant::MinSustainedTps(min_tps) => match &outcome.traffic {
                None => (false, "scenario has no open-loop traffic".into()),
                Some(traffic) => {
                    let tps = traffic.sustained_tps();
                    (
                        tps >= min_tps,
                        format!(
                            "sustained {tps:.2} tps ({} confirmed over {} µs of virtual \
                             time; need >= {min_tps} tps)",
                            traffic.confirmed, traffic.virtual_elapsed_us
                        ),
                    )
                }
            },
            Invariant::ConfirmedEqualsPacked => match &outcome.traffic {
                None => (false, "scenario has no open-loop traffic".into()),
                Some(traffic) => {
                    let packed = summary.total_packed() as u64;
                    (
                        traffic.confirmed == packed,
                        format!(
                            "{} confirmed, {packed} packed, {} censored",
                            traffic.confirmed, traffic.censored
                        ),
                    )
                }
            },
            Invariant::StateRootsEveryRound => {
                let shards = outcome.scenario.config.committees;
                let missing: Vec<u64> = summary
                    .rounds
                    .iter()
                    .filter(|r| r.state_roots.len() != shards)
                    .map(|r| r.round)
                    .collect();
                (
                    missing.is_empty(),
                    format!(
                        "{} round(s) each publishing {shards} shard root(s); \
                         rounds missing roots: {missing:?}",
                        summary.rounds.len()
                    ),
                )
            }
            Invariant::LightClientProofsVerify(min) => match &outcome.proof_audit {
                None => (
                    false,
                    "no proof audit was collected (is the smt backend on?)".into(),
                ),
                Some(audit) => {
                    let failed = (audit.inclusion_checked - audit.inclusion_verified)
                        + (audit.exclusion_checked - audit.exclusion_verified);
                    (
                        failed == 0
                            && audit.root_mismatches == 0
                            && audit.inclusion_verified >= min
                            && audit.exclusion_verified >= 1,
                        format!(
                            "{}/{} inclusion and {}/{} exclusion proof(s) verified \
                             against the final state roots, {} root mismatch(es) \
                             (need >= {min} inclusion)",
                            audit.inclusion_verified,
                            audit.inclusion_checked,
                            audit.exclusion_verified,
                            audit.exclusion_checked,
                            audit.root_mismatches
                        ),
                    )
                }
            },
            Invariant::PipelineComplete => {
                let bad_round = outcome
                    .phase_trace
                    .iter()
                    .position(|phases| phases.as_slice() != STANDARD_PHASES);
                match bad_round {
                    None => (
                        true,
                        format!(
                            "{} rounds x {} standard phases in order",
                            outcome.phase_trace.len(),
                            STANDARD_PHASES.len()
                        ),
                    ),
                    Some(r) => {
                        let ran = outcome.phase_trace[r].iter().map(|p| p.name());
                        let ran: Vec<_> = ran.collect();
                        (false, format!("round {r} ran phases {ran:?}"))
                    }
                }
            }
        }
    }
}

/// A count gate: `value >= min`, with the evidence "`value` `what` (need >=
/// `min`)".
fn at_least<T: PartialOrd + std::fmt::Display>(value: T, min: T, what: &str) -> (bool, String) {
    (value >= min, format!("{value} {what} (need >= {min})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip() {
        let all = [
            Invariant::DigestMatchesAcrossWorkerCounts,
            Invariant::DigestStableAcrossRuns,
            Invariant::NoHonestNodePunished,
            Invariant::AllInjectedLeaderFaultsRecovered,
            Invariant::CensoredCrossShardTxsEventuallyApply,
            Invariant::BlocksEveryRound,
            Invariant::MinBlocksProduced(3),
            Invariant::MinMeanAcceptanceRate(0.95),
            Invariant::NoEvictions,
            Invariant::MinEvictions(2),
            Invariant::MinCensorshipAccusations(1),
            Invariant::MinWitnesses(4),
            Invariant::PackedWithinOfferedValid,
            Invariant::MaliciousNeverOutearnHonest,
            Invariant::AdversaryBoundRespected,
            Invariant::FailureProbabilityBelow(0.25),
            Invariant::PipelineComplete,
            Invariant::MinQuorumTimeouts(2),
            Invariant::NoQuorumTimeouts,
            Invariant::MinNetDroppedMessages(10),
            Invariant::BlocksFromRound(2),
            Invariant::MinAcceptanceFromRound(2, 0.9),
            Invariant::NoDoubleCommit,
            Invariant::MinEpochTransitions(3),
            Invariant::NoSyncingVotes,
            Invariant::MinSynced(4),
            Invariant::MinSyncTimeouts(1),
            Invariant::MaxP99Latency(24.0),
            Invariant::MinSustainedTps(18.5),
            Invariant::ConfirmedEqualsPacked,
            Invariant::StateRootsEveryRound,
            Invariant::LightClientProofsVerify(8),
        ];
        for inv in all {
            assert_eq!(Invariant::from_spec(&inv.to_spec()), Ok(inv));
        }
        assert!(Invariant::from_spec("min-blocks").is_err());
        assert!(Invariant::from_spec("min-blocks:x").is_err());
        assert!(Invariant::from_spec("no-such-claim").is_err());
    }
}
