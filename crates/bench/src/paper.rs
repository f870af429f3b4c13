//! The paper's evaluation (§VI–§VII) as one document: Tables I–II, the
//! tracked round's envelopes and executor batches, Figs. 4–5, the
//! scalability sweep, the dishonest-leader recovery rows, the incentive
//! split and the open-loop latency sweep. Every value is a count,
//! a virtual-time quantity or a
//! deterministic `f64`, so the document is the same on every machine and at
//! every worker count. `gen_paper` prints [`document`]; the committed copy is
//! `BENCH_paper.json` at the repository root, and a test of this module fails
//! when the two differ. `docs/benchmarks.md` says what each block holds.

use std::collections::BTreeMap;

use cycledger_analysis::{
    build_table1, committee_failure_probability, expected_throughput_fraction, kl_bound,
    monte_carlo_failure, partial_set_failure_probability, recovery_comparison_series,
    simplified_bound, table2_prediction, union_bound, ComparisonParams, RoleClass, SystemSize,
};
use cycledger_net::metrics::Phase;
use cycledger_net::topology::NodeId;
use cycledger_protocol::traffic::{capacity_tps, ArrivalShape, TrafficConfig, TrafficSnapshot};
use cycledger_protocol::{
    AdversaryConfig, Behavior, BehaviorMix, ProtocolConfig, RoundReport, Simulation,
    SimulationSummary,
};
use cycledger_reputation::{leader_punishment, reward_mapping, reward_mapping_series};

use crate::{bench_config, epoch_variant, exact_per_round, Json, EPOCH_VARIANT, TRACKED_ROUNDS};

/// The whole evaluation, one block per table or figure.
pub fn document() -> Json {
    Json::obj([
        ("table1", table1()),
        ("table2", table2()),
        ("tracked_round", tracked_round()),
        ("fig4", fig4()),
        ("fig5", fig5()),
        ("scalability", scalability()),
        ("recovery", recovery()),
        ("incentive", incentive()),
        ("latency", latency()),
    ])
}

fn int(n: usize) -> Json {
    Json::Int(n as u64)
}

fn pct(fraction: f64) -> Json {
    Json::Num(100.0 * fraction, 1)
}

fn yes_no(flag: bool) -> Json {
    Json::Str(if flag { "yes" } else { "no" }.into())
}

fn mean(xs: impl ExactSizeIterator<Item = f64>) -> f64 {
    let len = xs.len();
    xs.sum::<f64>() / len as f64
}

fn simulation(config: ProtocolConfig) -> Simulation {
    Simulation::new(config).expect("valid paper configuration")
}

/// Table I: every field of every protocol's profile at the paper's running
/// parameters.
fn table1() -> Json {
    let params = ComparisonParams::paper_default();
    let rows = build_table1(&params).into_iter().map(|row| {
        Json::obj([
            ("protocol", Json::Str(row.protocol.name().into())),
            ("resiliency", Json::Num(row.resiliency, 4)),
            (
                "complexity_units_of_n",
                Json::Num(row.complexity_units_of_n, 1),
            ),
            ("storage_items", Json::Num(row.storage_items, 1)),
            ("round_failure", Json::Exp(row.round_failure, 3)),
            ("decentralization", Json::Str(row.decentralization.into())),
            (
                "efficient_with_dishonest_leaders",
                yes_no(row.efficient_with_dishonest_leaders),
            ),
            ("incentives", yes_no(row.incentives)),
            ("connection_channels", Json::Int(row.connection_channels)),
            ("connection_burden", Json::Str(row.connection_burden.into())),
        ])
    });
    Json::obj([
        ("n", Json::Int(params.n)),
        ("m", Json::Int(params.m)),
        ("c", Json::Int(params.c)),
        ("lambda", Json::Int(params.lambda.into())),
        ("rows", Json::Arr(rows.collect())),
    ])
}

fn role_nodes(report: &RoundReport, role: RoleClass) -> &[NodeId] {
    match role {
        RoleClass::CommonMember => &report.roles.common_members,
        RoleClass::KeyMember => &report.roles.key_members,
        RoleClass::Referee => &report.roles.referee_members,
    }
}

/// Table II: one round's per-node means per phase and role beside the
/// paper's prediction, at m = 4 and m = 8 (c = 12), and how five of them
/// move when m doubles. The committee-configuration rows measure what a
/// node receives of its certified row ([`config_row_means`]).
fn table2() -> Json {
    let c = 12;
    let [small, large] = [4usize, 8].map(|m| {
        let mut sim = simulation(bench_config(m, c, 1));
        let report = sim.run_round().clone();
        (report, config_row_means(&sim))
    });
    let system = |(report, config_rows): &(RoundReport, [(u64, u64); 3]), m: usize| {
        let size = SystemSize::from_committees(m as u64, c as u64);
        let mut rows = Vec::new();
        for phase in Phase::ALL {
            for (role, &config_row) in RoleClass::ALL.into_iter().zip(config_rows) {
                let measured = report.role_phase_mean(role_nodes(report, role), phase);
                let (comm, storage) = match phase {
                    Phase::CommitteeConfiguration => config_row,
                    _ => (measured.comm_bytes(), measured.storage_bytes),
                };
                let predicted = table2_prediction(phase, role, size);
                rows.push(Json::obj([
                    ("phase", Json::Str(phase.label().into())),
                    ("role", Json::Str(role.label().into())),
                    ("comm_bytes_per_node", Json::Int(comm)),
                    ("storage_bytes_per_node", Json::Int(storage)),
                    ("predicted_comm", Json::Num(predicted.communication, 0)),
                    ("predicted_storage", Json::Num(predicted.storage, 0)),
                ]));
            }
        }
        Json::obj([("m", int(m)), ("n", int(m * c)), ("rows", Json::Arr(rows))])
    };
    let doubling = |measure: fn(&RoundReport) -> f64, places| {
        let (at_4, at_8) = (measure(&small.0), measure(&large.0));
        Json::obj([
            ("m4", Json::Num(at_4, places)),
            ("m8", Json::Num(at_8, places)),
            ("ratio", Json::Num(at_8 / at_4.max(1.0), 2)),
        ])
    };
    let m_doubling = Json::obj([
        (
            "common_member_inter_msgs_sent",
            doubling(|r| inter_sends(r, RoleClass::CommonMember), 1),
        ),
        (
            "key_member_inter_msgs_sent",
            doubling(|r| inter_sends(r, RoleClass::KeyMember), 1),
        ),
        (
            "referee_semi_commitment_bytes",
            doubling(
                |r| comm_bytes(r, RoleClass::Referee, Phase::SemiCommitmentExchange),
                0,
            ),
        ),
        (
            "common_member_intra_bytes",
            doubling(
                |r| comm_bytes(r, RoleClass::CommonMember, Phase::IntraCommitteeConsensus),
                0,
            ),
        ),
        (
            "common_member_block_bytes",
            doubling(
                |r| comm_bytes(r, RoleClass::CommonMember, Phase::BlockGeneration),
                0,
            ),
        ),
    ]);
    let systems = vec![system(&small, 4), system(&large, 8)];
    Json::obj([
        ("c", int(c)),
        ("systems", Json::Arr(systems)),
        ("m_doubling", m_doubling),
    ])
}

/// What a node of each role (in [`RoleClass::ALL`] order) receives of its
/// certified configuration row after `sim`'s first round, on average: the
/// row with its path to the rows root, and the row it keeps. A member's
/// configuration is its row of the block's `NextRoundConfig` (Algorithm 2
/// sends nothing of its own), so the row is the phase's measurement; a
/// referee member sits in no committee and receives none.
fn config_row_means(sim: &Simulation) -> [(u64, u64); 3] {
    let block = sim
        .chain()
        .block(0)
        .expect("the first round certifies a block");
    let config = &block.next_round;
    let (outside_sent, outside_kept) = config.share_bytes(None);
    let next = sim.assignment();
    RoleClass::ALL.map(|role| {
        let (mut sent, mut kept, mut nodes) = (0, 0, 0);
        for (j, committee) in next.committees.iter().enumerate() {
            let seated = match role {
                RoleClass::CommonMember => committee.common_members().len(),
                RoleClass::KeyMember => 1 + committee.partial_set.len(),
                RoleClass::Referee => 0,
            } as u64;
            let (row_sent, row_kept) = config.share_bytes(Some(j));
            sent += seated * (row_sent - outside_sent);
            kept += seated * (row_kept - outside_kept);
            nodes += seated;
        }
        (sent / nodes.max(1), kept / nodes.max(1))
    })
}

/// Messages a node of `role` sent in the inter-committee phase, on average.
fn inter_sends(report: &RoundReport, role: RoleClass) -> f64 {
    let nodes = role_nodes(report, role);
    let (total, _) = report
        .metrics
        .group_phase(nodes, Phase::InterCommitteeConsensus);
    total.msgs_sent as f64 / nodes.len().max(1) as f64
}

/// Bytes a node of `role` sent and received in `phase`, on average.
fn comm_bytes(report: &RoundReport, role: RoleClass, phase: Phase) -> f64 {
    report
        .role_phase_mean(role_nodes(report, role), phase)
        .comm_bytes() as f64
}

/// Envelopes sent (every accounting phase), their bytes and the executor
/// batches that ran a task, over [`TRACKED_ROUNDS`] rounds of `config`
/// after one warm-up round.
fn round_counts(config: ProtocolConfig) -> [u64; 3] {
    let mut sim = simulation(config);
    sim.run_round();
    let start = sim.executor().batches_executed();
    for _ in 0..TRACKED_ROUNDS {
        sim.run_round();
    }
    let reports = &sim.reports()[1..];
    let sent = reports
        .iter()
        .flat_map(|r| Phase::ALL.map(|p| r.metrics.phase_total(p)));
    let (messages, bytes) = sent.fold((0, 0), |(m, b), t| (m + t.msgs_sent, b + t.bytes_sent));
    let batches = (sim.executor().batches_executed() - start) as u64;
    [messages, bytes, batches]
}

/// The `tracked_round` block of `config` from the [`round_counts`] of its
/// two series.
fn tracked_round_block(config: &ProtocolConfig, plain: [u64; 3], epoch: [u64; 3]) -> Json {
    let series = |[messages, bytes, batches]: [u64; 3]| {
        Json::obj([
            ("messages_per_round", exact_per_round(messages)),
            ("bytes_per_round", exact_per_round(bytes)),
            ("batches_per_round", exact_per_round(batches)),
        ])
    };
    let description = format!(
        "{} committees x {} members, {} txs/round, seed {}, one warm-up round, then {} rounds",
        config.committees, config.committee_size, config.txs_per_round, config.seed, TRACKED_ROUNDS
    );
    Json::obj([
        ("bench_config", Json::Str(description)),
        ("epoch_bench_config", Json::Str(EPOCH_VARIANT.into())),
        ("plain", series(plain)),
        ("epoch", series(epoch)),
    ])
}

/// What a round of the tracked 8×16 configuration (`gen_bench_round`'s)
/// sends and how many executor barriers it runs, plain and in its epoch
/// variant. Envelopes are virtual and a batch run inline counts like one on
/// the workers, so both repeat at any worker count.
fn tracked_round() -> Json {
    let plain = bench_config(8, 16, 4242);
    let epoch = round_counts(epoch_variant(plain));
    tracked_round_block(&plain, round_counts(plain), epoch)
}

/// Fig. 4: the reward mapping g(x) of Eq. 2, and the cube-root punishment of
/// §VII-B in reward-weight terms.
fn fig4() -> Json {
    let series = reward_mapping_series(-5.0, 10.0, 31)
        .into_iter()
        .map(|(x, g)| Json::obj([("x", Json::Num(x, 2)), ("g", Json::Num(g, 5))]));
    let punishment = [1.0f64, 8.0, 27.0, 125.0, 1000.0].map(|rep| {
        let before = reward_mapping(rep);
        let after = reward_mapping(leader_punishment(rep));
        Json::obj([
            ("reputation", Json::Num(rep, 1)),
            ("g_before", Json::Num(before, 3)),
            ("g_after", Json::Num(after, 3)),
            ("weight_retained_pct", pct(after / before)),
        ])
    });
    Json::obj([
        ("series", Json::Arr(series.collect())),
        ("g_at_0", Json::Num(reward_mapping(0.0), 3)),
        ("g_at_minus_5", Json::Num(reward_mapping(-5.0), 4)),
        (
            "g_at_e_minus_1",
            Json::Num(reward_mapping(std::f64::consts::E - 1.0), 3),
        ),
        ("punishment", Json::Arr(punishment.into())),
    ])
}

/// Fig. 5: the chance that a uniformly sampled committee is at least half
/// malicious (n = 2000, t = 666) — exact, Eq. 4's e^{-c/12}, the KL bound
/// and a 20 000-draw Monte-Carlo estimate where it is above 1e-4 — with the
/// §V-B union bound at c = 240, the §V-C partial-set rows and the bounds the
/// paper states for both.
fn fig5() -> Json {
    let (n, t, samples) = (2000u64, 666u64, 20_000);
    let mut lcg = 0x9e3779b97f4a7c15u64;
    let mut rows = Vec::new();
    for c in (40..=400).step_by(40) {
        let exact = committee_failure_probability(n, t, c);
        let mut row = vec![
            ("c", Json::Int(c)),
            ("exact", Json::Exp(exact, 3)),
            ("exp_minus_c_over_12", Json::Exp(simplified_bound(c), 3)),
            ("kl_bound", Json::Exp(kl_bound(n, t, c), 3)),
        ];
        if exact > 1e-4 {
            let mc = monte_carlo_failure(n, t, c, samples, || {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((lcg >> 11) as f64) / ((1u64 << 53) as f64)
            });
            row.push(("monte_carlo", Json::Num(mc, 4)));
        }
        rows.push(Json::obj(row));
    }
    let p240 = committee_failure_probability(n, t, 240);
    let partial_set = [10u32, 20, 30, 40, 50, 60].map(|lambda| {
        let p = partial_set_failure_probability(lambda);
        Json::obj([
            ("lambda", Json::Int(lambda.into())),
            ("one_third_pow_lambda", Json::Exp(p, 3)),
            ("union_bound_m20", Json::Exp(union_bound(20, p), 3)),
        ])
    });
    Json::obj([
        ("n", Json::Int(n)),
        ("t", Json::Int(t)),
        ("monte_carlo_samples", Json::Int(samples)),
        ("rows", Json::Arr(rows)),
        ("union_bound_c240_m20", Json::Exp(union_bound(20, p240), 3)),
        ("partial_set", Json::Arr(partial_set.into())),
        (
            "paper_claims",
            Json::obj([
                ("failure_c240_below", Json::Exp(2.1e-9, 1)),
                ("union_bound_c240_m20_below", Json::Exp(5e-8, 0)),
                ("one_third_pow_40_below", Json::Exp(8e-20, 0)),
                ("union_bound_lambda40_m20_below", Json::Exp(2e-18, 0)),
            ]),
        ),
    ])
}

/// §III-D: packed transactions per round as m grows at c = 10, with the
/// offered load proportional to m.
fn scalability() -> Json {
    let mut per_committee = Vec::new();
    let mut rows = Vec::new();
    for m in [2usize, 4, 6, 8] {
        let config = bench_config(m, 10, 17);
        let (n, offered) = (config.ordinary_nodes(), config.txs_per_round);
        let packed = simulation(config).run(2).mean_throughput();
        per_committee.push(packed / m as f64);
        rows.push(Json::obj([
            ("committees", int(m)),
            ("n", int(n)),
            ("offered", int(offered)),
            ("packed_per_round", Json::Num(packed, 1)),
            ("packed_per_committee", Json::Num(packed / m as f64, 1)),
        ]));
    }
    let (first, last) = (per_committee[0], per_committee[per_committee.len() - 1]);
    Json::obj([
        ("committee_size", Json::Int(10)),
        ("rows", Json::Arr(rows)),
        (
            "per_committee_spread_pct",
            Json::Num(100.0 * (last - first).abs() / first.max(1e-9), 0),
        ),
    ])
}

/// The leader behaviours the recovery rows force.
const DISHONEST_LEADERS: [Behavior; 4] = [
    Behavior::SilentLeader,
    Behavior::EquivocatingLeader,
    Behavior::CensoringLeader,
    Behavior::MismatchedCommitment,
];

/// Two rounds at 3×10, seed 23, with the first `k` of round one's leaders
/// playing `behavior`. Leaders are the most reputable nodes, so a randomly
/// corrupted fraction would hold no leader seat at genesis: the seats are
/// corrupted directly.
fn recovery_run(behavior: Behavior, k: usize) -> SimulationSummary {
    let mut sim = simulation(bench_config(3, 10, 23));
    for i in 0..k {
        let leader = sim.assignment().committees[i].leader;
        sim.registry_mut().set_behavior(leader, behavior);
    }
    sim.run(2)
}

/// Table I's "High Efficiency w.r.t. Dishonest Leaders" row: for k = 0..=m
/// dishonest first-round leaders, what the simulator packs with recovery on,
/// beside the no-recovery model in which a committee with a faulty leader
/// contributes nothing.
fn recovery() -> Json {
    let m = bench_config(3, 10, 23).committees;
    let baseline = recovery_run(Behavior::Honest, 0)
        .mean_throughput()
        .max(1e-9);
    let mut rows = Vec::new();
    for behavior in DISHONEST_LEADERS {
        for k in 0..=m {
            let summary = recovery_run(behavior, k);
            let packed = summary.mean_throughput();
            let no_recovery = expected_throughput_fraction(k as f64 / m as f64, false, 0.1);
            rows.push(Json::obj([
                ("behavior", Json::Str(format!("{behavior:?}"))),
                ("dishonest_leaders", int(k)),
                ("packed_per_round", Json::Num(packed, 1)),
                ("evictions", int(summary.total_evictions())),
                ("blocks", int(summary.blocks_produced())),
                ("retained_pct", pct(packed / baseline)),
                ("no_recovery_model_pct", pct(no_recovery)),
            ]));
        }
    }
    let series = recovery_comparison_series(5, 1.0 / 3.0, 0.1)
        .into_iter()
        .map(|(f, without, with)| {
            Json::obj([
                ("leader_corruption", Json::Num(f, 2)),
                ("without_recovery_pct", pct(without)),
                ("with_recovery_pct", pct(with)),
            ])
        });
    Json::obj([
        ("committees", int(m)),
        ("committee_size", Json::Int(10)),
        ("rounds", Json::Int(2)),
        ("rows", Json::Arr(rows)),
        ("model_series", Json::Arr(series.collect())),
    ])
}

/// §VII: six rounds at 3×10 with a 25 % mixed adversary and heterogeneous
/// compute — mean reputation and fee share per behaviour class, and the
/// compute↔reputation correlation among honest nodes.
fn incentive() -> Json {
    let rounds = 6;
    let mut config = bench_config(3, 10, 29);
    let malicious_fraction = 0.25;
    config.adversary = AdversaryConfig {
        malicious_fraction,
        mix: BehaviorMix::Uniform,
    };
    config.base_compute_capacity = 40;
    config.compute_capacity_spread = 200;
    config.invalid_ratio = 0.15;
    let mut sim = simulation(config);
    let summary = sim.run(rounds);

    let rep = |id| sim.reputation().get(id);
    let weights: f64 = sim
        .registry()
        .ids()
        .iter()
        .map(|&id| reward_mapping(rep(id)))
        .sum();
    let mut groups: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
    for node in sim.registry().iter() {
        let label = match node.behavior {
            Behavior::Honest => "honest",
            Behavior::LazyVoter => "lazy voter",
            Behavior::WrongVoter => "wrong voter",
            _ => "leader-targeted adversary",
        };
        let r = rep(node.id);
        groups
            .entry(label)
            .or_default()
            .push((r, reward_mapping(r) / weights));
    }
    let classes = groups.iter().map(|(label, rows)| {
        Json::obj([
            ("behavior", Json::Str((*label).into())),
            ("nodes", int(rows.len())),
            (
                "mean_reputation",
                Json::Num(mean(rows.iter().map(|r| r.0)), 3),
            ),
            (
                "mean_fee_share_pct",
                Json::Num(100.0 * mean(rows.iter().map(|r| r.1)), 3),
            ),
        ])
    });

    let honest: Vec<(f64, f64)> = sim
        .registry()
        .iter()
        .filter(|n| n.behavior == Behavior::Honest)
        .map(|n| (n.compute_capacity as f64, rep(n.id)))
        .collect();
    let mean_x = mean(honest.iter().map(|h| h.0));
    let mean_y = mean(honest.iter().map(|h| h.1));
    let cov: f64 = honest
        .iter()
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let var_x: f64 = honest.iter().map(|(x, _)| (x - mean_x).powi(2)).sum();
    let var_y: f64 = honest.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
    let corr = if var_x > 0.0 && var_y > 0.0 {
        cov / (var_x * var_y).sqrt()
    } else {
        0.0
    };
    Json::obj([
        ("rounds", int(rounds)),
        ("malicious_pct", Json::Num(100.0 * malicious_fraction, 0)),
        ("blocks", int(summary.blocks_produced())),
        ("evictions", int(summary.total_evictions())),
        ("classes", Json::Arr(classes.collect())),
        ("honest_compute_reputation_correlation", Json::Num(corr, 3)),
    ])
}

/// One rate of the latency sweep: what was offered, and what the traffic
/// counters read after the run.
struct SweepPoint {
    offered_tps: f64,
    snapshot: TrafficSnapshot,
}

impl SweepPoint {
    /// Twenty open-loop rounds of `config` (two of them warm-up) under
    /// constant arrivals at `rate_tps`. Virtual time makes one pass enough.
    fn measure(mut config: ProtocolConfig, rate_tps: f64) -> SweepPoint {
        config.traffic = Some(TrafficConfig {
            rate_tps,
            shape: ArrivalShape::Constant,
            warmup_rounds: 2,
        });
        let mut sim = simulation(config);
        for _ in 0..20 {
            sim.run_round();
        }
        SweepPoint {
            offered_tps: rate_tps,
            snapshot: sim
                .traffic()
                .expect("an open-loop run has a traffic snapshot"),
        }
    }

    /// The point keeps up when confirmed throughput is within 10 % of the
    /// offered rate: the 5 % deliberately invalid share ([`bench_config`])
    /// plus round-boundary effects.
    fn keeps_up(&self) -> bool {
        self.snapshot.sustained_tps() >= 0.9 * self.offered_tps
    }

    fn json(&self) -> Json {
        let s = &self.snapshot;
        Json::obj([
            ("offered_tps", Json::Num(self.offered_tps, 3)),
            ("sustained_tps", Json::Num(s.sustained_tps(), 3)),
            ("backlog", Json::Int(s.backlog)),
            ("p50_us", Json::Int(s.p50_us)),
            ("p99_us", Json::Int(s.p99_us)),
            ("p999_us", Json::Int(s.p999_us)),
            ("p99_delta", Json::Num(s.p99_delta(), 3)),
            ("samples", Json::Int(s.samples)),
        ])
    }
}

/// The knee of a sweep in ascending rate order: the last rate the pipeline
/// keeps up with, or the first point when it keeps up with none. Past it
/// the backlog grows without bound and waiting time diverges, while
/// confirmed throughput plateaus at the saturated rate.
fn knee(points: &[SweepPoint]) -> &SweepPoint {
    points
        .iter()
        .rev()
        .find(|p| p.keeps_up())
        .unwrap_or(&points[0])
}

/// The tracked point of a sweep in ascending rate order: the highest rate
/// at or below 0.95× `capacity` (0.9× in the committed sweep).
fn tracked(points: &[SweepPoint], capacity: f64) -> &SweepPoint {
    points
        .iter()
        .rfind(|p| p.offered_tps <= 0.95 * capacity)
        .expect("the sweep includes an under-capacity point")
}

/// The saturated rate: the largest throughput the sweep sustained.
fn saturated_tps(points: &[SweepPoint]) -> f64 {
    points
        .iter()
        .map(|p| p.snapshot.sustained_tps())
        .fold(0.0, f64::max)
}

/// §III-B's confirm latency under open-loop load: the 8×16 configuration,
/// seed 4242, swept across offered rates from 0.25× to 1.5× its analytic
/// round capacity (`txs_per_round / (8Δ + 4Γ)`), with the tracked point,
/// the knee and the saturated rate. Arrivals and confirmations are stamped
/// on the simulated clock, so a drift means the protocol changed (packing,
/// round pacing, recovery stalls), never the machine.
fn latency() -> Json {
    let config = bench_config(8, 16, 4242);
    let capacity = capacity_tps(config.txs_per_round, &config.latency);
    let points: Vec<SweepPoint> = [0.25, 0.5, 0.75, 0.9, 1.1, 1.5]
        .map(|fraction| SweepPoint::measure(config, fraction * capacity))
        .into();
    let tracked = tracked(&points, capacity);
    let s = &tracked.snapshot;
    Json::obj([
        (
            "bench_config",
            Json::Str(format!(
                "{} committees x {} members, {} txs/round, seed 4242, constant arrivals, \
                 warmup 2 rounds, capacity {capacity:.1} tps",
                config.committees, config.committee_size, config.txs_per_round
            )),
        ),
        ("capacity_tps", Json::Num(capacity, 3)),
        (
            "sweep",
            Json::Arr(points.iter().map(SweepPoint::json).collect()),
        ),
        (
            "tracked",
            Json::obj([
                ("offered_tps", Json::Num(tracked.offered_tps, 3)),
                ("p50_us", Json::Int(s.p50_us)),
                ("p99_us", Json::Int(s.p99_us)),
                ("p999_us", Json::Int(s.p999_us)),
                ("p99_delta", Json::Num(s.p99_delta(), 3)),
            ]),
        ),
        ("knee_offered_tps", Json::Num(knee(&points).offered_tps, 3)),
        ("saturated_tps", Json::Num(saturated_tps(&points), 3)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Where `committed` and `built` first differ, as a message naming the line,
    /// its key path in `built`, both lines and the command that re-blesses, or
    /// `None` when they are equal.
    fn first_difference(committed: &str, built: &str) -> Option<String> {
        let (old, new): (Vec<&str>, Vec<&str>) =
            (committed.lines().collect(), built.lines().collect());
        let at = (0..old.len().max(new.len())).find(|&i| old.get(i) != new.get(i))?;
        let [was, is] = [&old, &new].map(|doc| doc.get(at).map_or("<end of file>", |l| l.trim()));
        Some(format!(
            "BENCH_paper.json differs from the document the code builds, first at line {} ({}):\n  \
             committed: {}\n  built:     {}\nIf the change is meant, re-bless with\n  \
             cargo run --release -p cycledger-bench --bin gen_paper > BENCH_paper.json",
            at + 1,
            key_path(built, at),
            was,
            is,
        ))
    }

    /// The key path of line `at` (from 0) of a document [`Json`] printed, such
    /// as `table2.systems[0].rows[4].comm_bytes_per_node`.
    fn key_path(doc: &str, at: usize) -> String {
        let mut path: Vec<String> = Vec::new();
        let mut items: Vec<usize> = Vec::new();
        for line in doc.lines().take(at + 1) {
            let text = line.trim_start();
            let depth = (line.len() - text.len()) / 2;
            if text.starts_with(['}', ']']) {
                continue;
            }
            path.truncate(depth.saturating_sub(1));
            if depth > 0 {
                path.push(
                    match text.strip_prefix('"').and_then(|t| t.split_once("\": ")) {
                        Some((key, _)) => format!(".{key}"),
                        None => {
                            items[depth] += 1;
                            format!("[{}]", items[depth] - 1)
                        }
                    },
                );
            }
            if text.ends_with(['{', '[']) {
                items.truncate(depth + 1);
                items.resize(depth + 2, 0);
            }
        }
        path.concat().trim_start_matches('.').to_string()
    }

    #[test]
    fn bench_paper_json_is_the_document_the_code_builds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
        let committed = std::fs::read_to_string(path).expect("BENCH_paper.json is committed");
        if let Some(report) = first_difference(&committed, &format!("{}\n", document())) {
            panic!("{report}");
        }
    }

    #[test]
    fn every_dishonest_leader_is_evicted_by_recovery() {
        let m = bench_config(3, 10, 23).committees;
        for behavior in DISHONEST_LEADERS {
            for k in 1..=m {
                let summary = recovery_run(behavior, k);
                assert!(summary.total_evictions() > 0, "{behavior:?} with k = {k}");
            }
        }
    }

    /// A sweep point offered `offered_tps` that confirmed `sustained_tps`
    /// over one second of virtual time.
    fn point(offered_tps: f64, sustained_tps: u64) -> SweepPoint {
        SweepPoint {
            offered_tps,
            snapshot: TrafficSnapshot {
                injected: offered_tps as u64,
                rejected_invalid: 0,
                confirmed: sustained_tps,
                censored: 0,
                backlog: 0,
                virtual_elapsed_us: 1_000_000,
                delta_us: 50_000,
                p50_us: 0,
                p99_us: 0,
                p999_us: 0,
                max_us: 0,
                mean_us: 0.0,
                samples: sustained_tps,
            },
        }
    }

    #[test]
    fn the_sweep_selects_its_knee_tracked_point_and_saturated_rate() {
        // 0.9 × offered keeps up, less does not; the knee is the last point
        // that keeps up, past one that fell behind.
        let sweep = [
            point(100.0, 90),
            point(200.0, 170),
            point(300.0, 290),
            point(400.0, 340),
        ];
        assert_eq!(knee(&sweep).offered_tps, 300.0);
        assert_eq!(knee(&sweep[..2]).offered_tps, 100.0);
        // Keeping up with none falls back to the first point.
        assert_eq!(knee(&sweep[1..2]).offered_tps, 200.0);
        assert_eq!(
            knee(&[point(100.0, 89), point(200.0, 170)]).offered_tps,
            100.0
        );

        // The tracked point is the highest rate at or below 0.95× capacity.
        assert_eq!(tracked(&sweep, 400.0).offered_tps, 300.0);
        assert_eq!(tracked(&sweep, 300.0).offered_tps, 200.0);
        assert_eq!(tracked(&sweep, 1000.0).offered_tps, 400.0);

        // The saturated rate is the largest sustained rate, wherever it is.
        assert_eq!(saturated_tps(&sweep), 340.0);
        assert_eq!(
            saturated_tps(&[point(400.0, 320), point(500.0, 310)]),
            320.0
        );
    }

    #[test]
    fn a_drift_report_names_the_line_and_key_path() {
        let doc = |storage| {
            Json::obj([(
                "table2",
                Json::obj([(
                    "systems",
                    Json::Arr(vec![Json::obj([(
                        "rows",
                        Json::Arr(vec![
                            Json::obj([("storage", Json::Int(1))]),
                            Json::obj([("comm", Json::Int(2)), ("storage", Json::Int(storage))]),
                        ]),
                    )])]),
                )]),
            )])
            .to_string()
        };
        assert_eq!(first_difference(&doc(3), &doc(3)), None);
        let report = first_difference(&doc(3), &doc(4)).expect("the documents differ");
        assert!(
            report.contains("line 11 (table2.systems[0].rows[1].storage)"),
            "{report}"
        );
        assert!(report.contains("committed: \"storage\": 3\n  built:     \"storage\": 4"));
        assert!(report.contains("--bin gen_paper > BENCH_paper.json"));

        // One byte more in one of the tracked round's sixteen epoch-series
        // rounds.
        let round = |epoch_bytes| {
            let config = bench_config(8, 16, 4242);
            let plain = [57_421, 40_875_408, 80];
            let block = tracked_round_block(&config, plain, [60_472, epoch_bytes, 96]);
            Json::obj([("tracked_round", block)]).to_string()
        };
        let report = first_difference(&round(42_398_544), &round(42_398_545)).expect("moved");
        assert!(
            report.contains("(tracked_round.epoch.bytes_per_round)"),
            "{report}"
        );
        assert!(report.contains(
            "committed: \"bytes_per_round\": 2649909.0000,\n  built:     \"bytes_per_round\": 2649909.0625,"
        ));
    }
}
