//! Output checks: what must hold of a run's blocks, state and accounting
//! for its numbers to mean anything. Any failure makes the run incorrect.

use std::collections::HashSet;

use cycledger_crypto::sha256::sha256;
use cycledger_crypto::{verify_proof, ProofTerminal};
use cycledger_ledger::smt::key_digest;
use cycledger_ledger::{OutPoint, StateBackend};
use cycledger_net::topology::NodeId;
use cycledger_protocol::SimulationSummary;

use crate::metrics::CONFIRM_P99_LIMIT_DELTA;
use crate::run::{sent, Pass, TrafficTotals};
use crate::workloads::{Workload, CLEAN_TAIL_FROM_PCT, WARMUP_ROUNDS};

pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

fn check(name: &'static str, passed: bool, detail: String) -> Check {
    Check {
        name,
        passed,
        detail,
    }
}

/// Value of each genesis UTXO (`Simulation::new` mints one per account).
const GENESIS_AMOUNT: u64 = 1_000;

/// Outpoints proven per shard, first in sorted-key order.
const PROOF_SAMPLES_PER_SHARD: usize = 8;

/// Canonical digest over the measured rounds.
pub fn digest_hex(pass: &Pass) -> String {
    SimulationSummary {
        rounds: pass.reports().to_vec(),
    }
    .canonical_digest()
    .to_hex()
}

/// Runs every check that applies to `workload` on a finished pass.
pub fn check_pass(workload: &Workload, pass: &mut Pass) -> Vec<Check> {
    let mut checks = vec![
        blocks_every_round(pass),
        no_double_commit(pass),
        value_conserved(pass),
        only_unreachable_leaders_lose_seats(pass),
        no_syncing_votes(pass),
        traffic_accounting(pass),
        confirm_latency_within_limit(pass),
        message_counts_close(pass),
    ];
    if workload.state_backend == StateBackend::Smt {
        checks.push(state_roots_and_proofs(pass));
    }
    if workload.faulty {
        checks.push(scheduled_leader_faults_recovered(pass));
        checks.push(clean_tail_drains(pass));
    } else {
        checks.push(fault_free_run_stays_clean(pass));
    }
    checks
}

fn blocks_every_round(pass: &Pass) -> Check {
    let chain = pass.sim.chain();
    let expected = WARMUP_ROUNDS + pass.rounds;
    let missing = pass.reports().iter().filter(|r| !r.block_produced).count();
    let malformed = (0..chain.height() as u64)
        .filter(|&h| !chain.block(h).is_some_and(|b| b.verify_structure()))
        .count();
    check(
        "blocks-every-round",
        chain.height() == expected && missing == 0 && malformed == 0,
        format!(
            "chain height {} of {expected}, {missing} rounds without a block, \
             {malformed} blocks failing verify_structure",
            chain.height()
        ),
    )
}

fn no_double_commit(pass: &Pass) -> Check {
    let chain = pass.sim.chain();
    let mut seen = HashSet::new();
    let mut duplicates = 0;
    for height in 0..chain.height() as u64 {
        for tx in &chain.block(height).expect("below height").transactions {
            duplicates += usize::from(!seen.insert(tx.id()));
        }
    }
    check(
        "no-double-commit",
        duplicates == 0,
        format!("{} transactions, {duplicates} in two blocks", seen.len()),
    )
}

/// Every block conserves value, so the shard totals only ever shrink (by
/// fees); checked on the fully applied state at the end of the run.
fn value_conserved(pass: &mut Pass) -> Check {
    let config = *pass.sim.config();
    let genesis = (config.committees * config.accounts_per_shard) as u64 * GENESIS_AMOUNT;
    let held: u64 = pass.sim.utxo_sets().iter().map(|s| s.total_value()).sum();
    check(
        "value-conserved",
        held <= genesis,
        format!("shards hold {held} of {genesis} minted at genesis"),
    )
}

/// Soundness (Claim 4): no honest node is evicted — except where the fault
/// schedule broke synchrony for it: a leader partitioned or crash-stopped
/// that round, which its committee cannot tell from a silent one, or any
/// leader in a round whose messages the schedule drops.
fn only_unreachable_leaders_lose_seats(pass: &Pass) -> Check {
    let mut punished = Vec::new();
    for (report, faults) in pass.reports().iter().zip(&pass.faults) {
        if faults.plan.drop_ppm > 0 {
            continue;
        }
        let excused: Vec<NodeId> = faults.cut_off.iter().map(|&(_, node)| node).collect();
        punished.extend(
            report
                .punished_honest()
                .into_iter()
                .filter(|node| !excused.contains(node))
                .map(|node| (report.round, node)),
        );
    }
    check(
        "no-honest-node-punished",
        punished.is_empty(),
        format!("honest nodes evicted while reachable: {punished:?}"),
    )
}

fn no_syncing_votes(pass: &Pass) -> Check {
    let votes: usize = pass.reports().iter().map(|r| r.syncing_votes).sum();
    check(
        "no-syncing-votes",
        votes == 0,
        format!("{votes} votes counted from members still syncing"),
    )
}

/// injected = rejected_invalid + confirmed + censored + in flight, over the
/// whole run; the driver resolves every tracked transaction within its
/// round, so nothing may be left in flight.
fn traffic_accounting(pass: &Pass) -> Check {
    let t = pass.sim.traffic().expect("every workload is open loop");
    let resolved = t.rejected_invalid + t.confirmed + t.censored;
    check(
        "traffic-accounting",
        t.injected == resolved,
        format!(
            "injected {} = rejected {} + confirmed {} + censored {} + in flight {}",
            t.injected,
            t.rejected_invalid,
            t.confirmed,
            t.censored,
            t.injected as i64 - resolved as i64
        ),
    )
}

fn confirm_latency_within_limit(pass: &Pass) -> Check {
    let t = pass.sim.traffic().expect("every workload is open loop");
    let p99 = t.p99_delta();
    check(
        "confirm-p99-within-limit",
        p99 <= CONFIRM_P99_LIMIT_DELTA,
        format!(
            "virtual-time confirm p99 {p99} delta ({} ms) over {} samples, limit \
             {CONFIRM_P99_LIMIT_DELTA} delta",
            t.p99_us as f64 / 1e3,
            t.samples
        ),
    )
}

/// The per-phase counts behind `net.msgs.*` and the per-node totals must
/// describe the same messages.
fn message_counts_close(pass: &Pass) -> Check {
    let mut by_phase = 0;
    let mut by_node = 0;
    for report in pass.reports() {
        by_phase += sent(report).0;
        by_node += report
            .metrics
            .canonical_entries()
            .iter()
            .map(|(_, counters)| counters.msgs_sent)
            .sum::<u64>();
    }
    check(
        "message-counts-close",
        by_phase == by_node,
        format!("{by_phase} messages by phase, {by_node} by node"),
    )
}

/// The last round's reported roots are the stores' roots, and a light
/// client holding only a root can verify sampled inclusion and exclusion
/// proofs with `crypto::verify_proof`.
fn state_roots_and_proofs(pass: &mut Pass) -> Check {
    let reported = pass
        .reports()
        .last()
        .map(|r| r.state_roots.clone())
        .unwrap_or_default();
    let mut mismatched = 0;
    let mut proofs = 0;
    let mut verified = 0;
    for (shard, set) in pass.sim.utxo_sets().iter().enumerate() {
        let (Some(&root), Some(live)) = (reported.get(shard), set.state_root()) else {
            mismatched += 1;
            continue;
        };
        if root != live {
            mismatched += 1;
            continue;
        }
        for outpoint in set.sorted_outpoints().iter().take(PROOF_SAMPLES_PER_SHARD) {
            proofs += 1;
            verified += usize::from(set.prove(outpoint).is_some_and(|proof| {
                matches!(proof.terminal, ProofTerminal::Included { .. })
                    && verify_proof(&root, &key_digest(outpoint), &proof).is_ok()
            }));
        }
        let absent = OutPoint {
            tx_id: sha256(format!("cycledger/benchmark-absent/{shard}").as_bytes()),
            index: 0,
        };
        proofs += 1;
        verified += usize::from(set.prove(&absent).is_some_and(|proof| {
            !matches!(proof.terminal, ProofTerminal::Included { .. })
                && verify_proof(&root, &key_digest(&absent), &proof).is_ok()
        }));
    }
    check(
        "state-roots-and-proofs",
        !reported.is_empty() && mismatched == 0 && verified == proofs,
        format!(
            "{} roots reported, {mismatched} differ from the store, {verified} of {proofs} \
             sampled proofs verify",
            reported.len()
        ),
    )
}

/// Every leader the schedule cut off or turned Byzantine is evicted, in the
/// round of the fault or a later one.
fn scheduled_leader_faults_recovered(pass: &Pass) -> Check {
    let reports = pass.reports();
    let mut injected = 0;
    let mut unrecovered = Vec::new();
    for (index, faults) in pass.faults.iter().enumerate() {
        let targets = faults
            .cut_off
            .iter()
            .copied()
            .chain(faults.flips.iter().map(|&(k, node, _)| (k, node)));
        for (committee, node) in targets {
            injected += 1;
            let evicted = reports[index..]
                .iter()
                .any(|r| r.evicted_leaders.iter().any(|&(_, n)| n == node));
            if !evicted {
                unrecovered.push((reports[index].round, committee, node));
            }
        }
    }
    check(
        "scheduled-leader-faults-recovered",
        injected > 0 && unrecovered.is_empty(),
        format!("{injected} leader faults scheduled, not evicted: {unrecovered:?}"),
    )
}

/// After the last scheduled fault the network is healthy again: nothing is
/// dropped, and the backlog ends no deeper than one round packs.
fn clean_tail_drains(pass: &Pass) -> Check {
    let tail = &pass.reports()[CLEAN_TAIL_FROM_PCT * pass.rounds / 100..];
    let dropped: u64 = tail.iter().map(|r| r.net_dropped_messages).sum();
    let totals = TrafficTotals::of(pass);
    check(
        "clean-tail-drains",
        !tail.is_empty() && dropped == 0 && totals.stranded == 0,
        format!(
            "{} clean rounds, {dropped} messages dropped in them, {} arrivals stranded \
             (deepest backlog {})",
            tail.len(),
            totals.stranded,
            totals.backlog_max
        ),
    )
}

/// Without injected faults no recovery, drop, timeout or censorship may
/// occur: these counters separate the faulty workload from the other three.
fn fault_free_run_stays_clean(pass: &Pass) -> Check {
    let reports = pass.reports();
    let recoveries: usize = reports.iter().map(|r| r.recovery_log.len()).sum();
    let dropped: u64 = reports.iter().map(|r| r.net_dropped_messages).sum();
    let timeouts: usize = reports.iter().map(|r| r.quorum_timeouts).sum();
    let censored = TrafficTotals::of(pass).censored;
    check(
        "fault-free-run-stays-clean",
        recoveries == 0 && dropped == 0 && timeouts == 0 && censored == 0,
        format!(
            "{recoveries} recoveries, {dropped} dropped messages, {timeouts} quorum timeouts, \
             {censored} censored transactions"
        ),
    )
}
