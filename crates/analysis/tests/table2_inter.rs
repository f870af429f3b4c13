//! Table II's inter-committee row, re-derived from `MetricsSink` counters
//! instead of the closed form: with every one of the `m(m−1)` shard pairs
//! carrying traffic, what one node *sends* in the phase is `O(c)` for a
//! common member — one Algorithm 3 instance per side whatever `m` is, so
//! `O(c + m)` with room to spare, not the `O(m·c)` of one instance per pair —
//! and grows linearly in `m` for a key member (the leader's `m−1` forwards
//! and `m−1` replies).
//!
//! The intra-committee and recovery rows by the same method, exactly: every
//! leg of those phases is an envelope on the network, so the counted sends of
//! one fault-free committee *are* the closed form, not an account of it.

use cycledger_analysis::{table2_prediction, RoleClass, SystemSize};
use cycledger_net::metrics::Phase;
use cycledger_protocol::{Behavior, ProtocolConfig, Simulation};

const C: usize = 8;
const PHASE: Phase = Phase::InterCommitteeConsensus;

/// Mean inter-phase messages sent per (common member, key member) in one
/// fault-free round at `m` committees with all pairs populated.
fn sends_per_role(m: usize) -> (f64, f64) {
    let config = ProtocolConfig {
        committees: m,
        committee_size: C,
        partial_set_size: 2,
        referee_size: 5,
        txs_per_round: 12 * m * m,
        accounts_per_shard: 16 * m,
        cross_shard_ratio: 1.0,
        invalid_ratio: 0.0,
        pow_difficulty: 2,
        seed: 2020,
        ..ProtocolConfig::default()
    };
    let mut sim = Simulation::new(config).expect("valid configuration");
    sim.run_round();
    let block = sim.chain().block(0).expect("the round produced a block");
    let mut pairs = std::collections::BTreeSet::new();
    for tx in &block.transactions {
        let (inputs, outputs) = (tx.input_shards(m), tx.output_shards(m));
        pairs.extend(
            outputs
                .iter()
                .filter(|&&j| j != inputs[0])
                .map(|&j| (inputs[0], j)),
        );
    }
    assert_eq!(
        pairs.len(),
        m * (m - 1),
        "every pair carries traffic at m = {m}"
    );

    let report = sim.reports().last().expect("one round ran");
    let mean = |nodes: &[cycledger_net::topology::NodeId]| {
        report.metrics.group_phase(nodes, PHASE).0.msgs_sent as f64 / nodes.len() as f64
    };
    (
        mean(&report.roles.common_members),
        mean(&report.roles.key_members),
    )
}

#[test]
fn inter_phase_sends_have_the_shape_table2_states() {
    let [(common_4, key_4), (common_8, key_8), (common_16, key_16)] =
        [4, 8, 16].map(sends_per_role);
    println!(
        "common {common_4:.1} {common_8:.1} {common_16:.1}; key {key_4:.1} {key_8:.1} {key_16:.1}"
    );

    // Common members: doubling m at fixed c moves their sends by < 15 % —
    // two instances' worth of echoes, `2(c−1)` plus a vote and two confirms.
    for (small, large) in [(common_4, common_8), (common_8, common_16)] {
        assert!(
            large < 1.15 * small,
            "common-member sends {small:.1} -> {large:.1}"
        );
    }
    assert!(
        common_16 < 3.0 * C as f64,
        "O(c): {common_16:.1} sends at c = {C}"
    );

    // Key members: linear in m — each doubling adds twice what the last did.
    let (first, second) = (key_8 - key_4, key_16 - key_8);
    assert!(
        first > 0.0 && (1.7..2.3).contains(&(second / first)),
        "{first:.1} then {second:.1}"
    );

    // The closed form agrees on who grows: its key-member entry is O(n) at
    // fixed c, its common-member entry no more than O(m).
    let predicted = |role, m| {
        table2_prediction(PHASE, role, SystemSize::from_committees(m, C as u64)).communication
    };
    assert_eq!(
        predicted(RoleClass::KeyMember, 16) / predicted(RoleClass::KeyMember, 8),
        2.0
    );
    assert!(
        common_16 / common_8
            <= predicted(RoleClass::CommonMember, 16) / predicted(RoleClass::CommonMember, 8)
    );
}

/// Envelopes sent in the intra-committee and recovery phases of one round of
/// a single committee of `c` seats, and what the closed forms say — with the
/// leader fail-silent (one successful impeachment, then the retry) or honest.
fn intra_and_recovery_envelopes(c: usize, silent_leader: bool) -> [(u64, u64); 2] {
    let config = ProtocolConfig {
        committees: 1,
        committee_size: c,
        partial_set_size: 2,
        referee_size: 5,
        txs_per_round: 24,
        accounts_per_shard: 32,
        cross_shard_ratio: 0.0,
        invalid_ratio: 0.0,
        pow_difficulty: 2,
        seed: 2020,
        ..ProtocolConfig::default()
    };
    let mut sim = Simulation::new(config).expect("valid configuration");
    let assignment = sim.assignment();
    let (c, referee) = (
        assignment.committees[0].size() as u64,
        assignment.referee.len() as u64,
    );
    let leader = assignment.committees[0].leader;
    if silent_leader {
        sim.registry_mut()
            .set_behavior(leader, Behavior::SilentLeader);
    }
    let report = sim.run_round().clone();
    assert!(report.block_produced && report.txs_packed > 0);
    assert_eq!(report.evicted_leaders.len(), usize::from(silent_leader));
    assert_eq!(report.net_dropped_messages, 0);

    // One Algorithm 3 instance: c−1 PROPOSEs, then c−1 ECHOes and one
    // CONFIRM from every member taking part — all of them, or all but the
    // evicted leader, which withholds for the rest of the round.
    let taking_part = c - u64::from(silent_leader);
    let alg3 = (c - 1) + taking_part * (c - 1) + taking_part;
    // TXList out and votes back, the instance, the certificate to C_R. A
    // silent leader's own attempt sends nothing; the retry is the whole row.
    let intra = 2 * (c - 1) + alg3 + referee;
    // Accusation to the other c−1, votes from all of those but the accused,
    // accusation + approvals to C_R, C_R's verdict to every member.
    let recovery = (c - 1) + (c - 2) + referee + referee * c;
    let sent = |phase| report.metrics.phase_total(phase).msgs_sent;
    [
        (sent(Phase::IntraCommitteeConsensus), intra),
        (
            sent(Phase::Recovery),
            if silent_leader { recovery } else { 0 },
        ),
    ]
}

#[test]
fn intra_and_recovery_rows_count_exactly_the_closed_form() {
    for c in [8, 16, 32] {
        for silent_leader in [false, true] {
            for (counted, closed_form) in intra_and_recovery_envelopes(c, silent_leader) {
                assert_eq!(
                    counted, closed_form,
                    "c = {c}, silent leader: {silent_leader}"
                );
            }
        }
    }
}
