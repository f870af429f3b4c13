//! Phase 1 — committee configuration (Algorithm 2).
//!
//! Non-key members announce themselves to their committee's key members with
//! their VRF sortition proof; key members verify the proof, reply with the
//! current member list, and the newcomer then introduces itself to everyone on
//! that list. The phase's purpose in the simulator is twofold: verify the
//! sortition proofs (security) and account the O(c) / O(c²) traffic of Table II.

use cycledger_crypto::fxhash::FxHashMap;
use cycledger_crypto::vrf;
use cycledger_net::metrics::{MetricsSink, Phase};
use cycledger_net::time::SimDuration;
use cycledger_net::topology::NodeId;

use crate::engine::env::RoundEnv;
use crate::engine::ShardExecutor;
use crate::sortition::RoundAssignment;

/// Sizes (bytes) used for traffic accounting in this phase. A CONFIG is
/// charged id, public key, VRF output and Table II's nominal 160 bytes of
/// proof — not the proof's encoding, which is `vrf::PROOF_BYTES` (224, the
/// commitment form); charging that would move every golden.
const CONFIG_MSG_BYTES: u64 = 4 + 64 + 32 + 160;
const MEMBER_ENTRY_BYTES: u64 = 68;

/// Sortition proofs verified as one `vrf::verify_batch` group, one executor
/// task each. Groups are cut by proof index, so where a forged proof sends
/// its group down the per-proof path is the same at every worker count.
const PROOFS_PER_GROUP: usize = 8;

/// Outcome of the committee-configuration phase.
#[derive(Clone, Debug, Default)]
pub struct ConfigurationOutcome {
    /// Number of sortition proofs key members verified successfully.
    pub verified_members: usize,
    /// Membership claims the key members rejected, as `(committee, member)`
    /// in committee order: no proof, an invalid VRF proof, or a proof that
    /// maps to another committee. Empty unless the registry or the assignment
    /// was tampered with.
    pub rejected: Vec<(usize, NodeId)>,
    /// Simulated wall-clock budget consumed by this phase: the paper recommends
    /// starting the next phase `8Δ` after this one begins.
    pub elapsed: SimDuration,
}

/// Runs committee configuration for every committee, charging traffic to
/// `metrics`.
///
/// The sortition proofs are independent of one another, so they are all
/// verified up front as one `executor` batch of eight-proof groups; the
/// accounting loop below is serial and only consumes the verdicts.
pub fn run_committee_configuration(
    env: &RoundEnv<'_>,
    executor: &ShardExecutor,
    assignment: &RoundAssignment,
    metrics: &mut MetricsSink,
) -> ConfigurationOutcome {
    let phase = Phase::CommitteeConfiguration;
    let registry = env.registry;
    let m = assignment.committees.len();
    let input =
        &RoundAssignment::sortition_input(assignment.sortition_round, &assignment.randomness);
    let proofs = &assignment.sortition_proofs;
    let groups: Vec<_> = proofs
        .chunks(PROOFS_PER_GROUP)
        .map(|group| {
            move || {
                let entries: Vec<_> = group
                    .iter()
                    .map(|(node, output)| (&registry.node(*node).keypair.public, output))
                    .collect();
                vrf::verify_batch(input, &entries)
            }
        })
        .collect();
    let valid = executor.execute(groups).into_iter().flatten();
    let proof_of: FxHashMap<_, _> = proofs
        .iter()
        .zip(valid)
        .map(|((node, output), valid)| (*node, (output, valid)))
        .collect();

    let mut verified = 0usize;
    let mut rejected = Vec::new();
    for committee in &assignment.committees {
        let key_members: Vec<_> = std::iter::once(committee.leader)
            .chain(committee.partial_set.iter().copied())
            .collect();
        let mut list_len = key_members.len();
        for &member in committee.common_members() {
            // 1. CONFIG to every key member.
            for &km in &key_members {
                metrics.record_message(phase, member, km, CONFIG_MSG_BYTES);
            }
            // 2. The first key member checks the proof (verified above) and
            //    replies with the current member list; the others just record
            //    the registration.
            let ok = proof_of.get(&member).is_some_and(|&(output, valid)| {
                valid && vrf::output_to_committee(&output.hash, m) == committee.index
            });
            if ok {
                verified += 1;
            } else {
                rejected.push((committee.index, member));
                continue;
            }
            for &km in &key_members {
                metrics.record_message(phase, km, member, list_len as u64 * MEMBER_ENTRY_BYTES);
            }
            list_len += 1;
            // 3. MEMBER introduction to every previously registered member.
            for &other in committee.members.iter() {
                if other != member && !key_members.contains(&other) {
                    metrics.record_message(phase, member, other, CONFIG_MSG_BYTES);
                }
            }
            // Each member stores the list it has learned.
            metrics.record_storage(phase, member, list_len as u64 * MEMBER_ENTRY_BYTES);
        }
        // Key members store the full list.
        for &km in &key_members {
            metrics.record_storage(
                phase,
                km,
                committee.members.len() as u64 * MEMBER_ENTRY_BYTES,
            );
        }
    }
    ConfigurationOutcome {
        verified_members: verified,
        rejected,
        elapsed: env.config.latency.delta.times(8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryConfig;
    use crate::committee::Committee;
    use crate::config::ProtocolConfig;
    use crate::node::NodeRegistry;
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_crypto::sha256::sha256;
    use cycledger_net::faults::FaultPlan;
    use cycledger_reputation::ReputationTable;

    fn setup() -> (NodeRegistry, RoundAssignment) {
        let registry = NodeRegistry::generate(60, &AdversaryConfig::default(), 100, 0, 21);
        let reputation = ReputationTable::with_members(registry.ids());
        let assignment = assign_round(
            &registry,
            &registry.ids(),
            AssignmentParams {
                committees: 3,
                partial_set_size: 3,
                referee_size: 5,
            },
            1,
            sha256(b"config-phase"),
            &reputation,
        );
        (registry, assignment)
    }

    /// The phase over `assignment` under the default configuration (Δ = 50 ms).
    fn configure(
        registry: &NodeRegistry,
        assignment: &RoundAssignment,
        workers: usize,
    ) -> (ConfigurationOutcome, MetricsSink) {
        let env = RoundEnv {
            config: &ProtocolConfig::default(),
            registry,
            referee: &Committee::referee(&assignment.referee, registry),
            plan: &FaultPlan::default(),
            round: assignment.round,
        };
        let mut metrics = MetricsSink::new();
        let executor = ShardExecutor::new(workers);
        let outcome = run_committee_configuration(&env, &executor, assignment, &mut metrics);
        (outcome, metrics)
    }

    #[test]
    fn all_honest_members_verify() {
        let (registry, assignment) = setup();
        let (outcome, metrics) = configure(&registry, &assignment, 1);
        let expected: usize = assignment
            .committees
            .iter()
            .map(|c| c.common_members().len())
            .sum();
        assert_eq!(outcome.verified_members, expected);
        assert!(outcome.rejected.is_empty());
        assert_eq!(outcome.elapsed, SimDuration::from_millis(400));
        // Common members exchanged traffic; key members stored the full list.
        let leader = assignment.committees[0].leader;
        assert!(
            metrics
                .node_phase(leader, Phase::CommitteeConfiguration)
                .storage_bytes
                > 0
        );
    }

    #[test]
    fn key_member_traffic_exceeds_common_member_traffic() {
        let (registry, assignment) = setup();
        let (_, metrics) = configure(&registry, &assignment, 1);
        let committee = &assignment.committees[0];
        let leader_bytes = metrics
            .node_phase(committee.leader, Phase::CommitteeConfiguration)
            .comm_bytes();
        let common = committee.common_members()[0];
        let common_bytes = metrics
            .node_phase(common, Phase::CommitteeConfiguration)
            .comm_bytes();
        assert!(
            leader_bytes > common_bytes,
            "leaders serve every joining member and must see more traffic"
        );
    }
    #[test]
    fn a_forged_proof_is_rejected_at_its_position_at_any_width() {
        let (registry, honest) = setup();
        let total = honest.sortition_proofs.len();
        let run = |assignment: &RoundAssignment, workers: usize| {
            let (outcome, metrics) = configure(&registry, assignment, workers);
            let mut bytes = Vec::new();
            metrics.write_canonical_bytes(&mut bytes);
            (outcome, bytes)
        };
        // First, last and a middle position, and either side of the first
        // group boundary.
        assert!(total > 2 * PROOFS_PER_GROUP);
        for k in [
            0,
            PROOFS_PER_GROUP - 1,
            PROOFS_PER_GROUP,
            total / 2,
            total - 1,
        ] {
            let mut forged = honest.clone();
            // Another node's (valid) proof does not verify under k's key.
            forged.sortition_proofs[k].1 = honest.sortition_proofs[(k + 1) % total].1;
            let victim = forged.sortition_proofs[k].0;
            let home = forged
                .committees
                .iter()
                .position(|c| c.members.contains(&victim))
                .unwrap();
            let (baseline, baseline_bytes) = run(&forged, 1);
            assert_eq!(baseline.rejected, vec![(home, victim)], "position {k}");
            assert_eq!(baseline.verified_members, total - 1);
            for workers in [2, 8] {
                let (outcome, bytes) = run(&forged, workers);
                assert_eq!(outcome.rejected, baseline.rejected);
                assert_eq!(outcome.verified_members, baseline.verified_members);
                assert_eq!(bytes, baseline_bytes, "{workers} workers");
            }
        }
        // A valid proof presented in the wrong committee is rejected too.
        let mut misplaced = honest.clone();
        let mover = misplaced.committees[0].members.pop().unwrap();
        misplaced.committees[1].members.push(mover);
        let (outcome, _) = run(&misplaced, 2);
        assert_eq!(outcome.rejected, vec![(1, mover)]);
    }
}
