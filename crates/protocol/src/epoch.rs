//! Epoch schedule and validator churn.
//!
//! The paper's sortition resets committees every round, but the validator
//! *set* only changes at epoch boundaries: every `epoch_length` rounds the
//! simulation finalizes the epoch, lets a deterministic lottery retire some
//! validators, admits new ones in [`Syncing`](crate::node::MembershipState)
//! state, and reshuffles the committees with the PVSS beacon output of the
//! boundary round folded back into the sortition randomness. Reputation
//! carries over — a validator's accumulated score survives reshuffles, and a
//! joiner starts from zero (§VII-A).
//!
//! Everything here is a pure function of the registry, the epoch number and
//! the boundary round's randomness, which is what keeps multi-worker runs
//! byte-identical: the lottery is a hash comparison, never an iteration over
//! a hash map.

use cycledger_crypto::sha256::{hash_parts, Digest};
use cycledger_net::topology::NodeId;

use crate::config::ProtocolConfig;
use crate::node::{MembershipState, NodeRegistry};
use crate::sortition::{AssignmentParams, RoundAssignment};

/// When epochs end and how much churn each boundary admits.
///
/// Built from the [`ProtocolConfig`] epoch knobs; `None` when
/// `epoch_length == 0`, which disables the whole epoch machinery and keeps
/// pre-epoch runs (and their golden digests) untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochSchedule {
    /// Rounds per epoch (always > 0 here).
    pub epoch_length: u64,
    /// Validators admitted (in `Syncing` state) at each boundary.
    pub joins_per_epoch: u32,
    /// Validators the leave lottery may retire at each boundary.
    pub leaves_per_epoch: u32,
}

impl EpochSchedule {
    /// Reads the schedule out of a config; `None` when epochs are disabled.
    pub fn from_config(config: &ProtocolConfig) -> Option<EpochSchedule> {
        if config.epoch_length == 0 {
            return None;
        }
        Some(EpochSchedule {
            epoch_length: config.epoch_length,
            joins_per_epoch: config.joins_per_epoch,
            leaves_per_epoch: config.leaves_per_epoch,
        })
    }

    /// True when `completed_rounds` rounds close an epoch (the boundary sits
    /// *after* the last round of the epoch, so the first boundary is at
    /// `epoch_length` completed rounds, never at zero).
    pub fn is_boundary(&self, completed_rounds: u64) -> bool {
        completed_rounds > 0 && completed_rounds.is_multiple_of(self.epoch_length)
    }

    /// The epoch a round belongs to (0-based).
    pub fn epoch_of(&self, round: u64) -> u64 {
        round / self.epoch_length
    }
}

/// Derives the epoch's sortition randomness by folding the boundary round's
/// PVSS beacon output back in — the "feed the beacon into the next epoch's
/// sortition" loop of the tentpole.
pub fn epoch_randomness(epoch: u64, beacon: Digest) -> Digest {
    hash_parts(&[b"cycledger/epoch", &epoch.to_be_bytes(), beacon.as_bytes()])
}

/// The per-node leave-lottery value: smallest values leave first. A pure
/// function of `(epoch, randomness, node)`, so every worker agrees without
/// coordination.
fn leave_lottery(epoch: u64, randomness: Digest, node: NodeId) -> Digest {
    hash_parts(&[
        b"cycledger/epoch-leave",
        &epoch.to_be_bytes(),
        randomness.as_bytes(),
        &node.0.to_be_bytes(),
    ])
}

/// Minimum `Active` population the sortition floor demands: the referee
/// committee, one leader and a partial set per committee, and at least one
/// node more (see the assertion in [`assign_round`](crate::assign_round)).
pub fn min_active_nodes(params: AssignmentParams) -> usize {
    params.referee_size + params.committees * (1 + params.partial_set_size) + 1
}

/// Runs the deterministic leave lottery: up to `schedule.leaves_per_epoch`
/// currently-`Active` nodes retire, clamped so the `Active` population never
/// drops below [`min_active_nodes`] (an epoch may therefore retire fewer
/// nodes than configured, or none). Returns the leavers in lottery order;
/// the caller marks them [`MembershipState::Left`].
pub fn pick_leavers(
    registry: &NodeRegistry,
    params: AssignmentParams,
    schedule: &EpochSchedule,
    epoch: u64,
    randomness: Digest,
) -> Vec<NodeId> {
    let active: Vec<NodeId> = registry
        .iter()
        .filter(|n| n.membership == MembershipState::Active)
        .map(|n| n.id)
        .collect();
    let headroom = active.len().saturating_sub(min_active_nodes(params));
    let quota = (schedule.leaves_per_epoch as usize).min(headroom);
    if quota == 0 {
        return Vec::new();
    }
    let mut ranked = active;
    ranked.sort_by_cached_key(|&id| leave_lottery(epoch, randomness, id));
    ranked.truncate(quota);
    ranked
}

/// Number of seats whose occupant changed between two assignments: the
/// referee seats plus every committee's member seats, compared positionally
/// (a grown or shrunk group counts its length difference as changed seats).
/// The transition report carries this as a reshuffle-magnitude measure.
pub fn seat_changes(old: &RoundAssignment, new: &RoundAssignment) -> usize {
    fn diff(a: &[NodeId], b: &[NodeId]) -> usize {
        a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len())
    }
    let mut changed = diff(&old.referee, &new.referee);
    for (o, n) in old.committees.iter().zip(&new.committees) {
        changed += diff(&o.members, &n.members);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryConfig;
    use crate::config::ProtocolConfig;

    fn params() -> AssignmentParams {
        AssignmentParams {
            committees: 2,
            partial_set_size: 2,
            referee_size: 3,
        }
    }

    #[test]
    fn schedule_comes_from_the_config_knobs() {
        let mut config = ProtocolConfig::default();
        assert_eq!(EpochSchedule::from_config(&config), None);
        config.epoch_length = 4;
        config.joins_per_epoch = 2;
        config.leaves_per_epoch = 1;
        let schedule = EpochSchedule::from_config(&config).expect("enabled");
        assert_eq!(schedule.epoch_length, 4);
        assert!(!schedule.is_boundary(0), "no boundary before any round ran");
        assert!(!schedule.is_boundary(3));
        assert!(schedule.is_boundary(4));
        assert!(schedule.is_boundary(8));
        assert_eq!(schedule.epoch_of(0), 0);
        assert_eq!(schedule.epoch_of(3), 0);
        assert_eq!(schedule.epoch_of(4), 1);
    }

    #[test]
    fn epoch_randomness_depends_on_epoch_and_beacon() {
        let beacon = hash_parts(&[b"beacon"]);
        let r0 = epoch_randomness(0, beacon);
        let r1 = epoch_randomness(1, beacon);
        assert_ne!(r0, r1);
        assert_ne!(r0, beacon, "the derivation is domain-separated");
        assert_eq!(r0, epoch_randomness(0, beacon), "pure function");
    }

    #[test]
    fn leave_lottery_is_deterministic_and_clamped() {
        // 12 nodes, floor = 3 + 2*(1+2) + 1 = 10 ⇒ headroom 2.
        let registry = NodeRegistry::generate(12, &AdversaryConfig::default(), 4, 0, 7);
        let schedule = EpochSchedule {
            epoch_length: 4,
            joins_per_epoch: 0,
            leaves_per_epoch: 5,
        };
        let randomness = hash_parts(&[b"epoch-rand"]);
        let leavers = pick_leavers(&registry, params(), &schedule, 1, randomness);
        assert_eq!(leavers.len(), 2, "clamped to the sortition headroom");
        assert_eq!(
            leavers,
            pick_leavers(&registry, params(), &schedule, 1, randomness),
            "the lottery is deterministic"
        );
        let other = pick_leavers(&registry, params(), &schedule, 2, randomness);
        assert_eq!(other.len(), 2);
        // (Different epochs *may* pick the same pair; the lottery value must
        // differ even then.)
        assert_ne!(
            leave_lottery(1, randomness, leavers[0]),
            leave_lottery(2, randomness, leavers[0]),
        );
    }

    #[test]
    fn leave_lottery_never_breaks_the_floor() {
        // Exactly at the floor: nobody may leave.
        let registry = NodeRegistry::generate(10, &AdversaryConfig::default(), 4, 0, 7);
        let schedule = EpochSchedule {
            epoch_length: 4,
            joins_per_epoch: 0,
            leaves_per_epoch: 3,
        };
        let leavers = pick_leavers(
            &registry,
            params(),
            &schedule,
            0,
            hash_parts(&[b"epoch-rand"]),
        );
        assert!(leavers.is_empty());
    }

    #[test]
    fn left_nodes_do_not_re_enter_the_lottery() {
        let mut registry = NodeRegistry::generate(13, &AdversaryConfig::default(), 4, 0, 7);
        let schedule = EpochSchedule {
            epoch_length: 4,
            joins_per_epoch: 0,
            leaves_per_epoch: 1,
        };
        let randomness = hash_parts(&[b"epoch-rand"]);
        let first = pick_leavers(&registry, params(), &schedule, 0, randomness);
        assert_eq!(first.len(), 1);
        registry.set_membership(first[0], MembershipState::Left);
        let second = pick_leavers(&registry, params(), &schedule, 0, randomness);
        assert_eq!(second.len(), 1);
        assert_ne!(first[0], second[0]);
    }
}
