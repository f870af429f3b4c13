//! Adversary model (§III-C).
//!
//! The adversary controls less than a third of the nodes, may corrupt nodes only
//! with one round of delay (mild adaptivity), and corrupted nodes may deviate
//! arbitrarily. This module enumerates the concrete deviations the simulator
//! exercises — each maps to a detection/recovery claim in the paper:
//!
//! | behaviour              | paper reference                         |
//! |-------------------------|-----------------------------------------|
//! | silent leader           | recovery via partial set (Claim 3)      |
//! | equivocating leader     | Algorithm 3 abort + witness (Claim 3)    |
//! | mismatched commitment   | Algorithm 4 step 3 + witness (Thm 2)     |
//! | censoring leader        | Lemma 6 (cross-shard concealment)        |
//! | wrong voter             | reputation punishment (§VII-B)           |
//! | lazy voter              | reputation stays at zero (§VII-A)        |
//! | false accuser           | soundness of recovery (Claim 4)          |

use cycledger_consensus::alg3::LeaderFault;
use cycledger_crypto::hmac::HmacDrbg;

/// What a corrupted node does.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Behavior {
    /// Follows the protocol.
    Honest,
    /// As leader: sends nothing at all (fail-silent / "pretending to be offline").
    SilentLeader,
    /// As leader: proposes different payloads to different halves of the
    /// committee in Algorithm 3.
    EquivocatingLeader,
    /// As leader: sends a semi-commitment to `C_R` that does not match the
    /// member list given to the partial set.
    MismatchedCommitment,
    /// As leader: withholds cross-shard transaction lists from the destination
    /// committee (Lemma 6's concealment attack).
    CensoringLeader,
    /// As member: votes the opposite of its honest judgement on every
    /// transaction.
    WrongVoter,
    /// As member: always votes `Unknown` (free-riding).
    LazyVoter,
    /// As partial-set member: submits a fabricated witness against an honest
    /// leader.
    FalseAccuser,
}

impl Behavior {
    /// True for any behaviour other than [`Behavior::Honest`].
    pub fn is_malicious(self) -> bool {
        self != Behavior::Honest
    }

    /// True if the behaviour only manifests when the node is a committee leader.
    pub fn is_leader_fault(self) -> bool {
        matches!(
            self,
            Behavior::SilentLeader
                | Behavior::EquivocatingLeader
                | Behavior::MismatchedCommitment
                | Behavior::CensoringLeader
        )
    }

    /// How a leader of this behaviour runs an Algorithm 3 instance over
    /// `payload`.
    pub fn leader_fault(self, payload: &[u8]) -> LeaderFault {
        match self {
            Behavior::SilentLeader => LeaderFault::Silent,
            Behavior::EquivocatingLeader => {
                let mut alternate = payload.to_vec();
                alternate.extend_from_slice(b"/equivocated");
                LeaderFault::Equivocate { alternate }
            }
            _ => LeaderFault::None,
        }
    }
}

/// How malicious nodes and their behaviours are distributed.
#[derive(Clone, Copy, Debug)]
pub struct AdversaryConfig {
    /// Fraction of nodes controlled by the adversary (paper bound: `< 1/3`).
    pub malicious_fraction: f64,
    /// Behaviour assigned to corrupted nodes. [`BehaviorMix::Uniform`] draws one
    /// of the malicious behaviours uniformly per corrupted node.
    pub mix: BehaviorMix,
}

/// Behaviour assignment policy for corrupted nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BehaviorMix {
    /// Every corrupted node uses the same behaviour.
    Fixed(Behavior),
    /// Each corrupted node draws uniformly from all malicious behaviours.
    Uniform,
}

impl Default for AdversaryConfig {
    fn default() -> Self {
        AdversaryConfig {
            malicious_fraction: 0.0,
            mix: BehaviorMix::Fixed(Behavior::Honest),
        }
    }
}

impl AdversaryConfig {
    /// An adversary controlling `fraction` of nodes, all using one behaviour.
    pub fn with_behavior(fraction: f64, behavior: Behavior) -> Self {
        AdversaryConfig {
            malicious_fraction: fraction,
            mix: BehaviorMix::Fixed(behavior),
        }
    }

    /// An adversary controlling `fraction` of nodes with a uniform behaviour mix.
    pub fn uniform(fraction: f64) -> Self {
        AdversaryConfig {
            malicious_fraction: fraction,
            mix: BehaviorMix::Uniform,
        }
    }

    /// Checks the configuration (the paper's threat model requires `< 1/3`; the
    /// simulator allows up to 1/2 so experiments can show where the protocol
    /// breaks, but rejects nonsensical values).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=0.5).contains(&self.malicious_fraction) {
            return Err(format!(
                "malicious fraction {} outside [0, 0.5]",
                self.malicious_fraction
            ));
        }
        Ok(())
    }

    /// The largest corrupted-node count the paper's threat model allows for a
    /// network of `total` nodes: the greatest `t` with `t < total/3` (§III-C).
    pub fn max_corrupted(total: usize) -> usize {
        total.saturating_sub(1) / 3
    }

    /// Assigns behaviours to `total` nodes deterministically from `seed`.
    /// Corrupted nodes are spread uniformly over the id space (the paper's
    /// adversary corrupts arbitrary nodes; uniform spread is the natural
    /// worst-case-neutral choice for measuring detection rates).
    ///
    /// The corrupted count is deterministically clamped to
    /// [`Self::max_corrupted`]: a `malicious_fraction` whose floor rounds to
    /// `≥ ⌊total/3⌋` nodes would silently violate the paper's `t < n/3`
    /// adversary bound, under which none of the detection/recovery claims
    /// hold. Experiments that deliberately break the threat model (to show
    /// *where* the protocol fails) must opt in via
    /// [`Self::assign_unchecked`].
    pub fn assign(&self, total: usize, seed: u64) -> Vec<Behavior> {
        self.assign_with_count(
            total,
            seed,
            self.raw_malicious_count(total)
                .min(Self::max_corrupted(total)),
        )
    }

    /// Like [`Self::assign`] but *without* the threat-model clamp: the
    /// corrupted count is exactly `⌊total · malicious_fraction⌋`, even beyond
    /// the paper's `t < n/3` bound. Only for experiments that chart where the
    /// protocol breaks.
    pub fn assign_unchecked(&self, total: usize, seed: u64) -> Vec<Behavior> {
        self.assign_with_count(total, seed, self.raw_malicious_count(total))
    }

    fn raw_malicious_count(&self, total: usize) -> usize {
        (total as f64 * self.malicious_fraction).floor() as usize
    }

    fn assign_with_count(&self, total: usize, seed: u64, malicious_count: usize) -> Vec<Behavior> {
        let mut drbg = HmacDrbg::from_parts("cycledger/adversary", &[&seed.to_be_bytes()]);
        let mut behaviors = vec![Behavior::Honest; total];
        // Choose which nodes are corrupted by a deterministic partial shuffle.
        let mut indices: Vec<usize> = (0..total).collect();
        for i in 0..malicious_count.min(total) {
            let j = i + drbg.next_below((total - i) as u64) as usize;
            indices.swap(i, j);
        }
        const MALICIOUS: [Behavior; 7] = [
            Behavior::SilentLeader,
            Behavior::EquivocatingLeader,
            Behavior::MismatchedCommitment,
            Behavior::CensoringLeader,
            Behavior::WrongVoter,
            Behavior::LazyVoter,
            Behavior::FalseAccuser,
        ];
        for &idx in indices.iter().take(malicious_count) {
            behaviors[idx] = match self.mix {
                BehaviorMix::Fixed(b) => b,
                BehaviorMix::Uniform => MALICIOUS[drbg.next_below(MALICIOUS.len() as u64) as usize],
            };
        }
        behaviors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_default() {
        let cfg = AdversaryConfig::default();
        assert_eq!(cfg.validate(), Ok(()));
        let behaviors = cfg.assign(100, 1);
        assert!(behaviors.iter().all(|b| *b == Behavior::Honest));
    }

    #[test]
    fn fraction_is_respected() {
        let cfg = AdversaryConfig::with_behavior(0.33, Behavior::WrongVoter);
        let behaviors = cfg.assign(300, 7);
        let bad = behaviors.iter().filter(|b| b.is_malicious()).count();
        assert_eq!(bad, 99);
        assert!(behaviors
            .iter()
            .filter(|b| b.is_malicious())
            .all(|b| *b == Behavior::WrongVoter));
    }

    #[test]
    fn uniform_mix_uses_multiple_behaviors() {
        let cfg = AdversaryConfig::uniform(0.4);
        let behaviors = cfg.assign(500, 3);
        let distinct: std::collections::HashSet<_> =
            behaviors.iter().filter(|b| b.is_malicious()).collect();
        assert!(distinct.len() >= 4, "expected a spread of behaviours");
    }

    #[test]
    fn assignment_is_deterministic() {
        let cfg = AdversaryConfig::uniform(0.3);
        assert_eq!(cfg.assign(64, 9), cfg.assign(64, 9));
        assert_ne!(cfg.assign(64, 9), cfg.assign(64, 10));
    }

    #[test]
    fn validation_bounds() {
        assert!(AdversaryConfig::with_behavior(0.6, Behavior::LazyVoter)
            .validate()
            .is_err());
        assert!(AdversaryConfig::with_behavior(-0.1, Behavior::LazyVoter)
            .validate()
            .is_err());
        assert!(AdversaryConfig::with_behavior(0.5, Behavior::LazyVoter)
            .validate()
            .is_ok());
    }

    #[test]
    fn assign_clamps_to_the_paper_bound() {
        // 0.4 of 300 rounds to 120 corrupted nodes — well past t < n/3. The
        // clamp caps the assignment at 99 (the largest t with 3t < 300).
        let cfg = AdversaryConfig::uniform(0.4);
        assert_eq!(AdversaryConfig::max_corrupted(300), 99);
        let clamped = cfg.assign(300, 5);
        assert_eq!(
            clamped.iter().filter(|b| b.is_malicious()).count(),
            99,
            "assign must clamp to the largest t with t < n/3"
        );
        // The unchecked variant keeps the raw floor for break-the-protocol
        // experiments.
        let raw = cfg.assign_unchecked(300, 5);
        assert_eq!(raw.iter().filter(|b| b.is_malicious()).count(), 120);
        // Below the bound the two agree exactly.
        let mild = AdversaryConfig::uniform(0.25);
        assert_eq!(mild.assign(300, 5), mild.assign_unchecked(300, 5));
    }

    #[test]
    fn max_corrupted_edge_cases() {
        // t < n/3 boundaries: n divisible by 3 excludes exactly n/3.
        assert_eq!(AdversaryConfig::max_corrupted(0), 0);
        assert_eq!(AdversaryConfig::max_corrupted(1), 0);
        assert_eq!(AdversaryConfig::max_corrupted(3), 0);
        assert_eq!(AdversaryConfig::max_corrupted(4), 1);
        assert_eq!(AdversaryConfig::max_corrupted(9), 2);
        assert_eq!(AdversaryConfig::max_corrupted(10), 3);
        for n in 1..200usize {
            let t = AdversaryConfig::max_corrupted(n);
            assert!(3 * t < n, "t = {t} violates t < {n}/3");
            assert!(3 * (t + 1) >= n, "t = {t} is not maximal for n = {n}");
        }
    }

    #[test]
    fn clamped_assignment_is_deterministic() {
        let cfg = AdversaryConfig::with_behavior(0.5, Behavior::WrongVoter);
        assert_eq!(cfg.assign(64, 9), cfg.assign(64, 9));
        let bad = cfg
            .assign(64, 9)
            .iter()
            .filter(|b| b.is_malicious())
            .count();
        assert_eq!(bad, AdversaryConfig::max_corrupted(64));
    }

    #[test]
    fn behavior_classification() {
        assert!(!Behavior::Honest.is_malicious());
        assert!(Behavior::SilentLeader.is_leader_fault());
        assert!(Behavior::CensoringLeader.is_leader_fault());
        assert!(!Behavior::WrongVoter.is_leader_fault());
        assert!(Behavior::FalseAccuser.is_malicious());
    }
}
