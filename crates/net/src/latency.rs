//! Link latency models.
//!
//! §III-B distinguishes three kinds of links:
//!
//! * intra-committee links — synchronous with delay bound `Δ`,
//! * the leader / partial-set mesh (and links to `C_R`) — synchronous with a
//!   larger bound `Γ`,
//! * everything else (e.g. block propagation to the whole network) — only
//!   partially synchronous.
//!
//! Latencies are sampled deterministically from a seed so simulation runs are
//! reproducible; the adversary is allowed to push any honest message to the full
//! bound of its class (worst-case reordering of classical BFT models).

use cycledger_crypto::hmac::HmacDrbg;
use cycledger_crypto::opcount::{count, Op};
use cycledger_crypto::sha256::sha256;

use crate::time::SimDuration;
use crate::topology::NodeId;

/// Classification of a link used for a message.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LinkClass {
    /// Within one committee: delay in `(0, Δ]`.
    IntraCommittee,
    /// Between key members (leaders / partial sets) and to the referee
    /// committee: delay in `(0, Γ]`.
    KeyMemberMesh,
    /// Partially synchronous links (block propagation to all nodes): delay in
    /// `(0, partial_bound]`, where the bound is unknown to the protocol.
    PartiallySynchronous,
}

/// Latency configuration for a simulation.
#[derive(Clone, Copy, Debug)]
pub struct LatencyConfig {
    /// Synchronous intra-committee bound `Δ`.
    pub delta: SimDuration,
    /// Synchronous key-member mesh bound `Γ`.
    pub gamma: SimDuration,
    /// Bound used for partially synchronous links.
    pub partial_bound: SimDuration,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        // Δ = 50 ms within a committee (a few hundred nearby nodes),
        // Γ = 200 ms across the key-member mesh, 1 s for the rest of the world.
        LatencyConfig {
            delta: SimDuration::from_millis(50),
            gamma: SimDuration::from_millis(200),
            partial_bound: SimDuration::from_millis(1_000),
        }
    }
}

impl LatencyConfig {
    /// A tight datacenter profile: Δ = 5 ms, Γ = 20 ms, 100 ms for
    /// partially synchronous links.
    pub fn lan() -> Self {
        LatencyConfig {
            delta: SimDuration::from_millis(5),
            gamma: SimDuration::from_millis(20),
            partial_bound: SimDuration::from_millis(100),
        }
    }

    /// A stretched wide-area profile: Δ = 150 ms, Γ = 600 ms, 3 s for
    /// partially synchronous links.
    pub fn wan() -> Self {
        LatencyConfig {
            delta: SimDuration::from_millis(150),
            gamma: SimDuration::from_millis(600),
            partial_bound: SimDuration::from_millis(3_000),
        }
    }

    /// Upper bound for a link class.
    pub fn bound(&self, class: LinkClass) -> SimDuration {
        match class {
            LinkClass::IntraCommittee => self.delta,
            LinkClass::KeyMemberMesh => self.gamma,
            LinkClass::PartiallySynchronous => self.partial_bound,
        }
    }
}

/// Deterministic latency sampler.
#[derive(Clone, Debug)]
pub struct LatencySampler {
    config: LatencyConfig,
    seed: u64,
}

impl LatencySampler {
    /// Creates a sampler with the given configuration and seed.
    pub fn new(config: LatencyConfig, seed: u64) -> Self {
        LatencySampler { config, seed }
    }

    /// The seed all samples derive from (shared with the fault model so one
    /// network seed fixes latency, loss and jitter together).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Samples the delivery delay for the `seq`-th message from `from` to `to`
    /// over a link of class `class`.
    ///
    /// Honest traffic is uniform in `[bound/4, bound]`; the lower clamp models a
    /// nonzero propagation floor.
    pub fn sample(&self, class: LinkClass, from: NodeId, to: NodeId, seq: u64) -> SimDuration {
        let bound = self.config.bound(class).as_micros().max(1);
        let floor = (bound / 4).max(1);
        count(Op::LatencyDraw);
        let mut drbg = link_draw("cycledger/latency", self.seed, from, to, seq);
        let span = bound - floor + 1;
        SimDuration::from_micros(floor + drbg.next_below(span))
    }
}

/// The generator behind one decision about the `n`-th message of a link:
/// `HmacDrbg::from_parts(domain, &[seed, from, to, n])` (all big-endian), its
/// length-prefixed preimage assembled on the stack and hashed in one call —
/// every envelope pays for one of these, a lossy or jittered one for more.
pub(crate) fn link_draw(domain: &str, seed: u64, from: NodeId, to: NodeId, n: u64) -> HmacDrbg {
    // Five 8-byte length prefixes, 24 bytes of integers, a domain of up to 32.
    let mut preimage = [0u8; 96];
    let mut at = 0;
    for part in [
        domain.as_bytes(),
        &seed.to_be_bytes(),
        &from.0.to_be_bytes(),
        &to.0.to_be_bytes(),
        &n.to_be_bytes(),
    ] {
        preimage[at..at + 8].copy_from_slice(&(part.len() as u64).to_le_bytes());
        preimage[at + 8..at + 8 + part.len()].copy_from_slice(part);
        at += 8 + part.len();
    }
    HmacDrbg::new(sha256(&preimage[..at]).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_draw_is_from_parts_of_the_four_integers() {
        for domain in [
            "cycledger/latency",
            "cycledger/net-loss",
            "cycledger/net-jitter",
        ] {
            for (seed, from, to, n) in [
                (0u64, 0u32, 0u32, 0u64),
                (4242, 3, 11, 7),
                (u64::MAX, 9, 1, 1 << 40),
            ] {
                let mut expected = HmacDrbg::from_parts(
                    domain,
                    &[
                        &seed.to_be_bytes(),
                        &from.to_be_bytes(),
                        &to.to_be_bytes(),
                        &n.to_be_bytes(),
                    ],
                );
                let mut drawn = link_draw(domain, seed, NodeId(from), NodeId(to), n);
                assert_eq!(drawn.next_bytes32(), expected.next_bytes32(), "{domain}");
            }
        }
    }

    #[test]
    fn default_ordering_of_bounds() {
        for cfg in [
            LatencyConfig::default(),
            LatencyConfig::lan(),
            LatencyConfig::wan(),
        ] {
            assert!(cfg.delta < cfg.gamma);
            assert!(cfg.gamma < cfg.partial_bound);
        }
        let cfg = LatencyConfig::default();
        assert_eq!(cfg.bound(LinkClass::IntraCommittee), cfg.delta);
        assert_eq!(cfg.bound(LinkClass::KeyMemberMesh), cfg.gamma);
        assert_eq!(
            cfg.bound(LinkClass::PartiallySynchronous),
            cfg.partial_bound
        );
    }

    #[test]
    fn samples_respect_bounds() {
        let sampler = LatencySampler::new(LatencyConfig::default(), 42);
        for seq in 0..200 {
            for class in [
                LinkClass::IntraCommittee,
                LinkClass::KeyMemberMesh,
                LinkClass::PartiallySynchronous,
            ] {
                let d = sampler.sample(class, NodeId(1), NodeId(2), seq);
                let bound = LatencyConfig::default().bound(class);
                assert!(d <= bound, "{class:?}: {d:?} > {bound:?}");
                assert!(d.as_micros() >= bound.as_micros() / 4);
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a = LatencySampler::new(LatencyConfig::default(), 7);
        let b = LatencySampler::new(LatencyConfig::default(), 7);
        let c = LatencySampler::new(LatencyConfig::default(), 8);
        let da = a.sample(LinkClass::IntraCommittee, NodeId(0), NodeId(1), 3);
        let db = b.sample(LinkClass::IntraCommittee, NodeId(0), NodeId(1), 3);
        let dc = c.sample(LinkClass::IntraCommittee, NodeId(0), NodeId(1), 3);
        assert_eq!(da, db);
        assert_ne!(da, dc);
    }

    #[test]
    fn samples_vary_with_sequence_number() {
        let sampler = LatencySampler::new(LatencyConfig::default(), 11);
        let mut distinct = std::collections::HashSet::new();
        for seq in 0..50 {
            distinct.insert(sampler.sample(LinkClass::KeyMemberMesh, NodeId(0), NodeId(1), seq));
        }
        assert!(distinct.len() > 10, "latency should not be constant");
    }

    #[test]
    fn tiny_bounds_still_work() {
        let cfg = LatencyConfig {
            delta: SimDuration::from_micros(1),
            gamma: SimDuration::from_micros(2),
            partial_bound: SimDuration::from_micros(3),
        };
        let sampler = LatencySampler::new(cfg, 0);
        let d = sampler.sample(LinkClass::IntraCommittee, NodeId(0), NodeId(1), 0);
        assert!(d.as_micros() >= 1 && d.as_micros() <= 1);
    }
}
