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
//!
//! Every decision the network makes about one message — its latency here, a
//! loss or a jitter under a [`FaultPlan`](crate::faults::FaultPlan) — is a
//! `LinkDraws`: a SHA-256 keyed once, when the network is built, by the
//! decision's domain and the network seed, then one compression per message.

use cycledger_crypto::hmac::below;
use cycledger_crypto::opcount::{count, Op};
use cycledger_crypto::sha256::{KeyedHash, BLOCK_LEN};

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
    draws: LinkDraws,
}

impl LatencySampler {
    /// Creates a sampler with the given configuration and seed.
    pub fn new(config: LatencyConfig, seed: u64) -> Self {
        LatencySampler {
            config,
            draws: LinkDraws::new("cycledger/latency", seed),
        }
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
        let span = bound - floor + 1;
        SimDuration::from_micros(floor + self.draws.below(from, to, seq, span))
    }
}

/// One kind of decision about the messages of a network's links — a
/// latency, a loss, a jitter — keyed by the network seed.
///
/// The key block, `len(domain) ‖ domain ‖ seed` (an 8-byte little-endian
/// length, the seed big-endian, zeros to 64 bytes), is absorbed once when
/// the draws are built. A decision about the `n`-th message from `from` to
/// `to` then hashes `from ‖ to ‖ n ‖ block` (big-endian, `block` = 0) in one
/// compression, and the digest's four 64-bit words feed [`below`]'s
/// rejection sampler; should it reject all four, `block` = 1, 2, … give more.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LinkDraws {
    key: KeyedHash,
}

impl LinkDraws {
    /// Absorbs the key block of `domain` (at most 48 bytes) and `seed`.
    pub(crate) fn new(domain: &str, seed: u64) -> LinkDraws {
        let domain = domain.as_bytes();
        let mut key = [0u8; BLOCK_LEN];
        key[..8].copy_from_slice(&(domain.len() as u64).to_le_bytes());
        key[8..8 + domain.len()].copy_from_slice(domain);
        key[8 + domain.len()..16 + domain.len()].copy_from_slice(&seed.to_be_bytes());
        LinkDraws {
            key: KeyedHash::new(&key),
        }
    }

    /// The decision about the `n`-th message from `from` to `to`: uniform
    /// in `[0, bound)`.
    ///
    /// Panics if `bound == 0`.
    pub(crate) fn below(&self, from: NodeId, to: NodeId, n: u64, bound: u64) -> u64 {
        let mut msg = [0u8; 20];
        msg[..4].copy_from_slice(&from.0.to_be_bytes());
        msg[4..8].copy_from_slice(&to.0.to_be_bytes());
        msg[8..16].copy_from_slice(&n.to_be_bytes());
        let mut block = 0u32;
        let mut words = [0u64; 4];
        let mut taken = words.len();
        below(bound, || {
            if taken == words.len() {
                msg[16..].copy_from_slice(&block.to_be_bytes());
                let digest = self.key.hash(&msg);
                for (word, bytes) in words.iter_mut().zip(digest.0.chunks_exact(8)) {
                    *word = u64::from_be_bytes(bytes.try_into().expect("8 bytes"));
                }
                block += 1;
                taken = 0;
            }
            taken += 1;
            words[taken - 1]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn each_tenth_of_every_class_range_holds_a_tenth_of_the_draws() {
        const DRAWS: u64 = 100_000;
        let config = LatencyConfig::default();
        let sampler = LatencySampler::new(config, 4242);
        for class in [
            LinkClass::IntraCommittee,
            LinkClass::KeyMemberMesh,
            LinkClass::PartiallySynchronous,
        ] {
            let bound = config.bound(class).as_micros();
            let floor = bound / 4;
            let span = bound - floor + 1;
            let mut buckets = [0u64; 10];
            for i in 0..DRAWS {
                let (from, to) = (NodeId((i % 64) as u32), NodeId((i / 64 % 64) as u32));
                let d = sampler.sample(class, from, to, i).as_micros();
                assert!((floor..=bound).contains(&d), "{class:?}: {d}");
                buckets[((d - floor) * 10 / span) as usize] += 1;
            }
            for (k, &n) in buckets.iter().enumerate() {
                assert!(
                    (9_500..=10_500).contains(&n),
                    "{class:?}: tenth {k} holds {n} of {DRAWS}"
                );
            }
        }
    }

    /// The construction as its doc states it, hashed whole with no midstate:
    /// the words of block 0, then of block 1, …, through `hmac::below`.
    fn spelled_out(domain: &str, seed: u64, from: u32, to: u32, n: u64, bound: u64) -> u64 {
        let mut key = [0u8; BLOCK_LEN];
        key[..8].copy_from_slice(&(domain.len() as u64).to_le_bytes());
        key[8..8 + domain.len()].copy_from_slice(domain.as_bytes());
        key[8 + domain.len()..16 + domain.len()].copy_from_slice(&seed.to_be_bytes());
        let mut words = (0u32..).flat_map(|block| {
            let mut preimage = key.to_vec();
            for part in [&from.to_be_bytes()[..], &to.to_be_bytes(), &n.to_be_bytes()] {
                preimage.extend_from_slice(part);
            }
            preimage.extend_from_slice(&block.to_be_bytes());
            let digest = cycledger_crypto::sha256::sha256(&preimage);
            (0..4).map(move |i| u64::from_be_bytes(digest.0[8 * i..8 * i + 8].try_into().unwrap()))
        });
        below(bound, || words.next().unwrap())
    }

    #[test]
    fn a_bound_above_two_to_the_63_takes_its_words_from_counter_blocks() {
        // Bound 2^63 + 1 accepts a word only up to 2^63: each word is
        // rejected with probability one half, all four of block 0 with one
        // sixteenth, and then block 1 must answer.
        let bound = (1u64 << 63) + 1;
        let draws = LinkDraws::new("cycledger/latency", 4242);
        let rebuilt = LinkDraws::new("cycledger/latency", 4242);
        let mut fell_back = 0;
        for n in 0..2_000u64 {
            let v = draws.below(NodeId(3), NodeId(11), n, bound);
            assert!(v < bound);
            assert_eq!(v, rebuilt.below(NodeId(3), NodeId(11), n, bound));
            assert_eq!(v, spelled_out("cycledger/latency", 4242, 3, 11, n, bound));
            let mut first_block = [0u8; 20];
            first_block[..4].copy_from_slice(&3u32.to_be_bytes());
            first_block[4..8].copy_from_slice(&11u32.to_be_bytes());
            first_block[8..16].copy_from_slice(&n.to_be_bytes());
            let digest = draws.key.hash(&first_block);
            if digest
                .0
                .chunks_exact(8)
                .all(|w| u64::from_be_bytes(w.try_into().unwrap()) > 1 << 63)
            {
                fell_back += 1;
            }
        }
        // 125 expected; with the seed fixed the count is exact.
        assert_eq!(fell_back, 140, "draws that needed block 1");
    }

    #[test]
    fn draws_separate_domains_seeds_links_and_sequence_numbers() {
        let bound = u64::MAX;
        let base = LinkDraws::new("cycledger/latency", 1).below(NodeId(0), NodeId(1), 2, bound);
        for other in [
            LinkDraws::new("cycledger/net-loss", 1).below(NodeId(0), NodeId(1), 2, bound),
            LinkDraws::new("cycledger/latency", 2).below(NodeId(0), NodeId(1), 2, bound),
            LinkDraws::new("cycledger/latency", 1).below(NodeId(1), NodeId(0), 2, bound),
            LinkDraws::new("cycledger/latency", 1).below(NodeId(0), NodeId(1), 3, bound),
        ] {
            assert_ne!(base, other);
        }
    }
}
