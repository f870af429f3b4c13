//! HMAC-SHA256 (RFC 2104) and an HMAC-DRBG-style deterministic byte stream.
//!
//! The DRBG is used wherever the protocol needs *deterministic* pseudorandomness
//! derived from protocol state: deterministic Schnorr nonces (RFC 6979 flavour),
//! expanding a round seed `R^r` into per-committee lotteries, and reproducible
//! workload generation in the benchmark harness.
//!
//! Most generators are drawn from once and dropped (a link latency, a nonce,
//! a Fiat–Shamir challenge), so the cost of one draw is the cost that counts:
//! see "One-shot draws" in the crate's `DESIGN-notes.md`.

use std::sync::OnceLock;

use crate::opcount::{count, Op};
use crate::sha256::{
    compress, compress_pair, sha256, state_bytes, Digest, Sha256, BLOCK_LEN, DIGEST_LEN, H0,
};

/// Computes HMAC-SHA256 over `data` with `key`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> Digest {
    hmac_sha256_parts(key, &[data])
}

/// HMAC-SHA256 over the concatenation of several message parts.
pub fn hmac_sha256_parts(key: &[u8], parts: &[&[u8]]) -> Digest {
    Digest(HmacKey::new(key).mac(parts))
}

/// The longest message whose padding still ends in the second block after
/// the key block: `0x80` and the 8-byte bit length take nine bytes.
const TWO_BLOCK_MAX: usize = 2 * BLOCK_LEN - 9;

/// An HMAC-SHA256 key with its schedule done: the SHA-256 states after the
/// `key ^ ipad` and `key ^ opad` blocks, so a MAC under it pays only for the
/// message's own blocks and one outer block.
#[derive(Clone)]
struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    fn new(key: &[u8]) -> HmacKey {
        let mut block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block[..DIGEST_LEN].copy_from_slice(sha256(key).as_bytes());
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        // The two pad blocks are independent: one interleaved SHA-NI pair.
        let pads = [block.map(|b| b ^ 0x36), block.map(|b| b ^ 0x5c)];
        let mut states = [H0; 2];
        compress_pair(&mut states, &pads);
        HmacKey {
            inner: states[0],
            outer: states[1],
        }
    }

    /// The MAC of the concatenation of `parts`.
    ///
    /// A message of up to [`TWO_BLOCK_MAX`] bytes — every input the DRBG
    /// makes from a 32-byte seed is 32, 33 or 65 — is laid out with its
    /// padding as one or two blocks on the stack; longer ones stream.
    #[inline]
    fn mac(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let inner_digest = if len <= TWO_BLOCK_MAX {
            let mut padded = [0u8; 2 * BLOCK_LEN];
            let mut at = 0;
            for part in parts {
                padded[at..at + part.len()].copy_from_slice(part);
                at += part.len();
            }
            padded[at] = 0x80;
            let end = if len + 9 <= BLOCK_LEN {
                BLOCK_LEN
            } else {
                2 * BLOCK_LEN
            };
            let bit_len = 8 * (BLOCK_LEN + len) as u64;
            padded[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
            let mut inner = self.inner;
            for block in padded[..end].chunks_exact(BLOCK_LEN) {
                compress(&mut inner, block.try_into().expect("whole block"));
            }
            state_bytes(&inner)
        } else {
            let mut hasher = Sha256::resume(self.inner, 1);
            for part in parts {
                hasher.update(part);
            }
            hasher.finalize().0
        };
        // The outer hash: the opad state, the inner digest and its padding
        // are exactly one more block.
        let mut block = [0u8; BLOCK_LEN];
        block[..DIGEST_LEN].copy_from_slice(&inner_digest);
        block[DIGEST_LEN] = 0x80;
        let bit_len = 8 * (BLOCK_LEN + DIGEST_LEN) as u64;
        block[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        let mut outer = self.outer;
        compress(&mut outer, &block);
        state_bytes(&outer)
    }
}

/// Deterministic byte-stream generator in the style of HMAC-DRBG (NIST SP 800-90A,
/// simplified: no reseed counter, no additional input after instantiation).
///
/// The state update that ends a request is *owed*, not made: the next
/// request pays it first. The stream is the same byte for byte, and a
/// generator that is dropped after one request never pays it.
#[derive(Clone)]
pub struct HmacDrbg {
    key: HmacKey,
    v: [u8; DIGEST_LEN],
    update_owed: bool,
}

impl HmacDrbg {
    /// Instantiates the DRBG from seed material.
    pub fn new(seed: &[u8]) -> Self {
        // Every generator starts from the all-zero key: one schedule a process.
        static ZERO_KEY: OnceLock<HmacKey> = OnceLock::new();
        count(Op::DrbgInstantiate);
        let mut drbg = HmacDrbg {
            key: ZERO_KEY
                .get_or_init(|| HmacKey::new(&[0u8; DIGEST_LEN]))
                .clone(),
            v: [1u8; DIGEST_LEN],
            update_owed: false,
        };
        drbg.update(Some(seed));
        drbg
    }

    /// Instantiates the DRBG from several seed parts (domain separation included).
    ///
    /// Streams the same length-prefixed encoding `hash_parts` would produce
    /// directly into the hasher — a DRBG is instantiated per simulated
    /// message for latency sampling, so this constructor must not allocate.
    pub fn from_parts(domain: &str, parts: &[&[u8]]) -> Self {
        let mut h = Sha256::new();
        let d = domain.as_bytes();
        h.update(&(d.len() as u64).to_le_bytes());
        h.update(d);
        for p in parts {
            h.update(&(p.len() as u64).to_le_bytes());
            h.update(p);
        }
        Self::new(h.finalize().as_bytes())
    }

    fn update(&mut self, provided: Option<&[u8]>) {
        let data = provided.unwrap_or(&[]);
        self.rekey(0x00, data);
        if provided.is_some() {
            self.rekey(0x01, data);
        }
    }

    /// `K = HMAC(K, V ‖ tag ‖ data)`, then `V = HMAC(K, V)`.
    fn rekey(&mut self, tag: u8, data: &[u8]) {
        self.key = HmacKey::new(&self.key.mac(&[&self.v, &[tag], data]));
        self.v = self.key.mac(&[&self.v]);
    }

    /// Fills `out` with the next bytes of the deterministic stream.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        if self.update_owed {
            self.update(None);
        }
        for chunk in out.chunks_mut(DIGEST_LEN) {
            self.v = self.key.mac(&[&self.v]);
            chunk.copy_from_slice(&self.v[..chunk.len()]);
        }
        // Also after an empty request: it advances the stream all the same.
        self.update_owed = true;
    }

    /// Returns the next 32 bytes of the stream.
    pub fn next_bytes32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.fill_bytes(&mut out);
        out
    }

    /// Returns the next `u64` of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let mut out = [0u8; 8];
        self.fill_bytes(&mut out);
        u64::from_be_bytes(out)
    }

    /// Returns a uniformly distributed value in `[0, bound)` using rejection
    /// sampling over [`HmacDrbg::next_u64`] (see [`below`]).
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        below(bound, || self.next_u64())
    }
}

/// A uniformly distributed value in `[0, bound)` from a source of uniform
/// `u64`s, by rejection sampling: values above the last whole multiple of
/// `bound` are drawn again. `bound == 1` draws nothing.
///
/// This is the one definition of the stream's bounded draws: a consumer that
/// takes a generator's `next_u64` values from elsewhere (computed ahead, on
/// another thread) gets exactly what [`HmacDrbg::next_below`] returns.
///
/// Panics if `bound == 0`.
pub fn below(bound: u64, mut next: impl FnMut() -> u64) -> u64 {
    assert!(bound > 0, "bound must be positive");
    if bound == 1 {
        return 0;
    }
    // Rejection zone keeps the result unbiased.
    let zone = u64::MAX - (u64::MAX % bound) - 1;
    loop {
        let v = next();
        if v <= zone {
            return v % bound;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// HMAC-SHA256 as this module computed it before `HmacKey`: both pad
    /// blocks and the message through the streaming hasher, nothing cached.
    fn naive_hmac_parts(key: &[u8], parts: &[&[u8]]) -> Digest {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = crate::sha256::sha256(key);
            key_block[..DIGEST_LEN].copy_from_slice(d.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        for p in parts {
            inner.update(p);
        }
        let inner_digest = inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&opad);
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }

    fn naive_hmac(key: &[u8], data: &[u8]) -> Digest {
        naive_hmac_parts(key, &[data])
    }

    /// The generator as it was before the key schedule was kept and the
    /// closing update owed — the oracle the stream is held to, byte for byte.
    #[derive(Clone)]
    struct NaiveDrbg {
        k: [u8; DIGEST_LEN],
        v: [u8; DIGEST_LEN],
    }

    impl NaiveDrbg {
        fn new(seed: &[u8]) -> Self {
            let mut drbg = NaiveDrbg {
                k: [0u8; DIGEST_LEN],
                v: [1u8; DIGEST_LEN],
            };
            drbg.update(Some(seed));
            drbg
        }

        fn update(&mut self, provided: Option<&[u8]>) {
            match provided {
                Some(p) => {
                    self.k = naive_hmac_parts(&self.k, &[&self.v, &[0x00], p]).0;
                    self.v = naive_hmac(&self.k, &self.v).0;
                    self.k = naive_hmac_parts(&self.k, &[&self.v, &[0x01], p]).0;
                    self.v = naive_hmac(&self.k, &self.v).0;
                }
                None => {
                    self.k = naive_hmac_parts(&self.k, &[&self.v, &[0x00]]).0;
                    self.v = naive_hmac(&self.k, &self.v).0;
                }
            }
        }

        fn fill_bytes(&mut self, out: &mut [u8]) {
            let mut offset = 0;
            while offset < out.len() {
                self.v = naive_hmac(&self.k, &self.v).0;
                let take = (out.len() - offset).min(DIGEST_LEN);
                out[offset..offset + take].copy_from_slice(&self.v[..take]);
                offset += take;
            }
            self.update(None);
        }

        fn next_u64(&mut self) -> u64 {
            let mut out = [0u8; 8];
            self.fill_bytes(&mut out);
            u64::from_be_bytes(out)
        }

        fn next_below(&mut self, bound: u64) -> u64 {
            if bound == 1 {
                return 0;
            }
            let zone = u64::MAX - (u64::MAX % bound) - 1;
            loop {
                let v = self.next_u64();
                if v <= zone {
                    return v % bound;
                }
            }
        }
    }

    const FILL_LENS: [usize; 8] = [0, 1, 8, 31, 32, 33, 64, 100];
    const BOUNDS: [u64; 5] = [1, 2, 37_501, 150_001, u64::MAX];

    /// Plays one request on both generators; `op` picks a `fill_bytes`
    /// length, `next_u64` or a `next_below` bound.
    fn same_request(new: &mut HmacDrbg, old: &mut NaiveDrbg, op: usize) {
        let op = op % (FILL_LENS.len() + 1 + BOUNDS.len());
        if let Some(&len) = FILL_LENS.get(op) {
            let (mut a, mut b) = (vec![0u8; len], vec![0u8; len]);
            new.fill_bytes(&mut a);
            old.fill_bytes(&mut b);
            assert_eq!(a, b, "fill_bytes({len})");
        } else if op == FILL_LENS.len() {
            assert_eq!(new.next_u64(), old.next_u64());
        } else {
            let bound = BOUNDS[op - FILL_LENS.len() - 1];
            assert_eq!(new.next_below(bound), old.next_below(bound), "{bound}");
        }
    }

    #[test]
    fn drbg_matches_the_naive_generator_for_every_seed_length() {
        // 0..=200 crosses the two-block layout's limit (a 65-byte input is
        // `V ‖ tag ‖ seed` of a 32-byte seed; 86 bytes of seed is the last
        // that fits) and the block-size key of the first HMAC.
        for len in 0..=200usize {
            let seed: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let mut new = HmacDrbg::new(&seed);
            let mut old = NaiveDrbg::new(&seed);
            for op in [len, 4, 8, len + 3] {
                same_request(&mut new, &mut old, op);
            }
        }
    }

    #[test]
    fn an_empty_request_advances_the_stream() {
        let mut drbg = HmacDrbg::new(b"empty");
        let mut skipped = drbg.clone();
        skipped.fill_bytes(&mut []);
        assert_ne!(drbg.next_u64(), skipped.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_drbg_matches_the_naive_generator(
            seed in proptest::collection::vec(any::<u8>(), 0..201),
            script in proptest::collection::vec(0usize..14, 1..12),
            clone_at in 0usize..12,
        ) {
            let mut new = HmacDrbg::new(&seed);
            let mut old = NaiveDrbg::new(&seed);
            let mut copies = None;
            for (step, &op) in script.iter().enumerate() {
                same_request(&mut new, &mut old, op);
                if step == clone_at {
                    // Taken after a request, so with the closing update owed.
                    copies = Some((new.clone(), old.clone(), step + 1));
                }
            }
            // The copy goes on exactly as the original did from that point:
            // both are held to copies of one oracle.
            if let Some((mut new_copy, mut old_copy, from)) = copies {
                for &op in &script[from..] {
                    same_request(&mut new_copy, &mut old_copy, op);
                }
                prop_assert_eq!(new_copy.next_bytes32(), new.next_bytes32());
            }
        }

        #[test]
        fn prop_hmac_matches_the_naive_hmac(
            key in proptest::collection::vec(any::<u8>(), 0..201),
            data in proptest::collection::vec(any::<u8>(), 0..301),
            split in 0usize..301,
        ) {
            let (head, tail) = data.split_at(split.min(data.len()));
            let expected = naive_hmac(&key, &data);
            prop_assert_eq!(hmac_sha256(&key, &data), expected);
            prop_assert_eq!(hmac_sha256_parts(&key, &[head, tail]), expected);
        }
    }

    /// One draw in each of the four hot domains, recorded at commit b85479e
    /// (the naive generator): the stream is part of every golden.
    #[test]
    fn one_shot_draws_known_answers() {
        let link: [&[u8]; 4] = [
            &4242u64.to_be_bytes(),
            &3u32.to_be_bytes(),
            &11u32.to_be_bytes(),
            &7u64.to_be_bytes(),
        ];
        let mut latency = HmacDrbg::from_parts("cycledger/latency", &link);
        assert_eq!(latency.next_below(37_501), 5_349);
        let mut latency = HmacDrbg::from_parts("cycledger/latency", &link);
        assert_eq!(latency.next_u64(), 0x0894_88c2_6437_5e78);
        let mut loss = HmacDrbg::from_parts("cycledger/net-loss", &link);
        assert_eq!(loss.next_below(1_000_000), 26_973);

        let nonce_parts: [&[u8]; 2] = [&[7u8; 32], b"known-answer message"];
        let mut schnorr = HmacDrbg::from_parts("cycledger/schnorr-nonce", &nonce_parts);
        assert_eq!(
            Digest(schnorr.next_bytes32()).to_hex(),
            "5a92643efbe573f7e0809e91dd3d0aeb5a148e823d419c7468c3c04aeda85e5b"
        );
        // The second request pays the update the first one owed.
        assert_eq!(
            Digest(schnorr.next_bytes32()).to_hex(),
            "1495ace146772dcaf8faab792cfb77b88e7e5d2759a602b711bb01907cdf9447"
        );
        let mut vrf = HmacDrbg::from_parts("cycledger/vrf-nonce", &nonce_parts);
        assert_eq!(
            Digest(vrf.next_bytes32()).to_hex(),
            "dcbc44a88c18454a0d360cbb622fc3c30d84f9a1558cff3516ab5b5470e25c18"
        );
    }

    // RFC 4231 test vectors for HMAC-SHA256 (`hmac_sha256` is `HmacKey::new` + `mac`).
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let out = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            out.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            out.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let out = hmac_sha256(&key, &data);
        assert_eq!(
            out.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_long_key() {
        let key = [0xaau8; 131];
        let out = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            out.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn parts_equals_concat() {
        let key = b"key";
        assert_eq!(
            hmac_sha256_parts(key, &[b"ab", b"cd"]),
            hmac_sha256(key, b"abcd")
        );
    }

    #[test]
    fn drbg_is_deterministic() {
        let mut a = HmacDrbg::new(b"seed material");
        let mut b = HmacDrbg::new(b"seed material");
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = HmacDrbg::new(b"other seed");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn drbg_domain_separation() {
        let mut a = HmacDrbg::from_parts("A", &[b"x"]);
        let mut b = HmacDrbg::from_parts("B", &[b"x"]);
        assert_ne!(a.next_bytes32(), b.next_bytes32());
    }

    #[test]
    fn drbg_next_below_in_range_and_covers() {
        let mut drbg = HmacDrbg::new(b"range");
        let mut seen = [false; 7];
        for _ in 0..500 {
            let v = drbg.next_below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
        assert_eq!(drbg.next_below(1), 0);
    }

    /// `below` over a scripted source: the value and how many it took.
    fn below_scripted(bound: u64, values: &[u64]) -> (u64, usize) {
        let mut taken = 0;
        let v = below(bound, || {
            taken += 1;
            values[taken - 1]
        });
        (v, taken)
    }

    #[test]
    fn below_draws_again_only_above_the_zone() {
        assert_eq!(below_scripted(1, &[]), (0, 0), "bound 1 draws nothing");
        // A power of two: the top `bound` values are drawn again.
        for k in [1u32, 8, 32, 63] {
            let bound = 1u64 << k;
            let zone = u64::MAX - bound;
            assert_eq!(below_scripted(bound, &[zone]), (zone % bound, 1));
            assert_eq!(
                below_scripted(bound, &[zone + 1, 12_345]),
                (12_345 % bound, 2)
            );
            assert_eq!(
                below_scripted(bound, &[u64::MAX, u64::MAX, 3]),
                (3 % bound, 3)
            );
        }
        // Near 2^64: 2^63 + 1 leaves a zone of exactly [0, 2^63], and
        // `u64::MAX` rejects only itself.
        let bound = (1u64 << 63) + 1;
        assert_eq!(below_scripted(bound, &[1 << 63]), (1 << 63, 1));
        assert_eq!(below_scripted(bound, &[(1 << 63) + 1, 5]), (5, 2));
        assert_eq!(below_scripted(u64::MAX, &[u64::MAX - 1]), (u64::MAX - 1, 1));
        assert_eq!(below_scripted(u64::MAX, &[u64::MAX, 7]), (7, 2));
    }

    #[test]
    fn drbg_stream_chunks_match() {
        let mut a = HmacDrbg::new(b"chunks");
        let mut whole = [0u8; 96];
        a.fill_bytes(&mut whole);
        let mut b = HmacDrbg::new(b"chunks");
        let mut first = [0u8; 96];
        b.fill_bytes(&mut first);
        assert_eq!(whole, first);
    }
}
