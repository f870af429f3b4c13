//! SHA-256 implemented from scratch (FIPS 180-4).
//!
//! CycLedger models its external random oracle `H` as a collision-resistant hash
//! function; every protocol object (semi-commitments, block hashes, sortition
//! lotteries, PoW puzzles) is keyed off this primitive.  The implementation is a
//! straightforward, allocation-free compression-function loop with an incremental
//! [`Sha256`] hasher plus convenience one-shot helpers.
//! Compression runs on SHA-NI where the CPU has it, bit-identically; a batch
//! of independent messages ([`sha256_many`]) is hashed in pairs, nothing wider.
//! One SHA-NI kernel body expands for one lane and for two, its round
//! constants taken from the scalar table `K` at compile time
//! (`crates/crypto/DESIGN-notes.md`, "Hardware dispatch", says how its
//! machine code was checked).

use crate::opcount::{count, Op};

/// Size of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;
/// Size of a SHA-256 message block in bytes.
pub const BLOCK_LEN: usize = 64;

/// A 32-byte SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// The all-zero digest, used as a sentinel (e.g. empty Merkle tree root).
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Hex-encodes the digest (lowercase).
    ///
    /// One table lookup per input byte writes both nibbles at once into a
    /// fixed-size buffer; the only allocation is the returned `String`.
    pub fn to_hex(&self) -> String {
        /// `HEX_PAIRS[b]` is the two-character lowercase hex encoding of `b`.
        const HEX_PAIRS: [[u8; 2]; 256] = {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            let mut table = [[0u8; 2]; 256];
            let mut b = 0usize;
            while b < 256 {
                table[b] = [HEX[b >> 4], HEX[b & 0xf]];
                b += 1;
            }
            table
        };
        let mut out = [0u8; DIGEST_LEN * 2];
        for (i, &b) in self.0.iter().enumerate() {
            out[2 * i..2 * i + 2].copy_from_slice(&HEX_PAIRS[b as usize]);
        }
        core::str::from_utf8(&out).expect("hex is ASCII").to_owned()
    }

    /// Parses a 64-character hex string into a digest.
    pub fn from_hex(s: &str) -> Option<Digest> {
        let s = s.as_bytes();
        if s.len() != DIGEST_LEN * 2 {
            return None;
        }
        let nib = |c: u8| -> Option<u8> {
            match c {
                b'0'..=b'9' => Some(c - b'0'),
                b'a'..=b'f' => Some(c - b'a' + 10),
                b'A'..=b'F' => Some(c - b'A' + 10),
                _ => None,
            }
        };
        let mut out = [0u8; DIGEST_LEN];
        for i in 0..DIGEST_LEN {
            out[i] = (nib(s[2 * i])? << 4) | nib(s[2 * i + 1])?;
        }
        Some(Digest(out))
    }

    /// Interprets the first 8 bytes of the digest as a big-endian `u64`.
    ///
    /// Used by the sortition and lottery code paths that need a uniform integer
    /// derived from a hash (`hash mod m` style committee assignment).
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }

    /// Counts leading zero bits, used by the proof-of-work puzzle verifier.
    pub fn leading_zero_bits(&self) -> u32 {
        let mut n = 0u32;
        for &b in &self.0 {
            if b == 0 {
                n += 8;
            } else {
                n += b.leading_zeros();
                break;
            }
        }
        n
    }
}

impl core::fmt::Debug for Digest {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Digest({})", &self.to_hex()[..16])
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(b: [u8; DIGEST_LEN]) -> Self {
        Digest(b)
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// A hasher that has already absorbed `blocks` whole blocks and stands at
    /// `state` — how an HMAC resumes from its key schedule.
    pub(crate) fn resume(state: [u32; 8], blocks: u64) -> Self {
        Sha256 {
            state,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: blocks * BLOCK_LEN as u64,
        }
    }

    /// Absorbs `data` into the hash state.
    ///
    /// Streaming contract: the internal buffer only ever holds the sub-block
    /// tail of the input. Once the buffer completes a block (or was empty to
    /// begin with), every full 64-byte block is compressed **directly from
    /// the input slice** — no staging copy through `buf` on the bulk path.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let need = BLOCK_LEN - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                // `state` and `buf` are disjoint fields, so the completed
                // block compresses in place without copying it out first.
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while data.len() >= BLOCK_LEN {
            let block: &[u8; BLOCK_LEN] = data[..BLOCK_LEN].try_into().expect("block");
            compress(&mut self.state, block);
            data = &data[BLOCK_LEN..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
        self
    }

    /// Finalizes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length.
        let mut pad = [0u8; BLOCK_LEN * 2];
        pad[0] = 0x80;
        let pad_len = if self.buf_len < 56 {
            56 - self.buf_len
        } else {
            120 - self.buf_len
        };
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update_no_count(&pad[..pad_len + 8]);
        Digest(state_bytes(&self.state))
    }

    fn update_no_count(&mut self, data: &[u8]) {
        let saved = self.total_len;
        self.update(data);
        self.total_len = saved;
    }
}

/// The big-endian serialization of a hash state: the digest, once the padded
/// final block is in.
pub(crate) fn state_bytes(state: &[u32; 8]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Compresses one 64-byte block into the state.
///
/// Dispatches to the SHA-NI hardware implementation when the CPU supports it
/// (checked once, cached); the portable scalar implementation is the
/// fallback and the differential oracle. Both produce bit-identical states —
/// SHA-256 is fully specified — so every digest, golden file and determinism
/// check is independent of which path ran.
pub(crate) fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    count(Op::Sha256Block);
    #[cfg(target_arch = "x86_64")]
    {
        if shani::available() {
            // SAFETY: `available()` verified the sha/ssse3/sse4.1 features.
            unsafe { shani::compress(state, block) };
            return;
        }
    }
    compress_scalar(state, block);
}

/// Compresses two independent blocks into two independent states,
/// bit-identical to two [`compress`] calls.
///
/// On SHA-NI hardware the two run as one interleaved pair: a lone
/// `sha256rnds2` chain has more latency than throughput, so a second chain
/// fills the pipeline bubble, while a deeper interleave would only spill
/// registers (each lane holds six live `xmm` values).
pub(crate) fn compress_pair(states: &mut [[u32; 8]; 2], blocks: &[[u8; BLOCK_LEN]; 2]) {
    count(Op::Sha256Block);
    count(Op::Sha256Block);
    let [state_a, state_b] = states;
    #[cfg(target_arch = "x86_64")]
    {
        if shani::available() {
            // SAFETY: `available()` verified the sha/ssse3/sse4.1 features.
            unsafe { shani::compress2(state_a, state_b, &blocks[0], &blocks[1]) };
            return;
        }
    }
    compress_scalar(state_a, &blocks[0]);
    compress_scalar(state_b, &blocks[1]);
}

/// Hardware SHA-256 (x86-64 SHA New Instructions), the standard ABEF/CDGH
/// formulation (Gulley et al., "Intel SHA Extensions", 2013): one kernel
/// body, `kernel!`, expanded for one lane (`compress`) and for two
/// (`compress2`).
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::{BLOCK_LEN, K};
    use core::arch::x86_64::*;

    /// True when the CPU exposes the SHA extensions (checked once).
    pub fn available() -> bool {
        static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1")
        })
    }

    /// Round group `g`'s constants `K[4g..4g+4]` as the `(hi, lo)` halves
    /// `_mm_set_epi64x` takes: `K[4g+3]:K[4g+2]` and `K[4g+1]:K[4g]`.
    const fn k4(g: usize) -> (i64, i64) {
        let k = [
            K[4 * g] as u64,
            K[4 * g + 1] as u64,
            K[4 * g + 2] as u64,
            K[4 * g + 3] as u64,
        ];
        ((k[3] << 32 | k[2]) as i64, (k[1] << 32 | k[0]) as i64)
    }

    /// The SHA-NI compression of one or two lanes. A lane is
    /// `(state, block; s0, s1, abef, cdgh, m0, m1, m2, m3, w, t)`: its state
    /// and block, then the names of its registers — the ABEF / CDGH state
    /// halves and their saved copies, the four message vectors, and two
    /// temporaries. Every statement is issued lane by lane, so two lanes'
    /// dependency chains alternate in the pipeline: `sha256rnds2` has several
    /// cycles of latency but near-single-cycle throughput, and a lone chain
    /// leaves the SHA unit mostly idle between dependent rounds.
    ///
    /// The 64 rounds are 16 groups of four: three on the raw message words,
    /// twelve steady groups whose message vectors rotate with period four,
    /// and a last one with nothing left to schedule.
    macro_rules! kernel {
        ($(($state:ident, $block:ident;
            $s0:ident, $s1:ident, $abef:ident, $cdgh:ident,
            $m0:ident, $m1:ident, $m2:ident, $m3:ident, $w:ident, $t:ident)),+) => {{
            // The last steady groups still run their `msg1` half-steps to
            // keep the groups uniform; those results are never read.
            #![allow(unused_assignments)]
            // Byte-swap mask: the message words are big-endian in the block.
            let mask = _mm_set_epi64x(
                0x0c0d_0e0f_0809_0a0bu64 as i64,
                0x0405_0607_0001_0203u64 as i64,
            );
            $(
                // Load state (a..h) and shuffle into the ABEF / CDGH lane
                // order the SHA instructions expect.
                let $t = _mm_loadu_si128($state.as_ptr().cast::<__m128i>());
                let mut $s1 = _mm_loadu_si128($state.as_ptr().add(4).cast::<__m128i>());
                let $t = _mm_shuffle_epi32($t, 0xB1); // CDAB
                $s1 = _mm_shuffle_epi32($s1, 0x1B); // EFGH
                let mut $s0 = _mm_alignr_epi8($t, $s1, 8); // ABEF
                $s1 = _mm_blend_epi16($s1, $t, 0xF0); // CDGH
                let $abef = $s0;
                let $cdgh = $s1;
                let p = $block.as_ptr().cast::<__m128i>();
                let mut $m0 = _mm_shuffle_epi8(_mm_loadu_si128(p), mask);
                let mut $m1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask);
                let mut $m2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask);
                let mut $m3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask);
            )+

            // Rounds 0-11: raw message words, with the first msg1 steps.
            kernel!(@group 0; $(($s0, $s1, $m0, $w)),+);
            kernel!(@group 1; $(($s0, $s1, $m1, $w)),+);
            $($m0 = _mm_sha256msg1_epu32($m0, $m1);)+
            kernel!(@group 2; $(($s0, $s1, $m2, $w)),+);
            $($m1 = _mm_sha256msg1_epu32($m1, $m2);)+

            // Rounds 12-59: steady state, (current, next, previous) vectors.
            kernel!(@group 3; $(($s0, $s1, $m3, $w; $m0, $m2, $t)),+);
            kernel!(@group 4; $(($s0, $s1, $m0, $w; $m1, $m3, $t)),+);
            kernel!(@group 5; $(($s0, $s1, $m1, $w; $m2, $m0, $t)),+);
            kernel!(@group 6; $(($s0, $s1, $m2, $w; $m3, $m1, $t)),+);
            kernel!(@group 7; $(($s0, $s1, $m3, $w; $m0, $m2, $t)),+);
            kernel!(@group 8; $(($s0, $s1, $m0, $w; $m1, $m3, $t)),+);
            kernel!(@group 9; $(($s0, $s1, $m1, $w; $m2, $m0, $t)),+);
            kernel!(@group 10; $(($s0, $s1, $m2, $w; $m3, $m1, $t)),+);
            kernel!(@group 11; $(($s0, $s1, $m3, $w; $m0, $m2, $t)),+);
            kernel!(@group 12; $(($s0, $s1, $m0, $w; $m1, $m3, $t)),+);
            kernel!(@group 13; $(($s0, $s1, $m1, $w; $m2, $m0, $t)),+);
            kernel!(@group 14; $(($s0, $s1, $m2, $w; $m3, $m1, $t)),+);

            // Rounds 60-63: last group, nothing left to schedule.
            kernel!(@group 15; $(($s0, $s1, $m3, $w)),+);

            $(
                // Add the saved state back and restore the a..h word order.
                $s0 = _mm_add_epi32($s0, $abef);
                $s1 = _mm_add_epi32($s1, $cdgh);
                let $t = _mm_shuffle_epi32($s0, 0x1B); // FEBA
                $s1 = _mm_shuffle_epi32($s1, 0xB1); // DCHG
                $s0 = _mm_blend_epi16($t, $s1, 0xF0); // DCBA
                $s1 = _mm_alignr_epi8($s1, $t, 8); // HGFE
                _mm_storeu_si128($state.as_mut_ptr().cast::<__m128i>(), $s0);
                _mm_storeu_si128($state.as_mut_ptr().add(4).cast::<__m128i>(), $s1);
            )+
        }};
        // Rounds 4g..4g+3 on `$cur` = w[4g..4g+3], two per sha256rnds2. A
        // steady group also finishes the schedule of `$next` (w[4g+4..4g+7])
        // from `$cur` and `$prev` (w[4g-4..4g-1]) and runs the first
        // sha256msg1 step of `$prev`'s successor.
        (@group $g:literal;
         $(($s0:ident, $s1:ident, $cur:ident, $w:ident $(; $next:ident, $prev:ident, $t:ident)?)),+) => {{
            let (k_hi, k_lo) = const { k4($g) };
            let k = _mm_set_epi64x(k_hi, k_lo);
            $(let mut $w = _mm_add_epi32($cur, k);)+
            $($s1 = _mm_sha256rnds2_epu32($s1, $s0, $w);)+
            $($(let $t = _mm_alignr_epi8($cur, $prev, 4);)?)+
            $($($next = _mm_add_epi32($next, $t);)?)+
            $($($next = _mm_sha256msg2_epu32($next, $cur);)?)+
            $($w = _mm_shuffle_epi32($w, 0x0E);)+
            $($s0 = _mm_sha256rnds2_epu32($s0, $s1, $w);)+
            $($($prev = _mm_sha256msg1_epu32($prev, $cur);)?)+
        }};
    }

    /// One compression.
    ///
    /// # Safety
    /// Caller must ensure the `sha`, `ssse3` and `sse4.1` CPU features are
    /// present (see [`available`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub unsafe fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        kernel!((state, block; s0, s1, abef, cdgh, m0, m1, m2, m3, w, t));
    }

    /// Two independent compressions, round-interleaved, each lane
    /// bit-identical to a [`compress`] call (12 live `xmm` values, within
    /// the 16-register budget).
    ///
    /// # Safety
    /// Caller must ensure the `sha`, `ssse3` and `sse4.1` CPU features are
    /// present (see [`available`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub unsafe fn compress2(
        state_a: &mut [u32; 8],
        state_b: &mut [u32; 8],
        block_a: &[u8; BLOCK_LEN],
        block_b: &[u8; BLOCK_LEN],
    ) {
        kernel!(
            (state_a, block_a; s0a, s1a, abef_a, cdgh_a, m0a, m1a, m2a, m3a, wa, ta),
            (state_b, block_b; s0b, s1b, abef_b, cdgh_b, m0b, m1b, m2b, m3b, wb, tb)
        );
    }
}

/// Portable scalar compression function (FIPS 180-4 reference formulation).
fn compress_scalar(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("word"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One message of a hashed pair, with its padded block count.
struct Lane<'a> {
    data: &'a [u8],
    /// Number of 64-byte blocks after FIPS 180-4 padding.
    blocks: usize,
}

impl<'a> Lane<'a> {
    fn new(data: &'a [u8]) -> Lane<'a> {
        Lane {
            data,
            blocks: (data.len() + 9).div_ceil(BLOCK_LEN),
        }
    }

    /// Materializes padded block `j` into `out`.
    ///
    /// Full blocks copy straight from the message; the final one or two
    /// blocks are a zeroed block with up to three pieces laid over it: the
    /// message tail, `0x80` right after the message, and the big-endian bit
    /// length closing the last block. No per-byte loop: an SMT key or value
    /// preimage is nothing but such a block and every 65-byte tree node ends
    /// in one, and laid down bytewise it costs about as much as the SHA-NI
    /// compression it feeds.
    fn block_into(&self, j: usize, out: &mut [u8; BLOCK_LEN]) {
        debug_assert!(j < self.blocks);
        let start = j * BLOCK_LEN;
        let len = self.data.len();
        if start + BLOCK_LEN <= len {
            out.copy_from_slice(&self.data[start..start + BLOCK_LEN]);
            return;
        }
        *out = [0u8; BLOCK_LEN];
        // `start > len` only in a second padding block whose `0x80` already
        // went out at the very end of the first.
        if let Some(tail) = self.data.get(start..) {
            out[..tail.len()].copy_from_slice(tail);
            out[tail.len()] = 0x80;
        }
        if j + 1 == self.blocks {
            let bit_len = (len as u64).wrapping_mul(8).to_be_bytes();
            out[BLOCK_LEN - 8..].copy_from_slice(&bit_len);
        }
    }
}

/// SHA-256 of many independent messages, hashed in pairs.
///
/// Equivalent to mapping [`sha256`] over `messages`: each pair goes through
/// `sha256_pair`, and an odd last message through [`sha256`]. Messages may
/// be slices or fixed-size arrays, so a caller with a buffer of equal-length
/// preimages needs no second buffer of references to them.
pub fn sha256_many<M: AsRef<[u8]>>(messages: &[M], out: &mut Vec<Digest>) {
    out.reserve(messages.len());
    let mut pairs = messages.chunks_exact(2);
    for pair in &mut pairs {
        sha256_pair(pair[0].as_ref(), pair[1].as_ref(), out);
    }
    out.extend(pairs.remainder().iter().map(|m| sha256(m.as_ref())));
}

/// Appends the SHA-256 of two messages to `out`: in lockstep through
/// [`compress_pair`] over the shorter one's padded blocks, then the longer
/// one alone. Not generic, so the block layout and the pair inline here, not
/// as out-of-line calls from each crate that calls [`sha256_many`].
fn sha256_pair(a: &[u8], b: &[u8], out: &mut Vec<Digest>) {
    let lanes = [Lane::new(a), Lane::new(b)];
    let lockstep = lanes[0].blocks.min(lanes[1].blocks);
    let mut states = [H0; 2];
    let mut blocks = [[0u8; BLOCK_LEN]; 2];
    for j in 0..lockstep {
        lanes[0].block_into(j, &mut blocks[0]);
        lanes[1].block_into(j, &mut blocks[1]);
        compress_pair(&mut states, &blocks);
    }
    for ((lane, state), block) in lanes.iter().zip(&mut states).zip(&mut blocks) {
        for j in lockstep..lane.blocks {
            lane.block_into(j, block);
            compress(state, block);
        }
    }
    out.extend(states.iter().map(|state| Digest(state_bytes(state))));
}

/// One-shot SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 over the concatenation of several byte slices.
///
/// Each part is length-prefixed (little-endian u64) so that the encoding is
/// unambiguous: `hash_parts(&[a, b]) != hash_parts(&[a ++ b])` in general.
pub fn hash_parts(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(&(p.len() as u64).to_le_bytes());
        h.update(p);
    }
    h.finalize()
}

/// Domain-separated hash: `H(tag-len || tag || data)`, the protocol's random oracle.
pub fn hash_domain(domain: &str, data: &[u8]) -> Digest {
    hash_parts(&[domain.as_bytes(), data])
}

/// SHA-256 of one fixed 64-byte key block followed by a short message, with
/// the key block absorbed once: `KeyedHash::new(key).hash(msg)` is
/// `sha256(key ‖ msg)`, and since the state after the key block is kept, a
/// message of up to [`KeyedHash::MAX_MSG`] bytes — padding included, one
/// block — costs one compression.
///
/// A keyed prefix, not a MAC: the simulated network draws its per-message
/// decisions through it, and nothing secret is derived from one.
#[derive(Clone, Copy, Debug)]
pub struct KeyedHash {
    midstate: [u32; 8],
}

impl KeyedHash {
    /// The longest message one padded block holds: `0x80` and the 8-byte bit
    /// length take nine bytes.
    pub const MAX_MSG: usize = BLOCK_LEN - 9;

    /// Absorbs `key`: one compression.
    pub fn new(key: &[u8; BLOCK_LEN]) -> KeyedHash {
        let mut midstate = H0;
        compress(&mut midstate, key);
        KeyedHash { midstate }
    }

    /// `sha256(key ‖ msg)`: one compression.
    ///
    /// Panics if `msg` is longer than [`KeyedHash::MAX_MSG`].
    #[inline]
    pub fn hash(&self, msg: &[u8]) -> Digest {
        assert!(msg.len() <= Self::MAX_MSG, "one padded block");
        let mut block = [0u8; BLOCK_LEN];
        block[..msg.len()].copy_from_slice(msg);
        block[msg.len()] = 0x80;
        let bit_len = 8 * (BLOCK_LEN + msg.len()) as u64;
        block[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        let mut state = self.midstate;
        compress(&mut state, &block);
        Digest(state_bytes(&state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-change hasher: stages *every* byte through the internal buffer
    /// and only compresses out of it. Kept as a differential oracle for the
    /// streaming `update` path, which compresses full blocks directly from
    /// the input slice.
    struct BufferedSha256 {
        state: [u32; 8],
        buf: [u8; BLOCK_LEN],
        buf_len: usize,
        total_len: u64,
    }

    impl BufferedSha256 {
        fn new() -> Self {
            BufferedSha256 {
                state: H0,
                buf: [0u8; BLOCK_LEN],
                buf_len: 0,
                total_len: 0,
            }
        }

        fn update(&mut self, data: &[u8]) {
            self.total_len = self.total_len.wrapping_add(data.len() as u64);
            for &b in data {
                self.buf[self.buf_len] = b;
                self.buf_len += 1;
                if self.buf_len == BLOCK_LEN {
                    let block = self.buf;
                    compress(&mut self.state, &block);
                    self.buf_len = 0;
                }
            }
        }

        fn finalize(mut self) -> Digest {
            let bit_len = self.total_len.wrapping_mul(8);
            let saved = self.total_len;
            self.update(&[0x80]);
            while self.buf_len != 56 {
                self.update(&[0]);
            }
            self.update(&bit_len.to_be_bytes());
            self.total_len = saved;
            let mut out = [0u8; DIGEST_LEN];
            for (i, word) in self.state.iter().enumerate() {
                out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
            }
            Digest(out)
        }
    }

    fn buffered_oracle(data: &[u8]) -> Digest {
        let mut h = BufferedSha256::new();
        h.update(data);
        h.finalize()
    }

    #[test]
    fn streaming_matches_buffered_oracle_at_block_boundaries() {
        // Multi-block boundary cases around one and two compression blocks.
        for len in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 129, 191, 256] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            assert_eq!(sha256(&data), buffered_oracle(&data), "len {len}");
            // And through a chunked incremental update (chunk straddles the
            // internal buffer).
            let mut h = Sha256::new();
            for c in data.chunks(7) {
                h.update(c);
            }
            assert_eq!(h.finalize(), buffered_oracle(&data), "chunked len {len}");
        }
    }

    #[test]
    fn hardware_compress_matches_scalar() {
        // When the SHA-NI path is active, it must agree with the portable
        // scalar compression on arbitrary states and blocks (on machines
        // without the extension this degenerates to scalar-vs-scalar).
        let mut state_a = H0;
        let mut block = [0u8; BLOCK_LEN];
        for round in 0u32..64 {
            for (i, b) in block.iter_mut().enumerate() {
                *b = ((i as u32).wrapping_mul(37).wrapping_add(round * 101) % 251) as u8;
            }
            let mut state_b = state_a;
            compress(&mut state_a, &block);
            compress_scalar(&mut state_b, &block);
            assert_eq!(state_a, state_b, "divergence at round {round}");
        }
    }

    #[test]
    fn compress_pair_matches_two_compress_calls() {
        // Each lane starts from its own state, neither of them the IV, and
        // chains through 24 distinct blocks, so a swap of the lanes' states
        // or blocks anywhere in the pair shows. `compress` expands from the
        // same kernel body as the pair, so the lanes are also checked against
        // `compress_scalar` itself: only that catches a round group reading
        // the wrong constants or a lane naming its neighbour's register.
        let mut pair = [
            std::array::from_fn(|i| 0x0123_4567u32.wrapping_mul(i as u32 + 3)),
            std::array::from_fn(|i| 0x89AB_CDEFu32.rotate_left(5 * i as u32) ^ 0x5A5A_5A5A),
        ];
        let (mut single, mut oracle) = (pair, pair);
        for round in 0..24usize {
            let blocks: [[u8; BLOCK_LEN]; 2] = std::array::from_fn(|l| {
                std::array::from_fn(|i| ((i * 29 + l * 131 + round * 53) % 256) as u8)
            });
            compress_pair(&mut pair, &blocks);
            for l in 0..2 {
                compress(&mut single[l], &blocks[l]);
                compress_scalar(&mut oracle[l], &blocks[l]);
            }
            assert_eq!(pair, single, "block {round}");
            assert_eq!(pair, oracle, "block {round}, against the oracle");
        }
    }

    /// `len` bytes of a pattern that differs with `seed`.
    fn message(len: usize, seed: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((i * 31 + seed * 7) % 251) as u8)
            .collect()
    }

    #[test]
    fn sha256_many_matches_map() {
        // 0 and 1 messages are no pair; 2 is one; 3 and 13 end in a message
        // hashed alone.
        for count in [0usize, 1, 2, 3, 13] {
            let data: Vec<Vec<u8>> = (0..count).map(|i| message(i * 23, i)).collect();
            let mut got = vec![Digest::ZERO];
            sha256_many(&data, &mut got);
            let expected: Vec<Digest> = std::iter::once(Digest::ZERO)
                .chain(data.iter().map(|m| sha256(m)))
                .collect();
            assert_eq!(got, expected, "{count} messages");
        }
    }

    #[test]
    fn pairs_match_single_hashes_at_block_boundaries() {
        // Lengths straddling the one- and two-block padding boundaries, plus
        // the sparse-Merkle store's own value (33) and key (53) preimages.
        // Every pair in both orders, so the lockstep prefix and the longer
        // message finishing alone are exercised in either lane.
        const LENS: [usize; 15] = [
            0, 1, 33, 53, 55, 56, 63, 64, 65, 119, 120, 127, 128, 129, 200,
        ];
        for (i, &len_a) in LENS.iter().enumerate() {
            for (j, &len_b) in LENS.iter().enumerate() {
                let msgs = [message(len_a, i), message(len_b, j + LENS.len())];
                let mut got = Vec::new();
                sha256_many(&msgs, &mut got);
                assert_eq!(
                    got,
                    [sha256(&msgs[0]), sha256(&msgs[1])],
                    "lens {len_a}, {len_b}"
                );
            }
        }
    }

    #[test]
    fn nist_vectors_in_both_lanes() {
        // Each NIST vector must come out right in either lane of a pair,
        // whatever its neighbour.
        let vectors: [(&[u8], &str); 3] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for pos in 0..2 {
            for (data, hex) in vectors {
                let mut msgs: [&[u8]; 2] = [b"filler-lane-content"; 2];
                msgs[pos] = data;
                let mut got = Vec::new();
                sha256_many(&msgs, &mut got);
                assert_eq!(got[pos].to_hex(), hex, "lane {pos}");
            }
        }
    }

    #[test]
    fn long_message_nist_vector() {
        // NIST "long message" style vector: one million 'a's, streamed through
        // an unaligned chunk size so full blocks are compressed straight from
        // the input slice across chunk boundaries.
        let data = vec![b'a'; 1_000_000];
        let mut h = Sha256::new();
        for c in data.chunks(997) {
            h.update(c);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_chunked_update_matches_oneshot(
            data in proptest::collection::vec(any::<u8>(), 0..512),
            splits in proptest::collection::vec(1usize..96, 0..8),
        ) {
            let mut h = Sha256::new();
            let mut rest: &[u8] = &data;
            for s in splits {
                let take = s.min(rest.len());
                let (head, tail) = rest.split_at(take);
                h.update(head);
                rest = tail;
            }
            h.update(rest);
            prop_assert_eq!(h.finalize(), sha256(&data));
        }

        #[test]
        fn prop_many_matches_oneshot(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            lens in proptest::collection::vec(0usize..300, 0..9),
        ) {
            let msgs: Vec<&[u8]> = lens.iter().map(|&len| &data[..len.min(data.len())]).collect();
            let mut got = Vec::new();
            sha256_many(&msgs, &mut got);
            prop_assert_eq!(got.len(), msgs.len());
            for (l, m) in msgs.iter().enumerate() {
                prop_assert_eq!(got[l], sha256(m), "message {}", l);
            }
        }

        #[test]
        fn prop_pair_matches_oneshot(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            len_a in 0usize..300,
            len_b in 0usize..300,
        ) {
            // One pair of distinct messages: lockstep over the shorter one's
            // blocks, then the longer one alone, in whichever lane it is.
            let (a, b) = (&data[..len_a.min(data.len())], &data[data.len() - len_b.min(data.len())..]);
            let mut got = Vec::new();
            sha256_many(&[a, b], &mut got);
            prop_assert_eq!(got, vec![sha256(a), sha256(b)]);
        }

        #[test]
        fn prop_hex_round_trip(bytes in proptest::array::uniform32(any::<u8>())) {
            let d = Digest(bytes);
            let hex = d.to_hex();
            prop_assert_eq!(hex.len(), DIGEST_LEN * 2);
            prop_assert!(hex.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()));
            prop_assert_eq!(Digest::from_hex(&hex), Some(d));
            // Uppercase input parses to the same digest.
            prop_assert_eq!(Digest::from_hex(&hex.to_uppercase()), Some(d));
        }
    }

    // FIPS 180-4 / NIST test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 127, 500] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise the padding logic around the 55/56/63/64-byte boundaries.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128, 129] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            h.update(&data);
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }

    #[test]
    fn hex_round_trip() {
        let d = sha256(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&"0".repeat(63)), None);
    }

    #[test]
    fn hash_parts_is_not_plain_concatenation() {
        let a = hash_parts(&[b"ab", b"c"]);
        let b = hash_parts(&[b"a", b"bc"]);
        let c = sha256(b"abc");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn domain_separation() {
        assert_ne!(hash_domain("A", b"x"), hash_domain("B", b"x"));
    }

    #[test]
    fn keyed_hash_is_sha256_of_key_then_message() {
        let key: [u8; BLOCK_LEN] = std::array::from_fn(|i| (i * 13 + 5) as u8);
        let keyed = KeyedHash::new(&key);
        for len in 0..=KeyedHash::MAX_MSG {
            let msg: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let whole: Vec<u8> = key.iter().chain(&msg).copied().collect();
            assert_eq!(keyed.hash(&msg), sha256(&whole), "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "one padded block")]
    fn keyed_hash_rejects_a_second_block() {
        KeyedHash::new(&[0u8; BLOCK_LEN]).hash(&[0u8; KeyedHash::MAX_MSG + 1]);
    }

    #[test]
    fn leading_zero_bits_counts() {
        let mut d = [0xffu8; 32];
        assert_eq!(Digest(d).leading_zero_bits(), 0);
        d[0] = 0x00;
        d[1] = 0x0f;
        assert_eq!(Digest(d).leading_zero_bits(), 12);
        assert_eq!(Digest([0u8; 32]).leading_zero_bits(), 256);
    }

    #[test]
    fn prefix_u64_is_big_endian() {
        let mut d = [0u8; 32];
        d[7] = 1;
        assert_eq!(Digest(d).prefix_u64(), 1);
        d[0] = 1;
        assert_eq!(Digest(d).prefix_u64(), (1u64 << 56) | 1);
    }
}
