//! secp256k1 group arithmetic (`y² = x³ + 7` over GF(p)).
//!
//! Points are stored in Jacobian projective coordinates `(X, Y, Z)` with the
//! affine point `(X/Z², Y/Z³)`; the point at infinity is encoded as `Z = 0`.
//!
//! Scalar multiplication uses the standard variable-time fast paths (see
//! `DESIGN-notes.md` in this crate):
//!
//! * one kernel (`strauss`), behind [`Point::mul`], [`Point::mul_double`]
//!   (the `a·P + b·Q` shape every verifier reduces to) and
//!   [`Point::multi_mul`]: every scalar is split with the curve endomorphism
//!   into two 128-bit halves, all halves are recoded to wNAF (width 5 for a
//!   per-call table, width 8 for a registered key's [`KeyTable`], width 12
//!   for the static `G` table) and walk one shared chain of 128 doublings,
//!   and every table is affine — the per-call ones through a shared `Z`,
//!   without an inversion — so each step is a mixed addition
//!   ([`Point::add_affine`]);
//! * a fixed-base comb of signed windows (`FixedBase`: no doublings) — a
//!   lazily built eight-bit one for [`Point::mul_generator`] (at most 33
//!   mixed additions), and a five-bit one per round for the VRF's base;
//! * Montgomery batch inversion ([`Point::batch_to_affine`], and
//!   [`Point::batch_to_affine_array`] with its scratch on the stack) when
//!   many points are normalized at once.
//!
//! Variable time is fine for a protocol simulation
//! (`crates/crypto/DESIGN-notes.md`, "Why variable time is still
//! acceptable"); the naive double-and-add ladder is retained under
//! `#[cfg(test)]` as a differential oracle.

use std::sync::OnceLock;

use crate::fe::{Fe, BETA};
use crate::opcount::{count, Op};
use crate::scalar::{Scalar, SignedHalf};
use crate::u256::U256;

/// A point on secp256k1 in Jacobian coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// A point in affine coordinates, used for serialization and hashing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AffinePoint {
    /// Affine x coordinate.
    pub x: Fe,
    /// Affine y coordinate.
    pub y: Fe,
}

impl Point {
    /// The point at infinity (group identity).
    pub fn infinity() -> Point {
        Point {
            x: Fe::one(),
            y: Fe::one(),
            z: Fe::zero(),
        }
    }

    /// The standard secp256k1 generator `G` (parsed once, then served from a
    /// process-wide cache).
    pub fn generator() -> Point {
        static GENERATOR: OnceLock<Point> = OnceLock::new();
        *GENERATOR.get_or_init(|| {
            let gx = Fe::from_u256(
                U256::from_hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798")
                    .expect("generator x"),
            );
            let gy = Fe::from_u256(
                U256::from_hex("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8")
                    .expect("generator y"),
            );
            Point::from_affine(AffinePoint { x: gx, y: gy })
        })
    }

    /// Lifts an affine point into Jacobian coordinates.
    pub fn from_affine(p: AffinePoint) -> Point {
        Point {
            x: p.x,
            y: p.y,
            z: Fe::one(),
        }
    }

    /// True if this is the point at infinity.
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Converts to affine coordinates; `None` for the point at infinity.
    pub fn to_affine(&self) -> Option<AffinePoint> {
        if self.is_infinity() {
            return None;
        }
        self.scaled_by(&self.z.invert())
    }

    /// Point doubling.
    pub fn double(&self) -> Point {
        if self.is_infinity() || self.y.is_zero() {
            return Point::infinity();
        }
        count(Op::Double);
        // Textbook Jacobian doubling for a = 0:
        //   S  = 4·X·Y²
        //   M  = 3·X²
        //   X' = M² − 2·S
        //   Y' = M·(S − X') − 8·Y⁴
        //   Z' = 2·Y·Z
        let y2 = self.y.square();
        let s = self.x.mul(&y2).mul_u64(4);
        let m = self.x.square().mul_u64(3);
        let x3 = m.square().sub(&s.mul_u64(2));
        let y3 = m.mul(&s.sub(&x3)).sub(&y2.square().mul_u64(8));
        let z3 = self.y.mul(&self.z).mul_u64(2);
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Point addition.
    pub fn add(&self, other: &Point) -> Point {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        count(Op::Add);
        // Textbook Jacobian addition:
        //   U1 = X1·Z2², U2 = X2·Z1², S1 = Y1·Z2³, S2 = Y2·Z1³
        let z1_sq = self.z.square();
        let z2_sq = other.z.square();
        let u1 = self.x.mul(&z2_sq);
        let u2 = other.x.mul(&z1_sq);
        let s1 = self.y.mul(&z2_sq).mul(&other.z);
        let s2 = other.y.mul(&z1_sq).mul(&self.z);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Point::infinity();
        }
        let h = u2.sub(&u1);
        let r = s2.sub(&s1);
        let h2 = h.square();
        let h3 = h2.mul(&h);
        let u1h2 = u1.mul(&h2);
        let x3 = r.square().sub(&h3).sub(&u1h2.mul_u64(2));
        let y3 = r.mul(&u1h2.sub(&x3)).sub(&s1.mul(&h3));
        let z3 = h.mul(&self.z).mul(&other.z);
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition `self + q` for an affine `q`: 8M + 3S against the
    /// general formula's 12M + 4S, because `q`'s `Z` is one.
    pub fn add_affine(&self, q: &AffinePoint) -> Point {
        if self.is_infinity() {
            return q.to_point();
        }
        self.add_affine_core(q, &self.z).0
    }

    /// `self + ψ(q)`, where `self` lives on the isomorphic curve
    /// `y² = x³ + 7·s⁶` and `ψ(x, y) = (x·s², y·s³)` carries the affine `q`
    /// there: folding `s` into the `Z` that scales `q` costs one
    /// multiplication more than [`add_affine`](Self::add_affine).
    fn add_affine_scaled(&self, q: &AffinePoint, s: &Fe) -> Point {
        if self.is_infinity() {
            let s2 = s.square();
            return Point {
                x: q.x.mul(&s2),
                y: q.y.mul(&s2).mul(s),
                z: Fe::one(),
            };
        }
        self.add_affine_core(q, &self.z.mul(s)).0
    }

    /// The mixed addition behind [`add_affine`](Self::add_affine) (`az` is
    /// `self.z`) and [`add_affine_scaled`](Self::add_affine_scaled) (`az` is
    /// `self.z·s`). `self` is not infinity. Also returns `h = Z3 / Z1`, the
    /// ratio the shared-`Z` table construction chains (zero in the doubling
    /// and cancelling cases, where it has no meaning).
    #[inline]
    fn add_affine_core(&self, q: &AffinePoint, az: &Fe) -> (Point, Fe) {
        let az_sq = az.square();
        let u2 = q.x.mul(&az_sq);
        let s2 = q.y.mul(&az_sq).mul(az);
        if self.x == u2 {
            let sum = if self.y == s2 {
                self.double()
            } else {
                Point::infinity()
            };
            return (sum, Fe::zero());
        }
        count(Op::AddAffine);
        let h = u2.sub(&self.x);
        let r = s2.sub(&self.y);
        let h2 = h.square();
        let h3 = h2.mul(&h);
        let u1h2 = self.x.mul(&h2);
        let x3 = r.square().sub(&h3).sub(&u1h2.mul_u64(2));
        let y3 = r.mul(&u1h2.sub(&x3)).sub(&self.y.mul(&h3));
        let sum = Point {
            x: x3,
            y: y3,
            z: self.z.mul(&h),
        };
        (sum, h)
    }

    /// Point negation.
    pub fn neg(&self) -> Point {
        if self.is_infinity() {
            return *self;
        }
        Point {
            x: self.x,
            y: self.y.neg(),
            z: self.z,
        }
    }

    /// Scalar multiplication `k·P`: `k` is split for the endomorphism and the
    /// two 128-bit halves walk one chain of 128 doublings (`strauss` below).
    /// Short scalars (PVSS share indices, reputation weights) walk only as
    /// many doublings as they have bits.
    pub fn mul(&self, k: &Scalar) -> Point {
        strauss(
            &[(*k, Base::Point(*self))],
            &mut [Slot::EMPTY; 1],
            &mut [[Wnaf::EMPTY; 2]; 1],
        )
    }

    /// Naive double-and-add ladder (MSB first). Kept only as the differential
    /// oracle every optimized multiplication path is tested against.
    #[cfg(test)]
    pub(crate) fn mul_ladder(&self, k: &Scalar) -> Point {
        let bits = k.as_u256().bits();
        let mut acc = Point::infinity();
        for i in (0..bits).rev() {
            acc = acc.double();
            if k.as_u256().bit(i) {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// `k·G` for the standard generator over a lazily built `FixedBase`
    /// of eight-bit windows: `k` is recoded into 33 signed digits
    /// `d ∈ [−128, 128]`, so evaluation is at most 33 mixed additions and
    /// zero doublings.
    pub fn mul_generator(k: &Scalar) -> Point {
        static TABLE: OnceLock<FixedBase> = OnceLock::new();
        TABLE
            .get_or_init(|| {
                let g = Point::generator().to_affine().expect("G is not infinity");
                FixedBase::new(&g, FB_WIDTH)
            })
            .mul(k)
    }

    /// Strauss–Shamir double multiplication `k1·P1 + k2·P2` over one shared
    /// doubling chain. This is the shape every verifier in the stack reduces
    /// to (`s·G − e·PK` for Schnorr, `s·G + c·PK` / `s·H + c·Γ` for the VRF
    /// DLEQ); a `G` operand is served from the static tables.
    pub fn mul_double(k1: &Scalar, p1: &Point, k2: &Scalar, p2: &Point) -> Point {
        strauss(
            &[(*k1, Base::Point(*p1)), (*k2, Base::Point(*p2))],
            &mut [Slot::EMPTY; 2],
            &mut [[Wnaf::EMPTY; 2]; 2],
        )
    }

    /// Simultaneous multi-scalar multiplication `Σ kᵢ·Bᵢ` over one shared
    /// doubling chain (generalized Strauss, `strauss` below): the cost is
    /// `128 doublings + n·(table + ~43 mixed additions)` instead of `n` full
    /// multiplications, and a term on a registered key ([`Base::Key`]) skips
    /// the table and takes ~28. Terms on the generator are summed into one
    /// scalar and served from the static tables.
    ///
    /// This is what makes random-linear-combination batch verification
    /// actually cheaper than repeated [`Point::mul_double`]: an `n`-signature
    /// batch reduces to one `2n+1`-term combination evaluated here. At
    /// committee-scale batch sizes (tens to a few thousand terms) the shared
    /// chain beats Pippenger bucketing, whose per-window bucket-collapse
    /// overhead dominates until `n` reaches several hundred per window.
    ///
    /// The scratch of up to `STACK_TERMS` (34) terms lives on the stack, so the
    /// quorum batches of a committee and a configuration group of eight VRF
    /// proofs allocate nothing here; certificate batches across committees
    /// take one pair of `Vec`s. A two-term call (a single verification)
    /// initialises two slots, not 45 KiB of them.
    pub fn multi_mul(terms: &[(Scalar, Base<'_>)]) -> Point {
        let n = terms.len();
        if n <= 2 {
            return strauss(
                terms,
                &mut [Slot::EMPTY; 2][..n],
                &mut [[Wnaf::EMPTY; 2]; 2][..n],
            );
        }
        if n <= STACK_TERMS {
            return strauss(
                terms,
                &mut [Slot::EMPTY; STACK_TERMS][..n],
                &mut [[Wnaf::EMPTY; 2]; STACK_TERMS][..n],
            );
        }
        strauss(
            terms,
            &mut vec![Slot::EMPTY; n],
            &mut vec![[Wnaf::EMPTY; 2]; n],
        )
    }

    /// Normalizes a whole slice of points to affine form with a single field
    /// inversion (Montgomery's trick on the `Z` coordinates). Entries at
    /// infinity come back as `None`.
    pub fn batch_to_affine(points: &[Point]) -> Vec<Option<AffinePoint>> {
        let mut zs: Vec<Fe> = points.iter().map(|p| p.z).collect();
        Fe::batch_invert(&mut zs);
        points
            .iter()
            .zip(&zs)
            .map(|(p, z_inv)| p.scaled_by(z_inv))
            .collect()
    }

    /// [`batch_to_affine`](Self::batch_to_affine) of a fixed number of
    /// points, on the stack: a VRF proof's `Γ`, `U` and `V` normalise
    /// without an allocation.
    pub fn batch_to_affine_array<const N: usize>(points: &[Point; N]) -> [Option<AffinePoint>; N] {
        let mut zs = points.map(|p| p.z);
        Fe::batch_invert_array(&mut zs);
        std::array::from_fn(|i| points[i].scaled_by(&zs[i]))
    }

    /// The affine point, given `z_inv = 1/Z`; `None` at infinity.
    fn scaled_by(&self, z_inv: &Fe) -> Option<AffinePoint> {
        if self.is_infinity() {
            return None;
        }
        let z2 = z_inv.square();
        let z3 = z2.mul(z_inv);
        Some(AffinePoint {
            x: self.x.mul(&z2),
            y: self.y.mul(&z3),
        })
    }

    /// True if the (affine form of the) point satisfies the curve equation.
    pub fn is_on_curve(&self) -> bool {
        match self.to_affine() {
            None => true, // infinity is in the group by convention
            Some(a) => a.is_on_curve(),
        }
    }

    /// Group-element equality via cross-multiplication of the Jacobian
    /// coordinates (`X1·Z2² == X2·Z1²` and `Y1·Z2³ == Y2·Z1³`) — no field
    /// inversions.
    pub fn equals(&self, other: &Point) -> bool {
        match (self.is_infinity(), other.is_infinity()) {
            (true, true) => return true,
            (false, false) => {}
            _ => return false,
        }
        let z1_sq = self.z.square();
        let z2_sq = other.z.square();
        if self.x.mul(&z2_sq) != other.x.mul(&z1_sq) {
            return false;
        }
        let z1_cu = z1_sq.mul(&self.z);
        let z2_cu = z2_sq.mul(&other.z);
        self.y.mul(&z2_cu) == other.y.mul(&z1_cu)
    }
}

/// Window width of [`Point::mul_generator`]'s table, built once per process
/// (4 097 entries, 256 KiB, under 2.5 ms). Wider windows trade table size for
/// additions (DESIGN-notes.md has the measurements).
const FB_WIDTH: usize = 8;

/// A fixed-base comb for one base point `B`: `k·B` is at most
/// `256/width + 1` mixed additions and no doublings.
///
/// `k` is recoded into signed `width`-bit digits `d ∈ [−2^(w−1), 2^(w−1)]` (a
/// window above half borrows from the next), and the table holds
/// `d·2^(w·i)·B` for every window `i` and magnitude `d ≥ 1`; the last window
/// only ever holds the scalar's top bits plus a carry, so it keeps only the
/// magnitudes those can reach. [`Point::mul_generator`] is the static
/// instance for `G`; the VRF builds one per round for its `hash_to_curve`
/// base (`vrf::Prover`).
///
/// Every entry is stored affine on the curve scaled by one shared `ζ` (see
/// `strauss`): the build chains mixed additions window by window and
/// rescales all entries to the last one's `Z` in one backward pass — five
/// multiplications an entry and no inversion — and an evaluation multiplies
/// its result's `Z` by `ζ` once.
pub(crate) struct FixedBase {
    width: usize,
    /// `table[i·2^(w−1) + d − 1] = d·2^(w·i)·B`, affine on the `ζ` curve.
    table: Vec<AffinePoint>,
    zeta: Fe,
}

impl FixedBase {
    /// Builds the table of `base` with `width`-bit windows (2 to 16).
    pub(crate) fn new(base: &AffinePoint, width: usize) -> FixedBase {
        assert!((2..=16).contains(&width), "window width {width}");
        let half = 1usize << (width - 1);
        let windows = 256 / width + 1;
        // The top bits plus a carry reach at most 2^(256 − w·(windows − 1)).
        let top = half.min(1 << (256 - width * (windows - 1)));
        let len = (windows - 1) * half + top;
        let mut table = Vec::with_capacity(len);
        // `Z` of each entry over the one before it (the first entry's is 1).
        let mut ratios = Vec::with_capacity(len);
        // The window's base, affine on the curve scaled by its own `Z`, where
        // its multiples are one doubling and then mixed additions.
        let mut step = *base;
        let mut ratio = Fe::one();
        for window in 0..windows {
            let last = window + 1 == windows;
            let mut multiple = step.to_point();
            table.push(step);
            ratios.push(ratio);
            for d in 2..=if last { top } else { half } {
                let (next, h) = if d == 2 {
                    let twice = multiple.double();
                    (twice, twice.z)
                } else {
                    // (d − 1)·B + B with 2 < d ≤ 2^(w−1) never doubles or
                    // cancels: the group has prime order.
                    multiple.add_affine_core(&step, &multiple.z)
                };
                multiple = next;
                table.push(AffinePoint {
                    x: multiple.x,
                    y: multiple.y,
                });
                ratios.push(h);
            }
            if !last {
                // Twice the last multiple, 2^(w−1)·2·B, is the next window's
                // base; a doubling multiplies `Z` by 2Y.
                let next = multiple.double();
                ratio = multiple.y.mul_u64(2);
                step = AffinePoint {
                    x: next.x,
                    y: next.y,
                };
            }
        }
        // Bring every entry to the last one's `Z`, as `strauss` does.
        let mut scale = Fe::one();
        for (i, (entry, ratio)) in table.iter_mut().zip(&ratios).enumerate().rev() {
            if i + 1 < len {
                let scale_sq = scale.square();
                entry.x = entry.x.mul(&scale_sq);
                entry.y = entry.y.mul(&scale_sq).mul(&scale);
            }
            if i > 0 {
                scale = scale.mul(ratio);
            }
        }
        FixedBase {
            width,
            table,
            zeta: scale,
        }
    }

    /// `k·B`: one mixed addition per nonzero signed digit of `k`.
    pub(crate) fn mul(&self, k: &Scalar) -> Point {
        let half = 1usize << (self.width - 1);
        let full = half << 1;
        let limbs = &k.as_u256().limbs;
        let mut acc = Point::infinity();
        let mut carry = 0;
        for (window, entries) in self.table.chunks(half).enumerate() {
            let bits = window_bits(limbs, window * self.width, self.width) + carry;
            let negative = bits > half;
            carry = usize::from(negative);
            let magnitude = if negative { full - bits } else { bits };
            if magnitude == 0 {
                continue;
            }
            let entry = entries[magnitude - 1];
            acc = acc.add_affine(&if negative { entry.neg() } else { entry });
        }
        // Back from the curve scaled by ζ.
        acc.z = acc.z.mul(&self.zeta);
        acc
    }
}

/// Bits `[pos, pos + width)` of a 256-bit little-endian limb array, zero
/// past bit 255; a window may straddle two limbs.
fn window_bits(limbs: &[u64; 4], pos: usize, width: usize) -> usize {
    if pos >= 256 {
        return 0;
    }
    let (limb, shift) = (pos / 64, pos % 64);
    let mut bits = limbs[limb] >> shift;
    if shift + width > 64 && limb + 1 < 4 {
        bits |= limbs[limb + 1] << (64 - shift);
    }
    (bits as usize) & ((1 << width) - 1)
}

/// wNAF window width of per-call tables: odd multiples up to `15·P`.
const VAR_WIDTH: u32 = 5;
/// Entries of a per-call table.
const VAR_TABLE: usize = 1 << (VAR_WIDTH - 2);
/// wNAF window width of a [`KeyTable`]: odd multiples up to `127·P`.
const KEY_WIDTH: u32 = 8;
/// Entries of a key table.
const KEY_TABLE: usize = 1 << (KEY_WIDTH - 2);
/// wNAF window width of the static `G` table, which costs nothing per call
/// and so can be wider.
const GEN_WIDTH: u32 = 12;
/// Entries of the static table.
const GEN_TABLE: usize = 1 << (GEN_WIDTH - 2);
/// Digits of a recoded half: a magnitude below `2^128` has at most 129.
const WNAF_LEN: usize = 129;

/// The static odd-multiples table behind every `G` term: `table[i] =
/// (2i+1)·G`, affine. Built once per process, 64 KiB.
fn generator_table() -> &'static [AffinePoint] {
    static TABLE: OnceLock<Vec<AffinePoint>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let twice = Point::generator().double();
        let mut jacobian = Vec::with_capacity(GEN_TABLE);
        let mut multiple = Point::generator();
        for _ in 0..GEN_TABLE {
            jacobian.push(multiple);
            multiple = multiple.add(&twice);
        }
        Point::batch_to_affine(&jacobian)
            .into_iter()
            .map(|p| p.expect("an odd multiple of G below the order is never infinity"))
            .collect()
    })
}

/// The odd multiples `(2i+1)·P`, `i < 64`, of one point, affine: the table
/// of a registered public key (`schnorr::PreparedKey`), built once when the
/// key is registered and walked by every multiplication of that key as a
/// [`Base::Key`] term. Its width-8 digits add about 28 multiples a scalar,
/// where a per-call width-5 table costs a doubling and seven additions to
/// build and about 43 to walk. 4 KiB (DESIGN-notes.md, "Key tables").
pub struct KeyTable {
    odd: [AffinePoint; KEY_TABLE],
}

impl KeyTable {
    /// Builds the table of `p`, a point of the curve, as `strauss` builds a
    /// per-call one: on the curve scaled by `C = Z(2P)`, `2P` is affine and
    /// the odd multiples are 63 mixed additions, each adding its ratio of
    /// consecutive `Z`s; one inversion of the last entry's true `Z` then
    /// brings every entry back to the plain curve, walking down the ratios.
    /// 1 024 field multiplications and one inversion.
    pub fn new(p: &AffinePoint) -> KeyTable {
        let twice = p.to_point().double();
        let c_sq = twice.z.square();
        let step = AffinePoint {
            x: twice.x,
            y: twice.y,
        };
        let mut multiple = Point {
            x: p.x.mul(&c_sq),
            y: p.y.mul(&c_sq).mul(&twice.z),
            z: Fe::one(),
        };
        let mut odd = [AffinePoint::ZERO; KEY_TABLE];
        let mut ratios = [Fe::one(); KEY_TABLE];
        for i in 0..KEY_TABLE {
            if i > 0 {
                // (2i − 1)·P + 2P never doubles or cancels below the order.
                (multiple, ratios[i]) = multiple.add_affine_core(&step, &multiple.z);
            }
            odd[i] = AffinePoint {
                x: multiple.x,
                y: multiple.y,
            };
        }
        // On the plain curve the last entry's `Z` is its `Z` here times `C`.
        let mut z_inv = multiple.z.mul(&twice.z).invert();
        for i in (0..KEY_TABLE).rev() {
            let z_inv_sq = z_inv.square();
            let entry = &mut odd[i];
            entry.x = entry.x.mul(&z_inv_sq);
            entry.y = entry.y.mul(&z_inv_sq).mul(&z_inv);
            if i > 0 {
                z_inv = z_inv.mul(&ratios[i]);
            }
        }
        KeyTable { odd }
    }
}

/// What a term of [`Point::multi_mul`] multiplies.
#[derive(Clone, Copy)]
pub enum Base<'k> {
    /// A point, whose table the call builds (`G` is served from the static
    /// one).
    Point(Point),
    /// A registered key, through its own table.
    Key(&'k KeyTable),
}

/// Terms whose scratch [`Point::multi_mul`] keeps on the stack (45 KiB): a
/// group of eight VRF proofs (`4·8 + 2`), or a batch of sixteen signatures.
const STACK_TERMS: usize = 34;

/// Signed wNAF digits of one scalar half, least significant first, in a
/// fixed stack array (zero beyond `len`).
#[derive(Clone, Copy)]
struct Wnaf {
    digits: [i16; WNAF_LEN],
    len: usize,
}

impl Wnaf {
    const EMPTY: Wnaf = Wnaf {
        digits: [0; WNAF_LEN],
        len: 0,
    };

    /// Width-`width` non-adjacent form of `half`: odd digits below
    /// `2^(width−1)` in magnitude, at most one nonzero per `width` positions,
    /// carrying the half's sign.
    fn recode(half: SignedHalf, width: u32) -> Wnaf {
        let mut wnaf = Wnaf::EMPTY;
        let mut k = half.magnitude;
        let full = 1i16 << width;
        while k != 0 {
            // The zero digits up to the next set bit, in one step.
            let zeros = k.trailing_zeros();
            k >>= zeros;
            wnaf.len += zeros as usize;
            // Rounding a magnitude just under 2^128 up carries into bit 128,
            // which the shift below brings back into range.
            let low = (k & (full as u128 - 1)) as i16;
            let digit = if low > full / 2 { low - full } else { low };
            let mut carry = false;
            if digit > 0 {
                k -= digit as u128;
            } else {
                (k, carry) = k.overflowing_add(digit.unsigned_abs() as u128);
            }
            wnaf.digits[wnaf.len] = if half.negative { -digit } else { digit };
            k = (k >> 1) | (u128::from(carry) << 127);
            wnaf.len += 1;
        }
        wnaf
    }
}

/// The table one term of [`strauss`] walks: a registered key's own (on the
/// plain curve), or else one built for the call.
#[derive(Clone, Copy)]
struct Slot<'k> {
    key: Option<&'k KeyTable>,
    /// Built for the call: odd multiples `(2i+1)·P` on the walk's curve.
    table: [AffinePoint; VAR_TABLE],
    /// `Z(table[i]) / Z(previous entry)` while the built tables still have
    /// their own `Z`s.
    ratios: [Fe; VAR_TABLE],
}

impl Slot<'_> {
    const EMPTY: Slot<'static> = Slot {
        key: None,
        table: [AffinePoint::ZERO; VAR_TABLE],
        ratios: [Fe::zero(); VAR_TABLE],
    };
}

/// `acc ± table[|digit|/2]` for a nonzero (odd) wNAF digit, `acc` otherwise.
/// `lambda` takes `φ` of the entry first (the stream of a scalar's second
/// half: one multiplication by `β`, cheaper than keeping a second table in
/// cache). With `scale`, the table lives on the plain curve and `acc` on the
/// one scaled by it.
#[inline]
fn add_digit(
    acc: &Point,
    table: &[AffinePoint],
    digit: i16,
    lambda: bool,
    scale: Option<&Fe>,
) -> Point {
    if digit == 0 {
        return *acc;
    }
    let mut entry = table[(digit.unsigned_abs() as usize) / 2];
    if lambda {
        entry = entry.endomorphism();
    }
    if digit < 0 {
        entry = entry.neg();
    }
    match scale {
        None => acc.add_affine(&entry),
        Some(s) => acc.add_affine_scaled(&entry, s),
    }
}

/// `Σ kᵢ·Bᵢ` — the one scalar-multiplication kernel behind [`Point::mul`],
/// [`Point::mul_double`] and [`Point::multi_mul`]. `slots` and `digits` are
/// scratch, one each per term (the digits apart from the tables, so the walk
/// scans them compactly).
///
/// * **Endomorphism.** Every scalar is split as `k = k1 + k2·λ` with 128-bit
///   halves, and `k·P = k1·P + k2·φ(P)`: twice the streams over half the
///   doublings, both reading one table (`φ` of an entry is one multiplication
///   by `β`).
/// * **Interleaved wNAF.** All `2n` streams share one chain of at most 128
///   doublings; each adds an odd multiple about every `w + 1` positions.
/// * **One shared `Z`.** A table entry `(X, Y, Z)` is the affine point
///   `(X, Y)` of the isomorphic curve `y² = x³ + 7·Z⁶`, whose group law has
///   the same formulas (they do not involve the constant). The tables built
///   for the call end up with the *same* `Z = ζ` — each entry is rescaled
///   by the product of the `Z` ratios that follow it, no inversion — the
///   whole walk runs on that curve with mixed additions, and the result's
///   `Z` is multiplied by `ζ` at the end to come back.
/// * **Three kinds of table.** A point term builds a width-5 table as
///   above. A key term walks its [`KeyTable`] (width 8), and the generator
///   terms, summed into one scalar, the static [`generator_table`] (width
///   12): both are affine on the plain curve and are scaled onto the walk's
///   as they are added — unless no table was built, when the walk is on the
///   plain curve itself.
fn strauss<'k>(
    terms: &[(Scalar, Base<'k>)],
    slots: &mut [Slot<'k>],
    digits: &mut [[Wnaf; 2]],
) -> Point {
    let generator = Point::generator();
    let mut g_scalar = Scalar::zero();
    let mut live = 0;
    // Tables built so far, and the true `Z` of the last entry of the last.
    let mut built = 0;
    let mut zeta = Fe::one();
    for (k, base) in terms {
        // Zero scalars and infinity points contribute nothing.
        if k.is_zero() {
            continue;
        }
        let p = match base {
            Base::Key(table) => {
                let (k1, k2) = k.split_lambda();
                slots[live].key = Some(table);
                digits[live] = [Wnaf::recode(k1, KEY_WIDTH), Wnaf::recode(k2, KEY_WIDTH)];
                live += 1;
                continue;
            }
            Base::Point(p) if p.is_infinity() => continue,
            Base::Point(p) if p.z == generator.z && p.x == generator.x && p.y == generator.y => {
                g_scalar = g_scalar.add(k);
                continue;
            }
            Base::Point(p) => p,
        };
        let slot = &mut slots[live];
        slot.key = None;
        let (k1, k2) = k.split_lambda();
        digits[live] = [Wnaf::recode(k1, VAR_WIDTH), Wnaf::recode(k2, VAR_WIDTH)];
        // The same point with its Z a multiple of the previous table's.
        let a = if built == 0 {
            *p
        } else {
            let zeta_sq = zeta.square();
            Point {
                x: p.x.mul(&zeta_sq),
                y: p.y.mul(&zeta_sq).mul(&zeta),
                z: p.z.mul(&zeta),
            }
        };
        // On the curve scaled by C = Z(2a), 2a is affine and the odd
        // multiples a, 3a, 5a, … are seven mixed additions.
        let twice = a.double();
        let c_sq = twice.z.square();
        let step = AffinePoint {
            x: twice.x,
            y: twice.y,
        };
        let mut multiple = Point {
            x: a.x.mul(&c_sq),
            y: a.y.mul(&c_sq).mul(&twice.z),
            z: a.z,
        };
        slot.ratios[0] = p.z.mul(&twice.z);
        for i in 0..VAR_TABLE {
            if i > 0 {
                (multiple, slot.ratios[i]) = multiple.add_affine_core(&step, &multiple.z);
            }
            slot.table[i] = AffinePoint {
                x: multiple.x,
                y: multiple.y,
            };
        }
        zeta = multiple.z.mul(&twice.z);
        built += 1;
        live += 1;
    }
    let slots = &mut slots[..live];
    let digits = &digits[..live];

    // Bring every built entry to the last one's Z: walking backwards, an
    // entry is rescaled by the product of the ratios after it.
    let mut scale = Fe::one();
    let mut last = true;
    for slot in slots.iter_mut().rev().filter(|slot| slot.key.is_none()) {
        for i in (0..VAR_TABLE).rev() {
            if !last {
                let scale_sq = scale.square();
                let entry = &mut slot.table[i];
                entry.x = entry.x.mul(&scale_sq);
                entry.y = entry.y.mul(&scale_sq).mul(&scale);
            }
            last = false;
            scale = scale.mul(&slot.ratios[i]);
        }
    }
    // The plain-curve tables' scale onto the walk's curve.
    let onto_walk = (built > 0).then_some(&zeta);

    let (g1, g2) = g_scalar.split_lambda();
    let g_digits = [Wnaf::recode(g1, GEN_WIDTH), Wnaf::recode(g2, GEN_WIDTH)];
    let g_table = generator_table();

    let longest = digits
        .iter()
        .flatten()
        .chain(&g_digits)
        .map(|wnaf| wnaf.len)
        .max()
        .unwrap_or(0);
    let mut acc = Point::infinity();
    for i in (0..longest).rev() {
        acc = acc.double();
        for (slot, [d1, d2]) in slots.iter().zip(digits) {
            let (table, scale) = match slot.key {
                Some(key) => (&key.odd[..], onto_walk),
                None => (&slot.table[..], None),
            };
            acc = add_digit(&acc, table, d1.digits[i], false, scale);
            acc = add_digit(&acc, table, d2.digits[i], true, scale);
        }
        for (digits, lambda) in g_digits.iter().zip([false, true]) {
            acc = add_digit(&acc, g_table, digits.digits[i], lambda, onto_walk);
        }
    }
    // Back from the curve scaled by ζ: (X, Y, Z) there is (X, Y, Z·ζ) here.
    if built > 0 {
        acc.z = acc.z.mul(&zeta);
    }
    acc
}

impl AffinePoint {
    /// Placeholder for unfilled table slots (not a curve point).
    const ZERO: AffinePoint = AffinePoint {
        x: Fe::zero(),
        y: Fe::zero(),
    };

    /// The negation `(x, −y)`.
    pub fn neg(&self) -> AffinePoint {
        AffinePoint {
            x: self.x,
            y: self.y.neg(),
        }
    }

    /// The curve endomorphism `φ(x, y) = (β·x, y)`, which as a group map is
    /// multiplication by [`LAMBDA`](crate::scalar::LAMBDA) — at the cost of
    /// one field multiplication.
    pub fn endomorphism(&self) -> AffinePoint {
        AffinePoint {
            x: self.x.mul(&BETA),
            y: self.y,
        }
    }

    /// True if the point satisfies `y² = x³ + 7`.
    pub fn is_on_curve(&self) -> bool {
        let lhs = self.y.square();
        let rhs = self.x.square().mul(&self.x).add(&Fe::curve_b());
        lhs == rhs
    }

    /// Serializes as 64 bytes: `x || y`, both big-endian.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.x.to_be_bytes());
        out[32..].copy_from_slice(&self.y.to_be_bytes());
        out
    }

    /// Parses a 64-byte `x || y` encoding, checking the curve equation.
    /// Coordinates at or above `p` are rejected, not reduced, so a point has
    /// exactly one accepted encoding.
    pub fn from_bytes(bytes: &[u8; 64]) -> Option<AffinePoint> {
        let x = Fe::from_be_bytes_canonical(bytes[..32].try_into().expect("32 bytes"))?;
        let y = Fe::from_be_bytes_canonical(bytes[32..].try_into().expect("32 bytes"))?;
        let p = AffinePoint { x, y };
        if p.is_on_curve() {
            Some(p)
        } else {
            None
        }
    }

    /// Lifts to Jacobian coordinates.
    pub fn to_point(&self) -> Point {
        Point::from_affine(*self)
    }
}

/// Hashes arbitrary bytes to a curve point via try-and-increment.
///
/// This is the `H2C` primitive the DLEQ-based VRF needs: for counter values
/// 0, 1, 2, … derive a candidate x coordinate from `H(domain ‖ data ‖ ctr)` and
/// return the first candidate that lies on the curve (choosing the even-y root
/// for determinism). Roughly half of all x values are valid, so the expected
/// number of iterations is 2.
///
/// A pure function: every call pays its hashes and square roots. A round's
/// sortition hashes its input once, in its `vrf::Prover`, whose base every
/// evaluation and batch check of the round reuses.
pub fn hash_to_curve(domain: &str, data: &[u8]) -> AffinePoint {
    for ctr in 0u64..=u64::MAX {
        let digest = crate::sha256::hash_parts(&[domain.as_bytes(), data, &ctr.to_be_bytes()]);
        let x = Fe::from_be_bytes(digest.as_bytes());
        let rhs = x.square().mul(&x).add(&Fe::curve_b());
        if let Some(y) = rhs.sqrt() {
            let y = if y.is_odd() { y.neg() } else { y };
            let p = AffinePoint { x, y };
            debug_assert!(p.is_on_curve());
            return p;
        }
    }
    unreachable!("try-and-increment terminates with overwhelming probability")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::{group_order, LAMBDA};
    use proptest::prelude::*;

    #[test]
    fn generator_on_curve() {
        assert!(Point::generator().is_on_curve());
        assert!(Point::generator().to_affine().unwrap().is_on_curve());
    }

    #[test]
    fn order_times_generator_is_infinity() {
        // n·G = ∞ validates both the group order constant and the ladder.
        let n_minus_1 = Scalar::from_u256(group_order().wrapping_sub(&U256::ONE));
        let p = Point::mul_generator(&n_minus_1);
        // (n-1)·G = -G, so adding G gives infinity.
        let sum = p.add(&Point::generator());
        assert!(sum.is_infinity());
        // And (n-1)·G must equal the negation of G.
        assert!(p.equals(&Point::generator().neg()));
    }

    #[test]
    fn doubling_matches_addition() {
        let g = Point::generator();
        assert!(g.double().equals(&g.add(&g)));
        let two = Point::mul_generator(&Scalar::from_u64(2));
        assert!(two.equals(&g.double()));
        assert!(two.is_on_curve());
    }

    #[test]
    fn identity_laws() {
        let g = Point::generator();
        let inf = Point::infinity();
        assert!(g.add(&inf).equals(&g));
        assert!(inf.add(&g).equals(&g));
        assert!(inf.double().is_infinity());
        assert!(g.add(&g.neg()).is_infinity());
        assert!(Point::mul_generator(&Scalar::zero()).is_infinity());
    }

    #[test]
    fn small_multiples_are_consistent() {
        let g = Point::generator();
        let mut acc = Point::infinity();
        for k in 1u64..=20 {
            acc = acc.add(&g);
            let vialadder = Point::mul_generator(&Scalar::from_u64(k));
            assert!(acc.equals(&vialadder), "k = {k}");
            assert!(acc.is_on_curve(), "k = {k}");
        }
    }

    #[test]
    fn affine_bytes_round_trip() {
        let p = Point::mul_generator(&Scalar::from_u64(42))
            .to_affine()
            .unwrap();
        let bytes = p.to_bytes();
        assert_eq!(AffinePoint::from_bytes(&bytes), Some(p));
        // Corrupting y must be rejected by the curve check.
        let mut bad = bytes;
        bad[63] ^= 1;
        assert_eq!(AffinePoint::from_bytes(&bad), None);
    }

    #[test]
    fn hash_to_curve_deterministic_and_valid() {
        let a = hash_to_curve("H2C", b"hello");
        let b = hash_to_curve("H2C", b"hello");
        let c = hash_to_curve("H2C", b"world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.is_on_curve());
        assert!(c.is_on_curve());
        assert!(!a.y.is_odd(), "even-y root is chosen deterministically");
    }

    /// The base is the first try-and-increment candidate on the curve, with
    /// its even root, spelled out here; some of the inputs need a second try.
    #[test]
    fn hash_to_curve_takes_the_first_candidate_on_the_curve() {
        let mut retried = 0;
        for byte in 0..16u8 {
            let data = [byte; 3];
            let candidate = |ctr: u64| {
                let digest = crate::sha256::hash_parts(&[b"h2c-spec", &data, &ctr.to_be_bytes()]);
                let x = Fe::from_be_bytes(digest.as_bytes());
                x.square()
                    .mul(&x)
                    .add(&Fe::curve_b())
                    .sqrt()
                    .map(|y| (x, y))
            };
            let ctr = (0u64..).find(|&ctr| candidate(ctr).is_some()).unwrap();
            let (x, y) = candidate(ctr).unwrap();
            let y = if y.is_odd() { y.neg() } else { y };
            assert_eq!(
                hash_to_curve("h2c-spec", &data),
                AffinePoint { x, y },
                "{byte}"
            );
            retried += usize::from(ctr > 0);
        }
        assert!(retried > 0, "every input hit on its first try");
    }

    fn arb_scalar() -> impl Strategy<Value = Scalar> {
        prop::array::uniform4(any::<u64>()).prop_map(|l| Scalar::from_u256(U256::from_limbs(l)))
    }

    /// The edge scalars every multiplication path must agree on: the ends of
    /// the range, the endomorphism's eigenvalue and its neighbours, the
    /// 128-bit boundary where the split starts, scalars whose halves take
    /// each sign pattern, and every power of two that fits a scalar.
    fn edge_scalars() -> Vec<Scalar> {
        let n_minus = |d: u64| Scalar::from_u256(group_order().wrapping_sub(&U256::from_u64(d)));
        let two_128 = U256::ONE.shl(128);
        let mut edges = vec![
            Scalar::zero(),
            Scalar::one(),
            Scalar::from_u64(2),
            n_minus(1),
            n_minus(2),
            LAMBDA,
            LAMBDA.add(&Scalar::one()),
            LAMBDA.sub(&Scalar::one()),
            LAMBDA.neg(),
            Scalar::from_u256(two_128.wrapping_sub(&U256::ONE)),
            Scalar::from_u256(two_128.wrapping_add(&U256::ONE)),
        ];
        let mut sign_patterns = std::collections::BTreeSet::new();
        for i in 0u64.. {
            let k = Scalar::from_hash("edge-split-signs", &[&i.to_be_bytes()]);
            let (k1, k2) = k.split_lambda();
            if sign_patterns.insert((k1.negative, k2.negative)) {
                edges.push(k);
            }
            if sign_patterns.len() == 4 {
                break;
            }
        }
        for k in 0..256 {
            edges.push(Scalar::from_u256(U256::ONE.shl(k)));
        }
        edges
    }

    fn ladder_sum(terms: &[(Scalar, Point)]) -> Point {
        terms
            .iter()
            .fold(Point::infinity(), |acc, (k, p)| acc.add(&p.mul_ladder(k)))
    }

    /// `terms` as point terms of [`Point::multi_mul`].
    fn bases(terms: &[(Scalar, Point)]) -> Vec<(Scalar, Base<'static>)> {
        terms.iter().map(|&(k, p)| (k, Base::Point(p))).collect()
    }

    /// `terms` with every point that `tables` holds a table of as a key
    /// term, and the others as point terms.
    fn keyed<'k>(
        terms: &[(Scalar, Point)],
        tables: &'k [(Point, KeyTable)],
    ) -> Vec<(Scalar, Base<'k>)> {
        terms
            .iter()
            .map(|&(k, p)| match tables.iter().find(|(q, _)| q.equals(&p)) {
                Some((_, table)) => (k, Base::Key(table)),
                None => (k, Base::Point(p)),
            })
            .collect()
    }

    #[test]
    fn endomorphism_is_multiplication_by_lambda() {
        let g = Point::generator();
        for k in [1u64, 2, 0xdead_beef] {
            let p = g.mul_ladder(&Scalar::from_u64(k));
            let phi = p.to_affine().unwrap().endomorphism();
            assert!(phi.is_on_curve());
            assert!(phi.to_point().equals(&p.mul_ladder(&LAMBDA)), "k = {k}");
        }
    }

    #[test]
    fn add_affine_matches_add() {
        let g = Point::generator();
        let p = g.mul_ladder(&Scalar::from_u64(0x1234)).double(); // Z != 1
        let q = g.mul_ladder(&Scalar::from_u64(0x5678));
        let q_affine = q.to_affine().unwrap();
        let p_affine = p.to_affine().unwrap();
        // Generic, doubling (P + P), cancelling (P + (−P)) and ∞ + P.
        assert!(p.add_affine(&q_affine).equals(&p.add(&q)));
        assert!(p.add_affine(&p_affine).equals(&p.double()));
        assert!(p.add_affine(&p_affine.neg()).is_infinity());
        assert!(Point::infinity().add_affine(&q_affine).equals(&q));
        assert!(p.add_affine(&q_affine).is_on_curve());
        // `add` with ∞ on the right (an affine operand cannot be ∞).
        assert!(p.add(&Point::infinity()).equals(&p));
    }

    #[test]
    fn add_affine_scaled_adds_on_the_isomorphic_curve() {
        // (X, Y, Z) on the curve scaled by s is (X, Y, Z·s) on the plain one.
        let back = |p: &Point, s: &Fe| Point {
            x: p.x,
            y: p.y,
            z: p.z.mul(s),
        };
        let g = Point::generator();
        let s = Fe::from_u64(0xabcdef);
        let q = g.mul_ladder(&Scalar::from_u64(77)).to_affine().unwrap();
        // P given with Z = s, so on the scaled curve it is the affine (X, Y).
        let p_plain = g.mul_ladder(&Scalar::from_u64(1000));
        let p_affine = p_plain.to_affine().unwrap();
        let s2 = s.square();
        let p_scaled = Point {
            x: p_affine.x.mul(&s2),
            y: p_affine.y.mul(&s2).mul(&s),
            z: Fe::one(),
        };
        let sum = p_scaled.double().add_affine_scaled(&q, &s);
        assert!(back(&sum, &s).equals(&p_plain.double().add(&q.to_point())));
        let from_infinity = Point::infinity().add_affine_scaled(&q, &s);
        assert!(back(&from_infinity, &s).equals(&q.to_point()));
        // Doubling and cancelling through the scaled path.
        let twice = back(&p_scaled.add_affine_scaled(&p_affine, &s), &s);
        assert!(twice.equals(&p_plain.double()));
        assert!(p_scaled
            .add_affine_scaled(&p_affine.neg(), &s)
            .is_infinity());
    }

    #[test]
    fn wnaf_recoding_reconstructs_the_scalar() {
        for width in [2, VAR_WIDTH, GEN_WIDTH] {
            for magnitude in [0u128, 1, 2, 15, 16, 17, 1 << 127, u128::MAX - 1, u128::MAX] {
                for negative in [false, true] {
                    let wnaf = Wnaf::recode(
                        SignedHalf {
                            magnitude,
                            negative,
                        },
                        width,
                    );
                    // Σ dᵢ·2^i as a scalar, against ±magnitude.
                    let mut sum = Scalar::zero();
                    for &d in wnaf.digits[..wnaf.len].iter().rev() {
                        sum = sum.add(&sum);
                        let term = Scalar::from_u64(d.unsigned_abs() as u64);
                        sum = if d < 0 {
                            sum.sub(&term)
                        } else {
                            sum.add(&term)
                        };
                        assert!(d == 0 || (d % 2 != 0 && d.unsigned_abs() < 1 << (width - 1)));
                    }
                    let expected = Scalar::from_u256(U256::from_u128(magnitude));
                    assert_eq!(sum, if negative { expected.neg() } else { expected });
                    assert!(wnaf.digits[wnaf.len..].iter().all(|&d| d == 0));
                }
            }
        }
    }

    #[test]
    fn mul_matches_ladder_on_edge_scalars() {
        let p = Point::generator().mul_ladder(&Scalar::from_u64(0xdead_beef));
        for k in edge_scalars() {
            assert!(p.mul(&k).equals(&p.mul_ladder(&k)), "k = {k:?}");
        }
    }

    #[test]
    fn fixed_base_mul_matches_ladder_on_edge_scalars() {
        let g = Point::generator();
        for k in edge_scalars() {
            assert!(
                Point::mul_generator(&k).equals(&g.mul_ladder(&k)),
                "k = {k:?}"
            );
        }
    }

    #[test]
    fn fixed_base_matches_ladder_at_every_width() {
        let base = Point::generator().mul_ladder(&Scalar::from_u64(0xdead_beef));
        let affine = base.to_affine().unwrap();
        let n_minus = |d: u64| Scalar::from_u256(group_order().wrapping_sub(&U256::from_u64(d)));
        let two_255 = U256::ONE.shl(255);
        // n − 1 and 2^255 − 1 are ones in every high window, so each digit
        // borrows and the carry runs into the last window; 2^255 sets the one
        // data bit a five-bit comb's last window holds.
        let mut scalars = vec![
            Scalar::zero(),
            Scalar::one(),
            n_minus(1),
            n_minus(2),
            Scalar::from_u256(two_255),
            Scalar::from_u256(two_255.wrapping_sub(&U256::ONE)),
            Scalar::from_u256(two_255.wrapping_add(&two_255.shr(1))),
        ];
        scalars.extend(edge_scalars());
        let expected: Vec<Point> = scalars.iter().map(|k| base.mul_ladder(k)).collect();
        for width in [2, 3, 4, 5, 6, 7, 8, 11] {
            let comb = FixedBase::new(&affine, width);
            for (k, expected) in scalars.iter().zip(&expected) {
                assert!(comb.mul(k).equals(expected), "width {width}, k = {k:?}");
            }
        }
    }

    #[test]
    fn mul_double_matches_ladder_on_edge_scalars() {
        let g = Point::generator();
        let q = g.mul_ladder(&Scalar::from_u64(0x1234_5678));
        let other = Scalar::from_hash("mul-double-edge", &[b"other"]);
        for k in edge_scalars() {
            // The edge scalar on G, on the variable point, and on both.
            for (a, b) in [(k, other), (other, k), (k, k)] {
                let expected = g.mul_ladder(&a).add(&q.mul_ladder(&b));
                assert!(
                    Point::mul_double(&a, &g, &b, &q).equals(&expected),
                    "a = {a:?}, b = {b:?}"
                );
            }
            // Two variable points, one of them the other's negation.
            let expected = q.mul_ladder(&k).add(&q.neg().mul_ladder(&other));
            assert!(Point::mul_double(&k, &q, &other, &q.neg()).equals(&expected));
        }
        // The same point twice: k·Q + (n − k)·Q cancels.
        let k = Scalar::from_u64(0xfeed_f00d);
        assert!(Point::mul_double(&k, &q, &k.neg(), &q).is_infinity());
        assert!(Point::mul_double(&k, &g, &k.neg(), &g).is_infinity());
    }

    #[test]
    fn multiplying_infinity_stays_infinite() {
        let inf = Point::infinity();
        assert!(inf.mul(&Scalar::from_u64(12345)).is_infinity());
        assert!(inf.mul(&Scalar::zero()).is_infinity());
        assert!(
            Point::mul_double(&Scalar::from_u64(3), &inf, &Scalar::from_u64(5), &inf).is_infinity()
        );
        // A mixed pair degrades to single multiplication of the finite point.
        let g = Point::generator();
        let k = Scalar::from_u64(42);
        assert!(Point::mul_double(&k, &inf, &k, &g).equals(&g.mul_ladder(&k)));
        assert!(Point::mul_double(&k, &g, &k, &inf).equals(&g.mul_ladder(&k)));
    }

    #[test]
    fn multi_mul_matches_ladder_sum() {
        let g = Point::generator();
        // Empty and all-degenerate inputs give the identity.
        assert!(Point::multi_mul(&[]).is_infinity());
        assert!(Point::multi_mul(&[
            (Scalar::zero(), Base::Point(g)),
            (Scalar::from_u64(5), Base::Point(Point::infinity()))
        ])
        .is_infinity());
        // 1 to 35 terms, on either side of the stack-scratch limit; every
        // sixth point repeats the first, G is among them (twice from 10 terms
        // on), some points carry Z != 1, and a zero scalar and an ∞ sit in
        // the middle of the long ones.
        for n in [1usize, 2, 3, 7, 17, 23, STACK_TERMS, STACK_TERMS + 1] {
            let mut terms: Vec<(Scalar, Point)> = (0..n)
                .map(|i| {
                    let k = Scalar::from_hash("multi-mul-scalar", &[&(i as u64).to_be_bytes()]);
                    let p = match i % 6 {
                        3 => g,
                        0 => g.mul_ladder(&Scalar::from_u64(38)),
                        1 => g.mul_ladder(&Scalar::from_u64(i as u64 * 37 + 1)).double(),
                        _ => g.mul_ladder(&Scalar::from_u64(i as u64 * 37 + 1)),
                    };
                    (k, p)
                })
                .collect();
            if n > 3 {
                terms[2].0 = Scalar::zero();
                terms[4].1 = Point::infinity();
            }
            assert!(
                Point::multi_mul(&bases(&terms)).equals(&ladder_sum(&terms)),
                "n = {n}"
            );
        }
        // Edge scalars mixed into a batch with ordinary ones.
        for k in edge_scalars() {
            let other = Scalar::from_u64(0xfeed);
            let q = g.mul_ladder(&Scalar::from_u64(99));
            let terms = [(k, g), (other, q), (k, q), (k, q.neg().double())];
            assert!(
                Point::multi_mul(&bases(&terms)).equals(&ladder_sum(&terms)),
                "k = {k:?}"
            );
        }
    }

    #[test]
    fn key_table_holds_the_odd_multiples() {
        let p = Point::generator().mul_ladder(&Scalar::from_u64(0xc0ffee));
        let table = KeyTable::new(&p.to_affine().unwrap());
        for (i, entry) in table.odd.iter().enumerate() {
            let expected = p.mul_ladder(&Scalar::from_u64(2 * i as u64 + 1));
            assert_eq!(Some(*entry), expected.to_affine(), "{i}");
        }
    }

    #[test]
    fn key_terms_match_point_terms_on_edge_scalars() {
        // 0, 1, n − 1, 2^128 ± 1 and the rest of the edge set, on a key term
        // alone (the walk stays on the plain curve), beside built tables
        // (it is scaled onto theirs) and beside G.
        let g = Point::generator();
        let keys: Vec<Point> = [7u64, 0xdead_beef, 1 << 40]
            .iter()
            .map(|&k| g.mul_ladder(&Scalar::from_hash("key-edge", &[&k.to_be_bytes()])))
            .collect();
        let tables: Vec<(Point, KeyTable)> = keys
            .iter()
            .map(|p| (*p, KeyTable::new(&p.to_affine().unwrap())))
            .collect();
        let other = Scalar::from_hash("key-edge", &[b"other"]);
        let q = g.mul_ladder(&Scalar::from_u64(99)).double();
        for k in edge_scalars() {
            for p in &keys {
                for terms in [
                    vec![(k, *p)],
                    vec![(k, *p), (other, q)],
                    vec![(other, g), (k, *p), (k, q), (other, keys[0])],
                    vec![(k, *p), (k.neg(), *p)],
                ] {
                    let keyed = Point::multi_mul(&keyed(&terms, &tables));
                    assert!(keyed.equals(&ladder_sum(&terms)), "k = {k:?}");
                    assert!(keyed.equals(&Point::multi_mul(&bases(&terms))), "k = {k:?}");
                }
            }
        }
    }

    #[test]
    fn batch_to_affine_matches_individual_and_handles_infinity() {
        let g = Point::generator();
        let mut points: Vec<Point> = (1u64..20)
            .map(|k| g.mul_ladder(&Scalar::from_u64(k * k + 1)))
            .collect();
        points.insert(0, Point::infinity());
        points.insert(7, Point::infinity());
        let batched = Point::batch_to_affine(&points);
        assert_eq!(batched.len(), points.len());
        for (p, affine) in points.iter().zip(&batched) {
            assert_eq!(p.to_affine(), *affine);
        }
        assert!(Point::batch_to_affine(&[]).is_empty());
        // The stack form, on the first eight (two of them infinity).
        let eight: [Point; 8] = points[..8].try_into().unwrap();
        assert_eq!(Point::batch_to_affine_array(&eight)[..], batched[..8]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_scalar_mul_distributes(a in arb_scalar(), b in arb_scalar()) {
            // (a+b)·G = a·G + b·G
            let lhs = Point::mul_generator(&a.add(&b));
            let rhs = Point::mul_generator(&a).add(&Point::mul_generator(&b));
            prop_assert!(lhs.equals(&rhs));
        }

        #[test]
        fn prop_scalar_mul_associates(a in arb_scalar(), b in arb_scalar()) {
            // a·(b·G) = (a·b)·G
            let lhs = Point::mul_generator(&b).mul(&a);
            let rhs = Point::mul_generator(&a.mul(&b));
            prop_assert!(lhs.equals(&rhs));
            prop_assert!(lhs.is_on_curve());
        }

        #[test]
        fn prop_add_affine_matches_add(a in arb_scalar(), b in arb_scalar()) {
            let p = Point::mul_generator(&a);
            let q = Point::mul_generator(&b);
            if let Some(q_affine) = q.to_affine() {
                prop_assert!(p.add_affine(&q_affine).equals(&p.add(&q)));
                prop_assert!(p.double().add_affine(&q_affine).equals(&p.double().add(&q)));
            }
        }

        #[test]
        fn prop_mul_matches_ladder(a in arb_scalar(), b in arb_scalar()) {
            let p = Point::generator().mul_ladder(&b);
            prop_assert!(p.mul(&a).equals(&p.mul_ladder(&a)));
            // With Z != 1, and on the generator itself.
            prop_assert!(p.double().mul(&a).equals(&p.double().mul_ladder(&a)));
            prop_assert!(Point::generator().mul(&a).equals(&Point::generator().mul_ladder(&a)));
        }

        #[test]
        fn prop_fixed_base_matches_ladder(a in arb_scalar()) {
            prop_assert!(Point::mul_generator(&a).equals(&Point::generator().mul_ladder(&a)));
            // A five-bit comb, the VRF's, on a base of its own.
            let h = hash_to_curve("fixed-base-prop", b"base");
            prop_assert!(FixedBase::new(&h, 5).mul(&a).equals(&h.to_point().mul_ladder(&a)));
        }

        #[test]
        fn prop_mul_double_matches_ladder(a in arb_scalar(), b in arb_scalar(), k in any::<u64>()) {
            let g = Point::generator();
            let q = g.mul_ladder(&Scalar::from_u64(k));
            let expected = g.mul_ladder(&a).add(&q.mul_ladder(&b));
            prop_assert!(Point::mul_double(&a, &g, &b, &q).equals(&expected));
            // Two variable points (the VRF's s·H + c·Γ shape).
            let r = q.mul_ladder(&Scalar::from_u64(k | 1)).double();
            let expected = r.mul_ladder(&a).add(&q.mul_ladder(&b));
            prop_assert!(Point::mul_double(&a, &r, &b, &q).equals(&expected));
        }

        #[test]
        fn prop_multi_mul_matches_ladder_sum(scalars in prop::collection::vec(
            prop::array::uniform4(any::<u64>()), 0..8,
        )) {
            let g = Point::generator();
            // Point 1 is G, point 4 repeats point 0, the rest are distinct.
            let terms: Vec<(Scalar, Point)> = scalars
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    let k = Scalar::from_u256(U256::from_limbs(*l));
                    let p = match i {
                        1 => g,
                        4 => g.mul_ladder(&Scalar::from_u64(2)),
                        _ => g.mul_ladder(&Scalar::from_u64(i as u64 + 2)),
                    };
                    (k, p)
                })
                .collect();
            prop_assert!(Point::multi_mul(&bases(&terms)).equals(&ladder_sum(&terms)));
        }

        #[test]
        fn prop_key_terms_match_point_terms(
            key in arb_scalar(),
            other in arb_scalar(),
            a in arb_scalar(),
            b in arb_scalar(),
            c in arb_scalar(),
        ) {
            // A random key beside a point with Z != 1 and G, and the key twice.
            let g = Point::generator();
            let p = g.mul_ladder(&key);
            prop_assume!(!p.is_infinity());
            let tables = [(p, KeyTable::new(&p.to_affine().unwrap()))];
            let q = g.mul_ladder(&other).double();
            for terms in [
                vec![(a, p)],
                vec![(a, p), (b, q), (c, g)],
                vec![(a, p), (b, p.neg()), (c, p)],
            ] {
                let expected = ladder_sum(&terms);
                prop_assert!(Point::multi_mul(&bases(&terms)).equals(&expected));
                prop_assert!(Point::multi_mul(&keyed(&terms, &tables)).equals(&expected));
            }
        }
    }
}
