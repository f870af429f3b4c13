//! Publicly verifiable secret sharing and the distributed randomness beacon.
//!
//! The paper's referee committee generates the next round's randomness `R^{r+1}`
//! with SCRAPE [Cascudo–David 2017]. We substitute a Shamir/Feldman PVSS with the
//! same interface and the same two properties the security analysis (§V-A) uses:
//!
//! * **Liveness / availability** — any `t+1` honest share-holders reconstruct the
//!   dealer's secret, so an honest-majority referee committee always produces an
//!   output.
//! * **Unbiasedness** — the beacon output hashes the XOR-free *sum* of every
//!   qualified dealer's secret; as long as at least one honest dealer's secret is
//!   included and adversarial dealers must commit (publish verifiable shares)
//!   before seeing honest secrets, the output is unpredictable to the adversary.
//!
//! Feldman commitments (`C_j = a_j·G`) replace SCRAPE's LDEI proofs; verification
//! is `share_i·G == Σ_j i^j·C_j`, checkable by anyone — hence "publicly
//! verifiable". `crates/crypto/DESIGN-notes.md` ("Why variable time is still
//! acceptable") records this substitution.

use crate::hmac::HmacDrbg;
use crate::point::{Base, Point};
use crate::scalar::Scalar;
use crate::sha256::{hash_parts, Digest};

/// Canonical byte encoding of a set of group elements: a big-endian length
/// prefix followed by each point as 64 affine bytes (`x ‖ y`, all-zero for the
/// identity). All points are normalized with one batched affine conversion
/// ([`Point::batch_to_affine`]) instead of one field inversion each.
pub fn encode_point_set(points: &[Point]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + points.len() * 64);
    out.extend_from_slice(&(points.len() as u64).to_be_bytes());
    for affine in Point::batch_to_affine(points) {
        match affine {
            Some(p) => out.extend_from_slice(&p.to_bytes()),
            None => out.extend_from_slice(&[0u8; 64]),
        }
    }
    out
}

/// A share of a dealt secret: the evaluation of the dealer's polynomial at
/// `x = index` (indices are 1-based; 0 would leak the secret itself).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Share {
    /// 1-based evaluation point.
    pub index: u32,
    /// Polynomial evaluation `f(index)`.
    pub value: Scalar,
}

/// A dealing: shares for every participant plus Feldman commitments to the
/// polynomial coefficients, which make each share publicly verifiable.
#[derive(Clone, Debug)]
pub struct Dealing {
    /// Feldman commitments `C_j = a_j·G`, constant term first.
    pub commitments: Vec<Point>,
    /// One share per participant, index `i+1` for participant `i`.
    pub shares: Vec<Share>,
    /// Reconstruction threshold: any `threshold` shares suffice.
    pub threshold: usize,
}

/// Errors from the PVSS layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PvssError {
    /// The threshold must satisfy `1 <= threshold <= participants`.
    BadThreshold,
    /// Not enough (valid) shares to reconstruct.
    NotEnoughShares,
    /// Two shares with the same index were supplied.
    DuplicateIndex,
}

/// Deals `secret` into `participants` shares with reconstruction `threshold`.
///
/// The polynomial's random coefficients are derived from `entropy` via the DRBG
/// so that simulations are reproducible; a deployment would use an OS RNG.
pub fn deal(
    secret: &Scalar,
    participants: usize,
    threshold: usize,
    entropy: &[u8],
) -> Result<Dealing, PvssError> {
    if threshold == 0 || threshold > participants {
        return Err(PvssError::BadThreshold);
    }
    let mut drbg = HmacDrbg::from_parts("cycledger/pvss-deal", &[entropy, &secret.to_be_bytes()]);
    let mut coeffs = Vec::with_capacity(threshold);
    coeffs.push(*secret);
    for _ in 1..threshold {
        coeffs.push(Scalar::nonzero_from_drbg(&mut drbg));
    }
    let commitments = coeffs.iter().map(Point::mul_generator).collect();
    let shares = (1..=participants as u32)
        .map(|i| Share {
            index: i,
            value: Scalar::poly_eval(&coeffs, &Scalar::from_u64(i as u64)),
        })
        .collect();
    Ok(Dealing {
        commitments,
        shares,
        threshold,
    })
}

/// Publicly verifies a single share against the dealer's commitments:
/// `value·G == Σ_j index^j · C_j`.
///
/// The right-hand side is evaluated with Horner's rule over the commitment
/// points, `((C_{t−1}·x + C_{t−2})·x + …)·x + C_0`, so every scalar
/// multiplication is by the *small* index `x` (a 32-bit value) rather than a
/// full-width power of it.
pub fn verify_share(commitments: &[Point], share: &Share) -> bool {
    if commitments.is_empty() || share.index == 0 {
        return false;
    }
    let lhs = Point::mul_generator(&share.value);
    let x = Scalar::from_u64(share.index as u64);
    let mut rhs = Point::infinity();
    for c in commitments.iter().rev() {
        rhs = rhs.mul(&x).add(c);
    }
    lhs.equals(&rhs)
}

/// Verifies every share of a dealing at once with a single random-linear-
/// combination check:
///
/// `(Σ_i z_i·s_i)·G == Σ_j (Σ_i z_i·x_i^j)·C_j`
///
/// which collapses `n` share verifications (each `t` small multiplications
/// plus one fixed-base) into one `t + 1`-term [`Point::multi_mul`], its
/// generator term served from the static table. The coefficients `z_i` are
/// derived by hashing the whole dealing (commitments included, via the
/// batched point-set encoding) so a malicious dealer cannot choose shares
/// after seeing them. Structural
/// defects (no commitments, zero/duplicate indices, mismatched threshold)
/// fail the check outright; on a `false` result callers that need the
/// offending share fall back to per-share [`verify_share`].
pub fn verify_dealing(dealing: &Dealing) -> bool {
    if dealing.commitments.is_empty()
        || dealing.commitments.len() != dealing.threshold
        || dealing.shares.is_empty()
        || dealing.shares.iter().any(|s| s.index == 0)
    {
        return false;
    }
    let mut seen = std::collections::BTreeSet::new();
    if !dealing.shares.iter().all(|s| seen.insert(s.index)) {
        return false;
    }
    // Bind the coefficients to the entire dealing content.
    let mut transcript = encode_point_set(&dealing.commitments);
    transcript.extend_from_slice(&(dealing.threshold as u64).to_be_bytes());
    for share in &dealing.shares {
        transcript.extend_from_slice(&share.index.to_be_bytes());
        transcript.extend_from_slice(&share.value.to_be_bytes());
    }
    let seed = hash_parts(&[b"cycledger/pvss-batch-seed", &transcript]);

    let mut scaled_sum = Scalar::zero();
    // terms[j] = (Σ_i z_i·x_i^j, C_j); the last term carries −(Σ_i z_i·s_i)·G.
    let mut terms = Vec::with_capacity(dealing.commitments.len() + 1);
    terms.extend(
        dealing
            .commitments
            .iter()
            .map(|&c| (Scalar::zero(), Base::Point(c))),
    );
    let seed = seed.as_bytes();
    Scalar::rlc_coefficients(COEFFICIENT, seed, dealing.shares.len(), |coefficients| {
        for (share, &z) in dealing.shares.iter().zip(coefficients) {
            scaled_sum = scaled_sum.add(&z.mul(&share.value));
            let x = Scalar::from_u64(share.index as u64);
            let mut x_pow = z;
            for (w, _) in terms.iter_mut() {
                *w = w.add(&x_pow);
                x_pow = x_pow.mul(&x);
            }
        }
    });
    // Σ_j w_j·C_j − (Σ_i z_i·s_i)·G = O, one combination over one doubling
    // chain where `t` separate multiplications walk `t` of them.
    terms.push((scaled_sum.neg(), Base::Point(Point::generator())));
    Point::multi_mul(&terms).is_infinity()
}

/// The domain of a dealing check's coefficient stream.
const COEFFICIENT: &str = "cycledger/pvss-batch-coefficient";

/// Reconstructs the secret from at least `threshold` shares via Lagrange
/// interpolation at zero.
pub fn reconstruct(shares: &[Share], threshold: usize) -> Result<Scalar, PvssError> {
    if shares.len() < threshold || threshold == 0 {
        return Err(PvssError::NotEnoughShares);
    }
    let used = &shares[..threshold];
    for (i, a) in used.iter().enumerate() {
        for b in &used[i + 1..] {
            if a.index == b.index {
                return Err(PvssError::DuplicateIndex);
            }
        }
    }
    // Numerators and denominators of the Lagrange basis at zero; all the
    // denominators are inverted together with one batched inversion.
    let mut numerators = Vec::with_capacity(used.len());
    let mut denominators = Vec::with_capacity(used.len());
    for (i, share_i) in used.iter().enumerate() {
        let xi = Scalar::from_u64(share_i.index as u64);
        let mut num = Scalar::one();
        let mut den = Scalar::one();
        for (j, share_j) in used.iter().enumerate() {
            if i == j {
                continue;
            }
            let xj = Scalar::from_u64(share_j.index as u64);
            num = num.mul(&xj);
            den = den.mul(&xj.sub(&xi));
        }
        numerators.push(num);
        denominators.push(den);
    }
    Scalar::batch_invert(&mut denominators);
    let mut secret = Scalar::zero();
    for ((share, num), den_inv) in used.iter().zip(numerators).zip(denominators) {
        secret = secret.add(&share.value.mul(&num.mul(&den_inv)));
    }
    Ok(secret)
}

/// One dealer's contribution to a beacon round, as published on the wire.
#[derive(Clone, Debug)]
pub struct BeaconContribution {
    /// Index of the dealer within the referee committee.
    pub dealer: usize,
    /// The dealer's PVSS dealing.
    pub dealing: Dealing,
}

/// The full outcome of a beacon round: the randomness, the qualified dealer
/// set, and every published contribution (so callers can meter the exact wire
/// traffic the round generated).
#[derive(Clone, Debug)]
pub struct BeaconTranscript {
    /// The beacon output — the next round's randomness `R^{r+1}`.
    pub output: Digest,
    /// Dealer indices whose dealings qualified (all shares valid).
    pub qualified: Vec<usize>,
    /// Every dealer's published contribution, qualified or not.
    pub contributions: Vec<BeaconContribution>,
}

/// Runs a complete beacon round among `participants` referee members, of which
/// the ones listed in `honest` follow the protocol.
///
/// Returns the beacon output (the next round's randomness `R^{r+1}`) together
/// with the set of dealer indices whose dealings qualified. Dealers not in
/// `honest` publish corrupted dealings and are excluded — this is exactly the
/// SCRAPE qualification step. Qualification uses the batched
/// [`verify_dealing`] check (one random-linear-combination equation per
/// dealing instead of one per share).
pub fn run_beacon(
    participants: usize,
    threshold: usize,
    honest: &[bool],
    round_tag: &[u8],
) -> Result<(Digest, Vec<usize>), PvssError> {
    run_beacon_transcript(participants, threshold, honest, round_tag)
        .map(|t| (t.output, t.qualified))
}

/// [`run_beacon`], but additionally returning every dealer's contribution so
/// the protocol layer can encode and meter the actual dealing bytes.
pub fn run_beacon_transcript(
    participants: usize,
    threshold: usize,
    honest: &[bool],
    round_tag: &[u8],
) -> Result<BeaconTranscript, PvssError> {
    assert_eq!(honest.len(), participants);
    let mut qualified = Vec::new();
    let mut contributions = Vec::with_capacity(participants);
    let mut combined = Scalar::zero();
    for (dealer, &dealer_is_honest) in honest.iter().enumerate() {
        let mut drbg = HmacDrbg::from_parts(
            "cycledger/beacon-secret",
            &[round_tag, &(dealer as u64).to_be_bytes()],
        );
        let secret = Scalar::nonzero_from_drbg(&mut drbg);
        let mut dealing = deal(&secret, participants, threshold, round_tag)?;
        if !dealer_is_honest {
            // A corrupted dealer hands out an inconsistent share to participant 0.
            if let Some(first) = dealing.shares.first_mut() {
                first.value = first.value.add(&Scalar::one());
            }
        }
        if verify_dealing(&dealing) {
            // Honest participants jointly reconstruct and fold the secret in.
            let reconstructed = reconstruct(&dealing.shares, threshold)?;
            combined = combined.add(&reconstructed);
            qualified.push(dealer);
        }
        contributions.push(BeaconContribution { dealer, dealing });
    }
    if qualified.is_empty() {
        return Err(PvssError::NotEnoughShares);
    }
    let output = hash_parts(&[
        b"cycledger/beacon-output",
        round_tag,
        &combined.to_be_bytes(),
    ]);
    Ok(BeaconTranscript {
        output,
        qualified,
        contributions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn share_reconstruct_round_trip() {
        let secret = Scalar::from_u64(424242);
        let dealing = deal(&secret, 7, 4, b"entropy").unwrap();
        assert_eq!(dealing.shares.len(), 7);
        assert_eq!(reconstruct(&dealing.shares[..4], 4).unwrap(), secret);
        // Any other subset of size 4 works too.
        assert_eq!(reconstruct(&dealing.shares[3..7], 4).unwrap(), secret);
    }

    #[test]
    fn too_few_shares_fail() {
        let dealing = deal(&Scalar::from_u64(9), 5, 3, b"e").unwrap();
        assert_eq!(
            reconstruct(&dealing.shares[..2], 3),
            Err(PvssError::NotEnoughShares)
        );
    }

    #[test]
    fn duplicate_shares_rejected() {
        let dealing = deal(&Scalar::from_u64(9), 5, 3, b"e").unwrap();
        let dup = vec![dealing.shares[0], dealing.shares[0], dealing.shares[1]];
        assert_eq!(reconstruct(&dup, 3), Err(PvssError::DuplicateIndex));
    }

    #[test]
    fn bad_threshold_rejected() {
        assert_eq!(
            deal(&Scalar::from_u64(1), 3, 0, b"e").unwrap_err(),
            PvssError::BadThreshold
        );
        assert_eq!(
            deal(&Scalar::from_u64(1), 3, 4, b"e").unwrap_err(),
            PvssError::BadThreshold
        );
    }

    #[test]
    fn shares_are_publicly_verifiable() {
        let dealing = deal(&Scalar::from_u64(777), 6, 3, b"e").unwrap();
        for s in &dealing.shares {
            assert!(verify_share(&dealing.commitments, s));
        }
        // A tampered share fails verification.
        let mut bad = dealing.shares[2];
        bad.value = bad.value.add(&Scalar::one());
        assert!(!verify_share(&dealing.commitments, &bad));
        // A share with index 0 (which would reveal the secret) is rejected.
        assert!(!verify_share(
            &dealing.commitments,
            &Share {
                index: 0,
                value: Scalar::from_u64(777)
            }
        ));
    }

    #[test]
    fn batched_dealing_verification_matches_per_share() {
        let dealing = deal(&Scalar::from_u64(9001), 9, 5, b"batch").unwrap();
        assert!(verify_dealing(&dealing));
        // Tampering with any single share fails the batch, exactly as the
        // per-share path would.
        for i in 0..dealing.shares.len() {
            let mut bad = dealing.clone();
            bad.shares[i].value = bad.shares[i].value.add(&Scalar::one());
            assert!(!verify_dealing(&bad), "tampered share {i}");
            assert!(!verify_share(&bad.commitments, &bad.shares[i]));
        }
        // Structural defects are rejected.
        let mut zero_index = dealing.clone();
        zero_index.shares[0].index = 0;
        assert!(!verify_dealing(&zero_index));
        let mut duplicate = dealing.clone();
        duplicate.shares[1].index = duplicate.shares[0].index;
        assert!(!verify_dealing(&duplicate));
        let mut no_commitments = dealing.clone();
        no_commitments.commitments.clear();
        assert!(!verify_dealing(&no_commitments));
        // A dealing with no shares must not verify vacuously.
        let mut no_shares = dealing.clone();
        no_shares.shares.clear();
        assert!(!verify_dealing(&no_shares));
    }

    #[test]
    fn point_set_encoding_is_canonical() {
        let points = [
            Point::mul_generator(&Scalar::from_u64(3)),
            Point::infinity(),
            Point::mul_generator(&Scalar::from_u64(7)),
        ];
        let bytes = encode_point_set(&points);
        assert_eq!(bytes.len(), 8 + 3 * 64);
        assert_eq!(&bytes[..8], &3u64.to_be_bytes());
        // The identity encodes as all-zero; finite points as their affine form.
        assert_eq!(&bytes[8 + 64..8 + 128], &[0u8; 64]);
        assert_eq!(
            &bytes[8..8 + 64],
            &points[0].to_affine().unwrap().to_bytes()
        );
        // Jacobian representation does not leak into the encoding: a doubled
        // representative of the same group element encodes identically.
        let same = points[0].add(&Point::infinity());
        assert_eq!(encode_point_set(&[same]), encode_point_set(&[points[0]]));
    }

    #[test]
    fn beacon_transcript_carries_contributions() {
        let honest = vec![true, false, true];
        let t = run_beacon_transcript(3, 2, &honest, b"round-t").unwrap();
        assert_eq!(t.qualified, vec![0, 2]);
        assert_eq!(t.contributions.len(), 3);
        for (i, c) in t.contributions.iter().enumerate() {
            assert_eq!(c.dealer, i);
            assert_eq!(c.dealing.shares.len(), 3);
            assert_eq!(verify_dealing(&c.dealing), honest[i]);
        }
        let (out, qualified) = run_beacon(3, 2, &honest, b"round-t").unwrap();
        assert_eq!(out, t.output);
        assert_eq!(qualified, t.qualified);
    }

    #[test]
    fn commitment_constant_term_is_secret_times_g() {
        let secret = Scalar::from_u64(31337);
        let dealing = deal(&secret, 4, 2, b"e").unwrap();
        assert!(dealing.commitments[0].equals(&Point::mul_generator(&secret)));
    }

    #[test]
    fn beacon_all_honest() {
        let honest = vec![true; 5];
        let (out, qualified) = run_beacon(5, 3, &honest, b"round-1").unwrap();
        assert_eq!(qualified, vec![0, 1, 2, 3, 4]);
        // Deterministic given the same tag; different across rounds.
        let (out2, _) = run_beacon(5, 3, &honest, b"round-1").unwrap();
        let (out3, _) = run_beacon(5, 3, &honest, b"round-2").unwrap();
        assert_eq!(out, out2);
        assert_ne!(out, out3);
    }

    #[test]
    fn beacon_excludes_cheating_dealers_but_still_outputs() {
        let honest = vec![true, false, true, false, true];
        let (out, qualified) = run_beacon(5, 3, &honest, b"round-9").unwrap();
        assert_eq!(qualified, vec![0, 2, 4]);
        // Cheating dealers change the qualified set, hence the output, but the
        // beacon still completes (liveness with an honest majority).
        let (out_all, _) = run_beacon(5, 3, &[true; 5], b"round-9").unwrap();
        assert_ne!(out, out_all);
    }

    #[test]
    fn beacon_fails_only_if_nobody_qualifies() {
        let honest = vec![false; 4];
        assert_eq!(
            run_beacon(4, 2, &honest, b"round-x").unwrap_err(),
            PvssError::NotEnoughShares
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_reconstruct_from_any_threshold_subset(
            secret in any::<u64>(),
            participants in 3usize..9,
            offset in 0usize..8,
        ) {
            let threshold = participants / 2 + 1;
            let secret = Scalar::from_u64(secret);
            let dealing = deal(&secret, participants, threshold, b"prop").unwrap();
            // Rotate the share list and take the first `threshold` — an arbitrary subset.
            let mut shares = dealing.shares.clone();
            shares.rotate_left(offset % participants);
            prop_assert_eq!(reconstruct(&shares[..threshold], threshold).unwrap(), secret);
        }

        #[test]
        fn prop_all_dealt_shares_verify(secret in any::<u64>(), participants in 2usize..8) {
            let dealing = deal(&Scalar::from_u64(secret), participants, 2, b"prop2").unwrap();
            for s in &dealing.shares {
                prop_assert!(verify_share(&dealing.commitments, s));
            }
        }
    }
}
