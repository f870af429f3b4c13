//! Quorum certificates ("SigList" in the paper's pseudocode).
//!
//! Algorithm 3 terminates at the leader once more than half of the committee has
//! CONFIRMed the same digest. The collected confirmations form a transferable
//! certificate: the leader forwards it (e.g. with `TXdecSET` to the referee
//! committee), and anyone holding the committee's public keys can verify that a
//! majority really signed off — which is why a faulty leader "cannot fabricate a
//! consensus result" (§IV-D).

use std::collections::BTreeMap;
use std::sync::Arc;

use cycledger_crypto::schnorr::{BatchEntry, PublicKey, Signature};
use cycledger_crypto::sha256::Digest;
use cycledger_net::topology::NodeId;

use crate::messages::{confirm_signing_bytes, ConsensusId};
use crate::sigcache::SigCache;

/// The public keys of a committee, indexed by node id.
///
/// The directory is immutable once built and shared behind an `Arc`: one
/// Algorithm 3 instance hands a copy to every member state machine, so a
/// clone must be a reference-count bump, not a fresh `O(C)` tree of 64-byte
/// keys per member (the seed paid that `O(C²)` copy per instance).
#[derive(Clone, Debug, Default)]
pub struct CommitteeKeys {
    keys: Arc<BTreeMap<NodeId, PublicKey>>,
}

impl CommitteeKeys {
    /// Builds the key directory from `(node, key)` pairs.
    pub fn new(pairs: impl IntoIterator<Item = (NodeId, PublicKey)>) -> Self {
        CommitteeKeys {
            keys: Arc::new(pairs.into_iter().collect()),
        }
    }

    /// Looks up a member's key.
    pub fn get(&self, node: NodeId) -> Option<&PublicKey> {
        self.keys.get(&node)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// True if `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.keys.contains_key(&node)
    }

    /// Iterates over members in id order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.keys.keys().copied()
    }

    /// The majority threshold `⌊C/2⌋ + 1` used throughout Algorithm 3
    /// (delegates to the shared decision core — see [`crate::transition`]).
    pub fn majority_threshold(&self) -> usize {
        crate::transition::majority_threshold(self.len())
    }
}

/// A quorum certificate: a digest plus confirm-signatures from distinct members.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QuorumCertificate {
    /// Consensus instance the certificate belongs to.
    pub id: ConsensusId,
    /// The agreed digest.
    pub digest: Digest,
    /// Confirm signatures `(member, signature)`, deduplicated by member.
    pub signatures: Vec<(NodeId, Signature)>,
}

/// Why certificate verification failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuorumError {
    /// Fewer distinct valid signers than the required threshold.
    InsufficientSigners,
    /// A signer is not a member of the committee.
    UnknownSigner,
    /// A signature does not verify.
    BadSignature,
    /// The same member appears twice.
    DuplicateSigner,
}

impl QuorumCertificate {
    /// Number of signatures carried.
    pub fn signer_count(&self) -> usize {
        self.signatures.len()
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        16 + 32 + self.signatures.len() as u64 * (4 + 96)
    }

    /// Verifies the certificate against a committee key directory: all signers
    /// must be distinct committee members with valid confirm-signatures over
    /// `(id, digest)`, and there must be at least `threshold` of them.
    pub fn verify(&self, keys: &CommitteeKeys, threshold: usize) -> Result<(), QuorumError> {
        // Cheap structural pre-check before any signature work: the distinct
        // signer count can never exceed the raw signature count.
        if self.signatures.len() < threshold {
            return Err(QuorumError::InsufficientSigners);
        }
        let mut seen = std::collections::BTreeSet::new();
        for (node, signature) in &self.signatures {
            if !seen.insert(*node) {
                return Err(QuorumError::DuplicateSigner);
            }
            let pk = keys.get(*node).ok_or(QuorumError::UnknownSigner)?;
            let bytes = confirm_signing_bytes(&self.id, &self.digest, *node);
            if !cycledger_crypto::schnorr::verify(pk, &bytes, signature) {
                return Err(QuorumError::BadSignature);
            }
        }
        if seen.len() < threshold {
            return Err(QuorumError::InsufficientSigners);
        }
        Ok(())
    }

    /// Convenience: verify against the majority threshold of `keys`.
    pub fn verify_majority(&self, keys: &CommitteeKeys) -> Result<(), QuorumError> {
        self.verify(keys, keys.majority_threshold())
    }

    /// The receiver's check of a certificate that arrived with the verdict
    /// memo of the instance that formed it: the structural rules of
    /// [`Self::verify`] (membership, deduplication, threshold), then every
    /// signature looked up in the memo. A signature the instance verified —
    /// in a fault-free run, every one — costs that lookup and nothing else,
    /// not even an allocation; a signature the memo has never seen (tampered,
    /// swapped, replayed from another instance, forged) is verified here, the
    /// misses as one [`SigCache::verify_batch`] (one batch, and one check per
    /// miss only if the batch fails); a memoised `false` stays `false`.
    /// Verdicts are pure functions of the triple, so the result is
    /// [`Self::verify`]'s whatever the memo holds.
    pub fn verify_memoized(
        &self,
        keys: &CommitteeKeys,
        threshold: usize,
        memo: &SigCache,
    ) -> Result<(), QuorumError> {
        let mut result = [Ok(())];
        verify_certs_memoized(&[(self, keys, threshold)], memo, &mut result);
        result[0]
    }

    /// [`Self::verify_memoized`] without a memo: every signature is a miss,
    /// so the whole `SigList` goes through one
    /// [`batch_verify`](cycledger_crypto::schnorr::batch_verify) and, if that
    /// fails, through one check per signature. No protocol path calls it — a
    /// certificate always arrives with its instance's memo — it remains as
    /// what `consensus.probe.cert_verify_batch_us` in `benchmark/` times.
    pub fn verify_batch(&self, keys: &CommitteeKeys, threshold: usize) -> Result<(), QuorumError> {
        self.verify_memoized(keys, threshold, &SigCache::new())
    }

    /// Batched counterpart of [`Self::verify_majority`].
    pub fn verify_batch_majority(&self, keys: &CommitteeKeys) -> Result<(), QuorumError> {
        self.verify_batch(keys, keys.majority_threshold())
    }

    /// The non-cryptographic rules of certificate verification, as in
    /// [`Self::verify`]: enough signatures, every signer a committee member,
    /// none of them twice. Allocates nothing: a signer is compared with those
    /// before it, and the first repeat or stranger ends the walk — at most
    /// `C + 1` steps of at most `C` comparisons, however long the list.
    fn structural_check(&self, keys: &CommitteeKeys, threshold: usize) -> Result<(), QuorumError> {
        if self.signatures.len() < threshold {
            return Err(QuorumError::InsufficientSigners);
        }
        for (index, (node, _)) in self.signatures.iter().enumerate() {
            let earlier = &self.signatures[..index];
            if earlier.iter().any(|(signer, _)| signer == node) {
                return Err(QuorumError::DuplicateSigner);
            }
            if !keys.contains(*node) {
                return Err(QuorumError::UnknownSigner);
            }
        }
        Ok(())
    }
}

/// Verifies `(certificate, that committee's key directory, threshold)`
/// triples against one verdict memo, into `results` (aligned with `certs`).
/// Structural rules are checked per certificate exactly as in
/// [`QuorumCertificate::verify`]; the signatures of every certificate that
/// passes them are looked up in `memo`, and those it lacks — across all the
/// certificates — go through a single [`SigCache::verify_batch`]. A
/// certificate with a `false` among its verdicts is a
/// [`QuorumError::BadSignature`]; the others are untouched.
fn verify_certs_memoized(
    certs: &[(&QuorumCertificate, &CommitteeKeys, usize)],
    memo: &SigCache,
    results: &mut [Result<(), QuorumError>],
) {
    // `(certificate, key, signing bytes, signature)` of every miss. Stays
    // empty, and unallocated, when the memo knows every signature.
    let mut misses = Vec::new();
    for (index, (cert, keys, threshold)) in certs.iter().enumerate() {
        results[index] = cert.structural_check(keys, *threshold);
        if results[index].is_err() {
            continue;
        }
        for (node, signature) in &cert.signatures {
            let public_key = keys.get(*node).expect("membership checked above");
            let message = confirm_signing_bytes(&cert.id, &cert.digest, *node);
            let entry = BatchEntry {
                public_key,
                message: &message,
                signature,
            };
            match memo.lookup(&entry) {
                Some(true) => {}
                Some(false) => results[index] = Err(QuorumError::BadSignature),
                None => misses.push((index, public_key, message, signature)),
            }
        }
    }
    let entries: Vec<BatchEntry<'_>> = misses
        .iter()
        .map(|(_, public_key, message, signature)| BatchEntry {
            public_key,
            message,
            signature,
        })
        .collect();
    for ((index, ..), valid) in misses.iter().zip(memo.verify_batch(&entries).iter()) {
        if !valid {
            results[*index] = Err(QuorumError::BadSignature);
        }
    }
}

/// Verifies many certificates at once without a memo: every signature is a
/// miss, so all of them go through a **single** random-linear-combination
/// batch across the certificates (and, only if it fails, through one check
/// per signature, which rejects the culprits alone). Soundness matches
/// `batch_verify`: the random coefficients are derived from a transcript over
/// every `(R, PK, message, s)` in the combined batch, so a forged signature
/// in one certificate cannot hide behind valid signatures from another
/// committee.
///
/// No protocol path calls it: a receiver holds each certificate's own memo
/// and pays lookups ([`QuorumCertificate::verify_memoized`]). It remains as
/// what `consensus.probe.certs_batch_us_per_cert` in `benchmark/` times —
/// the price of a round's certificates to a receiver that saw none of them
/// formed.
pub fn verify_certs_batch(
    certs: &[(&QuorumCertificate, &CommitteeKeys, usize)],
) -> Vec<Result<(), QuorumError>> {
    let mut results = vec![Ok(()); certs.len()];
    verify_certs_memoized(certs, &SigCache::new(), &mut results);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::make_confirm;
    use cycledger_crypto::schnorr::Keypair;

    fn committee(n: usize) -> (Vec<Keypair>, CommitteeKeys) {
        let keypairs: Vec<Keypair> = (0..n)
            .map(|i| Keypair::from_seed(format!("qc-member-{i}").as_bytes()))
            .collect();
        let keys = CommitteeKeys::new(
            keypairs
                .iter()
                .enumerate()
                .map(|(i, kp)| (NodeId(i as u32), kp.public)),
        );
        (keypairs, keys)
    }

    fn certificate(keypairs: &[Keypair], signers: &[usize], digest: Digest) -> QuorumCertificate {
        let id = ConsensusId { round: 1, seq: 2 };
        let signatures = signers
            .iter()
            .map(|&i| {
                let c = make_confirm(id, digest, NodeId(i as u32), &keypairs[i], vec![]);
                (NodeId(i as u32), c.signature)
            })
            .collect();
        QuorumCertificate {
            id,
            digest,
            signatures,
        }
    }

    #[test]
    fn majority_threshold_formula() {
        let (_, keys) = committee(7);
        assert_eq!(keys.majority_threshold(), 4);
        let (_, keys) = committee(8);
        assert_eq!(keys.majority_threshold(), 5);
        assert!(keys.contains(NodeId(0)));
        assert!(!keys.contains(NodeId(100)));
        assert_eq!(keys.members().count(), 8);
        assert!(!keys.is_empty());
    }

    #[test]
    fn valid_certificate_verifies() {
        let (kps, keys) = committee(7);
        let digest = cycledger_crypto::sha256::sha256(b"decision");
        let qc = certificate(&kps, &[0, 1, 2, 3], digest);
        assert_eq!(qc.verify_majority(&keys), Ok(()));
        assert_eq!(qc.signer_count(), 4);
        assert!(qc.wire_size() > 100);
    }

    #[test]
    fn too_few_signers_rejected() {
        let (kps, keys) = committee(7);
        let digest = cycledger_crypto::sha256::sha256(b"decision");
        let qc = certificate(&kps, &[0, 1, 2], digest);
        assert_eq!(
            qc.verify_majority(&keys),
            Err(QuorumError::InsufficientSigners)
        );
        // But a lower explicit threshold can accept it.
        assert_eq!(qc.verify(&keys, 3), Ok(()));
    }

    #[test]
    fn unknown_signer_rejected() {
        let (kps, keys) = committee(5);
        let digest = cycledger_crypto::sha256::sha256(b"decision");
        let mut qc = certificate(&kps, &[0, 1, 2], digest);
        // Re-label one signer as a node outside the committee.
        qc.signatures[0].0 = NodeId(99);
        assert_eq!(qc.verify_majority(&keys), Err(QuorumError::UnknownSigner));
    }

    #[test]
    fn bad_signature_rejected() {
        let (kps, keys) = committee(5);
        let digest = cycledger_crypto::sha256::sha256(b"decision");
        let other_digest = cycledger_crypto::sha256::sha256(b"something else");
        let mut qc = certificate(&kps, &[0, 1, 2], digest);
        // Signature 0 actually signs a different digest.
        let forged = certificate(&kps, &[0], other_digest);
        qc.signatures[0] = forged.signatures[0];
        assert_eq!(qc.verify_majority(&keys), Err(QuorumError::BadSignature));
    }

    #[test]
    fn duplicate_signer_rejected() {
        let (kps, keys) = committee(5);
        let digest = cycledger_crypto::sha256::sha256(b"decision");
        let mut qc = certificate(&kps, &[0, 1, 2], digest);
        qc.signatures.push(qc.signatures[0]);
        assert_eq!(qc.verify_majority(&keys), Err(QuorumError::DuplicateSigner));
    }

    #[test]
    fn batched_verification_matches_sequential() {
        let (kps, keys) = committee(7);
        let digest = cycledger_crypto::sha256::sha256(b"decision");
        let qc = certificate(&kps, &[0, 1, 2, 3], digest);
        assert_eq!(qc.verify_batch_majority(&keys), Ok(()));
        assert_eq!(
            qc.verify_batch(&keys, 5),
            Err(QuorumError::InsufficientSigners)
        );

        // Structural failures surface the same errors as the slow path.
        let mut dup = qc.clone();
        dup.signatures.push(dup.signatures[0]);
        assert_eq!(
            dup.verify_batch_majority(&keys),
            Err(QuorumError::DuplicateSigner)
        );
        let mut foreign = qc.clone();
        foreign.signatures[0].0 = NodeId(99);
        assert_eq!(
            foreign.verify_batch_majority(&keys),
            Err(QuorumError::UnknownSigner)
        );

        // A cryptographically bad signature fails the batch and is pinpointed
        // by the fallback.
        let other = cycledger_crypto::sha256::sha256(b"other");
        let mut bad = qc.clone();
        bad.signatures[2] = certificate(&kps, &[2], other).signatures[0];
        assert_eq!(
            bad.verify_batch_majority(&keys),
            Err(QuorumError::BadSignature)
        );
    }

    #[test]
    fn cross_committee_batch_isolates_culprits() {
        // Three committees with disjoint key sets, one certificate each.
        let (kps_a, keys_a) = committee(5);
        let kps_b: Vec<Keypair> = (0..5)
            .map(|i| Keypair::from_seed(format!("qc-b-{i}").as_bytes()))
            .collect();
        let keys_b = CommitteeKeys::new(
            kps_b
                .iter()
                .enumerate()
                .map(|(i, kp)| (NodeId(i as u32), kp.public)),
        );
        let kps_c: Vec<Keypair> = (0..5)
            .map(|i| Keypair::from_seed(format!("qc-c-{i}").as_bytes()))
            .collect();
        let keys_c = CommitteeKeys::new(
            kps_c
                .iter()
                .enumerate()
                .map(|(i, kp)| (NodeId(i as u32), kp.public)),
        );
        let digest = cycledger_crypto::sha256::sha256(b"decision");
        let qc_a = certificate(&kps_a, &[0, 1, 2], digest);
        let qc_b = certificate(&kps_b, &[1, 2, 3], digest);
        let qc_c = certificate(&kps_c, &[0, 2, 4], digest);

        // All valid: every slot Ok, one combined batch suffices.
        let all = verify_certs_batch(&[
            (&qc_a, &keys_a, 3),
            (&qc_b, &keys_b, 3),
            (&qc_c, &keys_c, 3),
        ]);
        assert_eq!(all, vec![Ok(()), Ok(()), Ok(())]);

        // One forged signature in the middle certificate: only that slot is
        // rejected, and with the precise error.
        let mut bad_b = qc_b.clone();
        let other = cycledger_crypto::sha256::sha256(b"other");
        bad_b.signatures[1] = certificate(&kps_b, &[2], other).signatures[0];
        let mixed = verify_certs_batch(&[
            (&qc_a, &keys_a, 3),
            (&bad_b, &keys_b, 3),
            (&qc_c, &keys_c, 3),
        ]);
        assert_eq!(mixed, vec![Ok(()), Err(QuorumError::BadSignature), Ok(())]);

        // Structural failures are reported per slot without disturbing others,
        // and an all-structural-failure input performs no crypto at all.
        let thin = certificate(&kps_a, &[0, 1], digest);
        let structural = verify_certs_batch(&[(&thin, &keys_a, 3), (&qc_c, &keys_c, 3)]);
        assert_eq!(
            structural,
            vec![Err(QuorumError::InsufficientSigners), Ok(())]
        );
        assert_eq!(
            verify_certs_batch(&[(&thin, &keys_a, 3)]),
            vec![Err(QuorumError::InsufficientSigners)]
        );
        assert!(verify_certs_batch(&[]).is_empty());
    }

    /// What the memo saves a receiver, in exact counts: a signature it holds
    /// costs one lookup, the ones it lacks one batch between them, and a
    /// memoised `false` rejects the certificate without curve work.
    #[cfg(feature = "opcount")]
    #[test]
    fn memoized_check_verifies_only_what_the_memo_lacks() {
        use cycledger_crypto::opcount::scope;
        let (kps, keys) = committee(7);
        let digest = cycledger_crypto::sha256::sha256(b"decision");
        let qc = certificate(&kps, &[0, 1, 2, 3], digest);
        let learn = |memo: &SigCache, signers: &[usize]| {
            for &i in signers {
                let (node, signature) = &qc.signatures[i];
                let bytes = confirm_signing_bytes(&qc.id, &qc.digest, *node);
                assert!(memo.verify(keys.get(*node).unwrap(), &bytes, signature));
            }
        };
        let counts = |memo: &SigCache, qc: &QuorumCertificate, expected| {
            let mut verdict = Ok(());
            let tally = scope(|| verdict = qc.verify_memoized(&keys, 4, memo));
            assert_eq!(verdict, expected);
            let sigs = (tally.sig_batches, tally.sigs_batched, tally.sigs_single);
            (tally.memo_lookups, sigs)
        };
        let (warm, half) = (SigCache::new(), SigCache::new());
        learn(&warm, &[0, 1, 2, 3]);
        learn(&half, &[0, 2]);
        assert_eq!(counts(&warm, &qc, Ok(())), (4, (0, 0, 0)));
        // Two misses: looked up once here and once by the batch they join.
        assert_eq!(counts(&half, &qc, Ok(())), (4 + 2, (1, 2, 0)));
        assert_eq!(counts(&half, &qc, Ok(())), (4, (0, 0, 0)), "now memoised");
        // The memo-less form is the same check from an empty memo.
        let cold = scope(|| assert_eq!(qc.verify_batch(&keys, 4), Ok(())));
        assert_eq!((cold.sig_batches, cold.sigs_batched), (1, 4));
        // A lone forged signature is one single check; then a memoised `false`.
        let mut bad = qc.clone();
        let other = cycledger_crypto::sha256::sha256(b"other");
        bad.signatures[2] = certificate(&kps, &[2], other).signatures[0];
        let rejected = Err(QuorumError::BadSignature);
        assert_eq!(counts(&warm, &bad, rejected), (4 + 1, (0, 0, 1)));
        assert_eq!(counts(&warm, &bad, rejected), (4, (0, 0, 0)));
    }

    #[test]
    fn empty_committee_behaves() {
        let keys = CommitteeKeys::default();
        assert!(keys.is_empty());
        assert_eq!(keys.len(), 0);
        assert_eq!(keys.majority_threshold(), 1);
    }
}
