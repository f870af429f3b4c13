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

use cycledger_crypto::schnorr::{PublicKey, Signature};
use cycledger_crypto::sha256::Digest;
use cycledger_net::topology::NodeId;

use crate::messages::{confirm_signing_bytes, ConsensusId, CONFIRM_SIGNING_LEN};

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
#[derive(Clone, Debug, PartialEq, Eq)]
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

    /// Verifies the certificate using one batched random-linear-combination
    /// signature check instead of one check per signer.
    ///
    /// This is the entry point the round engine's shard executor uses for
    /// per-shard vote sets: the whole `SigList` is handed to
    /// [`cycledger_crypto::schnorr::batch_verify`] at once. Structural rules
    /// (membership, deduplication, threshold) are identical to [`Self::verify`], and
    /// when the batch check fails the slow path re-runs per signature so the
    /// caller still learns *which* rule broke.
    pub fn verify_batch(&self, keys: &CommitteeKeys, threshold: usize) -> Result<(), QuorumError> {
        self.structural_check(keys, threshold)?;
        let message_bytes: Vec<[u8; CONFIRM_SIGNING_LEN]> = self
            .signatures
            .iter()
            .map(|(node, _)| confirm_signing_bytes(&self.id, &self.digest, *node))
            .collect();
        let entries: Vec<cycledger_crypto::schnorr::BatchEntry<'_>> = self
            .signatures
            .iter()
            .zip(&message_bytes)
            .map(
                |((node, signature), message)| cycledger_crypto::schnorr::BatchEntry {
                    public_key: keys.get(*node).expect("membership checked above"),
                    message,
                    signature,
                },
            )
            .collect();
        if cycledger_crypto::schnorr::batch_verify(&entries) {
            return Ok(());
        }
        // The batch is bad: fall back to the sequential path for a precise
        // error (and as defence in depth should the two paths ever disagree).
        self.verify(keys, threshold)?;
        Err(QuorumError::BadSignature)
    }

    /// Batched counterpart of [`Self::verify_majority`].
    pub fn verify_batch_majority(&self, keys: &CommitteeKeys) -> Result<(), QuorumError> {
        self.verify_batch(keys, keys.majority_threshold())
    }

    /// The non-cryptographic rules of certificate verification: enough
    /// signatures, all signers distinct committee members, distinct-signer
    /// count at threshold. Shared by the sequential, per-certificate-batch and
    /// cross-committee-batch paths.
    fn structural_check(&self, keys: &CommitteeKeys, threshold: usize) -> Result<(), QuorumError> {
        if self.signatures.len() < threshold {
            return Err(QuorumError::InsufficientSigners);
        }
        let mut seen = std::collections::BTreeSet::new();
        for (node, _) in &self.signatures {
            if !seen.insert(*node) {
                return Err(QuorumError::DuplicateSigner);
            }
            if keys.get(*node).is_none() {
                return Err(QuorumError::UnknownSigner);
            }
        }
        if seen.len() < threshold {
            return Err(QuorumError::InsufficientSigners);
        }
        Ok(())
    }
}

/// Verifies many certificates — typically one per committee for a whole round
/// phase — with a **single** random-linear-combination batch check across all
/// of their signatures, instead of one batch per certificate.
///
/// Input is `(certificate, that committee's key directory, threshold)`; the
/// returned vector is aligned with the input. Structural rules are checked
/// per certificate exactly as in [`QuorumCertificate::verify`]; certificates
/// that fail them are excluded from the combined batch and reported
/// individually. If the combined batch fails, each structurally valid
/// certificate is re-checked on its own (via [`QuorumCertificate::verify_batch`],
/// which itself falls back to the sequential path) so only the culprits are
/// rejected and with a precise error.
///
/// Soundness matches `batch_verify`: the random coefficients are derived from
/// a transcript over every `(R, PK, message, s)` in the combined batch, so a
/// forged signature in one certificate cannot hide behind valid signatures
/// from another committee.
pub fn verify_certs_batch(
    certs: &[(&QuorumCertificate, &CommitteeKeys, usize)],
) -> Vec<Result<(), QuorumError>> {
    // Structural pass; assemble signing bytes for the survivors.
    let mut results: Vec<Result<(), QuorumError>> = Vec::with_capacity(certs.len());
    let mut message_bytes: Vec<[u8; CONFIRM_SIGNING_LEN]> = Vec::new();
    let mut spans: Vec<Option<usize>> = Vec::with_capacity(certs.len());
    for (cert, keys, threshold) in certs {
        match cert.structural_check(keys, *threshold) {
            Err(err) => {
                results.push(Err(err));
                spans.push(None);
            }
            Ok(()) => {
                spans.push(Some(message_bytes.len()));
                for (node, _) in &cert.signatures {
                    message_bytes.push(confirm_signing_bytes(&cert.id, &cert.digest, *node));
                }
                results.push(Ok(()));
            }
        }
    }
    // Crypto pass: one combined batch over every structurally valid certificate.
    let mut entries: Vec<cycledger_crypto::schnorr::BatchEntry<'_>> = Vec::new();
    for ((cert, keys, _), span) in certs.iter().zip(&spans) {
        let Some(start) = span else { continue };
        for (offset, (node, signature)) in cert.signatures.iter().enumerate() {
            entries.push(cycledger_crypto::schnorr::BatchEntry {
                public_key: keys.get(*node).expect("membership checked above"),
                message: &message_bytes[start + offset],
                signature,
            });
        }
    }
    if entries.is_empty() || cycledger_crypto::schnorr::batch_verify(&entries) {
        return results;
    }
    // At least one certificate is bad: isolate the culprits per certificate.
    for ((cert, keys, threshold), result) in certs.iter().zip(results.iter_mut()) {
        if result.is_ok() {
            *result = cert.verify_batch(keys, *threshold);
        }
    }
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

    #[test]
    fn empty_committee_behaves() {
        let keys = CommitteeKeys::default();
        assert!(keys.is_empty());
        assert_eq!(keys.len(), 0);
        assert_eq!(keys.majority_threshold(), 1);
    }
}
