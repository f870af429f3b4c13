//! Shared-ground-truth memoization of Schnorr verification results.
//!
//! One Algorithm 3 instance makes every member verify the *same* handful of
//! signatures: the leader's PROPOSE signature is checked by all `C` members
//! (and re-checked once per relaying ECHO), and each member's ECHO signature
//! is checked by all `C − 1` receivers. The verification of a fixed
//! `(public key, message, signature)` triple is a pure function, so the
//! simulator shares one result table per instance instead of paying the curve
//! multiplication once per receiver — exactly the idiom the inter-consensus
//! phase already uses for transaction validity ("ground truth shared by every
//! member, not once per member per transaction").
//!
//! The memo changes no protocol outcome: honest members would all compute the
//! same boolean, equivocating payloads produce different message bytes (and
//! therefore different memo keys), and a forged signature caches `false` for
//! every receiver alike. With the memo, a `C`-member instance performs
//! `O(C)` distinct verifications instead of `O(C²)`.
//!
//! **One memo per instance, carried with its certificate.** The receivers of
//! a quorum certificate — the referee, a destination committee, a source
//! taking its reply — are receivers of the same CONFIRM signatures the
//! instance's leader checked to form it, so the rule does not stop at the
//! instance's edge: when the instance ends, [`SigCache::into_verdicts`]
//! detaches the table as a plain [`Verdicts`] value that travels beside the
//! certificate (worker thread to driver thread included), and the receiver
//! wraps it again ([`SigCache::from`]) for
//! [`QuorumCertificate::verify_memoized`](crate::quorum::QuorumCertificate::verify_memoized).
//! A signature the instance verified costs the receiver a lookup; one it
//! never saw — tampered, swapped, replayed from another instance, forged — is
//! a miss and is verified there and then; a memoised `false` stays `false`.
//! A fault-free round therefore verifies each distinct signature once.
//!
//! The memo is keyed by the triple itself — the key and signature hashed with
//! the in-process [`fxhash`](cycledger_crypto::fxhash), the message compared
//! byte for byte — so a hit costs neither a SHA-256 nor an allocation. Fx is
//! not collision-resistant, and does not have to be: a collision costs one
//! more comparison, never a wrong verdict, and the keys are this instance's
//! own messages.

use std::cell::RefCell;
use std::rc::Rc;

use cycledger_crypto::fxhash::FxHashMap;
use cycledger_crypto::opcount::{count, Op};
use cycledger_crypto::schnorr::{batch_verify, verify, BatchEntry, PublicKey, Signature};

/// A memo's table, detached from its handles: what one instance verified, as
/// a plain value that can sit in a task's result and cross to another thread
/// (a [`SigCache`] handle cannot — it is an `Rc`). It answers nothing by
/// itself; [`SigCache::from`] makes it a memo again.
///
/// Verdicts by `(key, signature)`, then by message.
#[derive(Clone, Debug, Default)]
pub struct Verdicts(FxHashMap<(PublicKey, Signature), ByMessage>);

/// The verdicts on one `(key, signature)`: a signature is as good as always
/// checked against one message, so the list is one entry long unless somebody
/// replays it under another header.
type ByMessage = Vec<(Box<[u8]>, bool)>;

/// A cloneable handle to one instance's verification memo.
///
/// Handles are reference-counted (`Rc`): the driver creates one cache per
/// Algorithm 3 instance and hands a clone to every member/leader state
/// machine, which all run on the same worker thread. The default handle owns
/// a fresh private memo, so state machines used standalone behave exactly as
/// before.
#[derive(Clone, Debug, Default)]
pub struct SigCache {
    results: Rc<RefCell<Verdicts>>,
}

impl From<Verdicts> for SigCache {
    /// A memo that already knows `verdicts`.
    fn from(verdicts: Verdicts) -> SigCache {
        SigCache {
            results: Rc::new(RefCell::new(verdicts)),
        }
    }
}

impl SigCache {
    /// Creates an empty memo.
    pub fn new() -> SigCache {
        SigCache::default()
    }

    /// Moves the table out of the memo — the table itself, no copy. Handles
    /// still alive share an empty memo from here on, which costs them
    /// verifications, never a verdict.
    pub fn into_verdicts(self) -> Verdicts {
        self.results.take()
    }

    /// The verdict on `entry`, if the memo holds one.
    pub(crate) fn lookup(&self, entry: &BatchEntry<'_>) -> Option<bool> {
        count(Op::MemoLookup);
        self.results
            .borrow()
            .0
            .get(&(*entry.public_key, *entry.signature))?
            .iter()
            .find(|(message, _)| **message == *entry.message)
            .map(|(_, ok)| *ok)
    }

    /// Checks a triple the memo lacks and records the verdict.
    fn verify_unknown(&self, entry: &BatchEntry<'_>) -> bool {
        let ok = verify(entry.public_key, entry.message, entry.signature);
        self.memoize(entry, ok);
        ok
    }

    fn memoize(&self, entry: &BatchEntry<'_>, ok: bool) {
        let mut results = self.results.borrow_mut();
        let verdicts = results
            .0
            .entry((*entry.public_key, *entry.signature))
            .or_default();
        // One batch may hold the same unknown triple twice.
        if !verdicts
            .iter()
            .any(|(message, _)| **message == *entry.message)
        {
            verdicts.push((entry.message.into(), ok));
        }
    }

    /// Verifies `signature` by `public_key` over `message`, serving repeated
    /// queries for the same triple from the memo.
    pub fn verify(&self, public_key: &PublicKey, message: &[u8], signature: &Signature) -> bool {
        let entry = BatchEntry {
            public_key,
            message,
            signature,
        };
        self.lookup(&entry)
            .unwrap_or_else(|| self.verify_unknown(&entry))
    }

    /// Verdicts for `entries`, in order — each what [`Self::verify`] would
    /// return — for the price of one batch: triples already in the memo are
    /// answered from it, the rest go through a single [`batch_verify`] (a
    /// lone one through [`verify`]), and only if that batch fails is each of
    /// them checked on its own, to tell the forged from the valid. Every
    /// verdict is memoized.
    pub fn verify_batch(&self, entries: &[BatchEntry<'_>]) -> Vec<bool> {
        let known: Vec<Option<bool>> = entries.iter().map(|entry| self.lookup(entry)).collect();
        let unknown: Vec<BatchEntry<'_>> = entries
            .iter()
            .zip(&known)
            .filter(|(_, verdict)| verdict.is_none())
            .map(|(entry, _)| *entry)
            .collect();
        let all_valid = unknown.len() > 1 && batch_verify(&unknown);
        let mut unknown = unknown.iter();
        known
            .into_iter()
            .map(|verdict| {
                verdict.unwrap_or_else(|| {
                    let entry = unknown
                        .next()
                        .expect("one unknown entry per missing verdict");
                    if all_valid {
                        self.memoize(entry, true);
                        true
                    } else {
                        self.verify_unknown(entry)
                    }
                })
            })
            .collect()
    }

    /// Number of distinct verifications performed so far.
    pub fn len(&self) -> usize {
        self.results.borrow().0.values().map(Vec::len).sum()
    }

    /// True if no verification has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.results.borrow().0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycledger_crypto::schnorr::Keypair;

    #[test]
    fn memo_matches_direct_verification() {
        let kp = Keypair::from_seed(b"sigcache-a");
        let other = Keypair::from_seed(b"sigcache-b");
        let sig = kp.sign(b"message");
        let cache = SigCache::new();
        assert!(cache.verify(&kp.public, b"message", &sig));
        // Served from the memo; still true, no growth.
        assert!(cache.verify(&kp.public, b"message", &sig));
        assert_eq!(cache.len(), 1);
        // Distinct triples are distinct entries, with the right verdicts.
        assert!(!cache.verify(&other.public, b"message", &sig));
        assert!(!cache.verify(&kp.public, b"other message", &sig));
        assert!(!cache.verify(&kp.public, b"message", &other.sign(b"message")));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn clones_share_one_memo() {
        let kp = Keypair::from_seed(b"sigcache-c");
        let sig = kp.sign(b"shared");
        let cache = SigCache::new();
        let handle = cache.clone();
        assert!(cache.is_empty());
        assert_eq!(
            handle.verify_batch(&[BatchEntry {
                public_key: &kp.public,
                message: b"shared",
                signature: &sig,
            }]),
            [true]
        );
        assert_eq!(cache.len(), 1, "clone writes into the shared table");
        assert!(cache.verify(&kp.public, b"shared", &sig));
        assert_eq!(handle.len(), 1);
    }

    #[test]
    fn detached_verdicts_cross_threads_and_answer_again() {
        let (keys, messages, signatures) = signed(4, &[2]);
        let batch = entries(&keys, &messages, &signatures);
        let cache = SigCache::new();
        let handle = cache.clone();
        let expected = [true, true, false, true];
        assert_eq!(cache.verify_batch(&batch), expected);
        let verdicts = cache.into_verdicts();
        assert!(handle.is_empty(), "the table moved out, it was not copied");
        // A `SigCache` is an `Rc` and stays on its thread; its table does not.
        let worker = std::thread::spawn(move || verdicts);
        let verdicts = worker.join().expect("moving a table cannot panic");
        let received = SigCache::from(verdicts);
        assert_eq!(received.len(), 4);
        assert_eq!(received.verify_batch(&batch), expected);
        assert_eq!(received.len(), 4, "all four were hits, the `false` too");
    }

    /// `n` signers over distinct messages, with the signatures at `forged`
    /// made over a different message.
    fn signed(n: usize, forged: &[usize]) -> (Vec<Keypair>, Vec<Vec<u8>>, Vec<Signature>) {
        let keys: Vec<Keypair> = (0..n)
            .map(|i| Keypair::from_seed(format!("sigcache-batch-{i}").as_bytes()))
            .collect();
        let messages: Vec<Vec<u8>> = (0..n).map(|i| format!("echo {i}").into_bytes()).collect();
        let signatures = (0..n)
            .map(|i| {
                if forged.contains(&i) {
                    keys[i].sign(b"something else")
                } else {
                    keys[i].sign(&messages[i])
                }
            })
            .collect();
        (keys, messages, signatures)
    }

    fn entries<'a>(
        keys: &'a [Keypair],
        messages: &'a [Vec<u8>],
        signatures: &'a [Signature],
    ) -> Vec<BatchEntry<'a>> {
        (0..keys.len())
            .map(|i| BatchEntry {
                public_key: &keys[i].public,
                message: &messages[i],
                signature: &signatures[i],
            })
            .collect()
    }

    #[test]
    fn batch_verdicts_match_single_verification() {
        for forged in [&[][..], &[2], &[0, 5], &[0, 1, 2, 3, 4, 5]] {
            let (keys, messages, signatures) = signed(6, forged);
            let batch = entries(&keys, &messages, &signatures);
            let expected: Vec<bool> = (0..6).map(|i| !forged.contains(&i)).collect();
            let cache = SigCache::new();
            assert_eq!(cache.verify_batch(&batch), expected, "forged {forged:?}");
            assert_eq!(cache.len(), 6, "every verdict is memoized");
            // Each verdict is what `verify` says, from the memo or afresh.
            let fresh = SigCache::new();
            for (entry, ok) in batch.iter().zip(&expected) {
                let single =
                    |c: &SigCache| c.verify(entry.public_key, entry.message, entry.signature);
                assert_eq!(single(&cache), *ok);
                assert_eq!(single(&fresh), *ok);
            }
            assert_eq!(cache.len(), 6);
        }
        assert!(SigCache::new().verify_batch(&[]).is_empty());
    }

    #[test]
    fn batch_skips_what_the_memo_already_holds() {
        let (keys, messages, signatures) = signed(5, &[3]);
        let batch = entries(&keys, &messages, &signatures);
        let cache = SigCache::new();
        // Two verdicts, one of them `false`, are known before the batch.
        assert!(cache.verify(&keys[1].public, &messages[1], &signatures[1]));
        assert!(!cache.verify(&keys[3].public, &messages[3], &signatures[3]));
        assert_eq!(
            cache.verify_batch(&batch),
            [true, true, true, false, true],
            "the known forgery does not fail the batch of the rest"
        );
        assert_eq!(cache.len(), 5);
        // The same triple twice in one batch is two verdicts, one memo entry.
        let twice = [batch[0], batch[4], batch[0]];
        let fresh = SigCache::new();
        assert_eq!(fresh.verify_batch(&twice), [true, true, true]);
        assert_eq!(fresh.len(), 2);
    }

    /// What the memo saves, in exact counts: a hit is one lookup and nothing
    /// else — no SHA-256 key (five compressions per lookup before), no curve
    /// work — and a batch of hits is as many lookups.
    #[cfg(feature = "opcount")]
    #[test]
    fn memo_hits_cost_one_lookup_each() {
        use cycledger_crypto::opcount::{scope, Tally};
        let (keys, messages, signatures) = signed(4, &[1]);
        let batch = entries(&keys, &messages, &signatures);
        let cache = SigCache::new();
        let first = scope(|| cache.verify_batch(&batch));
        // One batch of four fails, so each is then checked singly.
        assert_eq!(
            (
                first.memo_lookups,
                first.sig_batches,
                first.sigs_batched,
                first.sigs_single
            ),
            (4, 1, 4, 4)
        );
        let hits = Tally {
            memo_lookups: 4,
            ..Tally::default()
        };
        assert_eq!(scope(|| cache.verify_batch(&batch)), hits);
        let one = scope(|| cache.verify(&keys[1].public, &messages[1], &signatures[1]));
        assert_eq!(
            one,
            Tally {
                memo_lookups: 1,
                ..Tally::default()
            }
        );
        // A batch of one unknown triple is a plain `verify`.
        let lone = scope(|| SigCache::new().verify_batch(&batch[..1]));
        assert_eq!(
            (lone.memo_lookups, lone.sig_batches, lone.sigs_single),
            (1, 0, 1)
        );
    }
}
