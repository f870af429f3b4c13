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
//!
//! **The memo owns its bytes, and lends its scratch.** A memoised message is
//! not a heap copy of its own: every message is appended to one byte buffer,
//! and the table holds `(offset, len, verdict)` slots into it, so a verdict
//! costs no allocation once `SigCache::reserve` has sized the table and the
//! buffer for the instance. The quorum batches of the instance's machines
//! ([`SigCache::verify_batch`], `SigCache::verify_signed`) work in buffers
//! that sit beside the table behind the memo's `Rc` — the signed bytes of the
//! batch, the memo's answers, the verdicts handed back — cleared and reused
//! by every batch, which is sound because every machine of an instance (and
//! the checker's explorer) runs on one thread. The buffers stay behind when
//! the table is detached; [`Verdicts`] is the table and its bytes alone.

use std::cell::{Ref, RefCell};
use std::collections::hash_map::Entry;
use std::rc::Rc;

use cycledger_crypto::fxhash::FxHashMap;
use cycledger_crypto::opcount::{count, Op};
use cycledger_crypto::schnorr::{batch_verify_each, verify, BatchEntry, PublicKey, Signature};

use crate::messages::CONFIRM_SIGNING_LEN;

/// A memo's table, detached from its handles: what one instance verified, as
/// a plain value that can sit in a task's result and cross to another thread
/// (a [`SigCache`] handle cannot — it is an `Rc`). It answers nothing by
/// itself; [`SigCache::from`] makes it a memo again.
///
/// Verdicts by `(key, signature)`, then by message.
#[derive(Clone, Debug, Default)]
pub struct Verdicts {
    /// The first verdict on each `(key, signature)`: a signature is as good
    /// as always checked against one message.
    first: FxHashMap<(PublicKey, Signature), Slot>,
    /// The verdicts on a `(key, signature)` under further messages — a
    /// signature replayed under another header — each chained from the slot
    /// before it. Empty, and unallocated, in an instance nobody replays in.
    replayed: Vec<Slot>,
    /// Every memoised message, back to back, in the order first verified.
    bytes: Vec<u8>,
}

/// One memoised verdict: its message is `bytes[offset..offset + len]`.
#[derive(Clone, Copy, Debug)]
struct Slot {
    offset: usize,
    len: usize,
    ok: bool,
    /// The next verdict on the same `(key, signature)`, in `replayed`.
    next: Option<usize>,
}

impl Slot {
    fn holds(&self, bytes: &[u8], message: &[u8]) -> bool {
        &bytes[self.offset..][..self.len] == message
    }
}

impl Verdicts {
    /// The verdict on `entry`, if one is in.
    fn find(&self, entry: &BatchEntry<'_>) -> Option<bool> {
        let mut slot = self.first.get(&(*entry.public_key, *entry.signature))?;
        while !slot.holds(&self.bytes, entry.message) {
            slot = &self.replayed[slot.next?];
        }
        Some(slot.ok)
    }

    /// Records `ok` for `entry` unless a verdict on it is already in — one
    /// batch may hold the same unknown triple twice.
    fn insert(&mut self, entry: &BatchEntry<'_>, ok: bool) {
        let slot = Slot {
            offset: self.bytes.len(),
            len: entry.message.len(),
            ok,
            next: None,
        };
        let mut last = match self.first.entry((*entry.public_key, *entry.signature)) {
            Entry::Vacant(vacant) => {
                vacant.insert(slot);
                self.bytes.extend_from_slice(entry.message);
                return;
            }
            Entry::Occupied(first) => first.into_mut(),
        };
        let index = self.replayed.len();
        while !last.holds(&self.bytes, entry.message) {
            let Some(next) = last.next else {
                last.next = Some(index);
                self.replayed.push(slot);
                self.bytes.extend_from_slice(entry.message);
                return;
            };
            last = &mut self.replayed[next];
        }
    }

    /// Number of verdicts held.
    fn len(&self) -> usize {
        self.first.len() + self.replayed.len()
    }
}

/// A memo's table and the buffers its batch checks reuse.
#[derive(Debug, Default)]
struct Memo {
    table: RefCell<Verdicts>,
    scratch: RefCell<Scratch>,
}

/// What one batch check works in; cleared, never shrunk, by the next.
#[derive(Debug, Default)]
struct Scratch {
    /// The signed bytes of a [`SigCache::verify_signed`] batch, back to back.
    messages: Vec<u8>,
    /// The memo's answer on each entry of the batch, before it is checked.
    known: Vec<Option<bool>>,
    /// The verdicts handed back, aligned with the batch.
    verdicts: Vec<bool>,
}

/// A cloneable handle to one instance's verification memo.
///
/// Handles are reference-counted (`Rc`): the driver creates one cache per
/// Algorithm 3 instance and hands a clone to every member/leader state
/// machine, which all run on the same worker thread. The default handle owns
/// a fresh private memo, so state machines used standalone behave exactly as
/// before.
#[derive(Clone, Debug, Default)]
pub struct SigCache {
    memo: Rc<Memo>,
}

impl From<Verdicts> for SigCache {
    /// A memo that already knows `verdicts`.
    fn from(verdicts: Verdicts) -> SigCache {
        SigCache {
            memo: Rc::new(Memo {
                table: RefCell::new(verdicts),
                scratch: RefCell::default(),
            }),
        }
    }
}

impl SigCache {
    /// Creates an empty memo.
    pub fn new() -> SigCache {
        SigCache::default()
    }

    /// Makes room for `verdicts` more verdicts and for batches of up to
    /// `batch` Algorithm 3 signatures, so that an instance filling them
    /// allocates nothing more.
    pub(crate) fn reserve(&self, verdicts: usize, batch: usize) {
        let mut table = self.memo.table.borrow_mut();
        table.first.reserve(verdicts);
        table.bytes.reserve(verdicts * CONFIRM_SIGNING_LEN);
        let mut scratch = self.memo.scratch.borrow_mut();
        scratch.messages.reserve(batch * CONFIRM_SIGNING_LEN);
        scratch.known.reserve(batch);
        scratch.verdicts.reserve(batch);
    }

    /// Moves the table out of the memo — the table itself, no copy. Handles
    /// still alive share an empty memo from here on, which costs them
    /// verifications, never a verdict.
    pub fn into_verdicts(self) -> Verdicts {
        self.memo.table.take()
    }

    /// The verdict on `entry`, if the memo holds one.
    pub(crate) fn lookup(&self, entry: &BatchEntry<'_>) -> Option<bool> {
        count(Op::MemoLookup);
        self.memo.table.borrow().find(entry)
    }

    /// Checks a triple the memo lacks and records the verdict.
    fn verify_unknown(&self, entry: &BatchEntry<'_>) -> bool {
        let ok = verify(entry.public_key, entry.message, entry.signature);
        self.memoize(entry, ok);
        ok
    }

    fn memoize(&self, entry: &BatchEntry<'_>, ok: bool) {
        self.memo.table.borrow_mut().insert(entry, ok);
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
    /// answered from it, the rest go through a single
    /// [`batch_verify`](cycledger_crypto::schnorr::batch_verify) (a lone one
    /// through [`verify`]), and only if that batch fails is each of them
    /// checked on its own, to tell the forged from the valid. Every verdict
    /// is memoized.
    ///
    /// The verdicts are lent from the memo's scratch: drop them before the
    /// next batch of this memo.
    pub fn verify_batch(&self, entries: &[BatchEntry<'_>]) -> Ref<'_, [bool]> {
        {
            let mut scratch = self.memo.scratch.borrow_mut();
            let Scratch {
                known, verdicts, ..
            } = &mut *scratch;
            self.check(entries.iter().copied(), known, verdicts);
        }
        self.verdicts()
    }

    /// [`Self::verify_batch`] over signatures whose `N`-byte messages are
    /// made on the spot — a quorum's ECHOes or CONFIRMs: `signers` gives each
    /// entry's key and signature, `signed` its message, in the same order.
    /// The messages are kept in the memo's scratch for the check, so a batch
    /// allocates nothing once the instance's first has sized the buffers.
    pub(crate) fn verify_signed<'e, const N: usize>(
        &self,
        signers: impl Iterator<Item = (&'e PublicKey, &'e Signature)> + Clone,
        signed: impl Iterator<Item = [u8; N]>,
    ) -> Ref<'_, [bool]> {
        {
            let mut scratch = self.memo.scratch.borrow_mut();
            let Scratch {
                messages,
                known,
                verdicts,
            } = &mut *scratch;
            messages.clear();
            signed.for_each(|message| messages.extend_from_slice(&message));
            let entries =
                signers
                    .zip(messages.chunks_exact(N))
                    .map(|((public_key, signature), message)| BatchEntry {
                        public_key,
                        message,
                        signature,
                    });
            self.check(entries, known, verdicts);
        }
        self.verdicts()
    }

    fn verdicts(&self) -> Ref<'_, [bool]> {
        Ref::map(self.memo.scratch.borrow(), |scratch| &scratch.verdicts[..])
    }

    /// The batch check behind both front doors: `known` takes the memo's
    /// answers, `verdicts` the result.
    fn check<'e>(
        &self,
        entries: impl Iterator<Item = BatchEntry<'e>> + Clone,
        known: &mut Vec<Option<bool>>,
        verdicts: &mut Vec<bool>,
    ) {
        known.clear();
        known.extend(entries.clone().map(|entry| self.lookup(&entry)));
        let unknown = entries.clone().zip(known.iter());
        let unknown = unknown.filter_map(|(entry, verdict)| verdict.is_none().then_some(entry));
        let all_valid = unknown.clone().nth(1).is_some() && batch_verify_each(unknown);
        verdicts.clear();
        verdicts.extend(entries.zip(known.iter()).map(|(entry, verdict)| {
            verdict.unwrap_or_else(|| {
                if all_valid {
                    self.memoize(&entry, true);
                    true
                } else {
                    self.verify_unknown(&entry)
                }
            })
        }));
    }

    /// Number of distinct verifications performed so far.
    pub fn len(&self) -> usize {
        self.memo.table.borrow().len()
    }

    /// True if no verification has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    fn a_signature_replayed_under_many_messages_keeps_every_verdict() {
        let kp = Keypair::from_seed(b"sigcache-replay");
        let sig = kp.sign(b"the signed one");
        let cache = SigCache::new();
        let replays: Vec<Vec<u8>> = (0..5).map(|i| format!("replay {i}").into_bytes()).collect();
        // The valid triple lands in the middle of the chain.
        for (i, message) in replays.iter().enumerate() {
            assert!(!cache.verify(&kp.public, message, &sig));
            if i == 2 {
                assert!(cache.verify(&kp.public, b"the signed one", &sig));
            }
        }
        assert_eq!(cache.len(), 6);
        let verdicts = cache.into_verdicts();
        assert_eq!((verdicts.first.len(), verdicts.replayed.len()), (1, 5));
        let cache = SigCache::from(verdicts);
        for message in &replays {
            assert!(!cache.verify(&kp.public, message, &sig));
        }
        assert!(cache.verify(&kp.public, b"the signed one", &sig));
        assert_eq!(cache.len(), 6, "every one was a hit");
    }

    #[test]
    fn clones_share_one_memo() {
        let kp = Keypair::from_seed(b"sigcache-c");
        let sig = kp.sign(b"shared");
        let cache = SigCache::new();
        let handle = cache.clone();
        assert!(cache.is_empty());
        let entry = BatchEntry {
            public_key: &kp.public,
            message: b"shared",
            signature: &sig,
        };
        assert_eq!(*handle.verify_batch(&[entry]), [true]);
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
        assert_eq!(*cache.verify_batch(&batch), expected);
        let verdicts = cache.into_verdicts();
        assert!(handle.is_empty(), "the table moved out, it was not copied");
        // A `SigCache` is an `Rc` and stays on its thread; its table does not.
        let worker = std::thread::spawn(move || verdicts);
        let verdicts = worker.join().expect("moving a table cannot panic");
        let received = SigCache::from(verdicts);
        assert_eq!(received.len(), 4);
        assert_eq!(*received.verify_batch(&batch), expected);
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
            assert_eq!(*cache.verify_batch(&batch), expected, "forged {forged:?}");
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
    fn made_messages_are_checked_as_their_entries() {
        let (keys, messages, signatures) = signed(5, &[1, 3]);
        let made = messages
            .iter()
            .map(|m| <[u8; 6]>::try_from(&m[..]).unwrap());
        let signers = keys.iter().map(|k| &k.public).zip(&signatures);
        let expected = [true, false, true, false, true];
        let cache = SigCache::new();
        assert_eq!(*cache.verify_signed(signers, made), expected);
        assert_eq!(cache.len(), 5);
        // The memo holds the very triples the entries name.
        let batch = entries(&keys, &messages, &signatures);
        assert_eq!(*cache.verify_batch(&batch), expected);
        assert_eq!(cache.len(), 5, "all five were hits");
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
            *cache.verify_batch(&batch),
            [true, true, true, false, true],
            "the known forgery does not fail the batch of the rest"
        );
        assert_eq!(cache.len(), 5);
        // The same triple twice in one batch is two verdicts, one memo entry.
        let twice = [batch[0], batch[4], batch[0]];
        let fresh = SigCache::new();
        assert_eq!(*fresh.verify_batch(&twice), [true, true, true]);
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
        let first = scope(|| drop(cache.verify_batch(&batch)));
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
        assert_eq!(scope(|| drop(cache.verify_batch(&batch))), hits);
        let one = scope(|| cache.verify(&keys[1].public, &messages[1], &signatures[1]));
        assert_eq!(
            one,
            Tally {
                memo_lookups: 1,
                ..Tally::default()
            }
        );
        // A batch of one unknown triple is a plain `verify`.
        let lone = scope(|| drop(SigCache::new().verify_batch(&batch[..1])));
        assert_eq!(
            (lone.memo_lookups, lone.sig_batches, lone.sigs_single),
            (1, 0, 1)
        );
    }
}
