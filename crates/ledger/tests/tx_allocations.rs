//! A transaction is resident once: building one allocates its body and
//! nothing else — the digest is streamed from the fields, no encoding is
//! kept — and exact-capacity vectors become the body's slices without a
//! reallocation. A clone is a reference-count bump. The binary installs the
//! counting allocator, whose counters are global, so it holds this one test
//! alone.

use cycledger_crypto::sha256::hash_parts;
use cycledger_ledger::transaction::{AccountId, OutPoint, Transaction, TxInput, TxOutput};

#[global_allocator]
static ALLOC: alloccount::CountingAllocator = alloccount::CountingAllocator;

#[test]
fn a_payment_allocates_its_body_once_and_a_clone_allocates_nothing() {
    assert!(alloccount::counting_enabled());
    let input = TxInput {
        outpoint: OutPoint {
            tx_id: hash_parts(&[b"tx-allocations"]),
            index: 1,
        },
        owner: AccountId(3),
        amount: 100,
    };
    let output = |owner, amount| TxOutput {
        owner: AccountId(owner),
        amount,
    };

    let before = alloccount::snapshot();
    let inputs = vec![input];
    let outputs = vec![output(4, 60), output(3, 39)];
    let vectors = alloccount::snapshot().since(&before);
    let tx = Transaction::new(inputs, outputs, 9);
    let built = alloccount::snapshot().since(&before);
    // The two vectors: one 56-byte input, two 16-byte outputs.
    assert_eq!((vectors.allocations, vectors.allocated_bytes), (2, 56 + 32));
    // Then the body alone: reference counts, two boxed slices, the nonce and
    // the id — 88 bytes, no encoding, no reallocation.
    let body = built.since(&vectors);
    assert_eq!(
        (body.allocations, body.allocated_bytes),
        (1, 88),
        "{body:?}"
    );
    assert_eq!(built.reallocations, 0, "{built:?}");

    let before = alloccount::snapshot();
    let clone = tx.clone();
    assert_eq!(alloccount::snapshot().since(&before), Default::default());
    assert_eq!(clone, tx);
    assert_eq!(tx.wire_size(), 16 + 52 + 2 * 16);
}
