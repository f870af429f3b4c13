//! A steady round's sparse-Merkle commit reuses the fold's buffers: after
//! one warm-up commit, a churn commit of the same size makes no fresh
//! allocation. What may still grow — the free lists and the per-round root
//! log, by amortised doubling — reallocates at most twice a commit. The
//! binary installs the counting allocator, whose counters are global, so it
//! holds this one test alone.

use cycledger_crypto::sha256::hash_parts;
use cycledger_ledger::smt::SmtStore;
use cycledger_ledger::transaction::{AccountId, OutPoint, TxOutput};

#[global_allocator]
static ALLOC: alloccount::CountingAllocator = alloccount::CountingAllocator;

fn op(n: u64) -> OutPoint {
    OutPoint {
        tx_id: hash_parts(&[b"smt-allocations", &n.to_be_bytes()]),
        index: (n % 3) as u32,
    }
}

fn out(n: u64) -> TxOutput {
    TxOutput {
        owner: AccountId(n),
        amount: 100 + n,
    }
}

#[test]
fn a_churn_commit_after_one_warm_up_makes_no_fresh_allocation() {
    assert!(alloccount::counting_enabled());
    const LIVE: u64 = 20_000;
    const CHURN: u64 = 2_000;
    let mut store = SmtStore::with_capacity(LIVE as usize);
    for n in 0..LIVE {
        store.insert(op(n), out(n));
    }
    store.commit_genesis();
    // Spends the `CHURN` oldest entries and credits as many fresh ones.
    let (mut oldest, mut next) = (0, LIVE);
    let mut churn = |store: &mut SmtStore| {
        for _ in 0..CHURN {
            store.remove(&op(oldest));
            store.insert(op(next), out(next));
            oldest += 1;
            next += 1;
        }
    };
    churn(&mut store);
    store.commit(1);
    let mut grown = 0;
    for round in 2..30 {
        churn(&mut store);
        let before = alloccount::snapshot();
        store.commit(round);
        let spent = alloccount::snapshot().since(&before);
        assert!(
            spent.allocations == 0 && spent.reallocations <= 2,
            "commit {round}: {spent:?}"
        );
        grown += spent.allocated_bytes;
    }
    // Before the fold kept its buffers, each of these commits allocated
    // ≈ 1.8 MB in ≈ 210 calls.
    assert!(grown <= 128 << 10, "{grown} bytes grown over 28 commits");
}
