//! Deterministic transaction workload generation.
//!
//! The paper assumes "a large set of transactions are continuously sent to our
//! network by external users" (§III-D) with users spread uniformly over the `m`
//! shards. This module plays the role of those external users: it mints a genesis
//! UTXO per account, then produces batches of payments with a configurable
//! cross-shard ratio and a configurable fraction of deliberately invalid
//! transactions (which the committees must vote *No* on). Everything is derived
//! from a seed so protocol runs and benchmarks are reproducible.
//!
//! The users are not on the round's critical path: the generator's HMAC-DRBG
//! stream is computed ahead on a helper thread the workload owns
//! (`DrawAhead`), and the caller only consumes the values, in stream order.
//! Every transaction is the one a generator drawing on the caller's thread
//! would build.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use cycledger_crypto::hmac::{below, HmacDrbg};

use crate::store::StateBackend;
use crate::transaction::{
    AccountId, OutPoint, Routing, ShardTable, Transaction, TxId, TxInput, TxOutput,
};
use crate::utxo::UtxoSet;

/// Workload configuration.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Number of shards `m`.
    pub num_shards: usize,
    /// Accounts minted per shard at genesis.
    pub accounts_per_shard: usize,
    /// Value of each genesis UTXO.
    pub genesis_amount: u64,
    /// Fraction of generated transactions that pay into a *different* shard
    /// (cross-shard transactions requiring inter-committee consensus).
    pub cross_shard_ratio: f64,
    /// Fraction of generated transactions that are deliberately invalid.
    pub invalid_ratio: f64,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_shards: 4,
            accounts_per_shard: 64,
            genesis_amount: 1_000,
            cross_shard_ratio: 0.2,
            invalid_ratio: 0.05,
            seed: 1,
        }
    }
}

/// Classification of a generated transaction, returned alongside it so tests
/// and benches can check protocol decisions against ground truth.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxKind {
    /// Valid, all inputs and outputs in one shard.
    IntraShard,
    /// Valid, touches more than one shard.
    CrossShard,
    /// Invalid: spends an outpoint that does not exist.
    InvalidMissingInput,
    /// Invalid: outputs exceed inputs.
    InvalidValueCreated,
}

impl TxKind {
    /// True for the two valid kinds.
    pub fn is_valid(self) -> bool {
        matches!(self, TxKind::IntraShard | TxKind::CrossShard)
    }
}

/// A generated transaction with its ground-truth classification.
#[derive(Clone, Debug)]
pub struct GeneratedTx {
    /// The transaction.
    pub tx: Transaction,
    /// What the generator intended it to be.
    pub kind: TxKind,
}

/// Most values the helper sends in one message. A request is answered in
/// pieces, so the workload starts on the first while the rest are drawn, and
/// a workload dropped mid-request stops its helper within one piece (about
/// 4 000 SHA-256 compressions).
const PIECE: usize = 512;

/// The workload's HMAC-DRBG stream, drawn ahead on a helper thread.
///
/// The helper owns the generator and answers a request for `n` values with
/// the next `n` values of [`HmacDrbg::next_u64`]; the workload consumes them
/// in the order they were drawn, so it reads the generator's stream exactly.
/// How far ahead is measured, not fixed: [`DrawAhead::refill`] asks for as
/// many values as were drawn since the last refill (one batch's worth), and
/// a batch that needs more asks again and waits. A dropped workload has
/// wasted at most one batch of draws.
struct DrawAhead {
    /// Requests to the helper and the pieces it sends back; `None` once
    /// the workload is dropped.
    channel: Option<(Sender<usize>, Receiver<Vec<u64>>)>,
    helper: Option<JoinHandle<()>>,
    /// The piece being consumed.
    piece: std::vec::IntoIter<u64>,
    /// Values requested and not yet received.
    in_flight: usize,
    /// Values consumed since the last refill.
    drawn: usize,
}

impl DrawAhead {
    fn spawn(mut drbg: HmacDrbg) -> DrawAhead {
        let (requests, requested) = channel::<usize>();
        let (pieces, received) = channel::<Vec<u64>>();
        let helper = std::thread::Builder::new()
            .name("cycledger-workload-drbg".into())
            .spawn(move || {
                for mut n in requested {
                    while n > 0 {
                        let len = n.min(PIECE);
                        let piece = (0..len).map(|_| drbg.next_u64()).collect();
                        if pieces.send(piece).is_err() {
                            return; // The workload is gone.
                        }
                        n -= len;
                    }
                }
            })
            .expect("spawning the workload's DRBG thread");
        DrawAhead {
            channel: Some((requests, received)),
            helper: Some(helper),
            piece: Vec::new().into_iter(),
            in_flight: 0,
            drawn: 0,
        }
    }

    fn channel(&self) -> &(Sender<usize>, Receiver<Vec<u64>>) {
        self.channel.as_ref().expect("open until dropped")
    }

    fn request(&mut self, n: usize) {
        self.channel()
            .0
            .send(n)
            .expect("the workload's DRBG thread ended");
        self.in_flight += n;
    }

    /// The next `u64` of the stream.
    fn next_u64(&mut self) -> u64 {
        self.drawn += 1;
        if let Some(v) = self.piece.next() {
            return v;
        }
        if self.in_flight == 0 {
            // Demand outran the last refill: ask for as many again as have
            // been drawn since, and wait for the first piece.
            self.request(self.drawn.max(PIECE));
        }
        let piece = self
            .channel()
            .1
            .recv()
            .expect("the workload's DRBG thread ended");
        self.in_flight -= piece.len();
        self.piece = piece.into_iter();
        self.piece.next().expect("a piece is never empty")
    }

    /// Tops what is buffered or on its way up to the number of values drawn
    /// since the last refill, and starts counting again.
    fn refill(&mut self) {
        let ahead = self.piece.len() + self.in_flight;
        if self.drawn > ahead {
            self.request(self.drawn - ahead);
        }
        self.drawn = 0;
    }
}

impl Drop for DrawAhead {
    fn drop(&mut self) {
        // Closing both channels ends the helper: an idle one leaves its
        // request loop, a busy one fails its next send.
        self.channel = None;
        if let Some(helper) = self.helper.take() {
            let _ = helper.join();
        }
    }
}

/// The workload generator.
///
/// Outputs created by generated transactions are *not* immediately spendable:
/// they sit in a pending pool until [`Workload::confirm_pending`] (or its
/// packed-aware sibling [`Workload::confirm_packed`]) is called — the
/// simulation does so once the round's block has been applied. This mirrors
/// real external users — they only spend confirmed UTXOs — and keeps every
/// transaction within one batch independently valid against the
/// beginning-of-round UTXO state.
pub struct Workload {
    config: WorkloadConfig,
    /// Spendable (confirmed) UTXOs per shard, from the generator's view.
    pools: Vec<Vec<(OutPoint, TxOutput)>>,
    /// Generated-but-not-yet-confirmed payments. Each spent exactly one
    /// pool entry, its one input, and creates its outputs if it confirms.
    pending: Vec<Transaction>,
    /// Accounts grouped by shard.
    accounts_by_shard: Vec<Vec<AccountId>>,
    /// The shard of every account id the genesis walk hashed.
    routes: ShardTable,
    stream: DrawAhead,
    nonce: u64,
    genesis: Vec<Transaction>,
}

impl Workload {
    /// Builds a workload: mints genesis UTXOs and groups accounts by shard.
    pub fn new(config: WorkloadConfig) -> Workload {
        // Up to 2^16 shards: the routing table keeps a `u16` an account.
        assert!(config.num_shards > 0 && config.num_shards <= 1 << 16);
        assert!(
            config.accounts_per_shard > 1,
            "need at least two accounts per shard"
        );
        assert!((0.0..=1.0).contains(&config.cross_shard_ratio));
        assert!((0.0..=1.0).contains(&config.invalid_ratio));
        let m = config.num_shards;
        let mut accounts_by_shard: Vec<Vec<AccountId>> = vec![Vec::new(); m];
        // Walk account ids until every shard has its quota; the hash-based shard
        // assignment means ids are spread roughly uniformly. Each id's shard
        // is kept: the run routes by the table.
        let mut shards = Vec::new();
        while accounts_by_shard
            .iter()
            .any(|s| s.len() < config.accounts_per_shard)
        {
            let account = AccountId(shards.len() as u64);
            let shard = account.shard(m);
            shards.push(shard as u16);
            if accounts_by_shard[shard].len() < config.accounts_per_shard {
                accounts_by_shard[shard].push(account);
            }
        }
        let shards = shards.into();
        let routes = ShardTable { m, shards };
        let mut pools: Vec<Vec<(OutPoint, TxOutput)>> = vec![Vec::new(); m];
        let mut genesis = Vec::new();
        for shard_accounts in &accounts_by_shard {
            let outputs: Vec<TxOutput> = shard_accounts
                .iter()
                .map(|&owner| TxOutput {
                    owner,
                    amount: config.genesis_amount,
                })
                .collect();
            let tx = Transaction::genesis(outputs, genesis.len() as u64);
            for (outpoint, output) in tx.created_utxos() {
                pools[routes.shard_of(output.owner)].push((outpoint, output));
            }
            genesis.push(tx);
        }
        Workload {
            stream: DrawAhead::spawn(HmacDrbg::from_parts(
                "cycledger/workload",
                &[&config.seed.to_be_bytes()],
            )),
            config,
            pools,
            pending: Vec::new(),
            accounts_by_shard,
            routes,
            nonce: 0,
            genesis,
        }
    }

    /// Makes the outputs of previously generated transactions spendable again.
    ///
    /// Call this after the round's block has been applied (the simulation does
    /// so automatically); until then, generated transactions never spend each
    /// other's outputs, so every batch is independently valid against the
    /// beginning-of-round UTXO state.
    ///
    /// This is the *optimistic* form: every pending transaction is assumed to
    /// have landed in a block, which holds only for a driver that applies
    /// everything it generates (the ledger probes and unit tests). A driver
    /// whose rounds can leave transactions out — the protocol simulation,
    /// always — uses [`Workload::confirm_packed`] instead.
    pub fn confirm_pending(&mut self) {
        self.confirm_packed(|_| true);
    }

    /// Confirms exactly the pending transactions for which `packed` returns
    /// true: their outputs become spendable. The rest *expired unconfirmed* —
    /// their consumed inputs return to the pool (on chain those coins were
    /// never spent, so the user simply respends them later), and their
    /// outputs never existed. Keeps the generator's UTXO view consistent
    /// with the chain when partitions or timeouts keep transactions out of
    /// blocks.
    pub fn confirm_packed(&mut self, packed: impl Fn(&TxId) -> bool) {
        let routes = &self.routes;
        for tx in self.pending.drain(..) {
            let id = tx.id();
            if packed(&id) {
                for (index, &output) in tx.outputs().iter().enumerate() {
                    let outpoint = OutPoint {
                        tx_id: id,
                        index: index as u32,
                    };
                    self.pools[routes.shard_of(output.owner)].push((outpoint, output));
                }
            } else {
                let input = tx.inputs()[0];
                let output = TxOutput {
                    owner: input.owner,
                    amount: input.amount,
                };
                self.pools[routes.shard_of(input.owner)].push((input.outpoint, output));
            }
        }
    }

    /// Number of outputs currently awaiting confirmation.
    pub fn pending_outputs(&self) -> usize {
        self.pending.iter().map(|tx| tx.outputs().len()).sum()
    }

    /// The configuration in use.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Builds fresh per-shard UTXO sets seeded with the genesis outputs.
    pub fn build_genesis_utxo_sets(&self) -> Vec<UtxoSet> {
        self.build_genesis_utxo_sets_with(StateBackend::Map)
    }

    /// Builds fresh per-shard UTXO sets on the chosen state backend: the
    /// [`Workload::genesis_builders`] run in shard order on the calling
    /// thread.
    pub fn build_genesis_utxo_sets_with(&self, backend: StateBackend) -> Vec<UtxoSet> {
        self.genesis_builders(backend)
            .map(|build| build())
            .collect()
    }

    /// One builder a shard, in shard order: each makes that shard's
    /// [`UtxoSet::genesis`] from its own genesis transaction and reads
    /// nothing else of the workload, so the simulation runs them as one
    /// executor task a shard (the workload itself is not `Sync`: its
    /// draw-ahead stream holds a `Receiver`).
    pub fn genesis_builders(
        &self,
        backend: StateBackend,
    ) -> impl Iterator<Item = impl FnOnce() -> UtxoSet + Send + '_> + '_ {
        let (genesis, routes) = (self.genesis_transactions().iter().enumerate(), &self.routes);
        genesis.map(move |(shard, tx)| move || UtxoSet::genesis(shard, routes.clone(), backend, tx))
    }

    /// The genesis transactions, one per shard in shard order: shard `s`'s
    /// mints one output per account of `s` and nothing for another shard.
    pub fn genesis_transactions(&self) -> &[Transaction] {
        &self.genesis
    }

    fn next_nonce(&mut self) -> u64 {
        self.nonce += 1;
        self.nonce
    }

    /// A uniform draw in `[0, bound)` from the stream.
    fn next_below(&mut self, bound: u64) -> u64 {
        below(bound, || self.stream.next_u64())
    }

    fn pick_account(&mut self, shard: usize) -> AccountId {
        let k = self.next_below(self.accounts_by_shard[shard].len() as u64);
        self.accounts_by_shard[shard][k as usize]
    }

    /// One draw over the number of non-empty pools, then a walk to the
    /// k-th of them.
    fn pick_nonempty_shard(&mut self) -> Option<usize> {
        let nonempty = self.pools.iter().filter(|p| !p.is_empty()).count();
        if nonempty == 0 {
            return None;
        }
        let k = self.next_below(nonempty as u64) as usize;
        (0..self.pools.len())
            .filter(|&s| !self.pools[s].is_empty())
            .nth(k)
    }

    /// Generates one transaction, updating the generator's internal UTXO view so
    /// that later valid transactions never double-spend earlier ones.
    pub fn generate(&mut self) -> Option<GeneratedTx> {
        let roll_invalid =
            (self.next_below(1_000_000) as f64) / 1_000_000.0 < self.config.invalid_ratio;
        let roll_cross =
            (self.next_below(1_000_000) as f64) / 1_000_000.0 < self.config.cross_shard_ratio;
        let m = self.config.num_shards;

        let src_shard = self.pick_nonempty_shard()?;
        let pool_len = self.pools[src_shard].len() as u64;
        let pick = self.next_below(pool_len) as usize;
        let nonce = self.next_nonce();

        if roll_invalid {
            // Alternate between the two invalid flavours.
            let (outpoint, output) = self.pools[src_shard][pick];
            if nonce.is_multiple_of(2) {
                // Missing input: reference an outpoint that was never created.
                let ghost = OutPoint {
                    tx_id: cycledger_crypto::sha256::hash_parts(&[b"ghost", &nonce.to_be_bytes()]),
                    index: 0,
                };
                let to = self.pick_account(src_shard);
                let tx = Transaction::new(
                    vec![TxInput {
                        outpoint: ghost,
                        owner: output.owner,
                        amount: output.amount,
                    }],
                    vec![TxOutput {
                        owner: to,
                        amount: output.amount - 1,
                    }],
                    nonce,
                );
                return Some(GeneratedTx {
                    tx,
                    kind: TxKind::InvalidMissingInput,
                });
            }
            // Value creation: outputs exceed the (real) input.
            let to = self.pick_account(src_shard);
            let tx = Transaction::new(
                vec![TxInput {
                    outpoint,
                    owner: output.owner,
                    amount: output.amount,
                }],
                vec![TxOutput {
                    owner: to,
                    amount: output.amount + 10,
                }],
                nonce,
            );
            return Some(GeneratedTx {
                tx,
                kind: TxKind::InvalidValueCreated,
            });
        }

        // Valid payment: consume the chosen UTXO (so it cannot be reused) and pay
        // most of it to the destination, returning change to the sender minus fee.
        let (outpoint, output) = self.pools[src_shard].swap_remove(pick);
        let dst_shard = if roll_cross && m > 1 {
            let mut s = self.next_below(m as u64) as usize;
            if s == src_shard {
                s = (s + 1) % m;
            }
            s
        } else {
            src_shard
        };
        let to = self.pick_account(dst_shard);
        let fee = 1.min(output.amount.saturating_sub(1));
        let pay = (output.amount - fee) / 2 + 1;
        let change = output.amount - fee - pay;
        let paid = TxOutput {
            owner: to,
            amount: pay,
        };
        // Exact capacity: the body keeps the vector as a boxed slice.
        let outputs = if change > 0 {
            vec![
                paid,
                TxOutput {
                    owner: output.owner,
                    amount: change,
                },
            ]
        } else {
            vec![paid]
        };
        let tx = Transaction::new(
            vec![TxInput {
                outpoint,
                owner: output.owner,
                amount: output.amount,
            }],
            outputs,
            nonce,
        );
        // New outputs become spendable only after confirm_pending() /
        // confirm_packed() (i.e. after the block that contains this
        // transaction has been applied).
        self.pending.push(tx.clone());
        let kind = if dst_shard == src_shard {
            TxKind::IntraShard
        } else {
            TxKind::CrossShard
        };
        // The input and the change come from `src_shard`'s pool, the payee
        // from `dst_shard`'s accounts: the kind holds by construction.
        debug_assert_eq!(kind == TxKind::IntraShard, tx.is_intra_shard(&self.routes));
        Some(GeneratedTx { tx, kind })
    }

    /// Generates a batch of `count` transactions (possibly fewer if the UTXO
    /// pools run dry, which only happens with pathological configurations),
    /// then asks the stream's helper to draw as many values ahead as the
    /// batch took.
    pub fn generate_batch(&mut self, count: usize) -> Vec<GeneratedTx> {
        let mut batch = Vec::with_capacity(count);
        batch.extend((0..count).filter_map(|_| self.generate()));
        self.stream.refill();
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utxo::validate_across_shards;
    use proptest::prelude::*;

    fn config(cross: f64, invalid: f64) -> WorkloadConfig {
        WorkloadConfig {
            num_shards: 4,
            accounts_per_shard: 16,
            genesis_amount: 1_000,
            cross_shard_ratio: cross,
            invalid_ratio: invalid,
            seed: 7,
        }
    }

    /// The table a workload routes by is the hash: for every id its genesis
    /// walk reached, and for an id past it, which routes by the hash itself.
    #[test]
    fn the_shard_table_is_the_hash_of_every_id() {
        for (m, accounts_per_shard) in [(1, 2), (2, 1_000), (3, 77), (8, 96), (16, 5)] {
            let wl = Workload::new(WorkloadConfig {
                num_shards: m,
                accounts_per_shard,
                ..config(0.2, 0.0)
            });
            let (routes, len) = (&wl.routes, wl.routes.shards.len());
            assert!(
                len >= m * accounts_per_shard,
                "(m, n) = ({m}, {accounts_per_shard})"
            );
            assert_eq!(routes.shard_count(), m);
            for id in 0..len as u64 + 64 {
                let account = AccountId(id);
                assert_eq!(
                    routes.shard_of(account),
                    account.shard(m),
                    "m = {m}, id {id}"
                );
            }
            let last = AccountId(u64::MAX);
            assert_eq!(routes.shard_of(last), last.shard(m));
        }
    }

    #[test]
    fn genesis_covers_every_shard() {
        let wl = Workload::new(config(0.2, 0.0));
        let sets = wl.build_genesis_utxo_sets();
        assert_eq!(sets.len(), 4);
        for set in &sets {
            assert_eq!(set.len(), 16);
            assert_eq!(set.total_value(), 16_000);
        }
    }

    #[test]
    fn valid_transactions_actually_validate() {
        let mut wl = Workload::new(config(0.3, 0.0));
        let mut sets = wl.build_genesis_utxo_sets();
        for _ in 0..3 {
            let batch = wl.generate_batch(50);
            assert_eq!(batch.len(), 50);
            for gen in &batch {
                assert!(gen.kind.is_valid());
                // Every transaction in a batch is valid against the
                // beginning-of-round state (no intra-batch chaining).
                assert_eq!(
                    validate_across_shards(&gen.tx, &sets),
                    Ok(()),
                    "generated valid tx must pass V"
                );
            }
            for gen in &batch {
                for set in sets.iter_mut() {
                    set.apply(&gen.tx);
                }
            }
            wl.confirm_pending();
        }
        assert_eq!(wl.pending_outputs(), 0);
    }

    #[test]
    fn packed_aware_confirmation_keeps_the_generator_consistent_with_the_chain() {
        // Half the batch "lands in the block", half expires unconfirmed
        // (e.g. a partition kept its committee from certifying). Later
        // batches must still be fully valid against the chain state: packed
        // outputs are spendable, expired transactions' inputs are respent.
        let mut wl = Workload::new(config(0.2, 0.0));
        let mut sets = wl.build_genesis_utxo_sets();
        let batch = wl.generate_batch(40);
        let packed: std::collections::HashSet<TxId> = batch
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(_, gen)| gen.tx.id())
            .collect();
        for gen in &batch {
            if packed.contains(&gen.tx.id()) {
                for set in sets.iter_mut() {
                    set.apply(&gen.tx);
                }
            }
        }
        wl.confirm_packed(|id| packed.contains(id));
        assert_eq!(wl.pending_outputs(), 0);
        let next = wl.generate_batch(40);
        assert_eq!(next.len(), 40, "expired inputs return to the pool");
        for gen in &next {
            assert_eq!(
                validate_across_shards(&gen.tx, &sets),
                Ok(()),
                "post-expiry batch must validate against the real chain state"
            );
        }
    }

    #[test]
    fn invalid_transactions_fail_validation() {
        let mut wl = Workload::new(config(0.2, 1.0));
        let sets = wl.build_genesis_utxo_sets();
        let batch = wl.generate_batch(50);
        for gen in &batch {
            assert!(!gen.kind.is_valid());
            assert!(
                validate_across_shards(&gen.tx, &sets).is_err(),
                "generated invalid tx must fail V: {:?}",
                gen.kind
            );
        }
    }

    #[test]
    fn cross_shard_ratio_is_respected_approximately() {
        let mut wl = Workload::new(config(0.5, 0.0));
        let mut all = Vec::new();
        for _ in 0..10 {
            all.extend(wl.generate_batch(50));
            wl.confirm_pending();
        }
        let cross = all.iter().filter(|g| g.kind == TxKind::CrossShard).count();
        let ratio = cross as f64 / all.len() as f64;
        assert!(
            (0.35..=0.65).contains(&ratio),
            "cross-shard ratio {ratio} too far from 0.5"
        );
    }

    #[test]
    fn zero_cross_ratio_generates_only_intra() {
        let mut wl = Workload::new(config(0.0, 0.0));
        let mut all = Vec::new();
        for _ in 0..4 {
            all.extend(wl.generate_batch(50));
            wl.confirm_pending();
        }
        assert!(all.iter().all(|g| g.kind == TxKind::IntraShard));
        // And all of them really touch a single shard.
        assert!(all.iter().all(|g| g.tx.is_intra_shard(4)));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let ids = |seed| {
            let mut cfg = config(0.4, 0.1);
            cfg.seed = seed;
            let mut wl = Workload::new(cfg);
            wl.generate_batch(50)
                .iter()
                .map(|g| g.tx.id())
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(1), ids(1));
        assert_ne!(ids(1), ids(2));
    }

    #[test]
    fn conservation_of_value_over_many_batches() {
        let mut wl = Workload::new(config(0.3, 0.0));
        let mut sets = wl.build_genesis_utxo_sets();
        let initial: u64 = sets.iter().map(|s| s.total_value()).sum();
        let mut fees = 0;
        for _ in 0..5 {
            let batch = wl.generate_batch(60);
            for gen in &batch {
                fees += gen.tx.fee();
                for set in sets.iter_mut() {
                    set.apply(&gen.tx);
                }
            }
            wl.confirm_pending();
        }
        let after: u64 = sets.iter().map(|s| s.total_value()).sum();
        assert_eq!(
            initial,
            after + fees,
            "value only leaves the system as fees"
        );
    }

    /// The generator as it was before its stream was drawn ahead: one
    /// `HmacDrbg` drawn on the calling thread, the non-empty shards collected
    /// into a `Vec`, the kind read back off the built transaction — the
    /// oracle the prefetched workload is held to, id for id.
    struct Reference {
        config: WorkloadConfig,
        pools: Vec<Vec<(OutPoint, TxOutput)>>,
        accounts_by_shard: Vec<Vec<AccountId>>,
        pending: Vec<Transaction>,
        drbg: HmacDrbg,
        nonce: u64,
    }

    impl Reference {
        fn new(config: WorkloadConfig) -> Reference {
            let genesis = Workload::new(config);
            Reference {
                config,
                pools: genesis.pools.clone(),
                accounts_by_shard: genesis.accounts_by_shard.clone(),
                pending: Vec::new(),
                drbg: HmacDrbg::from_parts("cycledger/workload", &[&config.seed.to_be_bytes()]),
                nonce: 0,
            }
        }

        fn account(&mut self, shard: usize) -> AccountId {
            let accounts = &self.accounts_by_shard[shard];
            accounts[self.drbg.next_below(accounts.len() as u64) as usize]
        }

        fn generate(&mut self) -> Option<(TxId, TxKind)> {
            let m = self.config.num_shards;
            let roll = |drbg: &mut HmacDrbg, ratio| {
                (drbg.next_below(1_000_000) as f64) / 1_000_000.0 < ratio
            };
            let roll_invalid = roll(&mut self.drbg, self.config.invalid_ratio);
            let roll_cross = roll(&mut self.drbg, self.config.cross_shard_ratio);
            let nonempty: Vec<usize> = (0..m).filter(|&s| !self.pools[s].is_empty()).collect();
            if nonempty.is_empty() {
                return None;
            }
            let src = nonempty[self.drbg.next_below(nonempty.len() as u64) as usize];
            let pick = self.drbg.next_below(self.pools[src].len() as u64) as usize;
            self.nonce += 1;
            let nonce = self.nonce;
            let spend = |outpoint, output: TxOutput| TxInput {
                outpoint,
                owner: output.owner,
                amount: output.amount,
            };
            if roll_invalid {
                let (outpoint, output) = self.pools[src][pick];
                let to = self.account(src);
                let (outpoint, amount, kind) = if nonce.is_multiple_of(2) {
                    let ghost = OutPoint {
                        tx_id: cycledger_crypto::sha256::hash_parts(&[
                            b"ghost",
                            &nonce.to_be_bytes(),
                        ]),
                        index: 0,
                    };
                    (ghost, output.amount - 1, TxKind::InvalidMissingInput)
                } else {
                    (outpoint, output.amount + 10, TxKind::InvalidValueCreated)
                };
                let paid = TxOutput { owner: to, amount };
                let tx = Transaction::new(vec![spend(outpoint, output)], vec![paid], nonce);
                return Some((tx.id(), kind));
            }
            let (outpoint, output) = self.pools[src].swap_remove(pick);
            let dst = if roll_cross && m > 1 {
                let s = self.drbg.next_below(m as u64) as usize;
                if s == src {
                    (s + 1) % m
                } else {
                    s
                }
            } else {
                src
            };
            let to = self.account(dst);
            let fee = 1.min(output.amount.saturating_sub(1));
            let pay = (output.amount - fee) / 2 + 1;
            let change = output.amount - fee - pay;
            let mut outputs = vec![TxOutput {
                owner: to,
                amount: pay,
            }];
            if change > 0 {
                outputs.push(TxOutput {
                    owner: output.owner,
                    amount: change,
                });
            }
            let tx = Transaction::new(vec![spend(outpoint, output)], outputs, nonce);
            let kind = if tx.touched_shards(m).len() <= 1 {
                TxKind::IntraShard
            } else {
                TxKind::CrossShard
            };
            self.pending.push(tx.clone());
            Some((tx.id(), kind))
        }

        fn confirm_pending(&mut self) {
            let m = self.config.num_shards;
            for tx in self.pending.drain(..) {
                for (outpoint, output) in tx.created_utxos() {
                    self.pools[output.owner.shard(m)].push((outpoint, output));
                }
            }
        }
    }

    #[test]
    fn prefetched_stream_builds_what_direct_draws_build() {
        // Batch sizes that grow past the last batch's draws (the stream asks
        // again and waits), shrink under them (leftovers carry over), are
        // empty, and outrun the pools (a dry pool still draws its rolls).
        let configs = [
            config(0.3, 0.1),
            config(0.0, 1.0),
            config(1.0, 0.0),
            WorkloadConfig {
                num_shards: 1,
                ..config(0.5, 0.2)
            },
        ];
        for config in configs {
            let mut prefetched = Workload::new(config);
            let mut reference = Reference::new(config);
            for batch in 0..60usize {
                let count = (batch * 37) % 97;
                let got: Vec<(TxId, TxKind)> = prefetched
                    .generate_batch(count)
                    .iter()
                    .map(|g| (g.tx.id(), g.kind))
                    .collect();
                let want: Vec<(TxId, TxKind)> =
                    (0..count).filter_map(|_| reference.generate()).collect();
                assert_eq!(got, want, "{config:?}, batch {batch}");
                prefetched.confirm_pending();
                reference.confirm_pending();
            }
        }
    }

    #[test]
    fn dropping_a_workload_mid_request_returns_promptly() {
        let mut wl = Workload::new(config(0.2, 0.1));
        // 2^24 draws are 2^27 SHA-256 compressions, about ten seconds of
        // work with SHA-NI; receiving the first piece proves the helper is in
        // the middle of them. A helper that finished its request first would
        // hold the drop for all of it; one that stops at its next piece, for
        // under a millisecond.
        wl.stream.request(1 << 24);
        wl.stream.next_u64();
        let start = std::time::Instant::now();
        drop(wl);
        let waited = start.elapsed();
        assert!(
            waited < std::time::Duration::from_secs(1),
            "drop waited {waited:?} for the helper"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_home_shard_agrees_with_touched_shards(
            seed in 0u64..1_000,
            shards in 1usize..6,
            cross in 0u32..=100,
            invalid in 0u32..=100,
        ) {
            let mut wl = Workload::new(WorkloadConfig {
                num_shards: shards,
                seed,
                cross_shard_ratio: f64::from(cross) / 100.0,
                invalid_ratio: f64::from(invalid) / 100.0,
                ..config(0.0, 0.0)
            });
            for _ in 0..3 {
                for gen in wl.generate_batch(40) {
                    let touched = gen.tx.touched_shards(shards);
                    let home = match touched.as_slice() {
                        [] => Some(0),
                        [shard] => Some(*shard),
                        _ => None,
                    };
                    prop_assert_eq!(gen.tx.home_shard(shards), home);
                    prop_assert_eq!(gen.kind == TxKind::CrossShard, home.is_none());
                }
                wl.confirm_pending();
            }
        }
    }

    #[test]
    #[should_panic]
    fn invalid_config_rejected() {
        Workload::new(WorkloadConfig {
            cross_shard_ratio: 1.5,
            ..config(0.0, 0.0)
        });
    }
}
