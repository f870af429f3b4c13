//! Deterministic transaction workload generation.
//!
//! The paper assumes "a large set of transactions are continuously sent to our
//! network by external users" (§III-D) with users spread uniformly over the `m`
//! shards. This module plays the role of those external users: it mints a genesis
//! UTXO per account, then produces batches of payments with a configurable
//! cross-shard ratio and a configurable fraction of deliberately invalid
//! transactions (which the committees must vote *No* on). Everything is derived
//! from a seed so protocol runs and benchmarks are reproducible.

use cycledger_crypto::hmac::HmacDrbg;

use crate::store::StateBackend;
use crate::transaction::{AccountId, OutPoint, Transaction, TxId, TxInput, TxOutput};
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

/// One generated-but-unconfirmed transaction in the generator's view: the
/// pool entry it consumed and the outputs it would create if it confirms.
struct PendingTx {
    id: TxId,
    input: (OutPoint, TxOutput),
    outputs: Vec<(OutPoint, TxOutput)>,
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
    /// Generated-but-not-yet-confirmed transactions: the input each consumed
    /// from the pool and the outputs it would create.
    pending: Vec<PendingTx>,
    /// Accounts grouped by shard.
    accounts_by_shard: Vec<Vec<AccountId>>,
    drbg: HmacDrbg,
    nonce: u64,
    genesis: Vec<Transaction>,
}

impl Workload {
    /// Builds a workload: mints genesis UTXOs and groups accounts by shard.
    pub fn new(config: WorkloadConfig) -> Workload {
        assert!(config.num_shards > 0);
        assert!(
            config.accounts_per_shard > 1,
            "need at least two accounts per shard"
        );
        assert!((0.0..=1.0).contains(&config.cross_shard_ratio));
        assert!((0.0..=1.0).contains(&config.invalid_ratio));
        let m = config.num_shards;
        let mut accounts_by_shard: Vec<Vec<AccountId>> = vec![Vec::new(); m];
        // Walk account ids until every shard has its quota; the hash-based shard
        // assignment means ids are spread roughly uniformly.
        let mut next_id = 0u64;
        while accounts_by_shard
            .iter()
            .any(|s| s.len() < config.accounts_per_shard)
        {
            let account = AccountId(next_id);
            next_id += 1;
            let shard = account.shard(m);
            if accounts_by_shard[shard].len() < config.accounts_per_shard {
                accounts_by_shard[shard].push(account);
            }
        }
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
                pools[output.owner.shard(m)].push((outpoint, output));
            }
            genesis.push(tx);
        }
        Workload {
            drbg: HmacDrbg::from_parts("cycledger/workload", &[&config.seed.to_be_bytes()]),
            config,
            pools,
            pending: Vec::new(),
            accounts_by_shard,
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
        let m = self.config.num_shards;
        for tx in self.pending.drain(..) {
            for (outpoint, output) in tx.outputs {
                self.pools[output.owner.shard(m)].push((outpoint, output));
            }
        }
    }

    /// Confirms exactly the pending transactions for which `packed` returns
    /// true: their outputs become spendable. The rest *expired unconfirmed* —
    /// their consumed inputs return to the pool (on chain those coins were
    /// never spent, so the user simply respends them later), and their
    /// outputs never existed. Keeps the generator's UTXO view consistent
    /// with the chain when partitions or timeouts keep transactions out of
    /// blocks.
    pub fn confirm_packed(&mut self, packed: impl Fn(&crate::transaction::TxId) -> bool) {
        let m = self.config.num_shards;
        for tx in self.pending.drain(..) {
            if packed(&tx.id) {
                for (outpoint, output) in tx.outputs {
                    self.pools[output.owner.shard(m)].push((outpoint, output));
                }
            } else {
                let (outpoint, output) = tx.input;
                self.pools[output.owner.shard(m)].push((outpoint, output));
            }
        }
    }

    /// Number of outputs currently awaiting confirmation.
    pub fn pending_outputs(&self) -> usize {
        self.pending.iter().map(|tx| tx.outputs.len()).sum()
    }

    /// The configuration in use.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Builds fresh per-shard UTXO sets seeded with the genesis outputs.
    pub fn build_genesis_utxo_sets(&self) -> Vec<UtxoSet> {
        self.build_genesis_utxo_sets_with(StateBackend::Map)
    }

    /// Builds fresh per-shard UTXO sets on the chosen state backend, seeded
    /// with the genesis outputs. On the authenticated backend the genesis
    /// credits are folded into the tree immediately (as a base version, not
    /// a round commit), so round 0's root builds on genesis state.
    pub fn build_genesis_utxo_sets_with(&self, backend: StateBackend) -> Vec<UtxoSet> {
        let m = self.config.num_shards;
        // Pre-size for the steady-state working set: the genesis UTXOs plus
        // the change/payment churn of a few rounds in flight.
        let capacity = self.config.accounts_per_shard * 4;
        let mut sets: Vec<UtxoSet> = (0..m)
            .map(|s| UtxoSet::with_backend(s, m, capacity, backend))
            .collect();
        for tx in &self.genesis {
            for set in sets.iter_mut() {
                set.apply(tx);
            }
        }
        for set in sets.iter_mut() {
            set.commit_genesis();
        }
        sets
    }

    fn next_nonce(&mut self) -> u64 {
        self.nonce += 1;
        self.nonce
    }

    fn pick_account(&mut self, shard: usize) -> AccountId {
        let accounts = &self.accounts_by_shard[shard];
        accounts[self.drbg.next_below(accounts.len() as u64) as usize]
    }

    fn pick_nonempty_shard(&mut self) -> Option<usize> {
        let nonempty: Vec<usize> = (0..self.config.num_shards)
            .filter(|&s| !self.pools[s].is_empty())
            .collect();
        if nonempty.is_empty() {
            return None;
        }
        Some(nonempty[self.drbg.next_below(nonempty.len() as u64) as usize])
    }

    /// Generates one transaction, updating the generator's internal UTXO view so
    /// that later valid transactions never double-spend earlier ones.
    pub fn generate(&mut self) -> Option<GeneratedTx> {
        let roll_invalid =
            (self.drbg.next_below(1_000_000) as f64) / 1_000_000.0 < self.config.invalid_ratio;
        let roll_cross =
            (self.drbg.next_below(1_000_000) as f64) / 1_000_000.0 < self.config.cross_shard_ratio;
        let m = self.config.num_shards;

        let src_shard = self.pick_nonempty_shard()?;
        let pool_len = self.pools[src_shard].len() as u64;
        let pick = self.drbg.next_below(pool_len) as usize;
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
            let mut s = self.drbg.next_below(m as u64) as usize;
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
        self.pending.push(PendingTx {
            id: tx.id(),
            input: (
                outpoint,
                TxOutput {
                    owner: output.owner,
                    amount: output.amount,
                },
            ),
            outputs: tx.created_utxos(),
        });
        let kind = if dst_shard == src_shard && tx.is_intra_shard(m) {
            TxKind::IntraShard
        } else {
            TxKind::CrossShard
        };
        Some(GeneratedTx { tx, kind })
    }

    /// Generates a batch of `count` transactions (possibly fewer if the UTXO
    /// pools run dry, which only happens with pathological configurations).
    pub fn generate_batch(&mut self, count: usize) -> Vec<GeneratedTx> {
        (0..count).filter_map(|_| self.generate()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utxo::validate_across_shards;

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

    #[test]
    #[should_panic]
    fn invalid_config_rejected() {
        Workload::new(WorkloadConfig {
            cross_shard_ratio: 1.5,
            ..config(0.0, 0.0)
        });
    }
}
