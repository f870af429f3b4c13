//! The state store behind [`crate::utxo::UtxoSet`].
//!
//! The paper's authentication function `V` only needs point lookups, so the
//! seed stored each shard's UTXOs in a flat [`FxHashMap`]. That answers
//! `get` in O(1) but can neither prove membership to a light client nor
//! publish a state commitment. [`Store`] keeps that map as the default and
//! adds one alternative:
//!
//! * [`Store::Map`] — the flat map: no authentication, and byte-identical
//!   goldens for every pre-existing scenario;
//! * [`Store::Smt`] — [`crate::smt::SmtStore`], the same live map plus a
//!   compressed sparse Merkle tree updated in place by per-round batch
//!   commits, with one root digest kept per round and inclusion/exclusion
//!   proofs against the latest, at the cost of hashing each round's delta.
//!
//! Lookups read the one live map either way; only writes and the tree
//! queries branch on the variant.

use cycledger_crypto::fxhash::{FxBuildHasher, FxHashMap};
use cycledger_crypto::sha256::Digest;
use cycledger_crypto::smt::StateProof;

use crate::smt::SmtStore;
use crate::transaction::{OutPoint, TxOutput};

/// Which state store a UTXO set (and hence a simulation) uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StateBackend {
    /// Flat hash map: O(1) everything, no authentication (the default).
    #[default]
    Map,
    /// Sparse Merkle tree: authenticated roots and proofs, per-round commits.
    Smt,
}

impl StateBackend {
    /// The spec/TOML name of this backend.
    pub fn name(self) -> &'static str {
        match self {
            StateBackend::Map => "map",
            StateBackend::Smt => "smt",
        }
    }

    /// Parses a spec/TOML name.
    pub fn from_name(name: &str) -> Option<StateBackend> {
        match name {
            "map" => Some(StateBackend::Map),
            "smt" => Some(StateBackend::Smt),
            _ => None,
        }
    }
}

/// The UTXO entries of one shard on the chosen backend.
///
/// Both variants hold the live entries in one [`FxHashMap`] — the map
/// itself, or the SMT's [`SmtStore::live`] — so lookups, `len` and
/// iteration read [`Store::live`] whichever backend runs, and both make
/// identical `V` decisions. Outpoints are SHA-256 digests the protocol
/// itself admitted (not attacker-chosen map keys), so the SipHash DoS
/// defence of the std hasher buys nothing on this per-input-lookup hot
/// path. The tree methods answer `None` on the map: proof queries answer
/// against the *latest committed* tree, never the uncommitted batch and
/// never an earlier round's — of history a store keeps root digests only.
#[derive(Clone, Debug)]
pub enum Store {
    /// Flat-map backend.
    Map(FxHashMap<OutPoint, TxOutput>),
    /// Sparse-Merkle backend.
    Smt(SmtStore),
}

impl Store {
    /// Builds an empty store of the given backend, its live map pre-sized
    /// for `capacity` entries.
    pub fn with_capacity(backend: StateBackend, capacity: usize) -> Store {
        match backend {
            StateBackend::Map => Store::Map(FxHashMap::with_capacity_and_hasher(
                capacity,
                FxBuildHasher::default(),
            )),
            StateBackend::Smt => Store::Smt(SmtStore::with_capacity(capacity)),
        }
    }

    /// The live entries (committed and pending alike).
    #[inline]
    pub fn live(&self) -> &FxHashMap<OutPoint, TxOutput> {
        match self {
            Store::Map(map) => map,
            Store::Smt(smt) => smt.live(),
        }
    }

    /// Point lookup (the `V` hot path).
    #[inline]
    pub fn get(&self, outpoint: &OutPoint) -> Option<&TxOutput> {
        self.live().get(outpoint)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live().len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.live().is_empty()
    }

    /// Inserts or replaces an entry, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, outpoint: OutPoint, output: TxOutput) -> Option<TxOutput> {
        match self {
            Store::Map(map) => map.insert(outpoint, output),
            Store::Smt(smt) => smt.insert(outpoint, output),
        }
    }

    /// Removes an entry, returning it if it existed.
    #[inline]
    pub fn remove(&mut self, outpoint: &OutPoint) -> Option<TxOutput> {
        match self {
            Store::Map(map) => map.remove(outpoint),
            Store::Smt(smt) => smt.remove(outpoint),
        }
    }

    fn smt(&self) -> Option<&SmtStore> {
        match self {
            Store::Map(_) => None,
            Store::Smt(smt) => Some(smt),
        }
    }

    fn smt_mut(&mut self) -> Option<&mut SmtStore> {
        match self {
            Store::Map(_) => None,
            Store::Smt(smt) => Some(smt),
        }
    }

    /// Seals the writes since the previous commit into the tree and records
    /// the resulting root digest for `round`.
    pub fn commit(&mut self, round: u64) -> Option<Digest> {
        self.smt_mut().map(|smt| smt.commit(round))
    }

    /// Folds the writes so far into the tree without recording a round —
    /// genesis, so round 0's root already has the genesis UTXOs as its base.
    pub fn commit_genesis(&mut self) -> Option<Digest> {
        self.smt_mut().map(SmtStore::commit_genesis)
    }

    /// The most recently committed state root.
    pub fn state_root(&self) -> Option<Digest> {
        self.smt().map(SmtStore::state_root)
    }

    /// The root committed at the latest round `<= round`, if any.
    pub fn root_at_round(&self, round: u64) -> Option<Digest> {
        self.smt()?.root_at_round(round)
    }

    /// An inclusion/exclusion proof for `outpoint` against the latest
    /// committed root.
    pub fn prove(&self, outpoint: &OutPoint) -> Option<StateProof> {
        Some(self.smt()?.prove(outpoint))
    }
}

impl Default for Store {
    fn default() -> Store {
        Store::Map(FxHashMap::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::AccountId;
    use cycledger_crypto::sha256::hash_parts;

    fn op(n: u64) -> OutPoint {
        OutPoint {
            tx_id: hash_parts(&[b"store-test", &n.to_be_bytes()]),
            index: 0,
        }
    }

    fn out(owner: u64, amount: u64) -> TxOutput {
        TxOutput {
            owner: AccountId(owner),
            amount,
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for backend in [StateBackend::Map, StateBackend::Smt] {
            assert_eq!(StateBackend::from_name(backend.name()), Some(backend));
        }
        assert_eq!(StateBackend::from_name("jellyfish"), None);
        assert_eq!(StateBackend::default(), StateBackend::Map);
    }

    #[test]
    fn map_store_has_no_authentication_surface() {
        let mut store = Store::with_capacity(StateBackend::Map, 4);
        assert!(store.insert(op(1), out(1, 10)).is_none());
        assert_eq!(store.insert(op(1), out(1, 20)), Some(out(1, 10)));
        assert_eq!(store.len(), 1);
        assert_eq!(store.commit(0), None);
        assert_eq!(store.commit_genesis(), None);
        assert_eq!(store.state_root(), None);
        assert_eq!(store.root_at_round(0), None);
        assert!(store.prove(&op(1)).is_none());
        assert_eq!(store.remove(&op(1)), Some(out(1, 20)));
        assert!(store.is_empty());
    }

    #[test]
    fn both_backends_read_one_live_map() {
        for backend in [StateBackend::Map, StateBackend::Smt] {
            let mut store = Store::with_capacity(backend, 4);
            for n in 0..8 {
                store.insert(op(n), out(n, n + 1));
            }
            store.remove(&op(0));
            let total: u64 = store.live().values().map(|o| o.amount).sum();
            assert_eq!(total, (2..=8).sum::<u64>(), "{backend:?}");
            assert_eq!(store.get(&op(3)), Some(&out(3, 4)));
            assert_eq!(store.len(), 7);
        }
    }
}
