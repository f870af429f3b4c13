//! Blocks produced by the referee committee.
//!
//! At the end of round `r` the referee committee `C_R` packs (§IV-G):
//! the valid `TXdecSET`s of every committee, the next round's participants and
//! their reputations, the next referee committee, the next leaders and partial
//! sets, and the next round's randomness `R^{r+1}`. Releasing the block tells
//! every node the configuration of round `r+1`.
//!
//! Releasing it sends each body across the wire once, not the whole block
//! to every node (a departure from §IV-G; ARCHITECTURE.md). The body is cut
//! into `m` slices: slice `k` is the block's transactions that touch shard
//! `k` — an input or an output there — in block order ([`index_slices`]), so
//! a cross-shard transaction is in each of its shards' slices. The header's
//! body root is the Merkle root over the `m` slice roots; its config root
//! is the Merkle root over the configuration's shared leaf and the root of
//! its rows, one per next-round committee ([`NextRoundConfig`]); the
//! referee's certificate covers the header. Every node receives the header
//! and its [`ConfigShare`]: the shared leaf, and its own committee's row
//! with a path. A member of committee `k` also receives slice `k` with its
//! ⌈log₂ m⌉-hash path: as a [`CompactSlice`] if it holds the bodies of its
//! committee's certified `V List` columns, which names each of those by its
//! column, else whole ([`BlockSlice`]). It checks what it receives against
//! the certified header. The body root fixes each slice's order, which is
//! all a shard's apply reads: two transactions that share no shard cannot
//! depend on each other.

use std::sync::OnceLock;

use cycledger_crypto::fxhash::FxHashMap;
use cycledger_crypto::merkle::{MerkleProof, MerkleTree};
use cycledger_crypto::sha256::{hash_parts, Digest, Sha256};

use crate::transaction::{Routing, Transaction, TxId};

/// One seat of a next-round committee: a node and its updated reputation
/// (fixed-point, 1e6 = 1.0).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Seat {
    /// The seated node's index.
    pub node: u32,
    /// Its reputation after this round's update.
    pub reputation_fp: i64,
}

/// The configuration's shared leaf: what every node receives.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SharedConfig {
    /// The next referee committee.
    pub referee: Vec<Seat>,
    /// Leader of each committee `k`.
    pub leaders: Vec<u32>,
    /// Next round's randomness `R^{r+1}` from the beacon.
    pub randomness: Digest,
}

/// One next-round committee's leaf: what its members receive besides the
/// shared leaf.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CommitteeRow {
    /// The committee's members, leader and partial set included.
    pub seats: Vec<Seat>,
    /// The committee's partial set.
    pub partial_set: Vec<u32>,
}

/// Committee configuration for the next round, as committed inside a block:
/// the header's config root is the Merkle root over two leaves, the shared
/// leaf and the root of the tree over the rows, one row per committee in
/// committee order.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct NextRoundConfig {
    /// Referee, leaders and randomness.
    pub shared: SharedConfig,
    /// One row per next-round committee.
    pub rows: Vec<CommitteeRow>,
}

fn push_u32s(out: &mut Vec<u8>, xs: &[u32]) {
    out.extend_from_slice(&(xs.len() as u32).to_be_bytes());
    for x in xs {
        out.extend_from_slice(&x.to_be_bytes());
    }
}

fn push_seats(out: &mut Vec<u8>, seats: &[Seat]) {
    out.extend_from_slice(&(seats.len() as u32).to_be_bytes());
    for seat in seats {
        out.extend_from_slice(&seat.node.to_be_bytes());
        out.extend_from_slice(&seat.reputation_fp.to_be_bytes());
    }
}

impl SharedConfig {
    /// Bytes of the encoded leaf.
    pub fn wire_size(&self) -> u64 {
        (4 + 12 * self.referee.len() + 4 + 4 * self.leaders.len() + 32) as u64
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        push_seats(out, &self.referee);
        push_u32s(out, &self.leaders);
        out.extend_from_slice(self.randomness.as_bytes());
    }
}

impl CommitteeRow {
    /// Bytes of the encoded row.
    pub fn wire_size(&self) -> u64 {
        (4 + 12 * self.seats.len() + 4 + 4 * self.partial_set.len()) as u64
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        push_seats(out, &self.seats);
        push_u32s(out, &self.partial_set);
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size() as usize);
        self.encode_into(&mut out);
        out
    }
}

impl NextRoundConfig {
    /// Bytes of the whole encoded configuration, as the referee stores it.
    pub fn wire_size(&self) -> u64 {
        let rows: u64 = self.rows.iter().map(CommitteeRow::wire_size).sum();
        self.shared.wire_size() + 4 + rows
    }

    /// Bytes of a node's [`ConfigShare`] on the wire, and of what it keeps of
    /// it (the shared leaf and the row, without the rows root and the path),
    /// for a node in next-round committee `committee`, or in none.
    pub fn share_bytes(&self, committee: Option<usize>) -> (u64, u64) {
        let row = committee.and_then(|k| self.rows.get(k));
        let row = row.map_or(0, CommitteeRow::wire_size);
        let path = committee.map_or(0, |_| Block::path_bytes(self.rows.len()));
        let kept = self.shared.wire_size() + row;
        (kept + 32 + path, kept)
    }

    /// The encoded shared leaf, then every row, in one buffer; and where the
    /// rows start.
    fn encode(&self) -> (Vec<u8>, usize) {
        let mut bytes = Vec::with_capacity(self.wire_size() as usize);
        self.shared.encode_into(&mut bytes);
        let rows_at = bytes.len();
        for row in &self.rows {
            row.encode_into(&mut bytes);
        }
        (bytes, rows_at)
    }

    /// The config root, with `tree` as scratch.
    fn root(&self, tree: &mut MerkleTree) -> Digest {
        let (bytes, rows_at) = self.encode();
        let (shared, mut rest) = bytes.split_at(rows_at);
        tree.rebuild_from_slices(self.rows.iter().map(|row| {
            let (leaf, tail) = rest.split_at(row.wire_size() as usize);
            rest = tail;
            leaf
        }));
        let rows_root = tree.root();
        config_root(tree, shared, &rows_root)
    }
}

/// The config root: the Merkle root over the encoded shared leaf and the
/// rows root, with `tree` as scratch.
fn config_root(tree: &mut MerkleTree, shared: &[u8], rows_root: &Digest) -> Digest {
    tree.rebuild_from_slices([shared, rows_root.as_bytes().as_slice()]);
    tree.root()
}

/// A block header: everything needed to chain and verify the block body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockHeader {
    /// Round number `r`.
    pub round: u64,
    /// Hash of the previous block's header.
    pub prev_hash: Digest,
    /// The body root: Merkle root over the block's `m` slice roots, slice
    /// `k` the block's transactions touching shard `k` ([`index_slices`]).
    pub body_root: Digest,
    /// The config root: Merkle root over the next-round configuration's
    /// shared leaf and the root of its rows ([`NextRoundConfig`]).
    pub config_root: Digest,
    /// Hash of the semi-commitments the referee recorded this round, in
    /// committee order ([`Block::commitments_hash`]): the block certificate
    /// covers them (Algorithm 4, step 2).
    pub commitments_hash: Digest,
}

impl BlockHeader {
    /// Bytes of a header on the wire: the round and four digests.
    pub const WIRE_BYTES: u64 = 8 + 4 * 32;

    /// The header hash identifying this block.
    pub fn hash(&self) -> Digest {
        hash_parts(&[
            b"cycledger/block-header",
            &self.round.to_be_bytes(),
            self.prev_hash.as_bytes(),
            self.body_root.as_bytes(),
            self.config_root.as_bytes(),
            self.commitments_hash.as_bytes(),
        ])
    }
}

/// A full block: header plus the transactions and next-round configuration.
#[derive(Clone, Debug)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// Transactions admitted in this round (union of valid `TXdecSET`s).
    pub transactions: Vec<Transaction>,
    /// Configuration of round `r+1`.
    pub next_round: NextRoundConfig,
    /// Number of shards `m`: the body root is over `m` slices.
    pub shards: usize,
    /// Memoized header hash: the hash is consumed at least twice per round
    /// (referee agreement payload, chain append) and again by every
    /// tip-chaining caller, so it is computed once on first use. Sound as
    /// long as the header is not mutated after assembly — the constructor
    /// path (`assemble`) is the only producer of blocks in the protocol.
    header_hash: OnceLock<Digest>,
}

impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        // The memo cache is excluded: equality is over block content.
        self.header == other.header
            && self.transactions == other.transactions
            && self.next_round == other.next_round
            && self.shards == other.shards
    }
}

impl Eq for Block {}

impl Block {
    /// Assembles a block for `round` on top of `prev_hash`, its header
    /// carrying the round's `commitments_hash`. `slices` is the
    /// transactions' [`index_slices`] index over the `m = slices.len()`
    /// shards, which the caller keeps for propagation and apply.
    pub fn assemble(
        round: u64,
        prev_hash: Digest,
        transactions: Vec<Transaction>,
        slices: &[Vec<usize>],
        next_round: NextRoundConfig,
        commitments_hash: Digest,
    ) -> Block {
        let (body_root, config_root) = Self::roots(&transactions, slices, &next_round);
        Block {
            header: BlockHeader {
                round,
                prev_hash,
                body_root,
                config_root,
                commitments_hash,
            },
            transactions,
            next_round,
            shards: slices.len(),
            header_hash: OnceLock::new(),
        }
    }

    /// The header hash, computed once and memoized.
    pub fn header_hash(&self) -> Digest {
        *self.header_hash.get_or_init(|| self.header.hash())
    }

    /// Merkle root over a transaction list (a slice root is this over the
    /// slice): each transaction writes its canonical encoding straight into
    /// the tree's leaf buffer — no encoding kept, none staged.
    pub fn tx_root(transactions: &[Transaction]) -> Digest {
        let mut tree = MerkleTree::default();
        tree.rebuild_with(transactions, Transaction::encode_into);
        tree.root()
    }

    /// Rebuilds `tree` over the slice roots of `transactions` under its
    /// [`index_slices`] index; its root is the body root ([`Digest::ZERO`]
    /// for `m = 0`). The same scratch tree hashes every slice, then their
    /// roots.
    fn body_tree(transactions: &[Transaction], slices: &[Vec<usize>], tree: &mut MerkleTree) {
        let roots: Vec<Digest> = slices
            .iter()
            .map(|positions| {
                tree.rebuild_with(positions, |&p, buf| transactions[p].encode_into(buf));
                tree.root()
            })
            .collect();
        tree.rebuild_from_slices(roots.iter().map(|root| root.as_bytes().as_slice()));
    }

    /// The body root and the config root, hashed with one scratch tree.
    fn roots(
        transactions: &[Transaction],
        slices: &[Vec<usize>],
        next_round: &NextRoundConfig,
    ) -> (Digest, Digest) {
        let mut tree = MerkleTree::default();
        Self::body_tree(transactions, slices, &mut tree);
        let body_root = tree.root();
        (body_root, next_round.root(&mut tree))
    }

    /// Bytes of a slice's path to the body root over `m` slices: ⌈log₂ m⌉
    /// sibling digests.
    pub fn path_bytes(m: usize) -> u64 {
        32 * u64::from(m.next_power_of_two().trailing_zeros())
    }

    /// Slice `shard` of the body with its path to the body root: what a
    /// member of committee `shard` that holds no body of it receives besides
    /// the header. `None` past the block's shards.
    pub fn slice(&self, shard: usize) -> Option<BlockSlice> {
        let mut slices = Vec::new();
        index_slices(&self.transactions, self.shards, &mut slices);
        let mut tree = MerkleTree::default();
        Self::body_tree(&self.transactions, &slices, &mut tree);
        let path = tree.prove(shard)?;
        let transactions = slices[shard]
            .iter()
            .map(|&p| self.transactions[p].clone())
            .collect();
        Some(BlockSlice {
            shard,
            transactions,
            path,
        })
    }

    /// Slice `shard` as a member of committee `shard` that holds the bodies
    /// of its certified `V List`'s `columns` receives it: a transaction that
    /// is a column ([`CompactSlice::nameable`]; its first, if twice) is named
    /// by its index, any other is sent whole. `None` past the block's shards.
    pub fn compact_slice(&self, shard: usize, columns: &[TxId]) -> Option<CompactSlice> {
        let BlockSlice {
            transactions, path, ..
        } = self.slice(shard)?;
        let named = CompactSlice::nameable(columns).iter();
        let column_of: FxHashMap<TxId, u16> = named
            .enumerate()
            .rev()
            .map(|(c, id)| (*id, c as u16))
            .collect();
        let entries = transactions
            .into_iter()
            .map(|tx| match column_of.get(&tx.id()) {
                Some(&column) => SliceEntry::Held(column),
                None => SliceEntry::Body(tx),
            })
            .collect();
        Some(CompactSlice {
            shard,
            entries,
            path,
        })
    }

    /// What a node in next-round committee `committee`, or in none, receives
    /// of the configuration besides the header. `None` past the rows.
    pub fn config_share(&self, committee: Option<usize>) -> Option<ConfigShare> {
        let config = &self.next_round;
        let rows: Vec<Vec<u8>> = config.rows.iter().map(CommitteeRow::encode).collect();
        let tree = MerkleTree::build(&rows);
        let row = match committee {
            Some(k) => Some(ConfigRow {
                committee: k,
                row: config.rows.get(k)?.clone(),
                path: tree.prove(k)?,
            }),
            None => None,
        };
        Some(ConfigShare {
            shared: config.shared.clone(),
            rows_root: tree.root(),
            row,
        })
    }

    /// The header's hash over a round's recorded semi-commitments, in
    /// committee order.
    pub fn commitments_hash(commitments: &[Digest]) -> Digest {
        let mut h = Sha256::new();
        h.update(b"cycledger/semi-commitments");
        for c in commitments {
            h.update(c.as_bytes());
        }
        h.finalize()
    }

    /// Verifies internal consistency: the header commits to exactly this
    /// body — every slice, in its order — and every transaction is in a
    /// slice. Routes each account by the hash.
    pub fn verify_structure(&self) -> bool {
        self.verify_structure_on(self.shards)
    }

    /// [`Block::verify_structure`] with the accounts routed by `routing`,
    /// which must route to this block's shards.
    pub fn verify_structure_on(&self, routing: impl Routing) -> bool {
        let mut slices = Vec::new();
        index_slices(&self.transactions, routing, &mut slices);
        let in_a_slice = |t: &Transaction| !t.inputs().is_empty() || !t.outputs().is_empty();
        (routing.shard_count() == self.shards)
            && (self.shards > 0 || self.transactions.is_empty())
            && self.transactions.iter().all(in_a_slice)
            && (self.header.body_root, self.header.config_root)
                == Self::roots(&self.transactions, &slices, &self.next_round)
    }

    /// Total fee collected by the block (distributed by reputation, §IV-G).
    pub fn total_fees(&self) -> u64 {
        self.transactions.iter().map(|t| t.fee()).sum()
    }

    /// Wire size of the whole block: what a referee member stores.
    pub fn wire_size(&self) -> u64 {
        let tx_bytes: u64 = self.transactions.iter().map(|t| t.wire_size()).sum();
        tx_bytes + self.next_round.wire_size() + BlockHeader::WIRE_BYTES
    }

    /// Number of transactions packed.
    pub fn tx_count(&self) -> usize {
        self.transactions.len()
    }
}

/// Indexes `txs` by touched shard into `slices`: entry `k` lists, in block
/// order, the positions of the transactions with an input or an output in
/// shard `k` of the `m` that `routing` routes to — slice `k` of a block's
/// body. One pass and one shard lookup per input and output; `slices` keeps
/// its buffers across calls.
pub fn index_slices(txs: &[Transaction], routing: impl Routing, slices: &mut Vec<Vec<usize>>) {
    let m = routing.shard_count();
    slices.resize_with(m, Vec::new);
    for positions in slices.iter_mut() {
        positions.clear();
    }
    if m == 0 {
        return;
    }
    for (position, tx) in txs.iter().enumerate() {
        let owners = tx
            .inputs()
            .iter()
            .map(|input| input.owner)
            .chain(tx.outputs().iter().map(|output| output.owner));
        for owner in owners {
            let positions = &mut slices[routing.shard_of(owner)];
            if positions.last() != Some(&position) {
                positions.push(position);
            }
        }
    }
}

/// One slice of a block's body and its path to the body root: what a member
/// of committee `shard` receives besides the header and keeps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockSlice {
    /// The shard the slice belongs to.
    pub shard: usize,
    /// The block's transactions touching the shard, in block order.
    pub transactions: Vec<Transaction>,
    /// The slice root's Merkle path to the header's body root.
    pub path: MerkleProof,
}

impl BlockSlice {
    /// True if this is slice `shard` of the block whose (certified) header is
    /// `header`, transaction for transaction and in order.
    pub fn verify(&self, header: &BlockHeader) -> bool {
        let root = Block::tx_root(&self.transactions);
        self.path.leaf_index == self.shard && self.path.verify(&header.body_root, root.as_bytes())
    }

    /// Bytes of the slice on the wire: its transactions and its path.
    pub fn wire_size(&self) -> u64 {
        let tx_bytes: u64 = self.transactions.iter().map(|t| t.wire_size()).sum();
        tx_bytes + 32 * self.path.siblings.len() as u64
    }
}

/// One entry of a [`CompactSlice`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SliceEntry {
    /// A column of the committee's certified `V List`: the member holds its
    /// body from the `TXList`.
    Held(u16),
    /// A body the member does not hold.
    Body(Transaction),
}

/// A block slice as a member that holds its committee's `TXList` bodies
/// receives it: one entry per transaction, in block order, naming a body the
/// member holds by its column or carrying it whole.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactSlice {
    /// The shard the slice belongs to.
    pub shard: usize,
    /// The slice's transactions, by column or whole.
    pub entries: Vec<SliceEntry>,
    /// The slice root's Merkle path to the header's body root.
    pub path: MerkleProof,
}

impl CompactSlice {
    /// Bytes of an entry's word: its column, or [`u16::MAX`] for "a body
    /// follows".
    const WORD_BYTES: u64 = 2;

    /// The columns of a `V List` over `columns` an entry can name: all but
    /// those past the last index a word holds.
    pub fn nameable(columns: &[TxId]) -> &[TxId] {
        &columns[..columns.len().min(usize::from(u16::MAX))]
    }

    /// Bytes of `tx`'s entry: its word, and its body unless it is `held`.
    pub fn entry_bytes(tx: &Transaction, held: bool) -> u64 {
        Self::WORD_BYTES + if held { 0 } else { tx.wire_size() }
    }

    /// The slice, its held entries filled from `held`: the member's `TXList`
    /// bodies in column order. `None` if an entry names a column past them.
    pub fn expand(&self, held: &[Transaction]) -> Option<BlockSlice> {
        let body = |entry: &SliceEntry| match entry {
            SliceEntry::Held(column) => held.get(usize::from(*column)).cloned(),
            SliceEntry::Body(tx) => Some(tx.clone()),
        };
        Some(BlockSlice {
            shard: self.shard,
            transactions: self.entries.iter().map(body).collect::<Option<_>>()?,
            path: self.path.clone(),
        })
    }

    /// True if, its held entries filled from `held`, this is slice `shard`
    /// of the block whose (certified) header is `header` ([`BlockSlice::verify`]).
    pub fn verify(&self, held: &[Transaction], header: &BlockHeader) -> bool {
        self.expand(held).is_some_and(|slice| slice.verify(header))
    }

    /// Bytes of the slice on the wire: a word per entry, the bodies it
    /// carries, and its path.
    pub fn wire_size(&self) -> u64 {
        let entry = |entry: &SliceEntry| match entry {
            SliceEntry::Held(_) => Self::WORD_BYTES,
            SliceEntry::Body(tx) => Self::entry_bytes(tx, false),
        };
        let entries: u64 = self.entries.iter().map(entry).sum();
        entries + 32 * self.path.siblings.len() as u64
    }
}

/// A next-round committee's row with its path to the rows root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigRow {
    /// The committee the row belongs to.
    pub committee: usize,
    /// The row.
    pub row: CommitteeRow,
    /// The row's Merkle path to the rows root.
    pub path: MerkleProof,
}

/// What a node receives of the next round's configuration besides the
/// header: the shared leaf, the rows root, and — for a member of a
/// next-round committee — that committee's row with its path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigShare {
    /// Referee, leaders and randomness.
    pub shared: SharedConfig,
    /// The root of the tree over the rows.
    pub rows_root: Digest,
    /// The node's committee row, if it sits in a next-round committee.
    pub row: Option<ConfigRow>,
}

impl ConfigShare {
    /// True if this is the configuration the (certified) `header` commits
    /// to: the shared leaf and the rows root hash to its config root, and
    /// the row is its committee's.
    pub fn verify(&self, header: &BlockHeader) -> bool {
        let mut shared = Vec::with_capacity(self.shared.wire_size() as usize);
        self.shared.encode_into(&mut shared);
        let mut tree = MerkleTree::default();
        let row_holds = self.row.as_ref().is_none_or(|r| {
            r.path.leaf_index == r.committee && r.path.verify(&self.rows_root, &r.row.encode())
        });
        row_holds && config_root(&mut tree, &shared, &self.rows_root) == header.config_root
    }

    /// Bytes of the share on the wire.
    pub fn wire_size(&self) -> u64 {
        let row = self.row.as_ref();
        let row = row.map_or(0, |r| r.row.wire_size() + 32 * r.path.siblings.len() as u64);
        self.shared.wire_size() + 32 + row
    }
}

/// A chain of blocks with structural verification on append.
#[derive(Clone, Debug, Default)]
pub struct Chain {
    blocks: Vec<Block>,
    /// Hash of the tip header, maintained on append. The seed recomputed the
    /// tip header hash on every `tip_hash()` call; it is now served from the
    /// appended block's memoized header digest.
    tip_hash: Digest,
}

impl Chain {
    /// Creates an empty chain.
    pub fn new() -> Chain {
        Chain {
            blocks: Vec::new(),
            tip_hash: Digest::ZERO,
        }
    }

    /// Hash of the latest block header, or [`Digest::ZERO`] for an empty chain.
    pub fn tip_hash(&self) -> Digest {
        self.tip_hash
    }

    /// Height (number of blocks).
    pub fn height(&self) -> usize {
        self.blocks.len()
    }

    /// Appends a block after checking it extends the tip and is well formed,
    /// its accounts routed by `routing`.
    pub fn append(&mut self, block: Block, routing: impl Routing) -> Result<(), ChainError> {
        if block.header.prev_hash != self.tip_hash {
            return Err(ChainError::WrongParent);
        }
        if block.header.round != self.blocks.len() as u64 {
            return Err(ChainError::WrongRound);
        }
        if !block.verify_structure_on(routing) {
            return Err(ChainError::BadStructure);
        }
        self.tip_hash = block.header_hash();
        self.blocks.push(block);
        Ok(())
    }

    /// Access to a block by round number.
    pub fn block(&self, round: u64) -> Option<&Block> {
        self.blocks.get(round as usize)
    }

    /// Header summaries for up to `max` blocks starting at `from_round`, in
    /// round order — what a peer serves to a catching-up node (the state-sync
    /// chunk; see [`Chain::verify_header_chain`] for the receiver side).
    pub fn header_summaries(&self, from_round: u64, max: usize) -> Vec<HeaderSummary> {
        self.blocks
            .iter()
            .skip(from_round as usize)
            .take(max)
            .map(|b| HeaderSummary {
                round: b.header.round,
                prev_hash: b.header.prev_hash,
                hash: b.header_hash(),
            })
            .collect()
    }

    /// Verifies a freshly fetched header chain: rounds must be contiguous
    /// from zero, each header must link to its predecessor (the first to
    /// [`Digest::ZERO`]), and the last hash must equal `expected_tip` — the
    /// tip the syncing node learned from the committee's quorum-certified
    /// chain. An empty slice verifies only against an empty chain
    /// (`expected_tip == Digest::ZERO`).
    pub fn verify_header_chain(
        headers: &[HeaderSummary],
        expected_tip: Digest,
    ) -> Result<(), ChainError> {
        let mut prev = Digest::ZERO;
        for (i, h) in headers.iter().enumerate() {
            if h.round != i as u64 {
                return Err(ChainError::WrongRound);
            }
            if h.prev_hash != prev {
                return Err(ChainError::WrongParent);
            }
            prev = h.hash;
        }
        if prev != expected_tip {
            return Err(ChainError::WrongParent);
        }
        Ok(())
    }
}

/// A block-header summary served to catching-up nodes: enough to verify the
/// hash linkage without shipping transaction bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeaderSummary {
    /// Block round (its height in the chain).
    pub round: u64,
    /// Hash of the previous block's header.
    pub prev_hash: Digest,
    /// Hash of this block's header.
    pub hash: Digest,
}

/// Errors returned when appending to a [`Chain`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainError {
    /// The block's `prev_hash` does not match the chain tip.
    WrongParent,
    /// The block's round number is not `height`.
    WrongRound,
    /// The header does not commit to the block body.
    BadStructure,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{AccountId, TxInput, TxOutput};

    /// Shards of the sample blocks.
    const M: usize = 4;

    /// A payment of 6 from `from` to `to` with change: it touches one shard
    /// or two.
    fn pay(from: u64, to: u64, nonce: u64) -> Transaction {
        let funding = Transaction::genesis(
            vec![TxOutput {
                owner: AccountId(from),
                amount: 10,
            }],
            nonce,
        );
        Transaction::new(
            vec![TxInput {
                outpoint: funding.created_utxos()[0].0,
                owner: AccountId(from),
                amount: 10,
            }],
            vec![
                TxOutput {
                    owner: AccountId(to),
                    amount: 6,
                },
                TxOutput {
                    owner: AccountId(from),
                    amount: 4,
                },
            ],
            nonce,
        )
    }

    /// Assembles `txs` over `m` shards.
    fn assemble(round: u64, prev: Digest, txs: Vec<Transaction>, m: usize) -> Block {
        let mut slices = Vec::new();
        index_slices(&txs, m, &mut slices);
        let config = NextRoundConfig::default();
        Block::assemble(round, prev, txs, &slices, config, Digest::ZERO)
    }

    /// Twelve payments among accounts 0..12, several crossing shards.
    fn payments(round: u64) -> Vec<Transaction> {
        (0..12u64)
            .map(|n| pay(n, (n * 5 + 3) % 12, round * 100 + n))
            .collect()
    }

    fn sample_block(round: u64, prev: Digest) -> Block {
        sample_block_committing(round, prev, &[])
    }

    fn sample_block_committing(round: u64, prev: Digest, commitments: &[Digest]) -> Block {
        let txs = vec![
            Transaction::genesis(
                vec![TxOutput {
                    owner: AccountId(1),
                    amount: 50,
                }],
                round,
            ),
            Transaction::genesis(
                vec![TxOutput {
                    owner: AccountId(2),
                    amount: 70,
                }],
                round + 1000,
            ),
        ];
        let mut slices = Vec::new();
        index_slices(&txs, M, &mut slices);
        let seat = |node, reputation_fp| Seat {
            node,
            reputation_fp,
        };
        let config = NextRoundConfig {
            shared: SharedConfig {
                referee: vec![seat(0, 0), seat(1, 1_000_000)],
                leaders: vec![2, 4],
                randomness: hash_parts(&[b"seed", &round.to_be_bytes()]),
            },
            rows: vec![
                CommitteeRow {
                    seats: vec![seat(2, -500_000), seat(3, 250_000)],
                    partial_set: vec![3],
                },
                CommitteeRow {
                    seats: vec![seat(4, 0), seat(5, 7), seat(6, 8)],
                    partial_set: vec![5, 6],
                },
            ],
        };
        let commitments = Block::commitments_hash(commitments);
        Block::assemble(round, prev, txs, &slices, config, commitments)
    }

    #[test]
    fn header_commits_to_body() {
        let block = sample_block(0, Digest::ZERO);
        assert!(block.verify_structure());
        let mut tampered = block.clone();
        tampered.transactions.pop();
        assert!(!tampered.verify_structure());
        let mut tampered = block.clone();
        tampered.next_round.shared.leaders[0] = 99;
        assert!(!tampered.verify_structure());
        let mut tampered = block.clone();
        tampered.next_round.rows[1].seats[2].reputation_fp += 1;
        assert!(!tampered.verify_structure());
        let mut tampered = block.clone();
        tampered.next_round.rows.swap(0, 1);
        assert!(!tampered.verify_structure());
    }

    #[test]
    fn memoized_header_hash_matches_direct_hash_and_serves_the_tip() {
        let block = sample_block(0, Digest::ZERO);
        assert_eq!(block.header_hash(), block.header.hash());
        // Repeated calls return the memo.
        assert_eq!(block.header_hash(), block.header_hash());
        let mut chain = Chain::new();
        assert_eq!(chain.tip_hash(), Digest::ZERO);
        let expected = block.header.hash();
        chain.append(block, M).unwrap();
        assert_eq!(
            chain.tip_hash(),
            expected,
            "tip served from the memoized digest"
        );
    }

    #[test]
    fn header_hash_changes_with_round() {
        let a = sample_block(0, Digest::ZERO);
        let b = sample_block(1, Digest::ZERO);
        assert_ne!(a.header.hash(), b.header.hash());
        // And with the recorded semi-commitments, their order included.
        let (x, y) = (hash_parts(&[b"x"]), hash_parts(&[b"y"]));
        let c = sample_block_committing(0, Digest::ZERO, &[x, y]);
        let d = sample_block_committing(0, Digest::ZERO, &[y, x]);
        assert_ne!(a.header.hash(), c.header.hash());
        assert_ne!(c.header.hash(), d.header.hash());
        assert!(c.verify_structure() && d.verify_structure());
    }

    #[test]
    fn chain_append_happy_path() {
        let mut chain = Chain::new();
        let b0 = sample_block(0, chain.tip_hash());
        chain.append(b0, M).unwrap();
        let b1 = sample_block(1, chain.tip_hash());
        chain.append(b1, M).unwrap();
        assert_eq!(chain.height(), 2);
        assert!(chain.block(0).is_some());
        assert!(chain.block(5).is_none());
    }

    #[test]
    fn chain_rejects_wrong_parent_round_and_structure() {
        let mut chain = Chain::new();
        let b0 = sample_block(0, chain.tip_hash());
        chain.append(b0, M).unwrap();

        let wrong_parent = sample_block(1, Digest::ZERO);
        assert_eq!(chain.append(wrong_parent, M), Err(ChainError::WrongParent));

        let wrong_round = sample_block(5, chain.tip_hash());
        assert_eq!(chain.append(wrong_round, M), Err(ChainError::WrongRound));

        let mut bad = sample_block(1, chain.tip_hash());
        bad.transactions.clear();
        assert_eq!(chain.append(bad, M), Err(ChainError::BadStructure));
        assert_eq!(chain.height(), 1);
    }

    #[test]
    fn fees_and_sizes() {
        let block = sample_block(0, Digest::ZERO);
        assert_eq!(block.total_fees(), 0, "genesis transactions carry no fee");
        let tx_bytes: u64 = block.transactions.iter().map(|t| t.wire_size()).sum();
        // The encoded leaves and a row count.
        let config = block.next_round.encode().0.len() as u64 + 4;
        assert_eq!(block.next_round.wire_size(), config);
        assert_eq!(block.wire_size(), tx_bytes + config + 136);
        assert_eq!(BlockHeader::WIRE_BYTES, 136, "a u64 and four digests");
        assert_eq!(block.tx_count(), 2);
    }

    #[test]
    fn header_summaries_chunk_and_verify_against_the_tip() {
        let mut chain = Chain::new();
        for round in 0..5 {
            let block = sample_block(round, chain.tip_hash());
            chain.append(block, M).unwrap();
        }
        // Chunked fetch: two summaries starting at round 2.
        let chunk = chain.header_summaries(2, 2);
        assert_eq!(chunk.len(), 2);
        assert_eq!(chunk[0].round, 2);
        assert_eq!(chunk[1].round, 3);
        assert_eq!(chunk[1].prev_hash, chunk[0].hash);
        // Past the tip: empty.
        assert!(chain.header_summaries(5, 8).is_empty());
        // The full fetch verifies against the quorum-certified tip.
        let all = chain.header_summaries(0, usize::MAX);
        assert_eq!(all.len(), 5);
        assert_eq!(Chain::verify_header_chain(&all, chain.tip_hash()), Ok(()));
    }

    #[test]
    fn verify_header_chain_rejects_gaps_bad_links_and_wrong_tip() {
        let mut chain = Chain::new();
        for round in 0..4 {
            let block = sample_block(round, chain.tip_hash());
            chain.append(block, M).unwrap();
        }
        let good = chain.header_summaries(0, usize::MAX);
        // A gap in the round sequence.
        let mut gap = good.clone();
        gap.remove(1);
        assert_eq!(
            Chain::verify_header_chain(&gap, chain.tip_hash()),
            Err(ChainError::WrongRound)
        );
        // A forged link.
        let mut forged = good.clone();
        forged[2].prev_hash = Digest::ZERO;
        assert_eq!(
            Chain::verify_header_chain(&forged, chain.tip_hash()),
            Err(ChainError::WrongParent)
        );
        // A truncated fetch that does not reach the certified tip.
        let truncated = &good[..3];
        assert_eq!(
            Chain::verify_header_chain(truncated, chain.tip_hash()),
            Err(ChainError::WrongParent)
        );
        // Empty chain verifies only against the zero tip.
        assert_eq!(Chain::verify_header_chain(&[], Digest::ZERO), Ok(()));
        assert_eq!(
            Chain::verify_header_chain(&[], chain.tip_hash()),
            Err(ChainError::WrongParent)
        );
    }

    #[test]
    fn every_slice_verifies_against_the_body_root_with_its_path() {
        let block = assemble(0, Digest::ZERO, payments(0), M);
        assert!(block.verify_structure());
        assert_eq!(block.slice(M), None, "no slice past the shards");
        for k in 0..M {
            let slice = block.slice(k).unwrap();
            assert!(slice.verify(&block.header), "shard {k}");
            let expected: Vec<Transaction> = block
                .transactions
                .iter()
                .filter(|t| t.touched_shards(M).contains(&k))
                .cloned()
                .collect();
            assert_eq!(slice.transactions, expected, "shard {k}: in block order");
            assert_eq!(slice.path.siblings.len(), 2, "⌈log₂ 4⌉ hashes");
            let tx_bytes: u64 = expected.iter().map(|t| t.wire_size()).sum();
            assert_eq!(slice.wire_size(), tx_bytes + Block::path_bytes(M));
            // Offered as another shard's slice, it fails.
            let mut elsewhere = slice.clone();
            elsewhere.shard = (k + 1) % M;
            assert!(!elsewhere.verify(&block.header));
            // So does any slice against another block's header.
            let other = assemble(1, Digest::ZERO, payments(1), M);
            assert!(!slice.verify(&other.header));
        }
        assert_eq!(
            (1..=9).map(Block::path_bytes).collect::<Vec<_>>(),
            [0u64, 32, 64, 64, 96, 96, 96, 96, 128]
        );
    }

    #[test]
    fn a_cross_shard_transaction_is_in_both_of_its_slices() {
        let block = assemble(0, Digest::ZERO, payments(0), M);
        let cross = block
            .transactions
            .iter()
            .find(|t| t.touched_shards(M).len() == 2)
            .expect("a payment crosses shards");
        for k in cross.touched_shards(M) {
            let slice = block.slice(k).unwrap();
            assert!(slice.transactions.contains(cross), "shard {k}");
            assert!(slice.verify(&block.header));
        }
        let in_slices: usize = (0..M)
            .map(|k| block.slice(k).unwrap().transactions.len())
            .sum();
        assert!(in_slices > block.tx_count());
    }

    #[test]
    fn a_dropped_added_or_reordered_transaction_in_any_slice_is_bad_structure() {
        let block = assemble(0, Digest::ZERO, payments(0), M);
        let extra = pay(40, 41, 999);
        let appends = |tampered: Block| Chain::new().append(tampered, M);
        assert_eq!(appends(block.clone()), Ok(()));
        let mut slices = Vec::new();
        index_slices(&block.transactions, M, &mut slices);
        for (k, positions) in slices.iter().enumerate() {
            assert!(
                positions.len() >= 2,
                "shard {k} has two transactions to swap"
            );
            // Dropped from the slice (and so from the block).
            let mut dropped = block.clone();
            dropped.transactions.remove(positions[0]);
            assert_eq!(appends(dropped), Err(ChainError::BadStructure), "shard {k}");
            // Added to the slice.
            let mut added = block.clone();
            let touching = (0..100u64)
                .map(|n| pay(n, n, 500 + n))
                .find(|t| t.touched_shards(M) == [k])
                .unwrap();
            added.transactions.insert(positions[1], touching);
            assert_eq!(appends(added), Err(ChainError::BadStructure), "shard {k}");
            // Reordered within the slice.
            let mut reordered = block.clone();
            reordered.transactions.swap(positions[0], positions[1]);
            assert_eq!(
                appends(reordered),
                Err(ChainError::BadStructure),
                "shard {k}"
            );
        }
        // Appended at the end, and a transaction in no slice at all.
        let mut appended = block.clone();
        appended.transactions.push(extra);
        assert_eq!(appends(appended), Err(ChainError::BadStructure));
        let mut unsliced = block.clone();
        unsliced
            .transactions
            .push(Transaction::genesis(Vec::new(), 7));
        assert_eq!(appends(unsliced), Err(ChainError::BadStructure));
        // A block claiming no shards carries no transactions.
        let mut shardless = block;
        shardless.shards = 0;
        assert_eq!(appends(shardless), Err(ChainError::BadStructure));
    }

    #[test]
    fn empty_block_assembles_and_verifies() {
        for m in [0, 1, M] {
            let block = assemble(0, Digest::ZERO, Vec::new(), m);
            assert!(block.verify_structure(), "m = {m}");
            for k in 0..m {
                let slice = block.slice(k).unwrap();
                assert!(slice.transactions.is_empty() && slice.verify(&block.header));
            }
            assert_eq!(Chain::new().append(block, m), Ok(()));
        }
        let none = assemble(0, Digest::ZERO, Vec::new(), 0);
        assert_eq!(none.header.body_root, Digest::ZERO);
    }

    #[test]
    fn every_config_share_verifies_and_a_tampered_one_fails() {
        let block = sample_block(0, Digest::ZERO);
        let config = &block.next_round;
        let other = sample_block(1, Digest::ZERO);
        assert_eq!(block.config_share(Some(config.rows.len())), None);
        let committees = (0..config.rows.len()).map(Some).chain([None]);
        for committee in committees {
            let share = block.config_share(committee).unwrap();
            assert!(share.verify(&block.header), "{committee:?}");
            assert!(!share.verify(&other.header), "{committee:?}");
            assert_eq!(share.wire_size(), config.share_bytes(committee).0);
            let mut tampered = share.clone();
            tampered.shared.referee[0].reputation_fp += 1;
            assert!(!tampered.verify(&block.header));
            let mut tampered = share.clone();
            tampered.rows_root = Digest::ZERO;
            assert!(!tampered.verify(&block.header));
            let Some(row) = &share.row else {
                assert_eq!(
                    config.share_bytes(None),
                    (config.shared.wire_size() + 32, config.shared.wire_size())
                );
                continue;
            };
            assert_eq!(row.row, config.rows[row.committee]);
            let mut tampered = share.clone();
            tampered.row.as_mut().unwrap().row.seats[0].reputation_fp += 1;
            assert!(!tampered.verify(&block.header));
            let mut tampered = share.clone();
            let row = tampered.row.as_mut().unwrap();
            row.committee = 1 - row.committee;
            assert!(!tampered.verify(&block.header), "the wrong committee index");
            let mut tampered = share.clone();
            let row = tampered.row.as_mut().unwrap();
            row.row = config.rows[1 - row.committee].clone();
            assert!(!tampered.verify(&block.header), "another committee's row");
        }
    }

    /// The shard holding a transaction's inputs: the committee whose
    /// `TXList` carries it.
    fn source(tx: &Transaction, m: usize) -> Option<usize> {
        tx.inputs().iter().map(|input| input.owner.shard(m)).min()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// For every committee of a random block, the compact slice named
        /// against the committee's columns — its transactions and some the
        /// block left out, in a shuffled column order — expands to the
        /// block's slice byte for byte and verifies; a column the member does
        /// not hold, a swapped entry, a tampered body and a config row with a
        /// tampered reputation or the wrong committee index all fail.
        #[test]
        fn prop_a_compact_slice_expands_to_the_block_slice_and_verifies(
            seed in 0u64..1_000,
            pick in 0usize..3,
            cross in 0u32..=50,
        ) {
            use crate::workload::{Workload, WorkloadConfig};

            let m = [1usize, 3, 8][pick];
            let mut workload = Workload::new(WorkloadConfig {
                num_shards: m,
                accounts_per_shard: 16,
                genesis_amount: 1_000,
                cross_shard_ratio: f64::from(cross) / 100.0,
                invalid_ratio: 0.0,
                seed,
            });
            let batch = workload.generate_batch(12 * m);
            let (packed, left_out) = batch.split_at(9 * m);
            let txs: Vec<Transaction> = packed.iter().map(|g| g.tx.clone()).collect();
            let mut slices = Vec::new();
            index_slices(&txs, m, &mut slices);
            let seat = |node: usize| Seat {
                node: node as u32,
                reputation_fp: (seed as i64 - node as i64) * 1_000,
            };
            let next_round = NextRoundConfig {
                shared: SharedConfig {
                    referee: (0..4).map(seat).collect(),
                    leaders: (0..m).map(|k| (4 + 5 * k) as u32).collect(),
                    randomness: hash_parts(&[b"prop", &seed.to_be_bytes()]),
                },
                rows: (0..m)
                    .map(|k| CommitteeRow {
                        seats: (4 + 5 * k..9 + 5 * k).map(seat).collect(),
                        partial_set: vec![(5 + 5 * k) as u32],
                    })
                    .collect(),
            };
            let block = Block::assemble(0, Digest::ZERO, txs, &slices, next_round, Digest::ZERO);
            proptest::prop_assert!(block.verify_structure());
            let other = Transaction::genesis(Vec::new(), seed);
            for k in 0..m {
                // The TXList: the shard's transactions, packed or not, in an
                // order the seed rotates.
                let mut held: Vec<Transaction> = packed
                    .iter()
                    .chain(left_out)
                    .map(|g| g.tx.clone())
                    .filter(|tx| source(tx, m) == Some(k))
                    .collect();
                if !held.is_empty() {
                    let turn = seed as usize % held.len();
                    held.rotate_left(turn);
                }
                let columns: Vec<TxId> = held.iter().map(Transaction::id).collect();
                let compact = block.compact_slice(k, &columns).unwrap();
                let slice = block.slice(k).unwrap();
                let expanded = compact.expand(&held).unwrap();
                proptest::prop_assert_eq!(&expanded, &slice);
                let bytes = |s: &BlockSlice| -> Vec<u8> {
                    let mut bytes = Vec::new();
                    s.transactions.iter().for_each(|t| t.encode_into(&mut bytes));
                    bytes
                };
                proptest::prop_assert_eq!(bytes(&expanded), bytes(&slice));
                proptest::prop_assert!(compact.verify(&held, &block.header));
                // Held entries are the shard's own; bodies are inbound.
                for (entry, tx) in compact.entries.iter().zip(&slice.transactions) {
                    match entry {
                        SliceEntry::Held(c) => {
                            proptest::prop_assert_eq!(&held[usize::from(*c)], tx);
                        }
                        SliceEntry::Body(body) => {
                            proptest::prop_assert_eq!(body, tx);
                            proptest::prop_assert_ne!(source(tx, m), Some(k));
                        }
                    }
                }
                let bodies: u64 = slice.transactions.iter().map(|t| t.wire_size()).sum();
                let words = 2 * compact.entries.len() as u64;
                let sent: u64 = compact.entries.iter().map(|e| match e {
                    SliceEntry::Held(_) => 0,
                    SliceEntry::Body(tx) => tx.wire_size(),
                }).sum();
                proptest::prop_assert_eq!(compact.wire_size(), words + sent + Block::path_bytes(m));
                proptest::prop_assert!(sent <= bodies);

                if let Some(first) = compact.entries.iter().position(|e| matches!(e, SliceEntry::Held(_))) {
                    // A column past the member's TXList, and one it holds
                    // but that names another transaction.
                    let mut past = compact.clone();
                    past.entries[first] = SliceEntry::Held(held.len() as u16);
                    proptest::prop_assert!(!past.verify(&held, &block.header));
                    let SliceEntry::Held(c) = compact.entries[first] else { unreachable!() };
                    let mut short = held.clone();
                    short.truncate(usize::from(c));
                    proptest::prop_assert!(!compact.verify(&short, &block.header));
                    if held.len() > 1 {
                        let mut wrong = compact.clone();
                        let shifted = (usize::from(c) + 1) % held.len();
                        wrong.entries[first] = SliceEntry::Held(shifted as u16);
                        proptest::prop_assert!(!wrong.verify(&held, &block.header));
                    }
                }
                if compact.entries.len() > 1 {
                    let mut swapped = compact.clone();
                    let last = swapped.entries.len() - 1;
                    swapped.entries.swap(0, last);
                    proptest::prop_assert!(!swapped.verify(&held, &block.header));
                    let mut reordered = compact.clone();
                    reordered.entries.rotate_left(1);
                    proptest::prop_assert!(!reordered.verify(&held, &block.header));
                }
                if let Some(first) = compact.entries.first() {
                    // A tampered body: another transaction in the entry's place.
                    let mut tampered = compact.clone();
                    tampered.entries[0] = SliceEntry::Body(other.clone());
                    proptest::prop_assert!(!tampered.verify(&held, &block.header));
                    // Sent whole instead of by column, it still verifies.
                    let mut whole = compact.clone();
                    whole.entries[0] = SliceEntry::Body(slice.transactions[0].clone());
                    proptest::prop_assert!(whole.verify(&held, &block.header), "{first:?}");
                }
                let mut elsewhere = compact.clone();
                elsewhere.shard = (k + 1) % m;
                proptest::prop_assert_eq!(elsewhere.verify(&held, &block.header), m == 1);

                // The member's configuration row.
                let share = block.config_share(Some(k)).unwrap();
                proptest::prop_assert!(share.verify(&block.header));
                let mut tampered = share.clone();
                tampered.row.as_mut().unwrap().row.seats[1].reputation_fp -= 1;
                proptest::prop_assert!(!tampered.verify(&block.header));
                if m > 1 {
                    let mut misplaced = share.clone();
                    misplaced.row.as_mut().unwrap().committee = (k + 1) % m;
                    proptest::prop_assert!(!misplaced.verify(&block.header));
                }
            }
        }
    }
}
