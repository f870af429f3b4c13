//! Blocks produced by the referee committee.
//!
//! At the end of round `r` the referee committee `C_R` packs (§IV-G):
//! the valid `TXdecSET`s of every committee, the next round's participants and
//! their reputations, the next referee committee, the next leaders and partial
//! sets, and the next round's randomness `R^{r+1}`. Releasing the block tells
//! every node the configuration of round `r+1`.
//!
//! Releasing it does not send the whole block to every node (a departure from
//! §IV-G; ARCHITECTURE.md). The body is cut into `m` slices: slice `k` is
//! the block's transactions that touch shard `k` — an input or an output
//! there — in block order ([`index_slices`]), so a cross-shard transaction is
//! in each of its shards' slices. The header's body root is the Merkle root
//! over the `m` slice roots, and the referee's certificate covers the header.
//! Every node receives the header and the next round's configuration; a
//! member of committee `k` also receives slice `k` with its ⌈log₂ m⌉-hash
//! path ([`BlockSlice`]) and checks it against the certified body root. The
//! body root fixes each slice's order, which is all a shard's apply reads:
//! two transactions that share no shard cannot depend on each other.

use std::sync::OnceLock;

use cycledger_crypto::merkle::{MerkleProof, MerkleTree};
use cycledger_crypto::sha256::{hash_parts, Digest, Sha256};

use crate::transaction::Transaction;

/// Committee configuration for the next round, as committed inside a block.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct NextRoundConfig {
    /// Node indices participating in round `r+1` (PoW solvers).
    pub participants: Vec<u32>,
    /// Updated reputation (fixed-point, 1e6 = 1.0) for each participant, in the
    /// same order as `participants`.
    pub reputations_fp: Vec<i64>,
    /// Members of the next referee committee.
    pub referee: Vec<u32>,
    /// Leader of each committee `k`.
    pub leaders: Vec<u32>,
    /// Partial set of each committee `k`.
    pub partial_sets: Vec<Vec<u32>>,
    /// Next round's randomness `R^{r+1}` from the beacon.
    pub randomness: Digest,
}

impl NextRoundConfig {
    /// Bytes of the encoded configuration, as a node receives it.
    pub fn wire_size(&self) -> u64 {
        (4 + 4 * self.participants.len()
            + 4
            + 8 * self.reputations_fp.len()
            + 4
            + 4 * self.referee.len()
            + 4
            + 4 * self.leaders.len()
            + 4
            + self
                .partial_sets
                .iter()
                .map(|ps| 4 + 4 * ps.len())
                .sum::<usize>()
            + 32) as u64
    }

    fn encode(&self) -> Vec<u8> {
        // Exact encoded size, so the buffer never regrows mid-encode.
        let mut out = Vec::with_capacity(self.wire_size() as usize);
        let push_list = |out: &mut Vec<u8>, xs: &[u32]| {
            out.extend_from_slice(&(xs.len() as u32).to_be_bytes());
            for x in xs {
                out.extend_from_slice(&x.to_be_bytes());
            }
        };
        push_list(&mut out, &self.participants);
        out.extend_from_slice(&(self.reputations_fp.len() as u32).to_be_bytes());
        for r in &self.reputations_fp {
            out.extend_from_slice(&r.to_be_bytes());
        }
        push_list(&mut out, &self.referee);
        push_list(&mut out, &self.leaders);
        out.extend_from_slice(&(self.partial_sets.len() as u32).to_be_bytes());
        for ps in &self.partial_sets {
            push_list(&mut out, ps);
        }
        out.extend_from_slice(self.randomness.as_bytes());
        out
    }
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
    /// Hash of the next-round configuration.
    pub config_hash: Digest,
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
            self.config_hash.as_bytes(),
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
        let body_root = Self::body_tree(&transactions, slices).root();
        let config_hash = hash_parts(&[b"cycledger/next-round", &next_round.encode()]);
        Block {
            header: BlockHeader {
                round,
                prev_hash,
                body_root,
                config_hash,
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
    /// slice): each transaction's **memoized** canonical encoding is hashed
    /// straight into the tree's flat node vector — no re-encoding, no staged
    /// `Vec<Vec<u8>>` of leaves.
    pub fn tx_root(transactions: &[Transaction]) -> Digest {
        MerkleTree::build_from_slices(transactions.iter().map(|t| t.encoded_bytes())).root()
    }

    /// The Merkle tree over the slice roots of `transactions` under its
    /// [`index_slices`] index, whose root is the body root ([`Digest::ZERO`]
    /// for `m = 0`): one scratch tree hashes every slice, then their roots.
    fn body_tree(transactions: &[Transaction], slices: &[Vec<usize>]) -> MerkleTree {
        let mut tree = MerkleTree::default();
        let roots: Vec<Digest> = slices
            .iter()
            .map(|positions| {
                tree.rebuild_from_slices(
                    positions.iter().map(|&p| transactions[p].encoded_bytes()),
                );
                tree.root()
            })
            .collect();
        tree.rebuild_from_slices(roots.iter().map(|root| root.as_bytes().as_slice()));
        tree
    }

    /// Bytes of a slice's path to the body root over `m` slices: ⌈log₂ m⌉
    /// sibling digests.
    pub fn path_bytes(m: usize) -> u64 {
        32 * u64::from(m.next_power_of_two().trailing_zeros())
    }

    /// Slice `shard` of the body with its path to the body root: what a
    /// member of committee `shard` receives besides the header. `None` past
    /// the block's shards.
    pub fn slice(&self, shard: usize) -> Option<BlockSlice> {
        let mut slices = Vec::new();
        index_slices(&self.transactions, self.shards, &mut slices);
        let path = Self::body_tree(&self.transactions, &slices).prove(shard)?;
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
    /// slice.
    pub fn verify_structure(&self) -> bool {
        let mut slices = Vec::new();
        index_slices(&self.transactions, self.shards, &mut slices);
        let in_a_slice = |t: &Transaction| !t.inputs().is_empty() || !t.outputs().is_empty();
        (self.shards > 0 || self.transactions.is_empty())
            && self.transactions.iter().all(in_a_slice)
            && self.header.body_root == Self::body_tree(&self.transactions, &slices).root()
            && self.header.config_hash
                == hash_parts(&[b"cycledger/next-round", &self.next_round.encode()])
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

/// Indexes `transactions` by touched shard into `slices`: entry `k` lists, in
/// block order, the positions of the transactions with an input or an output
/// in shard `k` of `m` — slice `k` of a block's body. One pass and one shard
/// lookup per input and output; `slices` keeps its buffers across calls.
pub fn index_slices(transactions: &[Transaction], m: usize, slices: &mut Vec<Vec<usize>>) {
    slices.resize_with(m, Vec::new);
    for positions in slices.iter_mut() {
        positions.clear();
    }
    if m == 0 {
        return;
    }
    for (position, tx) in transactions.iter().enumerate() {
        let owners = tx
            .inputs()
            .iter()
            .map(|input| input.owner)
            .chain(tx.outputs().iter().map(|output| output.owner));
        for owner in owners {
            let positions = &mut slices[owner.shard(m)];
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

    /// Appends a block after checking it extends the tip and is well formed.
    pub fn append(&mut self, block: Block) -> Result<(), ChainError> {
        if block.header.prev_hash != self.tip_hash {
            return Err(ChainError::WrongParent);
        }
        if block.header.round != self.blocks.len() as u64 {
            return Err(ChainError::WrongRound);
        }
        if !block.verify_structure() {
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
        let config = NextRoundConfig {
            participants: vec![0, 1, 2, 3],
            reputations_fp: vec![0, 1_000_000, -500_000, 250_000],
            referee: vec![0, 1],
            leaders: vec![2],
            partial_sets: vec![vec![3]],
            randomness: hash_parts(&[b"seed", &round.to_be_bytes()]),
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
        tampered.next_round.leaders[0] = 99;
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
        chain.append(block).unwrap();
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
        chain.append(b0).unwrap();
        let b1 = sample_block(1, chain.tip_hash());
        chain.append(b1).unwrap();
        assert_eq!(chain.height(), 2);
        assert!(chain.block(0).is_some());
        assert!(chain.block(5).is_none());
    }

    #[test]
    fn chain_rejects_wrong_parent_round_and_structure() {
        let mut chain = Chain::new();
        let b0 = sample_block(0, chain.tip_hash());
        chain.append(b0).unwrap();

        let wrong_parent = sample_block(1, Digest::ZERO);
        assert_eq!(chain.append(wrong_parent), Err(ChainError::WrongParent));

        let wrong_round = sample_block(5, chain.tip_hash());
        assert_eq!(chain.append(wrong_round), Err(ChainError::WrongRound));

        let mut bad = sample_block(1, chain.tip_hash());
        bad.transactions.clear();
        assert_eq!(chain.append(bad), Err(ChainError::BadStructure));
        assert_eq!(chain.height(), 1);
    }

    #[test]
    fn fees_and_sizes() {
        let block = sample_block(0, Digest::ZERO);
        assert_eq!(block.total_fees(), 0, "genesis transactions carry no fee");
        let tx_bytes: u64 = block.transactions.iter().map(|t| t.wire_size()).sum();
        let config = block.next_round.encode().len() as u64;
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
            chain.append(block).unwrap();
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
            chain.append(block).unwrap();
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
        let appends = |tampered: Block| Chain::new().append(tampered);
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
            assert_eq!(Chain::new().append(block), Ok(()));
        }
        let none = assemble(0, Digest::ZERO, Vec::new(), 0);
        assert_eq!(none.header.body_root, Digest::ZERO);
    }
}
