//! Blocks produced by the referee committee.
//!
//! At the end of round `r` the referee committee `C_R` packs (§IV-G):
//! the valid `TXdecSET`s of every committee, the next round's participants and
//! their reputations, the next referee committee, the next leaders and partial
//! sets, and the next round's randomness `R^{r+1}`. Releasing the block to the
//! whole network tells every node the configuration of round `r+1`.

use std::sync::OnceLock;

use cycledger_crypto::merkle::MerkleTree;
use cycledger_crypto::sha256::{hash_parts, Digest};

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
    fn encode(&self) -> Vec<u8> {
        // Exact encoded size, so the buffer never regrows mid-encode.
        let capacity = 4
            + 4 * self.participants.len()
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
            + 32;
        let mut out = Vec::with_capacity(capacity);
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
    /// Merkle root over the packed transactions.
    pub tx_root: Digest,
    /// Hash of the next-round configuration.
    pub config_hash: Digest,
}

impl BlockHeader {
    /// The header hash identifying this block.
    pub fn hash(&self) -> Digest {
        hash_parts(&[
            b"cycledger/block-header",
            &self.round.to_be_bytes(),
            self.prev_hash.as_bytes(),
            self.tx_root.as_bytes(),
            self.config_hash.as_bytes(),
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
    }
}

impl Eq for Block {}

impl Block {
    /// Assembles a block for `round` on top of `prev_hash`.
    pub fn assemble(
        round: u64,
        prev_hash: Digest,
        transactions: Vec<Transaction>,
        next_round: NextRoundConfig,
    ) -> Block {
        let tx_root = Self::tx_root(&transactions);
        let config_hash = hash_parts(&[b"cycledger/next-round", &next_round.encode()]);
        Block {
            header: BlockHeader {
                round,
                prev_hash,
                tx_root,
                config_hash,
            },
            transactions,
            next_round,
            header_hash: OnceLock::new(),
        }
    }

    /// The header hash, computed once and memoized.
    pub fn header_hash(&self) -> Digest {
        *self.header_hash.get_or_init(|| self.header.hash())
    }

    /// Merkle root over a transaction list: each transaction's **memoized**
    /// canonical encoding is hashed straight into the tree's flat node
    /// vector — no re-encoding, no staged `Vec<Vec<u8>>` of leaves.
    pub fn tx_root(transactions: &[Transaction]) -> Digest {
        MerkleTree::build_from_slices(transactions.iter().map(|t| t.encoded_bytes())).root()
    }

    /// Verifies internal consistency: the header commits to exactly this body.
    pub fn verify_structure(&self) -> bool {
        self.header.tx_root == Self::tx_root(&self.transactions)
            && self.header.config_hash
                == hash_parts(&[b"cycledger/next-round", &self.next_round.encode()])
    }

    /// Total fee collected by the block (distributed by reputation, §IV-G).
    pub fn total_fees(&self) -> u64 {
        self.transactions.iter().map(|t| t.fee()).sum()
    }

    /// Approximate wire size of the block when propagated to the network.
    pub fn wire_size(&self) -> u64 {
        let tx_bytes: u64 = self.transactions.iter().map(|t| t.wire_size()).sum();
        tx_bytes + self.next_round.encode().len() as u64 + 4 * 32
    }

    /// Number of transactions packed.
    pub fn tx_count(&self) -> usize {
        self.transactions.len()
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
    use crate::transaction::{AccountId, TxOutput};

    fn sample_block(round: u64, prev: Digest) -> Block {
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
        let config = NextRoundConfig {
            participants: vec![0, 1, 2, 3],
            reputations_fp: vec![0, 1_000_000, -500_000, 250_000],
            referee: vec![0, 1],
            leaders: vec![2],
            partial_sets: vec![vec![3]],
            randomness: hash_parts(&[b"seed", &round.to_be_bytes()]),
        };
        Block::assemble(round, prev, txs, config)
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
        assert!(block.wire_size() > 100);
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
    fn empty_block_has_zero_tx_root() {
        let block = Block::assemble(0, Digest::ZERO, vec![], NextRoundConfig::default());
        assert_eq!(block.header.tx_root, Digest::ZERO);
        assert!(block.verify_structure());
    }
}
