//! # cycledger-crypto
//!
//! Cryptographic substrate for the CycLedger reproduction, implemented from
//! scratch on top of the standard library:
//!
//! * [`mod@sha256`] — SHA-256, the protocol's random oracle `H`.
//! * [`hmac`] — HMAC-SHA256 and an HMAC-DRBG deterministic byte stream.
//! * [`u256`], [`fe`], [`scalar`], [`point`] — 256-bit integers, the secp256k1
//!   base field, the scalar field, and group arithmetic.
//! * [`schnorr`] — key pairs and Schnorr signatures (the paper's PKI + digital
//!   signature layer).
//! * [`vrf`] — a DLEQ-based verifiable random function used by cryptographic
//!   sortition (Algorithm 1).
//! * [`merkle`] — Merkle trees for block and list commitments.
//! * [`smt`] — sparse-Merkle node hashing and light-client proof
//!   verification for the authenticated state layer.
//! * [`pvss`] — Shamir/Feldman publicly verifiable secret sharing; the SCRAPE
//!   substitute powering the randomness beacon (§IV-F, §V-A).
//! * [`pow`] — the participation proof-of-work puzzle (§IV-F).
//!
//! All primitives are deterministic given explicit seeds, which keeps the
//! protocol simulation and the benchmark harness reproducible.

#![warn(missing_docs)]

pub mod fe;
pub mod fxhash;
pub mod hmac;
pub mod merkle;
pub mod opcount;
pub mod point;
pub mod pow;
pub mod pvss;
pub mod scalar;
pub mod schnorr;
pub mod sha256;
pub mod smt;
pub mod u256;
pub mod vrf;

pub use merkle::{MerkleProof, MerkleTree};
pub use pow::{PowSolution, Puzzle};
pub use pvss::{deal, reconstruct, run_beacon, verify_share, Dealing, Share};
pub use schnorr::{
    batch_verify, sign, verify, BatchEntry, Keypair, PublicKey, SecretKey, Signature,
};
pub use sha256::{hash_domain, hash_parts, sha256, Digest};
pub use smt::{verify_proof, ProofError, ProofTerminal, StateProof};
pub use vrf::{evaluate as vrf_evaluate, verify as vrf_verify, VrfOutput, VrfProof};
