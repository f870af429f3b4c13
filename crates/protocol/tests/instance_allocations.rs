//! One Algorithm 3 instance allocates a fixed handful of times per member,
//! not once or more per message: the member machines write into the
//! instance's reaction buffer, the tallies are sized for their quorum, and
//! the verdict memo keeps its messages in one buffer and lends its batch
//! scratch to every quorum check. The binary installs the counting
//! allocator, whose counters are global, so it holds this one test alone.
//!
//! Each instance runs on a network that a warm-up instance of the same
//! committee has already carried (its queue sized, the static curve tables
//! built), so the count is the instance's own: the transport's lists, the
//! machines, the memo, and the messages that carry lists (a CONFIRM's echo
//! signatures, the certificate). Two more honest instances run on fresh
//! networks, and their allocated bytes are pinned too: those count the
//! queue's growth.

use cycledger_consensus::messages::{make_echo, make_propose, Alg3Message, ConsensusId};
use cycledger_crypto::schnorr::Keypair;
use cycledger_crypto::sha256::sha256;
use cycledger_net::latency::{LatencyConfig, LinkClass};
use cycledger_net::network::SimNetwork;
use cycledger_net::time::SimDuration;
use cycledger_protocol::committee::run_inside_consensus;
use cycledger_protocol::{AdversaryConfig, Committee, LeaderFault, NodeRegistry};

use alloccount::AllocSnapshot;

#[global_allocator]
static ALLOC: alloccount::CountingAllocator = alloccount::CountingAllocator;

const PAYLOAD: [u8; 3200] = [0xA5; 3200];

/// A committee of `c` nodes of a seed-4242 registry, led by the first.
fn committee(c: usize) -> (Committee, NodeRegistry) {
    let registry = NodeRegistry::generate(c, &AdversaryConfig::default(), 100, 0, 4242);
    let members = registry.ids();
    let committee = Committee {
        index: 0,
        leader: members[0],
        partial_set: members[1..4].to_vec(),
        keys: registry.committee_keys(&members),
        members,
    };
    (committee, registry)
}

/// What one instance did: its allocations, the SHA-256 of its certificate,
/// evidence and envelope count (every signature byte), and how many
/// signatures it verified one at a time (counted under `opcount` only).
fn instance(
    net: &mut SimNetwork<Alg3Message>,
    (committee, registry): &(Committee, NodeRegistry),
    seq: u64,
    fault: LeaderFault,
) -> (AllocSnapshot, String, u64) {
    let id = ConsensusId { round: 0, seq };
    let (before, singles) = (alloccount::snapshot(), single_verifications());
    let outcome = run_inside_consensus(net, committee, registry, id, PAYLOAD.to_vec(), fault, true);
    let allocations = alloccount::snapshot().since(&before);
    let singles = single_verifications() - singles;
    let seen = format!(
        "{:?} {:?} {}",
        outcome.certificate, outcome.equivocation, outcome.messages
    );
    (allocations, sha256(seen.as_bytes()).to_hex(), singles)
}

/// Signatures this thread has verified one at a time; zero without the
/// `opcount` feature.
fn single_verifications() -> u64 {
    #[cfg(feature = "opcount")]
    return cycledger_crypto::opcount::current().sigs_single;
    #[cfg(not(feature = "opcount"))]
    0
}

/// Posts, before the instance opens, an ECHO in the name of the committee's
/// second member under a signature of an outsider, to every other member.
/// On `in_order`'s network it lands right after the PROPOSE it relays and
/// the leader's ECHO, so each receiver buffers it, and the first quorum batch
/// to hold it fails and falls back to one check per signature.
fn forge_echo(
    net: &mut SimNetwork<Alg3Message>,
    (committee, registry): &(Committee, NodeRegistry),
    seq: u64,
) {
    let id = ConsensusId { round: 0, seq };
    let leader = registry.node(committee.leader).keypair;
    let propose = make_propose(id, PAYLOAD.to_vec(), committee.leader, &leader);
    let claimed = committee.members[1];
    let forged = make_echo(&propose, claimed, &Keypair::from_seed(b"not a member"));
    let message = Alg3Message::Echo(forged);
    let (class, size) = (LinkClass::IntraCommittee, message.wire_size());
    let others = committee.members.iter().filter(|&&to| to != claimed);
    net.multicast_after(claimed, others.copied(), class, message, size, ONE_LEG);
}

/// Every leg of the network takes this long, so it delivers in send order.
const ONE_LEG: SimDuration = SimDuration::from_micros(1);

fn in_order() -> SimNetwork<Alg3Message> {
    let config = LatencyConfig {
        delta: ONE_LEG,
        ..LatencyConfig::default()
    };
    SimNetwork::new(config, 4242)
}

/// `(instance, allocations, SHA-256 of what it produced)`. The digests are
/// what the same instances produced before their buffers were reused, when
/// they made 214, 89, 196, 198 and 478 allocations.
#[rustfmt::skip]
const PINNED: [(&str, u64, &str); 5] = [
    ("c = 15 honest", 61, "1e1d473091434ee89510bd49f57cbf5ecb49c9cd2872ec80730b0faf7754d14d"),
    ("c = 15 equivocating leader", 50, "a6cb70ba5fff081be9937a9eb37cc9809554b786b0bc225d328c77368aa7e456"),
    ("c = 15 honest, in send order", 61, "905bcd6be5d89289bfc2542e2e3bec55070c08994c926c66bf60c7ec32d0356f"),
    ("c = 15 forged ECHO, in send order", 61, "9ccb39a073d47c8443310e49601c2c2fb8c5e1927b42876ccd33d2bd5658c08e"),
    ("c = 31 honest", 109, "a450eb926ec6d505b4f55d26a426229aeed347a1ad83fa2049ffa580f1823733"),
];

/// `(instance, bytes allocated)` for an honest instance on a fresh network,
/// so its queue's growth counts. The queue used to hold each recipient's
/// whole envelope, an ECHO cloned c - 1 times; it holds 24-byte keys over
/// one post per payload now, and the bytes fell 147 087 -> 82 575 at
/// c = 15 and 529 663 -> 253 183 at c = 31.
const FRESH_BYTES: [(&str, u64); 2] = [
    ("c = 15 honest, fresh network", 82_575),
    ("c = 31 honest, fresh network", 253_183),
];

#[test]
fn an_instance_allocates_per_member_not_per_message() {
    assert!(alloccount::counting_enabled());
    let small = committee(15);
    let mut net = SimNetwork::new(LatencyConfig::default(), 4242);
    instance(&mut net, &small, 1, LeaderFault::None);
    let honest = instance(&mut net, &small, 2, LeaderFault::None);
    let alternate = b"another list".to_vec();
    let equivocating = instance(&mut net, &small, 3, LeaderFault::Equivocate { alternate });

    let mut net = in_order();
    instance(&mut net, &small, 1, LeaderFault::None);
    let in_order_honest = instance(&mut net, &small, 2, LeaderFault::None);
    forge_echo(&mut net, &small, 3);
    let forged = instance(&mut net, &small, 3, LeaderFault::None);

    let large = committee(31);
    let mut net = SimNetwork::new(LatencyConfig::default(), 4242);
    instance(&mut net, &large, 1, LeaderFault::None);
    let honest_31 = instance(&mut net, &large, 2, LeaderFault::None);

    let runs = [
        &honest,
        &equivocating,
        &in_order_honest,
        &forged,
        &honest_31,
    ];
    for ((allocations, digest, _), (name, pinned, expected)) in runs.into_iter().zip(PINNED) {
        let allocations = allocations.allocations;
        println!("{name}: {allocations} allocations");
        assert_eq!(digest, expected, "{name}: the outcome moved");
        assert_eq!(allocations, pinned, "{name}");
    }
    assert!(honest.0.allocations <= 64 && honest_31.0.allocations <= 112);

    for (committee, (name, pinned)) in [&small, &large].into_iter().zip(FRESH_BYTES) {
        let mut net = SimNetwork::new(LatencyConfig::default(), 4242);
        let (allocated, _, _) = instance(&mut net, committee, 1, LeaderFault::None);
        println!("{name}: {} bytes", allocated.allocated_bytes);
        assert_eq!(allocated.allocated_bytes, pinned, "{name}");
    }
    // The forgery cost the first batch that held it: its eight signatures
    // were then checked one at a time.
    if cfg!(feature = "opcount") {
        assert_eq!((in_order_honest.2, forged.2), (2, 10));
    }
}
