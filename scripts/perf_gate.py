#!/usr/bin/env python3
"""CI perf gates for the round-engine data plane and the authenticated
state layer.

Each gate runs one ``gen_bench_*`` binary -- the same run that is committed
-- and checks the rows of its table in ``GATES`` against the report. A row
names one key path, read from the report and, for a row gated against its
committed value, from the same path under the gate's block of its
``BENCH_*.json``. Its bound is one of two kinds:

* the committed value. The row fails on a regression of more than its
  tolerance -- ``PERF_GATE_TOLERANCE`` (default 20%) unless the row carries
  its own: a higher-is-better value fails when measured < committed *
  (1 - tol), and a lower-is-better value fails when measured > committed *
  (1 + tol);
* a fixed cap or floor that holds on any machine, whatever the baseline
  says.

A row with a tolerance of its own is an exact count (allocations and
envelopes repeat to the digit from run to run). It is gated both ways: a
regression past its tolerance fails, and so does an improvement of more
than ``STALE`` (5%), with "re-record <BENCH file>" -- a change that makes
the count fall lands its new count as the baseline, so the next regression
cannot hide in the gap. Improvements never fail any other committed row. Re-bless the
``BENCH_*.json`` with the matching ``gen_bench_*`` binary when a PR moves
the numbers on purpose (see the ``regeneration`` field in each JSON for the
full recipe).

Default mode (no arguments) gates ``gen_bench_round`` (the tracked
configuration: 8x16, one warm-up round, then 16 measured rounds a series):
``rounds_per_sec``, ``allocations_per_round``, ``messages_per_round``,
``bytes_per_round`` and ``batches_per_round`` of ``one_worker`` (plain
rounds) and ``one_worker_epoch`` (``epoch_length=2``, so every second round
pays the full boundary: beacon, churn, state sync, reshuffle) against
``BENCH_round.json``'s ``verified`` block. The same run gates machine
parallelism: ``parallel_speedup`` must reach the 1.25 floor. The binary
alternates three one-worker and three parallel series (the plain config at
the runner's ``parallel_workers``) and reports the median of the three
pairs' parallel / one-worker ratios; each pair runs back to back on one
machine, so runner speed cancels, and the median drops towards 1.0 when a
phase that should be an executor batch runs on the driver thread again. (It
was one one-worker series against the fastest of three parallel ones, which
read 1.07 on an unchanged tree when the host slowed between them.) A
one-core runner emits no parallel series and the row is skipped with a
notice.

``--counts`` gates ``gen_bench_round`` built with ``--features opcount``:
the operation counts of the tracked configuration's one-worker series
(``one_worker.opcount``, per round over the same 16 measured rounds) --
field multiplications and squarings, inversions, doublings, mixed
additions, batched affine additions, SHA-256 compressions, DRBG
instantiations, signatures verified
singly and in batches, memo lookups, envelopes, latency draws, VRF
evaluations and VRF proofs checked -- against
``BENCH_round.json``'s ``verified.one_worker.opcount``. They are counted on
the driver thread, where a one-worker round runs every task, so they repeat
to the digit on any machine and are all exact rows: a kernel that loses a
table, a phase that verifies a signature twice, or an envelope that comes
back moves one past its 1%, and a count that falls by more than 5% wants
its baseline re-recorded.

``--state`` gates ``gen_bench_state`` (flat map vs sparse Merkle store over
a 10^6-entry UTXO set). The per-transaction hot paths carry hard caps --
lookup within 3x and apply within 2.2x of the flat map -- because those
bounds make the authenticated backend deployable on the transaction path,
and so does the resident tree: at most 3.0 arena slots per live UTXO after
the write rounds, because the tree must follow the live set and not the
number of rounds committed. A churn round's commit allocates nothing once
the fold's buffers are sized: the SMT's allocations over the 100 churn
rounds after its first are capped at zero, so one allocation there fails.
The per-round commit ratio is gated against ``BENCH_state.json``: a Merkle
commit pays O(log n) hashes per written key where a hashmap pays one probe,
so no small absolute cap is physically achievable there. Both backends run
through one loop -- lookups in alternating chunks, then a map round and an
SMT round (apply, then commit) at a time, the one that goes first swapping
every round -- and each ratio is taken over the whole loop: neither store
runs more than two rounds in a row, so neither stays cache-warm through
hundreds of its own, and the host drifting during the run slows both
sides alike.

The open-loop latency sweep is not gated here: it is virtual time, so it
is the ``latency`` block of ``BENCH_paper.json``, which tier-1 compares
with the document the code builds, value for value.

``--self-test`` (alone for the round gate, or after ``--counts`` /
``--state``) runs no benchmark: for every row of the gate it feeds the moves
of ``SELF_TEST`` -- one that must fail, one that must pass and, for an
exact row, a stale baseline that must fail too -- through the same check
the real gate runs. The moves are written from what each metric
means, not from the row's direction, so a row whose direction is flipped
or whose cap is loosened fails here. CI runs it before each gate.

Allocation counts come from the counting global allocator, envelope counts
from the rounds' reports and batch counts from the executor (which counts a
batch it runs inline too); all are exact, so the round gate's
``allocations_per_round``, ``messages_per_round``, ``bytes_per_round`` and
``batches_per_round`` rows carry a 1% tolerance. An envelope a phase stops
sending (or starts sending again) moves the middle two by thousands; a phase
that falls back onto an executor barrier of its own moves the last by one.
Rounds/sec is wall clock, so the default tolerance absorbs runner noise.
Override it with ``PERF_GATE_TOLERANCE=0.35`` etc. if a shared runner proves
noisier; the exact rows keep theirs.
"""

import functools
import json
import os
import pathlib
import subprocess
import sys
from typing import Callable, NamedTuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TOLERANCE = float(os.environ.get("PERF_GATE_TOLERANCE", "0.20"))
# An exact row fails when it is better than committed by more than this.
STALE = 0.05


class Row(NamedTuple):
    """One gated number."""

    # The key path of the value, dot-separated: read from the run's report
    # and, for a row gated against its committed value, from the gate's block
    # of the committed BENCH_*.json. A derived row names its value here.
    path: str
    # "higher" or "lower".
    better: str
    # A fixed cap (better lower) or floor (better higher); None gates against
    # the committed value.
    limit: float | None = None
    # The tolerance of an exact count, which is also gated against a stale
    # baseline; None gates within TOLERANCE.
    tolerance: float | None = None
    # A value the report holds under no key: a function of the report that
    # returns None when this runner cannot measure it.
    derive: Callable[[dict], float | None] | None = None


def parallel_speedup(report: dict) -> float | None:
    """The median of the run's three paired parallel / one_worker rounds/s
    ratios; None on a one-core runner, which runs no parallel series."""
    return report.get("parallel_speedup")


# The one-worker series of the round gate, and their exact per-round counts.
SERIES = ("one_worker", "one_worker_epoch")
EXACT_COUNTS = ("allocations_per_round", "messages_per_round", "bytes_per_round", "batches_per_round")

# The counts of ``--counts``: one exact row each.
OP_COUNTS = (
    "field_muls_per_round",
    "inversions_per_round",
    "doublings_per_round",
    "mixed_additions_per_round",
    "batched_additions_per_round",
    "sha256_blocks_per_round",
    "drbg_instantiations_per_round",
    "sigs_single_per_round",
    "sigs_batched_per_round",
    "memo_lookups_per_round",
    "envelopes_per_round",
    "latency_draws_per_round",
    "vrf_evaluations_per_round",
    "vrf_proofs_checked_per_round",
)


class Gate(NamedTuple):
    """A gated binary and the committed block its rows read."""

    binary: str
    # The cargo features the binary is built with.
    features: tuple
    committed: str
    # The key path of the block of `committed` that the run's report mirrors.
    block: tuple
    rows: tuple


GATES = {
    "round": Gate(
        "gen_bench_round",
        (),
        "BENCH_round.json",
        ("verified",),
        (
            *(Row(f"{series}.rounds_per_sec", "higher") for series in SERIES),
            *(Row(f"{series}.{metric}", "lower", tolerance=0.01) for series in SERIES for metric in EXACT_COUNTS),
            Row("parallel_speedup", "higher", 1.25, derive=parallel_speedup),
        ),
    ),
    "counts": Gate(
        "gen_bench_round",
        ("opcount",),
        "BENCH_round.json",
        ("verified",),
        tuple(Row(f"one_worker.opcount.{metric}", "lower", tolerance=0.01) for metric in OP_COUNTS),
    ),
    # The caps hold on any machine: the sparse-Merkle backend answers
    # lookups from its O(1) mirror (~1x measured) and an apply is two
    # hashmap writes plus a delta-buffer insert (~1.8x measured; the 2.2
    # cap keeps the ~1.2x headroom the earlier 4.0 cap had over the 3.3 an
    # earlier loop, whose map applied cache-warm, read). The arena
    # cap bounds resident tree size by the live set: a leaf-collapsed binary
    # trie over uniform keys holds 1 / ln 2 = 1.44 internal nodes per leaf,
    # plus the leaf, plus one round of churn waiting on the free lists. A
    # store that keeps what a commit supersedes adds ~11 slots per write at
    # this tier and is past 3.0 after some 50 rounds (the run commits a few
    # hundred). A churn round's commit allocates nothing once the fold's
    # buffers are sized: the run counts the SMT's allocations over the 100
    # rounds after its first and prints them per round to two places, so the
    # zero cap fails on a single allocation (0.01).
    "state": Gate(
        "gen_bench_state",
        (),
        "BENCH_state.json",
        (),
        (
            Row("tracked.smt_lookup_over_map_lookup", "lower", 3.0),
            Row("tracked.smt_apply_over_map_apply", "lower", 2.2),
            Row("tracked.smt_arena_slots_per_live_utxo", "lower", 3.0),
            Row("tracked.smt_commit_over_map_apply", "lower"),
            Row("tracked.smt_allocations_per_round", "lower", 0.0),
        ),
    ),
}

# A move past the tolerance, applied to a row's committed value.
UP, DOWN = "up", "down"


class By(NamedTuple):
    """A move of the committed value by a fixed factor."""

    factor: float


# Per row: (a move that must fail, a move that must pass) and, for an exact
# row, a third that must fail too: a baseline gone stale. UP / DOWN scale
# the committed value past the tolerance, By scales it by a fixed factor; a
# number is the measured value itself. Written from what each metric means
# -- fewer rounds/s is worse, more allocations are worse, 6% fewer exact
# allocations mean a count nobody re-recorded, a 1.2x speed-up is a phase
# gone serial -- and never derived from the row, so a flipped direction, a
# loosened cap or a loosened exact tolerance fails.
EXACT = (By(1.02), By(0.995), By(0.94))
SELF_TEST = {
    **{f"{series}.rounds_per_sec": (DOWN, UP) for series in SERIES},
    **{f"{series}.{metric}": EXACT for series in SERIES for metric in EXACT_COUNTS},
    "parallel_speedup": (1.2, 1.6),
    **{f"one_worker.opcount.{metric}": EXACT for metric in OP_COUNTS},
    "tracked.smt_lookup_over_map_lookup": (3.1, 1.1),
    "tracked.smt_apply_over_map_apply": (2.3, 1.8),
    "tracked.smt_arena_slots_per_live_utxo": (3.05, 2.44),
    "tracked.smt_commit_over_map_apply": (UP, DOWN),
    # One allocation in the 100 counted churn rounds.
    "tracked.smt_allocations_per_round": (0.01, 0.0),
}


def dig(document: dict, path: str) -> float:
    return float(functools.reduce(lambda node, key: node[key], path.split("."), document))


def check(row: Row, measured: float, committed: dict, failures: list, file: str) -> None:
    """Prints the row's verdict line; appends the row's name on failure.
    `committed` is the gate's block of `file`."""
    higher = row.better == "higher"
    stale = None
    if row.limit is None:
        value = dig(committed, row.path)
        tolerance = TOLERANCE if row.tolerance is None else row.tolerance
        limit = value * (1.0 - tolerance if higher else 1.0 + tolerance)
        against = f"committed {value:.3f} (gate {'>=' if higher else '<='} {limit:.3f})"
        failed = "REGRESSION"
        if row.tolerance is not None:
            stale = value * (1.0 + STALE if higher else 1.0 - STALE)
    else:
        limit = row.limit
        against = f"hard {'floor' if higher else 'cap'} {limit:.3f}"
        failed = "BELOW FLOOR" if higher else "CAP EXCEEDED"
    ok = measured >= limit if higher else measured <= limit
    if ok and stale is not None and (measured > stale if higher else measured < stale):
        ok, failed = False, f"STALE BASELINE: better by more than {STALE:.0%}, re-record {file}"
    print(f"{row.path}: measured {measured:.3f} vs {against} ... {'ok' if ok else failed}")
    if not ok:
        failures.append(row.path)


def run_bench(binary: str, features: tuple) -> dict | None:
    cmd = ["cargo", "run", "-q", "--release", "-p", "cycledger-bench", "--bin", binary]
    if features:
        cmd += ["--features", ",".join(features)]
    print("+", " ".join(cmd), flush=True)
    out = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True)
    print(out.stdout)
    if out.returncode != 0:
        print(out.stderr, file=sys.stderr)
        print(f"perf gate: {binary} failed", file=sys.stderr)
        return None
    return json.loads(out.stdout)


def self_test(gate: Gate, committed: dict) -> int:
    broken = 0
    for row in gate.rows:
        for move, must_fail in zip(SELF_TEST.get(row.path, ()), (True, False, True)):
            reference = dig(committed, row.path) if row.limit is None else row.limit
            if isinstance(move, By):
                measured, what = reference * move.factor, f"by {move.factor - 1.0:+.1%}"
            elif isinstance(move, str):
                step = TOLERANCE + 0.10
                measured = reference * (1.0 + step if move == UP else 1.0 - step)
                what = f"{move} {step:.0%}"
            else:
                measured, what = move, f"at {move}"
            print(f"self-test: {row.path} {what} must {'fail' if must_fail else 'pass'}")
            failures = []
            check(row, measured, committed, failures, gate.committed)
            if bool(failures) != must_fail:
                print(f"self-test FAILED: {row.path} {what}", file=sys.stderr)
                broken += 1
        moves = len(SELF_TEST.get(row.path, ()))
        if moves != (2 if row.tolerance is None else 3):
            print(f"self-test FAILED: {row.path} has {moves} moves", file=sys.stderr)
            broken += 1
    for name in SELF_TEST.keys() - {row.path for gate in GATES.values() for row in gate.rows}:
        print(f"self-test FAILED: {name} has moves but no row", file=sys.stderr)
        broken += 1
    if broken:
        print(f"perf gate self-test FAILED ({broken} case(s))", file=sys.stderr)
        return 1
    print("perf gate self-test passed")
    return 0


def run_gate(name: str, run_self_test: bool) -> int:
    gate = GATES[name]
    baseline = json.loads((REPO_ROOT / gate.committed).read_text())
    committed = functools.reduce(lambda node, key: node[key], gate.block, baseline)
    if run_self_test:
        return self_test(gate, committed)

    report = run_bench(gate.binary, gate.features)
    if report is None:
        return 1
    failures = []
    for row in gate.rows:
        measured = row.derive(report) if row.derive else dig(report, row.path)
        if measured is None:
            print(f"{row.path}: not measured on this runner (one core) ... skipped")
        else:
            check(row, measured, committed, failures, gate.committed)
    if failures:
        print(f"perf gate FAILED ({', '.join(failures)} vs {gate.committed}; see above)", file=sys.stderr)
        return 1
    print(f"perf gate passed (tolerance {TOLERANCE:.0%}, exact rows their own)")
    return 0


def main() -> int:
    args = sys.argv[1:]
    modes = [a for a in args if a in ("--counts", "--state")]
    unknown = [a for a in args if a not in ("--counts", "--state", "--self-test")]
    if unknown or len(modes) > 1:
        print("usage: perf_gate.py [--counts | --state] [--self-test]", file=sys.stderr)
        return 2
    return run_gate(modes[0][2:] if modes else "round", "--self-test" in args)


if __name__ == "__main__":
    sys.exit(main())
