#!/usr/bin/env python3
"""CI perf gates for the round-engine data plane and the authenticated
state layer.

Each gate runs one ``gen_bench_*`` binary -- the same run that is committed
-- and checks the rows of its table in ``GATES`` against the report. A row
names one key path, read from the report and, for a row gated against its
committed value, from the same path under the gate's block of its
``BENCH_*.json``. Its bound is one of three kinds:

* the committed value itself, for an exact count (``better="equal"``):
  allocations and operation counts repeat to the digit from run to run, so
  the row fails unless the measured value equals the committed one (``==``
  on the printed digits). Each prints as its 16-round mean to four places,
  which a mean over 16 fills exactly, so one more in a single round moves
  it. A count that rises is a regression; one that falls is a baseline
  nobody re-recorded, and the next regression could hide in the gap;
* the committed value within a tolerance, for a wall-clock row:
  ``PERF_GATE_TOLERANCE`` (default 20%). A higher-is-better value fails
  when measured < committed * (1 - tol), a lower-is-better one when
  measured > committed * (1 + tol); an improvement never fails;
* a fixed cap or floor that holds on any machine, whatever the baseline
  says.

A failed run lists every exact row that moved, with its committed value,
its measured value and their ratio. Re-record the ``BENCH_*.json`` with the
matching ``gen_bench_*`` binary when a PR moves the numbers on purpose (see
the ``regeneration`` field in each JSON for the full recipe), and say why
in CHANGES.md.

Default mode (no arguments) gates ``gen_bench_round`` (the tracked
configuration: 8x16, one warm-up round, then 16 measured rounds a series):
``rounds_per_sec`` and ``allocations_per_round`` of ``one_worker`` (plain
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
the operation counts of the tracked configuration's two one-worker series
(``one_worker.opcount`` and ``one_worker_epoch.opcount``, per round over
the same 16 measured rounds; the epoch series' carry the beacon, churn,
state sync and the boundary's second draw) -- field multiplications and
squarings, inversions, doublings, mixed additions, batched affine
additions, SHA-256 compressions, DRBG instantiations, signatures verified
singly and in batches, memo lookups, envelopes, latency draws, VRF
evaluations and VRF proofs checked -- against the same keys under
``BENCH_round.json``'s ``verified``. They are counted on the driver thread,
where a one-worker round runs every task, so they repeat to the digit on
any machine and are all exact rows; run at a change, the list of moved rows
is what the change did to the counts. Before any row, the gate compares the
report's set of ``*.opcount.*`` keys with the committed set and fails on a
key either side lacks: a count the binary stopped emitting, or one it
emits that nobody recorded. They are the release build's: in a
dev-profile build ``hash_to_curve``'s ``debug_assert!(p.is_on_curve())``
adds three field operations a round, so the ``==`` belongs to this release
run, not to a debug opcount test.

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

What needs no measuring build is not gated here. The open-loop latency
sweep is virtual time, and the tracked round's envelopes, bytes and
executor batches are the same at any worker count: they are the
``latency`` and ``tracked_round`` blocks of ``BENCH_paper.json``, which
tier-1 compares with the document the code builds, value for value.

``--self-test`` (alone for the round gate, or after ``--counts`` /
``--state``) runs no benchmark: for every row of the gate it feeds the moves
of ``SELF_TEST`` through the same check the real gate runs -- for an exact
row one unit of its last printed digit up and down, which must both fail,
and the committed value, which must pass; for any other row one move that
must fail and one that must pass. The moves are written from what each
metric means, not from the row's direction, so a row whose direction is
flipped, whose cap is loosened or that gains a band fails here. For
``--counts`` it also plants one extra and one missing ``*.opcount.*`` key
in a copy of the committed block, each of which the shape check must fail,
and checks that every committed count has a row. CI runs it before each
gate. ``PERF_GATE_TOLERANCE=0.35`` etc. widens the wall-clock
tolerance if a shared runner proves noisier; the exact rows stay exact.
"""

import contextlib
import copy
import decimal
import functools
import io
import json
import os
import pathlib
import subprocess
import sys
from typing import Callable, NamedTuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TOLERANCE = float(os.environ.get("PERF_GATE_TOLERANCE", "0.20"))


class Row(NamedTuple):
    """One gated number."""

    # The key path of the value, dot-separated: read from the run's report
    # and, for a row gated against its committed value, from the gate's block
    # of the committed BENCH_*.json. A derived row names its value here.
    path: str
    # "higher" or "lower", or "equal" for an exact count, which must equal
    # its committed value.
    better: str
    # A fixed cap (better lower) or floor (better higher); None gates against
    # the committed value.
    limit: float | None = None
    # A value the report holds under no key: a function of the report that
    # returns None when this runner cannot measure it.
    derive: Callable[[dict], float | None] | None = None


def parallel_speedup(report: dict) -> float | None:
    """The median of the run's three paired parallel / one_worker rounds/s
    ratios; None on a one-core runner, which runs no parallel series."""
    return report.get("parallel_speedup")


# The one-worker series of the round gate.
SERIES = ("one_worker", "one_worker_epoch")

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


def opcount_keys(block: dict) -> set:
    """Every ``<series>.opcount.<count>`` path of a round report or of the
    committed block it mirrors."""
    return {
        f"{series}.opcount.{metric}"
        for series, value in block.items()
        if isinstance(value, dict)
        for metric in value.get("opcount", {})
    }


GATES = {
    "round": Gate(
        "gen_bench_round",
        (),
        "BENCH_round.json",
        ("verified",),
        (
            *(Row(f"{series}.rounds_per_sec", "higher") for series in SERIES),
            *(Row(f"{series}.allocations_per_round", "equal") for series in SERIES),
            Row("parallel_speedup", "higher", 1.25, derive=parallel_speedup),
        ),
    ),
    "counts": Gate(
        "gen_bench_round",
        ("opcount",),
        "BENCH_round.json",
        ("verified",),
        tuple(
            Row(f"{series}.opcount.{metric}", "equal")
            for series in SERIES
            for metric in OP_COUNTS
        ),
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


class Digits(NamedTuple):
    """A move of the committed value by whole units of its last printed
    digit; zero units is the committed value itself."""

    units: int


# Per row: (a move that must fail, a move that must pass) and, for an exact
# row, a third that must fail too. UP / DOWN scale the committed value past
# the tolerance, Digits moves it in its last printed digit; a number is the
# measured value itself. Written from what each metric means -- fewer
# rounds/s is worse, an exact count that moves by one either way is a count
# that changed, a 1.2x speed-up is a phase gone serial -- and never derived
# from the row, so a flipped direction, a loosened cap or a band on an exact
# row fails.
EXACT = (Digits(1), Digits(0), Digits(-1))
SELF_TEST = {
    **{f"{series}.rounds_per_sec": (DOWN, UP) for series in SERIES},
    **{f"{series}.allocations_per_round": EXACT for series in SERIES},
    "parallel_speedup": (1.2, 1.6),
    **{f"{series}.opcount.{metric}": EXACT for series in SERIES for metric in OP_COUNTS},
    "tracked.smt_lookup_over_map_lookup": (3.1, 1.1),
    "tracked.smt_apply_over_map_apply": (2.3, 1.8),
    "tracked.smt_arena_slots_per_live_utxo": (3.05, 2.44),
    "tracked.smt_commit_over_map_apply": (UP, DOWN),
    # One allocation in the 100 counted churn rounds.
    "tracked.smt_allocations_per_round": (0.01, 0.0),
}


def node(document: dict, path: str):
    return functools.reduce(lambda node, key: node[key], path.split("."), document)


def dig(document: dict, path: str) -> float:
    return float(node(document, path))


def moved_digits(document: dict, path: str, units: int) -> float:
    """The value at `path` moved by `units` of its last printed digit."""
    value = decimal.Decimal(node(document, path))
    return float(value + decimal.Decimal(units).scaleb(value.as_tuple().exponent))


def check(row: Row, measured: float, committed: dict, failures: list) -> None:
    """Prints the row's verdict line; appends (row, measured) on failure.
    `committed` is the gate's block of its file."""
    higher = row.better == "higher"
    if row.better == "equal":
        value = dig(committed, row.path)
        against, ok, failed = f"committed {value!r} (gate ==)", measured == value, "MOVED"
    elif row.limit is None:
        value = dig(committed, row.path)
        limit = value * (1.0 - TOLERANCE if higher else 1.0 + TOLERANCE)
        against = f"committed {value:.3f} (gate {'>=' if higher else '<='} {limit:.3f})"
        ok, failed = (measured >= limit if higher else measured <= limit), "REGRESSION"
    else:
        against = f"hard {'floor' if higher else 'cap'} {row.limit:.3f}"
        ok = measured >= row.limit if higher else measured <= row.limit
        failed = "BELOW FLOOR" if higher else "CAP EXCEEDED"
    shown = f"{measured!r}" if row.better == "equal" else f"{measured:.3f}"
    print(f"{row.path}: measured {shown} vs {against} ... {'ok' if ok else failed}")
    if not ok:
        failures.append((row, measured))


def print_moved(failures: list, committed: dict, file: str) -> None:
    """Lists every exact row among `failures` with both values and their
    ratio."""
    moved = [(row.path, dig(committed, row.path), measured) for row, measured in failures if row.better == "equal"]
    if not moved:
        return
    print(f"{'moved row':<48} {'committed':>14} {'measured':>14} {'ratio':>9}")
    for path, value, measured in moved:
        ratio = f"{measured / value:9.4f}" if value else f"{'-':>9}"
        print(f"{path:<48} {value:>14.4f} {measured:>14.4f} {ratio}")
    print(f"if the move is meant, re-record {file} (its 'regeneration' field) and say why in CHANGES.md")


def shape_errors(gate: Gate, report: dict, committed: dict) -> list:
    """One line per ``*.opcount.*`` key that the report and the committed
    block do not share, for the gate whose build counts (the others' reports
    carry no counts)."""
    if "opcount" not in gate.features:
        return []
    measured, recorded = opcount_keys(report), opcount_keys(committed)
    return [f"{key}: in the report, not committed" for key in sorted(measured - recorded)] + [
        f"{key}: committed, not in the report" for key in sorted(recorded - measured)
    ]


def with_key(document: dict, path: str, value) -> dict:
    """A copy of `document` with `path` set to `value`, or removed when
    `value` is None."""
    document = copy.deepcopy(document)
    parent, leaf = path.rsplit(".", 1)
    if value is None:
        del node(document, parent)[leaf]
    else:
        node(document, parent)[leaf] = value
    return document


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
            if isinstance(move, Digits):
                measured = moved_digits(committed, row.path, move.units)
                what = f"{move.units:+d} in its last digit"
            elif isinstance(move, str):
                reference = dig(committed, row.path) if row.limit is None else row.limit
                step = TOLERANCE + 0.10
                measured = reference * (1.0 + step if move == UP else 1.0 - step)
                what = f"{move} {step:.0%}"
            else:
                measured, what = move, f"at {move}"
            print(f"self-test: {row.path} {what} must {'fail' if must_fail else 'pass'}")
            failures = []
            check(row, measured, committed, failures)
            if bool(failures) != must_fail:
                print(f"self-test FAILED: {row.path} {what}", file=sys.stderr)
                broken += 1
        moves = len(SELF_TEST.get(row.path, ()))
        if moves != (3 if row.better == "equal" else 2):
            print(f"self-test FAILED: {row.path} has {moves} moves", file=sys.stderr)
            broken += 1
    # Every exact row moved at once is listed, one line each, in row order.
    planted = [(row, moved_digits(committed, row.path, 1)) for row in gate.rows if row.better == "equal"]
    listing = io.StringIO()
    with contextlib.redirect_stdout(listing):
        print_moved(planted, committed, gate.committed)
    listed = [line.split()[0] for line in listing.getvalue().splitlines()[1:-1]]
    if listed != [row.path for row, _ in planted]:
        print(f"self-test FAILED: moved rows listed as {listed}", file=sys.stderr)
        broken += 1
    if "opcount" in gate.features:
        recorded = opcount_keys(committed)
        unrowed = sorted(recorded ^ {row.path for row in gate.rows})
        if unrowed:
            print(f"self-test FAILED: committed without a row or a row not committed: {unrowed}", file=sys.stderr)
            broken += 1
        first = min(recorded)
        extra = first.rsplit(".", 1)[0] + ".planted_per_round"
        for report, what, must_fail in (
            (committed, "the committed keys", False),
            (with_key(committed, extra, 0), f"an extra {extra}", True),
            (with_key(committed, first, None), f"no {first}", True),
        ):
            print(f"self-test: a report with {what} must {'fail' if must_fail else 'pass'}")
            errors = shape_errors(gate, report, committed)
            for line in errors:
                print(line)
            if bool(errors) != must_fail:
                print(f"self-test FAILED: a report with {what}", file=sys.stderr)
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
    # Fractions keep their printed digits, which the exact rows' moves read.
    baseline = json.loads((REPO_ROOT / gate.committed).read_text(), parse_float=decimal.Decimal)
    committed = functools.reduce(lambda node, key: node[key], gate.block, baseline)
    if run_self_test:
        return self_test(gate, committed)

    report = run_bench(gate.binary, gate.features)
    if report is None:
        return 1
    shape = shape_errors(gate, report, committed)
    for line in shape:
        print(line)
    if shape:
        print(f"perf gate FAILED (the report's keys differ from {gate.committed}'s; see above)", file=sys.stderr)
        return 1
    failures = []
    for row in gate.rows:
        measured = row.derive(report) if row.derive else dig(report, row.path)
        if measured is None:
            print(f"{row.path}: not measured on this runner (one core) ... skipped")
        else:
            check(row, measured, committed, failures)
    if failures:
        print_moved(failures, committed, gate.committed)
        names = ", ".join(row.path for row, _ in failures)
        print(f"perf gate FAILED ({names} vs {gate.committed}; see above)", file=sys.stderr)
        return 1
    print(f"perf gate passed (tolerance {TOLERANCE:.0%}, exact rows ==)")
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
