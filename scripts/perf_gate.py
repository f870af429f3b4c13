#!/usr/bin/env python3
"""CI perf gates for the round-engine data plane, the latency harness, and
the authenticated state layer.

Each gate runs one ``gen_bench_* --smoke`` binary and checks the rows of
its table in ``GATES`` against the smoke report. A row names one measured
value and its bound, which is one of two kinds:

* a committed value, read from the gate's ``BENCH_*.json``. The row fails
  on a regression of more than its tolerance -- ``PERF_GATE_TOLERANCE``
  (default 20%) unless the row carries its own: a higher-is-better value
  fails when measured < committed * (1 - tol), and a lower-is-better value
  fails when measured > committed * (1 + tol);
* a fixed cap or floor that holds on any machine, whatever the baseline
  says.

A row with a tolerance of its own is an exact count (allocations repeat to
the digit from run to run). It is gated both ways: a regression past its
tolerance fails, and so does an improvement of more than ``STALE`` (5%),
with "re-record <BENCH file>" -- a change that makes the count fall lands
its new count as the baseline, so the next regression cannot hide in the
gap. Improvements never fail any other committed row. Re-bless the
``BENCH_*.json`` with the matching ``gen_bench_*`` binary when a PR moves
the numbers on purpose (see the ``regeneration`` field in each JSON for the
full recipe).

Default mode (no arguments) gates wall-clock round throughput on
``gen_bench_round --smoke`` (the tracked configuration: 8x16, one worker):
``rounds_per_sec`` and ``allocations_per_round`` of ``smoke_1_worker``
(plain rounds) and ``smoke_epoch_1_worker`` (``epoch_length=2``, so every
second round pays the full boundary: beacon, churn, state sync,
reshuffle) against ``BENCH_round.json``'s ``verified`` series. The same run
gates machine parallelism: ``smoke_N_workers`` (the plain config at the
runner's ``parallel_workers``, fastest of three short runs) over
``smoke_1_worker`` must reach the 1.25 floor. Both sides come from one run
on one machine, so runner speed cancels; the ratio drops towards 1.0 when a
phase that should be an executor batch runs on the driver thread again. A
one-core runner emits no parallel series and the row is skipped with a
notice.

``--latency`` gates ``gen_bench_latency --smoke``: the tracked p99 confirm
latency (at 0.9x capacity) and the saturated throughput against
``BENCH_latency.json``. Both are virtual-time numbers, so a drift means the
protocol changed, never the runner; the tolerance stays because the smoke
sweep measures fewer rounds than the committed full sweep.

``--state`` gates ``gen_bench_state --smoke`` (flat map vs sparse Merkle
store over a 10^6-entry UTXO set). The per-transaction hot paths carry
hard caps -- lookup within 3x and apply within 4x of the flat map --
because those bounds make the authenticated backend deployable on the
transaction path, and so does the resident tree: at most 3.0 arena slots
per live UTXO after the write rounds, because the tree must follow the
live set and not the number of rounds committed. The per-round commit
ratio and allocation count are gated against ``BENCH_state.json``: a Merkle
commit pays O(log n) hashes per written key where a hashmap pays one probe,
so no small absolute cap is physically achievable there.

``--self-test`` (alone for the round gate, or after ``--latency`` /
``--state``) runs no benchmark: for every row of the gate it feeds the moves
of ``SELF_TEST`` -- one that must fail, one that must pass and, for an
exact row, a stale baseline that must fail too -- through the same check
the real gate runs. The moves are written from what each metric
means, not from the row's direction, so a row whose direction is flipped
or whose cap is loosened fails here. CI runs it before each gate.

Allocation counts come from the counting global allocator and are exact:
the round gate's two ``allocations_per_round`` rows carry a 1% tolerance.
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

    # The log label, `<series>.<metric>`.
    name: str
    # Where the value is read in the smoke report: a key path, or a function
    # of the report that returns None when this runner cannot measure it.
    measured: tuple | Callable[[dict], float | None]
    # A key path into the committed BENCH_*.json (gated within the row's
    # tolerance), or a fixed cap (better lower) or floor (better higher).
    bound: tuple | float
    # "higher" or "lower".
    better: str
    # The tolerance of an exact count, which is also gated against a stale
    # baseline; None gates within TOLERANCE.
    tolerance: float | None = None


def parallel_speedup(report: dict) -> float | None:
    """smoke_N_workers / smoke_1_worker rounds/s, both from one run."""
    workers = int(report["parallel_workers"])
    if workers < 2:
        return None
    many = report[f"smoke_{workers}_workers"]["rounds_per_sec"]
    return many / report["smoke_1_worker"]["rounds_per_sec"]


def state_row(metric: str, bound: float | None = None) -> Row:
    """A tracked state-layer ratio: capped at `bound`, or gated against
    its committed value."""
    tracked = ("tracked", metric)
    return Row(f"tracked.{metric}", tracked, tracked if bound is None else bound, "lower")


# gate: (smoke binary, committed baseline, rows)
GATES = {
    "round": (
        "gen_bench_round",
        "BENCH_round.json",
        (
            Row(
                "plain.rounds_per_sec",
                ("smoke_1_worker", "rounds_per_sec"),
                ("verified", "one_worker", "rounds_per_sec"),
                "higher",
            ),
            Row(
                "plain.allocations_per_round",
                ("smoke_1_worker", "allocations_per_round"),
                ("verified", "one_worker", "allocations_per_round"),
                "lower",
                0.01,
            ),
            Row(
                "epoch.rounds_per_sec",
                ("smoke_epoch_1_worker", "rounds_per_sec"),
                ("verified", "one_worker_epoch", "rounds_per_sec"),
                "higher",
            ),
            Row(
                "epoch.allocations_per_round",
                ("smoke_epoch_1_worker", "allocations_per_round"),
                ("verified", "one_worker_epoch", "allocations_per_round"),
                "lower",
                0.01,
            ),
            Row("parallel.speedup", parallel_speedup, 1.25, "higher"),
        ),
    ),
    "latency": (
        "gen_bench_latency",
        "BENCH_latency.json",
        (
            Row("tracked.p99_us", ("tracked", "p99_us"), ("tracked", "p99_us"), "lower"),
            Row("sweep.saturated_tps", ("saturated_tps",), ("saturated_tps",), "higher"),
        ),
    ),
    # The caps hold on any machine: the sparse-Merkle backend answers
    # lookups from its O(1) mirror (~1x measured) and an apply is two
    # hashmap writes plus a delta-buffer insert (~3x measured). The arena
    # cap bounds resident tree size by the live set: a leaf-collapsed binary
    # trie over uniform keys holds 1 / ln 2 = 1.44 internal nodes per leaf,
    # plus the leaf, plus one round of churn waiting on the free lists. A
    # store that keeps what a commit supersedes adds ~11 slots per write at
    # this tier and is past 3.0 after some 50 rounds (the smoke run commits
    # a few hundred). A churn round's commit allocates nothing once the
    # fold's scratch is sized (two smoke runs: 0 and 0), so its count is
    # capped at zero rather than gated relative to a zero baseline.
    "state": (
        "gen_bench_state",
        "BENCH_state.json",
        (
            state_row("smt_lookup_over_map_lookup", 3.0),
            state_row("smt_apply_over_map_apply", 4.0),
            state_row("smt_arena_slots_per_live_utxo", 3.0),
            state_row("smt_commit_over_map_apply"),
            state_row("smt_allocations_per_round", 0.0),
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
    "plain.rounds_per_sec": (DOWN, UP),
    "plain.allocations_per_round": EXACT,
    "epoch.rounds_per_sec": (DOWN, UP),
    "epoch.allocations_per_round": EXACT,
    "parallel.speedup": (1.2, 1.6),
    "tracked.p99_us": (UP, DOWN),
    "sweep.saturated_tps": (DOWN, UP),
    "tracked.smt_lookup_over_map_lookup": (3.1, 1.1),
    "tracked.smt_apply_over_map_apply": (4.1, 3.5),
    "tracked.smt_arena_slots_per_live_utxo": (3.05, 2.44),
    "tracked.smt_commit_over_map_apply": (UP, DOWN),
    "tracked.smt_allocations_per_round": (1.0, 0.0),
}


def dig(document: dict, path: tuple) -> float:
    return float(functools.reduce(lambda node, key: node[key], path, document))


def check(row: Row, measured: float, baseline: dict, failures: list, committed: str) -> None:
    """Prints the row's verdict line; appends the row's name on failure."""
    higher = row.better == "higher"
    stale = None
    if isinstance(row.bound, tuple):
        value = dig(baseline, row.bound)
        tolerance = TOLERANCE if row.tolerance is None else row.tolerance
        limit = value * (1.0 - tolerance if higher else 1.0 + tolerance)
        against = f"committed {value:.3f} (gate {'>=' if higher else '<='} {limit:.3f})"
        failed = "REGRESSION"
        if row.tolerance is not None:
            stale = value * (1.0 + STALE if higher else 1.0 - STALE)
    else:
        limit = row.bound
        against = f"hard {'floor' if higher else 'cap'} {limit:.3f}"
        failed = "BELOW FLOOR" if higher else "CAP EXCEEDED"
    ok = measured >= limit if higher else measured <= limit
    if ok and stale is not None and (measured > stale if higher else measured < stale):
        ok, failed = False, f"STALE BASELINE: better by more than {STALE:.0%}, re-record {committed}"
    print(f"{row.name}: measured {measured:.3f} vs {against} ... {'ok' if ok else failed}")
    if not ok:
        failures.append(row.name)


def run_bench(binary: str) -> dict | None:
    cmd = ["cargo", "run", "-q", "--release", "-p", "cycledger-bench", "--bin", binary, "--", "--smoke"]
    print("+", " ".join(cmd), flush=True)
    out = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True)
    print(out.stdout)
    if out.returncode != 0:
        print(out.stderr, file=sys.stderr)
        print(f"perf gate: {binary} failed", file=sys.stderr)
        return None
    return json.loads(out.stdout)


def self_test(rows: tuple, baseline: dict, committed: str) -> int:
    broken = 0
    for row in rows:
        for move, must_fail in zip(SELF_TEST.get(row.name, ()), (True, False, True)):
            reference = dig(baseline, row.bound) if isinstance(row.bound, tuple) else row.bound
            if isinstance(move, By):
                measured, what = reference * move.factor, f"by {move.factor - 1.0:+.1%}"
            elif isinstance(move, str):
                step = TOLERANCE + 0.10
                measured = reference * (1.0 + step if move == UP else 1.0 - step)
                what = f"{move} {step:.0%}"
            else:
                measured, what = move, f"at {move}"
            print(f"self-test: {row.name} {what} must {'fail' if must_fail else 'pass'}")
            failures = []
            check(row, measured, baseline, failures, committed)
            if bool(failures) != must_fail:
                print(f"self-test FAILED: {row.name} {what}", file=sys.stderr)
                broken += 1
        moves = len(SELF_TEST.get(row.name, ()))
        if moves != (2 if row.tolerance is None else 3):
            print(f"self-test FAILED: {row.name} has {moves} moves", file=sys.stderr)
            broken += 1
    for name in SELF_TEST.keys() - {row.name for gate in GATES.values() for row in gate[2]}:
        print(f"self-test FAILED: {name} has moves but no row", file=sys.stderr)
        broken += 1
    if broken:
        print(f"perf gate self-test FAILED ({broken} case(s))", file=sys.stderr)
        return 1
    print("perf gate self-test passed")
    return 0


def gate(name: str, run_self_test: bool) -> int:
    binary, committed, rows = GATES[name]
    baseline = json.loads((REPO_ROOT / committed).read_text())
    if run_self_test:
        return self_test(rows, baseline, committed)

    report = run_bench(binary)
    if report is None:
        return 1
    failures = []
    for row in rows:
        measured = row.measured(report) if callable(row.measured) else dig(report, row.measured)
        if measured is None:
            print(f"{row.name}: not measured on this runner (one core) ... skipped")
        else:
            check(row, measured, baseline, failures, committed)
    if failures:
        print(f"perf gate FAILED ({', '.join(failures)} vs {committed}; see above)", file=sys.stderr)
        return 1
    print(f"perf gate passed (tolerance {TOLERANCE:.0%}, exact rows their own)")
    return 0


def main() -> int:
    args = sys.argv[1:]
    modes = [a for a in args if a in ("--latency", "--state")]
    unknown = [a for a in args if a not in ("--latency", "--state", "--self-test")]
    if unknown or len(modes) > 1:
        print("usage: perf_gate.py [--latency | --state] [--self-test]", file=sys.stderr)
        return 2
    return gate(modes[0][2:] if modes else "round", "--self-test" in args)


if __name__ == "__main__":
    sys.exit(main())
