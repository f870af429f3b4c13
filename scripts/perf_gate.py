#!/usr/bin/env python3
"""CI perf gates for the round-engine data plane, the latency harness, and
the authenticated state layer.

Each gate runs one ``gen_bench_* --smoke`` binary and checks the rows of
its table in ``GATES`` against the smoke report. A row names one measured
value and its bound, which is one of two kinds:

* a committed value, read from the gate's ``BENCH_*.json``. The row fails
  on a regression of more than ``PERF_GATE_TOLERANCE`` (default 20%):
  a higher-is-better value fails when measured < committed * (1 - tol), and
  a lower-is-better value fails when measured > committed * (1 + tol);
* a fixed cap or floor that holds on any machine, whatever the baseline
  says.

Improvements never fail a committed row. Re-bless the ``BENCH_*.json`` with
the matching ``gen_bench_*`` binary when a PR moves the numbers on purpose
(see the ``regeneration`` field in each JSON for the full recipe).

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
``--state``) runs no benchmark: for every row of the gate it feeds the one
move of ``SELF_TEST`` that must fail and the one that must pass through the
same check the real gate runs. The moves are written from what each metric
means, not from the row's direction, so a row whose direction is flipped
or whose cap is loosened fails here. CI runs it before each gate.

Allocation counts come from the counting global allocator and are exact;
rounds/sec is wall clock, so the tolerance absorbs runner noise. Override
with ``PERF_GATE_TOLERANCE=0.35`` etc. if a shared runner proves noisier.
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


class Row(NamedTuple):
    """One gated number."""

    # The log label, `<series>.<metric>`.
    name: str
    # Where the value is read in the smoke report: a key path, or a function
    # of the report that returns None when this runner cannot measure it.
    measured: tuple | Callable[[dict], float | None]
    # A key path into the committed BENCH_*.json (gated within TOLERANCE),
    # or a fixed cap (better lower) or floor (better higher).
    bound: tuple | float
    # "higher" or "lower".
    better: str


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
    # a few hundred).
    "state": (
        "gen_bench_state",
        "BENCH_state.json",
        (
            state_row("smt_lookup_over_map_lookup", 3.0),
            state_row("smt_apply_over_map_apply", 4.0),
            state_row("smt_arena_slots_per_live_utxo", 3.0),
            state_row("smt_commit_over_map_apply"),
            state_row("smt_allocations_per_round"),
        ),
    ),
}

# A move past the tolerance, applied to a row's committed value.
UP, DOWN = "up", "down"

# Per row: (a move that must fail, a move that must pass). UP / DOWN scale
# the committed value past the tolerance; a number is the measured value
# itself. Written from what each metric means -- fewer rounds/s is worse,
# more allocations are worse, a 1.2x speed-up is a phase gone serial -- and
# never derived from the row, so a flipped direction or a loosened cap fails.
SELF_TEST = {
    "plain.rounds_per_sec": (DOWN, UP),
    "plain.allocations_per_round": (UP, DOWN),
    "epoch.rounds_per_sec": (DOWN, UP),
    "epoch.allocations_per_round": (UP, DOWN),
    "parallel.speedup": (1.2, 1.6),
    "tracked.p99_us": (UP, DOWN),
    "sweep.saturated_tps": (DOWN, UP),
    "tracked.smt_lookup_over_map_lookup": (3.1, 1.1),
    "tracked.smt_apply_over_map_apply": (4.1, 3.5),
    "tracked.smt_arena_slots_per_live_utxo": (3.05, 2.44),
    "tracked.smt_commit_over_map_apply": (UP, DOWN),
    "tracked.smt_allocations_per_round": (UP, DOWN),
}


def dig(document: dict, path: tuple) -> float:
    return float(functools.reduce(lambda node, key: node[key], path, document))


def check(row: Row, measured: float, baseline: dict, failures: list) -> None:
    """Prints the row's verdict line; appends the row's name on failure."""
    higher = row.better == "higher"
    if isinstance(row.bound, tuple):
        committed = dig(baseline, row.bound)
        limit = committed * (1.0 - TOLERANCE if higher else 1.0 + TOLERANCE)
        against = f"committed {committed:.3f} (gate {'>=' if higher else '<='} {limit:.3f})"
        failed = "REGRESSION"
    else:
        limit = row.bound
        against = f"hard {'floor' if higher else 'cap'} {limit:.3f}"
        failed = "BELOW FLOOR" if higher else "CAP EXCEEDED"
    ok = measured >= limit if higher else measured <= limit
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


def self_test(rows: tuple, baseline: dict) -> int:
    broken = 0
    for row in rows:
        for move, must_fail in zip(SELF_TEST.get(row.name, ()), (True, False)):
            if isinstance(move, str):
                step = TOLERANCE + 0.10
                reference = dig(baseline, row.bound) if isinstance(row.bound, tuple) else row.bound
                measured = reference * (1.0 + step if move == UP else 1.0 - step)
                what = f"{move} {step:.0%}"
            else:
                measured, what = move, f"at {move}"
            print(f"self-test: {row.name} {what} must {'fail' if must_fail else 'pass'}")
            failures = []
            check(row, measured, baseline, failures)
            if bool(failures) != must_fail:
                print(f"self-test FAILED: {row.name} {what}", file=sys.stderr)
                broken += 1
        if row.name not in SELF_TEST:
            print(f"self-test FAILED: {row.name} has no moves", file=sys.stderr)
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
        return self_test(rows, baseline)

    report = run_bench(binary)
    if report is None:
        return 1
    failures = []
    for row in rows:
        measured = row.measured(report) if callable(row.measured) else dig(report, row.measured)
        if measured is None:
            print(f"{row.name}: not measured on this runner (one core) ... skipped")
        else:
            check(row, measured, baseline, failures)
    if failures:
        print(
            f"perf gate FAILED ({', '.join(failures)} regressed by more than "
            f"{TOLERANCE:.0%} vs {committed})",
            file=sys.stderr,
        )
        return 1
    print(f"perf gate passed (tolerance {TOLERANCE:.0%})")
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
