#!/usr/bin/env python3
"""CI perf gates for the round-engine data plane, the latency harness, and
the authenticated state layer.

Default mode (no arguments) gates wall-clock round throughput: runs
``gen_bench_round --smoke`` (the tracked configuration: 8x16, one worker)
and compares the measured ``rounds_per_sec`` and
``allocations_per_round`` of both emitted series
against their committed entries in ``BENCH_round.json``:

* ``smoke_1_worker``       vs ``verified.one_worker`` -- plain rounds;
* ``smoke_epoch_1_worker`` vs ``verified.one_worker_epoch`` -- the
  epoch-lifecycle variant (``epoch_length=2``, so every second measured
  round pays the full boundary: beacon, churn, state sync, reshuffle),
  gating the epoch-boundary cost.

The same run also gates machine parallelism: ``smoke_N_workers`` (the plain
config at the runner's ``parallel_workers``, fastest of three short runs)
must reach at least ``PARALLEL_FLOOR`` (1.25) times ``smoke_1_worker``'s
``rounds_per_sec``. Both sides are measured back to back on one machine, so
the ratio does not depend on runner speed; it drops towards 1.0 when a phase that should be an
executor batch runs on the driver thread again. A one-core runner emits no
parallel series and the check is skipped with a notice.

``--latency`` mode gates the open-loop traffic harness instead: runs
``gen_bench_latency --smoke`` and compares the tracked p99 confirm latency
(at 0.9x capacity) and the saturated throughput against
``BENCH_latency.json``. Both numbers are measured in *virtual* time, so
they are machine-independent -- a drift means the protocol changed, never
the runner. The tolerance still applies because the smoke sweep measures
fewer rounds than the committed full sweep.

``--state`` mode gates the authenticated state layer: runs
``gen_bench_state --smoke`` (flat-map vs sparse-Merkle store, 10^6-entry
UTXO set) and checks the tracked ratios against ``BENCH_state.json``. The
per-transaction hot paths carry *hard caps* -- lookup must stay within 3x
and apply within 4x of the flat map, regardless of what the committed
baseline says -- because those bounds are what make the authenticated
backend deployable on the transaction path. Resident tree size carries one
too: at most 3.0 arena slots (internal + leaf, free ones included) per live
UTXO after the measured write rounds, because the tree must follow the live
set and not the number of rounds committed. The per-round commit ratio and
the per-round allocation count are regression-gated (20% tolerance vs the
committed values) instead: a Merkle commit pays O(log n) hashes per written
key where a hashmap pays one probe, so no absolute small-constant cap is
physically achievable there (see ``BENCH_state.json``'s description).

``--latency --self-test`` / ``--state --self-test`` run no benchmark at
all: they feed synthetic measurements derived from the committed baseline
through the gate logic and check that regressions past the tolerance (and,
for ``--state``, cap violations) fail while equal-or-better numbers pass.
CI runs this first so a broken gate can never silently wave regressions
through.

The job fails on a regression of more than ``PERF_GATE_TOLERANCE``
(default 20%):

* higher-is-better metrics (``rounds_per_sec``, ``saturated_tps``)
  fail when measured < committed * (1 - tol);
* lower-is-better metrics (``allocations_per_round``, ``p99_us``)
  fail when measured > committed * (1 + tol).

Improvements never fail the gate; re-bless the relevant ``BENCH_*.json``
with the matching ``gen_bench_*`` binary when a PR intentionally moves the
numbers (see the ``regeneration`` field in the JSON for the full recipe).

Allocation counts come from the counting global allocator and are exact and
machine-independent; rounds/sec is wall clock, so the tolerance absorbs CI
runner noise. Override with ``PERF_GATE_TOLERANCE=0.35`` etc. if a shared
runner proves noisier than that.
"""

import json
import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TOLERANCE = float(os.environ.get("PERF_GATE_TOLERANCE", "0.20"))
# Least speed-up of the round engine at the runner's parallelism over one
# worker, both measured in the same smoke run.
PARALLEL_FLOOR = 1.25


def run_bench(binary: str) -> dict | None:
    cmd = [
        "cargo",
        "run",
        "-q",
        "--release",
        "-p",
        "cycledger-bench",
        "--bin",
        binary,
        "--",
        "--smoke",
    ]
    print("+", " ".join(cmd), flush=True)
    out = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        print(out.stdout)
        print(out.stderr, file=sys.stderr)
        print(f"perf gate: {binary} failed", file=sys.stderr)
        return None
    print(out.stdout)
    return json.loads(out.stdout)


def check(
    label: str,
    metric: str,
    reference: float,
    measured: float,
    higher_is_better: bool,
    failures: list,
) -> None:
    if higher_is_better:
        floor = reference * (1.0 - TOLERANCE)
        ok = measured >= floor
        bound = f">= {floor:.3f}"
    else:
        ceiling = reference * (1.0 + TOLERANCE)
        ok = measured <= ceiling
        bound = f"<= {ceiling:.3f}"
    verdict = "ok" if ok else "REGRESSION"
    print(
        f"{label}.{metric}: measured {measured:.3f} vs committed {reference:.3f} "
        f"(gate {bound}) ... {verdict}"
    )
    if not ok:
        failures.append(f"{label}.{metric}")


def verdict(failures: list, baseline: str) -> int:
    if failures:
        print(
            f"perf gate FAILED ({', '.join(failures)} regressed by more than "
            f"{TOLERANCE:.0%} vs {baseline})",
            file=sys.stderr,
        )
        return 1
    print(f"perf gate passed (tolerance {TOLERANCE:.0%})")
    return 0


def round_gate() -> int:
    committed_path = REPO_ROOT / "BENCH_round.json"
    verified = json.loads(committed_path.read_text())["verified"]

    report = run_bench("gen_bench_round")
    if report is None:
        return 1

    failures = []
    for label, committed_key, smoke_key in (
        ("plain", "one_worker", "smoke_1_worker"),
        ("epoch", "one_worker_epoch", "smoke_epoch_1_worker"),
    ):
        committed = verified[committed_key]
        smoke = report[smoke_key]
        check(
            label,
            "rounds_per_sec",
            float(committed["rounds_per_sec"]),
            float(smoke["rounds_per_sec"]),
            higher_is_better=True,
            failures=failures,
        )
        check(
            label,
            "allocations_per_round",
            float(committed["allocations_per_round"]),
            float(smoke["allocations_per_round"]),
            higher_is_better=False,
            failures=failures,
        )
    parallel_check(report, failures)
    return verdict(failures, "BENCH_round.json")


def parallel_check(report: dict, failures: list) -> None:
    """Gates smoke_N_workers / smoke_1_worker, a ratio within one run."""
    workers = int(report["parallel_workers"])
    if workers < 2:
        print("parallel.speedup: one-core runner, no parallel series ... skipped")
        return
    one = float(report["smoke_1_worker"]["rounds_per_sec"])
    many = float(report[f"smoke_{workers}_workers"]["rounds_per_sec"])
    ok = many / one >= PARALLEL_FLOOR
    print(
        f"parallel.speedup: {many:.3f} rounds/s at {workers} workers / {one:.3f} at one "
        f"= {many / one:.2f}x (gate >= {PARALLEL_FLOOR:.2f}x) ... "
        f"{'ok' if ok else 'SERIAL PHASE?'}"
    )
    if not ok:
        failures.append("parallel.speedup")


def latency_checks(baseline: dict, measured_p99: float, measured_tps: float) -> list:
    """Gates the two tracked latency-harness numbers; returns failures."""
    failures = []
    check(
        "tracked",
        "p99_us",
        float(baseline["tracked"]["p99_us"]),
        measured_p99,
        higher_is_better=False,
        failures=failures,
    )
    check(
        "sweep",
        "saturated_tps",
        float(baseline["saturated_tps"]),
        measured_tps,
        higher_is_better=True,
        failures=failures,
    )
    return failures


def latency_self_test(baseline: dict) -> int:
    """Feeds synthetic regressions and improvements through the gate logic:
    a broken comparator must not be able to wave real regressions through."""
    p99 = float(baseline["tracked"]["p99_us"])
    tps = float(baseline["saturated_tps"])
    worse = 1.0 + TOLERANCE + 0.10
    better = 1.0 - TOLERANCE - 0.10
    cases = (
        # (description, measured_p99, measured_tps, expect_failures)
        ("baseline reproduced exactly", p99, tps, 0),
        (f"p99 up {worse - 1.0:.0%} must fail", p99 * worse, tps, 1),
        (f"throughput down {1.0 - better:.0%} must fail", p99, tps * better, 1),
        ("both regressed must fail twice", p99 * worse, tps * better, 2),
        ("improvements never fail", p99 * better, tps * worse, 0),
    )
    broken = 0
    for description, measured_p99, measured_tps, expected in cases:
        print(f"self-test: {description}")
        got = len(latency_checks(baseline, measured_p99, measured_tps))
        if got != expected:
            print(
                f"self-test FAILED: expected {expected} gate failure(s), got {got}",
                file=sys.stderr,
            )
            broken += 1
    if broken:
        print(f"perf gate self-test FAILED ({broken} case(s))", file=sys.stderr)
        return 1
    print("perf gate self-test passed")
    return 0


def cap_check(label: str, metric: str, cap: float, measured: float, failures: list) -> None:
    """Absolute ceiling, independent of the committed baseline."""
    ok = measured <= cap
    verdict = "ok" if ok else "CAP EXCEEDED"
    print(f"{label}.{metric}: measured {measured:.3f} vs hard cap {cap:.3f} ... {verdict}")
    if not ok:
        failures.append(f"{label}.{metric}")


# Hot-path ratios (SMT over flat map) that must hold on any machine: the
# sparse-Merkle backend answers lookups from its O(1) mirror (~1x measured)
# and an apply is two hashmap writes plus a delta-buffer insert (~3x
# measured), so breaching these caps means a structural regression, not
# runner noise.
#
# The arena cap bounds resident tree size by the live set: a leaf-collapsed
# binary trie over uniform keys holds 1 / ln 2 = 1.44 internal nodes per
# leaf (the 100 000-entry genesis fold makes 144 089), plus the leaf, plus
# one round of churn waiting on the free lists. A store that keeps what a
# commit supersedes adds ~11 slots per write at this tier and is past 3.0
# after some 50 rounds (the smoke run commits a few hundred).
STATE_CAPS = (
    ("smt_lookup_over_map_lookup", 3.0),
    ("smt_apply_over_map_apply", 4.0),
    ("smt_arena_slots_per_live_utxo", 3.0),
)

# Per-round numbers gated against the committed baseline instead: the commit
# ratio has no physically meaningful absolute cap (O(log n) hashes per
# written key vs one probe), and the allocation count is exact but only
# meaningful relative to what the current fold implementation costs.
STATE_REGRESSIONS = (
    "smt_commit_over_map_apply",
    "smt_allocations_per_round",
)


def state_checks(baseline: dict, measured: dict) -> list:
    """Gates the tracked state-layer ratios; returns failures."""
    failures = []
    for metric, cap in STATE_CAPS:
        cap_check("tracked", metric, cap, float(measured[metric]), failures)
    for metric in STATE_REGRESSIONS:
        check(
            "tracked",
            metric,
            float(baseline["tracked"][metric]),
            float(measured[metric]),
            higher_is_better=False,
            failures=failures,
        )
    return failures


def state_self_test(baseline: dict) -> int:
    """Synthetic regressions and cap violations through the state gate."""
    tracked = baseline["tracked"]
    worse = 1.0 + TOLERANCE + 0.10
    better = 1.0 - TOLERANCE - 0.10

    def synthetic(**overrides) -> dict:
        measured = {
            "smt_lookup_over_map_lookup": float(tracked["smt_lookup_over_map_lookup"]),
            "smt_apply_over_map_apply": float(tracked["smt_apply_over_map_apply"]),
            "smt_commit_over_map_apply": float(tracked["smt_commit_over_map_apply"]),
            "smt_allocations_per_round": float(tracked["smt_allocations_per_round"]),
            "smt_arena_slots_per_live_utxo": float(tracked["smt_arena_slots_per_live_utxo"]),
        }
        measured.update(overrides)
        return measured

    commit = float(tracked["smt_commit_over_map_apply"])
    allocs = float(tracked["smt_allocations_per_round"])
    cases = (
        # (description, measured, expect_failures)
        ("baseline reproduced exactly", synthetic(), 0),
        (
            "lookup ratio past the 3x cap must fail",
            synthetic(smt_lookup_over_map_lookup=3.2),
            1,
        ),
        (
            "apply ratio past the 4x cap must fail",
            synthetic(smt_apply_over_map_apply=4.3),
            1,
        ),
        (
            "arena slots per live UTXO past the 3.0 cap must fail",
            synthetic(smt_arena_slots_per_live_utxo=3.1),
            1,
        ),
        (
            f"commit ratio up {worse - 1.0:.0%} must fail",
            synthetic(smt_commit_over_map_apply=commit * worse),
            1,
        ),
        (
            f"allocations up {worse - 1.0:.0%} must fail",
            synthetic(smt_allocations_per_round=allocs * worse),
            1,
        ),
        (
            "everything regressed must fail four times",
            synthetic(
                smt_lookup_over_map_lookup=3.2,
                smt_apply_over_map_apply=4.3,
                smt_commit_over_map_apply=commit * worse,
                smt_allocations_per_round=allocs * worse,
            ),
            4,
        ),
        (
            "improvements never fail",
            synthetic(
                smt_lookup_over_map_lookup=0.9,
                smt_apply_over_map_apply=1.5,
                smt_commit_over_map_apply=commit * better,
                smt_allocations_per_round=allocs * better,
            ),
            0,
        ),
    )
    broken = 0
    for description, measured, expected in cases:
        print(f"self-test: {description}")
        got = len(state_checks(baseline, measured))
        if got != expected:
            print(
                f"self-test FAILED: expected {expected} gate failure(s), got {got}",
                file=sys.stderr,
            )
            broken += 1
    if broken:
        print(f"perf gate self-test FAILED ({broken} case(s))", file=sys.stderr)
        return 1
    print("perf gate self-test passed")
    return 0


def state_gate(self_test: bool) -> int:
    committed_path = REPO_ROOT / "BENCH_state.json"
    baseline = json.loads(committed_path.read_text())

    if self_test:
        return state_self_test(baseline)

    report = run_bench("gen_bench_state")
    if report is None:
        return 1
    failures = state_checks(baseline, report["tracked"])
    return verdict(failures, "BENCH_state.json")


def latency_gate(self_test: bool) -> int:
    committed_path = REPO_ROOT / "BENCH_latency.json"
    baseline = json.loads(committed_path.read_text())

    if self_test:
        return latency_self_test(baseline)

    report = run_bench("gen_bench_latency")
    if report is None:
        return 1
    failures = latency_checks(
        baseline,
        float(report["tracked"]["p99_us"]),
        float(report["saturated_tps"]),
    )
    return verdict(failures, "BENCH_latency.json")


def main() -> int:
    args = sys.argv[1:]
    latency = "--latency" in args
    state = "--state" in args
    self_test = "--self-test" in args
    unknown = [a for a in args if a not in ("--latency", "--state", "--self-test")]
    if unknown or (latency and state) or (self_test and not (latency or state)):
        print(
            "usage: perf_gate.py [--latency [--self-test] | --state [--self-test]]",
            file=sys.stderr,
        )
        return 2
    if latency:
        return latency_gate(self_test)
    if state:
        return state_gate(self_test)
    return round_gate()


if __name__ == "__main__":
    sys.exit(main())
