#!/usr/bin/env python3
"""Alternating A/B pairs of the end-to-end benchmark (``benchmark/``), and
the exact counts of both sides.

    scripts/ab.py <base> <head> --workload local-8x16 --pairs 10
    scripts/ab.py <base> <head> --workload state-smt-2x8 --claim setup_s
    scripts/ab.py <base> <head> --counts
    scripts/ab.py --self-test

``base`` and ``head`` are git revisions of this repository, or directories
holding a checkout (the working tree, say). A revision is exported with
``git archive`` into the scratch directory (``--scratch``, by default
``<tmp>/cycledger-ab``), and each side builds ``benchmark/`` there into a
target directory of its own: cargo fingerprints workspace crates by their
path inside the workspace, so two checkouts sharing one target directory
can silently link one side's crates into the other's binary. An export
leaves the repository's ``.git`` untouched, where a worktree registers
itself in it and stays registered when a run is interrupted.

Pair ``i`` runs seed ``--seed + i`` once on each side, base first in even
pairs and head first in odd ones, so a drift of the host's speed over the
session falls on both sides alike. Each run is the benchmark's own command
line (``--workload w --seed s --seconds t --trace 0``, ``t`` being the
base's ``BENCHMARK.json`` ``run_seconds``) in a run directory of its side;
its last stdout line is the JSON the benchmark prints.

The claim is made on ``--claim`` (an end-to-end metric, by default
``cpu_s_per_ktx``), whose direction — lower or higher is better — comes
from the base's ``BENCHMARK.json``. The script prints every pair's two
values of it, both medians, the base's interquartile range and the head's
wins. The claim holds when the head wins at least nine in ten pairs and its
median is better than the base's by more than the base's IQR. It also lists
every metric that should repeat per seed (``EXACT``, ``ALLOCATION``) and
differs, and both medians of every other metric, marking an end-to-end one
whose head median is worse than the base's by more than that metric's
``bound`` (a fraction of the base's median). The script exits 1 when the
claim does not hold or a bound is breached.

``--counts`` runs no pair: it builds ``gen_bench_round`` with ``--features
opcount`` on each side (``crates/bench``, one export and one target
directory a side, as above), runs each once, and prints every row of the
one-worker series' ``opcount`` block -- field multiplications, inversions,
SHA-256 compressions, VRF checks and the rest, exact per round -- and its
``messages_per_round``, ``bytes_per_round`` and ``batches_per_round``
(and the epoch series' too) that differ between the sides, with both
values and head / base; a row one side lacks prints as missing. The counts
repeat to the digit, so one run a side is the whole measurement, in
seconds where a series of pairs takes minutes; a perf change's claim names
the count that moved, and its pairs confirm the milliseconds. It exits 0.

``--self-test`` runs no benchmark: it feeds canned benchmark outputs
through the same parsing and summary and checks the verdicts, and canned
``gen_bench_round`` reports through the count comparison.
"""

import argparse
import hashlib
import io
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import NamedTuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# The metric a claim is made on unless --claim names another.
DEFAULT_CLAIM = "cpu_s_per_ktx"

# End-to-end metrics that repeat to the digit per seed when a change moves
# no byte on the wire and no virtual time.
EXACT = (
    "msgs_per_committed_tx",
    "bytes_per_committed_tx",
    "confirm_vt_delta_p50",
    "confirm_vt_delta_p99",
    "confirmed_share",
)

# End-to-end metrics that repeat per seed within ALLOCATION_TOLERANCE when a
# change moves no allocation: one binary run twice on one seed can differ by
# an allocation in 100 rounds, which worker threads make.
ALLOCATION = ("allocs_per_round", "alloc_mib_per_round")

ALLOCATION_TOLERANCE = 1e-3

# The share of pairs the head must win.
WIN_SHARE = 0.9


class Metric(NamedTuple):
    """An end-to-end metric of ``BENCHMARK.json``: its direction and bound."""

    name: str
    lower_is_better: bool
    bound: float


def end_to_end(benchmark: dict) -> dict:
    """The end-to-end metrics of a parsed ``BENCHMARK.json``, by name."""
    return {
        m["name"]: Metric(m["name"], m["better"] == "lower", m["bound"]) for m in benchmark["end_to_end"]
    }


def better(metric: Metric, base: float, head: float) -> bool:
    """True when ``head`` is better than ``base`` on ``metric``."""
    return head < base if metric.lower_is_better else head > base


def beyond_bound(metric: Metric, base: float, head: float) -> bool:
    """True when ``head`` is worse than ``base`` by more than the bound."""
    if metric.lower_is_better:
        return head > base * (1.0 + metric.bound)
    return head < base * (1.0 - metric.bound)


class Run(NamedTuple):
    """One benchmark run: its seed and every end-to-end metric's value."""

    seed: int
    metrics: dict


def parse_run(seed: int, stdout: str) -> Run:
    """The metrics of the JSON object on the last non-empty line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"seed {seed}: the benchmark printed nothing")
    document = json.loads(lines[-1])
    if not document.get("correct", False):
        raise ValueError(f"seed {seed}: the run reports correct = false")
    return Run(seed, {name: m["value"] for name, m in document["metrics"].items()})


def quartiles(values: list) -> tuple:
    """(q1, median, q3), interpolated between the sorted values."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Summary(NamedTuple):
    """The verdict of a series of pairs on one claimed metric."""

    claim: Metric
    base_median: float
    head_median: float
    base_iqr: float
    wins: int
    pairs: int
    holds: bool
    # (seed, metric, base value, head value) for every exact metric that
    # differs between the two sides of a pair, and every allocation metric
    # that differs by more than ALLOCATION_TOLERANCE.
    exact_differences: list
    # (metric name, base median, head median, beyond its bound) for every
    # other metric of the runs; only end-to-end metrics carry a bound.
    medians: list

    @property
    def breaches(self) -> list:
        """The metrics whose head median is beyond their bound."""
        return [name for name, _, _, breached in self.medians if breached]

    @property
    def passes(self) -> bool:
        """The claim holds and no other metric breaches its bound."""
        return self.holds and not self.breaches


def same(name: str, x: float, y: float | None) -> bool:
    if y is None:
        return False
    if name in ALLOCATION:
        return abs(x - y) <= ALLOCATION_TOLERANCE * max(abs(x), abs(y))
    return x == y


def summarise(pairs: list, claim: str, metrics: dict) -> Summary:
    """`pairs` is a list of (base Run, head Run) on one seed each; `claim`
    names the claimed metric among `metrics` (``end_to_end``'s map)."""
    metric = metrics[claim]
    base = [b.metrics[claim] for b, _ in pairs]
    head = [h.metrics[claim] for _, h in pairs]
    wins = sum(better(metric, b, h) for b, h in zip(base, head))
    q1, base_median, q3 = quartiles(base)
    head_median = statistics.median(head)
    gain = base_median - head_median if metric.lower_is_better else head_median - base_median
    holds = wins >= math.ceil(WIN_SHARE * len(pairs)) and gain > q3 - q1
    differences = [
        (b.seed, name, b.metrics[name], h.metrics[name])
        for b, h in pairs
        for name in EXACT + ALLOCATION
        if name in b.metrics and not same(name, b.metrics[name], h.metrics.get(name))
    ]
    medians = []
    for name in pairs[0][0].metrics:
        if name == claim:
            continue
        x = statistics.median(b.metrics[name] for b, _ in pairs)
        y = statistics.median(h.metrics[name] for _, h in pairs)
        medians.append((name, x, y, name in metrics and beyond_bound(metrics[name], x, y)))
    return Summary(metric, base_median, head_median, q3 - q1, wins, len(pairs), holds, differences, medians)


def report(pairs: list, order: list, claim: str, metrics: dict) -> Summary:
    """Prints the pairs and the verdict, and returns the summary."""
    summary = summarise(pairs, claim, metrics)
    direction = "lower" if summary.claim.lower_is_better else "higher"
    print(f"{claim} ({direction} is better)")
    print(f"{'pair':>4} {'seed':>6} {'first':>5} {'base':>14} {'head':>14} {'head/base':>9}")
    for i, ((b, h), first) in enumerate(zip(pairs, order)):
        x, y = b.metrics[claim], h.metrics[claim]
        ratio = f"{y / x:9.3f}" if x else f"{'-':>9}"
        won = "  win" if better(summary.claim, x, y) else ""
        print(f"{i + 1:>4} {b.seed:>6} {first:>5} {x:>14.6g} {y:>14.6g} {ratio}{won}")
    change = (summary.head_median / summary.base_median - 1.0) if summary.base_median else 0.0
    print(
        f"median: base {summary.base_median:.6g}, head {summary.head_median:.6g} "
        f"({change:+.1%}); base IQR {summary.base_iqr:.6g}"
    )
    print(f"wins: {summary.wins} of {summary.pairs}")
    needed = math.ceil(WIN_SHARE * summary.pairs)
    print(
        f"claim {'holds' if summary.holds else 'does not hold'}: needs >= {needed} wins "
        f"and a median {direction} by more than the base IQR"
    )
    if summary.exact_differences:
        print(f"per-seed metrics that differ (allocations: by more than {ALLOCATION_TOLERANCE:.1%}):")
        for seed, name, x, y in summary.exact_differences:
            print(f"  seed {seed}: {name} base {x!r} head {y!r}")
    else:
        print(f"equal per seed: {', '.join(EXACT)}")
        print(f"equal per seed within {ALLOCATION_TOLERANCE:.1%}: {', '.join(ALLOCATION)}")
    for name, x, y, breached in summary.medians:
        bound = f"  BEYOND ITS BOUND {metrics[name].bound:.0%}" if breached else ""
        print(f"  median {name}: base {x:.6g}, head {y:.6g}{bound}")
    if summary.breaches:
        print(f"bounds breached: {', '.join(summary.breaches)}")
    return summary


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(REPO_ROOT), *args], check=True, capture_output=True).stdout


def checkout(side: str, scratch: pathlib.Path) -> tuple:
    """(source directory, target directory) of a revision or a directory."""
    if os.path.isdir(side):
        source = pathlib.Path(side).resolve()
        key = "dir-" + hashlib.sha256(str(source).encode()).hexdigest()[:12]
        return source, scratch / f"target-{key}"
    sha = git("rev-parse", "--verify", f"{side}^{{commit}}").decode().strip()
    source = scratch / f"src-{sha[:12]}"
    if not source.is_dir():
        staging = scratch / f"staging-{sha[:12]}"
        archive = tarfile.open(fileobj=io.BytesIO(git("archive", sha)))
        if hasattr(tarfile, "data_filter"):
            archive.extractall(staging, filter="data")
        else:
            archive.extractall(staging)
        staging.rename(source)
    return source, scratch / f"target-{sha[:12]}"


def build(source: pathlib.Path, target: pathlib.Path) -> pathlib.Path:
    manifest = source / "benchmark" / "Cargo.toml"
    print(f"+ cargo build --release --manifest-path {manifest}", flush=True)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", str(manifest)],
        check=True,
        env=env,
    )
    return target / "release" / "benchmark"


def run(binary: pathlib.Path, workdir: pathlib.Path, workload: str, seed: int, seconds: int) -> Run:
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited with {out.returncode}")
    return parse_run(seed, out.stdout)


def compare(args: argparse.Namespace) -> int:
    scratch = pathlib.Path(args.scratch).resolve()
    scratch.mkdir(parents=True, exist_ok=True)
    sides = {}
    for label, side in (("base", args.base), ("head", args.head)):
        source, target = checkout(side, scratch)
        if label == "base":
            benchmark = json.loads((source / "BENCHMARK.json").read_text())
            seconds, metrics = benchmark["run_seconds"], end_to_end(benchmark)
            if args.claim not in metrics:
                raise SystemExit(f"--claim {args.claim}: not an end-to-end metric of the base")
        sides[label] = (build(source, target), scratch / f"run-{label}")
    pairs, order = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        first, second = ("base", "head") if i % 2 == 0 else ("head", "base")
        runs = {}
        for label in (first, second):
            binary, workdir = sides[label]
            runs[label] = run(binary, workdir, args.workload, seed, seconds)
        pairs.append((runs["base"], runs["head"]))
        order.append(first)
        b, h = runs["base"].metrics[args.claim], runs["head"].metrics[args.claim]
        print(f"pair {i + 1}/{args.pairs} seed {seed}: base {b:.6g} head {h:.6g}", flush=True)
    print(f"\nab: {args.workload}, {args.pairs} pairs, --seconds {seconds}, base {args.base}, head {args.head}")
    summary = report(pairs, order, args.claim, metrics)
    return 0 if summary.passes else 1


# The series of a ``gen_bench_round`` report whose exact rows --counts
# compares, and those rows besides the ``opcount`` block.
COUNT_SERIES = ("one_worker", "one_worker_epoch")
COUNT_ROWS = ("messages_per_round", "bytes_per_round", "batches_per_round")


def count_rows(report: dict) -> dict:
    """Every exact count of a ``gen_bench_round`` report, by its key path."""
    rows = {}
    for series in COUNT_SERIES:
        block = report.get(series, {})
        for name in COUNT_ROWS:
            if name in block:
                rows[f"{series}.{name}"] = float(block[name])
        for name, value in block.get("opcount", {}).items():
            rows[f"{series}.opcount.{name}"] = float(value)
    return rows


def moved_counts(base: dict, head: dict) -> list:
    """(path, base value or None, head value or None) for every count that
    differs between two reports, in the base's row order."""
    x, y = count_rows(base), count_rows(head)
    paths = list(x) + [path for path in y if path not in x]
    return [(path, x.get(path), y.get(path)) for path in paths if x.get(path) != y.get(path)]


def print_moved(moved: list) -> None:
    if not moved:
        print("no count moved")
        return
    print(f"{'row':<52} {'base':>14} {'head':>14} {'head/base':>9}")
    for path, x, y in moved:
        ratio = f"{y / x:9.4f}" if x and y is not None else f"{'-':>9}"
        show = lambda v: f"{v:>14.1f}" if v is not None else f"{'missing':>14}"
        print(f"{path:<52} {show(x)} {show(y)} {ratio}")


def counts(args: argparse.Namespace) -> int:
    scratch = pathlib.Path(args.scratch).resolve()
    scratch.mkdir(parents=True, exist_ok=True)
    reports = {}
    for label, side in (("base", args.base), ("head", args.head)):
        source, target = checkout(side, scratch)
        manifest = source / "Cargo.toml"
        command = ["--release", "--quiet", "--manifest-path", str(manifest), "-p", "cycledger-bench"]
        command += ["--bin", "gen_bench_round", "--features", "opcount"]
        print(f"+ cargo run {' '.join(command)}", flush=True)
        env = dict(os.environ, CARGO_TARGET_DIR=str(target) + "-opcount")
        out = subprocess.run(["cargo", "run", *command], env=env, capture_output=True, text=True, check=True)
        reports[label] = json.loads(out.stdout)
    print(f"\nab --counts: base {args.base}, head {args.head}")
    print_moved(moved_counts(reports["base"], reports["head"]))
    return 0


def canned(seed: int, metrics: dict, correct: bool = True) -> str:
    """A benchmark's stdout: prose lines, then the JSON line."""
    document = {
        "correct": correct,
        "attempted": 100,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()},
    }
    return f"workload w seed {seed} untraced\n  measured 100 rounds\n{json.dumps(document)}\n"


def self_test() -> int:
    metrics = end_to_end(json.loads((REPO_ROOT / "BENCHMARK.json").read_text()))
    exact = {name: 1.0 + i for i, name in enumerate(EXACT + ALLOCATION)}
    exact["confirmed_share"] = 100.0

    def pairs_of(base: list, head: list, claim=DEFAULT_CLAIM, head_exact=None, base_more=None, head_more=None):
        out = []
        for i, (x, y) in enumerate(zip(base, head)):
            seed = i + 1
            b = parse_run(seed, canned(seed, {claim: x, **exact, **(base_more or {})}))
            h = parse_run(seed, canned(seed, {claim: y, **(head_exact or exact), **(head_more or {})}))
            out.append((b, h))
        return out

    base = [0.126, 0.124, 0.128, 0.125, 0.127, 0.126, 0.129, 0.123, 0.126, 0.125]
    setup = [0.652, 0.641, 0.668, 0.635, 0.659, 0.682, 0.647, 0.655, 0.661, 0.644]
    rate = [402.0, 398.5, 405.1, 399.9, 401.2, 397.3, 403.8, 400.4, 396.6, 404.0]
    cases = []
    # Ten of ten lower by ~9 %: holds.
    cases.append(("clear gain", DEFAULT_CLAIM, base, [v * 0.91 for v in base], True, 10))
    # Eight of ten: too few wins, whatever the medians say.
    eight = [v * 0.9 for v in base[:8]] + [v * 1.1 for v in base[8:]]
    cases.append(("eight wins", DEFAULT_CLAIM, base, eight, False, 8))
    # Ten wins by less than the base's spread: the medians are too close.
    cases.append(("within the IQR", DEFAULT_CLAIM, base, [v - 0.0005 for v in base], False, 10))
    # Ten of ten higher: a loss.
    cases.append(("higher loses", DEFAULT_CLAIM, base, [v * 1.09 for v in base], False, 0))
    # A claim on set-up time, lower by ~30 %: holds.
    cases.append(("setup_s gain", "setup_s", setup, [v * 0.7 for v in setup], True, 10))
    # A higher-is-better claim: higher wins, lower loses.
    cases.append(("higher is better", "committed_tx_per_s", rate, [v * 1.05 for v in rate], True, 10))
    cases.append(("lower rate loses", "committed_tx_per_s", rate, [v * 0.95 for v in rate], False, 0))
    broken = 0
    for name, claim, base_values, head_values, holds, wins in cases:
        summary = summarise(pairs_of(base_values, head_values, claim), claim, metrics)
        got = (summary.holds, summary.wins, summary.exact_differences, summary.breaches)
        if got != (holds, wins, [], []):
            print(f"self-test FAILED: {name}: {summary}", file=sys.stderr)
            broken += 1
    # A gain on the claim with another end-to-end metric worse by more than
    # its bound (peak_rss_mib 10 %, committed_tx_per_s 25 %) does not pass;
    # worse within the bound, or better, it does.
    gain = [v * 0.91 for v in base]
    for more, breaches in (
        ({"peak_rss_mib": 111.0}, ["peak_rss_mib"]),
        ({"peak_rss_mib": 109.0}, []),
        ({"committed_tx_per_s": 74.0}, ["committed_tx_per_s"]),
        ({"committed_tx_per_s": 76.0}, []),
        ({"setup_s": 0.5}, []),
    ):
        name = next(iter(more))
        reference = {name: 100.0 if name != "setup_s" else 0.64}
        summary = summarise(pairs_of(base, gain, base_more=reference, head_more=more), DEFAULT_CLAIM, metrics)
        medians = [m for m in summary.medians if m[0] == name]
        if summary.breaches != breaches or summary.passes != (not breaches) or len(medians) != 1:
            print(f"self-test FAILED: bound of {more}: {summary}", file=sys.stderr)
            broken += 1
    # Quartiles of 1..10 by interpolation: 3.25 and 7.75.
    if quartiles([float(v) for v in range(10, 0, -1)]) != (3.25, 5.5, 7.75):
        print("self-test FAILED: quartiles", file=sys.stderr)
        broken += 1
    # An exact metric that moved on one seed is reported however little it
    # moved; an allocation metric is reported when it moved by more than
    # one allocation in 100 rounds.
    moved = (
        (dict(exact, confirmed_share=99.95), "confirmed_share"),
        (dict(exact, msgs_per_committed_tx=exact["msgs_per_committed_tx"] * 1.0001), "msgs_per_committed_tx"),
        (dict(exact, confirm_vt_delta_p99=exact["confirm_vt_delta_p99"] + 1e-6), "confirm_vt_delta_p99"),
        (dict(exact, allocs_per_round=exact["allocs_per_round"] * 1.01), "allocs_per_round"),
        (dict(exact, allocs_per_round=exact["allocs_per_round"] * 1.00001), None),
    )
    for head_exact, reported in moved:
        summary = summarise(pairs_of(base, base, head_exact=head_exact), DEFAULT_CLAIM, metrics)
        names = sorted({d[1] for d in summary.exact_differences})
        if names != ([reported] if reported else []):
            print(f"self-test FAILED: per-seed differences {summary.exact_differences}", file=sys.stderr)
            broken += 1
    # Output without its JSON line, or a run that reports itself incorrect,
    # is an error, not a value.
    for text in ("", canned(1, exact, correct=False)):
        try:
            parse_run(1, text)
        except ValueError:
            continue
        print(f"self-test FAILED: parsed {text!r}", file=sys.stderr)
        broken += 1
    # --counts: one count planted one higher on the head is the one row
    # reported, with both values; equal reports move nothing, and a row
    # only the head has is reported as missing on the base.
    report = {
        "one_worker": {
            "messages_per_round": 3588.8,
            "bytes_per_round": 2554713,
            "batches_per_round": 4.0,
            "rounds_per_sec": 23.8,
            "opcount": {"field_muls_per_round": 687105.7, "inversions_per_round": 390.0},
        },
        "one_worker_epoch": {"messages_per_round": 3779.5, "batches_per_round": 4.5},
    }
    planted = json.loads(json.dumps(report))
    planted["one_worker"]["opcount"]["inversions_per_round"] = 391.0
    planted["one_worker"]["rounds_per_sec"] = 30.1
    added = json.loads(json.dumps(report))
    added["one_worker"]["opcount"]["batched_additions_per_round"] = 21.0
    for head, expected in (
        (report, []),
        (planted, [("one_worker.opcount.inversions_per_round", 390.0, 391.0)]),
        (added, [("one_worker.opcount.batched_additions_per_round", None, 21.0)]),
    ):
        if moved_counts(report, head) != expected:
            print(f"self-test FAILED: --counts moved {moved_counts(report, head)}", file=sys.stderr)
            broken += 1
    if broken:
        print(f"ab.py self-test FAILED ({broken} case(s))", file=sys.stderr)
        return 1
    print("ab.py self-test passed")
    return 0


def main() -> int:
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the reference revision, or a checkout directory")
    parser.add_argument("head", help="the revision under test, or a checkout directory")
    parser.add_argument("--counts", action="store_true", help="compare the exact counts of one run a side")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    parser.add_argument("--claim", default=DEFAULT_CLAIM, help="the end-to-end metric the claim is made on")
    parser.add_argument("--scratch", default=os.path.join(tempfile.gettempdir(), "cycledger-ab"))
    args = parser.parse_args()
    if args.counts:
        return counts(args)
    if args.workload is None:
        parser.error("--workload is required without --counts")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
