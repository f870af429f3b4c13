#!/usr/bin/env python3
"""Shows that a golden re-bless moved only what it was allowed to move.

    scripts/golden_diff_check.py [<base>]
    scripts/golden_diff_check.py --self-test

Compares every ``scenarios/golden/*.json`` in the working tree against the
same file at a base commit (default ``HEAD~1``; pass another revision as the
first argument). For scenarios that schedule no network fault -- those with
no non-empty ``net_faults`` list -- the diff must be confined to:

* the digests (``digest``, ``worker_digests``, ``rerun_digest``),
* the ``network`` counter block,
* ``metrics.witnesses`` and ``metrics.censorship_reports``,
* the free-text ``detail`` of each invariant (which quotes the above),
* a retired config echo (``message_driven``, ``verify_signatures``) or a
  retired top-level key (``smoke``) that the base has and the working tree
  no longer writes.

Everything else must be equal: the scenario's seed and configuration (a
retired key that changes value or appears is a change), the injected
faults, every other metric (``blocks_produced``, ``chain_height``,
``total_packed``, ``total_cross_shard_packed``, ``mean_acceptance_rate``,
``evictions``, ``skipped_recoveries``, ``punished_honest``), the traffic and
epoch blocks, and each invariant's name and status. Scenarios with network
faults are listed with what changed but not gated: their network really
behaves differently. Exits non-zero when any golden moved a frozen field.

``--self-test`` reads no golden: it feeds canned base and working reports
through the same verdict and checks each line and outcome.
"""

import copy
import functools
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "scenarios" / "golden"
MAY_MOVE_TOP = {"digest", "worker_digests", "rerun_digest", "network"}
MAY_MOVE_METRICS = {"witnesses", "censorship_reports"}
RETIRED_TOP = {"smoke"}
RETIRED_CONFIG = {"message_driven", "verify_signatures"}


def frozen(report, new):
    """The part of a report a re-bless without network faults may not touch.

    A retired key counts only where ``new`` (the working tree's report)
    still writes it: dropping one is allowed, changing or adding one is not.
    """
    kept = {
        k: v
        for k, v in report.items()
        if k not in MAY_MOVE_TOP and (k not in RETIRED_TOP or k in new)
    }
    kept["config"] = {
        k: v
        for k, v in report["config"].items()
        if k not in RETIRED_CONFIG or k in new["config"]
    }
    kept["metrics"] = {
        k: v for k, v in report["metrics"].items() if k not in MAY_MOVE_METRICS
    }
    kept["invariants"] = [(i["invariant"], i["status"]) for i in report["invariants"]]
    return kept


def changed_keys(old, new):
    keys = [k for k in sorted(set(old) | set(new)) if old.get(k) != new.get(k)]
    if "metrics" in keys:
        keys.remove("metrics")
        keys += [
            f"metrics.{k}"
            for k in sorted(set(old["metrics"]) | set(new["metrics"]))
            if old["metrics"].get(k) != new["metrics"].get(k)
        ]
    return keys


def verdict(old, new):
    """`(line, ok)` for one golden: its base report `old` against the
    working tree's `new`."""
    moved = ", ".join(changed_keys(old, new)) or "nothing"
    if new.get("net_faults"):
        return f"network faults, not gated; moved: {moved}", True
    if frozen(old, new) == frozen(new, new):
        return f"ok; moved: {moved}", True
    return f"FROZEN FIELD MOVED; moved: {moved}", False


# A removed key, in `edited`.
DROP = object()


def edited(report, *changes):
    """A copy of `report` with each `(dotted path, value)` of `changes` set,
    or removed where the value is DROP; a list index is a path segment."""
    report = copy.deepcopy(report)
    for path, value in changes:
        *parents, leaf = path.split(".")
        step = lambda node, key: node[int(key)] if isinstance(node, list) else node[key]
        parent = functools.reduce(step, parents, report)
        leaf = int(leaf) if isinstance(parent, list) else leaf
        if value is DROP:
            del parent[leaf]
        else:
            parent[leaf] = value
    return report


# A base report in the shape the scenario runner writes, cut to one key of
# each kind the verdict treats apart.
CANNED = {
    "name": "canned",
    "seed": 7,
    "smoke": True,
    "config": {"committees": 2, "message_driven": True},
    "digest": "aa",
    "worker_digests": [{"workers": 1, "digest": "aa"}],
    "rerun_digest": "aa",
    "injected_faults": [],
    "metrics": {"total_packed": 76, "witnesses": 0},
    "network": {"envelopes": 10},
    "invariants": [{"invariant": "no-double-commit", "status": "pass", "detail": "digest aa"}],
}
NO_SMOKE = edited(CANNED, ("smoke", DROP))
NET_FAULTS = edited(CANNED, ("net_faults", [{"kind": "loss"}]))
DIGESTS = (("digest", "bb"), ("worker_digests.0.digest", "bb"), ("rerun_digest", "bb"))

# (case, base report, working report, the verdict line it must print).
SELF_TEST = (
    ("a move in digests only", CANNED, edited(CANNED, *DIGESTS),
     "ok; moved: digest, rerun_digest, worker_digests"),
    ("a moved total_packed", CANNED, edited(CANNED, ("metrics.total_packed", 75)),
     "FROZEN FIELD MOVED; moved: metrics.total_packed"),
    ("a flipped invariant status", CANNED, edited(CANNED, ("invariants.0.status", "fail")),
     "FROZEN FIELD MOVED; moved: invariants"),
    ("a dropped retired config key", CANNED, edited(CANNED, ("config.message_driven", DROP)),
     "ok; moved: config"),
    ("a changed retired config key", CANNED, edited(CANNED, ("config.message_driven", False)),
     "FROZEN FIELD MOVED; moved: config"),
    ("a dropped smoke", CANNED, NO_SMOKE, "ok; moved: smoke"),
    ("an added smoke", NO_SMOKE, CANNED, "FROZEN FIELD MOVED; moved: smoke"),
    ("a net-fault scenario", NET_FAULTS, edited(NET_FAULTS, ("metrics.total_packed", 75)),
     "network faults, not gated; moved: metrics.total_packed"),
)


def self_test():
    broken = 0
    for case, old, new, expected in SELF_TEST:
        line, ok = verdict(old, new)
        print(f"self-test: {case}: {line}")
        if (line, ok) != (expected, not expected.startswith("FROZEN")):
            print(f"self-test FAILED: {case}: expected {expected!r}", file=sys.stderr)
            broken += 1
    if broken:
        sys.exit(f"golden diff check self-test FAILED ({broken} case(s))")
    print("golden diff check self-test passed")


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    base = sys.argv[1] if len(sys.argv) > 1 else "HEAD~1"
    failures = 0
    for path in sorted(GOLDEN.glob("*.json")):
        rel = path.relative_to(ROOT).as_posix()
        shown = subprocess.run(
            ["git", "show", f"{base}:{rel}"], cwd=ROOT, capture_output=True, text=True
        )
        if shown.returncode != 0:
            print(f"{path.stem}: new since {base}")
            continue
        line, ok = verdict(json.loads(shown.stdout), json.loads(path.read_text()))
        print(f"{path.stem}: {line}")
        failures += not ok
    if failures:
        sys.exit(f"{failures} fault-free golden(s) moved a frozen field")


if __name__ == "__main__":
    main()
