#!/usr/bin/env python3
"""Shows that a golden re-bless moved only what it was allowed to move.

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
behaves differently. Exits non-zero on the first violation.
"""

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


def main():
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
        old, new = json.loads(shown.stdout), json.loads(path.read_text())
        moved = ", ".join(changed_keys(old, new)) or "nothing"
        if new.get("net_faults"):
            print(f"{path.stem}: network faults, not gated; moved: {moved}")
        elif frozen(old, new) == frozen(new, new):
            print(f"{path.stem}: ok; moved: {moved}")
        else:
            failures += 1
            print(f"{path.stem}: FROZEN FIELD MOVED; moved: {moved}")
    if failures:
        sys.exit(f"{failures} fault-free golden(s) moved a frozen field")


if __name__ == "__main__":
    main()
