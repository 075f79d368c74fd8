"""Compare two benchmark summaries metric by metric, workload by workload.

``python3 benchmarks/e2e/compare.py A.json B.json`` reads two files
written by ``run.py --out`` (A is the base, B the candidate) and prints
one row per (end-to-end metric, workload):

* ``ok`` — B's median is no worse than A's by more than the metric's
  bound from ``BENCHMARK.json``;
* ``regressed`` — it is worse by more than the bound, and by more than
  either side's own run-to-run spread;
* ``unresolved`` — a side's spread (distance between the quartiles of
  its ``--repeat N`` runs, as a share of their median) is wider than the
  bound, so "unchanged" cannot be claimed.

Every ratio is printed with its base.  Counts that must repeat exactly
for a fixed seed are listed as ``same`` / ``differs``.  The exit code is
1 when any row is ``regressed``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

#: Per-layer counts that repeat exactly for a fixed seed.
EXACT_COUNTS = (
    "filter.distance_computations_per_query",
    "filter.hops_per_query",
    "refine.comparisons_per_query",
    "journal.bytes_per_mutation",
)


def spread(entry: dict) -> float:
    """Quartile distance of a metric's repeated values over their median."""
    if len(entry["values"]) < 2 or not entry["median"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["median"])


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def classify(worse: float, noise: float, bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric on one workload."""
    if worse > bound and worse > noise:
        return "regressed"
    if noise > bound:
        return "unresolved"
    return "ok"


def compare(base: dict, new: dict, declared: dict) -> "tuple[list, bool]":
    """All rows of the comparison and whether any regressed."""
    rows, regressed = [], False
    for workload, base_block in base["workloads"].items():
        new_block = new["workloads"].get(workload)
        if new_block is None:
            continue
        for metric in declared["end_to_end"]:
            name = metric["name"]
            a = base_block["end_to_end"].get(name)
            b = new_block["end_to_end"].get(name)
            if a is None or b is None:
                continue
            worse = worse_by(a["median"], b["median"], metric["better"])
            noise = max(spread(a), spread(b))
            status = classify(worse, noise, metric["bound"])
            regressed = regressed or status == "regressed"
            rows.append((status, name, workload, a, b, worse, noise,
                         metric["bound"]))
        for name in EXACT_COUNTS:
            a = base_block["per_layer"].get(name)
            b = new_block["per_layer"].get(name)
            if a is None or b is None or not (a["median"] or b["median"]):
                continue   # the workload's path bypasses that layer
            same = set(a["values"]) == set(b["values"]) and len(set(a["values"])) == 1
            rows.append(("same" if same else "differs", name, workload, a, b,
                         0.0, 0.0, 0.0))
    return rows, regressed


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write("usage: compare.py BASE.json CANDIDATE.json\n")
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, regressed = compare(base, new, declared)
    print(f"{'status':<11}{'metric':<40}{'workload':<32}"
          f"{'B/A':>8}  {'base A':>14}  {'worse by':>9}{'spread':>8}{'bound':>7}")
    for status, name, workload, a, b, worse, noise, bound in rows:
        ratio = b["median"] / a["median"] if a["median"] else float("nan")
        print(f"{status:<11}{name:<40}{workload:<32}{ratio:>8.4f}  "
              f"{a['median']:>14.6g}  {worse:>+9.4f}{noise:>8.4f}{bound:>7.3f}"
              f"  {a['unit']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
