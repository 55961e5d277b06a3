"""Compare two sets of benchmark runs by the claim rule.

::

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``python -m bench run --out FILE`` appends.
Untraced runs pair up by ``(workload, seed)``; run both sides with the
same seeds, alternating which side goes first (``bench/README.md``).
For every workload and end-to-end metric the verdict is:

* ``improved`` -- at least 10 pairs, the change wins at least 9 in 10
  of them (ties count for neither side), and the medians differ, in the
  change's favour, by more than the parent's interquartile range;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- neither, and the parent's own interquartile range
  is wider than the bound (unless every change run beats every parent
  run), or there are fewer than 10 pairs;
* ``unchanged`` -- neither, within the bound.

``failed_frac`` (failed / attempted over all runs) has a bound of +0:
any increase is a regression.  Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

MIN_PAIRS = 10
WIN_SHARE = 0.9

Runs = Dict[Tuple[str, int], Dict[str, Any]]


def load(path: str) -> Runs:
    """Untraced run results keyed by (workload, seed); the last record
    of a key wins."""
    runs: Runs = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs[(record["workload"], record["seed"])] = \
                        record["result"]
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> str:
    """The verdict for paired samples (``parent[i]`` with ``change[i]``)."""
    sign = 1 if better == "higher" else -1
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    base = statistics.median(parent)
    gain = sign * (statistics.median(change) - base)
    q1, q3 = quartiles(parent)
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and gain > q3 - q1:
        return "improved"
    if -gain > bound * abs(base):
        return "regressed"
    if pairs < MIN_PAIRS:
        return "unresolved"
    separated = (min(sign * c for c in change) >
                 max(sign * p for p in parent))
    if q3 - q1 > bound * abs(base) and not separated:
        return "unresolved"
    return "unchanged"


def compare(parent: Runs, change: Runs,
            config: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for workload in [w["name"] for w in config["workloads"]]:
        seeds = sorted(seed for name, seed in parent
                       if name == workload and (name, seed) in change)
        if not seeds:
            continue
        left = [parent[(workload, seed)] for seed in seeds]
        right = [change[(workload, seed)] for seed in seeds]
        for spec in config["end_to_end"]:
            name = spec["name"]
            a = [r["metrics"][name]["value"] for r in left]
            b = [r["metrics"][name]["value"] for r in right]
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "pairs": len(seeds), "parent": a, "change": b,
                "verdict": verdict(a, b, spec["better"], spec["bound"]),
            })
        fail_a = failed_frac(left)
        fail_b = failed_frac(right)
        rows.append({
            "workload": workload, "metric": "failed_frac", "unit": "ratio",
            "pairs": len(seeds), "parent": [fail_a], "change": [fail_b],
            "verdict": ("regressed" if fail_b > fail_a else
                        "improved" if fail_b < fail_a else "unchanged"),
        })
    return rows


def failed_frac(results: Sequence[Dict[str, Any]]) -> float:
    return (sum(r["failed"] for r in results) /
            sum(r["attempted"] for r in results))


def render(rows: Sequence[Dict[str, Any]]) -> List[str]:
    lines = [f"{'workload':<15} {'metric':<15} {'parent median [q1, q3]':>34}"
             f" {'change':>11} {'delta':>8} {'pairs':>5}  verdict"]
    for row in rows:
        a, b = row["parent"], row["change"]
        base, new = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(a)
        delta = (new - base) / base if base else 0.0
        lines.append(
            f"{row['workload']:<15} {row['metric']:<15} "
            f"{base:>11.4g} [{q1:>9.4g}, {q3:>9.4g}] {new:>11.4g} "
            f"{delta:>+8.1%} {row['pairs']:>5}  {row['verdict']}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 bench/compare.py PARENT.jsonl CHANGE.jsonl",
              file=sys.stderr)
        return 2
    config_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    rows = compare(load(args[0]), load(args[1]), config)
    print("\n".join(render(rows)))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
