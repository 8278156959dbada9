"""Compare two perfbench results: parent (A) against change (B).

Usage::

    python3 perfbench/compare.py A B

``A`` and ``B`` are each a ``result.json`` written by ``run.py``, or a
directory whose ``result.json`` files (searched recursively, taken in path
order) are pooled into one side.  Run i of A is paired with run i of B, so
alternate the two sides when producing them.

For every workload x end-to-end metric it prints both sides' median and
quartiles, the share of pairs B won (ties count for neither) and a verdict:

- ``improved``: over at least ten pairs, B wins at least 9/10 of them and
  the medians differ by more than A's inter-quartile distance;
- ``regressed``: B's median is worse than A's by more than the bound (for a
  bound of 0, such as ``fail_ratio``: B's mean is worse at all);
- ``unresolved``: A's own spread is wider than the bound, unless over at
  least ten pairs every B run beats every A run (then ``improved``);
- ``unchanged``: otherwise.

It also compares the result digests of the two sides: a change meant only
to speed the simulator up must leave every simulated result identical.
Per-layer self time and calls from traced runs follow, as B/A deltas.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

from run import load_benchmark, metric_specs, quartiles

#: Fewest pairs on which a gain may be claimed.
MIN_PAIRS = 10


def load_runs(path: str) -> List[Dict[str, Any]]:
    if os.path.isdir(path):
        files = sorted(os.path.join(root, name)
                       for root, _dirs, names in os.walk(path)
                       for name in names if name == "result.json")
    else:
        files = [path]
    runs: List[Dict[str, Any]] = []
    for name in files:
        with open(name, encoding="utf-8") as handle:
            runs.extend(json.load(handle)["runs"])
    if not runs:
        raise SystemExit(f"compare: no runs in {path}")
    return runs


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, share of pairs B won)`` by the rules in the docstring."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    share = wins / len(pairs) if pairs else 0.0
    if bound == 0.0:   # may not worsen at all, not even in one run
        worse = sign * (statistics.mean(b) - statistics.mean(a)) < 0
        return ("regressed" if worse else "unchanged"), share
    q1, med_a, q3 = quartiles(a)
    gain = sign * (statistics.median(b) - med_a)
    enough = len(pairs) >= MIN_PAIRS
    if med_a and (q3 - q1) / abs(med_a) > bound:
        every_b_better = min(b) > max(a) if sign > 0 else max(b) < min(a)
        return ("improved" if enough and every_b_better else "unresolved",
                share)
    if enough and share >= 0.9 and gain > q3 - q1:
        return "improved", share
    if gain < -bound * abs(med_a):
        return "regressed", share
    return "unchanged", share


def compare(a_runs: List[Dict[str, Any]], b_runs: List[Dict[str, Any]],
            specs: Dict[str, Tuple[str, str, float]]) -> List[str]:
    lines = []
    workloads = list(dict.fromkeys(run["workload"] for run in a_runs))
    for workload in workloads:
        a = [r for r in a_runs if r["workload"] == workload and not r["trace"]]
        b = [r for r in b_runs if r["workload"] == workload and not r["trace"]]
        lines.append(_diff_digests(workload, a_runs, b_runs))
        for name, (unit, better, bound) in specs.items():
            a_values = [r["metrics"][name] for r in a if name in r["metrics"]]
            b_values = [r["metrics"][name] for r in b if name in r["metrics"]]
            if not a_values or not b_values:
                continue
            result, share = verdict(a_values, b_values, better, bound)
            aq1, amed, aq3 = quartiles(a_values)
            bq1, bmed, bq3 = quartiles(b_values)
            lines.append(
                f"{workload:16s} {name:12s} A {amed:.5g} [{aq1:.5g}-{aq3:.5g}]"
                f" B {bmed:.5g} [{bq1:.5g}-{bq3:.5g}] {unit} "
                f"won {share:.0%} of {min(len(a_values), len(b_values))} "
                f"-> {result}")
        a_layers = [r["layers"] for r in a_runs
                    if r["workload"] == workload and r["trace"]]
        b_layers = [r["layers"] for r in b_runs
                    if r["workload"] == workload and r["trace"]]
        if not a_layers or not b_layers:
            continue
        for name in sorted(set(a_layers[0]) & set(b_layers[0])):
            if not name.endswith((".self_s", ".calls")):
                continue
            a_med = statistics.median(t[name] for t in a_layers if name in t)
            b_med = statistics.median(t[name] for t in b_layers if name in t)
            delta = f"{(b_med - a_med) / a_med:+.1%}" if a_med else "n/a"
            lines.append(f"{workload:16s} {name:32s} A {a_med:.5g} "
                         f"B {b_med:.5g} ({delta}, per unit)")
    return lines


def _diff_digests(workload: str, a_runs: List[Dict[str, Any]],
                  b_runs: List[Dict[str, Any]]) -> str:
    """One line saying whether both sides produced the same results for the
    jobs both ran at the same seed (a service run's job set depends on how
    many rounds fit in its time)."""
    def by_seed(runs: List[Dict[str, Any]]) -> Dict[int, Dict[str, str]]:
        return {r["seed"]: r["digests"] for r in runs
                if r["workload"] == workload}
    a, b = by_seed(a_runs), by_seed(b_runs)
    shared = [(seed, job) for seed in set(a) & set(b)
              for job in set(a[seed]) & set(b[seed])]
    if not shared:
        return f"{workload:16s} results: no job in common"
    differing = sorted(job for seed, job in shared
                       if a[seed][job] != b[seed][job])
    if not differing:
        return f"{workload:16s} results: identical ({len(shared)} jobs)"
    return (f"{workload:16s} results: {len(differing)} of {len(shared)} "
            f"jobs differ, e.g. {differing[0]}")


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    specs = metric_specs(load_benchmark())
    for line in compare(load_runs(argv[0]), load_runs(argv[1]), specs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
