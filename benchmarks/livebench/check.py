"""``run.py check A.json B.json``: did B regress against A?

Compares two result files (``--json`` output, ideally ``--repeat 10``)
metric by metric against the bounds ``BENCHMARK.json`` fixes.  One row
per (workload, end-to-end metric), for every workload of the benchmark
(also the ones ``BENCHMARK.json`` does not list), with both medians and
quartiles and a verdict:

* ``unresolved`` -- the run-to-run spread (distance between quartiles as
  a share of the median) on either side is wider than the bound, a side
  has fewer than 4 untraced runs and so no known spread, or the
  workload was not run at all: neither "no change" nor "regressed" can
  be claimed;
* ``regressed``  -- otherwise, B's median is worse than A's by more than
  the bound;
* ``ok``         -- neither.

``fail_ratio`` must not rise, and the simulated statistics of runs on
the same seed must be identical.  The exact counts (``counts`` of each
run) are compared on shared seeds too and reported as ``changed``
without failing: they are the program's own counters, which a change
may legitimately move.  Exits 1 on any ``regressed`` row.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from .metrics import HIGHER, quartiles
from .workloads import WORKLOADS

ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
)
OK, REGRESSED, UNRESOLVED, CHANGED = "ok", "regressed", "unresolved", "changed"
# Fewer runs than this on a side and its quartiles say nothing.
MIN_RUNS = 4


def load_bounds() -> Dict[str, Dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Dict:
    """Compare two samples of one metric on one workload."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worse = (a_med - b_med if better == HIGHER else b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if min(len(a), len(b)) < MIN_RUNS or spread > bound:
        outcome = UNRESOLVED
    elif worse > bound:
        outcome = REGRESSED
    else:
        outcome = OK
    return {
        "a": (a_q1, a_med, a_q3), "b": (b_q1, b_med, b_q3),
        "worse": worse, "spread": spread, "verdict": outcome,
    }


def untraced(runs: List[Dict]) -> List[Dict]:
    return [run for run in runs if not run["traced"]]


def compare(a: Dict, b: Dict, bounds: Dict[str, Dict],
            workloads: List[str], out=sys.stdout) -> int:
    """Print the table; returns the number of regressed rows."""
    regressed = 0
    header = (f"{'workload':<16} {'metric':<12} {'A q1/median/q3':<36} "
              f"{'B q1/median/q3':<36} {'worse':>8} {'spread':>8}  verdict")
    print(header, file=out)
    for name in workloads:
        runs_a = untraced(a["workloads"].get(name, []))
        runs_b = untraced(b["workloads"].get(name, []))
        if not runs_a or not runs_b:
            for metric in bounds:
                print(f"{name:<16} {metric:<12} {'not run':<73} "
                      f"{'':>17}  {UNRESOLVED}", file=out)
            continue
        for metric, spec in bounds.items():
            row = verdict(
                [run["metrics"][metric] for run in runs_a],
                [run["metrics"][metric] for run in runs_b],
                spec["better"], spec["bound"],
            )
            regressed += row["verdict"] == REGRESSED
            print(
                f"{name:<16} {metric:<12} "
                f"{_triple(row['a']):<36} {_triple(row['b']):<36} "
                f"{100 * row['worse']:>+7.1f}% {100 * row['spread']:>7.1f}%"
                f"  {row['verdict']}",
                file=out,
            )
        ratio_a, text_a = _fail_ratio(runs_a)
        ratio_b, text_b = _fail_ratio(runs_b)
        outcome = REGRESSED if ratio_b > ratio_a else OK
        regressed += outcome == REGRESSED
        print(f"{name:<16} {'fail_ratio':<12} {text_a:<36} {text_b:<36} "
              f"{'':>8} {'':>8}  {outcome}", file=out)
        differing = _differing_seeds(runs_a, runs_b, "simulated")
        outcome = REGRESSED if differing else OK
        regressed += outcome == REGRESSED
        detail = (f"differ on seeds {differing}" if differing
                  else "identical on shared seeds")
        print(f"{name:<16} {'simulated':<12} {detail:<73} "
              f"{'':>17}  {outcome}", file=out)
        differing = _differing_seeds(runs_a, runs_b, "counts")
        detail = (f"differ on seeds {differing}" if differing
                  else "identical on shared seeds")
        print(f"{name:<16} {'counts':<12} {detail:<73} "
              f"{'':>17}  {CHANGED if differing else OK}", file=out)
    return regressed


def _differing_seeds(runs_a: List[Dict], runs_b: List[Dict],
                     key: str) -> List[int]:
    by_seed = {run["seed"]: run[key] for run in runs_a}
    return [
        run["seed"] for run in runs_b
        if run["seed"] in by_seed and by_seed[run["seed"]] != run[key]
    ]


def _triple(values) -> str:
    return "/".join(f"{v:.5g}" for v in values)


def _fail_ratio(runs: List[Dict]):
    failed = sum(run["failed"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    return failed / attempted, f"{failed}/{attempted}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py check",
        description="Compare two livebench result files against the "
                    "bounds in BENCHMARK.json.",
    )
    parser.add_argument("a", metavar="A.json", help="the parent's results")
    parser.add_argument("b", metavar="B.json", help="the change's results")
    args = parser.parse_args(argv)
    with open(args.a) as fh:
        a = json.load(fh)
    with open(args.b) as fh:
        b = json.load(fh)
    regressed = compare(a, b, load_bounds(), list(WORKLOADS))
    if regressed:
        print(f"{regressed} regressed", file=sys.stderr)
    return 1 if regressed else 0
