"""livebench command line (``run.py``).

    run.py [--workload W[,W...]] [--seed N] [--seconds S] [--trace 0|1]
           [--repeat R] [--json OUT]
    run.py check A.json B.json
    run.py --regen-expected

Runs the named workloads (default: all) one after another, ``--repeat``
times on seeds ``seed, seed+1, ...``, prints every metric by name with
its unit, and ends with the last run as one JSON object on the last
line (what the driver named in ``BENCHMARK.json`` reads).  ``--json``
writes the result file ``check`` compares.  Every run happens in a
fresh child process (see ``child.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import threading
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from . import metrics
from .child import READY, RESULT
from .workloads import DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
# Cold set-ups per untraced run, each its own process that exits when
# set up, with a reference child before and after; ``setup_s`` is their
# median, like every other timing (``metrics.typical``).
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0
SCHEMA = "livebench/v2"


# ---------------------------------------------------------------------------
# Running children
# ---------------------------------------------------------------------------


def spawn_child(name: str, seed: int, seconds: int, traced: bool,
                setup_only: bool) -> Tuple[float, float, Optional[Dict]]:
    """Run one child; returns (start, set-up seconds, result or None).

    Set-up is timed from the spawn to the child's READY line: imports,
    session or server creation, cold compile, testbench load, boot."""
    # The checkout's build directory: the only place runs write to.
    work_dir = os.path.join(ROOT, ".bench_build", f"livebench-{os.getpid()}")
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "child",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(traced)), "--work-dir", work_dir,
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = perf_counter()
    # Its own process group, so that a hung child goes with everything
    # it started (a server and its workers).
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             env=env, cwd=ROOT, start_new_session=True)
    watchdog = threading.Timer(
        CHILD_TIMEOUT_S, os.killpg, (child.pid, signal.SIGKILL)
    )
    watchdog.start()
    setup_s = result = None
    try:
        for line in child.stdout:
            if line.startswith(READY):
                setup_s = perf_counter() - started
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
        child.wait()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        child.stdout.close()
    if child.returncode != 0 or setup_s is None:
        raise RuntimeError(
            f"{name}: child exited with code {child.returncode}"
        )
    return started, setup_s, result


def spawn_reference() -> Tuple[float, float]:
    """(start, seconds) of a child that does a fixed piece of work of
    set-up's kind -- interpreter start, imports, compiling and running
    the probe -- which set-up times are read against.  Probes inside
    this process follow a child's set-up badly: between a quiet host
    and one 2.2 times slower by those probes, set-up over them fell
    from 0.43 to 0.34 while set-up over a reference child stayed
    between 3.2 and 3.8."""
    started = perf_counter()
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "reference"],
        cwd=ROOT, check=True,
    )
    return started, perf_counter() - started


def run_once(name: str, seed: int, seconds: int, traced: bool,
             gate: bool = True) -> Dict:
    """One run of one workload: its metrics, counts and failures."""
    samples = []
    if not traced:
        host = metrics.HostSpeed(metrics.CHILD_REFERENCE_S)
        host.record(*spawn_reference())
        for _ in range(SETUP_SAMPLES):
            samples.append(spawn_child(name, seed, seconds, False, True)[:2])
            host.record(*spawn_reference())
    result = spawn_child(name, seed, seconds, traced, False)[2]
    if result is None:
        raise RuntimeError(f"{name}: child printed no result")
    if not traced:
        result["setup_samples_s"] = [seconds for _, seconds in samples]
        result["metrics"]["setup_s"] = metrics.typical(
            {"setup": samples}, host
        )
    if gate:
        mismatch = expected_mismatch(result)
        if mismatch is not None:
            result["attempted"] += 1
            if mismatch:
                result["failed"] += 1
                result["failures"].append(mismatch)
    return result


# ---------------------------------------------------------------------------
# expected.json: the simulated statistics at the default seed
# ---------------------------------------------------------------------------


def load_expected() -> Dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def expected_mismatch(result: Dict) -> Optional[str]:
    """None when ``expected.json`` does not cover this (seed, seconds);
    else "" on agreement or what differs."""
    expected = load_expected()
    if (result["seed"], result["seconds"]) != (
        expected["seed"], expected["seconds"]
    ):
        return None
    want = expected["workloads"].get(result["workload"])
    if want == result["simulated"]:
        return ""
    keys = sorted(
        key for key in set(want or {}) | set(result["simulated"])
        if (want or {}).get(key) != result["simulated"].get(key)
    )
    return f"simulated statistics differ from expected.json: {keys}"


def regen_expected(names: List[str]) -> int:
    """Rewrite ``expected.json`` from the independent reference models
    (every in-run check must pass first)."""
    workloads = {}
    for name in names:
        result = run_once(name, DEFAULT_SEED, DEFAULT_SECONDS, False,
                          gate=False)
        if result["failed"]:
            print(f"{name}: {result['failures']}", file=sys.stderr)
            return 1
        workloads[name] = result["simulated"]
        print(f"{name}: recorded")
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(
            {"seed": DEFAULT_SEED, "seconds": DEFAULT_SECONDS,
             "workloads": workloads},
            fh, indent=1, sort_keys=True,
        )
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def unit_of(name: str) -> str:
    for table in (metrics.END_TO_END, metrics.PER_LAYER,
                  metrics.SERVER_PER_LAYER):
        if name in table:
            return table[name][0]
    raise KeyError(name)


def print_metrics(result: Dict, out=sys.stdout) -> None:
    values = result["metrics"]
    mode = "traced" if result["traced"] else "untraced"
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{result['seconds']} s, {mode})", file=out)
    measured = sum(
        values.get(k, 0.0)
        for k in ("phase.run.s", "phase.cmd.s", "phase.edit.s")
    )
    edit_wall = values.get("phase.edit.s", 0.0)
    for name, value in values.items():
        line = f"  {name:<28} {value:>16.6g} {unit_of(name)}"
        if result["traced"] and name.endswith(".s") and value:
            if not name.startswith("phase.") and measured:
                line += f"   {100 * value / measured:5.1f}% of measured"
                if edit_wall and name.split(".")[0] in (
                    "hdl", "live", "passes", "codegen", "analyze"
                ):
                    line += f", {100 * value / edit_wall:5.1f}% of edits"
        print(line, file=out)
    print(f"  {'attempted':<28} {result['attempted']:>16d} count", file=out)
    print(f"  {'failed':<28} {result['failed']:>16d} count", file=out)
    print(f"  {'fail_ratio':<28} "
          f"{result['failed'] / result['attempted']:>16.6g} ratio", file=out)
    for failure in result["failures"]:
        print(f"  FAILED: {failure}", file=out)


def contract_line(result: Dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in result["metrics"].items()
        },
    })


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run.py",
        description="End-to-end and per-layer benchmark of the LiveSim "
                    "edit, cycle and command paths.",
    )
    parser.add_argument("--workload", default=",".join(WORKLOADS),
                        help="comma-separated workloads (default: all of "
                             f"{', '.join(WORKLOADS)})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="seconds of measured work the counts are "
                             "scaled to (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced runs, which report the per-layer "
                             "metrics instead of the end-to-end ones")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on seeds seed, seed+1, ...")
    parser.add_argument("--json", metavar="OUT",
                        help="write the result file `check` compares")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite expected.json from the reference "
                             "models at the default seed")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["child"]:
        from .child import main as child_main

        return child_main(argv[1:])
    if argv[:1] == ["reference"]:
        metrics.HostProbe()(runs=20)
        return 0
    if argv[:1] == ["check"]:
        from .check import main as check_main

        return check_main(argv[1:])
    args = build_parser().parse_args(argv)
    names = [name for name in args.workload.split(",") if name]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown or not names:
        print(f"error: unknown workloads {unknown}; have "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.regen_expected:
        return regen_expected(names)
    report = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeat": args.repeat,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "workloads": {},
    }
    failed = 0
    for name in names:
        runs = report["workloads"][name] = []
        for i in range(args.repeat):
            result = run_once(name, args.seed + i, args.seconds,
                              bool(args.trace))
            print_metrics(result)
            failed += result["failed"]
            runs.append(result)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    print(contract_line(result))
    return 1 if failed else 0
