"""One workload run in one fresh process (so set-up and peak memory are
cold and per workload).  The parent times set-up from the spawn to the
``READY`` line and reads the result from the ``RESULT`` line."""

from __future__ import annotations

import argparse
import json
import resource
from dataclasses import asdict
from typing import List, Optional

from .workloads import WORKLOADS, scaled

READY = "LIVEBENCH-READY"
RESULT = "LIVEBENCH-RESULT "


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="livebench child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", required=True)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    workload = scaled(WORKLOADS[args.workload], args.seconds)
    traced = bool(args.trace)
    if workload.transport == "session":
        from .session_run import SessionRun
        from .trace import Tracer

        run = SessionRun(workload, args.seed, Tracer() if traced else None)
    else:
        from .server_run import ServerRun

        run = ServerRun(workload, args.seed, args.work_dir)
    try:
        run.setup()
        print(READY, flush=True)
        if args.setup_only:
            return 0
        run.measure()
        calib_s = run.host_probe_s()
        # Before the check: the reference model is not the system.
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rss_mb += getattr(run, "server_rss_mb", 0.0)
        simulated = run.check()
        if traced:
            values = run.per_layer()
            values["host.calib_s"] = calib_s
        else:
            values = run.end_to_end()
            values["peak_rss_mb"] = rss_mb
        result = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "traced": traced,
            "params": asdict(workload),
            "metrics": values,
            "attempted": run.attempted,
            "failed": len(run.failures),
            "failures": run.failures[:20],
            "simulated": simulated,
            "counts": run.exact_counts(),
            "host_calib_s": calib_s,
        }
    finally:
        run.close()
    print(RESULT + json.dumps(result), flush=True)
    return 0
