"""CLI entry point: ``python -m repro.analyze``.

Runs the static analyses over one or more LHDL designs (files or
directories of ``*.v`` files) and prints the findings; optionally
writes a ``repro.analyze/v1`` JSON report and diffs it against a
checked-in baseline — the CI ``analyze-examples`` gate::

    python -m repro.analyze design.v --top top
    python -m repro.analyze examples/designs \\
        --json ANALYZE.json \\
        --baseline benchmarks/baselines/analyze_baseline.json

Exit codes: 0 clean / findings match baseline; 1 usage or toolchain
error; 2 baseline mismatch (new or missing findings); 3 error-class
findings present with ``--fail-on-error``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from ..hdl.elaborate import elaborate
from ..hdl.errors import HDLError
from ..hdl.parser import parse
from .engine import Analyzer
from .report import (
    build_report,
    design_entry,
    diff_reports,
    load_report,
    write_report,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="LiveSim static analysis: semantic checks over "
                    "elaborated LHDL designs",
    )
    parser.add_argument(
        "designs", nargs="+",
        help="LHDL source files, or directories scanned for *.v",
    )
    parser.add_argument(
        "--top",
        help="top module (defaults to the last module in each file)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="write a repro.analyze/v1 JSON report to PATH",
    )
    parser.add_argument(
        "--baseline", metavar="PATH",
        help="diff findings against a checked-in repro.analyze/v1 "
             "report; new or missing findings exit 2",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="append each proof-backed finding's value derivation "
             "chain (one indented line per contributing fact); the "
             "chain's line numbers are source lines, same as the "
             "findings themselves",
    )
    parser.add_argument(
        "--fail-on-error", action="store_true",
        help="exit 3 when any error-class finding is reported",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-finding output (summary only)",
    )
    return parser


def _collect_designs(paths: List[str]) -> List[str]:
    designs: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            designs.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.endswith(".v")
            )
        else:
            designs.append(path)
    return designs


def _analyze_file(
    analyzer: Analyzer, path: str, top: Optional[str]
) -> Tuple[dict, int]:
    with open(path) as fh:
        source = fh.read()
    design = parse(source)
    modules = list(design.modules)
    if not modules:
        raise HDLError(f"{path}: design defines no modules")
    chosen = top or modules[-1]
    if chosen not in modules:
        raise HDLError(
            f"{path}: top module {chosen!r} not in design (have {modules})"
        )
    netlist = elaborate(design, chosen)
    report = analyzer.analyze_netlist(netlist)
    rel = os.path.relpath(path).replace(os.sep, "/")
    return design_entry(rel, chosen, report.diagnostics), len(report.errors)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    paths = _collect_designs(args.designs)
    if not paths:
        print("error: no designs found", file=sys.stderr)
        return 1

    analyzer = Analyzer()
    entries = []
    total = {"error": 0, "warning": 0, "info": 0}
    error_findings = 0
    try:
        for path in paths:
            entry, errors = _analyze_file(analyzer, path, args.top)
            entries.append(entry)
            error_findings += errors
            for severity, count in entry["counts"].items():
                total[severity] = total.get(severity, 0) + count
            if not args.quiet:
                print(f"{entry['design']} (top {entry['top']}): "
                      f"{len(entry['findings'])} finding(s)")
                for finding in entry["findings"]:
                    print(f"  {finding['severity']:<7} "
                          f"[{finding['kind']}] "
                          f"{finding['module']}:{finding['line']}: "
                          f"{finding['message']}")
                    if args.explain:
                        for note in finding.get("notes", ()):
                            print(f"          {note}")
    except (OSError, HDLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = build_report(entries, meta={
        "tool": "python -m repro.analyze",
        "designs_analyzed": len(entries),
    })
    print(f"total: {total['error']} error(s), {total['warning']} "
          f"warning(s), {total['info']} info")

    if args.json:
        try:
            write_report(args.json, report)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 1
        print(f"report written to {args.json}")

    if args.baseline:
        try:
            baseline = load_report(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load baseline: {exc}", file=sys.stderr)
            return 1
        new, missing = diff_reports(baseline, report)
        if new:
            print(f"BASELINE MISMATCH: {len(new)} new finding(s):")
            for design, kind, module, message in new:
                print(f"  + {design}: [{kind}] {module}: {message}")
        if missing:
            print(f"BASELINE MISMATCH: {len(missing)} finding(s) "
                  "disappeared:")
            for design, kind, module, message in missing:
                print(f"  - {design}: [{kind}] {module}: {message}")
        if new or missing:
            print("refresh with: python -m repro.analyze <designs> "
                  "--json <baseline-path>")
            return 2
        print("baseline match: findings identical to "
              f"{os.path.basename(args.baseline)}")

    if args.fail_on_error and error_findings:
        print(f"{error_findings} error-class finding(s) present")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
