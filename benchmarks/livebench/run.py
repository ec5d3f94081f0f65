#!/usr/bin/env python3
"""The benchmark's one command, named by ``BENCHMARK.json``:

    python3 benchmarks/livebench/run.py --workload W --seed N \
        --seconds S --trace 0|1

(see ``cli.py`` for the rest).  Builds nothing: the program under test
is the pure-Python ``repro`` package under ``src/`` of the same
checkout, which this script puts on the path.  Without it there is
nothing to measure and the exit code is 2.
"""

import os
import sys

ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
)
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, ROOT]
    from benchmarks.livebench.cli import main

    sys.exit(main())
