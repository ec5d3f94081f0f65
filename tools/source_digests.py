#!/usr/bin/env python
"""sha256 over every module's generated source, per design and flavour.

The oracle for a code-generator refactor: the same designs through the
parent's generator and the change's, and the output decides.  One row
per design and build flavour::

    design clean|san elide|noelide opt digest san_sites san_elided lines

Designs: the 2x2 and 4x4 PGAS mesh, every ``repro.riscv.patches``
variant of the 2x2, and every module of ``examples/designs/*.v`` as a
top.  Flavours: clean, sanitized with and without ``san_elide``, each
at ``opt=none|basic|full``.  ``digest`` hashes the ``source`` of every
compiled module in key order; the three counts are sums over them.

No digest is pinned in the repo (every codegen PR would re-pin): run
it at two commits and compare::

    (cd ../parent && python tools/source_digests.py) > parent.txt
    python tools/source_digests.py --against parent.txt

``--against FILE`` generates the rows here, prints the ones that differ
from the saved output (``-`` saved, ``+`` here) and exits 1 if any do.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent
FLAVOURS = [(False, True)] + [(True, elide) for elide in (True, False)]
OPTS = ("none", "basic", "full")


def designs(only: Optional[Sequence[str]]) -> Iterator[Tuple[str, str, str]]:
    """``(row name, source, top)`` for every design, or for the
    ``examples/designs`` files named in ``only``."""
    from repro.hdl import parse

    if not only:
        from repro.riscv.patches import PATCHES
        from repro.riscv.pgas import build_pgas_source, mesh_top_name

        for n in (2, 4):
            yield f"mesh{n}x{n}", build_pgas_source(n), mesh_top_name(n)
        good = build_pgas_source(2)
        for name, patch in PATCHES.items():
            yield f"mesh2x2+{name}", patch.inject(good), mesh_top_name(2)
    for path in sorted((REPO / "examples" / "designs").glob("*.v")):
        if only and path.name not in only:
            continue
        source = path.read_text()
        for top in parse(source).modules:
            yield f"{path.name}:{top}", source, top


def rows(only: Optional[Sequence[str]] = None) -> List[str]:
    from repro.codegen.build import BuildConfig
    from repro.hdl import elaborate, parse
    from repro.passes import run_opt_pipeline
    from repro.sanitize import SanitizerRuntime

    out = []
    for name, source, top in designs(only):
        netlist = elaborate(parse(source), top)
        for sanitize, elide in FLAVOURS:
            for opt in OPTS:
                build = BuildConfig(sanitize=sanitize, opt=opt,
                                    san_elide=elide)
                runtime = SanitizerRuntime(mode="report") if sanitize else None
                library = run_opt_pipeline(netlist, build, runtime)
                digest = hashlib.sha256()
                for key in sorted(library):
                    digest.update(library[key].source.encode())
                modules = library.values()
                out.append(" ".join((
                    name,
                    "san" if sanitize else "clean",
                    "elide" if elide else "noelide",
                    opt,
                    digest.hexdigest()[:16],
                    str(sum(m.san_sites for m in modules)),
                    str(sum(m.san_elided for m in modules)),
                    str(sum(m.source.count("\n") for m in modules)),
                )))
    return out


def differences(old: List[str], new: List[str]) -> List[str]:
    """Rows present on one side only, ``-`` old and ``+`` new."""
    old_set, new_set = set(old), set(new)
    return (["- " + row for row in old if row not in new_set]
            + ["+ " + row for row in new if row not in old_set])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--against", metavar="FILE",
        help="diff against a saved output; exit 1 on a difference",
    )
    parser.add_argument(
        "--design", action="append", metavar="FILE.v",
        help="only this file of examples/designs (repeatable)",
    )
    args = parser.parse_args(argv)
    new = rows(args.design)
    if args.against is None:
        print("\n".join(new))
        return 0
    diff = differences(Path(args.against).read_text().splitlines(), new)
    print("\n".join(diff) if diff else f"{len(new)} rows identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    sys.exit(main())
