#!/usr/bin/env python
"""sha256 over every module's generated source, per design and flavour.

The oracle for a code-generator refactor: the same designs through the
parent's generator and the change's, and the output decides.  One row
per design and build flavour::

    design clean|san elide|noelide opt digest san_sites san_elided lines

Designs: the 2x2 and 4x4 PGAS mesh, every ``repro.riscv.patches``
variant of the 2x2, and every module of ``examples/designs/*.v`` as a
top.  Flavours: clean, sanitized with and without ``san_elide``, each
at ``opt=none|full``, and the flat baseline
(:func:`repro.codegen.flatgen.compile_flat`, the ``inline`` mode of
``repro.baseline``: a ``clean inline none`` row), so a change to the
scheduler both generators share is checked in both.  ``digest`` hashes
the ``source`` of every compiled module in key order; the three counts
are sums over them.

No digest is pinned in the repo (every codegen PR would re-pin): run
it at two commits and compare::

    (cd ../parent && python tools/source_digests.py) > parent.txt
    python tools/source_digests.py --against parent.txt

``--against FILE`` generates the rows here, prints the ones that differ
from the saved output (``-`` saved, ``+`` here) and exits 1 if any do.

``--ast`` hashes each module's ``ast.dump(ast.parse(source))`` instead
of its text, so a change meant to alter only how the source is spelled
(parentheses, spacing) and not its bytecode can be checked the same
way: run both sides with ``--ast``.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent
FLAVOURS = [(False, True)] + [(True, elide) for elide in (True, False)]
OPTS = ("none", "full")


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


def _text(source: str) -> str:
    return source


def _syntax(source: str) -> str:
    return ast.dump(ast.parse(source))


def rows(only: Optional[Sequence[str]] = None,
         syntax: bool = False) -> List[str]:
    """One row per design and flavour; ``syntax`` digests each module's
    Python AST instead of its text."""
    from repro.codegen.build import BuildConfig
    from repro.codegen.flatgen import compile_flat
    from repro.hdl import elaborate, parse
    from repro.passes import compile_netlist
    from repro.sanitize import SanitizerRuntime

    spelled = _syntax if syntax else _text
    out = []

    def row(name, flavour, opt, modules) -> None:
        digest = hashlib.sha256()
        for module in modules:
            digest.update(spelled(module.source).encode())
        out.append(" ".join((
            name, flavour, opt, digest.hexdigest()[:16],
            str(sum(m.san_sites for m in modules)),
            str(sum(m.san_elided for m in modules)),
            str(sum(m.source.count("\n") for m in modules)),
        )))

    for name, source, top in designs(only):
        netlist = elaborate(parse(source), top)
        for sanitize, elide in FLAVOURS:
            for opt in OPTS:
                build = BuildConfig(sanitize=sanitize, opt=opt,
                                    san_elide=elide)
                runtime = SanitizerRuntime(mode="report") if sanitize else None
                library = compile_netlist(netlist, build, runtime)
                flavour = ("san " if sanitize else "clean ") + (
                    "elide" if elide else "noelide")
                row(name, flavour, opt, [library[k] for k in sorted(library)])
        row(name, "clean inline", "none", [compile_flat(netlist)])
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
    parser.add_argument(
        "--ast", action="store_true",
        help="digest each module's Python AST, not its text",
    )
    args = parser.parse_args(argv)
    new = rows(args.design, syntax=args.ast)
    if args.against is None:
        print("\n".join(new))
        return 0
    diff = differences(Path(args.against).read_text().splitlines(), new)
    print("\n".join(diff) if diff else f"{len(new)} rows identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    sys.exit(main())
