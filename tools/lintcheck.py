#!/usr/bin/env python
"""Offline approximation of the CI lint job (``ruff check .``).

The CI workflow runs ruff with the rule set from ``pyproject.toml``
(E4/E5/E7/E9, pyflakes F, isort I).  This script re-implements the
high-signal subset with only the standard library, for environments
where ruff isn't installable.  It is intentionally conservative: a
clean run here is strong (not perfect) evidence the ruff job passes.

Checks:

* E9    — syntax errors (``compile``)
* E401  — multiple imports on one line
* E402  — module-level import not at top of file
* E501  — line too long (honours the codegen per-file ignore)
* E711/E712 — comparisons to None/True/False
* E722  — bare ``except:``
* E731  — lambda assignment
* F401  — unused module-level import (``__all__``-aware)
* F541  — f-string without placeholders
* F811  — redefinition of an unused top-level name
* F841  — local variable assigned but never used (simple cases)
* I001  — import block ordering (ruff/isort defaults: sections,
          straight-before-from, furthest-to-closest relatives)
* PLC2701 — under ``src/repro``: a ``_private`` name imported from
          another ``repro`` package (ruff's rule is preview-only at
          the pinned version, so CI relies on this script and on
          ``tests/test_layering.py`` for it).  Under ``tests/`` the
          rule is stricter and lives only in ``tests/test_layering.py``:
          no test imports or names a ``_private`` attribute of a
          ``repro.codegen`` module, so a test reaches the generator
          through its public names alone
* RPR001 — under ``src/repro``: a public ``def`` whose name occurs
          nowhere in the ``.py`` files of ``src/``, ``tests/``,
          ``tools/``, ``benchmarks/`` or ``examples/`` but at its own
          definitions (dead public API)
* RPR002 — under ``src/repro``: a ``@dataclass`` without a docstring
          (Python builds its ``__doc__`` from ``inspect.signature`` when
          the class is created, about 0.3 ms a class on every start)

Usage: ``python tools/lintcheck.py [paths...]`` (default: repo root).
Exits non-zero when findings exist.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

LINE_LENGTH = 100
E501_IGNORED_DIRS = ("src/repro/codegen",)
FIRST_PARTY = ("repro", "tests", "benchmarks")

try:
    STDLIB = set(sys.stdlib_module_names)
except AttributeError:  # pragma: no cover - python < 3.10
    STDLIB = set()


class Finding:
    def __init__(self, path: Path, line: int, code: str, message: str):
        self.path = path
        self.line = line
        self.code = code
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def iter_py_files(roots: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for root in roots:
        if root.is_file() and root.suffix == ".py":
            files.append(root)
            continue
        for path in sorted(root.rglob("*.py")):
            parts = set(path.parts)
            if {".git", "build", "dist", "__pycache__", ".venv"} & parts:
                continue
            files.append(path)
    return files


# ---------------------------------------------------------------------------
# Text-level checks
# ---------------------------------------------------------------------------


def check_text(path: Path, text: str, findings: List[Finding]) -> None:
    ignore_e501 = any(str(path).startswith(d) for d in E501_IGNORED_DIRS)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "# noqa" in line:
            continue
        if not ignore_e501 and len(line) > LINE_LENGTH:
            findings.append(Finding(
                path, lineno, "E501",
                f"line too long ({len(line)} > {LINE_LENGTH})",
            ))
        stripped = line.strip()
        if re.match(r"^import \w+(\.\w+)*\s*,", stripped):
            findings.append(Finding(
                path, lineno, "E401", "multiple imports on one line"
            ))
        if re.search(r"[=!]=\s*None\b", stripped):
            findings.append(Finding(
                path, lineno, "E711", "comparison to None (use `is`)"
            ))
        if re.search(r"[=!]=\s*(True|False)\b", stripped):
            findings.append(Finding(
                path, lineno, "E712", "comparison to True/False"
            ))
        if re.match(r"^except\s*:", stripped):
            findings.append(Finding(path, lineno, "E722", "bare except"))


# ---------------------------------------------------------------------------
# AST-level checks
# ---------------------------------------------------------------------------


def module_all(tree: ast.Module) -> List[str]:
    names: List[str] = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if "__all__" in targets and isinstance(
                node.value, (ast.List, ast.Tuple)
            ):
                for element in node.value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        names.append(element.value)
    return names


def used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                used.add(root.id)
    # Quoted annotations ("Optional[WorkerContext]") count as usage —
    # but only strings in annotation position, matching pyflakes.
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                if arg.annotation is not None:
                    annotations.append(arg.annotation)
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for token in re.findall(
                    r"[A-Za-z_][A-Za-z0-9_]*", node.value
                ):
                    used.add(token)
    return used


def check_unused_imports(
    path: Path, tree: ast.Module, lines: List[str], findings: List[Finding]
) -> None:
    exported = set(module_all(tree))
    used = used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            entries = [
                (alias, (alias.asname or alias.name).split(".")[0])
                for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            entries = [
                (alias, alias.asname or alias.name) for alias in node.names
            ]
        else:
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias, bound in entries:
            if bound == "*":
                continue
            if alias.asname is not None and alias.asname == alias.name:
                continue  # redundant alias = explicit re-export
            if bound in exported or bound in used:
                continue
            findings.append(Finding(
                path, node.lineno, "F401",
                f"{bound!r} imported but unused",
            ))


def check_fstrings(path: Path, text: str, findings: List[Finding]) -> None:
    """Token-based F541 so implicitly-concatenated parts are seen
    individually and format specs (`:.2f`) don't confuse the check."""
    import io
    import tokenize

    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except tokenize.TokenError:  # pragma: no cover - defensive
        return
    for token in tokens:
        if token.type != tokenize.STRING:
            continue
        match = re.match(r"^([A-Za-z]*)['\"]", token.string)
        if match is None or "f" not in match.group(1).lower():
            continue
        if "{" not in token.string:
            findings.append(Finding(
                path, token.start[0], "F541",
                "f-string without placeholders",
            ))


def check_lambda_assignment(
    path: Path, tree: ast.Module, findings: List[Finding]
) -> None:
    for node in ast.walk(tree):
        value = None
        if isinstance(node, ast.Assign):
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value = node.value
        if isinstance(value, ast.Lambda):
            findings.append(Finding(
                path, node.lineno, "E731", "lambda assigned to a name"
            ))


def check_late_imports(
    path: Path, tree: ast.Module, lines: List[str],
    findings: List[Finding],
) -> None:
    seen_code = False
    for node in tree.body:
        if isinstance(node, ast.Expr) and isinstance(
            node.value, ast.Constant
        ):
            continue  # docstring / string constant
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if seen_code and "# noqa" not in lines[node.lineno - 1]:
                findings.append(Finding(
                    path, node.lineno, "E402",
                    "module-level import not at top of file",
                ))
            continue
        if isinstance(node, ast.If):
            # `if TYPE_CHECKING:` / version guards around imports are
            # conventional; don't count them as code.
            continue
        seen_code = True


def check_unused_locals(
    path: Path, tree: ast.Module, findings: List[Finding]
) -> None:
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned: Dict[str, int] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    assigned.setdefault(target.id, node.lineno)
        if not assigned:
            continue
        loaded = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, (ast.AugAssign, ast.Global, ast.Nonlocal)):
                if isinstance(node, ast.AugAssign):
                    if isinstance(node.target, ast.Name):
                        loaded.add(node.target.id)
                else:
                    loaded.update(node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                loaded.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", node.value))
        for name, lineno in sorted(assigned.items()):
            if name not in loaded:
                findings.append(Finding(
                    path, lineno, "F841",
                    f"local variable {name!r} assigned but never used",
                ))


def check_redefinitions(
    path: Path, tree: ast.Module, findings: List[Finding]
) -> None:
    defined: Dict[str, int] = {}
    for node in tree.body:
        names: List[Tuple[str, int]] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
        elif isinstance(node, ast.Import):
            names.extend(
                ((a.asname or a.name).split(".")[0], node.lineno)
                for a in node.names
            )
        elif isinstance(node, ast.ImportFrom):
            names.extend(
                (a.asname or a.name, node.lineno)
                for a in node.names
                if a.name != "*"
            )
        for name, lineno in names:
            if name in defined:
                findings.append(Finding(
                    path, lineno, "F811",
                    f"redefinition of {name!r} "
                    f"(first defined line {defined[name]})",
                ))
            defined[name] = lineno


# ---------------------------------------------------------------------------
# Import ordering (I001 approximation)
# ---------------------------------------------------------------------------


def import_section(node) -> int:
    """0=future, 1=stdlib, 2=third-party, 3=first-party, 4=relative."""
    if isinstance(node, ast.ImportFrom):
        if node.level > 0:
            return 4
        module = node.module or ""
    else:
        module = node.names[0].name
    root = module.split(".")[0]
    if root == "__future__":
        return 0
    if root in STDLIB:
        return 1
    if root in FIRST_PARTY:
        return 3
    return 2


def import_sort_key(node) -> tuple:
    """Approximate ruff/isort default ordering within a section."""
    if isinstance(node, ast.Import):
        # Straight imports sort before from-imports.
        return (0, node.names[0].name.lower())
    level = node.level
    module = node.module or ""
    # furthest-to-closest: more dots first.
    return (1, -level, module.lower())


def check_import_order(
    path: Path, tree: ast.Module, lines: List[str], findings: List[Finding]
) -> None:
    # Contiguous top-of-module import block (docstring allowed first).
    block: List = []
    for node in tree.body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            if not block:
                continue
            break
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa" in lines[node.lineno - 1]:
                return
            block.append(node)
        else:
            break
    if len(block) < 2:
        return
    keys = [(import_section(n), import_sort_key(n)) for n in block]
    if keys != sorted(keys):
        ordered = sorted(zip(keys, block), key=lambda p: p[0])
        want = ", ".join(_import_repr(n) for _, n in ordered)
        findings.append(Finding(
            path, block[0].lineno, "I001",
            f"import block unsorted; expected order: {want}",
        ))


def _import_repr(node) -> str:
    if isinstance(node, ast.Import):
        return node.names[0].name
    return "." * node.level + (node.module or "")


# ---------------------------------------------------------------------------
# Private names stay inside their package (PLC2701, first-party only)
# ---------------------------------------------------------------------------


def check_private_imports(
    path: Path, tree: ast.Module, findings: List[Finding]
) -> None:
    parts = path.with_suffix("").parts
    if "src" not in parts:
        return
    # What follows the last "src": repro.<package>.<module>
    module = list(parts[len(parts) - parts[::-1].index("src"):])
    if module[:1] != ["repro"]:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        target = node.module.split(".") if node.module else []
        if node.level:
            base = module[:-1]
            target = base[:len(base) - (node.level - 1)] + target
        if target[:1] != ["repro"] or target[:2] == module[:2]:
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                findings.append(Finding(
                    path, node.lineno, "PLC2701",
                    f"private name {alias.name!r} imported from "
                    f"{'.'.join(target)}",
                ))


# ---------------------------------------------------------------------------
# Public API has a caller (RPR001, src/repro only)
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
CALLER_TREES = ("src", "tests", "tools", "benchmarks", "examples")
WORD = re.compile(r"[A-Za-z_]\w*")


def public_defs(text: str) -> List[Tuple[str, int]]:
    try:
        tree = ast.parse(text)
    except SyntaxError:  # reported as E9
        return []
    return [
        (node.name, node.lineno) for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def check_unreferenced_defs(files: Sequence[Path]) -> List[Finding]:
    """A public ``def`` under ``src/repro`` whose name occurs in the
    ``.py`` files of :data:`CALLER_TREES` (comments and strings
    included) only at definitions of that name has no caller."""
    words: Counter = Counter()
    defined: Counter = Counter()
    for path in iter_py_files([REPO / tree for tree in CALLER_TREES]):
        text = path.read_text()
        words.update(WORD.findall(text))
        if PACKAGE in path.parents:
            defined.update(name for name, _ in public_defs(text))
    findings: List[Finding] = []
    for path in files:
        if PACKAGE not in path.resolve().parents:
            continue
        for name, line in public_defs(path.read_text()):
            if words[name] <= defined[name]:
                findings.append(Finding(
                    path, line, "RPR001",
                    f"public def {name!r} is referenced nowhere else",
                ))
    return findings


# ---------------------------------------------------------------------------
# Dataclasses carry a docstring (RPR002, src/repro only)
# ---------------------------------------------------------------------------


def _is_dataclass_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == "dataclass") or (
        isinstance(node, ast.Attribute) and node.attr == "dataclass"
    )


def check_dataclass_docstrings(
    path: Path, tree: ast.Module, findings: List[Finding]
) -> None:
    if PACKAGE not in path.resolve().parents:
        return
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ClassDef)
            and ast.get_docstring(node) is None
            and any(map(_is_dataclass_decorator, node.decorator_list))
        ):
            findings.append(Finding(
                path, node.lineno, "RPR002",
                f"dataclass {node.name!r} has no docstring",
            ))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def check_file(path: Path) -> List[Finding]:
    findings: List[Finding] = []
    text = path.read_text()
    lines = text.splitlines()
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        findings.append(Finding(
            path, exc.lineno or 0, "E9", f"syntax error: {exc.msg}"
        ))
        return findings
    check_text(path, text, findings)
    check_unused_imports(path, tree, lines, findings)
    check_fstrings(path, text, findings)
    check_lambda_assignment(path, tree, findings)
    check_late_imports(path, tree, lines, findings)
    check_unused_locals(path, tree, findings)
    check_redefinitions(path, tree, findings)
    check_import_order(path, tree, lines, findings)
    check_private_imports(path, tree, findings)
    check_dataclass_docstrings(path, tree, findings)
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv if argv is not None else sys.argv[1:])
    roots = [Path(arg) for arg in argv] or [Path(".")]
    findings: List[Finding] = []
    files = iter_py_files(roots)
    for path in files:
        findings.extend(check_file(path))
    findings.extend(check_unreferenced_defs(files))
    for finding in findings:
        print(finding)
    print(f"{len(findings)} finding(s) in {len(files)} file(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
