"""Package layering, read off the import statements under ``src/repro``.

``repro.hdl`` is the bottom of the compiler stack: it owns what an
expression means (:mod:`repro.hdl.consteval`) and may not reach up into
the layers that consume it.  ``repro.sanitize`` says where a hook goes
and what it looks like, for a generator it does not import.  Nothing
takes another package's private names: a name two packages need is
public where it lives.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

FORBIDDEN = {
    "repro.hdl": {"repro.codegen", "repro.passes", "repro.sanitize"},
    "repro.sanitize": {"repro.passes", "repro.codegen"},
}
# The runtime's name and the site table in generated text.  (The
# ``"_san"`` global ``exec_source`` binds is the one mention outside.)
HOOK_SPELLINGS = ("_san.", "_SAN_I")


def package_of(module: str) -> str:
    """``repro.hdl.consteval`` -> ``repro.hdl`` (``repro.obs`` stays)."""
    return ".".join(module.split(".")[:2])


def imports():
    """``(file, line, importing module, imported module, names)`` for
    every import statement, function-level ones included."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        here = module.removesuffix(".__init__")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield path, node.lineno, here, alias.name, ()
            elif isinstance(node, ast.ImportFrom):
                target = node.module or ""
                if node.level:  # relative: climb from the containing package
                    base = module.split(".")[:-1]
                    base = base[:len(base) - (node.level - 1)]
                    target = ".".join(base + ([target] if target else []))
                yield (path, node.lineno, here, target,
                       tuple(alias.name for alias in node.names))


def test_lower_layers_do_not_import_upward():
    upward = [
        f"{path.relative_to(SRC)}:{line}: {package_of(here)} imports {target}"
        for path, line, here, target, _ in imports()
        if package_of(target) in FORBIDDEN.get(package_of(here), ())
    ]
    assert not upward, "\n".join(upward)


def test_the_passes_do_not_import_the_expression_generator():
    # What an expression means (width, fold, signedness) is hdl's; the
    # passes read it there, not off the code generator.
    reaching = [
        f"{path.relative_to(SRC)}:{line}: {here} imports {target}"
        for path, line, here, target, names in imports()
        if package_of(here) == "repro.passes"
        and (target == "repro.codegen.exprgen"
             or (target == "repro.codegen" and "exprgen" in names))
    ]
    assert not reaching, "\n".join(reaching)


def test_no_private_name_crosses_a_package():
    private = [
        f"{path.relative_to(SRC)}:{line}: {name} from {target}"
        for path, line, here, target, names in imports()
        if target.startswith("repro") and package_of(target) != package_of(here)
        for name in names
        if name.startswith("_") and not name.startswith("__")
    ]
    assert not private, "\n".join(private)


def test_only_the_sanitizer_spells_a_hook():
    spelled = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        if (SRC / "repro" / "sanitize") not in path.parents
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if any(spelling in line for spelling in HOOK_SPELLINGS)
    ]
    assert not spelled, "\n".join(spelled)
