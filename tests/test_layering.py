"""Package layering, read off the import statements under ``src/repro``.

``repro.hdl`` is the bottom of the compiler stack: it owns what an
expression means (:mod:`repro.hdl.consteval`) and may not reach up into
the layers that consume it.  ``repro.sanitize`` says where a hook goes
and what it looks like, for a generator it does not import.  Nothing
takes another package's private names: a name two packages need is
public where it lives.  Nothing unpickles bytes that no header check
passed.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

FORBIDDEN = {
    "repro.hdl": {"repro.codegen", "repro.passes", "repro.sanitize"},
    "repro.sanitize": {"repro.passes", "repro.codegen"},
}
# The runtime's name and the site table in generated text.  (The
# ``"_san"`` global ``exec_source`` binds is the one mention outside.)
HOOK_SPELLINGS = ("_san.", "_SAN_I")
# What may unpickle bytes that no ``read_sealed`` returned, and how
# often: the pool worker's reads of what the parent process pickled.
UNSEALED_READS = {("repro/live/consistency.py", "_pool_verify_segment"): 3}


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


def test_the_host_model_reads_only_the_runtime_contract():
    # Table VII reads what generated code did (a census of it running)
    # and what an instance's state holds; it re-derives no decision of
    # a generator, so nothing else of codegen reaches it.
    reaching = [
        f"{path.relative_to(SRC)}:{line}: {here} imports {target}"
        for path, line, here, target, names in imports()
        if package_of(here) == "repro.hostmodel"
        and package_of(target) == "repro.codegen"
        and target != "repro.codegen.module"
        and not (target == "repro.codegen" and set(names) <= {"module"})
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


def _is_call_to(node, name):
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def unpicklings():
    """``(file, line, enclosing function, whether the bytes came from
    read_sealed)`` for every ``pickle.load``/``pickle.loads`` call.
    Sealed means the argument is a ``read_sealed(...)`` call or a name
    the same function assigned from one."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {
            child: node
            for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)
        }
        for call in ast.walk(tree):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("load", "loads")
                and getattr(call.func.value, "id", None) == "pickle"
            ):
                continue
            func = parents[call]
            while not isinstance(
                func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
            ):
                func = parents[func]
            sealed_names = {
                target.id
                for node in ast.walk(func)
                if isinstance(node, ast.Assign)
                and _is_call_to(node.value, "read_sealed")
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            arg = call.args[0] if call.args else None
            sealed = _is_call_to(arg, "read_sealed") or (
                isinstance(arg, ast.Name) and arg.id in sealed_names
            )
            yield (path.relative_to(SRC).as_posix(), call.lineno,
                   getattr(func, "name", None), sealed)


def test_every_unpickling_reads_what_read_sealed_checked():
    calls = list(unpicklings())
    assert any(sealed for *_, sealed in calls)
    unsealed = {}
    for where, line, func, sealed in calls:
        if not sealed:
            unsealed.setdefault((where, func), []).append(line)
    strays = [
        f"{where}:{lines[0]}: {func} unpickles unchecked bytes"
        for (where, func), lines in unsealed.items()
        if len(lines) != UNSEALED_READS.get((where, func))
    ]
    assert not strays, "\n".join(strays)
    imported = [
        f"{path.relative_to(SRC)}:{line}: {names} from pickle"
        for path, line, here, target, names in imports()
        if target == "pickle" and names
    ]
    assert not imported, "\n".join(imported)


# The simulator, the live layer, the artifact store, the sanitizer and
# the analyzer run compiled modules, never the generator that built
# them: of codegen they take the runtime contract and the build key.
# The flat baseline also lowers with the expression and statement
# generators both generators share, never with the shared-module one.
CONTRACT = {"repro.codegen.module", "repro.codegen.build"}
CONTRACT_ONLY = {
    "repro.sim": CONTRACT,
    "repro.live": CONTRACT,
    "repro.server": CONTRACT,
    "repro.sanitize": CONTRACT,
    "repro.analyze": CONTRACT,
    "repro.codegen.flatgen": CONTRACT | {"repro.codegen.emitter", "repro.codegen.exprgen"},
}
CODEGEN = SRC / "repro" / "codegen"
TESTS = Path(__file__).resolve().parent


def codegen_modules(target: str, names) -> set:
    """The ``repro.codegen`` modules an import of ``names`` from
    ``target`` reaches (a name off the package counts as a module)."""
    if target == "repro.codegen":
        return {f"repro.codegen.{name}" for name in names}
    return {target} if target.startswith("repro.codegen.") else set()


def test_the_runtime_imports_only_the_contract_of_codegen():
    reaching = [
        f"{path.relative_to(SRC)}:{line}: {here} imports {module}"
        for path, line, here, target, names in imports()
        for allowed in [CONTRACT_ONLY.get(here, CONTRACT_ONLY.get(package_of(here)))]
        if allowed is not None
        for module in sorted(codegen_modules(target, names) - allowed)
    ]
    assert not reaching, "\n".join(reaching)


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_test_names_a_private_attribute_of_codegen():
    stems = "|".join(sorted(path.stem for path in CODEGEN.glob("*.py")))
    spelled = re.compile(rf"\b(?:repro\.codegen\.)?(?:{stems})\._[A-Za-z]")
    found = []
    for path in sorted(TESTS.rglob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # names this file binds to a repro.codegen module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro.codegen"):
                for alias in node.names:
                    if private(alias.name):
                        found.append((path, node.lineno, f"imports {alias.name}"))
                    if (CODEGEN / f"{alias.name}.py").exists():
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                modules.update(alias.asname for alias in node.names
                               if alias.asname and alias.name.startswith("repro.codegen."))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and private(node.attr) and (
                    getattr(node.value, "id", None) in modules
                    or ast.unparse(node.value).startswith("repro.codegen.")):
                found.append((path, node.lineno, ast.unparse(node)))
            elif isinstance(node, ast.Call) and len(node.args) > 1 and getattr(
                    node.args[0], "id", None) in modules and isinstance(
                    node.args[1], ast.Constant) and private(str(node.args[1].value)):
                found.append((path, node.lineno, ast.unparse(node)))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and (
                    spelled.search(node.value)):
                found.append((path, node.lineno, spelled.search(node.value).group()))
    assert not found, "\n".join(f"{path.relative_to(TESTS.parent)}:{line}: {what}"
                                for path, line, what in found)
