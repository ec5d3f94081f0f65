"""The compile pipeline: the :class:`PassData` carrier and the pass sequence.

Seven passes run in the order :func:`repro.passes.build_compile_pipeline`
writes down.  Each result is one typed field of the carrier, first
written by one pass and read only by passes after it:

* ``pure`` (elab_facts): read by sanitize_plan and sensitivity;
* ``value_facts`` (dataflow): no pass; the analyzer reads the same
  facts from the session cache;
* ``plans`` (constprop; deadlogic and sensitivity refine it): codegen;
* ``san_free`` (sanitize_plan): sensitivity;
* ``library`` (codegen): the caller.

Per-module results that should survive a hot reload go through
:meth:`PassData.cached`: the session's
:class:`~repro.codegen.build.DerivedCache` under the one module
identity, which also feeds the computed/reused key lists the ERD report
and ``stats`` surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Sequence, Tuple

from .. import obs
from ..codegen.build import BuildConfig, DerivedCache
from ..codegen.optplan import OptPlan
from ..codegen.pygen import CompiledModule
from ..hdl.errors import HDLError
from ..ir.netlist import Netlist


@dataclass
class PassData:
    """What one compile threads through the passes: its inputs, then
    one field per pass result (see the module docstring)."""

    netlist: Netlist
    fps: Dict[str, str] = field(default_factory=dict)  # module name -> fp
    build: BuildConfig = BuildConfig()
    sanitize_runtime: Any = None  # bound by instrumented code at exec
    cache: DerivedCache = field(default_factory=DerivedCache)
    store: Any = None
    report: Any = None  # CompileReport, when driven by LiveCompiler
    pure: FrozenSet[str] = frozenset()  # keys with a stateless subtree
    # key -> ModuleValueFacts; empty while dataflow is gated off.
    value_facts: Dict[str, Any] = field(default_factory=dict)
    plans: Dict[str, OptPlan] = field(default_factory=dict)  # empty at opt=none
    san_free: FrozenSet[str] = frozenset()  # pure and no sanitizer site below
    library: Dict[str, CompiledModule] = field(default_factory=dict)

    def identity(self, spec: str) -> Tuple[str, str]:
        """The one module identity every derived result is keyed on:
        spec and source fingerprint, in every flavour (no pass result
        reads a value fact)."""
        return spec, self.fps.get(self.netlist.modules[spec].name, "")

    def cached(self, pass_name: str, spec: str, extras: tuple,
               compute: Callable[[], Any]) -> Any:
        """``pass_name``'s result for ``spec``: cached under the module
        identity plus the pass's own ``extras``, else ``compute()``
        (an :class:`HDLError` it raises is placed in the module)."""
        try:
            return self.cache.lookup(
                f"passes.{pass_name}", spec, self.identity(spec) + extras,
                compute, report=self.report,
            )
        except HDLError as err:
            ir = self.netlist.modules[spec]
            err.place(ir.name, ir.line)
            raise


class Pass:
    """One step of the pipeline: a ``name`` and a ``run``."""

    name: str = "pass"

    def run(self, data: PassData) -> None:
        raise NotImplementedError


class PassPipeline:
    """The passes, run in the order given."""

    def __init__(self, passes: Sequence[Pass]):
        self.passes: Tuple[Pass, ...] = tuple(passes)

    @property
    def order(self) -> List[str]:
        return [p.name for p in self.passes]

    def run(self, data: PassData) -> PassData:
        for p in self.passes:
            with obs.span(f"passes.{p.name}", opt=data.build.opt):
                p.run(data)
        return data
