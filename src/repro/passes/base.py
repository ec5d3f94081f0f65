"""The pass framework: PassData carrier, Pass protocol, PassManager.

A :class:`Pass` declares the fact names it ``requires`` and
``produces``; :class:`PassManager.build` topologically orders the
registered passes by those declarations and validates the pipeline —
a missing producer or a dependency cycle raises
:class:`PipelineError` at build time, not mid-compile.

Facts live in ``PassData.facts`` (fact name -> value).  Per-module
results that should survive a hot reload go through
:meth:`PassData.cached`: the session's
:class:`~repro.codegen.build.DerivedCache` under the one module
identity, which also feeds the computed/reused key lists the ERD report
and ``stats`` surface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..codegen.build import BuildConfig, DerivedCache
from ..ir.netlist import Netlist


class PipelineError(Exception):
    """A pipeline cannot be built: missing requirement or cycle."""


@dataclass
class PassData:
    """The shared carrier every pass reads from and writes to."""

    netlist: Netlist
    fps: Dict[str, str] = field(default_factory=dict)  # module name -> fp
    build: BuildConfig = BuildConfig()
    sanitize_runtime: Any = None  # bound by instrumented code at exec
    cache: DerivedCache = field(default_factory=DerivedCache)
    store: Any = None
    report: Any = None  # CompileReport, when driven by LiveCompiler
    facts: Dict[str, Any] = field(default_factory=dict)

    def identity(self, spec: str) -> Tuple[str, str, str]:
        """The one module identity every derived result is keyed on:
        spec, source fingerprint and value-facts digest.  Cross-module
        fact flow means a parent edit can change a child's facts without
        touching its fingerprint, so the digest is part of *who the
        module is* ("" while dataflow is gated off)."""
        mod_facts = self.facts["dataflow.facts"].get(spec)
        return (
            spec,
            self.fps.get(self.netlist.modules[spec].name, ""),
            mod_facts.digest if mod_facts is not None else "",
        )

    def cached(self, pass_name: str, spec: str, extras: tuple,
               compute: Callable[[], Any]) -> Any:
        """``pass_name``'s result for ``spec``: cached under the module
        identity plus the pass's own ``extras``, else ``compute()``."""
        return self.cache.lookup(
            f"passes.{pass_name}", spec, self.identity(spec) + extras,
            compute, report=self.report,
        )


class Pass:
    """Base class: declare requires/produces, implement ``run``."""

    name: str = "pass"
    requires: Tuple[str, ...] = ()
    produces: Tuple[str, ...] = ()

    def run(self, data: PassData) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name!r} "
            f"requires={list(self.requires)} produces={list(self.produces)}>"
        )


class PassPipeline:
    """A validated, topologically ordered pass sequence."""

    def __init__(self, passes: Sequence[Pass]):
        self.passes: Tuple[Pass, ...] = tuple(passes)

    @property
    def order(self) -> List[str]:
        return [p.name for p in self.passes]

    def run(self, data: PassData) -> PassData:
        for p in self.passes:
            started = time.perf_counter()
            with obs.span(f"passes.{p.name}", opt=data.build.opt):
                p.run(data)
            elapsed = time.perf_counter() - started
            if data.report is not None:
                seconds = data.report.pass_seconds
                seconds[p.name] = seconds.get(p.name, 0.0) + elapsed
            missing = [f for f in p.produces if f not in data.facts]
            if missing:
                raise PipelineError(
                    f"pass {p.name!r} declared but did not produce "
                    f"facts {missing}"
                )
        return data


class PassManager:
    """Registers passes and builds validated pipelines."""

    def __init__(self, passes: Optional[Sequence[Pass]] = None):
        self._passes: List[Pass] = list(passes or ())

    def add(self, p: Pass) -> "PassManager":
        self._passes.append(p)
        return self

    @property
    def passes(self) -> List[Pass]:
        return list(self._passes)

    def build(self) -> PassPipeline:
        """Topo-order by requires/produces (stable: registration order
        breaks ties).  Raises :class:`PipelineError` when a required
        fact has no producer or the dependency graph has a cycle."""
        producers: Dict[str, Pass] = {}
        for p in self._passes:
            for fact in p.produces:
                if fact in producers:
                    raise PipelineError(
                        f"fact {fact!r} produced by both "
                        f"{producers[fact].name!r} and {p.name!r}"
                    )
                producers[fact] = p
        for p in self._passes:
            for fact in p.requires:
                if fact not in producers:
                    raise PipelineError(
                        f"pass {p.name!r} requires fact {fact!r} "
                        "but no registered pass produces it"
                    )
        ordered: List[Pass] = []
        emitted: set = set()
        pending = list(self._passes)
        while pending:
            progressed = False
            for p in list(pending):
                if all(fact in emitted for fact in p.requires):
                    ordered.append(p)
                    emitted.update(p.produces)
                    pending.remove(p)
                    progressed = True
            if not progressed:
                names = [p.name for p in pending]
                raise PipelineError(
                    f"dependency cycle among passes {names}"
                )
        return PassPipeline(ordered)
