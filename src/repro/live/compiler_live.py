"""LiveCompiler: incremental, cache-driven compilation.

Everything derived from a module (its elaborated IR, value facts, pass
results, findings, the compiled module) lives in the compiler's one
:class:`~repro.codegen.build.DerivedCache`, bounded to the most
recently used generations.  Compilation is cached at specialization
granularity, keyed by :class:`~repro.codegen.build.ModuleKey`.  A
compiled module is reusable when

* its own module source (token fingerprint) is unchanged,
* its parameter set is the same (part of the spec key),
* every child's *interface* fingerprint is unchanged (the parent's
  generated code depends on child port order/widths, not child bodies),
  and
* it was built under the same :class:`~repro.codegen.build.BuildConfig`
  (every flavour of a design coexists in the cache, so toggling back is
  a hit).

The rule is the same in every flavour: no value fact is part of it.
So a body-only edit recompiles exactly one module; an interface edit
recompiles the module plus its ancestor chain — matching the paper's
description of how far a change propagates.

The front end is incremental the same way.  A changed module region is
parsed from the tokens LiveParser already lexed to fingerprint it, with
every item whose lines did not change reused from the module's
committed parse, all changed regions are parsed before any is
installed (a rejected edit leaves the design as it was), and
elaboration reuses one ``ModuleIR`` per specialization from the same
cache under ``(spec key, module fingerprint, child key + comb signature
per instance)``.  The initial design is parsed from the regions' tokens
too, unless it needs the preprocessor.

No cache key holds a position, so a module an edit only moved keeps its
AST, IR, facts, findings and compiled code, all in the coordinates of
the parse that made them; an edited module that moved keeps its base's
(:class:`~repro.live.parser_live.RegionParse`).  Findings and errors are
placed in the file when they are reported: the analyzer moves a static
finding by where its module's header is now against where it was
(``ModuleIR.line``), quoted lines included;
:meth:`LiveCompiler.update_source` / :meth:`LiveCompiler.compile_top`
move the site table of every sanitized module the cache holds the same
way (:func:`repro.sanitize.place_sites`), and ``compile_top`` so moves
an error raised in a module (``HDLError.place`` / ``HDLError.move``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import obs
from ..codegen.build import BuildConfig, DerivedCache
from ..codegen.pygen import CompiledModule
from ..hdl import ast_nodes as ast
from ..hdl.elaborate import elaborate
from ..hdl.errors import HDLError
from ..hdl.lexer import tokenize
from ..hdl.parser import parse
from ..hdl.source_regions import MODULE_REGION, TOPLEVEL_REGION
from ..ir.netlist import Netlist
from ..passes import PassData, build_compile_pipeline
from ..passes.dataflow import ITEMS
from ..sanitize import place_sites
from .parser_live import LiveParseResult, LiveParser


@dataclass
class CompileReport:
    """What one compile recompiled and what it reused (times are the
    ``elaborate`` / ``codegen`` / ``passes.<name>`` obs spans)."""

    top: str
    recompiled_keys: List[str] = field(default_factory=list)
    reused_keys: List[str] = field(default_factory=list)
    # Per-pass incrementality accounting (repro.passes): which spec
    # keys each optimization pass recomputed vs served from its cache.
    pass_computed: Dict[str, List[str]] = field(default_factory=dict)
    pass_reused: Dict[str, List[str]] = field(default_factory=dict)

    def note(self, kind: str, spec: str, hit: bool) -> None:
        """A ``passes.<name>`` cache lookup reused / computed ``spec``."""
        keys = self.pass_reused if hit else self.pass_computed
        keys.setdefault(kind.split(".")[1], []).append(spec)


@dataclass
class CompileResult:
    netlist: Netlist
    library: Dict[str, CompiledModule]
    report: CompileReport


class LiveCompiler:
    """Owns the evolving design source and the derived-result cache."""

    def __init__(
        self,
        source: str,
        build: BuildConfig = BuildConfig(),
        store=None,
        sanitize_runtime=None,
    ):
        """``build`` is the flavour every compile is made under; assign
        :attr:`build` to switch it — artifacts of every flavour coexist
        in the cache, so switching back is a hit.  Under
        ``build.sanitize`` the generated code binds ``sanitize_runtime``
        (a :class:`repro.sanitize.SanitizerRuntime`).

        ``store`` is an optional on-disk artifact store (duck-typed
        ``load(key, sanitize_runtime=)`` / ``save(key, module)``, see
        :class:`repro.server.store.ArtifactStore`).  The in-memory
        cache reads through it and writes behind it, so artifacts
        survive restarts and are shared across sessions."""
        # What makes hot reload incremental; the session's analyzer
        # shares it, so facts the pipeline computed are not recomputed.
        self.cache = DerivedCache()
        self.parser = LiveParser(source)
        self._design = self._parse_initial(source)
        self.build = build
        self._store = store
        self._sanitize_runtime = sanitize_runtime
        self._pipeline = build_compile_pipeline()

    def _parse_initial(self, source: str) -> ast.Design:
        """``parse(source)``, from the tokens LiveParser lexed when the
        module regions alone make up the design: no directive, no macro
        (the incremental rule of :meth:`update_source`), nothing but
        comments between modules and no module defined twice."""
        design = ast.Design()
        try:
            for region in self.parser.regions:
                if region.kind == MODULE_REGION and "`" not in region.text:
                    modules = self.parser.region_parse(
                        region.name).design().modules
                    if design.modules.keys() & modules.keys():
                        break
                    design.modules.update(modules)
                elif region.kind != TOPLEVEL_REGION or len(
                        tokenize(region.text)) > 1:
                    break
            else:
                return design
        except HDLError:
            pass  # the whole-file parse below raises it in its own terms
        return parse(source)

    @property
    def pipeline(self):
        return self._pipeline

    @property
    def artifact_store(self):
        return self._store

    @property
    def source(self) -> str:
        return self.parser.source

    @property
    def design(self):
        return self._design

    def cache_size(self) -> int:
        """Compiled modules held in memory."""
        return self.cache.size("compile")

    # -- source evolution -------------------------------------------------------

    def update_source(self, new_source: str) -> LiveParseResult:
        """Analyze and commit an edit.

        Changed module regions are re-parsed individually when it is
        safe to do so (no macro usage in the changed regions and no
        directive change); otherwise the whole file is re-parsed.
        Raises :class:`HDLError` on syntax errors, leaving the previous
        good source in place.
        """
        started = time.perf_counter()
        with obs.span("parse"):
            return self._update_source(new_source, started)

    def _update_source(
        self, new_source: str, started: float
    ) -> LiveParseResult:
        result = self.parser.analyze(new_source)
        if not result.behavioral:
            # Comments/whitespace only: commit the text, keep everything.
            self._commit(result)
            result.parse_seconds = time.perf_counter() - started
            return result

        regions = {
            r.name: r for r in result.regions if r.kind == MODULE_REGION
        }
        incremental_ok = (
            not result.directive_changed
            and not result.removed_modules
            and all(
                name in regions and "`" not in regions[name].text
                for name in result.changed_modules | result.added_modules
            )
        )
        if incremental_ok:
            # Every changed region parses before any is installed, so a
            # syntax error in one leaves the design untouched.
            parsed = {}
            for name in sorted(result.changed_modules | result.added_modules):
                sub_design = result.parses[name].design()
                if name not in sub_design.modules:
                    raise HDLError(
                        f"edited region no longer defines module {name!r}"
                    )
                parsed[name] = sub_design.modules[name]
            self._design.modules.update(parsed)
        else:
            # Removed modules go with the old design.
            self._design = parse(new_source)
        self._commit(result)
        result.parse_seconds = time.perf_counter() - started
        return result

    def _commit(self, result: LiveParseResult) -> None:
        """Adopt the analyzed text; every compiled module the cache holds
        moves its sites to where its module is in it now."""
        self.parser.commit(result)
        # Sanitized code runs only while the build is sanitized: turning
        # the flavour back on lands its modules through compile_top.
        if self.build.sanitize:
            self._place_sites(self.cache.entries("compile").values())

    def _place_sites(self, modules) -> None:
        for module in modules:
            header = self.parser.header_line(module.name)
            if module.build.sanitize and header is not None:
                place_sites(module, header)

    # -- compilation ---------------------------------------------------------------

    def compile_top(
        self, top: str, params: Optional[Dict[str, int]] = None
    ) -> CompileResult:
        """Elaborate + compile ``top`` through the pass pipeline,
        reusing cached modules (and cached per-pass results)."""
        try:
            return self._compile_top(top, params)
        except HDLError as err:
            # Raised in a module's coordinates: put it where it is now.
            header = self.parser.header_line(err.module)
            if header is not None:
                err.move(header - err.header)
            raise

    def _compile_top(
        self, top: str, params: Optional[Dict[str, int]]
    ) -> CompileResult:
        report = CompileReport(top=top)
        with obs.span("elaborate", top=top):
            netlist = elaborate(
                self._design, top, params,
                cache=self.cache, fingerprint_of=self.parser.fingerprint,
            )
        fps = {
            name: self.parser.fingerprint(name)
            for name in {netlist.modules[k].name for k in netlist.modules}
        }
        data = PassData(
            netlist=netlist,
            fps=fps,
            build=self.build,
            sanitize_runtime=self._sanitize_runtime,
            cache=self.cache,
            store=self._store,
            report=report,
        )
        with obs.span("codegen", top=top, opt=self.build.opt):
            self._pipeline.run(data)
        library: Dict[str, CompiledModule] = data.library
        self._place_sites(library.values())
        obs.gauge("compile.cache_size", self.cache_size())
        obs.gauge("facts.cache_size", sum(
            self.cache.size(kind)
            for kind in ("passes.dataflow", "passes.dataflow.summary", ITEMS)
        ))
        return CompileResult(netlist=netlist, library=library, report=report)
