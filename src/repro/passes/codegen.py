"""The sanitize-plan and codegen passes (the back of the pipeline).

``SanitizePlanPass`` writes ``PassData.san_free``: the pure subtrees
the generator writes no sanitizer site for (it is asked,
:func:`repro.codegen.pygen.site_count`), so the dynamic optimization
passes can stack with the sanitizer.  How each site looks is the
build's ``san_elide`` alone (:mod:`repro.sanitize.instrument`).

``CodegenPass`` writes ``PassData.library``.  It visits the instance
tree bottom-up with the session's derived cache in front of the artifact
store in front of ``compile_module``, and addresses all three by one
:class:`~repro.codegen.build.ModuleKey` per specialization — the module
identity (spec, source fingerprint), child interfaces and the session's
:class:`~repro.codegen.build.BuildConfig` — so plain, optimized,
sanitized and elided artifacts coexist.  A miss compiles under the
module's ``plans`` entry (:data:`~repro.codegen.optplan.NO_OPT` when it
has none), and a sanitized build binds the session's sanitizer runtime.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .. import obs
from ..codegen.build import ModuleKey
from ..codegen.optplan import NO_OPT
from ..codegen.pygen import CompiledModule, compile_module, site_count
from ..hdl.errors import HDLError
from .base import Pass, PassData


class SanitizePlanPass(Pass):
    """Mark san-free the pure subtrees the generator writes no site
    for, for the optimizer."""

    name = "sanitize_plan"

    def run(self, data: PassData) -> None:
        netlist = data.netlist
        bare: Set[str] = set()  # pure modules with no site of their own
        if data.build.sanitize:
            for key, ir in netlist.modules.items():
                if key in data.pure and data.cached(
                    self.name, key, (), lambda: site_count(ir, netlist) == 0
                ):
                    bare.add(key)

        def subtree_bare(key: str) -> bool:
            return key in bare and all(
                subtree_bare(inst.child_key)
                for inst in netlist.modules[key].instances
            )

        # A pure module's children are pure, so ``bare`` knows them.
        data.san_free = frozenset(filter(subtree_bare, bare))


class CodegenPass(Pass):
    name = "codegen"

    def run(self, data: PassData) -> None:
        netlist = data.netlist
        report = data.report
        build = data.build
        runtime = data.sanitize_runtime if build.sanitize else None
        cache = data.cache
        store = data.store
        library: Dict[str, CompiledModule] = {}
        recompiled: List[str] = []

        def visit(key: str) -> CompiledModule:
            if key in library:
                return library[key]
            ir = netlist.modules[key]
            for inst in ir.instances:
                visit(inst.child_key)  # bottom-up
            plan = data.plans.get(key, NO_OPT)
            # A parent's schedule, its eval_out arguments and its
            # eval_out/cycle partition all read the child's *per-
            # output* dependencies, which the interface fp (their
            # union) cannot see: key on the comb signature.  A child
            # whose cycle call the plan skips (a pure, and under
            # sanitize san-free, subtree at opt=full) is tagged too.
            child_fps = tuple(
                netlist.modules[inst.child_key].comb_signature
                + ("+pure" if index in plan.skip_children else "")
                for index, inst in enumerate(ir.instances)
            )
            cache_key = ModuleKey(*data.identity(key), child_fps, build)

            def obtain() -> CompiledModule:
                obs.incr("compile.cache_miss." + cache_key.miss_reason(
                    cache.latest("compile", key, build)
                ))
                # A disk hit reuses the generated code with zero codegen,
                # like a memory hit that also works across a restart or
                # another session; instrumented code rebinds this
                # session's sanitizer runtime.
                compiled = None
                if store is not None:
                    compiled = store.load(cache_key, sanitize_runtime=runtime)
                if compiled is None:
                    compiled = compile_module(
                        ir,
                        netlist,
                        build,
                        runtime=runtime,
                        opt_plan=plan,
                        key=cache_key,
                    )
                    recompiled.append(key)
                    if store is not None:
                        store.save(cache_key, compiled)
                return compiled

            try:
                library[key] = cache.lookup(
                    "compile", key, cache_key, obtain, build
                )
            except HDLError as err:
                err.place(ir.name, ir.line)
                raise
            return library[key]

        visit(netlist.top)
        if report is not None:
            report.recompiled_keys.extend(recompiled)
            report.reused_keys.extend(
                key for key in library if key not in recompiled
            )
        data.library = library
