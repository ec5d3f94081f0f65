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
sanitized and elided artifacts coexist.  A miss compiles the module's
wiring from :func:`~repro.codegen.callplan.part_demand`, one per module per
run, under its ``plans`` entry (:data:`~repro.codegen.optplan.NO_OPT`
when it has none), and a sanitized build binds the session's sanitizer
runtime.  Each wiring's walks are kept in the derived cache (kind
``codegen.walks``), keyed on what they read: the module identity, its
children's comb signatures and the plan's dead units and skipped
children.  A run re-walks only the modules that changed, and then
propagates which parts each parent calls over every module.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .. import obs
from ..codegen.build import ModuleKey
from ..codegen.callplan import part_demand, part_names
from ..codegen.module import CompiledModule
from ..codegen.optplan import NO_OPT
from ..codegen.pygen import compile_module, site_count
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

        free: Set[str] = set()  # bare all the way down
        for key in netlist.children_first():
            if key in bare and all(inst.child_key in free
                                   for inst in netlist.modules[key].instances):
                free.add(key)
        data.san_free = frozenset(free)


class SensitivityPrunePass(Pass):
    """Mark pure child subtrees, whose ``cycle`` call a parent elides
    entirely (the plan's ``skip_children``), at every opt level: such a
    ``cycle`` would only recompute values nothing commits.  Under
    sanitize the skip additionally requires the child subtree to be
    instrumentation-free: ``san_free``, a subset of ``pure``."""

    name = "sensitivity"

    def run(self, data: PassData) -> None:
        skippable = data.san_free if data.build.sanitize else data.pure
        # A dict walk over facts already computed: cheaper than the
        # cache probe per module the other passes are worth.
        for key, ir in data.netlist.modules.items():
            skip = tuple(index for index, inst in enumerate(ir.instances)
                         if inst.child_key in skippable)
            if skip:
                data.plans[key] = data.plans.get(key, NO_OPT)._replace(
                    skip_children=skip)


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
        walks = {}
        for key, ir in netlist.modules.items():
            plan = data.plans.get(key, NO_OPT)
            walk_key = data.identity(key) + (
                tuple(netlist.modules[inst.child_key].comb_signature
                      for inst in ir.instances),
                plan.dead_assigns, plan.dead_blocks, plan.skip_children)
            walks[key] = cache.lookup("codegen.walks", key, walk_key, dict, build)
        wirings = part_demand(netlist, data.plans, walks)

        for key in netlist.children_first(netlist.top):  # bottom-up
            ir = netlist.modules[key]
            wiring = wirings[key]
            # A parent's schedule, its eval_out arguments and its
            # eval_out/cycle partition all read the child's *per-
            # output* dependencies, which the interface fp (their
            # union) cannot see: key on the comb signature.  A child
            # whose cycle call the plan skips (a pure, and under
            # sanitize san-free, subtree) is tagged too.  The parts
            # the parents call come from their wiring, which the key
            # cannot otherwise see.
            child_fps = tuple(
                netlist.modules[inst.child_key].comb_signature
                + ("+pure" if index in wiring.skip else "")
                for index, inst in enumerate(ir.instances)
            )
            cache_key = ModuleKey(*data.identity(key), child_fps, build,
                                  part_names(ir, wiring.parts))

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
                    compiled = compile_module(wiring, build, runtime, cache_key)
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
        if report is not None:
            report.recompiled_keys.extend(recompiled)
            report.reused_keys.extend(
                key for key in library if key not in recompiled
            )
        data.library = library
