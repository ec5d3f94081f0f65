"""The sanitize-plan and codegen passes (the back of the pipeline).

``SanitizePlanPass`` decides the instrumentation plan: which runtime
generated code binds to, which check sites the dataflow facts prove
safe to elide (:mod:`repro.sanitize.elide`), which registers carry a
proven constant init for hot-reload migration, and which subtrees are
instrumentation-free (so the dynamic optimization passes can stack
with the sanitizer).

``CodegenPass`` visits the instance tree bottom-up with the in-memory
compile cache in front of the artifact store in front of
``compile_module``.  It addresses all three by one
:class:`~repro.codegen.build.ModuleKey` per specialization — source
fingerprint, child interfaces, value-facts digest and the session's
:class:`~repro.codegen.build.BuildConfig` — so plain, optimized,
sanitized and elided artifacts coexist, and assembles the
:class:`~repro.codegen.optplan.OptPlan` a miss compiles with.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .. import obs
from ..codegen.build import ModuleKey
from ..codegen.optplan import OptPlan
from ..codegen.pygen import CompiledModule, compile_module
from ..sanitize.elide import (
    ElisionPlan,
    build_elision_plan,
    reg_const_init,
    san_free_keys,
)
from .base import Pass, PassData
from .optimize import _EMPTY_DEAD, _EMPTY_SENS


class SanitizePlanPass(Pass):
    """Decide the instrumentation plan.  Beyond naming codegen's
    implicit runtime dependency, this is where static proof meets the
    dynamic checker: stable-tier value facts elide ob/tr sites, env-
    tier constant registers feed hot reload's poison-free init, and a
    site census marks san-free subtrees for the optimizer."""

    name = "sanitize_plan"
    requires = ("dataflow.facts",)
    produces = ("sanitize.plan",)

    def __init__(self):
        # (key, fp, facts digest) -> (ElisionPlan, const-init map)
        self._cache: Dict[Tuple[str, str, str], Tuple[ElisionPlan, dict]] = {}

    def run(self, data: PassData) -> None:
        enabled = data.build.sanitize
        plan: Dict[str, object] = {
            "enabled": enabled,
            "runtime": data.sanitize_runtime if enabled else None,
            "elide": {},
            "const_init": {},
            "san_free": frozenset(),
        }
        if enabled:
            plan["san_free"] = san_free_keys(data.netlist)
            if data.build.san_elide:
                facts = data.facts["dataflow.facts"]
                elide: Dict[str, ElisionPlan] = {}
                const_init: Dict[str, dict] = {}
                for key, ir in data.netlist.modules.items():
                    mod_facts = facts.get(key)
                    if mod_facts is None:
                        continue
                    cache_key = (key, data.fingerprint(ir.name),
                                 mod_facts.digest)
                    cached = self._cache.get(cache_key)
                    if cached is not None:
                        data.note_reused(self.name, key)
                    else:
                        cached = (
                            build_elision_plan(mod_facts),
                            reg_const_init(mod_facts, ir),
                        )
                        self._cache[cache_key] = cached
                        data.note_computed(self.name, key)
                    elide[key] = cached[0]
                    if cached[1]:
                        const_init[key] = cached[1]
                plan["elide"] = elide
                plan["const_init"] = const_init
        data.facts["sanitize.plan"] = plan


class CodegenPass(Pass):
    name = "codegen"
    requires = (
        "elab.facts", "dataflow.facts", "opt.consts", "opt.dead",
        "opt.sensitivity", "sanitize.plan",
    )
    produces = ("codegen.library",)

    def run(self, data: PassData) -> None:
        netlist = data.netlist
        report = data.report
        build = data.build
        san_plan = data.facts["sanitize.plan"]
        runtime = san_plan["runtime"]
        elide_plans: Dict[str, ElisionPlan] = san_plan["elide"]
        const_init: Dict[str, dict] = san_plan["const_init"]
        san_free = san_plan["san_free"]
        elab = data.facts["elab.facts"]
        value_facts = data.facts["dataflow.facts"]
        consts_facts = data.facts["opt.consts"]
        dead_facts = data.facts["opt.dead"]
        sens_facts = data.facts["opt.sensitivity"]
        cache = data.compile_cache
        store = data.store
        library: Dict[str, CompiledModule] = {}

        def plan_for(key: str) -> OptPlan:
            consts, widths = consts_facts.get(key, ({}, {}))
            dead = dead_facts.get(key, _EMPTY_DEAD)
            sens = sens_facts.get(key, _EMPTY_SENS)
            return OptPlan(
                level=build.opt,
                consts=consts,
                const_widths=widths,
                dead_assigns=tuple(sorted(dead.assigns)),
                dead_blocks=tuple(sorted(dead.blocks)),
                guard_blocks=sens.guard_blocks,
                guard_inputs=sens.guard_inputs,
                skip_children=sens.skip_children,
            )

        def facts_fp(key: str) -> str:
            # The generated code is a function of the value facts
            # whenever any consumer is active (optimizer consts, or
            # sanitizer elision); cross-module fact flow means a parent
            # edit can change a child's facts without touching the
            # child's own fingerprint, so the digest must join the key.
            # Empty when dataflow is gated off (opt=none, no sanitize).
            mod_facts = value_facts.get(key)
            return mod_facts.digest if mod_facts is not None else ""

        def child_fp(inst, compiled: CompiledModule) -> str:
            # At opt=full a parent's code depends on child *purity*
            # (pure subtrees skip eval_seq/tick), which the interface
            # fp cannot see — tag it into the key's child component.
            # Under sanitize the skip additionally requires the child
            # subtree to carry zero instrumentation sites.
            fp = compiled.interface_fp
            if build.opt == "full" and elab[inst.child_key].pure and (
                not build.sanitize or inst.child_key in san_free
            ):
                fp += "+pure"
            return fp

        def visit(key: str) -> CompiledModule:
            if key in library:
                return library[key]
            ir = netlist.modules[key]
            child_fps = tuple(
                child_fp(inst, visit(inst.child_key))
                for inst in ir.instances
            )
            cache_key = ModuleKey(
                key, data.fingerprint(ir.name), child_fps, facts_fp(key),
                build,
            )
            compiled = cache.get(cache_key) if cache is not None else None
            if compiled is not None:
                obs.incr("compile.cache_hits")
            elif store is not None:
                # A disk hit reuses the generated code with zero codegen,
                # like a memory hit that also works across a restart or
                # another session; instrumented code rebinds this
                # session's sanitizer runtime.
                compiled = store.load(cache_key, sanitize_runtime=runtime)
            reused = compiled is not None
            if not reused:
                compiled = compile_module(
                    ir,
                    netlist,
                    build,
                    runtime=runtime,
                    opt_plan=plan_for(key) if build.opt != "none" else None,
                    elision=elide_plans.get(key),
                    reg_const_init=const_init.get(key),
                    key=cache_key,
                )
                obs.incr("compile.cache_misses")
                if store is not None:
                    store.save(cache_key, compiled)
            if cache is not None:
                cache[cache_key] = compiled
            library[key] = compiled
            if report is not None:
                (report.reused_keys if reused
                 else report.recompiled_keys).append(key)
            return compiled

        visit(netlist.top)
        data.facts["codegen.library"] = library
