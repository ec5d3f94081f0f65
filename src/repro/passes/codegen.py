"""The sanitize-plan and codegen passes (the back of the pipeline).

``SanitizePlanPass`` decides the instrumentation plan: which runtime
generated code binds to, which check sites the dataflow facts prove
safe to elide and which registers carry a proven constant init for
hot-reload migration (:mod:`repro.sanitize.elide`), and which pure
subtrees are instrumentation-free (so the dynamic optimization passes
can stack with the sanitizer; the generator is asked,
:func:`repro.codegen.pygen.site_count`).

``CodegenPass`` visits the instance tree bottom-up with the session's
derived cache in front of the artifact store in front of
``compile_module``.  It addresses all three by one
:class:`~repro.codegen.build.ModuleKey` per specialization — the module
identity (source fingerprint, value-facts digest), child interfaces and
the session's :class:`~repro.codegen.build.BuildConfig` — so plain,
optimized, sanitized and elided artifacts coexist, and assembles the
:class:`~repro.codegen.optplan.OptPlan` a miss compiles with.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .. import obs
from ..codegen.build import ModuleKey
from ..codegen.optplan import OptPlan
from ..codegen.pygen import CompiledModule, compile_module, site_count
from ..sanitize.elide import EMPTY_PLAN, ElisionPlan, build_elision_plan
from .base import Pass, PassData
from .optimize import _EMPTY_DEAD, _EMPTY_SENS


class SanitizePlanPass(Pass):
    """Decide the instrumentation plan.  Beyond naming codegen's
    implicit runtime dependency, this is where static proof meets the
    dynamic checker: stable-tier value facts elide ob/tr sites, env-
    tier constant registers feed hot reload's poison-free init, and
    the pure subtrees the generator writes no site for are marked
    san-free for the optimizer."""

    name = "sanitize_plan"
    requires = ("elab.facts", "dataflow.facts")
    produces = ("sanitize.plan",)

    def run(self, data: PassData) -> None:
        enabled = data.build.sanitize
        netlist = data.netlist
        elide: Dict[str, ElisionPlan] = {}
        bare: Set[str] = set()  # pure modules with no site of their own
        if enabled:
            san_elide = data.build.san_elide
            elab = data.facts["elab.facts"]
            facts = data.facts["dataflow.facts"] if san_elide else {}
            for key, ir in netlist.modules.items():
                mod_facts = facts.get(key)
                pure = elab[key].pure
                if mod_facts is None and not pure:
                    continue
                # One entry (one computed / reused note) per module.
                # ``pure`` is a fact of the subtree, not of the module
                # identity the entry is cached under: it joins the key.
                plan, no_site = data.cached(
                    self.name, key, (san_elide, pure),
                    lambda: (
                        build_elision_plan(mod_facts, ir)
                        if mod_facts is not None else EMPTY_PLAN,
                        pure and site_count(ir, netlist) == 0,
                    ),
                )
                if mod_facts is not None:
                    elide[key] = plan
                if no_site:
                    bare.add(key)

        def subtree_bare(key: str) -> bool:
            return key in bare and all(
                subtree_bare(inst.child_key)
                for inst in netlist.modules[key].instances
            )

        data.facts["sanitize.plan"] = {
            "enabled": enabled,
            "runtime": data.sanitize_runtime if enabled else None,
            "elide": elide,
            # A pure module's children are pure, so ``bare`` knows them.
            "san_free": frozenset(filter(subtree_bare, bare)),
        }


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
        san_free = san_plan["san_free"]
        elab = data.facts["elab.facts"]
        consts_facts = data.facts["opt.consts"]
        dead_facts = data.facts["opt.dead"]
        sens_facts = data.facts["opt.sensitivity"]
        cache = data.cache
        store = data.store
        library: Dict[str, CompiledModule] = {}
        recompiled: List[str] = []

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
                skip_children=sens.skip_children,
            )

        def child_fp(inst) -> str:
            # A parent's schedule, its eval_out arguments and its
            # eval_out/cycle partition all read the child's *per-
            # output* dependencies, which the interface fp (their
            # union) cannot see: key on the comb signature.  At
            # opt=full the parent also depends on child *purity* (pure
            # subtrees skip cycle) — tag it in.  Under sanitize the
            # skip additionally requires the child subtree to carry
            # zero instrumentation sites.
            fp = netlist.modules[inst.child_key].comb_signature
            if build.opt == "full" and elab[inst.child_key].pure and (
                not build.sanitize or inst.child_key in san_free
            ):
                fp += "+pure"
            return fp

        def visit(key: str) -> CompiledModule:
            if key in library:
                return library[key]
            ir = netlist.modules[key]
            for inst in ir.instances:
                visit(inst.child_key)  # bottom-up
            child_fps = tuple(child_fp(inst) for inst in ir.instances)
            # The generated code is a function of the value facts
            # whenever any consumer is active (optimizer consts, or
            # sanitizer elision), so the whole module identity joins
            # the key, not just the source fingerprint.
            spec, fingerprint, facts_fp = data.identity(key)
            cache_key = ModuleKey(spec, fingerprint, child_fps, facts_fp,
                                  build)

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
                        opt_plan=plan_for(key),
                        elision=elide_plans.get(key, EMPTY_PLAN),
                        key=cache_key,
                    )
                    recompiled.append(key)
                    if store is not None:
                        store.save(cache_key, compiled)
                return compiled

            library[key] = cache.lookup(
                "compile", key, cache_key, obtain, build
            )
            return library[key]

        visit(netlist.top)
        if report is not None:
            report.recompiled_keys.extend(recompiled)
            report.reused_keys.extend(
                key for key in library if key not in recompiled
            )
        data.facts["codegen.library"] = library
