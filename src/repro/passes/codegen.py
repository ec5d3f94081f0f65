"""The sanitize-plan and codegen passes (the back of the pipeline).

``SanitizePlanPass`` decides the instrumentation plan from ``pure`` and
``value_facts``: which check sites the dataflow facts prove safe to
elide and which registers carry a proven constant init for hot-reload
migration (``PassData.elide``, :mod:`repro.sanitize.elide`), and which
pure subtrees are instrumentation-free (``PassData.san_free``, so the
dynamic optimization passes can stack with the sanitizer; the generator
is asked, :func:`repro.codegen.pygen.site_count`).

``CodegenPass`` writes ``PassData.library``.  It visits the instance
tree bottom-up with the session's derived cache in front of the artifact
store in front of ``compile_module``, and addresses all three by one
:class:`~repro.codegen.build.ModuleKey` per specialization — the module
identity (source fingerprint, value-facts digest), child interfaces and
the session's :class:`~repro.codegen.build.BuildConfig` — so plain,
optimized, sanitized and elided artifacts coexist.  A miss compiles
under the module's ``plans`` entry (:data:`~repro.codegen.optplan.NO_OPT`
when it has none) and its ``elide`` entry, and a sanitized build binds
the session's sanitizer runtime.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .. import obs
from ..codegen.build import ModuleKey
from ..codegen.optplan import NO_OPT
from ..codegen.pygen import CompiledModule, compile_module, site_count
from ..sanitize.elide import EMPTY_PLAN, ElisionPlan, build_elision_plan
from .base import Pass, PassData


class SanitizePlanPass(Pass):
    """Decide the instrumentation plan.  This is where static proof
    meets the dynamic checker: stable-tier value facts elide ob/tr
    sites, env-tier constant registers feed hot reload's poison-free
    init, and the pure subtrees the generator writes no site for are
    marked san-free for the optimizer."""

    name = "sanitize_plan"

    def run(self, data: PassData) -> None:
        netlist = data.netlist
        elide: Dict[str, ElisionPlan] = {}
        bare: Set[str] = set()  # pure modules with no site of their own
        if data.build.sanitize:
            san_elide = data.build.san_elide
            facts = data.value_facts if san_elide else {}
            for key, ir in netlist.modules.items():
                mod_facts = facts.get(key)
                pure = key in data.pure
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

        data.elide = elide
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
                        opt_plan=plan,
                        elision=data.elide.get(key, EMPTY_PLAN),
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
        data.library = library
