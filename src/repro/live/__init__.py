"""LiveSim core: the live simulation flow (paper §III).

* :mod:`repro.live.parser_live` — LiveParser: attributes edits to
  source regions and decides whether behaviour changed.
* :mod:`repro.live.compiler_live` — LiveCompiler: incremental,
  cache-driven recompilation of only the affected specializations.
* :mod:`repro.live.hotreload` — swaps compiled modules into running
  pipelines and migrates state.
* :mod:`repro.live.transform` — register transformation rules and the
  branching Register Transform History (Tables V and VI).
* :mod:`repro.live.checkpoint` — checkpoint store with the Fig. 2
  garbage-collection policy.
* :mod:`repro.live.replay` — the recorded ops, the one ``rewind``
  every time-travel goes through, and the replay that follows it.
* :mod:`repro.live.consistency` — checkpoint-delta verification
  (Fig. 6): one job, run in process or on the persistent worker pool.
* :mod:`repro.live.session` — the LiveSession command API (Table I).
"""

from .. import lazy_exports

_EXPORTS = {
    ".checkpoint": ("Checkpoint", "CheckpointStore", "GCPolicy"),
    ".commands": ("CommandError", "CommandInterpreter", "CommandResult"),
    ".compiler_live": ("CompileReport", "LiveCompiler"),
    ".consistency": (
        "ConsistencyReport", "VerifierPool", "VerifyJob", "VerifyStatus",
    ),
    ".hotreload": ("HotReloader", "SwapReport"),
    ".parser_live": ("LiveParser", "LiveParseResult"),
    ".regression": (
        "CaseResult", "RegressionCase", "RegressionReport", "RegressionSuite",
    ),
    ".session": ("ERDReport", "LiveSession"),
    ".tables": (
        "ObjectEntry", "ObjectLibraryTable", "PipelineTable", "StageTable",
    ),
    ".transform": (
        "RegisterTransform", "RegisterTransformHistory", "TransformOp",
        "guess_transforms",
    ),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
