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

from .checkpoint import Checkpoint, CheckpointStore, GCPolicy
from .commands import CommandError, CommandInterpreter, CommandResult
from .compiler_live import CompileReport, LiveCompiler
from .consistency import (
    ConsistencyReport,
    VerifierPool,
    VerifyJob,
    VerifyStatus,
)
from .hotreload import HotReloader, SwapReport
from .parser_live import LiveParser, LiveParseResult
from .regression import (
    CaseResult,
    RegressionCase,
    RegressionReport,
    RegressionSuite,
)
from .session import ERDReport, LiveSession
from .tables import ObjectEntry, ObjectLibraryTable, PipelineTable, StageTable
from .transform import (
    RegisterTransform,
    RegisterTransformHistory,
    TransformOp,
    guess_transforms,
)

__all__ = [
    "ObjectLibraryTable",
    "PipelineTable",
    "StageTable",
    "ObjectEntry",
    "LiveParser",
    "LiveParseResult",
    "LiveCompiler",
    "CompileReport",
    "RegisterTransform",
    "RegisterTransformHistory",
    "TransformOp",
    "guess_transforms",
    "HotReloader",
    "SwapReport",
    "Checkpoint",
    "CheckpointStore",
    "GCPolicy",
    "ConsistencyReport",
    "VerifierPool",
    "VerifyJob",
    "VerifyStatus",
    "ERDReport",
    "LiveSession",
    "CommandInterpreter",
    "CommandResult",
    "CommandError",
    "RegressionSuite",
    "RegressionCase",
    "RegressionReport",
    "CaseResult",
]
