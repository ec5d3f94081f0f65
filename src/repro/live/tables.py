"""LiveSim's internal bookkeeping tables (paper Tables II-IV).

* :class:`ObjectLibraryTable` — every stage/testbench object the
  session knows about, with its source path and object path.
* :class:`PipelineTable` — name -> one row per instantiated pipeline.
* :class:`StageTable` — (pipe, stage-name) -> stage instance pointers.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..hdl.errors import SimulationError
from ..sim.stage import StageInst

STAGE = "Stage"
PIPE = "Pipe"
TESTBENCH = "Testbench"


class ObjectEntry(NamedTuple):
    """One row of the Object Library Table (paper Table II)."""

    handle: str
    obj_type: str  # STAGE | PIPE | TESTBENCH
    code_path: str  # e.g. "design.v#adder"
    object_path: str  # e.g. "<livesim>/libdesign#adder#(W=8)"
    payload: object = None  # module name, spec key, or testbench object


class ObjectLibraryTable:
    """Registry of loadable objects, keyed by handle."""

    def __init__(self) -> None:
        self._entries: Dict[str, ObjectEntry] = {}
        self._counter: Dict[str, int] = {}

    def fresh_handle(self, obj_type: str) -> str:
        prefix = {STAGE: "stage", PIPE: "pipe", TESTBENCH: "tb"}[obj_type]
        index = self._counter.get(prefix, 0)
        self._counter[prefix] = index + 1
        return f"{prefix}{index}"

    def add(self, entry: ObjectEntry) -> None:
        if entry.handle in self._entries:
            raise SimulationError(f"duplicate object handle {entry.handle!r}")
        self._entries[entry.handle] = entry

    def get(self, handle: str) -> ObjectEntry:
        entry = self._entries.get(handle)
        if entry is None:
            raise SimulationError(f"unknown object handle {handle!r}")
        return entry

    def __contains__(self, handle: str) -> bool:
        return handle in self._entries

    def __iter__(self) -> Iterator[ObjectEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def by_type(self, obj_type: str) -> List[ObjectEntry]:
        return [e for e in self._entries.values() if e.obj_type == obj_type]

    def rows(self) -> List[Tuple[str, str, str, str]]:
        """Formatted rows mirroring the paper's Table II layout."""
        return [
            (e.handle, e.obj_type, e.code_path, e.object_path)
            for e in self._entries.values()
        ]


class PipelineTable:
    """Name -> one row per instantiated pipeline (paper Table III).

    A row is anything with ``name``, ``handle`` and ``pipe``; a
    session's rows are its pipes' whole timelines
    (:class:`repro.live.session._PipeSession`), so the table is the one
    place a per-pipe fact lives.
    """

    def __init__(self) -> None:
        self._rows: Dict[str, Any] = {}

    def require_free(self, name: str) -> None:
        if name in self._rows:
            raise SimulationError(f"pipeline name {name!r} already in use")

    def add(self, row) -> None:
        self.require_free(row.name)
        self._rows[row.name] = row

    def get(self, name: str):
        row = self._rows.get(name)
        if row is None:
            raise SimulationError(f"unknown pipeline {name!r}")
        return row

    def names(self) -> List[str]:
        return list(self._rows)

    def __contains__(self, name: str) -> bool:
        return name in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator:
        return iter(self._rows.values())

    def rows(self) -> List[Tuple[str, str, str]]:
        """(name, handle, pointer) rows mirroring Table III."""
        return [
            (row.name, row.handle, hex(id(row.pipe)))
            for row in self._rows.values()
        ]


class StageTable:
    """(pipe name, stage name) -> stage instances (paper Table IV).

    Stage names are hierarchical instance paths within the pipe's top
    module ("" denotes the top stage itself), resolved through the
    pipe's Pipeline Table row.
    """

    def __init__(self, pipelines: PipelineTable):
        self._pipelines = pipelines
        self._stages: Dict[Tuple[str, str], str] = {}  # -> handle

    def register(self, pipe_name: str, stage_name: str, handle: str) -> None:
        self._stages[(pipe_name, stage_name)] = handle

    def resolve(self, pipe_name: str, stage_name: str) -> StageInst:
        return self._pipelines.get(pipe_name).pipe.find(stage_name)

    def handle_of(self, pipe_name: str, stage_name: str) -> Optional[str]:
        return self._stages.get((pipe_name, stage_name))

    def rows(self) -> List[Tuple[str, str, str, str]]:
        """(pipe, stage, handle, pointer) rows mirroring Table IV."""
        rows = []
        for (pipe_name, stage_name), handle in self._stages.items():
            try:
                inst = self.resolve(pipe_name, stage_name)
                pointer = hex(id(inst))
            except SimulationError:
                pointer = "<stale>"
            rows.append((pipe_name, stage_name, handle, pointer))
        return rows
