"""Internal table tests (paper Tables II-IV)."""

from collections import namedtuple

import pytest

from repro import compile_design
from repro.hdl.errors import SimulationError
from repro.live.tables import (
    PIPE,
    STAGE,
    TESTBENCH,
    ObjectEntry,
    ObjectLibraryTable,
    PipelineTable,
    StageTable,
)
from repro.sim import Pipe
from tests.conftest import COUNTER_SRC


# What the Pipeline Table reads of a row (a session's rows are whole
# pipe timelines).
Row = namedtuple("Row", "name handle pipe")


def make_pipe(name="p"):
    netlist, library = compile_design(COUNTER_SRC, "top")
    return Pipe(netlist.top, library, name=name)


class TestObjectLibraryTable:
    def test_fresh_handles_sequence(self):
        table = ObjectLibraryTable()
        assert table.fresh_handle(STAGE) == "stage0"
        assert table.fresh_handle(STAGE) == "stage1"
        assert table.fresh_handle(TESTBENCH) == "tb0"
        assert table.fresh_handle(PIPE) == "pipe0"

    def test_add_and_get(self):
        table = ObjectLibraryTable()
        entry = ObjectEntry("stage0", STAGE, "f.v#m", "<livesim>/lib#m", "m")
        table.add(entry)
        assert table.get("stage0") is entry
        assert "stage0" in table
        assert len(table) == 1

    def test_duplicate_handle_rejected(self):
        table = ObjectLibraryTable()
        table.add(ObjectEntry("h", STAGE, "", "", None))
        with pytest.raises(SimulationError):
            table.add(ObjectEntry("h", STAGE, "", "", None))

    def test_unknown_handle_rejected(self):
        with pytest.raises(SimulationError):
            ObjectLibraryTable().get("ghost")

    def test_by_type_filters(self):
        table = ObjectLibraryTable()
        table.add(ObjectEntry("s0", STAGE, "", "", None))
        table.add(ObjectEntry("t0", TESTBENCH, "", "", None))
        assert [e.handle for e in table.by_type(STAGE)] == ["s0"]

    def test_rows_shape_matches_table2(self):
        table = ObjectLibraryTable()
        table.add(ObjectEntry(
            "stage0", STAGE, "/src/adder.v#adder", "/objs/libc0.so#adder", "adder"
        ))
        rows = table.rows()
        assert rows == [
            ("stage0", STAGE, "/src/adder.v#adder", "/objs/libc0.so#adder")
        ]


class TestPipelineTable:
    def test_add_and_get(self):
        table = PipelineTable()
        row = Row("p0", "pipe0", make_pipe())
        table.add(row)
        assert table.get("p0") is row
        assert table.names() == ["p0"]
        assert "p0" in table and len(table) == 1

    def test_duplicate_name_rejected(self):
        table = PipelineTable()
        first = Row("p0", "pipe0", make_pipe())
        table.add(first)
        with pytest.raises(SimulationError, match="already in use"):
            table.require_free("p0")
        with pytest.raises(SimulationError, match="already in use"):
            table.add(Row("p0", "pipe1", make_pipe()))
        assert table.get("p0") is first

    def test_rows_include_pointers(self):
        table = PipelineTable()
        pipe = make_pipe()
        table.add(Row("p0", "pipe0", pipe))
        (name, handle, pointer), = table.rows()
        assert (name, handle) == ("p0", "pipe0")
        assert pointer == hex(id(pipe))

    def test_items_iterates(self):
        table = PipelineTable()
        table.add(Row("a", "pipe0", make_pipe("a")))
        table.add(Row("b", "pipe1", make_pipe("b")))
        assert [row.name for row in table] == ["a", "b"]


class TestStageTable:
    def test_resolve_hierarchical_path(self):
        pipes = PipelineTable()
        pipe = make_pipe()
        pipes.add(Row("p0", "pipe0", pipe))
        stages = StageTable(pipes)
        stages.register("p0", "u0", "stage0")
        inst = stages.resolve("p0", "u0")
        assert inst is pipe.find("u0")
        assert stages.handle_of("p0", "u0") == "stage0"

    def test_resolve_top_with_empty_path(self):
        pipes = PipelineTable()
        pipe = make_pipe()
        pipes.add(Row("p0", "pipe0", pipe))
        stages = StageTable(pipes)
        assert stages.resolve("p0", "") is pipe.top

    def test_rows_mark_stale_entries(self):
        pipes = PipelineTable()
        pipes.add(Row("p0", "pipe0", make_pipe()))
        stages = StageTable(pipes)
        stages.register("p0", "ghost_stage", "stage9")
        rows = stages.rows()
        assert rows[0][3] == "<stale>"
