"""Compiled-module structure tests: sharing, memoization, state layout."""

import pytest

from repro.codegen.pygen import CACHE_SLOTS
from repro.sim import Pipe, StageInst


class TestCodeSharing:
    def test_instances_share_code_object(self, counter_design):
        netlist, library = counter_design
        pipe = Pipe(netlist.top, library)
        u0 = pipe.find("u0")
        u1 = pipe.find("u1")
        assert u0.code is u1.code
        assert u0.code.eval_out_fn is u1.code.eval_out_fn

    def test_instances_have_private_state(self, counter_design):
        netlist, library = counter_design
        pipe = Pipe(netlist.top, library)
        assert pipe.find("u0").state is not pipe.find("u1").state

    def test_library_has_one_entry_per_spec(self, counter_design):
        netlist, library = counter_design
        assert set(library) == set(netlist.modules)

    def test_source_compiles_once_per_spec(self, pgas1_netlist_library):
        _, netlist, library = pgas1_netlist_library
        # 10 modules for the whole PGAS node+mesh, regardless of size.
        assert len(library) == 10


class TestStateLayout:
    def test_make_state_shape(self, counter_design):
        _, library = counter_design
        code = library["counter#(W=8)"]
        state = code.make_state()
        assert len(state) == 2 * code.num_regs + CACHE_SLOTS
        assert state[code.layout.cache_key_slot] is None

    def test_memory_slots(self, pgas1_netlist_library):
        _, _, library = pgas1_netlist_library
        code = library["rv_memory#(WORDS=4096)"]
        state = code.make_state()
        spec = code.mem_specs["mem"]
        assert len(state[spec.slot]) == 4096
        assert state[spec.pending_slot] == []

    def test_reg_slots_complete(self, pgas1_netlist_library):
        _, _, library = pgas1_netlist_library
        code = library["rv_if"]
        assert code.reg_slots == {"pc_q": 0}
        assert code.reg_widths == {"pc_q": 64}


class TestMemoization:
    def test_repeated_eval_hits_cache(self, counter_design):
        netlist, library = counter_design
        pipe = Pipe(netlist.top, library)
        pipe.set_inputs(rst=0)
        first = pipe.eval()
        key_slot = pipe.top.code.layout.cache_key_slot
        cached_key = pipe.top.state[key_slot]
        assert cached_key is not None
        assert pipe.eval() == first
        assert pipe.top.state[key_slot] is cached_key  # untouched

    def test_tick_invalidates_memo(self, counter_design):
        netlist, library = counter_design
        pipe = Pipe(netlist.top, library)
        pipe.set_inputs(rst=0)
        pipe.eval()
        pipe.tick()
        assert pipe.top.state[pipe.top.code.layout.cache_key_slot] is None

    def test_input_change_misses_cache(self, counter_design):
        netlist, library = counter_design
        pipe = Pipe(netlist.top, library)
        pipe.set_inputs(rst=1)
        pipe.step(1)
        pipe.set_inputs(rst=0)
        pipe.step(2)
        assert pipe.outputs()["c0"] == 2

    def test_poke_invalidates_memo(self, counter_design):
        netlist, library = counter_design
        pipe = Pipe(netlist.top, library)
        pipe.set_inputs(rst=0)
        pipe.eval()
        inst = pipe.find("u0")
        inst.poke_reg("count_q", 77)
        assert inst.state[inst.code.layout.cache_key_slot] is None
        pipe.invalidate()
        assert pipe.eval()["c0"] == 77


class TestCompiledMetadata:
    def test_source_is_kept(self, counter_design):
        _, library = counter_design
        code = library["adder#(W=8)"]
        assert "def eval_out" in code.source
        assert "def cycle" in code.source
        assert code.source.count("def ") == 2  # two entry points

    def test_comb_input_ports_subset_of_inputs(self, pgas1_netlist_library):
        _, _, library = pgas1_netlist_library
        for code in library.values():
            assert set(code.comb_input_ports) <= set(code.inputs)

    def test_seq_only_inputs_excluded_from_eval_out(self, pgas1_netlist_library):
        _, _, library = pgas1_netlist_library
        code = library["rv_if"]
        # pc is registered; nothing affects the outputs combinationally.
        assert code.comb_input_ports == ()

    def test_compile_seconds_recorded(self, counter_design):
        _, library = counter_design
        assert all(c.compile_seconds > 0 for c in library.values())


class TestBuildErrors:
    def test_missing_library_entry(self, counter_design):
        netlist, library = counter_design
        from repro.hdl.errors import SimulationError

        partial = {netlist.top: library[netlist.top]}
        with pytest.raises(SimulationError, match="no compiled module"):
            StageInst.build(netlist.top, partial)
