"""Host model tests: cache simulator, branch predictor, the census-read
cost, trace synthesis, and the Table VII qualitative shapes."""

import dataclasses
import dis
import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.baseline import BaselineCompiler
from repro.bench.tables import census_cost
from repro.codegen.module import entry_points, exec_source
from repro.hdl import elaborate, parse
from repro.hostmodel.branch import BranchPredictor
from repro.hostmodel.cache import CacheConfig, CacheSim
from repro.hostmodel.perf import HostMachine, PerfModel
from repro.hostmodel.trace import TraceSynthesizer
from repro.passes import compile_netlist
from repro.riscv.pgas import build_pgas_source, mesh_top_name


class TestCacheSim:
    def test_first_access_misses_second_hits(self):
        cache = CacheSim()
        assert not cache.access(0x1000)
        assert cache.access(0x1000)

    def test_same_line_hits(self):
        cache = CacheSim(CacheConfig(line_bytes=64))
        cache.access(0x1000)
        assert cache.access(0x103F)

    def test_next_line_misses(self):
        cache = CacheSim(CacheConfig(line_bytes=64))
        cache.access(0x1000)
        assert not cache.access(0x1040)

    def test_lru_eviction(self):
        config = CacheConfig(size_bytes=2 * 64, ways=2, line_bytes=64)
        cache = CacheSim(config)
        # One set, two ways: three distinct lines mapping to set 0.
        lines = [0x0000, 0x1000, 0x2000]
        for addr in lines:
            cache.access(addr)
        assert not cache.access(0x0000)  # evicted (LRU)
        assert cache.access(0x2000)

    def test_lru_touch_refreshes(self):
        config = CacheConfig(size_bytes=2 * 64, ways=2, line_bytes=64)
        cache = CacheSim(config)
        cache.access(0x0000)
        cache.access(0x1000)
        cache.access(0x0000)  # refresh
        cache.access(0x2000)  # evicts 0x1000, not 0x0000
        assert cache.access(0x0000)
        assert not cache.access(0x1000)

    def test_working_set_within_capacity_all_hits(self):
        cache = CacheSim()  # 32 KB
        for _ in range(3):
            cache.access_range(0, 16 * 1024)
        stats = cache.stats
        # Only the first sweep misses.
        assert stats.misses == 16 * 1024 // 64

    def test_working_set_beyond_capacity_thrashes(self):
        cache = CacheSim()  # 32 KB
        for _ in range(3):
            cache.access_range(0, 128 * 1024)
        assert cache.stats.miss_rate > 0.9

    def test_access_range_line_count(self):
        cache = CacheSim(CacheConfig(line_bytes=64))
        misses = cache.access_range(10, 130)  # spans 3 lines
        assert misses == 3

    def test_mpki(self):
        cache = CacheSim()
        cache.access(0)
        cache.access(0)
        assert cache.stats.mpki(1000) == 1.0

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, ways=3, line_bytes=64).num_sets

    @given(addresses=st.lists(st.integers(0, 1 << 20), min_size=1,
                              max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_stats_invariants(self, addresses):
        cache = CacheSim()
        for addr in addresses:
            cache.access(addr)
        assert cache.stats.accesses == len(addresses)
        assert 0 <= cache.stats.misses <= cache.stats.accesses
        assert cache.resident_lines() <= (
            cache.config.size_bytes // cache.config.line_bytes
        )


class TestBranchPredictor:
    def test_always_taken_learns(self):
        predictor = BranchPredictor()
        for _ in range(20):
            predictor.predict_and_update(1, True)
        assert predictor.stats.mispredict_rate < 0.2

    def test_alternating_pattern_hurts(self):
        predictor = BranchPredictor()
        for i in range(100):
            predictor.predict_and_update(1, bool(i % 2))
        assert predictor.stats.mispredict_rate > 0.3

    def test_sites_independent(self):
        predictor = BranchPredictor()
        for _ in range(20):
            predictor.predict_and_update(1, True)
            predictor.predict_and_update(2, False)
        assert predictor.stats.mispredict_rate < 0.3

    def test_aliased_sites_interfere(self):
        predictor = BranchPredictor(table_size=1)
        for _ in range(50):
            predictor.predict_and_update(1, True)
            predictor.predict_and_update(2, False)
        assert predictor.stats.mispredict_rate > 0.4

    def test_table_size_power_of_two(self):
        with pytest.raises(ValueError):
            BranchPredictor(table_size=1000)


@functools.lru_cache(maxsize=None)
def costs_for(n):
    """The census-read cost of the n x n mesh compiled by the shared
    compiler (``livesim``) and by the replicated baseline
    (``verilator``), over 4 cycles of the busy-counter program."""
    netlist = elaborate(parse(build_pgas_source(n)), mesh_top_name(n))
    baseline = BaselineCompiler(mode="replicate").compile(netlist)
    return {
        "livesim": census_cost(compile_netlist(netlist), netlist.top, n, 4),
        "verilator": census_cost(baseline.library, baseline.top_key, n, 4),
    }


class TestCostModel:
    def test_shared_code_footprint_flat_in_instances(self):
        c1 = costs_for(1)["livesim"]
        c2 = costs_for(2)["livesim"]
        assert c2.code_bytes == pytest.approx(c1.code_bytes, rel=0.2)

    def test_replicated_code_footprint_scales_with_instances(self):
        c1 = costs_for(1)["verilator"]
        c2 = costs_for(2)["verilator"]
        assert c2.code_bytes > 3 * c1.code_bytes

    def test_instructions_scale_with_cores(self):
        c1 = costs_for(1)["livesim"]
        c2 = costs_for(2)["livesim"]
        assert c2.instructions > 3 * c1.instructions

    def test_select_style_evaluates_both_arms_without_a_jump(self):
        """§V-A's trade-off, read off the code that ran: the baseline's
        select lowering executes more instructions and fewer jumps."""
        costs = costs_for(1)
        assert costs["verilator"].instructions > costs["livesim"].instructions
        assert costs["verilator"].branches < costs["livesim"].branches

    def test_both_libraries_hold_the_same_state(self):
        """Both compile each instance through pygen, which keeps one
        slot per register: the data footprints are equal."""
        costs = costs_for(2)
        assert costs["verilator"].data_bytes == costs["livesim"].data_bytes > 0

    def test_a_replicated_library_has_a_key_per_instance(self):
        costs = costs_for(2)
        shared = costs["livesim"].module_costs
        replicated = costs["verilator"].module_costs
        assert {m.instances for m in replicated.values()} == {1}
        assert len(replicated) == sum(m.instances for m in shared.values()) == 37


class TestTraceAndPerf:
    def test_trace_reports_shared_vs_private_code(self):
        costs = costs_for(2)
        assert costs["livesim"].code_bytes < costs["verilator"].code_bytes

    def test_livesim_icache_stays_cold_verilator_thrashes(self):
        costs = costs_for(4)  # 16 cores: replicated code >> 32 KB I$
        live = TraceSynthesizer(costs["livesim"]).run(cycles=4)
        veri = TraceSynthesizer(costs["verilator"]).run(cycles=4)
        assert live.i_mpki < 1.0
        assert veri.i_mpki > 10 * max(live.i_mpki, 0.01)

    def test_livesim_branch_mpki_higher(self):
        costs = costs_for(2)
        live = TraceSynthesizer(costs["livesim"]).run(cycles=4)
        veri = TraceSynthesizer(costs["verilator"]).run(cycles=4)
        assert live.br_mpki > veri.br_mpki

    def test_perf_model_khz_positive_and_finite(self):
        costs = costs_for(1)
        result = PerfModel().evaluate(costs["livesim"], trace_cycles=4)
        assert 0 < result.khz < float("inf")
        assert 0 < result.ipc <= HostMachine().base_ipc

    def test_calibration_pins_anchor(self):
        costs = costs_for(1)
        model = PerfModel().calibrated(costs["livesim"], 1974.0,
                                       trace_cycles=4)
        result = model.evaluate(costs["livesim"], trace_cycles=4)
        assert result.khz == pytest.approx(1974.0, rel=0.01)

    def test_misses_reduce_ipc(self):
        costs = costs_for(4)
        model = PerfModel()
        live = model.evaluate(costs["livesim"], trace_cycles=4)
        veri = model.evaluate(costs["verilator"], trace_cycles=4)
        assert veri.ipc < live.ipc  # I$ thrash dominates

    def test_trace_deterministic(self):
        costs = costs_for(1)
        a = TraceSynthesizer(costs["livesim"], seed=7).run(cycles=4)
        b = TraceSynthesizer(costs["livesim"], seed=7).run(cycles=4)
        assert (a.i_mpki, a.d_mpki, a.br_mpki) == (b.i_mpki, b.d_mpki, b.br_mpki)


def opcodes(fn):
    """Instructions in ``fn``'s code, an ``EXTENDED_ARG`` prefix with
    the instruction it extends counted once (as the census counts)."""
    return sum(i.opname != "EXTENDED_ARG" for i in dis.get_instructions(fn))


class TestCensusExactness:
    def test_one_more_statement_moves_the_model_by_its_opcodes(
        self, pgas2_netlist_library
    ):
        """Re-exec ``rv_ex``'s generated source with one more statement
        at the top of ``cycle``: the census, and the model's
        instructions per cycle, move by exactly that statement's
        instructions per instance, and nothing else moves."""
        _, netlist, library = pgas2_netlist_library
        key, cycles = "rv_ex", 4
        code = library[key]
        head, marker, tail = code.source.partition("\ndef cycle(")
        signature, newline, body = tail.partition("\n")
        source = head + marker + signature + newline + "    _extra = 1\n" + body
        edited = dataclasses.replace(code, source=source, **entry_points(
            exec_source(source, f"<lhdl:{key}@edited>", code.build, None)))
        added = opcodes(edited.cycle_fn) - opcodes(code.cycle_fn)
        assert added == 2  # LOAD_CONST, STORE_FAST

        before = census_cost(library, netlist.top, 2, cycles)
        after = census_cost({**library, key: edited}, netlist.top, 2, cycles)
        instances = before.module_costs[key].instances
        assert instances == 4
        moved = {
            name: (old, after.module_costs[name])
            for name, old in before.module_costs.items()
            if old != after.module_costs[name]
        }
        assert moved.keys() == {key}
        assert (after.module_costs[key].instructions
                == before.module_costs[key].instructions + added)
        assert after.instructions == pytest.approx(
            before.instructions + added * instances, abs=1e-9)
        assert after.code_bytes > before.code_bytes
