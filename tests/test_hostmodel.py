"""Host model tests: cache simulator, branch predictor, trace
synthesis, and the Table VII qualitative shapes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen.cost import design_cost
from repro.hdl import elaborate, parse
from repro.hostmodel.branch import BranchPredictor
from repro.hostmodel.cache import CacheConfig, CacheSim
from repro.hostmodel.perf import HostMachine, PerfModel
from repro.hostmodel.trace import TraceSynthesizer
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


def costs_for(n):
    netlist = elaborate(parse(build_pgas_source(n)), mesh_top_name(n))
    return {
        "livesim": design_cost(netlist, "branch"),
        "verilator": design_cost(netlist, "select"),
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

    def test_select_style_more_work_per_module(self):
        costs = costs_for(1)
        # Evaluating both mux arms costs more executed work... but the
        # inline factor gives some back; footprints differ regardless.
        assert costs["verilator"].code_bytes != costs["livesim"].code_bytes

    def test_data_footprint_differs_by_the_next_state_copy(self):
        """Shared code keeps one slot per register; the inlined style
        also keeps a next-state copy of each.  Memories are the same."""
        netlist = elaborate(parse(build_pgas_source(1)), mesh_top_name(1))
        regs = sum(n * netlist.modules[key].num_regs
                   for key, n in netlist.instance_count().items())
        costs = costs_for(1)
        assert costs["verilator"].data_bytes - costs["livesim"].data_bytes == 8 * regs > 0


class TestTraceAndPerf:
    def test_trace_reports_shared_vs_private_code(self):
        costs = costs_for(2)
        shared = TraceSynthesizer(costs["livesim"])
        private = TraceSynthesizer(costs["verilator"])
        assert shared.total_code_bytes < private.total_code_bytes

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


class TestCostModelGroundTruth:
    def test_code_bytes_track_generated_source(self, pgas1_netlist_library):
        """The cost model's footprint estimate must correlate with the
        real generated code: bigger modules get bigger estimates (rank
        agreement), and totals stay within an order of magnitude of a
        bytes-per-source-byte scale factor."""
        from repro.codegen.cost import module_cost

        _, netlist, library = pgas1_netlist_library
        pairs = []
        for key, code in library.items():
            est = module_cost(netlist.modules[key], "branch").code_bytes
            real = len(code.source)
            pairs.append((est, real, key))
        # Rank agreement on the extremes: the two biggest modules by
        # estimate are the two biggest by generated source (rv_ex and
        # rv_id are a near-tie, so exact top-1 is not required), and
        # the smallest agrees exactly.
        top2_est = {p[2] for p in sorted(pairs)[-2:]}
        top2_real = {p[2] for p in sorted(pairs, key=lambda p: p[1])[-2:]}
        assert top2_est == top2_real
        smallest_est = min(pairs)[2]
        smallest_real = min(pairs, key=lambda p: p[1])[2]
        assert smallest_est == smallest_real
        # Scale: estimate/real ratio within 10x across all modules.
        ratios = [est / real for est, real, _ in pairs]
        assert max(ratios) / min(ratios) < 10

    def test_instruction_estimate_tracks_measured_work(
        self, pgas1_netlist_library
    ):
        """Modules the cost model says are heavier really take longer
        to evaluate (coarse: the core's EX stage vs the tiny IF stage)."""
        from repro.codegen.cost import module_cost

        _, netlist, _ = pgas1_netlist_library
        ex = module_cost(netlist.modules["rv_ex"], "branch").instructions
        iff = module_cost(netlist.modules["rv_if"], "branch").instructions
        assert ex > 5 * iff

    def test_a_skipped_pure_child_costs_its_parent_no_old_value_bind(self):
        """``counter.v``'s ``cycle`` skips the pure ``adder`` at every
        opt level, so it reads ``count_q`` once and binds no old value;
        the model charges the bind only when the child is not skipped."""
        from pathlib import Path

        from repro.codegen.cost import module_cost

        source = (Path(__file__).resolve().parent.parent / "examples" / "designs"
                  / "counter.v").read_text()
        netlist = elaborate(parse(source), "top")
        key = next(key for key in netlist.modules if key.startswith("counter"))
        charged = design_cost(netlist, "branch").module_costs[key]
        assert charged == module_cost(netlist.modules[key], "branch", (0,))
        assert module_cost(netlist.modules[key], "branch").loads == charged.loads + 1
