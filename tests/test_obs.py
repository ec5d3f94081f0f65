"""repro.obs: spans, metrics, the report schema, and live-loop wiring."""

import gc
import io
import json
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.__main__ import Shell, main
from repro.codegen.build import BuildConfig
from repro.live.session import LiveSession
from repro.obs import (
    MetricsRegistry,
    NullTracer,
    Span,
    Tracer,
    aggregate_phases,
    build_report,
    load_report,
    validate_report,
    write_report,
)
from repro.obs.span import NULL_SPAN, NULL_TRACER
from repro.sim.testbench import hold_inputs
from tests.conftest import COUNTER_SRC

EDITED = COUNTER_SRC.replace("assign sum = a + b;", "assign sum = a + b + 8'd1;")

LIVE_PHASES = (
    "live.update_source", "live.compile_top", "live.swap", "live.reload",
    "live.replay",
)

# ERDReport field -> the span every one of its seconds comes from.
ERD_PHASE_SPANS = {
    "parse_seconds": "live.update_source",
    "compile_seconds": "live.compile_top",
    "analyze_seconds": "analyze.run",
    "swap_seconds": "live.swap",
    "reload_seconds": "live.reload",
    "replay_seconds": "live.replay",
}


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with tracing off and state cleared."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", step=1):
                pass
            with tracer.span("inner", step=2):
                pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots] == ["outer", "second"]
        outer = tracer.roots[0]
        assert [c.name for c in outer.children] == ["inner", "inner"]
        assert outer.children[0].attrs == {"step": 1}
        assert tracer.current() is None

    def test_children_fit_inside_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("a"):
                sum(range(1000))
            with tracer.span("b"):
                sum(range(1000))
        outer = tracer.roots[0]
        child_total = sum(c.duration_ns for c in outer.children)
        assert 0 < child_total <= outer.duration_ns

    def test_find_by_name_across_the_forest(self):
        tracer = Tracer()
        with tracer.span("edit"):
            with tracer.span("compile"):
                pass
        with tracer.span("compile"):
            pass
        assert len(tracer.find("compile")) == 2
        assert tracer.find("nope") == []

    def test_record_attaches_externally_measured_span(self):
        tracer = Tracer()
        with tracer.span("verify"):
            recorded = tracer.record("segment", 1_000_000, index=3)
        assert recorded.duration_ns == 1_000_000
        assert recorded.attrs == {"index": 3}
        verify = tracer.roots[0]
        assert [c.name for c in verify.children] == ["segment"]

    def test_span_recorded_on_another_thread_is_a_root(self):
        obs.enable()
        with obs.span("main"):
            worker = threading.Thread(
                target=obs.record, args=("consistency.segment", 500_000_000)
            )
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        main_span, recorded = obs.get_tracer().roots
        assert main_span.name == "main" and main_span.children == []
        assert recorded.name == "consistency.segment"

    def test_exception_unwinds_the_stack(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer.current() is None
        assert tracer.roots[0].children[0].end_ns > 0

    def test_reset_clears_the_forest(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.roots == []


class TestNullTracer:
    def test_span_is_one_shared_singleton(self):
        tracer = NullTracer()
        assert tracer.span("a") is NULL_SPAN
        assert tracer.span("b", attr=1) is NULL_SPAN
        assert tracer.record("c", 123) is None

    def test_disabled_facade_allocates_no_spans(self):
        assert not obs.enabled()
        gc.collect()
        before = sum(1 for o in gc.get_objects() if isinstance(o, Span))
        for i in range(200):
            with obs.span("hot_path", iteration=i):
                pass
        gc.collect()
        after = sum(1 for o in gc.get_objects() if isinstance(o, Span))
        assert after == before

    def test_enable_disable_swaps_tracers(self):
        tracer = obs.enable()
        assert obs.enabled() and obs.get_tracer() is tracer
        with obs.span("recorded"):
            pass
        assert [s.name for s in tracer.roots] == ["recorded"]
        obs.disable()
        assert not obs.enabled()
        assert obs.get_tracer() is NULL_TRACER


class TestMetrics:
    def test_counters_accumulate(self):
        metrics = MetricsRegistry()
        metrics.incr("edits")
        metrics.incr("edits", 4)
        assert metrics.counter("edits") == 5
        assert metrics.counter("never") == 0

    def test_gauges_overwrite(self):
        metrics = MetricsRegistry()
        metrics.gauge("cache_size", 2)
        metrics.gauge("cache_size", 7)
        assert metrics.gauge_value("cache_size") == 7

    def test_as_dict_is_a_snapshot(self):
        metrics = MetricsRegistry()
        metrics.incr("a")
        snapshot = metrics.as_dict()
        metrics.incr("a")
        assert snapshot == {
            "counters": {"a": 1}, "gauges": {}, "histograms": {},
        }

    def test_reset(self):
        metrics = MetricsRegistry()
        metrics.incr("a")
        metrics.gauge("g", 1)
        metrics.histogram("h", 1.5)
        metrics.reset()
        assert metrics.as_dict() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_histogram_stats(self):
        metrics = MetricsRegistry()
        for value in range(1, 101):
            metrics.histogram("latency", value)
        stats = metrics.histogram_stats("latency")
        assert stats["count"] == 100
        assert stats["sum"] == 5050
        assert stats["min"] == 1 and stats["max"] == 100
        assert stats["p50"] == 50
        assert stats["p95"] == 95
        assert stats["p99"] == 99
        # Unknown histograms read as empty, not KeyError.
        assert metrics.histogram_stats("nope")["count"] == 0

    def test_histogram_percentile_is_nearest_rank(self):
        metrics = MetricsRegistry()
        for value in range(1, 6):
            metrics.histogram("five", value)
        for value in range(1, 151):
            metrics.histogram("wide", value)
        assert metrics.histogram_stats("five")["p50"] == 3
        assert metrics.histogram_stats("wide")["p99"] == 149

    def test_histogram_single_observation(self):
        metrics = MetricsRegistry()
        metrics.histogram("h", 7)
        stats = metrics.histogram_stats("h")
        assert stats == {
            "count": 1, "sum": 7, "min": 7, "max": 7,
            "p50": 7, "p95": 7, "p99": 7,
        }

    def test_histogram_window_is_bounded(self):
        from repro.obs.metrics import HISTOGRAM_WINDOW, Histogram

        hist = Histogram()
        for value in range(3 * HISTOGRAM_WINDOW):
            hist.observe(value)
        assert len(hist.window) == HISTOGRAM_WINDOW
        # count/sum/min/max stay exact over the full lifetime even
        # though percentiles only see the most recent window.
        assert hist.count == 3 * HISTOGRAM_WINDOW
        assert hist.min == 0
        assert hist.max == 3 * HISTOGRAM_WINDOW - 1
        assert hist.percentile(50) >= 2 * HISTOGRAM_WINDOW

    def test_histogram_merge(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for value in (1, 2, 3):
            a.histogram("h", value)
        for value in (10, 20):
            b.histogram("h", value)
        b.histogram("only_b", 5)
        a.merge(b)
        stats = a.histogram_stats("h")
        assert stats["count"] == 5
        assert stats["sum"] == 36
        assert stats["min"] == 1 and stats["max"] == 20
        assert a.histogram_stats("only_b")["count"] == 1


class TestReportSchema:
    def _sample_report(self):
        tracer = Tracer()
        with tracer.span("edit", version="1.1"):
            with tracer.span("compile"):
                pass
        metrics = MetricsRegistry()
        metrics.incr("compile.cache_misses", 3)
        metrics.gauge("compile.cache_size", 3)
        return build_report(tracer, metrics, meta={"tool": "test"})

    def test_round_trip_through_disk(self, tmp_path):
        report = self._sample_report()
        path = tmp_path / "trace.json"
        write_report(str(path), report)
        loaded = load_report(str(path))
        assert loaded == report
        assert loaded["schema"] == "repro.obs/v1"
        assert loaded["meta"] == {"tool": "test"}
        assert loaded["spans"][0]["name"] == "edit"
        assert loaded["spans"][0]["children"][0]["name"] == "compile"
        assert loaded["metrics"]["counters"]["compile.cache_misses"] == 3

    def test_validate_rejects_bad_documents(self):
        good = self._sample_report()
        with pytest.raises(ValueError, match="schema"):
            validate_report({**good, "schema": "repro.obs/v0"})
        with pytest.raises(ValueError, match="missing key"):
            validate_report({"schema": "repro.obs/v1", "meta": {},
                             "spans": []})
        bad_span = self._sample_report()
        bad_span["spans"][0]["duration_ns"] = -5
        with pytest.raises(ValueError, match="duration_ns"):
            validate_report(bad_span)
        bad_metric = self._sample_report()
        bad_metric["metrics"]["counters"]["flag"] = True
        with pytest.raises(ValueError, match="must be a number"):
            validate_report(bad_metric)
        bad_hist = self._sample_report()
        bad_hist["metrics"]["histograms"]["h"] = {"count": "lots"}
        with pytest.raises(ValueError, match="histograms"):
            validate_report(bad_hist)

    def test_histograms_section_is_optional(self):
        # Reports written before histograms existed must still load.
        report = self._sample_report()
        del report["metrics"]["histograms"]
        validate_report(report)

    def test_histograms_round_trip(self, tmp_path):
        metrics = MetricsRegistry()
        metrics.histogram("server.request_seconds", 0.25)
        report = build_report(None, metrics, meta={"tool": "test"})
        path = tmp_path / "hist.json"
        write_report(str(path), report)
        loaded = load_report(str(path))
        stats = loaded["metrics"]["histograms"]["server.request_seconds"]
        assert stats["count"] == 1
        assert stats["max"] == 0.25

    def test_aggregate_phases_counts_nested_names(self):
        tracer = Tracer()
        with tracer.span("edit"):
            with tracer.span("compile"):
                pass
        with tracer.span("compile"):
            pass
        report = build_report(tracer, MetricsRegistry())
        phases = aggregate_phases(report)
        assert phases["compile"]["count"] == 2
        assert phases["edit"]["count"] == 1
        assert phases["compile"]["total_s"] >= 0.0


class TestLiveLoopIntegration:
    def _edit_session(self):
        obs.enable()
        obs.reset()
        shell = Shell(COUNTER_SRC, "top", checkpoint_interval=10,
                      reset_cycles=1, out=io.StringIO())
        handle = shell.session.stage_handle_for("top")
        shell.run_script(f"instPipe p0, {handle}\nrun tb0, p0, 30")
        erd = shell.session.apply_change(EDITED)
        assert erd.behavioral
        return obs.report(meta={"test": "integration"})

    def test_apply_change_emits_the_phase_spans(self):
        report = self._edit_session()
        apply_spans = [s for s in report["spans"]
                       if s["name"] == "live.apply_change"]
        assert len(apply_spans) == 1
        child_names = {c["name"] for c in apply_spans[0]["children"]}
        assert set(LIVE_PHASES) <= child_names

    def test_phase_durations_sum_within_total(self):
        report = self._edit_session()
        apply_span = next(s for s in report["spans"]
                          if s["name"] == "live.apply_change")
        child_total = sum(c["duration_ns"]
                          for c in apply_span["children"])
        assert 0 < child_total <= apply_span["duration_ns"]

    def test_counters_track_the_live_loop(self):
        report = self._edit_session()
        counters = report["metrics"]["counters"]
        assert counters["live.apply_changes"] == 1
        assert counters["compile.cache_misses"] >= 1
        assert counters["compile.cache_hits"] >= 1
        assert counters["checkpoint.taken"] >= 1
        assert counters["live.cycles_replayed"] >= 1
        assert counters["live.swapped_instances"] >= 1
        assert report["metrics"]["gauges"]["compile.cache_size"] >= 1


class TestTraceJsonCLI:
    def test_trace_json_writes_a_valid_artifact(self, tmp_path):
        design = tmp_path / "design.v"
        design.write_text(COUNTER_SRC)
        edited = tmp_path / "edited.v"
        edited.write_text(EDITED)
        script = tmp_path / "session.lsim"
        script.write_text(
            f"instPipe p0, stage2\nrun tb0, p0, 30\nreload {edited}\n"
        )
        trace = tmp_path / "trace.json"
        rc = main([str(design), "--top", "top",
                   "--script", str(script),
                   "--checkpoint-interval", "10",
                   "--reset-cycles", "1",
                   "--trace-json", str(trace)])
        assert rc == 0

        report = load_report(str(trace))  # validates the schema
        assert report["meta"]["design"] == str(design)
        assert report["meta"]["top"] == "top"

        phases = aggregate_phases(report)
        for name in LIVE_PHASES + ("live.apply_change", "live.ckpt_take"):
            assert name in phases, f"missing span {name!r}"

        # Phase durations nest inside — so sum within — the edit total.
        def find_span(spans, name):
            for span in spans:
                if span["name"] == name:
                    return span
                found = find_span(span["children"], name)
                if found is not None:
                    return found
            return None

        apply_span = find_span(report["spans"], "live.apply_change")
        phase_total = sum(c["duration_ns"] for c in apply_span["children"]
                          if c["name"] in LIVE_PHASES)
        assert 0 < phase_total <= apply_span["duration_ns"]

        counters = report["metrics"]["counters"]
        assert counters["live.apply_changes"] == 1
        assert counters["compile.cache_misses"] >= 1
        assert counters["compile.cache_hits"] >= 1
        assert counters["checkpoint.taken"] >= 1


def _two_pipe_session():
    session = LiveSession(COUNTER_SRC, checkpoint_interval=10)
    handle = session.stage_handle_for("top")
    session.inst_pipe("p0", handle)
    session.inst_pipe("p1", handle)
    tb = session.load_testbench(hold_inputs(rst=0))
    session.run(tb, "p0", 30)
    session.run(tb, "p1", 25)
    return session


class TestOneClock:
    """Every duration a report carries is the ``.seconds`` of its span."""

    def test_erd_phases_are_their_spans(self):
        obs.enable()
        session = _two_pipe_session()
        obs.reset()
        erd = session.apply_change(EDITED)
        [edit] = obs.get_tracer().find("live.apply_change")
        assert erd.pipes_updated == ["p0", "p1"]
        for field, name in ERD_PHASE_SPANS.items():
            spans = edit.find(name)
            assert spans, name
            assert getattr(erd, field) == sum(s.seconds for s in spans), field

    def test_swap_and_capture_read_their_spans(self):
        obs.enable()
        session = _two_pipe_session()
        obs.reset()
        swap = session.swap_stage("p0", "u0.u_add")
        [span] = obs.get_tracer().find("live.swap")
        assert swap.seconds == span.seconds > 0
        obs.reset()
        row = session.timeline("p1")
        checkpoint = row.store.take(row.pipe, session.version, len(row.ops))
        [span] = obs.get_tracer().find("live.ckpt_take")
        assert checkpoint.capture_seconds == span.seconds > 0

    def test_phases_are_timed_with_tracing_off(self):
        erd = _two_pipe_session().apply_change(EDITED)
        assert obs.get_tracer().roots == []
        for field in ERD_PHASE_SPANS:
            assert getattr(erd, field) > 0, field

    def test_span_names_are_the_benchmark_layers(self):
        """Open, run, edit, lint, swapStage and set_build emit only the
        names of BENCHMARK.json's per-layer timing rows, plus the few
        spans that only group them."""
        benchmark = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
            .read_text()
        )
        allowed = {
            row["name"][: -len(".s")]
            for row in benchmark["per_layer"]
            if row["name"].endswith(".s")
        } | {"live.apply_change", "analyze.module", "build.toggle",
             "trace.replay"}
        obs.enable()
        session = _two_pipe_session()
        session.apply_change(EDITED)
        session.lint()
        session.swap_stage("p0", "u0.u_add")
        session.set_build(BuildConfig(sanitize=True, opt="full"))
        names = set(obs.span_names(obs.report()))
        assert {"live.apply_change", "live.ckpt_take", "analyze.module",
                "build.toggle", "codegen.compile_module"} <= names
        assert names <= allowed, sorted(names - allowed)
