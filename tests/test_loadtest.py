"""Load-test harness tests: the scripted driver (against the cheap
thread-hosted worker — no worker spawn cost in the unit suite), the
p99 baseline-gate logic, and the chaos-mode sample classification."""

import pytest

from repro.bench.loadtest import (
    COMMAND_CLASSES,
    LoadtestConfig,
    _latency_from_samples,
    _split_by_disruption,
    compare_to_baseline,
    run_loadtest,
)


class TestDriver:
    def test_small_thread_hosted_run(self):
        result = run_loadtest(LoadtestConfig(
            sessions=3, workers=0, runs=1, run_cycles=20, concurrency=2,
        ))
        assert result["mode"] == "thread-hosted"
        assert result["errors"] == 0
        # open + instpipe + (run + peek) * 1 + close = 5 per session.
        assert result["commands"] == 3 * 5
        for cls in COMMAND_CLASSES:
            stats = result["latency_s"][cls]
            assert stats["count"] == 3
            assert stats["p99"] >= stats["p50"] > 0
        assert result["commands_per_sec"] > 0
        assert result["server"]["sessions_left"] == 0


def _artifact(p99_ms, calibration_s=1.0, errors=0):
    return {
        "calibration_s": calibration_s,
        "errors": errors,
        "latency_s": {
            "run": {"count": 10, "p50": p99_ms / 2e3, "p99": p99_ms / 1e3},
        },
    }


class TestBaselineGate:
    def test_missing_baseline_data(self):
        assert compare_to_baseline(_artifact(1.0), {}, 0.5) == [
            "baseline JSON has no latency_s data"
        ]

    def test_within_allowance_passes(self):
        failures = compare_to_baseline(
            _artifact(p99_ms=14.0), _artifact(p99_ms=10.0), 0.5
        )
        assert failures == []

    def test_regression_fails_with_detail(self):
        failures = compare_to_baseline(
            _artifact(p99_ms=20.0), _artifact(p99_ms=10.0), 0.5
        )
        assert len(failures) == 1
        assert "run p99 latency regressed" in failures[0]
        assert "20.0 ms > allowed 15.0 ms" in failures[0]

    def test_slow_host_scales_the_allowance_up(self):
        # Current host is 2x slower than the baseline host: a 2x
        # latency still fits once calibration scaling kicks in.
        failures = compare_to_baseline(
            _artifact(p99_ms=20.0, calibration_s=2.0),
            _artifact(p99_ms=10.0, calibration_s=1.0),
            0.5,
        )
        assert failures == []

    def test_fast_host_does_not_scale_down(self):
        failures = compare_to_baseline(
            _artifact(p99_ms=20.0, calibration_s=0.5),
            _artifact(p99_ms=10.0, calibration_s=1.0),
            0.5,
        )
        assert len(failures) == 1

    def test_missing_class_fails(self):
        current = _artifact(1.0)
        del current["latency_s"]["run"]
        current["latency_s"]["open"] = {"count": 1, "p99": 0.001}
        failures = compare_to_baseline(current, _artifact(1.0), 0.5)
        assert failures == ["loadtest: command class 'run' missing "
                            "from current run"]

    def test_session_errors_fail_the_gate(self):
        failures = compare_to_baseline(
            _artifact(1.0, errors=2), _artifact(1.0), 0.5
        )
        assert len(failures) == 1
        assert "2 session scripts failed" in failures[0]

    def test_cli_rejects_bad_counts(self):
        from repro.bench.loadtest import main

        assert main(["--sessions", "0"]) == 2

    def test_cli_rejects_chaos_without_workers(self):
        from repro.bench.loadtest import main

        assert main(["--chaos", "--workers", "0"]) == 2


class TestChaosClassification:
    def test_split_uses_interval_overlap(self):
        windows = [{"start": 10.0, "end": 11.0}]
        samples = [
            ("run", 9.0, 9.5, True),      # ends before -> clean
            ("run", 9.5, 10.5, True),     # straddles start -> disrupted
            ("run", 10.2, 10.4, False),   # inside -> disrupted
            ("run", 10.9, 12.0, True),    # straddles end -> disrupted
            ("run", 11.0, 12.0, True),    # starts at end -> clean
        ]
        clean, disrupted = _split_by_disruption(samples, windows)
        assert [s[1] for s in clean] == [9.0, 11.0]
        assert [s[1] for s in disrupted] == [9.5, 10.2, 10.9]

    def test_split_with_no_windows_keeps_everything_clean(self):
        samples = [("open", 0.0, 1.0, True)]
        clean, disrupted = _split_by_disruption(samples, [])
        assert clean == samples
        assert disrupted == []

    def test_multiple_windows_any_overlap_disrupts(self):
        windows = [
            {"start": 1.0, "end": 2.0},
            {"start": 5.0, "end": 6.0},
        ]
        samples = [
            ("peek", 3.0, 4.0, True),   # between windows -> clean
            ("peek", 5.5, 5.6, True),   # in the second -> disrupted
        ]
        clean, disrupted = _split_by_disruption(samples, windows)
        assert len(clean) == 1 and len(disrupted) == 1

    def test_latency_from_samples_skips_failed_commands(self):
        samples = [
            ("open", 0.0, 1.0, True),
            ("open", 0.0, 5.0, False),   # failed: must not skew p99
            ("run", 2.0, 2.5, True),
        ]
        stats = _latency_from_samples(samples)
        assert stats["open"]["count"] == 1
        assert stats["open"]["max"] == pytest.approx(1.0)
        assert stats["run"]["count"] == 1
        # Classes with no clean samples report empty histograms.
        assert stats["close"]["count"] == 0
