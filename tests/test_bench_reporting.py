"""bench.reporting / bench.tables formatting edge cases."""

from repro.bench.reporting import (
    format_phase_breakdown,
    format_series,
    format_table,
)
from repro.bench.run import compare_to_baseline
from repro.bench.tables import ERD_PHASES, erd_phase_rows
from repro.live.session import ERDReport


class TestFormatTable:
    def test_none_cells_render_as_na(self):
        text = format_table("t", ["a", "b"], [[1.0, None], [None, "NA"]])
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "NA" in lines[4] and "NA" in lines[5]

    def test_large_floats_get_thousands_separators(self):
        text = format_table("t", ["x"], [[1234567.89]])
        assert "1,234,568" in text

    def test_small_floats_keep_two_decimals(self):
        text = format_table("t", ["x"], [[3.14159]])
        assert "3.14" in text

    def test_empty_rows_render_header_only(self):
        text = format_table("empty", ["a", "b"], [])
        lines = text.splitlines()
        assert len(lines) == 4  # title, rule, header, separator
        assert "a" in lines[2] and "b" in lines[2]

    def test_row_labels_prepend_a_column(self):
        text = format_table("t", ["v"], [[1], [2]], row_labels=["x", "y"])
        lines = text.splitlines()
        assert lines[4].strip().startswith("x")
        assert lines[5].strip().startswith("y")

    def test_columns_align(self):
        text = format_table("t", ["value"], [[1.0], [123456.0]],
                            row_labels=["a", "bb"])
        lines = text.splitlines()
        assert len(lines[4]) == len(lines[5])


class TestFormatSeries:
    def test_none_points_render_as_na(self):
        text = format_series("s", {"line": [(1, 2.5), (2, None)]},
                             x_label="n", y_label="sec")
        assert "(n -> sec)" in text
        assert "2.500" in text
        assert "NA" in text

    def test_int_points_render_plain(self):
        text = format_series("s", {"line": [(1, 42)]})
        assert "42" in text

    def test_empty_series_is_title_only(self):
        text = format_series("nothing", {})
        assert text.splitlines() == ["nothing", "======="]


class TestFormatPhaseBreakdown:
    PHASES = {
        "compile": {"count": 2, "total_s": 0.030},
        "replay": {"count": 1, "total_s": 0.070},
    }

    def test_sorted_by_descending_total(self):
        text = format_phase_breakdown("phases", self.PHASES)
        lines = text.splitlines()
        assert lines[4].strip().startswith("replay")
        assert lines[5].strip().startswith("compile")

    def test_default_budget_shares_sum_to_100(self):
        text = format_phase_breakdown("phases", self.PHASES)
        assert "70.00" in text  # replay: 70 ms and 70 %
        assert "30.00" in text

    def test_explicit_total_scales_shares(self):
        text = format_phase_breakdown("phases", self.PHASES,
                                      total_seconds=0.2)
        assert "35.00" in text  # replay 70 ms of 200 ms
        assert "15.00" in text

    def test_zero_budget_gives_na_shares(self):
        text = format_phase_breakdown(
            "phases", {"idle": {"count": 1, "total_s": 0.0}}
        )
        assert "NA" in text

    def test_empty_phases(self):
        text = format_phase_breakdown("phases", {})
        assert len(text.splitlines()) == 4


class TestERDPhaseRows:
    def _report(self, scale):
        return ERDReport(
            behavioral=True,
            version="1.1",
            parse_seconds=0.001 * scale,
            compile_seconds=0.010 * scale,
            swap_seconds=0.002 * scale,
            reload_seconds=0.003 * scale,
            replay_seconds=0.020 * scale,
        )

    def test_one_row_per_report_in_milliseconds(self):
        columns, rows, labels = erd_phase_rows(
            [("1x1", self._report(1)), ("2x2", self._report(2))]
        )
        assert columns == [f"{p} ms" for p in ERD_PHASES] + ["total ms"]
        assert labels == ["1x1", "2x2"]
        assert rows[0][0] == 1.0  # parse: 1 ms
        assert abs(rows[1][-1] - 72.0) < 1e-9  # doubled total in ms

    def test_total_column_is_the_phase_sum(self):
        _, rows, _ = erd_phase_rows([("r", self._report(1))])
        assert abs(sum(rows[0][:-1]) - rows[0][-1]) < 1e-9

    def test_empty_reports(self):
        columns, rows, labels = erd_phase_rows([])
        assert rows == [] and labels == []
        assert columns[-1] == "total ms"


class TestRegressionGate:
    def _artifact(self, latency, calibration=1.0):
        return {
            "schema": "repro.bench/v1",
            "calibration_s": calibration,
            "fig7": {"per_edit_latency_s": {"1": latency}},
        }

    def test_within_allowance_passes(self):
        failures = compare_to_baseline(
            self._artifact(0.110), self._artifact(0.100), 0.25
        )
        assert failures == []

    def test_regression_fails_with_a_message(self):
        failures = compare_to_baseline(
            self._artifact(0.140), self._artifact(0.100), 0.25
        )
        assert len(failures) == 1
        assert "per-edit latency regressed" in failures[0]

    def test_slower_host_scales_the_allowance(self):
        # 1.4x the baseline latency on a 1.5x-slower host: allowed.
        failures = compare_to_baseline(
            self._artifact(0.140, calibration=1.5),
            self._artifact(0.100, calibration=1.0),
            0.25,
        )
        assert failures == []

    def test_faster_host_never_shrinks_the_allowance(self):
        failures = compare_to_baseline(
            self._artifact(0.110, calibration=0.5),
            self._artifact(0.100, calibration=1.0),
            0.25,
        )
        assert failures == []

    def test_calibration_scale_is_capped(self):
        failures = compare_to_baseline(
            self._artifact(0.600, calibration=100.0),
            self._artifact(0.100, calibration=1.0),
            0.25,
        )
        assert len(failures) == 1  # capped at 4x: allowed 0.5 s

    def test_missing_size_in_current_run_fails(self):
        current = self._artifact(0.1)
        current["fig7"]["per_edit_latency_s"] = {}
        failures = compare_to_baseline(current, self._artifact(0.1), 0.25)
        assert "missing from current run" in failures[0]

    def test_a_fig8_bar_over_two_seconds_fails(self):
        current = self._artifact(0.1)
        current["fig8"] = [
            {"n": 1, "total_s": 0.4, "under_two_seconds": True},
            {"n": 2, "total_s": 2.3, "under_two_seconds": False},
        ]
        failures = compare_to_baseline(current, self._artifact(0.1), 0.25)
        assert len(failures) == 1
        assert "2x2" in failures[0] and "under two seconds" in failures[0]
        current["fig8"].pop()
        assert compare_to_baseline(current, self._artifact(0.1), 0.25) == []

    def _fig6(self, **changes):
        fig6 = {
            "all_consistent": True,
            "warm_modules": {2: 0, 4: 0},
            "after_edit_worker_modules": {2: 1, 4: 1},
            "edit_modules": {2: 1, 4: 1},
        }
        fig6.update(changes)
        current = self._artifact(0.1)
        current["fig6"] = fig6
        return compare_to_baseline(current, self._artifact(0.1), 0.25)

    def test_fig6_counts_as_expected_pass(self):
        assert self._fig6() == []

    def test_a_fig6_pass_that_is_not_consistent_fails(self):
        failures = self._fig6(all_consistent=False)
        assert len(failures) == 1 and "all-consistent" in failures[0]

    def test_a_fig6_warm_pass_that_compiles_fails(self):
        failures = self._fig6(warm_modules={2: 0, 4: 10})
        assert len(failures) == 1
        assert "warm pass at 4 workers compiled 10" in failures[0]

    def test_a_fig6_worker_recompiling_more_than_the_edit_fails(self):
        failures = self._fig6(after_edit_worker_modules={2: 1, 4: 10})
        assert len(failures) == 1
        assert "a worker of 4 recompiled 10" in failures[0]
        # A cold worker's whole-design compile is not excused either,
        # but an edit that itself dirties more raises the allowance.
        assert self._fig6(
            after_edit_worker_modules={2: 3, 4: 1}, edit_modules={2: 3, 4: 1}
        ) == []

    def test_empty_baseline_fails(self):
        failures = compare_to_baseline(
            self._artifact(0.1), {"schema": "repro.bench/v1"}, 0.25
        )
        assert "no fig7" in failures[0]


class TestCIWorkflow:
    def test_workflow_yaml_parses(self):
        import pathlib
        import re

        import pytest

        yaml = pytest.importorskip("yaml")
        workflow = (pathlib.Path(__file__).resolve().parents[1]
                    / ".github" / "workflows" / "ci.yml")
        with open(workflow) as fh:
            doc = yaml.safe_load(fh)
        assert set(doc["jobs"]) == {
            "lint", "test", "bench-smoke", "server-smoke",
            "analyze-examples", "load-smoke",
        }
        matrix = doc["jobs"]["test"]["strategy"]["matrix"]
        assert matrix["python-version"] == ["3.10", "3.11", "3.12"]
        # ruff, and the offline checker for what the pinned ruff lacks
        # (PLC2701, cross-package private imports).
        lint = [step.get("run", "") for step in doc["jobs"]["lint"]["steps"]]
        assert "ruff check ." in lint
        assert "python tools/lintcheck.py" in lint
        # The bench smoke runs the paper targets only, all of them
        # gated; the deleted extension targets are not asked for.
        bench = " ".join(
            step.get("run", "") for step in doc["jobs"]["bench-smoke"]["steps"]
        )
        assert "repro.bench fig6 fig7 fig8 table7 --sizes" in " ".join(
            bench.split()
        )
        # livebench's committed trajectory gates: the newest
        # BENCH_<pr>.json, whichever it is, is what `check` reads.
        smoke = " ".join(
            step.get("run", "") for step in doc["jobs"]["server-smoke"]["steps"]
        )
        assert "--workload sim_mesh4,edit_loop2 --repeat 4 --seconds 12" in smoke
        assert (
            'run.py check "$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1)" '
            "LIVEBENCH_ci.json"
        ) in smoke
        assert not re.search(r"BENCH_\d+\.json", smoke)
        # Every job funnels through the shared setup action and the
        # workflow cancels superseded runs.
        assert "concurrency" in doc
        for name, job in doc["jobs"].items():
            uses = [step.get("uses", "") for step in job["steps"]]
            assert "./.github/actions/setup-livesim" in uses, name

    def test_setup_action_yaml_parses(self):
        import pathlib

        import pytest

        yaml = pytest.importorskip("yaml")
        action = (pathlib.Path(__file__).resolve().parents[1]
                  / ".github" / "actions" / "setup-livesim"
                  / "action.yml")
        with open(action) as fh:
            doc = yaml.safe_load(fh)
        assert doc["runs"]["using"] == "composite"
        assert doc["inputs"]["python-version"]["default"] == "3.12"
