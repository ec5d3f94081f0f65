"""``check`` flags a synthetic regression and passes identical inputs."""

import copy
import io

from benchmarks.livebench import metrics
from benchmarks.livebench.check import compare, load_bounds, verdict

WORKLOAD = "edit_loop2"


def result_file(scale=1.0, jitter=0.01, traced=False):
    runs = []
    for i in range(10):
        wobble = 1.0 + jitter * ((i % 5) - 2) / 2
        values = {}
        for name, (_, better, _) in metrics.END_TO_END.items():
            factor = scale if better == metrics.LOWER else 1.0 / scale
            values[name] = 10.0 * wobble * factor
        runs.append({
            "seed": 1 + i, "traced": traced, "metrics": values,
            "attempted": 100, "failed": 0, "simulated": {"cycle": 7},
            "counts": {"live.replay.cycles.n": 100},
        })
    return {"workloads": {WORKLOAD: runs}}


def check(a, b, workloads=(WORKLOAD,)):
    out = io.StringIO()
    regressed = compare(a, b, load_bounds(), list(workloads), out)
    return regressed, out.getvalue()


def test_identical_inputs_pass():
    regressed, text = check(result_file(), result_file())
    assert regressed == 0
    assert "regressed" not in text and "unresolved" not in text
    # Every metric, fail_ratio, simulated, counts.
    assert text.count(" ok") == len(metrics.END_TO_END) + 3


def test_twenty_percent_regression_is_flagged():
    regressed, _ = check(result_file(), result_file(scale=1.2))
    # 20 % more time is 20 % worse; a rate falls by 1 - 1/1.2.
    expected = sum(
        1 for _, better, bound in metrics.END_TO_END.values()
        if (0.2 if better == metrics.LOWER else 1 - 1 / 1.2) > bound
    )
    assert regressed == expected > 0


def test_forty_percent_regression_is_flagged_on_every_metric():
    regressed, _ = check(result_file(), result_file(scale=1.4))
    assert regressed == len(metrics.END_TO_END)


def test_improvement_is_not_a_regression():
    assert check(result_file(), result_file(scale=0.8))[0] == 0


def test_wide_spread_is_unresolved_even_when_the_median_is_worse():
    noisy = [10, 14, 9, 13, 8, 12, 10, 14, 9, 13]
    assert verdict(noisy, noisy, "lower", 0.10)["verdict"] == "unresolved"
    worse = [2 * value for value in noisy]
    assert verdict(noisy, worse, "lower", 0.10)["verdict"] == "unresolved"


def test_too_few_runs_are_unresolved():
    row = verdict([10.0, 10.1], [13.0, 13.1], "lower", 0.10)
    assert row["verdict"] == "unresolved"


def test_a_workload_without_untraced_runs_is_unresolved_not_an_error():
    regressed, text = check(result_file(), result_file(traced=True))
    assert regressed == 0
    assert text.count("unresolved") == len(metrics.END_TO_END)
    regressed, text = check(result_file(), result_file(),
                            workloads=(WORKLOAD, "server_cmds_w1"))
    assert regressed == 0
    assert text.count("unresolved") == len(metrics.END_TO_END)


def test_failures_and_changed_statistics_regress():
    bad = result_file()
    bad["workloads"][WORKLOAD][0]["failed"] = 1
    assert check(result_file(), bad)[0] == 1
    changed = copy.deepcopy(result_file())
    changed["workloads"][WORKLOAD][3]["simulated"] = {"cycle": 8}
    assert check(result_file(), changed)[0] == 1


def test_changed_counts_are_reported_without_failing():
    moved = result_file()
    moved["workloads"][WORKLOAD][2]["counts"] = {"live.replay.cycles.n": 90}
    regressed, text = check(result_file(), moved)
    assert regressed == 0
    assert "changed" in text
