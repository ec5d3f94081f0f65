"""Names in code and in BENCHMARK.json are the same, and well formed."""

import json
import os
import re

from benchmarks.livebench import metrics
from benchmarks.livebench.check import ROOT
from benchmarks.livebench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_workloads_match_benchmark_json():
    listed = {w["name"]: w["why"] for w in benchmark_json()["workloads"]}
    # Every session workload is listed; the server ones are not (README).
    assert listed == {
        name: w.why for name, w in WORKLOADS.items()
        if w.transport == "session"
    }
    assert all(len(why) <= 200 and "\n" not in why for why in listed.values())


def test_end_to_end_metrics_match_benchmark_json():
    listed = {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in benchmark_json()["end_to_end"]
    }
    assert listed == metrics.END_TO_END
    assert listed["setup_s"][:2] == ("s", "lower")
    assert max(bound for _, _, bound in listed.values()) <= 0.25
    assert listed["setup_s"][2] == max(b for _, _, b in listed.values())


def test_per_layer_metrics_match_benchmark_json():
    listed = {
        m["name"]: (m["unit"], m["better"])
        for m in benchmark_json()["per_layer"]
    }
    assert listed == metrics.PER_LAYER
    assert len(listed) <= 128


def test_names_are_well_formed_and_unique():
    doc = benchmark_json()
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in doc[key]
    ]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


def test_pass_names_match_the_pipeline():
    from repro.passes import build_compile_pipeline

    assert tuple(build_compile_pipeline().order) == metrics.PASS_NAMES


def test_a_session_iteration_is_one_checkpoint_interval():
    # Positions in the iteration are only classes of identical work --
    # and every edit only replays ``interval`` cycles -- if they are.
    for workload in WORKLOADS.values():
        if workload.transport == "session":
            assert workload.iteration_cycles == workload.interval
        else:
            per_session = workload.sessions // workload.clients
            assert workload.cmds_per_edit % (2 * per_session) == 0
