"""Tracing is installed from outside and leaves nothing behind."""

from benchmarks.livebench.trace import Tracer, install
from benchmarks.livebench.workloads import (
    COUNTER_DESIGN,
    COUNTER_EDIT_TARGETS,
    COUNTER_TOP,
    EditGenerator,
)


def traced_session_run():
    from repro.live.session import LiveSession
    from repro.sim.testbench import reset_sequence

    session = LiveSession(COUNTER_DESIGN, checkpoint_interval=50,
                          reload_distance=50)
    session.inst_pipe("p0", session.stage_handle_for(COUNTER_TOP))
    tb = session.load_testbench(reset_sequence("rst", cycles=2))
    edits = EditGenerator(COUNTER_DESIGN, COUNTER_EDIT_TARGETS,
                          (2, 0, 0), seed=3)
    tracer = Tracer()
    install(tracer)
    tracer.patch_passes(session.compiler.pipeline)
    try:
        for _ in range(3):
            with tracer.operation("op.chunk"):
                session.run(tb, "p0", 120)
            with tracer.operation("op.edit"):
                session.apply_change(edits.next().source)
    finally:
        tracer.uninstall()
    return session, tracer


def test_wrappers_are_removed_after_a_traced_run():
    import repro.hdl.parser
    import repro.live.compiler_live
    from repro.live.session import LiveSession
    from repro.sim.pipeline import Pipe

    before = (
        Pipe.__dict__["eval"], Pipe.__dict__["tick"],
        LiveSession.__dict__["apply_change"], repro.hdl.parser.parse,
        repro.live.compiler_live.parse,
    )
    session, _ = traced_session_run()
    after = (
        Pipe.__dict__["eval"], Pipe.__dict__["tick"],
        LiveSession.__dict__["apply_change"], repro.hdl.parser.parse,
        repro.live.compiler_live.parse,
    )
    assert all(a is b for a, b in zip(before, after))
    assert all("run" not in vars(p) for p in session.compiler.pipeline.passes)


def test_spans_nest_and_self_times_fit_their_parents():
    _, tracer = traced_session_run()
    spans = tracer.spans
    assert all(span is not None for span in spans)
    names = {span[0] for span in spans}
    assert {"op.edit", "live.apply_change", "live.update_source",
            "live.compile_top", "live.swap", "live.replay", "sim.eval",
            "sim.tick", "passes.run", "passes.codegen"} <= names
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        assert end >= start
        if parent >= 0:
            p = spans[parent]
            assert p[1] <= start and end <= p[2]  # inside its parent
            assert p[4] == op  # one operation, one id
            child_time[parent] += end - start
    for index, span in enumerate(spans):
        assert child_time[index] <= (span[2] - span[1]) * (1 + 1e-9) + 1e-9
    roots = sum(s[2] - s[1] for s in spans if s[3] < 0)
    total_self = sum(seconds for seconds, _ in tracer.self_times().values())
    assert abs(total_self - roots) <= 1e-6 * max(roots, 1.0)
    # Replay re-simulates 3 x 50..120 cycles on top of the 360 run.
    assert tracer.self_times()["sim.tick"][1] >= 360
    assert 0.0 < tracer.coverage("live.apply_change") <= 1.0
