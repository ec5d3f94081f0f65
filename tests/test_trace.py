"""Live trace subsystem tests: probe resolution, ring-buffer capture,
subscription backpressure, hot-reload rebind, rewind, and time-travel
replay (repro.trace + the LiveSession trace verbs)."""

from collections import deque

import pytest

from repro import obs
from repro.hdl.errors import SimulationError
from repro.live.session import LiveSession
from repro.sim.testbench import hold_inputs
from repro.trace import TraceBuffer, TraceProbe
from repro.trace.probes import resolve_signal
from tests.conftest import COUNTER_SRC

# Behavioral edit: the patched adder doubles the step (+b twice).
DOUBLED = COUNTER_SRC.replace("assign sum = a + b;",
                              "assign sum = a + b + b;")
# The counter register is renamed, so probes on ``count_q`` vanish.
RENAMED = COUNTER_SRC.replace("count_q", "cnt_q")

MEM_SRC = """
module lut (
  input clk,
  input rst,
  output [7:0] out
);
  reg [7:0] mem [0:3];
  reg [1:0] idx_q;
  assign out = mem[idx_q];
  always @(posedge clk) begin
    if (rst)
      idx_q <= 0;
    else begin
      mem[idx_q] <= {6'd0, idx_q} + 8'd5;
      idx_q <= idx_q + 2'd1;
    end
  end
endmodule
"""


def make_session(source=COUNTER_SRC, top="top", **kwargs):
    kwargs.setdefault("checkpoint_interval", 10)
    session = LiveSession(source, **kwargs)
    session.inst_pipe("p0", session.stage_handle_for(top))
    tb = session.load_testbench(hold_inputs(rst=0))
    return session, tb


def counters():
    return obs.report()["metrics"]["counters"]


class TestProbeResolution:
    def test_top_level_output(self):
        session, tb = make_session()
        width, getter = resolve_signal(session.pipe("p0"), "c0")
        assert width == 8
        session.run(tb, "p0", 10)
        assert getter(session.pipe("p0")) == 10

    def test_register_by_hierarchical_name(self):
        session, tb = make_session()
        width, getter = resolve_signal(session.pipe("p0"), "u1.count_q")
        assert width == 8
        session.run(tb, "p0", 10)
        assert getter(session.pipe("p0")) == 3 * 10

    def test_memory_word(self):
        session, tb = make_session(MEM_SRC, top="lut")
        width, getter = resolve_signal(session.pipe("p0"), "mem[2]")
        assert width == 8
        session.run(tb, "p0", 10)
        assert getter(session.pipe("p0")) == 7

    def test_memory_index_out_of_range(self):
        session, _ = make_session(MEM_SRC, top="lut")
        with pytest.raises(SimulationError, match="outside memory"):
            resolve_signal(session.pipe("p0"), "mem[4]")

    def test_unknown_signal_rejected(self):
        session, _ = make_session()
        with pytest.raises(SimulationError, match="cannot resolve"):
            resolve_signal(session.pipe("p0"), "nonsense")
        with pytest.raises(SimulationError, match="no register"):
            resolve_signal(session.pipe("p0"), "u0.ghost_q")

    def test_probe_bind_marks_missing_without_raising(self):
        session, _ = make_session()
        probe = TraceProbe.named(session.pipe("p0"), "u0.count_q")
        assert probe.missing is False
        session.apply_change(RENAMED)
        assert probe.bind(session.pipe("p0")) is False
        assert probe.missing is True
        assert probe.read(session.pipe("p0")) is None


class TestRingCapture:
    def test_capture_every_cycle(self):
        session, tb = make_session()
        session.watch("p0", "c0")
        session.run(tb, "p0", 20)
        samples = session.trace_buffer("p0").window("c0")
        assert [cycle for cycle, _ in samples] == list(range(20))
        # sampled after settle, before the edge: value == cycle
        assert samples[-1] == [19, 19]

    def test_drop_oldest_counts_cycles(self):
        session, tb = make_session()
        buffer = TraceBuffer(capacity=8)
        session.timeline("p0").trace = buffer
        session.pipe("p0").attach_trace(buffer)
        session.watch("p0", "c0")
        before = counters().get("trace.cycles_dropped", 0)
        session.run(tb, "p0", 20)
        assert session.trace_buffer("p0") is buffer
        samples = buffer.window("c0")
        assert [cycle for cycle, _ in samples] == list(range(12, 20))
        assert buffer.cycles_dropped == 12
        assert counters()["trace.cycles_dropped"] - before == 12

    def test_window_bounds_are_half_open(self):
        session, tb = make_session()
        session.watch("p0", "c0")
        session.run(tb, "p0", 20)
        window = session.trace_buffer("p0").window("c0", 5, 8)
        assert [cycle for cycle, _ in window] == [5, 6, 7]

    def test_watch_is_idempotent(self):
        session, _ = make_session()
        first = session.watch("p0", "c0")
        again = session.watch("p0", "c0")
        assert first["signal"] == again["signal"] == "c0"
        assert session.trace_buffer("p0").names() == ["c0"]

    def test_unwatch_drops_probe_and_history(self):
        session, tb = make_session()
        session.watch("p0", "c0")
        session.run(tb, "p0", 5)
        assert session.unwatch("p0", "c0")["removed"] is True
        assert session.unwatch("p0", "c0")["removed"] is False
        with pytest.raises(SimulationError, match="not watched"):
            session.trace_read("p0", "c0")

    def test_status_inventory(self):
        session, tb = make_session()
        session.watch("p0", "c0")
        session.watch("p0", "u0.count_q")
        session.run(tb, "p0", 10)
        status = session.trace_status("p0")
        assert status["pipe"] == "p0"
        by_name = {p["signal"]: p for p in status["probes"]}
        assert by_name["c0"]["samples"] == 10
        assert by_name["c0"]["last_cycle"] == 9
        assert by_name["u0.count_q"]["missing"] is False


class TestSubscriptions:
    def test_change_only_emission(self):
        session, tb = make_session()
        in_reset = session.load_testbench(hold_inputs(rst=1))
        session.watch("p0", "c0")
        sub = session.trace_buffer("p0").subscribe(["c0"])
        session.run(in_reset, "p0", 3)
        session.run(tb, "p0", 7)
        events, dropped = sub.drain()
        assert dropped == 0
        # reset holds c0=0 through cycle 3 (the pre-edge sample still
        # sees the held register): one event for the whole plateau,
        # then one per changing cycle
        assert events[0] == {"signal": "c0", "cycle": 0, "value": 0}
        assert [e["cycle"] for e in events[1:]] == list(range(4, 10))
        assert [e["value"] for e in events[1:]] == list(range(1, 7))

    def test_subscription_filter(self):
        session, tb = make_session()
        session.watch("p0", "c0")
        session.watch("p0", "c1")
        narrowed = session.trace_buffer("p0").subscribe(["c1"])
        session.run(tb, "p0", 5)
        events, _ = narrowed.drain()
        assert events and all(e["signal"] == "c1" for e in events)

    def test_backpressure_drops_oldest_never_blocks(self):
        # Satellite: a slow subscriber (tiny queue, never drained)
        # loses its *oldest* events — counted on the subscription, the
        # buffer, and the obs counter — while the simulation runs to
        # completion at full speed.
        session, tb = make_session()
        session.watch("p0", "c0")
        buffer = session.trace_buffer("p0")
        slow = buffer.subscribe(["c0"], max_events=4)
        before = counters().get("trace.events_dropped", 0)
        session.run(tb, "p0", 30)
        assert session.pipe("p0").cycle == 30  # sim never blocked
        events, dropped = slow.drain()
        assert len(events) == 4
        # the queue kept the newest events, dropped the oldest
        assert events[-1]["cycle"] == 29
        assert dropped == slow.events_dropped == 26
        assert buffer.events_dropped == 26
        assert counters()["trace.events_dropped"] - before == 26

    def test_closed_subscription_is_pruned(self):
        session, tb = make_session()
        session.watch("p0", "c0")
        buffer = session.trace_buffer("p0")
        sub = buffer.subscribe(["c0"])
        assert buffer.subscriptions() == 1
        buffer.unsubscribe(sub)
        assert buffer.subscriptions() == 0
        session.run(tb, "p0", 3)
        assert sub.drain() == ([], 0)

    def test_unwatch_closes_narrowed_subscribers(self):
        session, _ = make_session()
        session.watch("p0", "c0")
        session.watch("p0", "c1")
        buffer = session.trace_buffer("p0")
        only_c0 = buffer.subscribe(["c0"])
        both = buffer.subscribe(["c0", "c1"])
        session.unwatch("p0", "c0")
        assert only_c0.closed is True
        assert both.closed is False


class TestHotReloadAndRewind:
    def test_probes_survive_reload(self):
        session, tb = make_session()
        session.watch("p0", "c0")
        session.run(tb, "p0", 20)
        report = session.apply_change(DOUBLED)
        assert report.behavioral
        assert report.checkpoint_cycle == 10
        session.run(tb, "p0", 10)
        samples = dict(map(tuple, session.trace_buffer("p0").window("c0")))
        # rewound to the cycle-10 checkpoint (value 10), re-captured
        # forward at the new design's +2/cycle
        assert samples[10] == 10
        assert samples[29] == 10 + 2 * 19
        assert session.trace_status("p0")["probes"][0]["missing"] is False

    def test_reload_rewind_announced_to_subscribers(self):
        session, tb = make_session()
        session.watch("p0", "c0")
        sub = session.trace_buffer("p0").subscribe()
        session.run(tb, "p0", 20)
        sub.drain()
        report = session.apply_change(DOUBLED)
        events, _ = sub.drain()
        rewinds = [e for e in events if "rewind" in e]
        assert rewinds and rewinds[0]["rewind"] == report.checkpoint_cycle
        # replayed cycles re-streamed with the new design's values
        changes = [e for e in events if "value" in e]
        assert changes and changes[-1]["cycle"] == 19

    def test_vanished_signal_marked_not_fatal(self):
        session, tb = make_session()
        session.watch("p0", "u0.count_q")
        session.watch("p0", "c0")
        sub = session.trace_buffer("p0").subscribe()
        session.run(tb, "p0", 10)
        sub.drain()
        session.apply_change(RENAMED)
        status = session.trace_status("p0")
        by_name = {p["signal"]: p for p in status["probes"]}
        assert by_name["u0.count_q"]["missing"] is True
        assert by_name["c0"]["missing"] is False
        events, _ = sub.drain()
        assert {"signal": "u0.count_q", "missing": True} in events
        # history up to the rewind point is kept; capture goes on
        session.run(tb, "p0", 5)
        assert session.trace_buffer("p0").window("u0.count_q")
        assert session.trace_read("p0", "c0", 10, 15)["samples"]

    def test_ldch_truncates_abandoned_timeline(self):
        session, tb = make_session(checkpoint_interval=10)
        session.watch("p0", "c0")
        sub = session.trace_buffer("p0").subscribe()
        session.run(tb, "p0", 25)
        sub.drain()
        target = session.store("p0").nearest_before(10)
        session.ldch("p0", target)
        samples = session.trace_buffer("p0").window("c0")
        assert samples and samples[-1][0] < target.cycle
        events, _ = sub.drain()
        assert {"rewind": target.cycle} in events


def _swap_u0_adder(session):
    session.compiler.update_source(DOUBLED)
    session.swap_stage("p0", "u0.u_add")


# Every route by which a compile reaches a live pipe, with the step the
# watched ``u0.count_q`` takes per cycle on the code it lands.
LANDING_ROUTES = {
    "edit": (lambda session: session.apply_change(DOUBLED), 2),
    "san report": (lambda session: session.set_sanitize("report"), 1),
    "opt full": (lambda session: session.set_opt("full"), 1),
    "swapStage": (_swap_u0_adder, 2),
}


class TestEveryLandingRoute:
    @pytest.mark.parametrize("route", sorted(LANDING_ROUTES))
    def test_watch_follows_the_landed_code(self, route):
        land, step = LANDING_ROUTES[route]
        # reload_distance=0: the edit rewinds to the checkpoint at 20,
        # so replay below starts from the state live capture saw.
        session, tb = make_session(reload_distance=0)
        session.watch("p0", "u0.count_q")
        probe = session.trace_buffer("p0").watch(session.pipe("p0"),
                                                 "u0.count_q")
        getter = probe.getter
        session.run(tb, "p0", 20)
        land(session)
        assert probe.getter is not getter  # re-resolved on the new code
        session.run(tb, "p0", 10)
        row = session.timeline("p0")
        assert all(
            row.pipe.library[key] is module
            for key, module in row.compile_result.library.items()
        )
        live = session.trace_read("p0", "u0.count_q", 20, 30)["samples"]
        assert [cycle for cycle, _ in live] == list(range(20, 30))
        assert {b - a for (_, a), (_, b) in zip(live, live[1:])} == {step}
        replayed = session.replay_window("p0", 20, 30)
        assert replayed["signals"]["u0.count_q"] == live


# The counter design with a memory in each counter: ``log_m`` word i
# holds the last count whose two low bits were i.
LOGGED = COUNTER_SRC.replace(
    "  reg [W-1:0] count_q;\n",
    "  reg [W-1:0] count_q;\n  reg [W-1:0] log_m [0:3];\n",
).replace(
    "      count_q <= next;\n  end",
    "      count_q <= next;\n    log_m[count_q[1:0]] <= count_q;\n  end",
)
LOGGED_DOUBLED = LOGGED.replace("assign sum = a + b;",
                                "assign sum = a + b + b;")


def _swap_logged_adder(session):
    session.compiler.update_source(LOGGED_DOUBLED)
    session.swap_stage("p0", "u0.u_add")


def _edit_then_repair(session):
    session.apply_change(LOGGED_DOUBLED)
    report = session.verify_consistency("p0", repair=True)
    assert report.first_divergent is not None  # the repair did run


def _edit_from_power_on(session):
    report = session.apply_change(LOGGED_DOUBLED)
    assert report.checkpoint_cycle is None  # every state list is new


# Every route that moves the instance a probe reads or its state lists,
# with the session settings it needs.
STATE_ROUTES = {
    "edit": (lambda session: session.apply_change(LOGGED_DOUBLED), {}),
    "edit, no checkpoint": (_edit_from_power_on,
                            {"checkpoint_interval": 1000}),
    "san report": (lambda session: session.set_sanitize("report"), {}),
    "opt full": (lambda session: session.set_opt("full"), {}),
    "swapStage": (_swap_logged_adder, {}),
    "ldch": (lambda session: session.ldch(
        "p0", session.store("p0").nearest_before(10)), {}),
    "verify repair": (_edit_then_repair, {}),
}


class TestEveryRouteThatMovesState:
    @pytest.mark.parametrize("route", sorted(STATE_ROUTES))
    def test_probes_read_the_state_peek_reads(self, route):
        move, settings = STATE_ROUTES[route]
        session, tb = make_session(LOGGED, reload_distance=0, **settings)
        signals = ("u0.count_q", "u0.log_m[2]")
        for signal in signals:
            session.watch("p0", signal)
        session.run(tb, "p0", 20)
        move(session)
        pipe = session.pipe("p0")
        start = pipe.cycle
        peeked = {signal: [] for signal in signals}
        for _ in range(10):
            counter = pipe.find("u0")
            peeked["u0.count_q"].append(
                [pipe.cycle, counter.peek_reg("count_q")])
            peeked["u0.log_m[2]"].append(
                [pipe.cycle, counter.memory("log_m")[2]])
            session.run(tb, "p0", 1)
        replayed = session.replay_window("p0", start, start + 10)
        for signal in signals:
            live = session.trace_read("p0", signal, start,
                                      start + 10)["samples"]
            assert live == peeked[signal], signal
            assert replayed["signals"][signal] == live, signal
        assert len({value for _, value in peeked["u0.count_q"]}) == 10


class TestReplay:
    def test_replay_bit_identical_to_live_capture(self):
        session, tb = make_session()
        session.watch("p0", "c0")
        session.run(tb, "p0", 40)
        live = session.trace_read("p0", "c0", 10, 30)["samples"]
        replay = session.replay_window("p0", 10, 30)
        assert replay["signals"]["c0"] == live
        assert replay["base_cycle"] <= 10
        # the live pipe is untouched by the scratch replay
        assert session.pipe("p0").cycle == 40

    def test_replay_across_hot_reload_versions(self):
        session, tb = make_session()
        session.watch("p0", "c0")
        session.run(tb, "p0", 20)
        session.apply_change(DOUBLED)
        session.run(tb, "p0", 20)
        # window based on a post-reload checkpoint (cycle 30): the
        # scratch pipe restores the new-version snapshot directly
        live = session.trace_read("p0", "c0", 32, 40)["samples"]
        replay = session.replay_window("p0", 32, 40, signals=["c0"])
        assert replay["signals"]["c0"] == live
        assert replay["base_cycle"] == 30

    def test_replay_window_validation(self):
        session, tb = make_session()
        session.watch("p0", "c0")
        session.run(tb, "p0", 10)
        with pytest.raises(SimulationError, match="bad replay window"):
            session.replay_window("p0", 8, 8)
        with pytest.raises(SimulationError, match="history stops"):
            session.replay_window("p0", 0, 99)

    def test_replay_requires_signals(self):
        session, tb = make_session()
        session.run(tb, "p0", 10)
        with pytest.raises(SimulationError, match="nothing to replay"):
            session.replay_window("p0", 0, 5)


class TestVcdExport:
    def test_buffer_exports_through_shared_writer(self, tmp_path):
        session, tb = make_session()
        session.watch("p0", "c0")
        session.watch("p0", "u0.count_q")
        session.run(tb, "p0", 12)
        path = tmp_path / "trace.vcd"
        session.trace_buffer("p0").to_vcd(str(path))
        text = path.read_text()
        assert "$var wire 8" in text
        assert "c0" in text and "u0.count_q" in text
        assert "#11" in text  # last change timestamp

    def test_standalone_buffer_rejects_bad_capacity(self):
        with pytest.raises(SimulationError, match="capacity"):
            TraceBuffer(capacity=0)


# LOGGED with its counter register renamed: watches on ``u0.count_q``
# go missing until LOGGED comes back.
LOGGED_RENAMED = LOGGED.replace("count_q", "cnt_q")
_UNSET = object()


def old_window(samples, start, end):
    """``TraceBuffer.window`` as a walk of every sample from the oldest."""
    out = []
    for cycle, value in samples:
        if start is not None and cycle < start:
            continue
        if end is not None and cycle >= end:
            break
        out.append([cycle, value])
    return out


class SampledReference:
    """What a buffer must hold and publish, from each live probe read
    through its getter (``TraceProbe.read``) at capture time: one ring,
    one ``last`` value and one eviction test per probe, every cycle.

    It sees what the buffer sees by wrapping the instance's
    ``capture``, ``rebind`` and ``truncate_from``; the test script
    registers probes and subscriptions with both."""

    def __init__(self, buffer):
        self.buffer = buffer
        self.probes = {}
        self.rings = {}
        self.last = {}
        self.subs = []  # (subscription, events it must have received)
        self.dropped = 0
        for name in ("capture", "rebind", "truncate_from"):
            setattr(buffer, name, self._wrap(name, getattr(buffer, name)))

    def _wrap(self, name, real):
        mirror = getattr(self, "_" + name)

        def both(pipe_or_cycle, *args):
            missing = {n: p.missing for n, p in self.probes.items()}
            result = real(pipe_or_cycle, *args)
            mirror(pipe_or_cycle, missing)
            return result

        return both

    def add(self, probe):
        self.probes[probe.name] = probe
        self.rings[probe.name] = deque()
        self.last[probe.name] = _UNSET

    def drop(self, name):
        for table in (self.probes, self.rings, self.last):
            del table[name]

    def subscribe(self, signals=None):
        sub = self.buffer.subscribe(signals, max_events=100_000)
        self.subs.append((sub, []))
        return sub

    def _publish(self, signal, event):
        for sub, events in self.subs:
            if not sub.closed and sub.wants(signal):
                events.append(event)

    def _capture(self, pipe, _missing):
        cycle, evicted = pipe.cycle, False
        capacity = self.buffer.capacity
        for name, probe in self.probes.items():
            if probe.missing:
                continue
            value, ring = probe.read(pipe), self.rings[name]
            ring.append((cycle, value))
            if capacity is not None and len(ring) > capacity:
                ring.popleft()
                evicted = True
            if value != self.last[name]:
                self.last[name] = value
                self._publish(name, {"signal": name, "cycle": cycle,
                                     "value": value})
        self.dropped += evicted

    def _rebind(self, _pipe, was_missing):
        for name, probe in self.probes.items():
            self.last[name] = _UNSET
            if probe.missing and not was_missing[name]:
                self._publish(name, {"signal": name, "missing": True})

    def _truncate_from(self, cycle, _missing):
        for name, ring in self.rings.items():
            while ring and ring[-1][0] >= cycle:
                ring.pop()
            self.last[name] = _UNSET
        self._publish(None, {"rewind": cycle})

    def check(self, dropped_before):
        buffer = self.buffer
        assert buffer.names() == list(self.probes)
        for name, ring in self.rings.items():
            samples = list(ring)
            assert buffer.window(name) == old_window(samples, None, None)
            cycles = [c for c, _ in samples]
            edges = {None, *cycles[::3], cycles[-1] + 1 if cycles else 0, -1}
            for start in edges:
                for end in edges:
                    assert buffer.window(name, start, end) == old_window(
                        samples, start, end), (name, start, end)
        assert buffer.cycles_dropped == self.dropped
        dropped_now = counters().get("trace.cycles_dropped", 0)
        assert dropped_now - dropped_before == self.dropped
        for sub, events in self.subs:
            if not sub.closed:
                assert sub.drain() == (events, 0)
                events.clear()


class TestCapturePlan:
    @pytest.mark.parametrize("capacity", [8, None])
    def test_capture_equals_a_per_probe_getter_reference(self, capacity):
        session, tb = make_session(LOGGED, reload_distance=0)
        in_reset = session.load_testbench(hold_inputs(rst=1))
        pipe = session.pipe("p0")
        buffer = TraceBuffer(capacity=capacity)
        session.timeline("p0").trace = buffer
        pipe.attach_trace(buffer)
        ref = SampledReference(buffer)
        before = counters().get("trace.cycles_dropped", 0)

        def watch(signal):
            session.watch("p0", signal)
            ref.add(buffer.watch(pipe, signal))

        def unwatch(signal):
            session.unwatch("p0", signal)
            ref.drop(signal)

        watch("c0")
        watch("u0.count_q")
        everything = ref.subscribe()
        session.run(in_reset, "p0", 3)  # one event each: the plateau
        assert [e["cycle"] for e in everything.drain()[0]] == [0, 0]
        ref.subs[0][1].clear()
        session.run(tb, "p0", 7)
        ref.check(before)
        watch("u1.log_m[2]")  # a memory word, mid-run
        watch("c1")
        session.run(tb, "p0", 5)
        late = ref.subscribe(["u1.log_m[2]", "u0.count_q"])  # mid-run
        only_c1 = ref.subscribe(["c1"])
        session.run(tb, "p0", 9)
        ref.check(before)
        probe = TraceProbe("sum", 9,
                           lambda p: p.outputs()["c0"] + p.outputs()["c1"])
        buffer.add_probe(probe)
        ref.add(probe)
        session.run(tb, "p0", 6)
        ref.check(before)
        session.apply_change(LOGGED_RENAMED)  # u0.count_q goes missing
        assert buffer.status()["probes"][1]["missing"] is True
        session.run(tb, "p0", 5)
        ref.check(before)
        buffer.unsubscribe(everything)  # nobody takes every change ...
        buffer.unsubscribe(late)
        buffer.unsubscribe(only_c1)
        session.run(tb, "p0", 4)
        again = ref.subscribe()  # ... until someone subscribes again
        again_m = ref.subscribe(["u1.log_m[2]"])
        session.run(tb, "p0", 3)
        ref.check(before)
        session.apply_change(LOGGED)  # u0.count_q comes back
        session.run(tb, "p0", 6)
        ref.check(before)
        if capacity is None:  # the windows above spanned the missing stretch
            kept = [c for c, _ in buffer.window("u0.count_q")]
            assert kept != list(range(kept[0], kept[-1] + 1))
        buffer.unsubscribe(again)
        buffer.unsubscribe(again_m)
        session.ldch("p0", session.store("p0").nearest_before(30))
        # Nothing captured since the rewind: each first sample publishes,
        # whether or not it equals the newest one kept (log_m[2] often does).
        ref.subscribe(["u0.count_q", "u1.log_m[2]", "sum"])
        session.run(in_reset, "p0", 4)
        session.run(tb, "p0", 5)
        ref.check(before)
        narrowed = ref.subscribe(["c1"])
        unwatch("c1")
        assert narrowed.closed
        session.run(tb, "p0", 5)
        ref.check(before)
        assert [name for name in ref.probes] == [
            "c0", "u0.count_q", "u1.log_m[2]", "sum"]
        assert (ref.dropped > 0) == (capacity is not None)
