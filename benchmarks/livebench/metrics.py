"""Metric names, units and directions -- the one list the code, the
tests and ``BENCHMARK.json`` agree on -- plus the statistics.

Every workload reports every metric: a per-layer one that a workload
cannot observe (``sim.eval.s`` through a server socket) is reported as
0 there.  End-to-end metrics are never 0.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
from time import perf_counter
from typing import Dict, List, Mapping, Sequence, Tuple

LOWER, HIGHER = "lower", "higher"

# name -> (unit, better, bound).  ``bound`` is the share of the parent's
# median by which the metric may worsen before a change is rejected.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", LOWER, 0.25),
    "sim_hz": ("Hz", HIGHER, 0.15),
    "erd_s": ("s", LOWER, 0.25),
    "cmd_s": ("s", LOWER, 0.15),
    "peak_rss_mb": ("MB", LOWER, 0.10),
}

PASS_NAMES = (
    "elab_facts", "dataflow", "constprop", "sanitize_plan", "deadlogic",
    "sensitivity", "codegen",
)

# name -> (unit, better).  ``.s`` is self time summed over the measured
# phases, ``.n`` a count that repeats exactly for one (seed, seconds).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # Enclosing wall time of each measured phase (what shares are of).
    "phase.run.s": ("s", LOWER),
    "phase.cmd.s": ("s", LOWER),
    "phase.edit.s": ("s", LOWER),
    # Pooled over every class, host interference included: completed
    # commands per second over the bursts, median and tail.
    "cmd.per_s": ("1/s", HIGHER),
    "cmd.p50_s": ("s", LOWER),
    "cmd.p99_s": ("s", LOWER),
    "sim.chunk.p50_hz": ("Hz", HIGHER),
    "hdl.parse.s": ("s", LOWER),
    "hdl.parse.n": ("count", LOWER),
    "hdl.regions.s": ("s", LOWER),
    "hdl.elaborate.s": ("s", LOWER),
    "hdl.elaborate.n": ("count", LOWER),
    "live.parse_diff.s": ("s", LOWER),
    "live.update_source.s": ("s", LOWER),
    "live.compile_top.s": ("s", LOWER),
    "live.swap.s": ("s", LOWER),
    "live.swap.instances.n": ("count", LOWER),
    "live.reload.s": ("s", LOWER),
    "live.replay.s": ("s", LOWER),
    # Replay including the cycles it simulates (its share of an edit).
    "live.replay.wall.s": ("s", LOWER),
    "live.replay.cycles.n": ("count", LOWER),
    "live.ckpt_take.s": ("s", LOWER),
    "live.ckpt_take.n": ("count", LOWER),
    "live.ckpt.bytes": ("B", LOWER),
    "live.compile.recompiled.n": ("count", LOWER),
    "live.compile.reused.n": ("count", HIGHER),
    "live.compile.reuse_ratio": ("ratio", HIGHER),
    "live.edit.fresh.p50_s": ("s", LOWER),
    "live.edit.revert.p50_s": ("s", LOWER),
    "live.edit.cosmetic.p50_s": ("s", LOWER),
    "live.edit.p50_s": ("s", LOWER),
    "live.edit.p95_s": ("s", LOWER),
    "live.edit.span_coverage": ("ratio", HIGHER),
    "passes.run.s": ("s", LOWER),
    **{f"passes.{name}.s": ("s", LOWER) for name in PASS_NAMES},
    "passes.computed.n": ("count", LOWER),
    "passes.reused.n": ("count", HIGHER),
    "codegen.compile_module.s": ("s", LOWER),
    "codegen.compile_module.n": ("count", LOWER),
    "codegen.source_lines.n": ("count", LOWER),
    "analyze.run.s": ("s", LOWER),
    "analyze.analyzed.n": ("count", LOWER),
    "analyze.reused.n": ("count", HIGHER),
    "sim.eval.s": ("s", LOWER),
    "sim.tick.s": ("s", LOWER),
    "sim.cycles.n": ("count", LOWER),
    "sim.eval.us_per_cycle": ("us", LOWER),
    "sim.tick.us_per_cycle": ("us", LOWER),
    "sim.testbench.s": ("s", LOWER),
    "trace.capture.s": ("s", LOWER),
    "trace.capture.n": ("count", LOWER),
    "trace.dropped.n": ("count", LOWER),
    "sanitize.hits.n": ("count", LOWER),
    "sanitize.findings.n": ("count", LOWER),
    "sanitize.sites.n": ("count", LOWER),
    "sanitize.elided.n": ("count", HIGHER),
    "host.calib_s": ("s", LOWER),
    "trace_overhead_ratio": ("ratio", LOWER),
}

# What a traced run of a server workload prints on top (not in
# ``BENCHMARK.json``, which does not list those workloads).
SERVER_PER_LAYER: Dict[str, Tuple[str, str]] = {
    "server.client_rtt.s": ("s", LOWER),
    "server.request.s": ("s", LOWER),
    "server.hop.s": ("s", LOWER),
    "server.run.p50_s": ("s", LOWER),
    "server.peek.p50_s": ("s", LOWER),
    "server.errors.n": ("count", LOWER),
    "server.journal.bytes": ("B", LOWER),
    "server.store.artifacts.n": ("count", LOWER),
}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


median = statistics.median

Samples = Mapping[object, Sequence[float]]  # class -> seconds


def undisturbed(samples: Samples) -> float:
    """Every class of operations counted at its fastest sample, the
    classes weighted by their counts.  For the server workloads only:
    their samples are chains of wake-ups between four threads on one
    core, where a probe of the host would be one more contender, so
    they keep the fastest sample -- good on a quiet host, and one
    reason they are not in ``BENCHMARK.json``."""
    total = sum(len(values) for values in samples.values())
    return sum(
        len(values) * min(values) for values in samples.values()
    ) / total


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) the way the acceptance rule takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

# What one probe, and one reference child (``cli.spawn_reference``),
# takes on the reference box when nothing else runs on its core.
# Timings are reported in seconds of a host that always runs at this
# speed.
PROBE_REFERENCE_S = 0.0014
CHILD_REFERENCE_S = 0.13
_MASK = (1 << 64) - 1
_PROBE_FUNCTIONS, _PROBE_LINES = 10, 120
_PROBE_STATES, _PROBE_STATE_WORDS = 8, 96
_PROBE_STEPS, _PROBE_NAMES = 3200, 32


def _probe_source() -> str:
    """Straight-line functions in the style of the generated simulator
    code: reads and writes of a state list, 64-bit masks, conditional
    expressions, case chains.  The same text every time."""
    rng = random.Random(7)
    lines: List[str] = []
    for f in range(_PROBE_FUNCTIONS):
        lines += [f"def f{f}(s, a, b):", f"    a &= {_MASK}", f"    b &= {_MASK}"]
        names = ["a", "b"]
        for n in range(_PROBE_LINES):
            x, y = rng.choice(names), rng.choice(names)
            i = rng.randrange(_PROBE_STATE_WORDS)
            v = f"v{n}"
            lines.append("    " + (
                f"{v} = ({x} + s[{i}]) & {_MASK}",
                f"{v} = s[{i}] if {y} & 1 else {x}",
                f"{v} = 1 if {x} == s[{i}] else 0",
                f"{v} = ({x} ^ {y}) >> {1 + n % 8}",
                f"{v} = (({x} << 3) & {_MASK}) | (s[{i}] & 7)",
                f"c = s[{i}] & 7\n"
                f"    if c == 0:\n        {v} = {x}\n"
                f"    elif c == 1:\n        {v} = ({x} - {y}) & {_MASK}\n"
                f"    elif c == 2:\n        {v} = {x} | {y}\n"
                f"    else:\n        {v} = {x} & {y}",
            )[rng.randrange(6)])
            names.append(v)
            if n % 6 == 5:
                lines.append(f"    s[{rng.randrange(_PROBE_STATE_WORDS)}] = {v}")
        lines.append(f"    return {names[-1]}, {names[-2]}")
    return "\n".join(lines) + "\n"


def _probe_steps() -> List[Tuple[int, str, str, int]]:
    """(operation, name, name, constant) steps for ``_walk``."""
    rng = random.Random(11)
    names = [f"r{n}" for n in range(_PROBE_NAMES)]
    return [
        (rng.randrange(7), rng.choice(names), rng.choice(names),
         rng.getrandbits(16))
        for _ in range(_PROBE_STEPS)
    ]


def _walk(steps: List[Tuple[int, str, str, int]]) -> int:
    """A loop in the style of the parser and the compiler passes: one
    step after another with branches nobody can predict, lookups by
    name, calls, short-lived tuples."""
    table = {f"r{n}": 3 * n + 1 for n in range(_PROBE_NAMES)}
    get, stack, acc = table.__getitem__, [], 1
    for op, a, b, constant in steps:
        if op == 0:
            table[a] = (get(b) + constant) & _MASK
        elif op == 1:
            if get(a) & 1:
                acc ^= constant
            else:
                acc += get(b) & 255
        elif op == 2:
            stack.append((a, acc))
        elif op == 3:
            if stack:
                name, value = stack.pop()
                table[name] = value & 0xFFFFFFFF
        elif op == 4:
            acc += len(a + b)
        elif op == 5:
            if get(a) > get(b):
                table[a] = get(b) ^ constant
            else:
                table[b] = (3 * get(a) + constant) & _MASK
        else:
            acc = (31 * acc + constant) & 0xFFFFFFFF
    return acc


class HostSpeed:
    """Readings of one fixed piece of work, taken again and again
    between the benchmark's operations, so that every operation can be
    read against the speed the host had at that moment.

    The reference box is a 2-vCPU guest of a shared host.  Whatever
    else runs on the same physical cores slows pure Python down by a
    factor that wanders between 1.05 and 2.5 over seconds to minutes,
    and it slows a 2 ms operation as much as a 250 ms one: over 64
    windows of 18 s the median time of a 5-cycle simulator chunk spread
    (distance between quartiles over median) by 29 % and its fastest
    sample by 5 % with a range of 79 %.  Divided by the time of the
    probes around it the same median spread by 3 % with a range of 7 %
    -- 10 % for 250 ms operations, 30 per window."""

    def __init__(self, reference_s: float) -> None:
        self.reference_s = reference_s
        self.starts: List[float] = []
        self.seconds: List[float] = []

    def record(self, started: float, seconds: float) -> None:
        self.starts.append(started)
        self.seconds.append(seconds)

    def slowdown(self, start: float, seconds: float) -> float:
        """How much slower than the reference the host ran around the
        operation that began at ``start`` and took ``seconds``: the two
        readings before it and the two after it over the reference."""
        first_after = bisect.bisect_left(self.starts, start + seconds)
        last_before = bisect.bisect_left(self.starts, start)
        near = (
            self.seconds[max(last_before - 2, 0):last_before]
            + self.seconds[first_after:first_after + 2]
        )
        return sum(near) / len(near) / self.reference_s

    def median_s(self) -> float:
        return statistics.median(self.seconds)


class HostProbe(HostSpeed):
    """The work a session run is read against, done in its own thread
    between its operations.  What the work is matters: a tight
    arithmetic loop follows the program less well (5 %, range 13 % in
    the windows above), because the simulator loses more to a busy
    sibling than such a loop does, and the parser more than the
    simulator.  So the probe is half code of the simulator's kind
    (``_probe_source``) and half of the compiler's (``_walk``)."""

    def __init__(self) -> None:
        super().__init__(PROBE_REFERENCE_S)
        namespace: Dict[str, object] = {}
        exec(compile(_probe_source(), "<livebench probe>", "exec"), namespace)
        self._functions = [
            namespace[f"f{f}"] for f in range(_PROBE_FUNCTIONS)
        ]
        rng = random.Random(3)
        self._states = [
            [rng.getrandbits(64) for _ in range(_PROBE_STATE_WORDS)]
            for _ in range(_PROBE_STATES)
        ]
        self._steps = _probe_steps()

    def __call__(self, runs: int = 1) -> None:
        """Probe the host once: the mean of ``runs`` runs of the work
        (more of them around a longer operation)."""
        started = perf_counter()
        for _ in range(runs):
            a, b = 1, 2
            for state in self._states:
                for function in self._functions:
                    a, b = function(state, a, b)
            _walk(self._steps)
        self.record(started, (perf_counter() - started) / runs)


# class -> (start, seconds) of each operation
Timed = Mapping[object, Sequence[Tuple[float, float]]]


def typical(samples: Timed, host: HostSpeed) -> float:
    """What one operation takes on a host of the reference speed: each
    sample divided by the host's slowdown around it, every class of
    operations counted at the median of its samples, the classes
    weighted by their counts.

    The operations of a class are the same work (the same position in
    the checkpoint interval, the same edit kind and module), so work
    that one class alone carries -- the checkpoint in the last chunk of
    an interval -- is counted as often as it happens.  The class counts
    are exact (see ``Workload.edit_block``), so the weights are the
    same at every seed."""
    total = sum(len(values) for values in samples.values())
    return sum(
        len(values) * statistics.median(
            seconds / host.slowdown(start, seconds)
            for start, seconds in values
        )
        for values in samples.values()
    ) / total


def seconds_of(samples: Timed) -> List[float]:
    """Every sample as the clock read it, host interference included."""
    return [seconds for values in samples.values() for _, seconds in values]
