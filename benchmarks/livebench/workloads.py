"""Workload definitions and seeded input generators.

Every workload is the same shape -- *setup -> warm-up -> measured loop*
-- with different parameters (see :class:`Workload`).  An iteration of
the loop is ``[burst of commands, timed run calls, one edit]``
(``cmd_s``, ``sim_hz``, ``erd_s``), the edits grouped in blocks of one
fixed composition.  Session workloads call :class:`repro.live.session.LiveSession` in
process; server workloads drive ``python -m repro.server`` over sockets.

The program under test only ever sees what this module generates from
``--seed``: the ``mix_loop`` data arrays, the edit schedule and the
command mix.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

DEFAULT_SEED = 1
# Counts below are sized for about this many measured seconds on the
# reference box (2 cores, ~2 KHz clean 4x4 mesh); ``--seconds`` scales
# them linearly so the work stays a pure function of the flags.
DEFAULT_SECONDS = 12
# Warm-up iterations (without their edit), excluded from every sample,
# and iterations without edit after the last edit (see ``SessionRun``).
WARMUP_ITERATIONS = 3
TAIL_ITERATIONS = 5
# Warm-up commands of a server client (a session's come with its
# warm-up iterations).
WARMUP_CMDS = 200

# Curated ``repro.riscv.patches`` entries that touch exactly one
# pipeline-stage module *and* are architecturally invisible to
# ``mix_loop`` (it uses no sltu, no lw, no negative I-immediates, no
# back-to-back writers of one register, no branch under a load-use
# stall).  Invisible edits cost the simulator exactly what visible
# ones do -- recompile, swap, reload, replay -- but leave the simulated
# statistics equal to a from-reset run, so every run can be checked
# exactly against the independent flattening compiler.
INVISIBLE_PATCHES = (
    "ex-forward-priority",
    "id-imm-sign",
    "mem-load-sign",
    "if-redirect-priority",
    "ex-sltu-signed",
)

ARRAY_BASE = 0x1000
ARRAY_WORDS = 64
RESULT_ADDR = 0x200
MAILBOX_ADDR = 0x100
RESET_CYCLES = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # "session": LiveSession in process on the NxN PGAS mesh.
    # "server": python -m repro.server subprocess, counter design.
    transport: str
    mesh: int = 0
    sanitize: str = "off"
    opt: str = "none"
    probes: int = 0
    # checkpoint_interval == reload_distance == cycles per iteration
    # (session workloads; the server CLI has no reload distance).
    interval: int = 1000
    # One iteration of the measured loop: a burst of ``cmds_per_edit``
    # command lines (``run tb, pipe, step_cycles`` and ``peek pipe``,
    # half each), ``chunks_per_edit`` timed ``run`` calls of
    # ``chunk_cycles`` cycles, one edit.  On session workloads an
    # iteration is exactly one interval, so every edit replays
    # ``interval`` cycles, the last chunk takes the checkpoint, and a
    # call at one position of the iteration is the same work every time.
    cmds_per_edit: int = 100
    step_cycles: int = 1
    chunks_per_edit: int = 1
    chunk_cycles: int = 1000
    # Edits come in blocks of one fixed composition, (fresh, revert,
    # cosmetic) counts per block, in seeded order; fresh edits of a
    # block cover the edit targets equally.  Edit cost differs several
    # times between kinds and targets, so only an exact composition
    # makes the edit latency of two seeds comparable.
    edit_block: Tuple[int, int, int] = (6, 0, 0)
    edit_blocks: int = 2  # per client
    warmup_edits: int = 1
    workers: int = 0
    clients: int = 1
    sessions: int = 1

    @property
    def edits(self) -> int:
        return sum(self.edit_block) * self.edit_blocks

    @property
    def edit_mix(self) -> Tuple[float, float, float]:
        """(fresh, revert, cosmetic) shares of the edit schedule."""
        size = sum(self.edit_block)
        return tuple(count / size for count in self.edit_block)

    @property
    def iteration_cycles(self) -> int:
        """Cycles a session workload advances per iteration."""
        return (
            self.cmds_per_edit // 2 * self.step_cycles
            + self.chunks_per_edit * self.chunk_cycles
        )


_SERVER = dict(
    transport="server", clients=2, sessions=8, interval=1000,
    # Per session of a client, 30 ``run`` and 30 ``peek`` lines.
    cmds_per_edit=240, step_cycles=20, chunks_per_edit=1, chunk_cycles=2000,
    edit_block=(2, 0, 0), edit_blocks=9, warmup_edits=4,
)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="sim_mesh4",
        why="4x4 mesh, default build: 16 nodes of Python call trees per "
            "cycle and edits that are mostly replay, so the cycle path "
            "(Pipe.eval/tick) sets sim_hz, cmd_s and erd_s",
        transport="session", mesh=4, interval=400,
        cmds_per_edit=100, chunks_per_edit=14, chunk_cycles=25,
        edit_blocks=3,
    ),
    Workload(
        name="sim_allon2",
        why="2x2 mesh with sanitize=report, opt=full, 8 probes, dense "
            "checkpoints: the same sim layer paying sanitizer hooks, "
            "trace capture, snapshots and the pass pipeline",
        transport="session", mesh=2, sanitize="report", opt="full",
        probes=8, interval=200,
        cmds_per_edit=100, chunks_per_edit=6, chunk_cycles=25,
        edit_blocks=9,
    ),
    Workload(
        name="edit_loop2",
        why="2x2 mesh, 100-cycle replay, fresh/revert/cosmetic edit mix: "
            "lex/parse/diff/elaborate/passes/codegen/swap dominate, so "
            "cycle-path work should barely move it",
        transport="session", mesh=2, interval=100,
        cmds_per_edit=40, chunks_per_edit=4, chunk_cycles=20,
        edit_block=(12, 5, 3), edit_blocks=6, warmup_edits=5,
    ),
    # The two server workloads are not listed in BENCHMARK.json: their
    # latencies are chains of cross-process wake-ups, which in a slow
    # episode of the reference box spread by 11-57 % over ten runs even
    # on one core (see README), beyond any bound the benchmark may set.
    Workload(
        name="server_cmds_w1",
        why="sharded server (--workers 1), 2 closed-loop clients on 8 "
            "counter sessions: client frame, frontend dispatch, worker "
            "pipe hop, session lock, journal and reply do the work",
        workers=1, **_SERVER,
    ),
    Workload(
        name="server_cmds_w0",
        why="identical traffic against --workers 0 (the threaded "
            "server): a shard-only optimisation must leave it flat and "
            "the planned server collapse must know what it costs here",
        workers=0, **_SERVER,
    ),
)}


def scaled(workload: Workload, seconds: int) -> Workload:
    """The workload with its counts scaled to ``seconds`` of work."""
    if seconds == DEFAULT_SECONDS:
        return workload
    factor = seconds / DEFAULT_SECONDS
    return replace(
        workload, edit_blocks=max(1, round(workload.edit_blocks * factor))
    )


# ---------------------------------------------------------------------------
# mix_loop: the benchmark-owned node program
# ---------------------------------------------------------------------------


def mix_loop(seed: int, node: int, count: int) -> str:
    """Non-halting node program: ALU ops, a data-dependent branch and a
    local load/store per element of a seeded array, then one remote
    doubleword store to the next node's mailbox per outer iteration
    (traffic for ``ring_stop`` and the remote-store port)."""
    # Imported here so that importing this module needs no repro.
    from repro.riscv.pgas import global_address

    rng = random.Random(seed * 1009 + node)
    data = ", ".join(str(rng.getrandbits(63)) for _ in range(ARRAY_WORDS))
    mailbox = global_address((node + 1) % count, MAILBOX_ADDR)
    return f"""
    li   s0, {ARRAY_BASE}
    li   s1, {ARRAY_WORDS * 8}
    li   s4, {mailbox}
    li   s5, 0
outer:
    li   t0, 0
    li   s2, 0
inner:
    add  t1, s0, t0
    ld   t2, 0(t1)
    xor  s2, s2, t2
    slli t3, t2, 1
    srli t4, t2, 3
    add  t3, t3, t4
    andi t5, t2, 1
    beqz t5, even
    add  t3, t3, s5
even:
    sd   t3, 0(t1)
    addi t0, t0, 8
    blt  t0, s1, inner
    addi s5, s5, 1
    sd   s2, {RESULT_ADDR}(zero)
    sd   s2, 0(s4)
    j    outer

.org {ARRAY_BASE}
.dword {data}
"""


def node_programs(seed: int, count: int) -> list:
    """The assembled ``mix_loop`` of each node."""
    from repro.riscv.assembler import assemble

    return [assemble(mix_loop(seed, node, count)) for node in range(count)]


def node_images(programs: list) -> List[List[int]]:
    """64-bit memory images, one per node."""
    from repro.riscv.pgas import LOCAL_MEM_WORDS

    return [program.as_mem64(LOCAL_MEM_WORDS) for program in programs]


def boot_testbench(images: List[List[int]], flat: bool = False):
    """Loads the images at cycle 0 and drives reset; replay-safe since
    the stimulus depends on the absolute cycle only.  ``flat`` targets
    the single-module pipe of the flattening baseline compiler."""
    from repro.sim.testbench import CallbackTestbench

    def drive(pipe) -> None:
        if pipe.cycle == 0:
            for node, words in enumerate(images):
                if flat:
                    pipe.top.write_memory(f"n_{node}.u_mem.mem", 0, words)
                else:
                    pipe.find(f"n_{node}.u_mem").write_memory("mem", 0, words)
        pipe.set_inputs(rst=int(pipe.cycle < RESET_CYCLES), clk=0)

    return CallbackTestbench(name="mix_loop_boot", drive=drive)


def probe_signals(workload: Workload) -> List[str]:
    """Mesh outputs first, then per-node pc / retire registers."""
    names = ["all_halted", "total_retired"]
    for node in range(workload.mesh * workload.mesh):
        names.append(f"n_{node}.u_core.u_if.pc_q")
        names.append(f"n_{node}.u_core.u_wb.retired_q")
    return names[: workload.probes]


# ---------------------------------------------------------------------------
# Edit schedule
# ---------------------------------------------------------------------------

FRESH, REVERT, COSMETIC = "fresh", "revert", "cosmetic"


@dataclass(frozen=True)
class Edit:
    kind: str
    # Module a fresh edit touches or a revert puts back ("" for a
    # cosmetic edit): what an edit costs depends on it.
    module: str
    target: str  # name of the edit target behind ``module``
    source: str


class EditGenerator:
    """Seeded stream of edits over one evolving source text.

    The behavioural state is (injected patches, per-module nonce); the
    text is rendered from it, so a *revert* reproduces an earlier
    behavioural state token for token (compile-cache hit) and a
    *cosmetic* edit changes a trailing comment only.

    Edits are dealt in blocks: every block holds exactly ``block``
    (fresh, revert, cosmetic) edits, its fresh edits hit every target
    equally often and the reverts take the targets in turn; the seed
    only decides the order.
    """

    def __init__(self, base: str, targets: Dict[str, Tuple[str, tuple]],
                 block: Tuple[int, int, int], seed: int, stream: int = 0):
        """``targets`` maps an edit name to ``(module, (good, bad))``
        or, with an empty pair, a nonce-only edit of ``module``.
        ``stream`` keeps the texts of generators that feed one server
        apart (its sessions share an artifact store, so equal texts
        would be store hits, not fresh compiles)."""
        if block[0] % len(targets) or block[1] > block[0]:
            raise ValueError(
                f"{block[0]} fresh edits per block do not cover "
                f"{len(targets)} targets equally, or are fewer than the "
                f"{block[1]} reverts"
            )
        self._base = base
        self._targets = targets
        self._names = sorted(targets)
        self._block = block
        self._rng = random.Random(seed)
        self._injected: frozenset = frozenset()
        self._nonces: Dict[str, int] = {}
        self._previous = None  # state a revert goes back to
        self._touched = ("", "")  # (module, target) in which it differs
        self._next_nonce = stream * 1_000_000 + 1
        self._comments = 0
        self._reverts = 0
        self._pending: List[Tuple[str, str]] = []

    def _deal(self) -> None:
        fresh, revert, cosmetic = self._block
        names = self._names * (fresh // len(self._names))
        self._rng.shuffle(names)
        groups = [[(FRESH, name)] for name in names]
        # A revert follows a fresh edit of the target whose turn it is:
        # what the reverts put back is the same at every seed.
        for _ in range(revert):
            turn = self._names[self._reverts % len(self._names)]
            self._reverts += 1
            self._rng.choice(
                [g for g in groups if g == [(FRESH, turn)]]
            ).append((REVERT, ""))
        for _ in range(cosmetic):
            groups.insert(
                self._rng.randrange(len(groups) + 1), [(COSMETIC, "")]
            )
        self._pending = [edit for group in groups for edit in group][::-1]

    def _render(self) -> str:
        source = self._base
        for name in sorted(self._injected):
            _, (good, bad) = self._targets[name]
            source = source.replace(good, bad, 1)
        for module, nonce in sorted(self._nonces.items()):
            source = _insert_nonce(source, module, nonce)
        if self._comments:
            source += f"// livebench cosmetic {self._comments}\n"
        return source

    def warmup(self) -> Edit:
        """A fresh edit outside the blocks (they stay whole for the
        measured edits)."""
        return self._apply(FRESH, self._rng.choice(self._names))

    def next(self) -> Edit:
        if not self._pending:
            self._deal()
        return self._apply(*self._pending.pop())

    def _apply(self, kind: str, name: str) -> Edit:
        module = ""
        if kind == FRESH:
            module, rewrite = self._targets[name]
            self._touched = module, name
            self._previous = (self._injected, dict(self._nonces))
            if rewrite:
                self._injected = self._injected ^ {name}
            # A value no earlier edit used: never-before-compiled text.
            self._nonces[module] = self._next_nonce
            self._next_nonce += 1
        elif kind == REVERT:
            module, name = self._touched
            current = (self._injected, dict(self._nonces))
            self._injected, self._nonces = (
                self._previous[0], dict(self._previous[1])
            )
            self._previous = current
        else:
            self._comments += 1
        return Edit(kind, module, name, self._render())


_NONCE_WIDTH = 32


def _insert_nonce(source: str, module: str, nonce: int) -> str:
    match = re.search(
        rf"^module {re.escape(module)}\b.*?^endmodule", source,
        flags=re.S | re.M,
    )
    if match is None:
        raise ValueError(f"module {module!r} not found in source")
    end = match.end() - len("endmodule")
    line = (
        f"  wire [{_NONCE_WIDTH - 1}:0] lb_nonce;\n"
        f"  assign lb_nonce = {_NONCE_WIDTH}'d{nonce};\n"
    )
    return source[:end] + line + source[end:]


def mesh_edit_targets() -> Dict[str, Tuple[str, tuple]]:
    """The invisible patches plus a nonce-only edit of the fifth stage
    (its one curated patch changes the retire count)."""
    from repro.riscv.patches import get_patch

    targets: Dict[str, Tuple[str, tuple]] = {"wb-nonce": ("rv_wb", ())}
    for name in INVISIBLE_PATCHES:
        patch = get_patch(name)
        targets[name] = (patch.module, (patch.good, patch.bad))
    return targets


# ---------------------------------------------------------------------------
# Server design: the three-module counter (simulation costs ~us per
# cycle, so the command hop dominates)
# ---------------------------------------------------------------------------

COUNTER_DESIGN = """
module adder #(parameter W = 8) (
  input clk,
  input [W-1:0] a,
  input [W-1:0] b,
  output [W-1:0] sum
);
  assign sum = a + b;
endmodule

module counter #(parameter W = 8) (
  input clk,
  input rst,
  input [W-1:0] step,
  output [W-1:0] count
);
  reg [W-1:0] count_q;
  wire [W-1:0] next;
  adder #(.W(W)) u_add (.clk(clk), .a(count_q), .b(step), .sum(next));
  assign count = count_q;
  always @(posedge clk) begin
    if (rst)
      count_q <= 0;
    else
      count_q <= next;
  end
endmodule

module top (
  input clk,
  input rst,
  output [7:0] c0,
  output [7:0] c1
);
  counter #(.W(8)) u0 (.clk(clk), .rst(rst), .step(8'd1), .count(c0));
  counter #(.W(8)) u1 (.clk(clk), .rst(rst), .step(8'd3), .count(c1));
endmodule
"""

COUNTER_TOP = "top"
# Nonce-only edits of either leaf module: behaviour-neutral, so the
# closed form below stays the correctness oracle across reloads.
COUNTER_EDIT_TARGETS = {
    "adder-nonce": ("adder", ()),
    "counter-nonce": ("counter", ()),
}


def counter_outputs(cycle: int) -> Dict[str, int]:
    """Closed-form outputs of the counter design at ``cycle``."""
    ticks = max(cycle - RESET_CYCLES, 0)
    return {"c0": ticks % 256, "c1": (3 * ticks) % 256}
