"""Lockstep co-simulation: the RTL core against the golden ISS.

The end-state differential tests tell you *that* the core diverged;
lockstep cosim tells you *where*: it steps the pipelined RTL cycle by
cycle, retires the golden model one instruction for every instruction
the RTL's writeback stage retires, and compares full architectural
register state at each retire.  The first mismatch is reported with
the retire index and the offending instruction word.

This is the kind of harness the paper's "debugging a single
simulation" use case assumes the developer has: combined with
checkpoint rewind, it pinpoints a bug to one instruction without
rerunning anything from cycle 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..hdl.errors import SimulationError
from ..sim.pipeline import Pipe
from .assembler import Program
from .golden import GoldenCore
from .pgas import LOCAL_MEM_WORDS


@dataclass
class Divergence:
    """First architectural mismatch between RTL and the golden model."""

    retire_index: int
    cycle: int
    pc: int
    instruction: int
    register: str
    rtl_value: int
    golden_value: int

    def __str__(self) -> str:
        return (
            f"divergence at retire #{self.retire_index} "
            f"(cycle {self.cycle}, pc {self.pc:#x}, "
            f"instr {self.instruction:#010x}): "
            f"{self.register} rtl={self.rtl_value:#x} "
            f"golden={self.golden_value:#x}"
        )


@dataclass
class CosimResult:
    """How far a co-simulation ran, and its first divergence if any."""
    retired: int
    cycles: int
    halted: bool
    divergence: Optional[Divergence] = None

    @property
    def matched(self) -> bool:
        return self.divergence is None


class Cosim:
    """Drives one PGAS node's core in lockstep with a GoldenCore."""

    def __init__(self, pipe: Pipe, node: int = 0):
        self._pipe = pipe
        self._node = node
        self._core = pipe.find(f"n_{node}.u_core")
        self._wb = self._core.find("u_wb")
        self._id = self._core.find("u_id")
        self.golden = GoldenCore(node_id=node)
        self._last_retired = 0

    def load_program(self, program: Program) -> None:
        """Install the program in both models and reset both."""
        self._pipe.reset_state()
        words = program.as_mem64(LOCAL_MEM_WORDS)
        self._pipe.find(f"n_{self._node}.u_mem").write_memory("mem", 0, words)
        self.golden = GoldenCore(node_id=self._node)
        self.golden.load_program(program.words)
        self._pipe.set_inputs(rst=1)
        self._pipe.step(2)
        self._pipe.set_inputs(rst=0)
        self._last_retired = 0

    # -- stepping ----------------------------------------------------------

    def _rtl_retired(self) -> int:
        return self._wb.peek_reg("retired_q")

    def _rtl_regs(self) -> List[int]:
        rf = self._id.memory("rf")
        return [0] + list(rf[1:32])

    def _compare(self, retire_index: int, pc: int,
                 instruction: int) -> Optional[Divergence]:
        rtl = self._rtl_regs()
        for i in range(32):
            if rtl[i] != self.golden.regs[i]:
                return Divergence(
                    retire_index=retire_index,
                    cycle=self._pipe.cycle,
                    pc=pc,
                    instruction=instruction,
                    register=f"x{i}",
                    rtl_value=rtl[i],
                    golden_value=self.golden.regs[i],
                )
        return None

    def run(self, max_cycles: int = 100_000,
            stop_on_divergence: bool = True) -> CosimResult:
        """Run to halt (or divergence, or the cycle bound).

        The RTL's register-file write lands one cycle after the
        instruction retires (WB latches, then writes), so comparisons
        run one cycle behind the retire counter; a short drain after
        halt flushes the tail.
        """
        divergence: Optional[Divergence] = None
        start_cycle = self._pipe.cycle
        drain = 0
        while self._pipe.cycle - start_cycle < max_cycles:
            retired_before = self._rtl_retired()
            self._pipe.step(1)
            # Writes for instructions retired up to *last* cycle are
            # now architecturally visible in the regfile.
            while self._last_retired < retired_before:
                self._last_retired += 1
                pc = self.golden.pc
                instruction = self.golden.read(pc, 4)
                self.golden.step(1)
                found = self._compare(self._last_retired, pc, instruction)
                if found is not None and divergence is None:
                    divergence = found
                    if stop_on_divergence:
                        return CosimResult(
                            retired=self._last_retired,
                            cycles=self._pipe.cycle,
                            halted=False,
                            divergence=divergence,
                        )
            if self._halted():
                drain += 1
                if drain > 2:
                    break
        return CosimResult(
            retired=self._last_retired,
            cycles=self._pipe.cycle,
            halted=self._halted(),
            divergence=divergence,
        )

    def _halted(self) -> bool:
        return bool(self._wb.peek_reg("halted_q"))


def cosim_program(pipe: Pipe, program: Program,
                  max_cycles: int = 100_000) -> CosimResult:
    """One-call lockstep check of ``program`` on ``pipe``'s node 0."""
    cosim = Cosim(pipe)
    cosim.load_program(program)
    result = cosim.run(max_cycles=max_cycles)
    if not result.halted and result.matched:
        raise SimulationError(
            f"cosim hit the {max_cycles}-cycle bound without halting"
        )
    return result
