"""Independent reference results for the session workloads.

The live session under test is compiled by ``repro.codegen.pygen``
module by module and hot reloaded many times.  The reference is a
from-reset run of the *final* source for the same cycle count on the
``repro.baseline`` flattening compiler (one eval/tick pair, select
muxes, never hot reloaded) -- the paper's claim, checked against a
second code generator -- and node 0's registers are checked in turn
against the instruction-level ``GoldenCore``.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, List

from .workloads import boot_testbench


def _digest(words: List[int]) -> str:
    """Digest of 64-bit words."""
    packed = struct.pack(f"<{len(words)}Q", *words)
    return hashlib.sha256(packed).hexdigest()[:16]


def mesh_stats(pipe, count: int, flat: bool) -> Dict[str, object]:
    """Simulated statistics of an NxN mesh pipe at its current cycle.
    ``flat``: the pipe is one flattened module with dotted names."""
    retired, memory, regs = [], [], []
    for node in range(count):
        if flat:
            def inst(path: str, name: str, node=node):
                return pipe.top, f"n_{node}.{path}.{name}"
        else:
            def inst(path: str, name: str, node=node):
                return pipe.find(f"n_{node}.{path}"), name
        stage, name = inst("u_core.u_wb", "retired_q")
        retired.append(stage.peek_reg(name))
        stage, name = inst("u_mem", "mem")
        memory.append(_digest(stage.memory(name)))
        stage, name = inst("u_core.u_id", "rf")
        regs.append(_digest(stage.memory(name)))
    return {
        "cycle": pipe.cycle,
        "total_retired": pipe.outputs()["total_retired"],
        "retired": retired,
        "memory": memory,
        "regs": regs,
    }


class FlatReference:
    """From-reset run of ``source`` on the flattening baseline compiler."""

    def __init__(self, source: str, mesh: int, images: List[List[int]]):
        from repro.baseline import BaselineCompiler
        from repro.hdl import elaborate, parse
        from repro.riscv.pgas import mesh_top_name

        netlist = elaborate(parse(source), mesh_top_name(mesh))
        result = BaselineCompiler(mode="inline").compile(netlist)
        self.pipe = result.make_pipe()
        self.count = mesh * mesh
        self._images = images
        self._bench = boot_testbench(images, flat=True)

    def run_to(self, cycle: int) -> None:
        self._bench.run(self.pipe, cycle - self.pipe.cycle)

    def stats(self) -> Dict[str, object]:
        return mesh_stats(self.pipe, self.count, flat=True)

    def trace_window(self, signals: List[str], cycles: int) -> Dict[str, list]:
        """Step ``cycles`` cycles, sampling ``signals`` the way
        ``TraceBuffer.capture`` does: settled values of the cycle about
        to be committed.  Top-level outputs are read from the outputs,
        everything else is a (flattened) register."""
        top = self.pipe.top
        samples: Dict[str, list] = {name: [] for name in signals}
        for _ in range(cycles):
            self._bench.drive(self.pipe)
            outputs = self.pipe.eval()
            for name in signals:
                value = (
                    outputs[name] if name in outputs else top.peek_reg(name)
                )
                samples[name].append([self.pipe.cycle, value])
            self.pipe.tick()
        return samples

    def golden_mismatches(self, program_words: List[int]) -> List[str]:
        """Step one more cycle and compare node 0's register file with
        ``GoldenCore`` after the same number of retired instructions.
        (A register write lands the cycle after its instruction
        retires, hence the count is read *before* the step.)"""
        from repro.riscv.golden import GoldenCore

        top = self.pipe.top
        retired = top.peek_reg("n_0.u_core.u_wb.retired_q")
        self._bench.run(self.pipe, 1)
        golden = GoldenCore(node_id=0)
        golden.load_program(program_words)
        golden.step(retired)
        rf = top.memory("n_0.u_core.u_id.rf")
        return [
            f"x{i}: rtl={rf[i]:#x} golden={golden.regs[i]:#x}"
            for i in range(1, 32)
            if rf[i] != golden.regs[i]
        ]


def trace_digest(samples: Dict[str, list]) -> str:
    """Digest of ``signal -> [(cycle, value), ...]`` trace windows."""
    h = hashlib.sha256()
    for name in sorted(samples):
        h.update(name.encode())
        for cycle, value in samples[name]:
            h.update(int(cycle).to_bytes(8, "little"))
            h.update(int(value).to_bytes(16, "little"))
    return h.hexdigest()[:16]
