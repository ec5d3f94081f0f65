"""Differential testing of the RTL core against the golden ISS.

The strongest correctness evidence in this repo: the 5-stage pipelined
RTL core and the single-cycle reference interpreter run the same
programs; final architectural state (registers, memory, retire count)
must agree — including on randomly generated programs.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.riscv import assemble
from repro.riscv.golden import GoldenCore
from repro.riscv.programs import (
    fibonacci,
    memcopy,
    sieve,
    vector_sum,
)
from repro.sim import Pipe

MAX_CYCLES = 6000


def run_rtl(pipe: Pipe, program, max_cycles=MAX_CYCLES):
    pipe.reset_state()
    pipe.find("n_0.u_mem").write_memory("mem", 0, program.as_mem64(4096))
    pipe.set_inputs(rst=1)
    pipe.step(2)
    pipe.set_inputs(rst=0)
    halted = pipe.run_until(
        lambda p, o: o["all_halted"] == 1, max_cycles=max_cycles
    )
    return halted


def run_golden(program, max_instructions=200_000):
    core = GoldenCore()
    core.load_program(program.words)
    core.run(max_instructions)
    return core


def differential(pipe: Pipe, source: str, max_cycles=MAX_CYCLES):
    program = assemble(source)
    golden = run_golden(program)
    assert golden.halted, "golden model must halt"
    halted = run_rtl(pipe, program, max_cycles)
    assert halted, "RTL must halt"

    core = pipe.find("n_0.u_core")
    rf = core.find("u_id").memory("rf")
    for i in range(1, 32):
        assert rf[i] == golden.regs[i], (
            f"x{i}: rtl={rf[i]:#x} golden={golden.regs[i]:#x}"
        )
    mem = pipe.find("n_0.u_mem").memory("mem")
    for word_index in range(4096):
        expect = int.from_bytes(
            golden.mem[8 * word_index : 8 * word_index + 8], "little"
        )
        assert mem[word_index] == expect, (
            f"mem[{word_index:#x}]: rtl={mem[word_index]:#x} "
            f"golden={expect:#x}"
        )
    retired = core.find("u_wb").peek_reg("retired_q")
    assert retired == golden.instret
    return golden


class TestPrograms:
    def test_fibonacci(self, pgas1_pipe):
        golden = differential(pgas1_pipe, fibonacci(10))
        assert golden.read(0x200, 8) == 55

    def test_fibonacci_larger(self, pgas1_pipe):
        golden = differential(pgas1_pipe, fibonacci(30))
        assert golden.read(0x200, 8) == 832040

    def test_vector_sum(self, pgas1_pipe):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        golden = differential(pgas1_pipe, vector_sum(values))
        assert golden.read(0x200, 8) == sum(values)

    def test_vector_sum_with_negatives(self, pgas1_pipe):
        values = [-5, 10, -3]
        golden = differential(
            pgas1_pipe, vector_sum([v & ((1 << 64) - 1) for v in values])
        )
        assert golden.read(0x200, 8) == (sum(values)) & ((1 << 64) - 1)

    def test_sieve(self, pgas1_pipe):
        golden = differential(pgas1_pipe, sieve(50), max_cycles=20000)
        assert golden.read(0x200, 8) == 15  # primes below 50

    def test_memcopy(self, pgas1_pipe):
        source = """
    li   t0, 0x800
    li   t1, 0xDEAD
    sd   t1, 0(t0)
    li   t1, 0xBEEF
    sd   t1, 8(t0)
    li   t1, 0xCAFE
    sd   t1, 16(t0)
""" + memcopy(words=3)
        differential(pgas1_pipe, source)


class TestHazards:
    def test_back_to_back_dependencies_forwarded(self, pgas1_pipe):
        differential(pgas1_pipe, """
    li   t0, 1
    addi t1, t0, 1
    addi t2, t1, 1
    addi t3, t2, 1
    add  a0, t2, t3
    ecall
""")

    def test_load_use_hazard(self, pgas1_pipe):
        differential(pgas1_pipe, """
    li   t0, 321
    sd   t0, 0x100(zero)
    ld   t1, 0x100(zero)
    addi a0, t1, 1
    ecall
""")

    def test_double_forward_priority(self, pgas1_pipe):
        # Two writers to the same register back-to-back: EX/MEM must
        # win over the WB bus.
        differential(pgas1_pipe, """
    li   t0, 1
    addi t0, t0, 10
    addi t0, t0, 100
    mv   a0, t0
    ecall
""")

    def test_branch_flush_kills_wrong_path(self, pgas1_pipe):
        differential(pgas1_pipe, """
    li   a0, 0
    j    skip
    addi a0, a0, 100
    addi a0, a0, 100
skip:
    addi a0, a0, 1
    ecall
""")

    def test_branch_depends_on_forwarded_value(self, pgas1_pipe):
        differential(pgas1_pipe, """
    li   a0, 0
    li   t0, 4
    addi t0, t0, -4
    beqz t0, yes
    li   a0, 111
    ecall
yes:
    li   a0, 222
    ecall
""")

    def test_store_data_forwarding(self, pgas1_pipe):
        differential(pgas1_pipe, """
    li   t0, 5
    addi t1, t0, 37
    sd   t1, 0x180(zero)
    ld   a0, 0x180(zero)
    ecall
""")

    def test_jalr_uses_forwarded_base(self, pgas1_pipe):
        differential(pgas1_pipe, """
    la   t0, fn
    jalr ra, t0, 0
    ecall
fn:
    li   a0, 7
    ecall
""")

    def test_x0_discards_writes(self, pgas1_pipe):
        differential(pgas1_pipe, """
    li   zero, 55
    addi a0, zero, 3
    ecall
""")


_REG_POOL = ["t0", "t1", "t2", "a0", "a1", "s2", "s3"]


@st.composite
def random_program(draw):
    """Straight-line random RV64I (safe ops only) with sprinkled
    memory traffic; ends with ecall."""
    lines = [
        "    li t0, 0x1234",
        "    li t1, -77",
        "    li t2, 9",
        "    li s0, 0x800",  # scratch-memory base (s0 never clobbered)
    ]
    count = draw(st.integers(min_value=3, max_value=25))
    for _ in range(count):
        kind = draw(st.sampled_from(["alu", "alui", "aluw", "mem", "shift"]))
        rd = draw(st.sampled_from(_REG_POOL))
        rs1 = draw(st.sampled_from(_REG_POOL))
        rs2 = draw(st.sampled_from(_REG_POOL))
        if kind == "alu":
            op = draw(st.sampled_from(
                ["add", "sub", "and", "or", "xor", "slt", "sltu"]
            ))
            lines.append(f"    {op} {rd}, {rs1}, {rs2}")
        elif kind == "alui":
            op = draw(st.sampled_from(["addi", "andi", "ori", "xori", "slti"]))
            imm = draw(st.integers(min_value=-512, max_value=511))
            lines.append(f"    {op} {rd}, {rs1}, {imm}")
        elif kind == "aluw":
            op = draw(st.sampled_from(["addw", "subw", "sllw", "srlw", "sraw"]))
            lines.append(f"    {op} {rd}, {rs1}, {rs2}")
        elif kind == "shift":
            op = draw(st.sampled_from(["slli", "srli", "srai"]))
            shamt = draw(st.integers(min_value=0, max_value=63))
            lines.append(f"    {op} {rd}, {rs1}, {shamt}")
        else:
            offset = draw(st.integers(min_value=0, max_value=63)) * 8
            if draw(st.booleans()):
                lines.append(f"    sd {rs1}, {offset}(s0)")
            else:
                lines.append(f"    ld {rd}, {offset}(s0)")
    lines.append("    ecall")
    return "\n".join(lines)


class TestRandomDifferential:
    @given(source=random_program())
    @settings(max_examples=25, deadline=None)
    def test_random_programs_match_golden(self, source):
        from repro.riscv.pgas import build_pgas_source, mesh_top_name
        from repro.hdl import elaborate, parse
        from repro.passes import compile_netlist

        if "pipe" not in _PIPE_CACHE:
            netlist = elaborate(parse(build_pgas_source(1)), mesh_top_name(1))
            library = compile_netlist(netlist)
            _PIPE_CACHE["pipe"] = Pipe(netlist.top, library)
        differential(_PIPE_CACHE["pipe"], source, max_cycles=1500)


_PIPE_CACHE: dict = {}
