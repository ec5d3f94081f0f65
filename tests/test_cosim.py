"""Lockstep cosim tests: agreement on good designs, precise divergence
localization on buggy ones."""

import pytest

from repro.hdl import elaborate, parse
from repro.passes import compile_netlist
from repro.riscv import assemble, build_pgas_source
from repro.riscv.cosim import Cosim, cosim_program
from repro.riscv.patches import get_patch
from repro.riscv.programs import fibonacci, gcd
from repro.sim import Pipe

PROGRAM = """
    li   t0, 100
    addi t0, t0, -1
    addi t1, t0, 5
    add  t2, t0, t1
    sd   t2, 0x200(zero)
    ecall
"""


def buggy_pipe(patch_name):
    source = get_patch(patch_name).inject(build_pgas_source(1))
    netlist = elaborate(parse(source), "pgas_mesh_1x1")
    return Pipe(netlist.top, compile_netlist(netlist))


class TestLockstepAgreement:
    def test_straightline_program_matches(self, pgas1_pipe):
        result = cosim_program(pgas1_pipe, assemble(PROGRAM))
        assert result.matched
        assert result.halted
        assert result.retired == 6  # li + 3 alu + sd + ecall

    def test_fibonacci_matches(self, pgas1_pipe):
        result = cosim_program(pgas1_pipe, assemble(fibonacci(12)))
        assert result.matched and result.halted

    def test_gcd_matches(self, pgas1_pipe):
        result = cosim_program(pgas1_pipe, assemble(gcd(48, 18)),
                               max_cycles=20_000)
        assert result.matched and result.halted

    def test_retire_counts_agree(self, pgas1_pipe):
        cosim = Cosim(pgas1_pipe)
        cosim.load_program(assemble(PROGRAM))
        result = cosim.run()
        assert result.retired == cosim.golden.instret


class TestDivergenceLocalization:
    def test_imm_sign_bug_localized_to_the_addi(self):
        pipe = buggy_pipe("id-imm-sign")
        result = cosim_program(pipe, assemble(PROGRAM), max_cycles=2_000)
        assert not result.matched
        div = result.divergence
        # The first wrong value lands exactly at the addi t0, t0, -1
        # (retire #2: li is one instruction) in register x5 (t0).
        assert div.retire_index == 2
        assert div.register == "x5"
        assert div.golden_value == 99
        assert div.rtl_value == (100 + 0xFFF) & ((1 << 64) - 1)

    def test_sltu_bug_localized(self):
        pipe = buggy_pipe("ex-sltu-signed")
        program = assemble("""
    li   t0, -1
    li   t1, 1
    sltu t2, t1, t0
    sd   t2, 0x200(zero)
    ecall
""")
        result = cosim_program(pipe, program, max_cycles=2_000)
        assert not result.matched
        assert result.divergence.register == "x7"  # t2
        assert result.divergence.golden_value == 1
        assert result.divergence.rtl_value == 0

    def test_divergence_report_renders(self):
        pipe = buggy_pipe("id-imm-sign")
        result = cosim_program(pipe, assemble(PROGRAM), max_cycles=2_000)
        text = str(result.divergence)
        assert "retire #2" in text
        assert "x5" in text

    def test_continue_past_divergence(self):
        pipe = buggy_pipe("id-imm-sign")
        cosim = Cosim(pipe)
        cosim.load_program(assemble(PROGRAM))
        result = cosim.run(max_cycles=2_000, stop_on_divergence=False)
        assert result.halted
        assert not result.matched  # first divergence still recorded
        assert result.divergence.retire_index == 2


class TestRandomLockstep:
    from hypothesis import given, settings

    from tests.test_rtl_core import random_program

    @given(source=random_program())
    @settings(max_examples=15, deadline=None)
    def test_random_programs_lockstep(self, source):
        """Stronger than end-state differential: every retire compared."""
        from repro.hdl import elaborate as _el, parse as _pa
        from repro.passes import compile_netlist as _cn

        if "pipe" not in _LOCKSTEP_CACHE:
            netlist = _el(_pa(build_pgas_source(1)), "pgas_mesh_1x1")
            _LOCKSTEP_CACHE["pipe"] = Pipe(netlist.top, _cn(netlist))
        result = cosim_program(
            _LOCKSTEP_CACHE["pipe"], assemble(source), max_cycles=2_000
        )
        assert result.matched, str(result.divergence)
        assert result.halted


_LOCKSTEP_CACHE: dict = {}


class TestCosimGuards:
    def test_nonhalting_program_raises(self, pgas1_pipe):
        from repro.hdl.errors import SimulationError

        program = assemble("spin:\n  j spin")
        with pytest.raises(SimulationError, match="cycle bound"):
            cosim_program(pgas1_pipe, program, max_cycles=200)
