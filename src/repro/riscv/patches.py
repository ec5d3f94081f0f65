"""Curated bug/fix patch library for the hot-reload benchmarks.

The paper (§IV): "We looked for code changes in the core GitHub
repository to replicate changes actually made in the core and apply
them to the code."  In the same spirit, each patch here is a realistic
single-stage pipeline bug of the kind that appears in RISC-V core
histories (forwarding priority, immediate sign extension, branch target
arithmetic, load extension, x0 writability, ...).

Every patch is an exact-source rewrite pair, so the Fig. 8 bench can
*inject* a bug into the known-good RTL, run, then *fix* it through the
live session and measure the edit-run-debug latency.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class Patch(NamedTuple):
    """One injectable/fixable bug."""

    name: str
    module: str  # the (single) module the change touches
    good: str  # correct source excerpt
    bad: str  # buggy variant
    description: str

    def inject(self, source: str) -> str:
        if self.good not in source:
            raise ValueError(
                f"patch {self.name!r}: good snippet not found in source"
            )
        return source.replace(self.good, self.bad, 1)

    def fix(self, source: str) -> str:
        if self.bad not in source:
            raise ValueError(
                f"patch {self.name!r}: bad snippet not found in source"
            )
        return source.replace(self.bad, self.good, 1)

    def is_injected(self, source: str) -> bool:
        return self.bad in source


PATCHES: Dict[str, Patch] = {}


def _register(patch: Patch) -> None:
    if patch.name in PATCHES:
        raise ValueError(f"duplicate patch {patch.name!r}")
    if patch.good == patch.bad:
        raise ValueError(f"patch {patch.name!r} is a no-op")
    PATCHES[patch.name] = patch


_register(Patch(
    name="ex-forward-priority",
    module="rv_ex",
    good=(
        "  assign op_a = (e_rs1 == 5'd0) ? 64'd0\n"
        "              : fwd_a_mem ? x_alu\n"
        "              : fwd_a_wb ? wb_data\n"
        "              : e_rs1_val;"
    ),
    bad=(
        "  assign op_a = (e_rs1 == 5'd0) ? 64'd0\n"
        "              : fwd_a_wb ? wb_data\n"
        "              : fwd_a_mem ? x_alu\n"
        "              : e_rs1_val;"
    ),
    description=(
        "Operand-A forwarding checks the WB bus before EX/MEM, so a "
        "back-to-back writer pair forwards the older value."
    ),
))

_register(Patch(
    name="id-imm-sign",
    module="rv_id",
    good="  assign imm_i = {{52{ifid_instr[31]}}, ifid_instr[31:20]};",
    bad="  assign imm_i = {{52{1'b0}}, ifid_instr[31:20]};",
    description="I-format immediates zero-extend instead of sign-extend.",
))

_register(Patch(
    name="ex-branch-target",
    module="rv_ex",
    good="  assign redirect_pc = e_jalr ? ((op_a + e_imm) & ~64'd1) : (e_pc + e_imm);",
    bad=(
        "  assign redirect_pc = e_jalr ? ((op_a + e_imm) & ~64'd1)"
        " : (e_pc + 64'd4 + e_imm);"
    ),
    description="Branch/JAL targets are computed from pc+4 instead of pc.",
))

_register(Patch(
    name="mem-load-sign",
    module="rv_mem",
    good="  assign sw = m_mem_unsigned ? 1'b0 : raw[31];",
    bad="  assign sw = 1'b0;",
    description="LW zero-extends: 32-bit loads lose their sign.",
))

_register(Patch(
    name="if-redirect-priority",
    module="rv_if",
    good=(
        "    if (rst)\n"
        "      pc_q <= 64'd0;\n"
        "    else if (redirect_valid)\n"
        "      pc_q <= redirect_pc;\n"
        "    else if (!stall)\n"
        "      pc_q <= pc_q + 64'd4;"
    ),
    bad=(
        "    if (rst)\n"
        "      pc_q <= 64'd0;\n"
        "    else if (!stall)\n"
        "      pc_q <= redirect_valid ? redirect_pc : (pc_q + 64'd4);"
    ),
    description=(
        "Redirects are swallowed while the front-end is stalled, so a "
        "taken branch coinciding with a load-use stall is lost."
    ),
))

_register(Patch(
    name="id-wb-bypass-missing",
    module="rv_id",
    good=(
        "  assign rs1_val = (rs1 == 5'd0) ? 64'd0\n"
        "                 : (wb_we && (wb_rd == rs1)) ? wb_data\n"
        "                 : rf_rs1;"
    ),
    bad=(
        "  assign rs1_val = (rs1 == 5'd0) ? 64'd0\n"
        "                 : rf_rs1;"
    ),
    description=(
        "The regfile read-during-write bypass is dropped: a consumer in "
        "decode while its producer retires reads the stale value "
        "(distance-3 dependency)."
    ),
))

_register(Patch(
    name="ex-sltu-signed",
    module="rv_ex",
    good="      4'd4: alu_full = (alu_a < alu_b) ? 64'd1 : 64'd0;",
    bad=(
        "      4'd4: alu_full = ($signed(alu_a) < $signed(alu_b))"
        " ? 64'd1 : 64'd0;"
    ),
    description="SLTU/SLTIU compare signed, breaking unsigned idioms.",
))

_register(Patch(
    name="node-remote-decode",
    module="pgas_node",
    good="  assign is_remote = addr_global && (dest_field != node_id[8:0]);",
    bad="  assign is_remote = addr_global;",
    description=(
        "The node forwards global addresses targeting *itself* to the "
        "network instead of serving them locally."
    ),
))

_register(Patch(
    name="wb-retire-count",
    module="rv_wb",
    good=(
        "      if (in_valid)\n"
        "        retired_q <= retired_q + 64'd1;"
    ),
    bad=(
        "      retired_q <= retired_q + 64'd1;"
    ),
    description="The retired-instruction counter counts bubbles too.",
))


def get_patch(name: str) -> Patch:
    patch = PATCHES.get(name)
    if patch is None:
        raise KeyError(f"unknown patch {name!r}; have {sorted(PATCHES)}")
    return patch


def single_stage_patches() -> List[Patch]:
    """Patches touching exactly one pipeline-stage module (the Fig. 8
    population — 'All these bugs affected a single pipeline stage')."""
    stages = {"rv_if", "rv_id", "rv_ex", "rv_mem", "rv_wb"}
    return [p for p in PATCHES.values() if p.module in stages]
