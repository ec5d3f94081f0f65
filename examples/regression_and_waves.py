#!/usr/bin/env python3
"""Regression batches, waveform probes, and the Table I command syntax.

Covers three more of the paper's §III-A use cases on one session:

* a regression system that re-checks invariants from arbitrary states
  (not just reset) after every design change;
* the "insert printfs and replay" flow: a time-travel replay window,
  live probes (named and computed) and VCD export;
* driving the simulator with the paper's literal command strings.

Run:  python examples/regression_and_waves.py
"""

import tempfile

from repro.live.commands import CommandInterpreter
from repro.live.regression import RegressionSuite
from repro.live.session import LiveSession
from repro.sim.testbench import reset_sequence
from repro.trace import TraceProbe

DESIGN = """
module lfsr #(parameter W = 16) (
  input clk,
  input rst,
  output [W-1:0] value
);
  reg [W-1:0] state;
  wire feedback;
  assign feedback = state[15] ^ state[13] ^ state[12] ^ state[10];
  assign value = state;
  always @(posedge clk) begin
    if (rst)
      state <= 16'hACE1;
    else
      state <= {state[14:0], feedback};
  end
endmodule

module top (
  input clk,
  input rst,
  output [15:0] a,
  output [15:0] b
);
  lfsr u_a (.clk(clk), .rst(rst), .value(a));
  lfsr u_b (.clk(clk), .rst(rst), .value(b));
endmodule
"""

# A (deliberate) experiment: change u_b's taps and see what regresses.
VARIANT = DESIGN.replace(
    "assign feedback = state[15] ^ state[13] ^ state[12] ^ state[10];",
    "assign feedback = state[15] ^ state[14];",
)


def main() -> None:
    session = LiveSession(DESIGN, checkpoint_interval=64)
    session.inst_pipe("p0", session.stage_handle_for("top"))
    # Reset for the first 2 absolute cycles, then run free —
    # replay-safe stimulus (a pure function of the cycle number).
    tb_handle = session.load_testbench(reset_sequence("rst", cycles=2))
    pipe = session.pipe("p0")

    # --- drive with the paper's command syntax --------------------------
    interp = CommandInterpreter(session)
    interp.script(f"""
run {tb_handle}, p0, 512     # boot (2 reset cycles) + 510 free-running
chkp p0                      # manual checkpoint on top of the periodic ones
""")
    print(f"after {pipe.cycle} cycles: a={pipe.outputs()['a']:#06x}")
    assert pipe.outputs()['a'] != 0

    # --- regression batch ------------------------------------------------
    suite = RegressionSuite(session, "p0")
    tb = reset_sequence("rst", cycles=2)
    suite.add(
        "lockstep", tb, cycles=100,
        check=lambda p: p.outputs()["a"] == p.outputs()["b"],
        start=256,
        description="both LFSRs stay in lockstep from the cycle-256 state",
    )
    suite.add(
        "nonzero", tb, cycles=50,
        check=lambda p: p.outputs()["a"] != 0,
        start=128,
        description="a maximal LFSR never hits the all-zero lockup state",
    )
    print("\n" + suite.run().summary())

    # --- hot change + re-run the batch -----------------------------------
    print("\napplying the tap-change experiment to u_b's module...")
    report = session.apply_change(VARIANT)
    print(f"  recompiled {report.recompiled_keys} in "
          f"{report.total_seconds * 1e3:.1f} ms")
    print(suite.run().summary())
    print("  -> 'lockstep' still passes: both instances share the one "
          "patched module (Fig. 4d in action).")

    # --- waveforms: replay the window of interest with probes in place ----
    # The probe goes in after the fact; replay_window re-simulates the
    # window on a scratch pipe from the nearest checkpoint, so the live
    # pipe stays where it is.
    window = session.replay_window("p0", 300, 332, ["u_a.state"])
    samples = window["signals"]["u_a.state"]
    print(f"\nreplayed {len(samples)} samples from cycle {samples[0][0]} "
          f"(base checkpoint @ {window['base_cycle']}); first values: "
          f"{[hex(v) for _c, v in samples[:4]]}")

    # A computed probe (the 'printf') rides along on the live pipe.
    session.watch("p0", "u_a.state")
    session.trace_buffer("p0").add_probe(TraceProbe(
        "parity", 1, lambda p: bin(p.outputs()["a"]).count("1") & 1
    ))
    interp.execute(f"run {tb_handle}, p0, 32")
    with tempfile.NamedTemporaryFile(suffix=".vcd", delete=False) as fh:
        session.trace_buffer("p0").to_vcd(fh.name)
        print(f"VCD written to {fh.name} (open in any waveform viewer)")

if __name__ == "__main__":
    main()
