"""Multi-pipe sessions and cache lifecycle across many edits."""

from repro.codegen.build import CACHE_GENERATIONS
from repro.live.session import LiveSession
from repro.sim.testbench import hold_inputs
from tests.conftest import COUNTER_SRC

TWO_TOPS = COUNTER_SRC + """
module alt_top (
  input clk,
  input rst,
  output [7:0] fast
);
  counter #(.W(8)) u_fast (.clk(clk), .rst(rst), .step(8'd5), .count(fast));
endmodule
"""


class TestMultiPipeSessions:
    def _session(self):
        session = LiveSession(TWO_TOPS, checkpoint_interval=10)
        session.inst_pipe("main", session.stage_handle_for("top"))
        session.inst_pipe("alt", session.stage_handle_for("alt_top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        return session, tb

    def test_pipes_share_compiled_children(self):
        session, _ = self._session()
        main_counter = session.pipe("main").find("u0").code
        alt_counter = session.pipe("alt").find("u_fast").code
        assert main_counter is alt_counter  # one compile, two tops

    def test_run_is_per_pipe(self):
        session, tb = self._session()
        session.run(tb, "main", 10)
        session.run(tb, "alt", 4)
        assert session.pipe("main").outputs()["c0"] == 10
        assert session.pipe("alt").outputs()["fast"] == 20
        assert session.pipe("main").cycle == 10
        assert session.pipe("alt").cycle == 4

    def test_apply_change_updates_every_pipe(self):
        session, tb = self._session()
        session.run(tb, "main", 20)
        session.run(tb, "alt", 20)
        edited = TWO_TOPS.replace("assign sum = a + b;",
                                  "assign sum = a + b + 8'd1;")
        report = session.apply_change(edited)
        assert set(report.pipes_updated) == {"main", "alt"}
        # Shared module compiled once even though two pipes swap it.
        assert report.recompiled_keys.count("adder#(W=8)") == 1
        session.run(tb, "main", 1)
        session.run(tb, "alt", 1)
        # The fast estimate replays from the cycle-10 checkpoint with
        # the new logic: main = 10 + 2*10, alt = 50 + 6*10; one more
        # cycle adds +2 / +6.
        assert session.pipe("main").outputs()["c0"] == 10 + 2 * 10 + 2
        assert session.pipe("alt").outputs()["fast"] == 50 + 6 * 10 + 6

    def test_per_pipe_checkpoint_stores(self):
        session, tb = self._session()
        session.run(tb, "main", 30)
        session.run(tb, "alt", 12)
        assert session.store("main").cycles() == [10, 20, 30]
        assert session.store("alt").cycles() == [10]

    def test_verify_each_pipe_independently(self):
        session, tb = self._session()
        session.run(tb, "main", 25)
        session.run(tb, "alt", 25)
        edited = TWO_TOPS.replace("assign sum = a + b;",
                                  "assign sum = a - b;")
        session.apply_change(edited)
        assert not session.verify_consistency("main").all_consistent
        assert not session.verify_consistency("alt").all_consistent
        session.verify_consistency("main", repair=True)
        assert session.verify_consistency("main").all_consistent
        # alt's history is untouched by main's repair.
        assert not session.verify_consistency("alt").all_consistent


class TestEditChurn:
    def test_many_edits_stay_fast_and_correct(self):
        """A long edit session: the compile cache grows, eviction trims
        it, and every intermediate design still behaves."""
        session = LiveSession(COUNTER_SRC, checkpoint_interval=25)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        session.run(tb, "p0", 25)

        variants = ["a ^ b", "a | b", "a & b", "a + b + 8'd2", "a + b"]
        for expr in variants:
            edited = COUNTER_SRC.replace("assign sum = a + b;",
                                         f"assign sum = {expr};")
            report = session.apply_change(edited)
            assert report.behavioral
            assert len(report.recompiled_keys) <= 1

        # Final design is back to the original adder.
        session.run(tb, "p0", 5)
        assert session.pipe("p0").outputs()["c0"] == 30

        # Six adder generations passed through a bounded cache; the
        # session still compiles (from cache or fresh) and runs.
        assert session.compiler.cache_size() == 2 + CACHE_GENERATIONS
        report = session.apply_change(
            COUNTER_SRC.replace("assign sum = a + b;",
                                "assign sum = a + b + 8'd0;")
        )
        assert report.behavioral
        session.run(tb, "p0", 5)
        assert session.pipe("p0").outputs()["c0"] == 35

    def test_version_history_tracks_every_edit(self):
        session = LiveSession(COUNTER_SRC)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        for i in range(3):
            edited = COUNTER_SRC.replace(
                "assign sum = a + b;", f"assign sum = a + b + 8'd{i + 1};"
            )
            session.apply_change(edited)
        assert len(session.history.versions()) == 4  # root + 3 edits
        chain = []
        version = session.version
        while version is not None:
            chain.append(version)
            version = session.history.parent_of(version)
        assert len(chain) == 4
