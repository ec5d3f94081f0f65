"""LiveParser tests: behavioural-change detection and region mapping."""

from repro.live.parser_live import LiveParser
from tests.conftest import COUNTER_SRC


def analyze(old, new):
    parser = LiveParser(old)
    return parser.analyze(new)


class TestBehavioralDetection:
    def test_identical_source_not_behavioral(self):
        result = analyze(COUNTER_SRC, COUNTER_SRC)
        assert not result.behavioral
        assert result.modules_to_recompile == set()

    def test_comment_edit_not_behavioral(self):
        new = COUNTER_SRC.replace(
            "assign sum = a + b;", "assign sum = a + b; // fixed review nit"
        )
        result = analyze(COUNTER_SRC, new)
        assert not result.behavioral

    def test_whitespace_edit_not_behavioral(self):
        new = COUNTER_SRC.replace(
            "assign sum = a + b;", "assign   sum =\n      a + b;"
        )
        result = analyze(COUNTER_SRC, new)
        assert not result.behavioral

    def test_logic_edit_is_behavioral(self):
        new = COUNTER_SRC.replace("assign sum = a + b;", "assign sum = a - b;")
        result = analyze(COUNTER_SRC, new)
        assert result.behavioral
        assert result.changed_modules == {"adder"}
        assert result.modules_to_recompile == {"adder"}

    def test_only_edited_module_flagged(self):
        new = COUNTER_SRC.replace("count_q <= next;", "count_q <= next + 1;")
        result = analyze(COUNTER_SRC, new)
        assert result.changed_modules == {"counter"}
        assert "adder" not in result.changed_modules

    def test_multiple_edits_flag_multiple_modules(self):
        new = COUNTER_SRC.replace(
            "assign sum = a + b;", "assign sum = a ^ b;"
        ).replace("count_q <= next;", "count_q <= next + 1;")
        result = analyze(COUNTER_SRC, new)
        assert result.changed_modules == {"adder", "counter"}


class TestModuleAddRemove:
    def test_added_module_detected(self):
        new = COUNTER_SRC + "\nmodule extra (input clk); endmodule\n"
        result = analyze(COUNTER_SRC, new)
        assert result.added_modules == {"extra"}
        assert result.behavioral

    def test_removed_module_detected(self):
        old = COUNTER_SRC + "\nmodule extra (input clk); endmodule\n"
        result = analyze(old, COUNTER_SRC)
        assert result.removed_modules == {"extra"}
        assert result.behavioral


class TestDirectivePoisoning:
    BASE = """\
module before_d (input clk); endmodule
`define STEP 3
module after_d (input clk, output [7:0] y);
  reg [7:0] q;
  assign y = q;
  always @(posedge clk) q <= q + `STEP;
endmodule
"""

    def test_directive_value_change_poisons_below(self):
        new = self.BASE.replace("`define STEP 3", "`define STEP 5")
        result = analyze(self.BASE, new)
        assert result.directive_changed
        assert result.poisoned_modules == {"after_d"}
        assert "before_d" not in result.modules_to_recompile

    def test_added_directive_poisons_below(self):
        new = self.BASE.replace(
            "`define STEP 3", "`define STEP 3\n`define EXTRA 1"
        )
        result = analyze(self.BASE, new)
        assert result.directive_changed
        assert "after_d" in result.poisoned_modules

    def test_removed_directive_poisons(self):
        new = self.BASE.replace("`define STEP 3\n", "\n")
        result = analyze(self.BASE, new)
        assert result.directive_changed

    def test_directive_line_reported(self):
        new = self.BASE.replace("`define STEP 3", "`define STEP 7")
        result = analyze(self.BASE, new)
        assert result.directive_line == 2


class TestCommit:
    def test_commit_updates_baseline(self):
        parser = LiveParser(COUNTER_SRC)
        new = COUNTER_SRC.replace("a + b", "a - b")
        result = parser.analyze(new)
        assert result.behavioral
        parser.commit(result)
        assert parser.source == new
        assert not parser.analyze(new).behavioral

    def test_analyze_without_commit_keeps_baseline(self):
        parser = LiveParser(COUNTER_SRC)
        new = COUNTER_SRC.replace("a + b", "a - b")
        parser.analyze(new)
        # Same edit still reports as a change against the old baseline.
        assert parser.analyze(new).behavioral

    def test_fingerprints_survive_commit_fast_path(self):
        parser = LiveParser(COUNTER_SRC)
        fp = parser.fingerprint("adder")
        parser.commit(parser.analyze(COUNTER_SRC + "\n// trailing comment\n"))
        assert parser.fingerprint("adder") == fp

    def test_parse_seconds_recorded(self):
        parser = LiveParser(COUNTER_SRC)
        result = parser.analyze(COUNTER_SRC.replace("a + b", "a - b"))
        assert result.parse_seconds > 0
