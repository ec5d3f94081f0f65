"""CLI shell tests (``python -m repro``)."""

import io

import pytest

from repro.__main__ import Shell, main
from tests.conftest import COUNTER_SRC

EDITED = COUNTER_SRC.replace("assign sum = a + b;", "assign sum = a + b + 8'd1;")


@pytest.fixture
def design_file(tmp_path):
    path = tmp_path / "design.v"
    path.write_text(COUNTER_SRC)
    return path


def make_shell(top="top"):
    out = io.StringIO()
    shell = Shell(COUNTER_SRC, top, checkpoint_interval=10, reset_cycles=1,
                  out=out)
    return shell, out


class TestShell:
    def test_boot_banner(self):
        shell, out = make_shell()
        text = out.getvalue()
        assert "top = top" in text
        assert "tb0" in text

    def test_table1_flow(self):
        shell, out = make_shell()
        handle = shell.session.stage_handle_for("top")
        shell.run_script(f"""
instPipe p0, {handle}
run tb0, p0, 25
outputs p0
chkp p0
""")
        text = out.getvalue()
        assert "cycle 25" in text
        assert "'c0': 24" in text  # 1 reset cycle + 24 counting

    def test_regs_verb(self):
        shell, out = make_shell()
        handle = shell.session.stage_handle_for("top")
        shell.run_script(f"instPipe p0, {handle}\nrun tb0, p0, 5\nregs p0, u0")
        assert "count_q = 0x4" in out.getvalue()

    def test_reload_verb(self, tmp_path):
        shell, out = make_shell()
        handle = shell.session.stage_handle_for("top")
        shell.run_script(f"instPipe p0, {handle}\nrun tb0, p0, 30")
        edited = tmp_path / "edited.v"
        edited.write_text(EDITED)
        shell.execute(f"reload {edited}")
        text = out.getvalue()
        assert "recompiled ['adder#(W=8)']" in text
        assert "swapped 2 instances" in text

    def test_verify_verb_after_reload(self, tmp_path):
        shell, out = make_shell()
        handle = shell.session.stage_handle_for("top")
        shell.run_script(f"instPipe p0, {handle}\nrun tb0, p0, 35")
        edited = tmp_path / "edited.v"
        edited.write_text(EDITED)
        shell.execute(f"reload {edited}")
        shell.execute("verify p0")
        assert "divergence from cycle" in out.getvalue()
        shell.execute("verify p0")
        assert "consistent" in out.getvalue()

    def test_lint_verb(self):
        shell, out = make_shell()
        shell.execute("lint")
        assert "lint clean" in out.getvalue()

    def test_lint_verb_after_a_redefining_ldlib(self, tmp_path):
        # Before any instPipe, lint parses the session text from
        # scratch; a spliced redefinition leaves it parseable.
        shell, out = make_shell()
        lib = tmp_path / "adder.v"
        lib.write_text(EDITED[:EDITED.index("module counter")])
        shell.execute(f"ldLib extras, {lib}")
        shell.execute("lint")
        assert "error:" not in out.getvalue()
        assert "lint clean" in out.getvalue()

    def test_errors_reported_not_raised(self):
        shell, out = make_shell()
        shell.execute("run tb0, ghost, 5")
        assert "error:" in out.getvalue()
        shell.execute("teleport p0")
        assert "unknown command" in out.getvalue()

    def test_quit_stops_script(self):
        shell, out = make_shell()
        handle = shell.session.stage_handle_for("top")
        shell.run_script(f"""
instPipe p0, {handle}
quit
run tb0, p0, 100
""")
        assert shell.session.pipe("p0").cycle == 0

    def test_unknown_top_rejected(self):
        from repro.hdl.errors import HDLError

        with pytest.raises(HDLError, match="top module"):
            make_shell(top="nope")


class TestMain:
    def test_main_with_script(self, design_file, tmp_path, capsys):
        script = tmp_path / "session.lsim"
        script.write_text("""
instPipe p0, stage2
run tb0, p0, 12
outputs p0
""")
        rc = main([str(design_file), "--top", "top",
                   "--script", str(script),
                   "--checkpoint-interval", "5",
                   "--reset-cycles", "1"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "cycle 12" in captured

    @pytest.mark.parametrize("interval", ["0", "-5"])
    def test_main_refuses_a_non_positive_checkpoint_interval(
            self, design_file, interval, capsys):
        with pytest.raises(SystemExit) as exited:
            main([str(design_file), "--checkpoint-interval", interval])
        assert exited.value.code == 2
        assert "--checkpoint-interval must be positive" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("opt", ["basic", "turbo"])
    def test_main_refuses_an_unknown_opt_level(self, design_file, opt,
                                               capsys):
        with pytest.raises(SystemExit) as exited:
            main([str(design_file), "--opt", opt])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{opt}'" in err
        assert "'none', 'full'" in err

    def test_server_refuses_a_non_positive_checkpoint_interval(self, capsys):
        from repro.server.__main__ import main as server_main

        with pytest.raises(SystemExit) as exited:
            server_main(["--port", "0", "--checkpoint-interval", "0"])
        assert exited.value.code == 2
        assert "--checkpoint-interval must be positive" in (
            capsys.readouterr().err
        )

    def test_main_missing_file(self, capsys):
        rc = main(["/nope/missing.v", "--script", "/dev/null"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_main_defaults_top_to_last_module(self, design_file, tmp_path,
                                              capsys):
        script = tmp_path / "s.lsim"
        script.write_text("lint\n")
        rc = main([str(design_file), "--script", str(script)])
        assert rc == 0
        assert "lint clean" in capsys.readouterr().out
