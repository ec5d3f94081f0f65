"""Command-line entry point: ``python -m repro``.

Drives a :class:`~repro.live.session.LiveSession` from the shell, using
the paper's Table I command syntax plus a few session-level verbs::

    python -m repro design.v --top top --script session.lsim
    python -m repro design.v --top top            # interactive REPL

Extra verbs beyond Table I:

    reload <path> [, force]
                        re-read the design source and run the live
                        loop; the static-analysis gate refuses a swap
                        introducing a new error-class finding (e.g. a
                        combinational loop) unless ``force`` is given
    verify <pipe>       checkpoint-consistency verification (+repair);
                        blocking — it shadows the interpreter's
                        background ``verify``, which needs testbench
                        factory specs the shell's built-in tb lacks
    regs <pipe>, <path> dump an instance's registers
    outputs <pipe>      print the pipe's current outputs
    lint [pipe]         static analysis findings (repro.analyze)
    quit

plus the interpreter conveniences (``peek``, ``verifyStatus``,
``verifyWait``, …) from :mod:`repro.live.commands`.

With ``--trace-json PATH`` the whole session runs under the
:mod:`repro.obs` tracer and a ``repro.obs/v1`` span/metrics report is
written to PATH on exit (per-phase spans for every live-loop
iteration, compile cache hit/miss counters, checkpoint counters).

Example script::

    instPipe p0, stage2          # stage2 = handle of the top module
    run tb0, p0, 10000
    chkp p0, /tmp/boot.ckpt
    reload design_edited.v
    verify p0
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import obs
from .hdl.errors import HDLError
from .live.commands import CommandError, CommandInterpreter
from .live.session import LiveSession
from .sanitize import SanitizerError
from .sim.testbench import reset_sequence


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="LiveSim reproduction: live HDL simulation shell",
    )
    parser.add_argument("design", help="LHDL source file")
    parser.add_argument("--top", help="top module (defaults to the last "
                                      "module in the file)")
    parser.add_argument("--script", help="command script to execute "
                                         "(otherwise: interactive REPL)")
    parser.add_argument("--checkpoint-interval", type=int, default=10_000)
    parser.add_argument("--reset-cycles", type=int, default=2,
                        help="cycles the built-in tb0 asserts rst "
                             "(0 disables the reset testbench)")
    parser.add_argument("--trace-json", metavar="PATH",
                        help="enable tracing and write the repro.obs/v1 "
                             "span/metrics report to PATH on exit")
    parser.add_argument("--store", metavar="DIR",
                        help="on-disk compile-artifact store: compiled "
                             "modules are persisted here and reused "
                             "across runs (and by the repro.server "
                             "service) instead of recompiling")
    parser.add_argument("--opt", choices=("none", "basic", "full"),
                        default="none",
                        help="optimization level for generated code "
                             "(constant propagation, dead-logic "
                             "elimination; full adds pure-subtree "
                             "skips). Toggle live with the `opt` verb")
    return parser


class Shell:
    """Session + interpreter + the extra session-level verbs."""

    def __init__(self, source: str, top: Optional[str],
                 checkpoint_interval: int, reset_cycles: int,
                 out=None, artifact_store=None, opt: str = "none"):
        # Resolve stdout lazily so output redirection (and pytest's
        # capture) set up after import still takes effect.
        self._out = out if out is not None else sys.stdout
        self.session = LiveSession(
            source, checkpoint_interval=checkpoint_interval,
            artifact_store=artifact_store, opt=opt,
        )
        modules = list(self.session.compiler.design.modules)
        if not modules:
            raise HDLError("design defines no modules")
        self.top = top or modules[-1]
        if self.top not in modules:
            raise HDLError(f"top module {self.top!r} not in design "
                           f"(have {modules})")
        self.interp = CommandInterpreter(self.session)
        if reset_cycles >= 0:
            handle = self.session.load_testbench(
                reset_sequence("rst", cycles=reset_cycles)
                if reset_cycles else reset_sequence("rst", cycles=0)
            )
            self._print(f"testbench {handle}: reset_sequence"
                        f"(cycles={reset_cycles})")
        self._print(
            f"loaded {len(modules)} modules; top = {self.top} "
            f"(handle {self.session.stage_handle_for(self.top)})"
        )

    def _print(self, text: str) -> None:
        print(text, file=self._out)

    # -- extra verbs -----------------------------------------------------------

    def _cmd_reload(self, operands: List[str]) -> None:
        if not 1 <= len(operands) <= 2:
            raise CommandError("usage: reload <path> [, force]")
        override = False
        if len(operands) == 2:
            if operands[1].lower() != "force":
                raise CommandError("usage: reload <path> [, force]")
            override = True
        with open(operands[0]) as fh:
            source = fh.read()
        report = self.session.apply_change(source, override_gate=override)
        if not report.behavioral:
            self._print("no behavioural change (comments/whitespace only)")
            return
        self._print(
            f"recompiled {report.recompiled_keys or 'nothing'}; "
            f"swapped {report.swapped_instances} instances; "
            f"replayed {report.cycles_replayed} cycles "
            f"from checkpoint @ {report.checkpoint_cycle}; "
            f"total {report.total_seconds * 1e3:.1f} ms"
        )
        for diag in report.new_findings:
            self._print(f"  new finding: {diag.severity} {diag}")
        if report.gate_overridden:
            self._print("  gate overridden: blocking findings accepted "
                        "into the baseline")

    def _cmd_verify(self, operands: List[str]) -> None:
        if len(operands) != 1:
            raise CommandError("usage: verify <pipe>")
        report = self.session.verify_consistency(operands[0], repair=True)
        if report.errors:
            self._print(f"verification failed: {report.errors[0]}")
        elif report.divergence_cycle is not None:
            self._print(
                f"divergence from cycle {report.divergence_cycle}; "
                "history repaired"
            )
        else:
            self._print(f"{len(report.segments)} checkpoint deltas "
                        "consistent")
        if report.unverifiable_segments:
            self._print(f"{report.unverifiable_segments} checkpoint deltas "
                        "unverifiable: no recorded history across them")

    def _cmd_regs(self, operands: List[str]) -> None:
        if len(operands) != 2:
            raise CommandError("usage: regs <pipe>, <instance-path>")
        inst = self.session.pipe(operands[0]).find(operands[1])
        for name, value in sorted(inst.registers().items()):
            self._print(f"  {name} = {value:#x}")

    def _cmd_outputs(self, operands: List[str]) -> None:
        if len(operands) != 1:
            raise CommandError("usage: outputs <pipe>")
        pipe = self.session.pipe(operands[0])
        self._print(f"  cycle {pipe.cycle}: {pipe.outputs()}")

    def _cmd_lint(self, operands: List[str]) -> None:
        if len(operands) > 1:
            raise CommandError("usage: lint [pipe]")
        pipe_name = operands[0] if operands else None
        report = self.session.lint(pipe_name)
        if not report.analyzed_keys and not report.reused_keys:
            # No pipes instantiated yet: analyze the top design
            # one-shot (uncached) instead of reporting nothing.
            from .hdl.elaborate import elaborate
            from .hdl.parser import parse

            netlist = elaborate(
                parse(self.session.compiler.source), self.top
            )
            report = self.session.analyzer.analyze_netlist(netlist)
        if not report.diagnostics:
            self._print("lint clean")
        for diag in report.diagnostics:
            self._print(f"  {diag.severity:<7} {diag}")

    EXTRA = {
        "reload": _cmd_reload,
        "verify": _cmd_verify,
        "regs": _cmd_regs,
        "outputs": _cmd_outputs,
        "lint": _cmd_lint,
    }

    # -- dispatch ----------------------------------------------------------------

    def execute(self, line: str) -> bool:
        """Run one line; returns False when the shell should exit."""
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            return True
        if stripped in ("quit", "exit"):
            return False
        verb = stripped.split(None, 1)[0].lower()
        handler = self.EXTRA.get(verb)
        try:
            if handler is not None:
                _, operands = CommandInterpreter.parse(stripped)
                handler(self, operands)
            else:
                result = self.interp.execute(stripped)
                if result.value is not None:
                    self._print(f"  {result.value}")
        except SanitizerError as exc:
            # A trap names the offending module/signal/line; the
            # session itself is still usable (switch to `san report`
            # to keep simulating past the finding).
            self._print(f"sanitizer trap: {exc}")
        except (CommandError, HDLError, OSError) as exc:
            self._print(f"error: {exc}")
        return True

    def run_script(self, text: str) -> None:
        for line in text.splitlines():
            if not self.execute(line):
                return

    def repl(self) -> None:  # pragma: no cover - interactive
        self._print("LiveSim shell — Table I commands plus "
                    "reload/verify/regs/outputs/lint/quit")
        while True:
            try:
                line = input("livesim> ")
            except EOFError:
                return
            if not self.execute(line):
                return


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.trace_json:
        obs.enable()
        obs.reset()
    artifact_store = None
    if args.store:
        from .server.store import ArtifactStore

        artifact_store = ArtifactStore(args.store)
    try:
        with open(args.design) as fh:
            source = fh.read()
        shell = Shell(
            source,
            args.top,
            checkpoint_interval=args.checkpoint_interval,
            reset_cycles=args.reset_cycles,
            artifact_store=artifact_store,
            opt=args.opt,
        )
    except (OSError, HDLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    trace_failed = False
    try:
        if args.script:
            with open(args.script) as fh:
                shell.run_script(fh.read())
        else:  # pragma: no cover - interactive
            shell.repl()
    finally:
        if args.trace_json:
            report = obs.report(meta={
                "tool": "python -m repro",
                "design": args.design,
                "top": shell.top,
                "script": args.script,
            })
            try:
                obs.write_report(args.trace_json, report)
            except OSError as exc:
                print(f"error: cannot write trace: {exc}", file=sys.stderr)
                trace_failed = True
            else:
                print(f"trace written to {args.trace_json}",
                      file=sys.stderr)
    return 1 if trace_failed else 0


if __name__ == "__main__":
    sys.exit(main())
