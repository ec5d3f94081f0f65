"""Command-string interface to a LiveSession (paper Table I syntax).

Users "interact with the system both by manipulating the source code
... and by sending commands to the simulator" (§III-B).  This module
accepts the paper's command syntax verbatim::

    ldLib name, path
    instPipe name, pipe-handle
    instStage pipe-name, stage-name, stage-handle
    copyPipe new-name, old-name
    run tb-handle, pipe-name, cycles
    chkp pipe-name [, path]
    ldch pipe-name, path
    swapStage pipe-name, stage-name

plus session conveniences beyond Table I::

    peek pipe-name              current outputs, no cycles advanced
    lint [pipe-name]            static analysis findings (repro.analyze)
    san [off|report|trap]       toggle the runtime sanitizer / show
                                mode + per-check hit counters
    opt [none|full]             switch the optimization level (a hot
                                recompile + swap, state preserved) /
                                show level + pass order
    verify pipe-name [, workers]   start a background verification
    verifyStatus pipe-name      progress / verdict of the latest verify
    verifyWait pipe-name        block until the verify report lands
    watch pipe-name, signal     capture the signal every cycle (live)
    unwatch pipe-name, signal   stop capturing; drop its history
    trace pipe-name [, signal [, start [, end]]]
                                read captured samples (or the probe
                                inventory without a signal)
    replay pipe-name, start, end [, signal...]
                                time-travel: re-simulate the window on
                                a scratch pipe and return the samples

Comments start with ``#``; blank lines are ignored; ``script`` runs a
multi-line batch and returns each command's result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..hdl.errors import SimulationError
from ..sanitize import SanitizerError
from .session import LiveSession


class CommandError(ValueError):
    """Malformed or unknown simulator command."""


@dataclass
class CommandResult:
    """One executed command line: its verb and what it returned (a
    dataclass: one is built per command, and a dataclass builds faster
    than a NamedTuple)."""

    command: str
    value: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CommandResult {self.command}: {self.value!r}>"


class CommandInterpreter:
    """Parses and dispatches Table I command lines onto a session."""

    def __init__(self, session: LiveSession,
                 read_file: Optional[Callable[[str], str]] = None):
        self._session = session
        self._read_file = read_file or _read_text_file
        # (lib name, source text) merged by the most recent ldLib.
        # Persistence layers (the session journal) must read this
        # instead of re-opening the path: the file can change or vanish
        # between the load and the journal write.
        self.last_ld_lib: Optional[Tuple[str, str]] = None
        self._handlers: Dict[str, Callable[[List[str]], Any]] = {
            "ldlib": self._ld_lib,
            "instpipe": self._inst_pipe,
            "inststage": self._inst_stage,
            "copypipe": self._copy_pipe,
            "run": self._run,
            "chkp": self._chkp,
            "ldch": self._ldch,
            "swapstage": self._swap_stage,
            "peek": self._peek,
            "lint": self._lint,
            "san": self._san,
            "opt": self._opt,
            "verify": self._verify,
            "verifystatus": self._verify_status,
            "verifywait": self._verify_wait,
            "watch": self._watch,
            "unwatch": self._unwatch,
            "trace": self._trace,
            "replay": self._replay,
        }

    # -- parsing -----------------------------------------------------------

    @staticmethod
    def parse(line: str) -> Tuple[str, List[str]]:
        text = line.split("#", 1)[0].strip()
        if not text:
            raise CommandError("empty command")
        parts = text.split(None, 1)
        verb = parts[0]
        operands = (
            [op.strip() for op in parts[1].split(",")] if len(parts) > 1 else []
        )
        if any(not op for op in operands):
            raise CommandError(f"empty operand in {line!r}")
        return verb, operands

    def execute(self, line: str) -> CommandResult:
        verb, operands = self.parse(line)
        handler = self._handlers.get(verb.lower())
        if handler is None:
            raise CommandError(
                f"unknown command {verb!r}; expected one of "
                f"{sorted(self._handlers)}"
            )
        try:
            value = handler(operands)
        except SanitizerError:
            # A sanitizer trap is a *finding about the design*, not a
            # malformed command: let it propagate with its module,
            # signal, and line intact (the shell and server give it a
            # dedicated error taxonomy).
            raise
        except SimulationError as exc:
            raise CommandError(f"{verb}: {exc}") from exc
        return CommandResult(command=verb, value=value)

    def script(self, text: str) -> List[CommandResult]:
        results = []
        for line in text.splitlines():
            stripped = line.split("#", 1)[0].strip()
            if stripped:
                results.append(self.execute(stripped))
        return results

    # -- handlers ----------------------------------------------------------

    @staticmethod
    def _need(operands: List[str], low: int, high: int, usage: str) -> None:
        if not low <= len(operands) <= high:
            raise CommandError(f"usage: {usage}")

    def _ld_lib(self, operands: List[str]) -> List[str]:
        self._need(operands, 2, 2, "ldLib name, path")
        name, path = operands
        try:
            source = self._read_file(path)
        except OSError as exc:
            # A bad path is a user typo, not a session failure: surface
            # it as a CommandError so callers (the shell, the server)
            # report it on the same channel as every other bad command.
            raise CommandError(f"ldLib: cannot read {path!r}: {exc}") from exc
        handles = self._session.ld_lib(name, source)
        self.last_ld_lib = (name, source)
        return handles

    def _inst_pipe(self, operands: List[str]):
        self._need(operands, 2, 2, "instPipe name, pipe-handle")
        name, handle = operands
        return self._session.inst_pipe(name, handle)

    def _inst_stage(self, operands: List[str]) -> None:
        self._need(operands, 3, 3,
                   "instStage pipe-name, stage-name, stage-handle")
        pipe_name, stage_name, handle = operands
        self._session.inst_stage(pipe_name, stage_name, handle)

    def _copy_pipe(self, operands: List[str]):
        self._need(operands, 2, 2, "copyPipe new-name, old-name")
        new_name, old_name = operands
        return self._session.copy_pipe(new_name, old_name)

    def _run(self, operands: List[str]) -> Dict[str, int]:
        self._need(operands, 3, 3, "run tb-handle, pipe-name, cycles")
        tb_handle, pipe_name, cycles_text = operands
        try:
            cycles = int(cycles_text, 0)
        except ValueError:
            raise CommandError("cycles must be an integer, got "
                               f"{cycles_text!r}") from None
        if cycles < 0:
            raise CommandError("cycles must be non-negative")
        return self._session.run(tb_handle, pipe_name, cycles)

    def _chkp(self, operands: List[str]):
        self._need(operands, 1, 2, "chkp pipe-name [, path]")
        pipe_name = operands[0]
        path = operands[1] if len(operands) > 1 else None
        return self._session.chkp(pipe_name, path)

    def _ldch(self, operands: List[str]) -> None:
        self._need(operands, 2, 2, "ldch pipe-name, path")
        pipe_name, path = operands
        self._session.ldch(pipe_name, path)

    def _swap_stage(self, operands: List[str]):
        self._need(operands, 2, 3,
                   "swapStage pipe-name, stage-name [, stage-handle]")
        pipe_name, stage_name = operands[0], operands[1]
        # The optional stage-handle from the paper names the replacement
        # object; in this implementation the replacement is always the
        # latest compile of the same module, so it is accepted and
        # validated but carries no extra information.
        if len(operands) == 3:
            self._session.objects.get(operands[2])
        return self._session.swap_stage(pipe_name, stage_name)

    def _peek(self, operands: List[str]) -> Dict[str, int]:
        self._need(operands, 1, 1, "peek pipe-name")
        return self._session.peek(operands[0])

    def _lint(self, operands: List[str]):
        self._need(operands, 0, 1, "lint [pipe-name]")
        pipe_name = operands[0] if operands else None
        return self._session.lint(pipe_name)

    def _san(self, operands: List[str]):
        self._need(operands, 0, 1, "san [off|report|trap]")
        if not operands:
            return self._session.sanitize_status()
        return self._session.set_sanitize(operands[0].lower())

    def _opt(self, operands: List[str]):
        self._need(operands, 0, 1, "opt [none|full]")
        if not operands:
            return self._session.opt_status()
        return self._session.set_opt(operands[0].lower())

    def _verify(self, operands: List[str]):
        self._need(operands, 1, 2, "verify pipe-name [, workers]")
        pipe_name = operands[0]
        workers = 2
        if len(operands) == 2:
            try:
                workers = int(operands[1], 0)
            except ValueError:
                raise CommandError("workers must be an integer, got "
                                   f"{operands[1]!r}") from None
            if workers < 1:
                raise CommandError("workers must be positive")
        self._session.verify_background(pipe_name, workers=workers)
        return self._session.verify_status(pipe_name)

    def _verify_status(self, operands: List[str]):
        self._need(operands, 1, 1, "verifyStatus pipe-name")
        return self._session.verify_status(operands[0])

    def _verify_wait(self, operands: List[str]):
        self._need(operands, 1, 1, "verifyWait pipe-name")
        return self._session.wait_for_verify(operands[0])

    @staticmethod
    def _cycle(text: str, what: str) -> int:
        try:
            value = int(text, 0)
        except ValueError:
            raise CommandError(
                f"{what} must be an integer, got {text!r}"
            ) from None
        if value < 0:
            raise CommandError(f"{what} must be non-negative")
        return value

    def _watch(self, operands: List[str]):
        self._need(operands, 2, 2, "watch pipe-name, signal")
        return self._session.watch(operands[0], operands[1])

    def _unwatch(self, operands: List[str]):
        self._need(operands, 2, 2, "unwatch pipe-name, signal")
        return self._session.unwatch(operands[0], operands[1])

    def _trace(self, operands: List[str]):
        self._need(operands, 1, 4,
                   "trace pipe-name [, signal [, start [, end]]]")
        pipe_name = operands[0]
        if len(operands) == 1:
            return self._session.trace_status(pipe_name)
        signal = operands[1]
        start = (
            self._cycle(operands[2], "start") if len(operands) > 2 else None
        )
        end = (
            self._cycle(operands[3], "end") if len(operands) > 3 else None
        )
        return self._session.trace_read(pipe_name, signal, start, end)

    def _replay(self, operands: List[str]):
        self._need(operands, 3, 32,
                   "replay pipe-name, start, end [, signal...]")
        pipe_name = operands[0]
        start = self._cycle(operands[1], "start")
        end = self._cycle(operands[2], "end")
        signals = operands[3:] or None
        return self._session.replay_window(pipe_name, start, end, signals)


def _read_text_file(path: str) -> str:
    with open(path, "r") as fh:
        return fh.read()
