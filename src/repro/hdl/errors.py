"""Exception hierarchy for the HDL frontend and downstream compilers."""

from __future__ import annotations

from typing import Optional


class HDLError(Exception):
    """Base class for all errors raised by the LHDL toolchain.

    ``line`` counts in the coordinates of the parse the error came from.
    An error raised while elaborating or compiling one module says so
    (:meth:`place`), and LiveCompiler moves it to where that module is
    in the file now (:meth:`move`), as the analyzer moves a finding.
    """

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.detail = message
        self.line = line
        self.col = col
        # The module the error was raised in, and the line its header
        # had in the parse ``line`` counts from.
        self.module: Optional[str] = None
        self.header = 0
        super().__init__(self._text())

    def _text(self) -> str:
        if self.line:
            return f"line {self.line}:{self.col}: {self.detail}"
        return self.detail

    def place(self, module: str, header: int) -> None:
        """Raised in ``module``, whose header was at line ``header``;
        the innermost module to say so is the one."""
        if self.module is None:
            self.module, self.header = module, header

    def move(self, lines: int) -> None:
        """Put the error ``lines`` further down the file, its module's
        header with it (so a second move to the same header is none)."""
        self.header += lines
        if lines and self.line:
            self.line += lines
            self.args = (self._text(),)


class LexError(HDLError):
    """Invalid character sequence in the source text."""


class ParseError(HDLError):
    """The token stream does not match the LHDL grammar."""


class PreprocessorError(HDLError):
    """Malformed or unbalanced preprocessor directives."""


class ElaborationError(HDLError):
    """Hierarchy or parameter resolution failure."""


class WidthError(ElaborationError):
    """Width inference failed or widths are inconsistent."""


class CodegenError(HDLError):
    """The code generator met an unsupported construct."""


class SimulationError(Exception):
    """Runtime failure inside the simulation kernel."""


class ConvergenceError(SimulationError):
    """Combinational logic failed to settle (probable comb loop)."""


class CompileBudgetExceeded(Exception):
    """A compiler gave up because its wall-clock budget ran out.

    Mirrors the paper's 24-hour Verilator timeout for the 16x16 PGAS.
    """

    def __init__(self, message: str, elapsed: float, budget: float):
        super().__init__(message)
        self.elapsed = elapsed
        self.budget = budget
