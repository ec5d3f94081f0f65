"""LHDL frontend: lexer, preprocessor, parser, elaborator, regions."""

from .. import lazy_exports
from ..analyze.diagnostics import Diagnostic
from . import ast_nodes
from .elaborate import Elaborator, elaborate
from .errors import (
    CodegenError,
    CompileBudgetExceeded,
    ConvergenceError,
    ElaborationError,
    HDLError,
    LexError,
    ParseError,
    PreprocessorError,
    SimulationError,
    WidthError,
)
from .lexer import behavioral_fingerprint, tokenize
from .parser import parse, parse_expr
from .source_regions import SourceRegion, module_regions, split_regions

__getattr__ = lazy_exports(__name__, {".preprocessor": ("preprocess",)})

__all__ = [
    "ast_nodes",
    "Elaborator",
    "elaborate",
    "parse",
    "parse_expr",
    "preprocess",
    "tokenize",
    "behavioral_fingerprint",
    "Diagnostic",
    "SourceRegion",
    "split_regions",
    "module_regions",
    "HDLError",
    "LexError",
    "ParseError",
    "PreprocessorError",
    "ElaborationError",
    "WidthError",
    "CodegenError",
    "SimulationError",
    "ConvergenceError",
    "CompileBudgetExceeded",
]
