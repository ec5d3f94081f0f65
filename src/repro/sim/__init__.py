"""Simulation kernel: instances, pipelines, testbenches."""

from .pipeline import Pipe
from .stage import StageInst, StateSnapshot
from .testbench import CallbackTestbench, Testbench, VectorTestbench

__all__ = [
    "StageInst",
    "StateSnapshot",
    "Pipe",
    "Testbench",
    "CallbackTestbench",
    "VectorTestbench",
]
