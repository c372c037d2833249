"""Trace-driven simulation: traces, system builder, simulator, results."""

from .results import SimulationResult
from .simulator import Simulator, run_trace
from .system import build_system
from .trace import PackedTrace

__all__ = [
    "PackedTrace",
    "SimulationResult",
    "Simulator",
    "build_system",
    "run_trace",
]
