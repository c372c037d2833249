"""Trace-driven simulation: traces, system builder, simulator, results."""

from .results import SimulationResult
from .simulator import Simulator, run_trace
from .system import build_system
from .trace import PackedTrace, Trace

__all__ = [
    "PackedTrace",
    "SimulationResult",
    "Simulator",
    "Trace",
    "build_system",
    "run_trace",
]
