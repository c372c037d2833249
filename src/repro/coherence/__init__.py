"""MESI directory coherence protocol engine."""

from ..common.mesi import LlcState, MesiState, can_read, can_write
from .invariants import (
    check_data_values,
    check_directory_inclusion,
    check_entries_llc_resident,
    check_llc_inclusion,
    check_swmr,
)
from .l1_controller import L1Controller
from .llc_controller import HomeController
from .protocol import CoherentSystem

__all__ = [
    "CoherentSystem",
    "HomeController",
    "L1Controller",
    "LlcState",
    "MesiState",
    "can_read",
    "can_write",
    "check_data_values",
    "check_directory_inclusion",
    "check_entries_llc_resident",
    "check_llc_inclusion",
    "check_swmr",
]
