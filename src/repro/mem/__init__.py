"""Main-memory models: flat latency (default) and banked open-page DRAM."""

from __future__ import annotations

from typing import Union

from ..common.config import MemoryModel, SystemConfig
from ..common.stats import StatGroup
from .dram import DramBank, DramModel
from .main_memory import MainMemory

#: Either memory model (same read/write interface).
Memory = Union[MainMemory, "DramAdapter"]


class DramAdapter:
    """Adapts :class:`DramModel` to the MainMemory read/write interface."""

    def __init__(self, dram: DramModel) -> None:
        self.dram = dram

    def read(self, block_addr: int = 0, now: int = 0) -> int:
        """Fetch one block through the DRAM model."""
        return self.dram.access(block_addr, now, is_write=False)

    def write(self, block_addr: int = 0, now: int = 0) -> int:
        """Write one block back through the DRAM model."""
        return self.dram.access(block_addr, now, is_write=True)

    def reads(self) -> float:
        """Blocks fetched so far."""
        return self.dram.reads()

    def writes(self) -> float:
        """Blocks written back so far."""
        return self.dram.writes()


def make_memory(config: SystemConfig, stats: StatGroup) -> Memory:
    """Instantiate the memory model ``config.memory_model`` selects."""
    if config.memory_model is MemoryModel.DRAM:
        return DramAdapter(DramModel(config.dram, stats))
    return MainMemory(config.timing, stats)


__all__ = ["DramAdapter", "DramBank", "DramModel", "MainMemory", "Memory", "make_memory"]
