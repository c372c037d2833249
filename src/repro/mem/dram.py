"""Bank/row-buffer DRAM model (optional upgrade over the flat model).

The flat-latency model is enough for the paper's directory claims, but a
directory study's refetch traffic is bursty — coverage misses cluster on
the same rows they were evicted from — so an open-page DRAM model gives the
latency penalty of a refetch a more honest distribution:

* the address maps to a (channel-less) **bank** and **row**;
* a **row-buffer hit** pays CAS only;
* a **row-buffer miss** pays precharge + activate + CAS;
* a bank conflict additionally waits for the bank's busy window.

Timing is approximate (no command bus, no refresh) but captures the two
effects that matter here: row locality of streaming refetches and bank
parallelism of independent ones.  Select it with
``TimingConfig`` + :class:`~repro.common.config.MemoryModel` — see
:func:`repro.mem.make_memory`.
"""

from __future__ import annotations

from typing import List, Optional

from ..common.config import DramConfig
from ..common.stats import StatGroup


class DramBank:
    """One bank: an open row and a busy-until timestamp."""

    __slots__ = ("open_row", "busy_until")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.busy_until: int = 0


class DramModel:
    """Open-page DRAM with per-bank row buffers.

    The simulator is trace-driven with per-core clocks, so the model keeps
    its own coarse notion of time: callers pass the requester's current
    clock (``now``), and the access latency includes any wait for the
    target bank.
    """

    def __init__(self, config: DramConfig, stats: StatGroup) -> None:
        self.config = config
        self._stats = stats
        self._banks: List[DramBank] = [DramBank() for _ in range(config.banks)]

    # -- address mapping --------------------------------------------------------

    def bank_of(self, block_addr: int) -> int:
        """Block-interleaved bank mapping."""
        return block_addr % self.config.banks

    def row_of(self, block_addr: int) -> int:
        """Row id: consecutive blocks within a bank share a row."""
        return (block_addr // self.config.banks) // self.config.row_blocks

    # -- accesses -----------------------------------------------------------------

    def access(self, block_addr: int, now: int, is_write: bool) -> int:
        """One block transfer; returns its latency in cycles.

        ``now`` is the requester's clock, used to model bank busy time.
        """
        bank = self._banks[self.bank_of(block_addr)]
        row = self.row_of(block_addr)
        cfg = self.config

        wait = max(0, bank.busy_until - now)
        if wait > 0:
            self._stats.add("bank_conflict_wait_cycles", wait)
            self._stats.add("bank_conflicts")

        if bank.open_row == row:
            service = cfg.cas_cycles
            self._stats.add("row_hits")
        elif bank.open_row is None:
            service = cfg.activate_cycles + cfg.cas_cycles
            self._stats.add("row_empty")
        else:
            service = cfg.precharge_cycles + cfg.activate_cycles + cfg.cas_cycles
            self._stats.add("row_misses")
        bank.open_row = row

        latency = wait + service + cfg.transfer_cycles
        bank.busy_until = now + latency
        self._stats.add("writes" if is_write else "reads")
        return latency

    # -- reporting ------------------------------------------------------------------

    def row_hit_rate(self) -> float:
        """Row-buffer hits / all accesses."""
        hits = self._stats.get("row_hits")
        total = hits + self._stats.get("row_misses") + self._stats.get("row_empty")
        return hits / total if total else 0.0

    def reads(self) -> float:
        """Blocks fetched so far."""
        return self._stats.get("reads")

    def writes(self) -> float:
        """Blocks written back so far."""
        return self._stats.get("writes")
