"""Adaptive stash throttling — a feedback extension of the stash directory.

Stashing is a bet: the hidden copy will be re-used by its owner (great) or
silently die (a stale stash bit and, eventually, a wasted discovery
broadcast).  On workloads with poor private-block reuse the bet loses
often, and every lost bet is an N-way broadcast.  This extension closes the
loop: the home reports each discovery outcome back to the directory, which
monitors the **false-discovery rate over a sliding window** and suspends
stashing (falling back to conventional invalidating evictions) while the
rate is above a threshold; after a cool-off period it re-enables stashing
on probation.

This is the kind of simple set-dueling-style control a follow-on paper
would evaluate; benchmark A4 compares it against the always-stash design.
"""

from __future__ import annotations

from typing import Tuple

from ..common.config import DirectoryConfig
from ..common.errors import ConfigError
from ..common.rng import DeterministicRng
from ..common.stats import StatGroup
from ..directory.base import EvictionAction
from .stash_directory import StashDirectory

# Read once (an enum member load inside a function is a class-attribute
# lookup through EnumType on every call).
_INVALIDATE = EvictionAction.INVALIDATE

#: Discovery outcomes per evaluation window.
DEFAULT_WINDOW = 64

#: Suspend stashing when the windowed false rate exceeds this.
DEFAULT_THRESHOLD = 0.5

#: Conflict evictions to wait, once suspended, before re-enabling on
#: probation.
DEFAULT_COOLOFF = 1024


class AdaptiveStashDirectory(StashDirectory):
    """Stash directory that suspends stashing when discoveries keep missing."""

    def __init__(
        self,
        config: DirectoryConfig,
        num_cores: int,
        entries: int,
        rng: DeterministicRng,
        stats: StatGroup,
        window: int = DEFAULT_WINDOW,
        threshold: float = DEFAULT_THRESHOLD,
        cooloff: int = DEFAULT_COOLOFF,
    ) -> None:
        super().__init__(config, num_cores, entries, rng, stats)
        if window < 1:
            raise ConfigError("adaptive window must be >= 1")
        if not 0.0 <= threshold <= 1.0:
            raise ConfigError("adaptive threshold must be in [0, 1]")
        if cooloff < 1:
            raise ConfigError("adaptive cooloff must be >= 1")
        self.window = window
        self.threshold = threshold
        self.cooloff = cooloff
        self.stash_enabled = True
        self._window_total = 0
        self._window_false = 0
        self._cooloff_left = 0

    # -- feedback from the home controller ---------------------------------------

    def note_discovery(self, found: bool) -> None:
        """Record one discovery outcome (called by the home controller)."""
        self._window_total += 1
        self._window_false += not found
        if self._window_total < self.window:
            return
        false_rate = self._window_false / self._window_total
        self._window_total = 0
        self._window_false = 0
        if self.stash_enabled and false_rate > self.threshold:
            self.stash_enabled = False
            self._cooloff_left = self.cooloff
            self.stats.add("throttle_suspensions")

    # -- victim policy ---------------------------------------------------------------

    def choose_victim(self, slots: range) -> Tuple[int, EvictionAction]:
        if not self.stash_enabled:
            self._cooloff_left -= 1
            if self._cooloff_left <= 0:
                # Probation: resume stashing and re-measure.
                self.stash_enabled = True
                self.stats.add("throttle_probations")
            else:
                self.stats.add("throttled_evictions")
                return self.lru_slot(slots), _INVALIDATE
        return super().choose_victim(slots)
