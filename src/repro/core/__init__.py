"""The paper's contribution: stash directory, stash policy, discovery.

This package holds everything specific to the Stash Directory design:

* :class:`StashDirectory` — sparse directory that stashes private entries
  instead of invalidating them;
* :mod:`~repro.core.stash_policy` — the eligibility rule and its ablation;
* :class:`DiscoveryEngine` — the LLC-delegated hidden-copy recovery
  broadcast;
* :mod:`~repro.core.relaxed_inclusion` — the relaxed inclusion property as
  checkable predicates.
"""

from .adaptive import AdaptiveStashDirectory
from .discovery import DiscoveryDemand, DiscoveryEngine, DiscoveryResult
from .filter import PresenceFilter
from .relaxed_inclusion import (
    InclusionReport,
    check_relaxed_inclusion,
    check_strict_inclusion,
)
from .stash_directory import StashDirectory
from .stash_policy import is_stash_eligible

__all__ = [
    "AdaptiveStashDirectory",
    "DiscoveryDemand",
    "DiscoveryEngine",
    "DiscoveryResult",
    "InclusionReport",
    "PresenceFilter",
    "StashDirectory",
    "check_relaxed_inclusion",
    "check_strict_inclusion",
    "is_stash_eligible",
]
