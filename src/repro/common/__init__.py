"""Shared substrate: addressing, configuration, statistics, RNG, errors."""

from .addr import home_bank, is_power_of_two, log2_exact, stride_hash
from .config import (
    CacheConfig,
    DirectoryConfig,
    DirectoryKind,
    EnergyConfig,
    NoCConfig,
    SharerFormat,
    StashEligibility,
    SystemConfig,
    TimingConfig,
)
from .errors import (
    ConfigError,
    DirectoryError,
    InvariantViolation,
    ProtocolError,
    ReproError,
    TraceError,
)
from .rng import DeterministicRng
from .stats import StatGroup, per_kilo, ratio

__all__ = [
    "CacheConfig",
    "ConfigError",
    "DeterministicRng",
    "DirectoryConfig",
    "DirectoryError",
    "DirectoryKind",
    "EnergyConfig",
    "InvariantViolation",
    "NoCConfig",
    "ProtocolError",
    "ReproError",
    "SharerFormat",
    "StashEligibility",
    "StatGroup",
    "SystemConfig",
    "TimingConfig",
    "TraceError",
    "home_bank",
    "is_power_of_two",
    "log2_exact",
    "per_kilo",
    "ratio",
    "stride_hash",
]
