"""Energy and storage/area models."""

from .area import (
    PHYSICAL_ADDR_BITS,
    StorageEstimate,
    embedded_storage,
    entry_bits,
    storage_of,
)
from .model import EnergyBreakdown, energy_of

__all__ = [
    "EnergyBreakdown",
    "PHYSICAL_ADDR_BITS",
    "StorageEstimate",
    "embedded_storage",
    "energy_of",
    "entry_bits",
    "storage_of",
]
