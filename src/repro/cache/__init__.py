"""Cache substrate: flat LRU set-associative arrays, L1s and the shared LLC."""

from .array import CacheArray
from .block import CacheBlock
from .l1 import L1Cache
from .llc import SharedLLC

__all__ = [
    "CacheArray",
    "CacheBlock",
    "L1Cache",
    "SharedLLC",
]
