"""Address-stream primitives: the block streams the workload patterns model.

Each stream yields *block indices* within a region; patterns place regions
in the global address space and convert to byte addresses.  Streams draw
from an explicit :class:`~repro.common.rng.DeterministicRng`, so a workload
is reproducible from ``(name, seed)``.  The generators in
:mod:`repro.workloads.patterns` inline these draws, in the same order and
from the same streams, so that no Python frame runs per operation.
"""

from __future__ import annotations

from ..common.errors import ConfigError
from ..common.rng import DeterministicRng


class BlockStream:
    """Produces a sequence of block indices in ``[0, num_blocks)``."""

    def __init__(self, num_blocks: int) -> None:
        if num_blocks < 1:
            raise ConfigError("stream needs at least one block")
        self.num_blocks = num_blocks

    def next(self) -> int:
        """The next block index."""
        raise NotImplementedError


class SequentialStream(BlockStream):
    """Cyclic sequential sweep (streaming/stencil inner loops)."""

    def __init__(self, num_blocks: int, stride: int = 1) -> None:
        super().__init__(num_blocks)
        if stride < 1:
            raise ConfigError("stride must be >= 1")
        self.stride = stride
        self._pos = 0

    def next(self) -> int:
        value = self._pos
        self._pos = (self._pos + self.stride) % self.num_blocks
        return value


class UniformStream(BlockStream):
    """Uniform random block (pointer-chasing over a flat set)."""

    def __init__(self, num_blocks: int, rng: DeterministicRng) -> None:
        super().__init__(num_blocks)
        self._rng = rng

    def next(self) -> int:
        return self._rng.randint(0, self.num_blocks - 1)


class ZipfStream(BlockStream):
    """Zipf-skewed random block — hot-set locality, the common case.

    ``alpha`` around 0.6-0.9 matches typical cache-access skew; 0 degrades
    to uniform.
    """

    def __init__(self, num_blocks: int, rng: DeterministicRng, alpha: float = 0.7) -> None:
        super().__init__(num_blocks)
        if alpha < 0:
            raise ConfigError("zipf alpha must be non-negative")
        self._rng = rng
        self.alpha = alpha

    def next(self) -> int:
        return self._rng.zipf_index(self.num_blocks, self.alpha)


class PhasedStream(BlockStream):
    """Alternates between two streams in fixed-length phases.

    Models compute/communicate phase behaviour: ``primary`` for
    ``primary_len`` ops, then ``secondary`` for ``secondary_len``, repeat.
    """

    def __init__(
        self,
        primary: BlockStream,
        secondary: BlockStream,
        primary_len: int,
        secondary_len: int,
    ) -> None:
        super().__init__(max(primary.num_blocks, secondary.num_blocks))
        if primary_len < 1 or secondary_len < 1:
            raise ConfigError("phase lengths must be >= 1")
        self.primary = primary
        self.secondary = secondary
        self.primary_len = primary_len
        self.secondary_len = secondary_len
        self._count = 0

    def in_primary(self) -> bool:
        """Is the stream currently in its primary phase?"""
        cycle = self.primary_len + self.secondary_len
        return (self._count % cycle) < self.primary_len

    def next(self) -> int:
        stream = self.primary if self.in_primary() else self.secondary
        self._count += 1
        return stream.next()
