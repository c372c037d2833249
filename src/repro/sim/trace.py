"""Memory-access traces: the simulator's input format.

A trace is a per-core sequence of ``(byte_address, is_write)`` operations.
Traces come from the synthetic workload generators
(:mod:`repro.workloads`) or from files; the on-disk format is a plain CSV
of ``core,addr,rw`` lines (``rw`` is ``R`` or ``W``, ``addr`` hex or
decimal) so traces from external tools can be replayed too.

Two in-memory representations exist:

* :class:`PackedTrace` — per-core flat ``array('Q')`` streams encoding
  ``(addr << 1) | is_write``; ~5x smaller than tuples, picklable as one
  buffer per core, and what the simulator loop iterates with inline
  decode.  Every workload generator writes this form directly, and the
  sweep engine's trace store (:mod:`repro.workloads.store`) keeps it
  exactly once per (workload, size, seed).
* :class:`Trace` — per-core lists of ``(addr, is_write)`` tuples, for CSV
  files and hand-built traces.

Conversion between the two is lossless (``PackedTrace.from_trace`` /
``to_trace``); packing rejects addresses that do not fit the 63 usable
bits of the encoding (:data:`MAX_PACKED_ADDR`).
"""

from __future__ import annotations

import sys
from array import array
from pathlib import Path
from typing import Iterable, List, Tuple, Union

from ..common.addr import log2_exact
from ..common.errors import TraceError

#: One operation: (byte_address, is_write).
Op = Tuple[int, bool]

#: One globally-ordered operation: (core, block_address, is_write).
FlatOp = Tuple[int, int, bool]

#: Largest byte address a packed stream can encode: the write bit takes
#: the low bit of an unsigned 64-bit word, leaving 63 bits of address.
MAX_PACKED_ADDR = (1 << 63) - 1

#: Flat-program encoding (repro.verify): the issuing core rides in the
#: high bits of the address field, so a single packed stream preserves the
#: *global* operation order that per-core streams lose.
FLAT_CORE_SHIFT = 48

#: Largest block address / core id a flat-program word can carry.
MAX_FLAT_ADDR = (1 << FLAT_CORE_SHIFT) - 1
MAX_FLAT_CORE = (1 << (63 - FLAT_CORE_SHIFT)) - 1


def pack_stream(core: int, words: List[int]) -> array:
    """One core's packed words as an ``array('Q')``.

    ``words`` are already encoded ``(addr << 1) | is_write``.  A word that
    does not fit 64 unsigned bits (an address beyond
    :data:`MAX_PACKED_ADDR`, or a negative one) raises
    :class:`~repro.common.errors.TraceError` naming the core.
    """
    try:
        return array("Q", words)
    except OverflowError:
        bad = max(words, key=abs) >> 1
        raise TraceError(
            f"core {core}: address {bad:#x} outside packable range "
            f"[0, {MAX_PACKED_ADDR:#x}]"
        ) from None


def pack_flat_program(ops: "Iterable[FlatOp]") -> "PackedTrace":
    """Encode a globally-ordered ``(core, block, is_write)`` program.

    The result is a single-stream :class:`PackedTrace` whose words are
    ``(((core << FLAT_CORE_SHIFT) | block) << 1) | is_write`` — the word
    layout of per-core packed traces, so the differential fuzzer's failure
    corpus (:mod:`repro.verify.corpus`) stores a program as one packed
    stream.  Raises :class:`~repro.common.errors.TraceError` when a
    core id or block address does not fit its field.
    """
    packed = PackedTrace(1)
    stream = packed.streams[0]
    for core, block, is_write in ops:
        if not 0 <= core <= MAX_FLAT_CORE:
            raise TraceError(f"flat-program core {core} outside [0, {MAX_FLAT_CORE}]")
        if not 0 <= block <= MAX_FLAT_ADDR:
            raise TraceError(
                f"flat-program block {block:#x} outside [0, {MAX_FLAT_ADDR:#x}]"
            )
        word = ((core << FLAT_CORE_SHIFT) | block) << 1
        stream.append(word | 1 if is_write else word)
    return packed


def unpack_flat_program(packed: "PackedTrace") -> "List[FlatOp]":
    """Decode :func:`pack_flat_program`'s single-stream encoding."""
    if packed.num_cores != 1:
        raise TraceError(
            f"flat programs are single-stream, got {packed.num_cores} streams"
        )
    ops: List[FlatOp] = []
    for word in packed.streams[0]:
        field = word >> 1
        ops.append((field >> FLAT_CORE_SHIFT, field & MAX_FLAT_ADDR, bool(word & 1)))
    return ops


class Trace:
    """Per-core operation streams."""

    def __init__(self, num_cores: int) -> None:
        if num_cores < 1:
            raise TraceError("trace needs at least one core")
        self.num_cores = num_cores
        self.ops: List[List[Op]] = [[] for _ in range(num_cores)]

    # -- construction ------------------------------------------------------------

    def append(self, core: int, addr: int, is_write: bool) -> None:
        """Append one operation to a core's stream."""
        if not 0 <= core < self.num_cores:
            raise TraceError(f"core {core} outside [0, {self.num_cores})")
        if addr < 0:
            raise TraceError(f"negative address {addr}")
        self.ops[core].append((addr, is_write))

    # -- file I/O ------------------------------------------------------------------

    @classmethod
    def from_file(cls, path: Union[str, Path], num_cores: int) -> "Trace":
        """Load a ``core,addr,rw`` CSV trace."""
        trace = cls(num_cores)
        with open(path) as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise TraceError(f"{path}:{lineno}: expected core,addr,rw")
                try:
                    core = int(parts[0])
                    addr = int(parts[1], 0)
                except ValueError as exc:
                    raise TraceError(f"{path}:{lineno}: {exc}") from None
                rw = parts[2].strip().upper()
                if rw not in ("R", "W"):
                    raise TraceError(f"{path}:{lineno}: rw must be R or W, got {rw!r}")
                trace.append(core, addr, rw == "W")
        return trace

    def to_file(self, path: Union[str, Path]) -> None:
        """Write the trace as a ``core,addr,rw`` CSV."""
        with open(path, "w") as handle:
            handle.write("# core,addr,rw\n")
            for core, ops in enumerate(self.ops):
                for addr, is_write in ops:
                    handle.write(f"{core},{addr:#x},{'W' if is_write else 'R'}\n")

    # -- inspection -------------------------------------------------------------------

    def total_ops(self) -> int:
        """Operations across all cores."""
        return sum(len(ops) for ops in self.ops)

    def core_ops(self, core: int) -> int:
        """Operations of one core."""
        return len(self.ops[core])

    def write_fraction(self) -> float:
        """Fraction of operations that are writes (single pass)."""
        total = 0
        writes = 0
        for ops in self.ops:
            total += len(ops)
            for _, is_write in ops:
                if is_write:
                    writes += 1
        if total == 0:
            return 0.0
        return writes / total

    def unique_blocks(self, block_bytes: int) -> int:
        """Distinct cache blocks the trace touches (single pass).

        ``block_bytes`` must be a power of two
        (:class:`~repro.common.errors.ConfigError` otherwise).
        """
        shift = log2_exact(block_bytes)
        blocks: set = set()
        add = blocks.add
        for ops in self.ops:
            for addr, _ in ops:
                add(addr >> shift)
        return len(blocks)

    def pack(self) -> "PackedTrace":
        """This trace in packed form (see :class:`PackedTrace`)."""
        return PackedTrace.from_trace(self)


class PackedTrace:
    """Per-core flat ``array('Q')`` streams of ``(addr << 1) | is_write``.

    The packed form is the simulator's native input: one unsigned 64-bit
    word per operation, decoded inline in the run loop (``block =
    word >> (block_shift + 1)``, ``is_write = word & 1``).  Compared to
    the tuple lists of :class:`Trace` it is ~5x smaller, hashable content
    (``streams[core].tobytes()``), and crosses process boundaries as flat
    buffers — which is what makes the sweep engine's shared trace store
    cheap.  Conversion to/from :class:`Trace` is lossless for any address
    up to :data:`MAX_PACKED_ADDR`; larger addresses raise
    :class:`~repro.common.errors.TraceError` (keep those in tuple form).
    """

    __slots__ = ("num_cores", "streams")

    def __init__(self, num_cores: int, streams: "List[array]" = None) -> None:
        if num_cores < 1:
            raise TraceError("trace needs at least one core")
        if streams is None:
            streams = [array("Q") for _ in range(num_cores)]
        elif len(streams) != num_cores:
            raise TraceError(
                f"{len(streams)} streams for {num_cores} cores"
            )
        self.num_cores = num_cores
        self.streams: List[array] = streams

    # -- construction ------------------------------------------------------------

    def append(self, core: int, addr: int, is_write: bool) -> None:
        """Append one operation to a core's packed stream."""
        if not 0 <= core < self.num_cores:
            raise TraceError(f"core {core} outside [0, {self.num_cores})")
        if not 0 <= addr <= MAX_PACKED_ADDR:
            raise TraceError(
                f"address {addr:#x} outside packable range [0, {MAX_PACKED_ADDR:#x}]"
            )
        self.streams[core].append((addr << 1) | (1 if is_write else 0))

    @classmethod
    def from_trace(cls, trace: "Union[Trace, PackedTrace]") -> "PackedTrace":
        """Pack an unpacked trace (lossless; validates the address range).

        A :class:`PackedTrace` argument is returned unchanged.
        """
        if isinstance(trace, PackedTrace):
            return trace
        return cls(trace.num_cores, [
            pack_stream(core, [
                (addr << 1) | 1 if is_write else addr << 1
                for addr, is_write in ops
            ])
            for core, ops in enumerate(trace.ops)
        ])

    @classmethod
    def from_file(cls, path: Union[str, Path], num_cores: int) -> "PackedTrace":
        """Load a ``core,addr,rw`` CSV trace directly into packed form."""
        return cls.from_trace(Trace.from_file(path, num_cores))

    def to_file(self, path: Union[str, Path]) -> None:
        """Write the trace as a ``core,addr,rw`` CSV (same bytes as
        :meth:`Trace.to_file`)."""
        with open(path, "w") as handle:
            handle.write("# core,addr,rw\n")
            for core, stream in enumerate(self.streams):
                handle.writelines(
                    f"{core},{word >> 1:#x},{'W' if word & 1 else 'R'}\n"
                    for word in stream
                )

    def to_trace(self) -> Trace:
        """Unpack back to per-core tuple lists (exact inverse of packing)."""
        trace = Trace(self.num_cores)
        for core, stream in enumerate(self.streams):
            trace.ops[core] = [(word >> 1, bool(word & 1)) for word in stream]
        return trace

    # -- inspection ---------------------------------------------------------------

    def total_ops(self) -> int:
        """Operations across all cores."""
        return sum(len(stream) for stream in self.streams)

    def core_ops(self, core: int) -> int:
        """Operations of one core."""
        return len(self.streams[core])

    def nbytes(self) -> int:
        """Payload size across all cores (8 bytes per operation)."""
        return 8 * self.total_ops()

    def write_fraction(self) -> float:
        """Fraction of operations that are writes."""
        total = self.total_ops()
        if total == 0:
            return 0.0
        low_bit = (1).__and__
        return sum(sum(map(low_bit, stream)) for stream in self.streams) / total

    def unique_blocks(self, block_bytes: int) -> int:
        """Distinct cache blocks the trace touches.

        ``block_bytes`` must be a power of two
        (:class:`~repro.common.errors.ConfigError` otherwise).
        """
        block_of = (log2_exact(block_bytes) + 1).__rrshift__
        blocks: set = set()
        for stream in self.streams:
            blocks.update(map(block_of, stream))
        return len(blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedTrace):
            return NotImplemented
        return self.num_cores == other.num_cores and self.streams == other.streams

    # -- serialization (the trace store's payload format) -------------------------

    def stream_bytes(self) -> List[bytes]:
        """Each core's stream as little-endian 8-byte words."""
        out = []
        for stream in self.streams:
            if sys.byteorder == "big":  # pragma: no cover - exotic hosts
                stream = array("Q", stream)
                stream.byteswap()
            out.append(stream.tobytes())
        return out

    @classmethod
    def from_stream_bytes(cls, blobs: Iterable[bytes]) -> "PackedTrace":
        """Rebuild from :meth:`stream_bytes` payloads (one per core)."""
        streams = []
        for blob in blobs:
            if len(blob) % 8:
                raise TraceError(
                    f"packed stream payload of {len(blob)} bytes is not a "
                    "whole number of 8-byte words"
                )
            stream = array("Q")
            stream.frombytes(blob)
            if sys.byteorder == "big":  # pragma: no cover - exotic hosts
                stream.byteswap()
            streams.append(stream)
        if not streams:
            raise TraceError("packed trace needs at least one core stream")
        return cls(len(streams), streams)
