"""Memory-access traces: the simulator's input format.

A trace is a per-core sequence of ``(byte_address, is_write)`` operations,
held as a :class:`PackedTrace`: one flat ``array('Q')`` stream per core of
``(addr << 1) | is_write`` words.  Every workload generator
(:mod:`repro.workloads`) writes this form directly, both engines read it,
and the trace memo (:mod:`repro.workloads.store`) keeps it once per
(workload, size, seed).

The write bit takes the low bit of an unsigned 64-bit word, so a byte
address must lie in ``[0, MAX_PACKED_ADDR]``, i.e. fit 63 bits; anything
else raises :class:`~repro.common.errors.TraceError`.

On disk a trace is a plain CSV of ``core,addr,rw`` lines, so traces from
external tools can be replayed too (``repro replay``): ``core`` is a
decimal core id, ``addr`` a byte address in hex (``0x`` prefix) or
decimal, ``rw`` is ``R`` or ``W``.  Blank lines and lines starting with
``#`` are skipped.  The reader rejects a line it cannot parse, a core
outside the trace and an address outside the 63-bit range, naming
``path:line``.
"""

from __future__ import annotations

import sys
from array import array
from pathlib import Path
from typing import List, Union

from ..common.errors import TraceError

#: Largest byte address a packed stream can encode: the write bit takes
#: the low bit of an unsigned 64-bit word, leaving 63 bits of address.
MAX_PACKED_ADDR = (1 << 63) - 1


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


class PackedTrace:
    """Per-core flat ``array('Q')`` streams of ``(addr << 1) | is_write``.

    The simulator's one input form: an unsigned 64-bit word per operation,
    decoded inline in the run loops (``block = word >> (block_shift +
    1)``, ``is_write = word & 1``).  Its content hashes as
    ``streams[core].tobytes()`` and crosses process boundaries as flat
    buffers, which is what keeps the sweep engine's trace memo cheap.
    Addresses outside ``[0, MAX_PACKED_ADDR]`` raise
    :class:`~repro.common.errors.TraceError`.
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
    def from_file(cls, path: Union[str, Path], num_cores: int) -> "PackedTrace":
        """Load a ``core,addr,rw`` CSV trace (format in the module docstring).

        A rejected line raises :class:`~repro.common.errors.TraceError`
        prefixed with ``path:lineno``.
        """
        trace = cls(num_cores)
        with open(path) as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                try:
                    if len(parts) != 3:
                        raise TraceError("expected core,addr,rw")
                    core = int(parts[0])
                    addr = int(parts[1], 0)
                    rw = parts[2].strip().upper()
                    if rw not in ("R", "W"):
                        raise TraceError(f"rw must be R or W, got {rw!r}")
                    trace.append(core, addr, rw == "W")
                except (TraceError, ValueError) as exc:
                    raise TraceError(f"{path}:{lineno}: {exc}") from None
        return trace

    def to_file(self, path: Union[str, Path]) -> None:
        """Write the trace as a ``core,addr,rw`` CSV (hex addresses)."""
        with open(path, "w") as handle:
            handle.write("# core,addr,rw\n")
            for core, stream in enumerate(self.streams):
                handle.writelines(
                    f"{core},{word >> 1:#x},{'W' if word & 1 else 'R'}\n"
                    for word in stream
                )

    # -- inspection ---------------------------------------------------------------

    def total_ops(self) -> int:
        """Operations across all cores."""
        return sum(len(stream) for stream in self.streams)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedTrace):
            return NotImplemented
        return self.num_cores == other.num_cores and self.streams == other.streams

    def stream_bytes(self) -> List[bytes]:
        """Each core's stream as little-endian 8-byte words.

        The byte form the trace digests hash, the same on every host.
        """
        out = []
        for stream in self.streams:
            if sys.byteorder == "big":  # pragma: no cover - exotic hosts
                stream = array("Q", stream)
                stream.byteswap()
            out.append(stream.tobytes())
        return out
