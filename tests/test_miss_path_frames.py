"""The Python frames one cold LLC miss opens on the interpreter.

A cold miss on a 16-core sparse system runs the whole home miss path: the
L1 lookup and victim check, the request, the directory and LLC lookups,
the memory fetch, the LLC fill, the directory allocation, the grant and
the L1 fill.  Each Python frame on that path costs more than the work
most of them model, and cProfile inflates this frame-heavy path several
times over, so a re-probe, a per-event wrapper or a dataclass
constructor can come back unnoticed.  This test counts the frames with
``sys.setprofile`` and pins the number, as
``tests/test_enum_member_loads.py`` pins the enum loads.

The counted miss is the first touch of a block whose L1 set, LLC set and
directory set have free ways, made after the same core has bound its
lazily created counter cells, so no victim, eviction or binding frame is
counted.  The cyclic collector is off while it is counted: a collection
there would run the finalizers and weakref callbacks of other objects
(say, a stopped service's executor threads left by an earlier test),
which are not frames of the miss.  If a change adds or removes modelled
work on this path, update ``EXPECTED`` with the new sequence and say why.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.analysis.experiments import make_config
from repro.common.config import DirectoryKind
from repro.sim.system import build_system

#: ``module:qualname`` of every Python frame one cold LLC miss opens.
EXPECTED = (
    "protocol:CoherentSystem.access",
    "l1_controller:L1Controller.access",
    "array:CacheArray.lookup",
    "l1_controller:L1Controller._miss",
    "array:CacheArray.peek_victim",
    "network:Network.send",
    "llc_controller:HomeController.serve_miss",
    "sparse:SparseDirectory.lookup",
    "llc_controller:HomeController._dir_miss",
    "array:CacheArray.lookup",
    "llc_controller:HomeController._llc_miss",
    "array:CacheArray.peek_victim",
    "network:Network.send",
    "main_memory:MainMemory.read",
    "network:Network.send",
    "llc:SharedLLC.fill",
    "array:CacheArray.allocate",
    "block:CacheBlock.__init__",
    "llc_controller:HomeController._allocate_entry",
    "sparse:SparseDirectory.allocate",
    "sharers:FullBitVector.fresh",
    "base:DirectoryEntry.__init__",
    "base:DirectoryEntry.grant_exclusive",
    "sharers:FullBitVector.clear",
    "sharers:FullBitVector.add",
    "network:Network.send",
    "l1:L1Cache.fill",
    "array:CacheArray.allocate",
    "block:CacheBlock.__init__",
)

#: Frames that must never appear on the miss path.
FORBIDDEN = ("_tracked", "_llc_version", "StatGroup.add", "StatGroup.counter")

CORE = 5
COLD_BLOCK = 0x555


def _frames_of_one_cold_miss(kind: DirectoryKind) -> list:
    system = build_system(make_config(kind, ratio=1.0))
    # Bind the core's, the home's and the NoC's cells on other blocks
    # (a read miss, then a write miss) so the counted miss binds nothing.
    for addr in (0x100, 0x201, 0x302, 0x403):
        system.access(CORE, addr, False)
        system.access(CORE, addr + 0x1000, True)
    frames = []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            module = code.co_filename.rsplit("/", 1)[-1].removesuffix(".py")
            frames.append(f"{module}:{code.co_qualname}")

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        system.access(CORE, COLD_BLOCK, False)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return frames


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is 3.11+")
def test_cold_llc_miss_frames_are_pinned():
    frames = _frames_of_one_cold_miss(DirectoryKind.SPARSE)
    assert tuple(frames) == EXPECTED, "\n".join(frames)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is 3.11+")
@pytest.mark.parametrize("kind", [DirectoryKind.SPARSE, DirectoryKind.STASH],
                         ids=["sparse", "stash"])
def test_no_reprobe_or_wrapper_frames(kind):
    frames = _frames_of_one_cold_miss(kind)
    assert len(frames) == len(EXPECTED)
    for name in FORBIDDEN:
        assert not [f for f in frames if f.endswith(name)], name
    # Dataclass constructors are generated code: their file is "<string>".
    assert not [f for f in frames if f.startswith("<string>")]
