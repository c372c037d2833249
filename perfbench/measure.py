"""Pure measurement helpers shared by the benchmark's processes.

Nothing here imports ``repro``: the orchestrator (``run.py``), the
workers (``worker.py``) and the self-tests (``test_measure.py``) all use
these functions.  Run the self-tests with::

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import hashlib
import json
import re
import signal
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Metric names the benchmark contract accepts.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the middle two for an even count)."""
    data = sorted(values)
    if not data:
        raise ValueError("median of no values")
    mid = len(data) // 2
    if len(data) % 2:
        return float(data[mid])
    return (data[mid - 1] + data[mid]) / 2.0


def _rank(pct: int, count: int) -> int:
    """Nearest rank of whole percentile ``pct`` in ``count`` samples."""
    return max(1, -(-pct * count // 100))


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    return float(data[_rank(pct, len(data)) - 1])


def tail_percentile(count: int, beyond: int = TAIL_SAMPLES) -> Optional[int]:
    """The highest whole percentile that leaves ``beyond`` samples above it.

    Percentile ``p`` of ``count`` samples has ``count - rank(p)`` samples
    strictly beyond its nearest rank.  None when even the median would
    leave fewer than ``beyond``.
    """
    for pct in range(99, 49, -1):
        if count - _rank(pct, count) >= beyond:
            return pct
    return None


def digest(payload, length: int = 64) -> str:
    """SHA-256 (hex prefix) of a canonical JSON encoding.

    ``json`` writes floats by ``repr``, which round-trips exactly, so two
    payloads digest alike only when every number is bit-identical.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:length]


def result_digest(result) -> str:
    """Identity of one simulation result: cycles, stats tree and samples."""
    return digest(
        {
            "cycles": list(result.cycles_per_core),
            "stats": sorted(result.stats.items()),
            "samples": list(result.effective_tracking_samples),
        }
    )


def mismatches(reference: Mapping[str, object], observed: Mapping[str, object]) -> List[str]:
    """Keys of ``observed`` that are absent from or differ in ``reference``."""
    return sorted(
        key for key, value in observed.items()
        if key not in reference or reference[key] != value
    )


# ------------------------------------------------------------ host speed

#: Seconds the calibration loop takes on a quiet 2-CPU host: the speed
#: every normalized time is expressed in.
REFERENCE_CAL_S = 0.00035

#: Iterations of the calibration loop, and how often it runs.
CAL_LOOPS = 2000
SAMPLE_PERIOD_S = 0.05


def calibrate() -> float:
    """Seconds one fixed dict-and-integer loop takes right now."""
    table: Dict[int, int] = {}
    acc = 0
    begin = time.perf_counter()
    for i in range(CAL_LOOPS):
        key = (i * 2654435761) & 0x3FF
        value = table.get(key, 0)
        table[key] = value + 1
        acc += value & 7
    return time.perf_counter() - begin


class SpeedSampler:
    """Host speed sampled inside the measuring process.

    The vCPUs of a shared host change speed by up to 2x from one second
    to the next, each on its own, and the guest sees no steal time.  So
    every ``SAMPLE_PERIOD_S`` a SIGALRM interrupts the process and times
    :func:`calibrate` on the CPU the work is running on.  Each sample is
    ``(monotonic time, seconds)``.  With ``path`` set, each sample is
    also appended to that file as a ``"<time> <seconds>"`` line, for
    processes that are killed rather than asked for their samples.
    Costs about 0.7% of the process's time.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.samples: List[Tuple[float, float]] = []
        self.path = path
        self._sink = None

    def _sample(self, signum, frame) -> None:
        stamp = time.monotonic()
        seconds = calibrate()
        self.samples.append((stamp, seconds))
        if self._sink is not None:
            self._sink.write(f"{stamp!r} {seconds!r}\n")

    def start(self) -> "SpeedSampler":
        """Sample now, then every ``SAMPLE_PERIOD_S``."""
        if self.path is not None:
            self._sink = open(self.path, "a", buffering=1)
        calibrate()  # the first call of a fresh process runs cold
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def stop(self) -> None:
        """Take a last sample and stop (short phases get two at least)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample(None, None)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if self._sink is not None:
            self._sink.close()
            self._sink = None


def read_samples(path: str) -> List[Tuple[float, float]]:
    """The samples a :class:`SpeedSampler` appended to ``path``."""
    with open(path) as handle:
        return [
            (float(parts[0]), float(parts[1]))
            for parts in (line.split() for line in handle)
            if len(parts) == 2
        ]


def speed_factor(samples: Sequence[Sequence[float]], start: float, end: float) -> float:
    """Mean of reference/sample speed over the samples taken in [start, end].

    Multiplying a host time by it gives the time at reference speed:
    work done at speed ``s(t)`` for ``dt`` is ``dt * REFERENCE / s(t)``
    reference seconds, and the samples fall uniformly in time.  With no
    sample inside the interval, the nearest one stands in.
    """
    inside = [s for t, s in samples if start <= t <= end]
    if not inside:
        if not samples:
            raise ValueError("no speed samples")
        middle = (start + end) / 2
        inside = [min(samples, key=lambda sample: abs(sample[0] - middle))[1]]
    return sum(REFERENCE_CAL_S / s for s in inside) / len(inside)


# ----------------------------------------------------------------- spans

class SpanRecorder:
    """In-memory spans with parent links, for one thread of control.

    Each span is ``[name, start, end, parent, tag, note]``: ``parent`` is
    the index of the enclosing span or -1, ``tag`` names the point or
    campaign the span served and ``note`` holds counts the wrapper took
    from the call's result.  Spans close in stack order, so a child
    always lies inside its parent and siblings never overlap.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = []

    def open(self, name: str, tag: str = "") -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, tag, {}])
        self._stack.append(index)
        return index

    def close(self, index: int, note: Optional[Dict] = None) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span[2] = self.clock()
        if note:
            span[5].update(note)

    def wrap(self, name: str, fn, tag_of=None, note_of=None):
        """``fn`` wrapped so every call records one span named ``name``.

        ``tag_of(*args, **kwargs)`` names what the call served;
        ``note_of(result, *args, **kwargs)`` returns counts to keep.
        """
        recorder = self

        def traced(*args, **kwargs):
            index = recorder.open(name, tag_of(*args, **kwargs) if tag_of else "")
            note = None
            try:
                out = fn(*args, **kwargs)
                if note_of is not None:
                    note = note_of(out, *args, **kwargs)
                return out
            finally:
                recorder.close(index, note)

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str, meta: Optional[Dict] = None) -> None:
        """Write every span as one JSON file (spans must all be closed)."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        with open(path, "w") as handle:
            json.dump({"meta": meta or {}, "spans": self.spans}, handle)


def self_times(spans: Sequence[list]) -> List[float]:
    """Per span: its duration minus the durations of its direct children.

    Spans come from one :class:`SpanRecorder`, so children nest inside
    their parent without overlapping and the subtraction is exact.
    """
    for span in spans:
        if span[2] is None:
            raise ValueError(f"span {span[0]!r} was never closed")
    out = [float(span[2] - span[1]) for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            out[parent] -= span[2] - span[1]
    return out


def layer_totals(spans: Sequence[list]) -> Dict[str, float]:
    """Self time summed per span name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals
