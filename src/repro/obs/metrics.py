"""The metrics registry: phase timings, counters, histograms and
gauges, one store.

:mod:`repro.perf.timers` is a thin view over the process-wide
:data:`REGISTRY`, so ``--profile`` output, run manifests and span
attrs all read the same numbers.  Every counter is stored here, so
one :meth:`MetricsRegistry.reset` (``reset_profile()``) zeroes them
all, and nothing else does.

This module deliberately imports nothing from :mod:`repro.perf` or
:mod:`repro.analysis` — it sits at the bottom of the observability
stack and everything else layers on top.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass
class PhaseStat:
    """Accumulated wall time of one named phase."""

    calls: int = 0
    seconds: float = 0.0

    @property
    def mean_ms(self) -> float:
        """Mean wall time per call, in milliseconds."""
        if not self.calls:
            return 0.0
        return self.seconds / self.calls * 1e3


class Histogram:
    """Bounded log-bucket histogram of nonnegative samples.

    Buckets are log\\ :sub:`2`-spaced upper bounds ``base * 2**i`` —
    with the defaults, 1 ms up to ~524 s — so one fixed, tiny array
    (``buckets + 1`` ints, the last being the overflow bucket) covers
    six decades of latency with ~2x relative resolution.  The layout is
    deliberately the Prometheus histogram shape: cumulative
    ``bucket(le=bound)`` counts plus ``sum`` and ``count``, which is
    what :mod:`repro.obs.prom` renders on ``GET /v1/metrics``.

    Memory and cost are O(buckets) regardless of sample volume: an
    ``observe`` is a bit-length bucket index plus two adds, so the
    fleet-telemetry layer can observe every run and HTTP request
    without a reservoir or decay machinery.  Thread safety is the
    caller's job — :class:`MetricsRegistry` observes under its lock.
    """

    __slots__ = ("base", "bounds", "counts", "count", "sum",
                 "min", "max")

    def __init__(self, base: float = 0.001, buckets: int = 20) -> None:
        if base <= 0 or buckets < 1:
            raise ValueError("histogram needs base > 0 and buckets >= 1")
        self.base = float(base)
        self.bounds: Tuple[float, ...] = tuple(
            base * (1 << i) for i in range(buckets))
        #: per-bucket (non-cumulative) counts; [-1] is the overflow.
        self.counts: List[int] = [0] * (buckets + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value: float) -> None:
        """Fold one sample in (negatives clamp to the first bucket)."""
        value = float(value)
        if value < 0.0:
            value = 0.0
        # Smallest i with value <= base * 2**i, via integer bit length:
        # ratio in (2**(i-1), 2**i] must land in bucket i.
        ratio = value / self.base
        if ratio <= 1.0:
            index = 0
        else:
            whole = int(ratio)
            index = whole.bit_length() - (1 if whole & (whole - 1) == 0
                                          and whole == ratio else 0)
            if index >= len(self.bounds):
                index = len(self.bounds)  # overflow bucket
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def cumulative(self) -> List[Tuple[float, int]]:
        """Prometheus-shaped ``(le bound, cumulative count)`` pairs.

        The final pair is ``(inf, count)`` — the ``+Inf`` bucket.
        """
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.counts):
            running += bucket
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    def quantile(self, q: float) -> float:
        """Estimated q-quantile: the upper bound of the covering bucket.

        Returns 0.0 on an empty histogram; the overflow bucket reports
        the largest observed sample (the only honest bound we have).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        running = 0
        for bound, bucket in zip(self.bounds, self.counts):
            running += bucket
            if running >= rank:
                return bound
        return self.max

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical buckets into this one."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for index, bucket in enumerate(other.counts):
            self.counts[index] += bucket
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def copy(self) -> "Histogram":
        clone = Histogram.__new__(Histogram)
        clone.base = self.base
        clone.bounds = self.bounds
        clone.counts = list(self.counts)
        clone.count = self.count
        clone.sum = self.sum
        clone.min = self.min
        clone.max = self.max
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram(count={self.count}, sum={self.sum:.6f}, "
                f"buckets={len(self.bounds)})")


class MetricsRegistry:
    """Thread-safe store of phase timings, counters, histograms and
    gauges."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: Dict[str, PhaseStat] = {}
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record_phase(self, phase: str, seconds: float) -> None:
        """Fold one timed call into the named phase."""
        with self._lock:
            stat = self._stats.setdefault(phase, PhaseStat())
            stat.calls += 1
            stat.seconds += seconds

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment the named counter."""
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + amount

    def observe(self, name: str, value: float) -> None:
        """Fold one sample into the named histogram (created on first use)."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the named gauge to an instantaneous value.

        Counters only go up; a gauge is a level — waiters currently
        blocked, bytes currently cached — that rises and falls and is
        rendered as a Prometheus ``gauge`` rather than ``counter``.
        """
        with self._lock:
            self._gauges[name] = float(value)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, PhaseStat]:
        """Snapshot of the phase timings."""
        with self._lock:
            return {name: PhaseStat(s.calls, s.seconds)
                    for name, s in self._stats.items()}

    def counters(self) -> Dict[str, int]:
        """Snapshot of the counters."""
        with self._lock:
            return dict(self._counters)

    def histograms(self) -> Dict[str, Histogram]:
        """Snapshot (deep copies) of every histogram."""
        with self._lock:
            return {name: hist.copy()
                    for name, hist in self._histograms.items()}

    def gauges(self) -> Dict[str, float]:
        """Snapshot of the gauges."""
        with self._lock:
            return dict(self._gauges)

    def reset(self) -> None:
        """Drop all timings, counters, histograms, and gauges."""
        with self._lock:
            self._stats.clear()
            self._counters.clear()
            self._histograms.clear()
            self._gauges.clear()


#: The process-wide registry every subsystem records into.
REGISTRY = MetricsRegistry()
