"""Phase timers and counters for the analysis pipeline.

Instrumentation is always on — one dict update per phase enter/exit is
far below the noise floor of the phases it measures — and thread-safe,
because the service records from its request and worker threads
(extraction itself runs sequentially).  ``repro-extract --profile``
prints the accumulated breakdown via :func:`render_profile`.

Storage lives in the observability layer's metrics registry
(:data:`repro.obs.metrics.REGISTRY`): the functions here are thin
views over it, so ``--profile`` output, run manifests
(:mod:`repro.obs.manifest`), and span attributes all read the *same*
numbers.

Typical use::

    from repro.perf import timed, bump

    with timed("frontend.compile"):
        module = compile_c(source, filename)
    bump("cache.disk.miss")
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator

from repro.common.texttable import TextTable
from repro.obs.metrics import REGISTRY, PhaseStat

__all__ = [
    "PhaseStat",
    "bump",
    "counters",
    "hit_rates",
    "render_profile",
    "reset_profile",
    "stats",
    "timed",
]


@contextmanager
def timed(phase: str) -> Iterator[None]:
    """Accumulate the wall time of the ``with`` body under ``phase``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        REGISTRY.record_phase(phase, time.perf_counter() - start)


def bump(counter: str, amount: int = 1) -> None:
    """Increment the named counter."""
    REGISTRY.bump(counter, amount)


def stats() -> Dict[str, PhaseStat]:
    """Snapshot of the phase timings."""
    return REGISTRY.stats()


def counters() -> Dict[str, int]:
    """Snapshot of the counters."""
    return REGISTRY.counters()


def reset_profile() -> None:
    """Drop all accumulated timings and counters."""
    REGISTRY.reset()


def render_profile(title: str = "pipeline profile") -> str:
    """Render phases and counters as one diff-friendly text block."""
    phase_table = TextTable(["phase", "calls", "total s", "mean ms"], title=title)
    phase_snapshot = stats()
    for name in sorted(phase_snapshot):
        stat = phase_snapshot[name]
        phase_table.add_row(name, stat.calls, f"{stat.seconds:.4f}",
                            f"{stat.mean_ms:.3f}")
    lines = [phase_table.render()]
    counter_snapshot = counters()
    if counter_snapshot:
        counter_table = TextTable(["counter", "count"])
        for name in sorted(counter_snapshot):
            counter_table.add_row(name, counter_snapshot[name])
        lines.append("")
        lines.append(counter_table.render())
    rates = hit_rates(counter_snapshot)
    if rates:
        rate_table = TextTable(["memo", "hit rate"])
        for name in sorted(rates):
            rate_table.add_row(name, f"{rates[name] * 100:.1f}%")
        lines.append("")
        lines.append(rate_table.render())
    return "\n".join(lines)


def hit_rates(counter_snapshot: Dict[str, int]) -> Dict[str, float]:
    """Hit rates derived from every ``<memo>.hit``/``<memo>.miss`` pair."""
    rates: Dict[str, float] = {}
    for name, hits in counter_snapshot.items():
        if not name.endswith(".hit"):
            continue
        base = name[: -len(".hit")]
        misses = counter_snapshot.get(f"{base}.miss")
        if misses is None:
            continue
        total = hits + misses
        if total:
            rates[base] = hits / total
    return rates
