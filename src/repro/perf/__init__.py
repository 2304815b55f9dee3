"""Performance substrate for the analysis pipeline and the checkers.

Imported eagerly with the package (cheap, and needed by every command):

- :mod:`repro.perf.timers` — context-manager phase timers and named
  counters, rendered as a text table by the ``--profile`` CLI flag
  (storage lives in :data:`repro.obs.metrics.REGISTRY`, so manifests
  and span attrs read the same numbers);
- the memo registry below — every process-level memo table in the
  analyzer registers a clear callback here so
  :func:`repro.corpus.loader.clear_cache` can drop them all without
  import cycles.

Everything runs sequentially in-process except sampled-campaign
shards, which ``--jobs N > 1`` puts on N process workers.

Loaded on first use: :mod:`repro.perf.lattice` (the hash-consed
label-set lattice the taint solver runs on, which registers its intern
table as a memo when the solver first imports it and counts its
lookups as ``lattice.intern.*``, so a run that never solves shows no
lattice rows),
:mod:`repro.perf.campaign` (the post-mkfs snapshot cache and the
sharded campaign driver), whose ``SnapshotCache`` resolves lazily from
this package, and the submodules imported by path —
:mod:`~repro.perf.sampling` (campaign samplers) and
:mod:`~repro.perf.procpool` (the process pool campaign shards run on
when ``jobs > 1``).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro import _lazy
from repro.perf.timers import (
    bump,
    counters,
    hit_rates,
    render_profile,
    reset_profile,
    stats,
    timed,
)

__all__ = [
    "bump",
    "counters",
    "clear_memos",
    "hit_rates",
    "register_memo",
    "render_profile",
    "reset_profile",
    "stats",
    "timed",
]

_lazy.install(globals(), {
    "repro.perf.campaign": ("SnapshotCache",),
}, submodules=("lattice",))

#: name -> clear callback for every registered memo table.
_MEMO_REGISTRY: Dict[str, Callable[[], None]] = {}


def register_memo(name: str, clear: Callable[[], None]) -> None:
    """Register a memo table's clear callback under ``name``."""
    _MEMO_REGISTRY[name] = clear


def clear_memos() -> None:
    """Clear every registered memo table (summaries, solver prep,
    label splits, the lattice)."""
    for clear in _MEMO_REGISTRY.values():
        clear()
