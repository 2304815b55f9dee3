"""Hash-consed (interned) label-set lattice.

The taint solver's domain is "finite sets of labels ordered by
inclusion".  Allocating a fresh ``frozenset`` on every transfer and
comparing by content makes that the hot allocation site of the whole
analysis at fixpoint scale, so this module interns the sets:
:func:`intern_labels` returns one canonical object per distinct set
content, so equal sets *are* the same object and "did this transfer
change anything" degrades to a pointer comparison.  :func:`join`
unions two canonical sets and interns the result.

Interning takes a small lock so racing workers agree on one canonical
object per content (the solver's change detection relies on identity).
Lookups are counted as ``lattice.intern.hit``/``lattice.intern.miss``
in the metrics registry, so they live until ``reset_profile()`` like
every other counter.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, TypeVar

from repro.perf import bump, register_memo

L = TypeVar("L")

_LOCK = threading.Lock()

#: content -> the canonical frozenset for that content.
_INTERN: Dict[FrozenSet, FrozenSet] = {}

#: The canonical empty set (also the lattice bottom).
EMPTY: FrozenSet = frozenset()
_INTERN[EMPTY] = EMPTY


def intern_labels(labels: Iterable[L]) -> FrozenSet[L]:
    """The canonical frozenset whose content equals ``labels``."""
    content = labels if isinstance(labels, frozenset) else frozenset(labels)
    canonical = _INTERN.get(content)
    if canonical is not None:
        bump("lattice.intern.hit")
        return canonical
    with _LOCK:
        canonical = _INTERN.setdefault(content, content)
    bump("lattice.intern.miss")
    return canonical


def join(a: FrozenSet[L], b: FrozenSet[L]) -> FrozenSet[L]:
    """Canonical ``a | b`` for two *canonical* sets."""
    if a is b or not b:
        return a
    if not a:
        return b
    return intern_labels(a | b)


def is_interned(labels: FrozenSet) -> bool:
    """Whether ``labels`` is the canonical object for its content."""
    return _INTERN.get(labels) is labels


def clear() -> None:
    """Drop the intern table (and re-seat EMPTY)."""
    with _LOCK:
        _INTERN.clear()
        _INTERN[EMPTY] = EMPTY


register_memo("perf.lattice", clear)
