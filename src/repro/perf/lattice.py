"""Hash-consed (interned) label-set lattice with a memoized binary join.

The taint solver's domain is "finite sets of labels ordered by
inclusion".  Allocating a fresh ``frozenset`` on every transfer and
comparing by content makes that the hot allocation site of the whole
analysis at fixpoint scale, so this module interns the sets:

- :func:`intern_labels` returns one canonical object per distinct set
  content, so equal sets *are* the same object and "did this transfer
  change anything" degrades to a pointer comparison;
- :func:`join` unions two canonical sets through a memo table keyed by
  object identity, so the joins the fixpoint recomputes over and over
  (the same pair of operand sets meeting at the same instruction) cost
  one dict probe instead of a set union.

Identity keys are safe because the intern table pins every canonical
set alive for the lifetime of the table: an ``id`` can never be
recycled while it is a memo key.  The two tables therefore always clear
*together* (registered as one memo under ``perf.clear_memos``).

Interning takes a small lock so racing workers agree on one canonical
object per content (the solver's change detection relies on identity).
The hit/miss tallies are deliberately unlocked — they are diagnostics,
and a lost increment under thread races is acceptable where a lock on
the join fast path is not.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, Tuple, TypeVar

from repro.perf import register_counter_source, register_memo

L = TypeVar("L")

_LOCK = threading.Lock()

#: content -> the canonical frozenset for that content.
_INTERN: Dict[FrozenSet, FrozenSet] = {}

#: (id(a), id(b)) of canonical sets -> canonical a | b.
_JOIN: Dict[Tuple[int, int], FrozenSet] = {}

#: The canonical empty set (also the lattice bottom).
EMPTY: FrozenSet = frozenset()
_INTERN[EMPTY] = EMPTY

# Unlocked diagnostic tallies (see module docstring).
_HITS = {"intern.hit": 0, "intern.miss": 0, "join.hit": 0, "join.miss": 0}


def intern_labels(labels: Iterable[L]) -> FrozenSet[L]:
    """The canonical frozenset whose content equals ``labels``."""
    content = labels if isinstance(labels, frozenset) else frozenset(labels)
    canonical = _INTERN.get(content)
    if canonical is not None:
        _HITS["intern.hit"] += 1
        return canonical
    with _LOCK:
        canonical = _INTERN.setdefault(content, content)
    _HITS["intern.miss"] += 1
    return canonical


def join(a: FrozenSet[L], b: FrozenSet[L]) -> FrozenSet[L]:
    """Canonical ``a | b`` for two *canonical* sets (memoized)."""
    if a is b:
        return a
    if not a:
        return b
    if not b:
        return a
    key = (id(a), id(b))
    merged = _JOIN.get(key)
    if merged is not None:
        _HITS["join.hit"] += 1
        return merged
    merged = intern_labels(a | b)
    _JOIN[key] = merged
    _HITS["join.miss"] += 1
    return merged


def is_interned(labels: FrozenSet) -> bool:
    """Whether ``labels`` is the canonical object for its content."""
    return _INTERN.get(labels) is labels


def table_sizes() -> Tuple[int, int]:
    """(intern entries, join entries) — table footprint right now."""
    return len(_INTERN), len(_JOIN)


def counters() -> Dict[str, int]:
    """Diagnostic tallies, namespaced for the profile rendering.

    Empty while the tallies are zero, so an idle (or freshly reset)
    process still reports an empty counter snapshot.  Table footprint
    is state rather than profile data — ask :func:`table_sizes`.
    """
    if not any(_HITS.values()):
        return {}
    return {f"lattice.{name}": count for name, count in _HITS.items()}


def reset_tallies() -> None:
    """Zero the diagnostic tallies (the tables themselves survive)."""
    for name in _HITS:
        _HITS[name] = 0


def hit_rate(kind: str = "join") -> float:
    """Memo hit rate in [0, 1] for ``kind`` ('join' or 'intern')."""
    hits = _HITS[f"{kind}.hit"]
    misses = _HITS[f"{kind}.miss"]
    total = hits + misses
    return hits / total if total else 0.0


def clear() -> None:
    """Drop both tables (and re-seat EMPTY) plus the tallies."""
    with _LOCK:
        _JOIN.clear()
        _INTERN.clear()
        _INTERN[EMPTY] = EMPTY
    reset_tallies()


# The intern/join tables are one memo (identity keys from the join
# table point into the intern table, so they always clear together
# through :func:`clear`), and the tallies surface in ``--profile``
# output through the counter-source hook.  Both registrations are
# keyed, so a re-import replaces its entry instead of double-counting.
register_memo("perf.lattice", clear)
register_counter_source(counters, reset_tallies, name="perf.lattice")
