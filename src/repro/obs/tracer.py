"""Hierarchical tracing with cross-process span grafting.

Every instrumented phase of the pipeline opens a *span* — a named,
timed interval carrying structured attributes — and spans nest into a
tree via a :mod:`contextvars` context variable.  Campaign shards that
run on process workers (``--jobs N > 1``) record under a worker-local
tracer and ship their spans back; the parent grafts them under the
span :func:`capture` returned at submit time, so such a run produces
the *same single rooted tree* as a sequential one — only timings
differ.

Cost model
----------

Tracing is off unless a :class:`Tracer` has been installed with
:func:`enable`.  The disabled path of :func:`span` is one module-global
load, one ``is None`` test, and returning a shared no-op context
manager — well under a microsecond, and the instrumentation sites are
per-function/per-phase (never per-instruction), so a full-corpus
extraction executes a few hundred to a few thousand of them.
``benchmarks/bench_obs.py`` enforces the resulting overhead stays
below 5% of the extraction wall time.

Typical use::

    from repro.obs import tracer

    t = tracer.Tracer("repro-extract")
    with tracer.enabled(t):
        with tracer.span("extract.scenario", scenario=spec.name):
            ...
    tree = t.roots()
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: The span the current logical context is inside of (per thread and
#: per context).
_CURRENT: ContextVar[Optional["Span"]] = ContextVar("repro_obs_span",
                                                    default=None)

#: The installed tracer, or None when tracing is off.  A plain module
#: global (not a contextvar): one trace session per process is the
#: model, and the disabled fast path must be a single load.
_ACTIVE: Optional["Tracer"] = None


class Span:
    """One named, timed interval in the trace tree.

    ``span_id`` is unique within the owning tracer; ``parent_id`` is
    ``None`` for roots.  ``start_wall`` is an epoch timestamp (for
    humans and exporters); ``start``/``duration`` come from the
    monotonic clock (for arithmetic).  ``attrs`` values must be
    JSON-serializable — they flow into the JSONL sink verbatim.
    """

    __slots__ = ("name", "span_id", "parent_id", "start_wall", "start",
                 "duration", "attrs", "thread", "error")

    def __init__(self, name: str, span_id: int, parent_id: Optional[int],
                 attrs: Dict[str, Any]) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_wall = time.time()
        self.start = time.perf_counter()
        self.duration = 0.0
        self.attrs = attrs
        self.thread = threading.current_thread().name
        self.error: Optional[str] = None

    def set_attr(self, key: str, value: Any) -> None:
        """Attach one attribute to an open (or finished) span."""
        self.attrs[key] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, dur={self.duration:.6f})")


class Tracer:
    """Collects finished spans for one run.

    Thread-safe: span ids are allocated and finished spans appended
    under a lock.  Spans are recorded in *finish* order; use
    :meth:`roots`/:meth:`children` to reconstruct the tree.
    """

    def __init__(self, name: str = "repro",
                 traceparent: Optional[str] = None) -> None:
        self.name = name
        self.created_wall = time.time()
        #: W3C-style trace context this tracer belongs to, or None.
        #: Set when the run was initiated elsewhere (a service submit)
        #: so trace files from different processes can be matched up.
        self.traceparent = traceparent
        self._lock = threading.Lock()
        self._next_id = 0
        self.spans: List[Span] = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str, attrs: Dict[str, Any],
              parent: Optional[Span]) -> Span:
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        return Span(name, span_id,
                    parent.span_id if parent is not None else None, attrs)

    def _close(self, span: Span) -> None:
        span.duration = time.perf_counter() - span.start
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, attrs: Dict[str, Any]) -> Iterator[Span]:
        """Open a child of the context's current span; record on exit."""
        parent = _CURRENT.get()
        span = self._open(name, attrs, parent)
        token = _CURRENT.set(span)
        try:
            yield span
        except BaseException as exc:
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            _CURRENT.reset(token)
            self._close(span)

    # -- tree queries ---------------------------------------------------

    def roots(self) -> List[Span]:
        """Spans with no parent, in start order."""
        with self._lock:
            spans = list(self.spans)
        return sorted((s for s in spans if s.parent_id is None),
                      key=lambda s: s.span_id)

    def children(self, span: Span) -> List[Span]:
        """Direct children of ``span``, in span-id (start) order."""
        with self._lock:
            spans = list(self.spans)
        return sorted((s for s in spans if s.parent_id == span.span_id),
                      key=lambda s: s.span_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)


class _NoopSpan:
    """Shared, stateless no-op context manager for the disabled path.

    Reentrant and thread-safe by construction: ``__enter__`` and
    ``__exit__`` touch no state, so one instance serves every call
    site concurrently.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set_attr(self, key: str, value: Any) -> None:
        """Attribute writes on the disabled path are dropped."""


_NOOP = _NoopSpan()


# ---------------------------------------------------------------------------
# module-level API (what call sites use)
# ---------------------------------------------------------------------------


def span(name: str, **attrs: Any):
    """A span context manager, or a shared no-op when tracing is off."""
    tracer = _ACTIVE
    if tracer is None:
        return _NOOP
    return tracer.span(name, attrs)


def active() -> Optional[Tracer]:
    """The installed tracer, or None."""
    return _ACTIVE


def is_enabled() -> bool:
    """Whether a tracer is installed."""
    return _ACTIVE is not None


def enable(tracer: Tracer) -> None:
    """Install ``tracer`` as the process-wide span sink."""
    global _ACTIVE
    _ACTIVE = tracer


def disable() -> None:
    """Remove the installed tracer (span() reverts to the no-op)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def enabled(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of the ``with`` body."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def current() -> Optional[Span]:
    """The span the calling context is inside of, if any."""
    return _CURRENT.get()


# ---------------------------------------------------------------------------
# cross-process handoff (used by the campaign process pool)
# ---------------------------------------------------------------------------


def capture() -> Optional[Span]:
    """The span worker-side spans should graft under.

    Called in the submitting process before shards fan out.  Returns
    ``None`` when tracing is disabled (the cheap common case) or no
    span is open.
    """
    if _ACTIVE is None:
        return None
    return _CURRENT.get()


def export_spans(tracer: Tracer) -> List[Dict[str, Any]]:
    """Every recorded span as a plain dict (for a queue/pipe crossing).

    Span ids are only meaningful within ``tracer``; :func:`graft`
    remaps them into the receiving tracer's id space.
    """
    with tracer._lock:
        spans = list(tracer.spans)
    return [{
        "name": s.name,
        "span_id": s.span_id,
        "parent_id": s.parent_id,
        "start_wall": s.start_wall,
        "start": s.start,
        "duration": s.duration,
        "attrs": s.attrs,
        "thread": s.thread,
        "error": s.error,
    } for s in spans]


def graft(exported: List[Dict[str, Any]], tracer: Tracer,
          parent: Optional[Span] = None) -> int:
    """Splice spans exported from another process into ``tracer``.

    Fresh span ids are allocated under the receiving tracer's lock so
    referential integrity holds alongside locally recorded spans;
    worker-side roots re-parent to ``parent`` (the span that was open
    at fan-out time), which keeps a ``--jobs N --trace`` sharded
    campaign a *single* rooted tree.  Returns the number of spans grafted.
    """
    if not exported:
        return 0
    with tracer._lock:
        # Allocate new ids in the worker's *start* order (ids were
        # handed out at open time) so sort-by-span_id keeps meaning
        # "start order" after the graft.
        remap: Dict[int, int] = {}
        for record in sorted(exported, key=lambda r: r["span_id"]):
            tracer._next_id += 1
            remap[record["span_id"]] = tracer._next_id
        for record in exported:
            span = Span.__new__(Span)
            span.name = record["name"]
            span.span_id = remap[record["span_id"]]
            old_parent = record["parent_id"]
            if old_parent is not None and old_parent in remap:
                span.parent_id = remap[old_parent]
            else:
                span.parent_id = parent.span_id if parent is not None else None
            span.start_wall = record["start_wall"]
            span.start = record["start"]
            span.duration = record["duration"]
            span.attrs = dict(record["attrs"])
            span.thread = record["thread"]
            span.error = record["error"]
            tracer.spans.append(span)
    return len(exported)


# ---------------------------------------------------------------------------
# trace context (traceparent) — identifies a trace ACROSS processes
# ---------------------------------------------------------------------------
#
# Span ids stitch a tree together *within* one trace file; they say
# nothing about which distributed operation the file belongs to.  The
# serving layer needs that second identity: a run submitted over HTTP
# is executed by a worker (separate process) which may fan campaign
# shards out to pool children (more processes), and `repro-runs trace` must find and trust
# that all those fragments describe the same run.  We borrow the W3C
# Trace Context wire shape — `00-<32hex trace-id>-<16hex span-id>-01` —
# because it is compact, greppable, and lets any OTel-literate reader
# interpret our ids, without importing any of the surrounding spec.
#
# The trace id is DERIVED (sha256) from the request key rather than
# random: the queue dedups runs by content, so identical submissions
# share a run AND a trace id by construction, and re-deriving it
# anywhere in the fleet needs no coordination.
#
# The environment variable is the un-prefixed `TRACEPARENT` (the
# convention emerging around OTel CLI tooling), NOT `REPRO_TRACEPARENT`:
# `repro.perf.procpool.env_signature()` snapshots every `REPRO_*` variable
# to key the campaign process pool, and a per-run-unique value there
# would retire the warm pool on every service run.

#: ``version-traceid-spanid-flags`` per W3C Trace Context level 1.
_TRACEPARENT_RE = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")

#: Environment variable carrying trace context across exec boundaries.
TRACEPARENT_ENV = "TRACEPARENT"


def make_traceparent(seed: str, span_seed: str = "root") -> str:
    """A deterministic traceparent derived from ``seed``.

    ``seed`` is typically a request key: every process that knows the
    key derives the same trace id with no coordination.  ``span_seed``
    varies the parent-span-id half (e.g. per attempt) while keeping
    the trace id stable.
    """
    trace_id = hashlib.sha256(f"trace:{seed}".encode()).hexdigest()[:32]
    span_id = hashlib.sha256(
        f"span:{seed}:{span_seed}".encode()).hexdigest()[:16]
    return f"00-{trace_id}-{span_id}-01"


def parse_traceparent(text: str) -> Optional[Tuple[str, str]]:
    """``(trace_id, span_id)`` when ``text`` is well-formed, else None."""
    match = _TRACEPARENT_RE.match(text.strip().lower())
    if not match:
        return None
    return match.group(1), match.group(2)


#: Thread-scoped traceparent override (see :func:`traceparent_scope`).
_SCOPED_TRACEPARENT: ContextVar[Optional[str]] = ContextVar(
    "repro_obs_traceparent", default=None)


@contextmanager
def traceparent_scope(traceparent: Optional[str]) -> Iterator[None]:
    """Hand trace context to the ``with`` body without touching env.

    ``os.environ`` is process-global: a service worker running several
    jobs concurrently cannot export each job's traceparent there
    without the jobs clobbering each other.  This scope carries the
    value in a :class:`~contextvars.ContextVar` instead, which
    :func:`traceparent_from_env` consults before the environment — so
    in-process callers (the service worker's exec slots) get per-job
    context while exec'd children still inherit via the variable.
    """
    token = _SCOPED_TRACEPARENT.set(traceparent)
    try:
        yield
    finally:
        _SCOPED_TRACEPARENT.reset(token)


def traceparent_from_env() -> Optional[str]:
    """The (validated) trace context handed to this process, if any.

    A :func:`traceparent_scope` override wins over the environment —
    it is more specific (per thread/job, not per process).
    """
    raw = _SCOPED_TRACEPARENT.get() or os.environ.get(TRACEPARENT_ENV)
    if not raw:
        return None
    parsed = parse_traceparent(raw)
    if parsed is None:
        return None
    return raw.strip().lower()
