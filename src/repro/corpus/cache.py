"""Persistent on-disk caches: unit indexes, per-function analysis
summaries, and finished extraction reports.

Three stores share one directory, one serializer and one invalidation
rule with the command store (:mod:`repro.store`): every entry is
pickled, and keys derive from **content and code, not timestamps**.
Every key covers the inputs of its entry and the *package digest*
(:func:`repro.store.package_digest`: sha256, computed once per
process, over every source and data file of the ``repro`` package,
and with them every class an entry can hold).  An edit to the corpus
or to the package moves the key, so a stale entry is never *wrong*,
only unreachable.  When the digest cannot be computed (sources
unreadable) every store is skipped.

**Unit sources.**  :func:`read_unit` reads and hashes each corpus unit
once per process (until :func:`repro.corpus.loader.clear_cache`): the
loader builds its units from those bytes and the report key is taken
from the same hashes, so a report is stored only under the sources it
was extracted from, whatever happens to the files meanwhile.

**IR cache** (``<key>.ir.pkl``).  What extraction reads of a unit
whose functions the analysis store answers is its function index, not
its IR.  Each unit's index is kept under

    sha256(cache schema | frontend version | package digest | filename
           | source text)

as the pair ``(lines, slices)``: ``lines`` maps each function to its
definition line and ``slices`` to its source-slice hash (below).  No
IR is stored: a unit that misses is outlined (lexed, its declarations
parsed, its bodies skipped), which yields the index, and IR is
compiled only for the function bodies an analysis has to run on (see
:mod:`repro.corpus.loader`).

**Function-level analysis store** (``<key>.an.pkl``).  A fresh process
would otherwise redo every taint fixpoint even when the corpus had not
changed.  The store keeps what extraction reads of one analyzed
function — a :class:`~repro.analysis.extractor.FunctionSummary`: its
metadata-field stores, its findings and its definition line when it
was stored — keyed by the function's **source slice**, not the whole
unit:

    sha256(cache schema | frontend version | package digest | filename
           | function | slice hash | sources fingerprint | component)

The slice hash (:func:`function_slices`) covers the unit's *context*,
everything a body is compiled against (the tokens outside the function
bodies plus the macro table, so a macro defined late or inside a body
counts too), and the function's own text, so editing one function's
body re-analyzes *that function only*; every other function in the
unit — and every other unit — keeps hitting the store.  A hit for a
function that has moved (lines added or removed in a body above it,
or comments and blank lines between functions) shifts the lines it
reports by the move.  The analysis is
intra-procedural and the metadata bridge joins the summaries live
after loading, so an entry depends on nothing its key leaves out.
Taint states are not stored: the consumers that need one (provenance,
the inter-procedural engine) compute it.

**Report store** (``reports/<key>.report.pkl``).  A fresh command over
an unchanged corpus needs the finished
:class:`~repro.analysis.extractor.ExtractionReport`, not the IR or the
per-function summaries it was assembled from.  One pickled report per
extraction is kept under

    sha256(cache schema | frontend version | package digest
           | extractor class | scenario specs
           | every scenario unit's IR cache key)

A hit costs one source read and hash per unit, one file read and one
unpickle: no index, no store entry, no bridge, and none of the
analysis modules are imported.  Any edit to a scenario unit misses
and falls through to the two stores above.  The in-memory
:func:`repro.corpus.loader.clear_cache` drops reports as well, so an
extraction after it is assembled from the two stores; reports live in
their own subdirectory so that drop lists the reports only, not every
IR and analysis entry.

No store is pruned: the entries of an edited corpus or code state stay
on disk, unreachable, until :func:`clear_disk_cache`, which also
deletes the command store's entries (``*.cmd.json``).  All entries are
written atomically (temp file + ``os.replace``) so concurrent
processes never observe a torn entry.  An entry that fails to
unpickle, or unpickles to the wrong shape (not an index, not a
summary, not a report), is tallied as an error and deleted, so the
next lookup is a clean miss.

Knobs:

- ``REPRO_CACHE_DIR``      — cache directory (default ``~/.cache/repro/ir``)
- ``REPRO_NO_DISK_CACHE``  — set to ``1`` to disable every store entirely
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Optional,
                    Tuple)

from repro.corpus import corpus_dir
from repro.lang import FRONTEND_VERSION
from repro.obs.tracer import span
from repro.perf import bump, timed
# The directory, the switch, atomic writes and the digest every key
# covers are shared with the command store; callers keep reading the
# first four from here.
from repro.store import (  # noqa: F401
    CACHE_DIR_ENV,
    COMMAND_SUFFIX,
    DISABLE_ENV,
    TMP_PREFIX,
    cache_dir,
    disk_cache_enabled,
    package_digest,
    remove_entries,
)
from repro.store import write_atomic as _write_atomic

if TYPE_CHECKING:
    from repro.lang.frontend import Outline

#: Bump when the on-disk entry layout itself changes.
CACHE_SCHEMA = 3

#: File-name suffixes of the three stores' entries.
_MODULE_SUFFIX = ".ir.pkl"
_ANALYSIS_SUFFIX = ".an.pkl"
_REPORT_SUFFIX = ".report.pkl"

#: Subdirectory of the cache directory that holds the report store.
REPORT_DIR = "reports"


@dataclass
class DiskCacheStats:
    """Per-process tallies of disk-cache traffic.

    Increment through :meth:`tally`: a bare ``stats.hits += 1`` is a
    read-modify-write that loses updates under thread concurrency (API
    threads and in-process workers share these objects), while the
    locked tally keeps ``hits + misses + errors`` equal to the number
    of loads no matter the interleaving.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0

    def tally(self, field: str, amount: int = 1) -> None:
        """Atomically add to one tally field."""
        with _STATS_LOCK:
            setattr(self, field, getattr(self, field) + amount)


#: One lock for every stats object: increments are rare relative to
#: the file I/O around them, and sharing keeps the dataclass flat.
_STATS_LOCK = threading.Lock()


_STATS = DiskCacheStats()

#: Separate tallies for the function-level analysis store.
_AN_STATS = DiskCacheStats()

#: Separate tallies for the report store.
_REPORT_STATS = DiskCacheStats()


def cache_stats() -> DiskCacheStats:
    """The process-wide disk-cache tallies (live object)."""
    return _STATS


def analysis_stats() -> DiskCacheStats:
    """The process-wide analysis-store tallies (live object)."""
    return _AN_STATS


def report_stats() -> DiskCacheStats:
    """The process-wide report-store tallies (live object)."""
    return _REPORT_STATS


def reset_cache_stats() -> None:
    """Zero the tallies (used by tests and benchmarks)."""
    for tallies in (_STATS, _AN_STATS, _REPORT_STATS):
        tallies.hits = tallies.misses = tallies.stores = tallies.errors = 0


def module_key(source: str, filename: str) -> str:
    """Content and code hash identifying one translation unit.

    Also the unit's in-memory fingerprint, so it is never empty; the
    loader skips the IR cache when :func:`package_digest` is ''.
    """
    digest = hashlib.sha256()
    digest.update(f"schema={CACHE_SCHEMA}\n".encode("utf-8"))
    digest.update(f"frontend={FRONTEND_VERSION}\n".encode("utf-8"))
    digest.update(f"code={package_digest()}\n".encode("utf-8"))
    digest.update(f"filename={filename}\n".encode("utf-8"))
    digest.update(source.encode("utf-8"))
    return digest.hexdigest()


def _entry_path(key: str) -> str:
    return os.path.join(cache_dir(), f"{key}{_MODULE_SUFFIX}")


def _load(store: str, tallies: DiskCacheStats, key: str, path: str,
          accept: Callable[[Any], bool]) -> Optional[Any]:
    """Unpickle the entry at ``path`` if ``accept`` takes it, else None.

    ``store`` names the span and counters (``cache.<store>.*``).  An
    absent entry is a miss; one that fails to unpickle (torn,
    truncated, version-skewed) or unpickles to something ``accept``
    rejects is an error, and it is deleted so the next lookup is a
    clean miss.
    """
    try:
        with span(f"cache.{store}.load", key=key[:12]), \
                timed(f"cache.{store}.load"):
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        if not accept(value):
            raise TypeError(f"entry holds a {type(value).__name__}")
    except FileNotFoundError:
        tallies.tally("misses")
        bump(f"cache.{store}.miss")
        return None
    except Exception:
        _discard(store, tallies, path)
        return None
    tallies.tally("hits")
    bump(f"cache.{store}.hit")
    return value


def _discard(store: str, tallies: DiskCacheStats, path: str) -> None:
    """Tally a bad entry as an error and delete it."""
    tallies.tally("errors")
    bump(f"cache.{store}.error")
    try:
        os.remove(path)
    except OSError:
        pass


def _store(store: str, tallies: DiskCacheStats, key: str, path: str,
           value: Any) -> bool:
    """Atomically pickle ``value`` to ``path``; False on failure.

    Failures (read-only cache dir, disk full, an unpicklable value) are
    non-fatal: the store degrades to a recompute, never to an error.
    """
    try:
        with span(f"cache.{store}.store", key=key[:12]), \
                timed(f"cache.{store}.store"):
            _write_atomic(path, lambda handle: pickle.dump(
                value, handle, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        tallies.tally("errors")
        bump(f"cache.{store}.error")
        return False
    tallies.tally("stores")
    bump(f"cache.{store}.store")
    return True


def _is_index(value: Any) -> bool:
    """Whether ``value`` is a ``(lines, slices)`` unit index."""
    return (type(value) is tuple and len(value) == 2
            and type(value[0]) is dict and type(value[1]) is dict
            and value[0].keys() == value[1].keys()
            and all(type(line) is int for line in value[0].values())
            and all(type(digest) is str for digest in value[1].values()))


def load_index(key: str) -> Optional[Tuple[Dict[str, int], Dict[str, str]]]:
    """The unit index under ``key`` — each function's definition line
    and source-slice hash; None on miss/corruption."""
    return _load("disk", _STATS, key, _entry_path(key), _is_index)


def store_index(key: str, lines: Dict[str, int],
                slices: Dict[str, str]) -> bool:
    """Atomically persist one unit index under ``key``; False on
    failure."""
    return _store("disk", _STATS, key, _entry_path(key), (lines, slices))


#: Path -> (source, module key) of each unit read.
_SOURCES: Dict[str, Tuple[str, str]] = {}


def read_unit(filename: str, path: str = "",
              memo: bool = True) -> Tuple[str, str]:
    """Corpus unit ``filename``'s source text and :func:`module_key`,
    read from ``path`` (default: the unit in :func:`corpus_dir`).

    With ``memo`` the file is read and hashed once per process, until
    :func:`forget_sources`; the first read wins, so every caller sees
    the same bytes.  Raises ``OSError`` when the unit cannot be read.
    """
    path = path or os.path.join(corpus_dir(), filename)
    entry = _SOURCES.get(path) if memo else None
    if entry is None:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        entry = (source, module_key(source, filename))
        if memo:
            entry = _SOURCES.setdefault(path, entry)
    return entry


def forget_sources() -> None:
    """Drop every memoized unit source (the next read goes to disk)."""
    _SOURCES.clear()


def _report_dir() -> str:
    return os.path.join(cache_dir(), REPORT_DIR)


def clear_disk_cache() -> int:
    """Delete every cache entry (all stores); returns the count.

    Covers the IR cache (``*.ir.pkl``), the function-level analysis
    store (``*.an.pkl``, and the ``*.an.bin`` entries of its retired
    binary format), the report store (``reports/*.report.pkl``, and
    reports of the older layout beside the other entries), the command
    store (``*.cmd.json``) and the temp files killed writers leave
    behind in either directory, so a cleared cache directory can never
    serve half a pipeline (or a whole report, or a command's output)
    from before the clear.
    """
    def entry(name: str) -> bool:
        return (name.endswith((_MODULE_SUFFIX, _ANALYSIS_SUFFIX, ".an.bin",
                               _REPORT_SUFFIX, COMMAND_SUFFIX))
                or name.startswith(TMP_PREFIX))

    removed = remove_entries(entry) + remove_entries(entry, _report_dir())
    try:
        os.rmdir(_report_dir())
    except OSError:
        pass
    return removed


def clear_reports() -> int:
    """Delete every report-store entry, leaving the other stores warm.

    What a benchmark or a test calls to time or check the IR cache and
    the analysis store underneath a report that would otherwise hit.
    Lists the report directory only, so it costs the same however many
    IR and analysis entries have accumulated.
    """
    return remove_entries(lambda name: name.endswith(_REPORT_SUFFIX),
                          _report_dir())


# ---------------------------------------------------------------------------
# function source slices
# ---------------------------------------------------------------------------


def function_slices(outline: Outline) -> Dict[str, str]:
    """Per-function source-slice hashes for one outlined unit.

    A function's slice is the unit's *context* — the tokens outside
    the function bodies plus the macro table, since macros expand
    across the whole unit wherever they are defined — and the
    function's own text, from its definition line to its closing
    brace (:meth:`repro.lang.frontend.Outline.texts`).  Hash of slice
    unchanged ⇒ the function's analysis inputs from this unit are
    unchanged.  Positions outside the function are not hashed: an edit
    inside one body, or a comment or blank line between two functions,
    moves the functions below it without changing their slices.
    """
    context, own = outline.texts()
    shared = hashlib.sha256(context.encode("utf-8")).hexdigest()
    out: Dict[str, str] = {}
    for name, text in own.items():
        digest = hashlib.sha256(shared.encode("ascii"))
        digest.update(text.encode("utf-8"))
        out[name] = digest.hexdigest()
    return out


def analysis_key(filename: str, function: str, slice_hash: str,
                 sources_fp: str, component: str) -> str:
    """Content and code hash identifying one function's analysis
    result; '' when the result cannot be keyed (sources unreadable)."""
    code = package_digest()
    if not code:
        return ""
    digest = hashlib.sha256()
    digest.update(f"schema={CACHE_SCHEMA}\n".encode("utf-8"))
    digest.update(f"frontend={FRONTEND_VERSION}\n".encode("utf-8"))
    digest.update(f"code={code}\n".encode("utf-8"))
    digest.update(f"filename={filename}\n".encode("utf-8"))
    digest.update(f"function={function}\n".encode("utf-8"))
    digest.update(f"slice={slice_hash}\n".encode("utf-8"))
    digest.update(f"sources={sources_fp}\n".encode("utf-8"))
    digest.update(f"component={component}\n".encode("utf-8"))
    return digest.hexdigest()


def _analysis_path(key: str) -> str:
    return os.path.join(cache_dir(), f"{key}{_ANALYSIS_SUFFIX}")


# ---------------------------------------------------------------------------
# function-level analysis store
# ---------------------------------------------------------------------------


def load_analysis(key: str, kind: type) -> Optional[Any]:
    """The cached function summary under ``key`` if it is a ``kind``,
    else None.

    A corrupt, truncated or wrong-shape entry is a deleted miss: the
    store degrades to a recompute, never to a wrong result.
    """
    return _load("an", _AN_STATS, key, _analysis_path(key),
                 lambda value: isinstance(value, kind))


def store_analysis(key: str, summary: Any) -> bool:
    """Atomically persist one function summary; False on failure."""
    return _store("an", _AN_STATS, key, _analysis_path(key), summary)


# ---------------------------------------------------------------------------
# report store
# ---------------------------------------------------------------------------

def report_key(extractor: str, scenarios: str,
               units: Iterable[Tuple[str, str]]) -> str:
    """Content hash identifying one extraction report; '' when the
    report cannot be keyed (sources unreadable).

    ``extractor`` names the extractor class, ``scenarios`` is the
    scenario specs' repr, and ``units`` gives every scenario unit's
    filename and :func:`module_key` (which covers its source).
    """
    code = package_digest()
    if not code:
        return ""
    digest = hashlib.sha256()
    digest.update(f"schema={CACHE_SCHEMA}\n".encode("utf-8"))
    digest.update(f"frontend={FRONTEND_VERSION}\n".encode("utf-8"))
    digest.update(f"code={code}\n".encode("utf-8"))
    digest.update(f"extractor={extractor}\n".encode("utf-8"))
    digest.update(f"scenarios={scenarios}\n".encode("utf-8"))
    for filename, key in units:
        digest.update(f"unit={filename} {key}\n".encode("utf-8"))
    return digest.hexdigest()


def _report_path(key: str) -> str:
    return os.path.join(_report_dir(), f"{key}{_REPORT_SUFFIX}")


def load_report(key: str, kind: type) -> Optional[Any]:
    """The cached report under ``key`` if it is a ``kind``, else None.

    A torn, truncated or foreign entry is a miss, and it is deleted.
    """
    return _load("report", _REPORT_STATS, key, _report_path(key),
                 lambda value: isinstance(value, kind))


def store_report(key: str, report: Any) -> bool:
    """Atomically persist one extraction report; False on failure."""
    return _store("report", _REPORT_STATS, key, _report_path(key), report)
