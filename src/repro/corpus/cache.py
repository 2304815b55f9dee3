"""Persistent on-disk caches: unit indexes, per-function analysis
summaries, and finished extraction reports.

The three stores are rows of one SQLite table,
``entries(key TEXT PRIMARY KEY, kind TEXT, code TEXT, value BLOB)`` in
``<cache dir>/store.db``, each value pickled.  They share the cache
directory, the switch and the invalidation rule of the command store
(:mod:`repro.store`): keys derive from **content and code, not
timestamps**.  Every key covers the inputs of its entry and the
*package digest* (:func:`repro.store.package_digest`, over every source
and data file of the ``repro`` package, and so every class an entry can
hold), so a stale entry is never *wrong*, only unreachable.  When the
digest cannot be computed every store is skipped.  Unit sources are
read and hashed once per process (:func:`read_unit`), so a report is
stored only under the sources it was extracted from.

**IR cache** (kind ``disk``), keyed by sha256(cache schema | frontend
version | package digest | filename | source text).  One index row
``(lines, slices, summaries)`` per unit: each function's definition line
and source-slice hash, and each selected function's summary by
``(function, sources fingerprint, component)``, written once extraction
has them, so one row answers an unchanged unit.  No IR is stored: a
unit that misses is outlined (its bodies skipped), and IR is compiled
only for the bodies an analysis runs on (see :mod:`repro.corpus.loader`).

**Analysis store** (kind ``an``), keyed by sha256(cache schema |
frontend version | package digest | filename | function | slice hash |
sources fingerprint | component).  One
:class:`~repro.analysis.extractor.FunctionSummary` per analyzed
function: its metadata-field stores, its findings and its definition
line.  Lookup runs memo, index row, this store, solve: this store
answers the unchanged functions of an edited unit.  The slice hash
(:func:`function_slices`) covers everything the body is compiled
against (the tokens outside the bodies plus the macro table) and the
function's own text, so editing one body re-analyzes *that function
only*.  A hit for a function that has moved shifts the lines it
reports by the move.  The analysis is intra-procedural and
the metadata bridge joins the summaries after loading, so an entry
depends on nothing its key leaves out; taint states are not stored.

**Report store** (kind ``report``), keyed by sha256(cache schema |
frontend version | package digest | extractor class | scenario specs |
every scenario unit's IR cache key).  One finished
:class:`~repro.analysis.extractor.ExtractionReport`: a hit costs one
source read and hash per unit, one row read and one unpickle, and
imports none of the analysis modules.  :func:`repro.corpus.loader.
clear_cache` drops the reports (:func:`clear_reports`), so an
extraction after it is assembled from the two stores above.

**The database.**  A process opens it on its first load or store
(importing :mod:`sqlite3` only then) and keeps one connection, shared
by its threads under one lock, until its pid or the cache directory
changes: WAL, ``synchronous=NORMAL``, a 30 s busy timeout.  Each load,
store and delete is one statement and one transaction, so concurrent
processes never observe a torn entry.  A load with no database file is
a miss and creates none; a file that is not a database is deleted and
recreated (``cache.recreated``).  A row that fails to unpickle or has
the wrong shape is tallied as an error and deleted: a clean miss next.
A store reopens a file another process deleted (:func:`clear_disk_cache`).
The first open also deletes every row whose ``code`` is not the
package digest (``cache.swept``), so a code edit frees what it made
unreachable; within one code state the store grows (every corpus
state's rows stay) until :func:`clear_disk_cache`.

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
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Tuple)

from repro.corpus import corpus_dir
from repro.lang import FRONTEND_VERSION
from repro.obs.tracer import span
from repro.perf import bump, timed
# The directory, the switch and the digest every key covers are shared
# with the command store; callers keep reading the first four from here.
from repro.store import (  # noqa: F401
    CACHE_DIR_ENV, COMMAND_SUFFIX, DISABLE_ENV, TMP_PREFIX, cache_dir,
    disk_cache_enabled, package_digest, remove_entries)

if TYPE_CHECKING:
    from repro.lang.frontend import Outline

#: Bump when the on-disk entry layout itself changes.
CACHE_SCHEMA = 5

#: The database file under the cache directory (SQLite adds ``-wal``
#: and ``-shm`` files beside it).
STORE_DB = "store.db"

#: The table, and the partial index that keeps :func:`clear_reports`
#: from scanning every row.
_SCHEMA = ("CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY, "
           "kind TEXT, code TEXT, value BLOB);"
           "CREATE INDEX IF NOT EXISTS entries_report ON entries (kind) "
           "WHERE kind = 'report'")


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
#: the store traffic around them, and sharing keeps the dataclass flat.
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


def _content_key(*fields: Tuple[str, str]) -> str:
    """sha256 over the cache schema, the frontend version, the package
    digest and ``fields``, one ``name=value`` line each."""
    digest = hashlib.sha256()
    for name, value in (("schema", str(CACHE_SCHEMA)),
                        ("frontend", FRONTEND_VERSION),
                        ("code", package_digest())) + fields:
        digest.update(f"{name}={value}\n".encode("utf-8"))
    return digest.hexdigest()


def module_key(source: str, filename: str) -> str:
    """Content and code hash identifying one translation unit.

    Also the unit's in-memory fingerprint, so it is never empty; the
    loader skips the IR cache when :func:`package_digest` is ''.
    """
    return _content_key(("filename", filename), ("source", source))


#: This process's store connection: ``(pid, database path, connection,
#: file identity)``, used under :data:`_DB_LOCK` (a statement: tens of µs).
_DB: Optional[Tuple[int, str, Any, Optional[Tuple[int, int]]]] = None
_DB_LOCK = threading.Lock()
#: Connections inherited across ``fork``: kept open, never closed here.
_INHERITED: List[Any] = []


def _connect(create: bool) -> Optional[Any]:
    """This process's connection to ``<cache dir>/store.db``, opened on
    first use and when the pid or the cache directory changes, and for
    a store (``create``) when the file is no longer the one opened;
    None when the file is absent and ``create`` is false.  Call under
    :data:`_DB_LOCK`."""
    global _DB
    path = os.path.join(cache_dir(), STORE_DB)
    if _DB is not None and _DB[:2] == (os.getpid(), path) and (
            not create or _identity(path) == _DB[3]):
        return _DB[2]
    _close()
    if not create and not os.path.exists(path):
        return None
    import sqlite3  # on first store use: a command-store replay never pays

    os.makedirs(os.path.dirname(path), exist_ok=True)
    for retry in (False, True):
        conn = sqlite3.connect(path, timeout=30.0, isolation_level=None,
                               check_same_thread=False)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            break
        except sqlite3.DatabaseError as exc:
            conn.close()
            if retry or type(exc) is not sqlite3.DatabaseError:
                raise  # locked or unwritable, not a foreign file
            remove_entries(lambda name: name.startswith(STORE_DB),
                           os.path.dirname(path))
            bump("cache.recreated")
    code = package_digest()
    swept = conn.execute("DELETE FROM entries WHERE code != ?",
                         (code,)).rowcount if code else 0
    if swept:
        bump("cache.swept", swept)
    _DB = (os.getpid(), path, conn, _identity(path))
    return conn


def _identity(path: str) -> Optional[Tuple[int, int]]:
    """The file's ``(st_dev, st_ino)``; None when there is none."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return stat.st_dev, stat.st_ino


def _close() -> None:
    """Forget this process's connection (one inherited across ``fork``
    is abandoned, not closed).  Call under :data:`_DB_LOCK`."""
    global _DB
    if _DB is not None:
        if _DB[0] == os.getpid():
            _DB[2].close()
        else:
            _INHERITED.append(_DB[2])
    _DB = None


def _execute(sql: str, params: Tuple[Any, ...] = (),
             create: bool = False) -> Tuple[List[Any], int]:
    """Run one statement: the rows it returned and the count it
    changed (none when there is no database and not ``create``)."""
    with _DB_LOCK:
        conn = _connect(create)
        if conn is None:
            return [], 0
        cursor = conn.execute(sql, params)
        return cursor.fetchall(), cursor.rowcount


def _load(store: str, tallies: DiskCacheStats, key: str,
          accept: Callable[[Any], bool]) -> Optional[Any]:
    """Unpickle the row under ``key`` if ``accept`` takes it, else None.

    ``store`` names the span and counters (``cache.<store>.*``).  An
    absent row is a miss; one that fails to unpickle (truncated,
    version-skewed) or unpickles to something ``accept`` rejects is an
    error, and it is deleted so the next lookup is a clean miss.
    """
    try:
        with span(f"cache.{store}.load", key=key[:12]), \
                timed(f"cache.{store}.load"):
            rows, _ = _execute("SELECT value FROM entries WHERE key = ?",
                               (key,))
            if rows:
                value = pickle.loads(rows[0][0])
        if rows and not accept(value):
            raise TypeError(f"entry holds a {type(value).__name__}")
    except Exception:
        tallies.tally("errors")
        bump(f"cache.{store}.error")
        try:
            _execute("DELETE FROM entries WHERE key = ?", (key,))
        except Exception:
            pass
        return None
    if not rows:
        tallies.tally("misses")
        bump(f"cache.{store}.miss")
        return None
    tallies.tally("hits")
    bump(f"cache.{store}.hit")
    return value


def _store(store: str, tallies: DiskCacheStats, key: str,
           value: Any) -> bool:
    """Pickle ``value`` into the row under ``key``; False on failure
    (an unwritable cache dir, disk full, an unpicklable value): the
    store degrades to a recompute, never to an error."""
    try:
        with span(f"cache.{store}.store", key=key[:12]), \
                timed(f"cache.{store}.store"):
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            _execute("INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?)",
                     (key, store, package_digest(), blob), create=True)
    except Exception:
        tallies.tally("errors")
        bump(f"cache.{store}.error")
        return False
    tallies.tally("stores")
    bump(f"cache.{store}.store")
    return True


def _is_index(value: Any, kind: type) -> bool:
    """Whether ``value`` is a ``(lines, slices, summaries)`` index row
    whose summaries are ``kind``s of its functions."""
    return (type(value) is tuple and len(value) == 3
            and all(type(part) is dict for part in value)
            and value[0].keys() == value[1].keys()
            and all(type(line) is int for line in value[0].values())
            and all(type(digest) is str for digest in value[1].values())
            and all(type(name) is tuple and len(name) == 3
                    and name[0] in value[0] and isinstance(summary, kind)
                    for name, summary in value[2].items()))


def load_index(key: str, kind: type) -> Optional[tuple]:
    """The unit index row ``(lines, slices, summaries)`` under ``key``,
    its summaries ``kind``s; None on miss/corruption."""
    return _load("disk", _STATS, key, lambda value: _is_index(value, kind))


def store_index(key: str, lines: Dict[str, int], slices: Dict[str, str],
                summaries: Dict[Tuple[str, str, str], Any]) -> bool:
    """Persist one unit index row under ``key``; False on failure."""
    return _store("disk", _STATS, key, (lines, slices, summaries))


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


def clear_disk_cache() -> int:
    """Delete every cache entry (all stores); the count of rows and
    entry files.

    Empties the store, closes this process's connection and removes the
    database files, then deletes the command store's entries
    (``*.cmd.json``) and what the file-per-entry layout left (``*.pkl``,
    ``*.an.bin``, ``reports/``, temp files): a cleared directory ends
    empty and can serve nothing from before the clear.
    """
    folder = cache_dir()
    try:
        removed = _execute("DELETE FROM entries")[1]
    except Exception:  # not a database
        removed = 0
    with _DB_LOCK:
        _close()
        remove_entries(lambda name: name.startswith(STORE_DB), folder)
    reports = os.path.join(folder, "reports")
    removed += remove_entries(lambda name: True, reports)
    try:
        os.rmdir(reports)
    except OSError:
        pass
    return removed + remove_entries(
        lambda name: (name.endswith((".pkl", ".an.bin", COMMAND_SUFFIX))
                      or name.startswith(TMP_PREFIX)), folder)


def clear_reports() -> int:
    """Delete every report-store row, leaving the other stores warm;
    the count.  One ``DELETE`` by kind, which creates no database.

    What a benchmark or a test calls to time or check the IR cache and
    the analysis store underneath a report that would otherwise hit.
    """
    try:
        return _execute("DELETE FROM entries WHERE kind = 'report'")[1]
    except Exception:
        return 0


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
    if not package_digest():
        return ""
    return _content_key(("filename", filename), ("function", function),
                        ("slice", slice_hash), ("sources", sources_fp),
                        ("component", component))


# ---------------------------------------------------------------------------
# function-level analysis store
# ---------------------------------------------------------------------------


def load_analysis(key: str, kind: type) -> Optional[Any]:
    """The cached function summary under ``key`` if it is a ``kind``,
    else None: a corrupt or wrong-shape row is a deleted miss, so the
    store degrades to a recompute, never to a wrong result."""
    return _load("an", _AN_STATS, key,
                 lambda value: isinstance(value, kind))


def store_analysis(key: str, summary: Any) -> bool:
    """Persist one function summary; False on failure."""
    return _store("an", _AN_STATS, key, summary)


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
    if not package_digest():
        return ""
    return _content_key(("extractor", extractor), ("scenarios", scenarios),
                        *(("unit", f"{filename} {key}")
                          for filename, key in units))


def load_report(key: str, kind: type) -> Optional[Any]:
    """The cached report under ``key`` if it is a ``kind``, else None
    (a truncated or foreign row is a miss, and it is deleted)."""
    return _load("report", _REPORT_STATS, key,
                 lambda value: isinstance(value, kind))


def store_report(key: str, report: Any) -> bool:
    """Persist one extraction report; False on failure."""
    return _store("report", _REPORT_STATS, key, report)
