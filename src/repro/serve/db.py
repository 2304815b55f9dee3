"""SQLite-backed ``runs`` queue and corpus snapshot store (no broker).

The database *is* the queue: submitting inserts a row, workers claim
rows inside one ``BEGIN IMMEDIATE`` transaction, and every state
transition is a guarded ``UPDATE``.  SQLite's writer lock plus WAL
journaling give the whole service its concurrency story — API threads
and worker processes coordinate through the file, with no broker
process to deploy or lose.

Queue states::

    queued ──claim──▶ claimed ──finish──▶ done
       ▲                 │└─────fail────▶ failed
       └── lease timeout ┘  (reclaim: stale claims are claimable again)

**Single-flight dedup.**  ``run_id`` *is* the content key
(:mod:`repro.serve.keys`), held ``UNIQUE``: a duplicate submission
lands on the existing row — whatever its state — bumps its ``submits``
tally, and returns the same run id.  Concurrent identical requests
therefore coalesce onto one execution and all read one result; a
duplicate of a *finished* run skips the queue entirely, which is the
≥5x duplicate-latency floor in ``bench_service.py``.

**Leases.**  A claim stamps ``claimed_by`` and ``lease_expires``; a
worker that dies mid-job simply stops renewing, and once the lease
lapses the row is claimable again (``attempts`` counts the tries).
``finish``/``fail`` are guarded by ``claimed_by`` so a worker whose
lease was reclaimed cannot clobber the reclaiming worker's result.

**Batching.**  :meth:`RunQueue.claim_batch` claims the oldest eligible
run plus up to ``limit-1`` more with the *same engine signature and
corpus* — jobs one warm process pool and one warm memo/analysis-store
set can serve back to back, so N small compatible requests cost one
pool warm-up and one shared extraction instead of N.

**Telemetry.**  Every row carries its full timeline — ``created``
(queued), ``claimed_at``, ``started`` (execution began), ``finished``
— so queue latency, execution latency, and end-to-end request latency
are derivable from the table alone; :meth:`RunQueue.latencies` folds
the finished rows into :class:`~repro.obs.metrics.Histogram` snapshots
that the API renders on ``GET /v1/metrics``.  This matters because the
API and the workers are *different processes*: in-process counters
cannot see each other, but every process sees the database.  Reclaims
(a claim of a lapsed lease) are counted per row and in aggregate, and
every state transition emits a structured service-log event
(:mod:`repro.obs.servicelog`) — a no-op until the process configures a
log path.  A ``workers`` side table records heartbeats so the fleet's
liveness is one query away.

**Connection reuse.**  Opening a SQLite connection costs a file open,
WAL handshake, and two pragmas — pure overhead when the API serves
thousands of requests per second over keep-alive connections.  Each
:class:`RunQueue` therefore keeps one cached connection *per thread*
(SQLite connections are not thread-safe to share, but are cheap to
hold): the pragmas run once per thread instead of once per call, and
``serve.db.conn_reuse`` counts the saved opens.  The cache is
pid-guarded — a forked child silently abandons (never closes) handles
inherited from its parent — and :meth:`RunQueue.close` invalidates
every cached handle so tests and shutdown paths release the file
promptly.  Claim semantics are unchanged: claims still run inside one
``BEGIN IMMEDIATE`` transaction, and the pooled context manager rolls
back on error so a failed transaction cannot leak into the next call
on the same cached handle.

**Change watching.**  :class:`QueueWatcher` turns the database into an
event source: one daemon thread polls ``PRAGMA data_version`` on a
dedicated connection (the pragma changes only when *another*
connection commits) and broadcasts a condition variable to every
registered waiter.  N long-polling API clients — or an idle worker
waiting for work — cost one poll per tick instead of N re-reads, and
``serve.wait.wakeups`` counts the broadcasts.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import servicelog
from repro.obs.metrics import REGISTRY, Histogram
from repro.serve.keys import CLAIMED, DONE, FAILED, QUEUED, STATES  # noqa: F401
from repro.store import corpus_hashes

#: Seconds a claim stays valid without renewal.
DEFAULT_LEASE_SECONDS = 120.0

#: Age (ns) at their read that corpus units need for a kept hash.
RACY_NS = 2_000_000_000

#: Snapshot directories whose hashes ``CorpusStore`` keeps, LRU.
MAX_HASHED_CORPORA = 64

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id        TEXT PRIMARY KEY,   -- the content key (single-flight dedup)
    tool          TEXT NOT NULL,
    params        TEXT NOT NULL,      -- canonical JSON
    engine        TEXT NOT NULL,      -- resolved engine-mode JSON
    corpus_id     TEXT,               -- NULL = the checked-in corpus
    status        TEXT NOT NULL,
    submits       INTEGER NOT NULL DEFAULT 1,
    attempts      INTEGER NOT NULL DEFAULT 0,
    reclaims      INTEGER NOT NULL DEFAULT 0,
    created       REAL NOT NULL,
    claimed_by    TEXT,
    claimed_at    REAL,
    started       REAL,               -- execution began (vs claim bookkeeping)
    lease_expires REAL,
    finished      REAL,
    result        TEXT,               -- JSON result payload (done runs)
    manifest_path TEXT,
    error         TEXT
);
CREATE INDEX IF NOT EXISTS runs_status ON runs (status, created);
CREATE INDEX IF NOT EXISTS runs_finished ON runs (finished);
CREATE TABLE IF NOT EXISTS workers (
    worker_id   TEXT PRIMARY KEY,
    started     REAL NOT NULL,
    last_seen   REAL NOT NULL,
    jobs_done   INTEGER NOT NULL DEFAULT 0,
    jobs_failed INTEGER NOT NULL DEFAULT 0,
    batches     INTEGER NOT NULL DEFAULT 0
);
"""

#: Columns older databases may be missing, with their ALTER clauses —
#: a pre-telemetry service.db upgrades in place on first open.
_MIGRATIONS = (
    ("runs", "reclaims", "INTEGER NOT NULL DEFAULT 0"),
    ("runs", "started", "REAL"),
)

#: A worker whose heartbeat is older than this is shown as stale.
WORKER_STALE_SECONDS = 300.0


class QueueError(RuntimeError):
    """A queue operation could not be performed."""


def _row_dict(row: sqlite3.Row) -> Dict[str, Any]:
    out = dict(row)
    for field in ("params", "engine"):
        out[field] = json.loads(out[field])
    if out.get("result"):
        out["result"] = json.loads(out["result"])
    return out


class _PooledConn:
    """One thread's cached connection, stored in thread-local storage.

    When the owning thread dies its thread-local storage is torn down,
    this holder is garbage-collected, and ``__del__`` retires the
    connection — so short-lived API threads cannot leak file handles.
    """

    __slots__ = ("conn", "pid", "generation", "_retire")

    def __init__(self, conn: sqlite3.Connection, pid: int,
                 generation: int, retire) -> None:
        self.conn = conn
        self.pid = pid
        self.generation = generation
        self._retire = retire

    def __del__(self) -> None:
        try:
            self._retire(self.conn, self.pid)
        except Exception:
            pass


class RunQueue:
    """The ``runs`` table behind one SQLite file.

    One instance may be shared across API threads — each thread gets
    its own cached connection (see :meth:`_conn`) — and separate
    instances in separate worker processes coordinate through the same
    file.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._local = threading.local()
        self._pool_lock = threading.Lock()
        self._pool: Dict[int, sqlite3.Connection] = {}
        self._pool_pid = os.getpid()
        self._generation = 0
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with self._conn() as conn:
            conn.executescript(_SCHEMA)
            for table, column, clause in _MIGRATIONS:
                present = {row["name"] for row in conn.execute(
                    f"PRAGMA table_info({table})")}
                if column not in present:
                    conn.execute(
                        f"ALTER TABLE {table} ADD COLUMN {column} {clause}")

    def _connect(self) -> sqlite3.Connection:
        # check_same_thread=False: each cached connection is used by
        # exactly one thread (thread-local), but close() and the GC
        # finalizer must be able to close it from another thread.
        conn = sqlite3.connect(self.path, timeout=30.0,
                               isolation_level=None,
                               check_same_thread=False)
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    # -- connection pool ------------------------------------------------

    def _retire(self, conn: sqlite3.Connection, pid: int) -> None:
        """Drop one pooled connection; closes it only in its own pid.

        A connection inherited across ``fork`` must never be closed by
        the child — closing could flush parent-owned WAL state — so
        the child simply abandons the handle and lets the parent (or
        the OS) reclaim it.
        """
        with self._pool_lock:
            self._pool.pop(id(conn), None)
        if pid == os.getpid():
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def _cached_conn(self) -> sqlite3.Connection:
        pid = os.getpid()
        holder = getattr(self._local, "holder", None)
        if (holder is not None and holder.pid == pid
                and holder.generation == self._generation):
            REGISTRY.bump("serve.db.conn_reuse")
            return holder.conn
        if holder is not None:
            # Stale: closed by close() (generation bump) or inherited
            # across fork (pid mismatch).  Drop the reference; the
            # holder's finalizer knows not to close foreign-pid handles.
            self._local.holder = None
        with self._pool_lock:
            if self._pool_pid != pid:
                # First use after fork: the registry still lists the
                # parent's connections.  Abandon them all unclosed.
                self._pool = {}
                self._pool_pid = pid
        conn = self._connect()
        with self._pool_lock:
            if self._pool_pid == pid:
                self._pool[id(conn)] = conn
        self._local.holder = _PooledConn(conn, pid, self._generation,
                                         self._retire)
        REGISTRY.bump("serve.db.conn_opened")
        return conn

    @contextmanager
    def _conn(self) -> Iterator[sqlite3.Connection]:
        """This thread's cached connection.

        On error the cached connection is rolled back — a reused
        handle must never carry a half-open transaction into the next
        call — and if even the rollback fails the handle is retired so
        the next call starts fresh.
        """
        conn = self._cached_conn()
        try:
            yield conn
        except BaseException:
            try:
                if conn.in_transaction:
                    conn.rollback()
            except sqlite3.Error:
                self._local.holder = None
                self._retire(conn, os.getpid())
            raise

    def close(self) -> None:
        """Close every pooled connection (graceful invalidation).

        Threads holding a cached handle see the generation bump and
        reopen on their next call; close() is a shutdown/test hook,
        not something to race against in-flight queries.
        """
        with self._pool_lock:
            if self._pool_pid == os.getpid():
                conns = list(self._pool.values())
            else:
                conns = []  # inherited handles: abandon, never close
            self._pool = {}
            self._generation += 1
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    # -- submission -----------------------------------------------------

    def submit(self, run_id: str, tool: str, params: Dict[str, Any],
               engine: Dict[str, str],
               corpus_id: Optional[str] = None) -> Tuple[Dict[str, Any], bool]:
        """Enqueue one request; returns ``(run row, created)``.

        ``created`` is False when an identical request already holds
        the row — the dedup hit: the existing row (whatever its state)
        comes back with its ``submits`` tally bumped.

        One autocommit upsert (``fetchall`` ends its write): ``submits``
        starts at 1 and only grows, so the returned tally tells a first
        submit from a repeat.
        """
        with self._conn() as conn:
            rows = conn.execute(
                "INSERT INTO runs (run_id, tool, params, engine, corpus_id, "
                "status, created) VALUES (?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(run_id) DO UPDATE SET submits = submits + 1 "
                "RETURNING *",
                (run_id, tool, json.dumps(params, sort_keys=True),
                 json.dumps(engine, sort_keys=True),
                 corpus_id, QUEUED, time.time()),
            ).fetchall()
        created = rows[0]["submits"] == 1
        servicelog.emit("run.submitted", proc="queue", run_id=run_id,
                        tool=tool, deduped=not created)
        if not created:
            REGISTRY.bump("serve.deduped")
        return _row_dict(rows[0]), created

    # -- claiming -------------------------------------------------------

    def claim_batch(self, worker: str, limit: int = 1,
                    lease_seconds: float = DEFAULT_LEASE_SECONDS,
                    ) -> List[Dict[str, Any]]:
        """Atomically claim up to ``limit`` compatible runs.

        Eligible rows are ``queued`` plus ``claimed`` rows whose lease
        lapsed (their worker is presumed dead).  The batch is anchored
        on the oldest eligible row; the rest of the batch must share
        its engine signature and corpus so one warm pool and one warm
        memo set serve every job in the wave.
        """
        now = time.time()
        eligible = ("(status = ? OR (status = ? AND lease_expires IS NOT NULL"
                    " AND lease_expires < ?))")
        with self._conn() as conn:
            conn.execute("BEGIN IMMEDIATE")
            head = conn.execute(
                f"SELECT * FROM runs WHERE {eligible} "
                f"ORDER BY created, run_id LIMIT 1",
                (QUEUED, CLAIMED, now),
            ).fetchone()
            if head is None:
                conn.execute("COMMIT")
                return []
            rows = conn.execute(
                f"SELECT * FROM runs WHERE {eligible} "
                f"AND engine = ? AND corpus_id IS ? "
                f"ORDER BY created, run_id LIMIT ?",
                (QUEUED, CLAIMED, now, head["engine"], head["corpus_id"],
                 max(1, limit)),
            ).fetchall()
            claimed = []
            reclaimed = []
            for row in rows:
                # A row still CLAIMED here got past the eligibility
                # filter only because its lease lapsed: this claim is
                # a *reclaim* — a worker died or stalled mid-job.
                is_reclaim = row["status"] == CLAIMED
                conn.execute(
                    "UPDATE runs SET status = ?, claimed_by = ?, "
                    "claimed_at = ?, started = NULL, lease_expires = ?, "
                    "attempts = attempts + 1, reclaims = reclaims + ? "
                    "WHERE run_id = ?",
                    (CLAIMED, worker, now, now + lease_seconds,
                     1 if is_reclaim else 0, row["run_id"]),
                )
                claimed.append(row["run_id"])
                if is_reclaim:
                    reclaimed.append(row["run_id"])
            conn.execute("COMMIT")
            out = [
                _row_dict(conn.execute(
                    "SELECT * FROM runs WHERE run_id = ?", (run_id,)
                ).fetchone())
                for run_id in claimed
            ]
        for run_id in reclaimed:
            REGISTRY.bump("serve.lease_reclaimed")
            servicelog.emit("run.reclaimed", proc="queue", run_id=run_id,
                            worker=worker, reclaimed=True)
        for row_dict in out:
            servicelog.emit("run.claimed", proc="queue",
                            run_id=row_dict["run_id"], worker=worker,
                            attempt=row_dict["attempts"])
        return out

    def start(self, run_id: str, worker: str) -> bool:
        """Stamp execution start on a held claim; False when lost.

        ``claimed_at`` is queue bookkeeping; ``started`` is when the
        worker actually began executing the tool — the gap between them
        is lease renewal and batch setup, and the exec-latency
        histogram measures from here.
        """
        with self._conn() as conn:
            cursor = conn.execute(
                "UPDATE runs SET started = ? "
                "WHERE run_id = ? AND status = ? AND claimed_by = ?",
                (time.time(), run_id, CLAIMED, worker),
            )
            started = cursor.rowcount == 1
        if started:
            servicelog.emit("run.started", proc="queue", run_id=run_id,
                            worker=worker)
        return started

    def renew(self, run_id: str, worker: str,
              lease_seconds: float = DEFAULT_LEASE_SECONDS) -> bool:
        """Extend a live claim's lease; False when no longer held."""
        with self._conn() as conn:
            cursor = conn.execute(
                "UPDATE runs SET lease_expires = ? "
                "WHERE run_id = ? AND status = ? AND claimed_by = ?",
                (time.time() + lease_seconds, run_id, CLAIMED, worker),
            )
            renewed = cursor.rowcount == 1
        return renewed

    # -- completion -----------------------------------------------------

    def finish(self, run_id: str, worker: str, result: Dict[str, Any],
               manifest_path: Optional[str] = None) -> bool:
        """Mark one claimed run done; False when the claim was lost.

        The ``claimed_by`` guard means a worker whose lease was
        reclaimed (it stalled; another worker re-ran the job) cannot
        overwrite the reclaiming worker's result.
        """
        with self._conn() as conn:
            cursor = conn.execute(
                "UPDATE runs SET status = ?, finished = ?, result = ?, "
                "manifest_path = ?, error = NULL "
                "WHERE run_id = ? AND status = ? AND claimed_by = ?",
                (DONE, time.time(), json.dumps(result, sort_keys=True),
                 manifest_path, run_id, CLAIMED, worker),
            )
            finished = cursor.rowcount == 1
        if finished:
            latency = self.run_latencies(run_id)
            servicelog.emit("run.finished", proc="queue", run_id=run_id,
                            worker=worker, status=DONE, **latency)
        return finished

    def fail(self, run_id: str, worker: str, error: str) -> bool:
        """Mark one claimed run failed; False when the claim was lost."""
        with self._conn() as conn:
            cursor = conn.execute(
                "UPDATE runs SET status = ?, finished = ?, error = ? "
                "WHERE run_id = ? AND status = ? AND claimed_by = ?",
                (FAILED, time.time(), error, run_id, CLAIMED, worker),
            )
            failed = cursor.rowcount == 1
        if failed:
            servicelog.emit("run.failed", proc="queue", run_id=run_id,
                            worker=worker, status=FAILED,
                            error=error[:500])
        return failed

    # -- inspection -----------------------------------------------------

    def get(self, run_id: str) -> Optional[Dict[str, Any]]:
        """One run row, or None."""
        with self._conn() as conn:
            row = conn.execute(
                "SELECT * FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        return None if row is None else _row_dict(row)

    def list_runs(self, status: Optional[str] = None,
                  limit: int = 100) -> List[Dict[str, Any]]:
        """Recent runs, optionally filtered by status."""
        with self._conn() as conn:
            if status is None:
                rows = conn.execute(
                    "SELECT * FROM runs ORDER BY created DESC LIMIT ?",
                    (limit,),
                ).fetchall()
            else:
                rows = conn.execute(
                    "SELECT * FROM runs WHERE status = ? "
                    "ORDER BY created DESC LIMIT ?",
                    (status, limit),
                ).fetchall()
        return [_row_dict(row) for row in rows]

    def stats(self) -> Dict[str, Any]:
        """Queue depth by state plus the dedup tallies.

        ``dedup_ratio`` is the fraction of submissions that coalesced
        onto an existing run: ``1 - runs / submits`` (0.0 when every
        request was unique).
        """
        with self._conn() as conn:
            rows = conn.execute(
                "SELECT status, COUNT(*) AS n, SUM(submits) AS submits, "
                "SUM(reclaims) AS reclaims FROM runs GROUP BY status"
            ).fetchall()
        by_status = {state: 0 for state in STATES}
        runs = submits = reclaims = 0
        for row in rows:
            by_status[row["status"]] = row["n"]
            runs += row["n"]
            submits += row["submits"] or 0
            reclaims += row["reclaims"] or 0
        return {
            "runs": runs,
            "submits": submits,
            "deduplicated": submits - runs,
            "dedup_ratio": (1.0 - runs / submits) if submits else 0.0,
            "reclaims": reclaims,
            "by_status": by_status,
        }

    # -- telemetry ------------------------------------------------------

    @staticmethod
    def timeline(row: Dict[str, Any]) -> Dict[str, Optional[float]]:
        """Derived latencies for one run row (None where not yet known).

        - ``queue_latency``: submission to claim (time spent queued);
        - ``exec_latency``: execution start to finish;
        - ``request_latency``: submission to finish, end to end.

        Reclaimed rows measure from the *winning* claim — the timeline
        answers "how long did the run that produced the result take",
        not "how long did every attempt take" (that is ``attempts``).
        """
        created = row.get("created")
        claimed_at = row.get("claimed_at")
        started = row.get("started")
        finished = row.get("finished")
        out: Dict[str, Optional[float]] = {
            "queue_latency": None, "exec_latency": None,
            "request_latency": None,
        }
        if created is not None and claimed_at is not None:
            out["queue_latency"] = max(0.0, claimed_at - created)
        if started is not None and finished is not None:
            out["exec_latency"] = max(0.0, finished - started)
        if created is not None and finished is not None:
            out["request_latency"] = max(0.0, finished - created)
        return out

    def run_latencies(self, run_id: str) -> Dict[str, Optional[float]]:
        """The derived timeline of one run (see :meth:`timeline`)."""
        row = self.get(run_id)
        if row is None:
            return {"queue_latency": None, "exec_latency": None,
                    "request_latency": None}
        return self.timeline(row)

    def latencies(self, limit: int = 5000) -> Dict[str, Histogram]:
        """Queue/exec/request latency histograms over finished runs.

        Computed from the table at call time — the API process scrapes
        these for ``/v1/metrics`` without ever having executed a run
        itself (worker-side in-process counters are invisible across
        the process boundary; the database is the shared truth).
        ``limit`` bounds the window to the most recently finished rows
        and the ``runs_finished`` index serves the ``ORDER BY finished
        DESC`` directly, so a scrape walks at most ``limit`` index
        entries — O(recent fleet activity), not O(all time) — no
        matter how large the table grows.
        """
        histograms = {
            "serve.run.queue_latency": Histogram(),
            "serve.run.exec_latency": Histogram(),
            "serve.run.request_latency": Histogram(),
        }
        with self._conn() as conn:
            # INDEXED BY pins the plan: walk the finished index newest
            # first and stop at `limit` — without it SQLite prefers the
            # status index plus a temp-btree sort over *all* finished
            # rows, which is exactly the O(table) scrape this bounds.
            rows = conn.execute(
                "SELECT created, claimed_at, started, finished "
                "FROM runs INDEXED BY runs_finished "
                "WHERE finished IS NOT NULL AND status IN (?, ?) "
                "ORDER BY finished DESC LIMIT ?",
                (DONE, FAILED, limit),
            ).fetchall()
        for row in rows:
            timeline = self.timeline(dict(row))
            if timeline["queue_latency"] is not None:
                histograms["serve.run.queue_latency"].observe(
                    timeline["queue_latency"])
            if timeline["exec_latency"] is not None:
                histograms["serve.run.exec_latency"].observe(
                    timeline["exec_latency"])
            if timeline["request_latency"] is not None:
                histograms["serve.run.request_latency"].observe(
                    timeline["request_latency"])
        return histograms

    # -- worker heartbeats ----------------------------------------------

    def heartbeat(self, worker_id: str, jobs_done: int = 0,
                  jobs_failed: int = 0, batches: int = 0) -> None:
        """Upsert one worker's liveness row (deltas add to tallies)."""
        now = time.time()
        with self._conn() as conn:
            conn.execute(
                "INSERT INTO workers "
                "(worker_id, started, last_seen, jobs_done, jobs_failed, "
                " batches) VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(worker_id) DO UPDATE SET "
                "last_seen = excluded.last_seen, "
                "jobs_done = jobs_done + excluded.jobs_done, "
                "jobs_failed = jobs_failed + excluded.jobs_failed, "
                "batches = batches + excluded.batches",
                (worker_id, now, now, jobs_done, jobs_failed, batches),
            )

    def workers(self, stale_seconds: float = WORKER_STALE_SECONDS
                ) -> List[Dict[str, Any]]:
        """Every known worker, newest heartbeat first, staleness flagged."""
        now = time.time()
        with self._conn() as conn:
            rows = conn.execute(
                "SELECT * FROM workers ORDER BY last_seen DESC"
            ).fetchall()
        out = []
        for row in rows:
            record = dict(row)
            record["alive"] = (now - record["last_seen"]) < stale_seconds
            out.append(record)
        return out


# ---------------------------------------------------------------------------
# change watching
# ---------------------------------------------------------------------------


#: How often the watcher reads ``PRAGMA data_version`` while waiters
#: are registered.  This is the *only* recurring DB touch no matter
#: how many clients are blocked in a long-poll.
WATCH_POLL_SECONDS = 0.02

#: With no waiters the watcher parks on an event instead of polling;
#: this bounds how long it sleeps between wake-up checks.
WATCH_PARK_SECONDS = 0.5


class QueueWatcher:
    """One ``PRAGMA data_version`` poller fanned out to many waiters.

    ``data_version`` changes whenever *another* connection commits to
    the database, so a single persistent read-only connection can
    detect every state transition made by workers (or the API) without
    reading any rows.  Waiters grab a :meth:`token`, re-check their
    predicate (a run row, an empty claim query) and block in
    :meth:`wait` until the token goes stale — the re-check-after-token
    ordering means a missed broadcast costs latency, never
    correctness.

    With no waiters registered the poll thread parks on an event and
    touches nothing — an idle service does zero recurring DB reads.
    A waiter may pass a ``stop`` event: while it waits, each poll tick
    also checks that event and notifies the condition once it is set.
    """

    def __init__(self, queue: RunQueue,
                 poll_seconds: float = WATCH_POLL_SECONDS) -> None:
        self.queue = queue
        self.poll_seconds = poll_seconds
        self._cond = threading.Condition()
        self._tick = 0
        self._waiters = 0
        #: ``stop`` events of the blocked waiters that passed one.
        self._stops: List[threading.Event] = []
        self._stop = threading.Event()
        self._kick = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "QueueWatcher":
        """Start (or restart) the poll thread; idempotent.

        The ``data_version`` baseline is read here, before returning:
        a commit that lands after ``start()`` is then always a change
        to the first waiter, never folded into a baseline the poll
        thread reads later.
        """
        with self._cond:
            if self._thread is None or not self._thread.is_alive():
                # A dedicated connection: data_version is per-connection
                # state (it counts commits made by *other* connections),
                # so the baseline must live on one persistent handle
                # that no API thread ever commits through.
                conn = self.queue._connect()
                version = self._data_version(conn)
                self._stop.clear()
                self._thread = threading.Thread(
                    target=self._run, args=(conn, version),
                    name="repro-queue-watch", daemon=True)
                self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the poll thread and release every blocked waiter."""
        self._stop.set()
        self._kick.set()
        with self._cond:
            self._tick += 1  # wake blocked waiters so they re-check
            self._cond.notify_all()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    # -- waiting --------------------------------------------------------

    def token(self) -> int:
        """The current change tick; take it *before* reading state."""
        with self._cond:
            return self._tick

    def changed(self, token: int) -> bool:
        """True when the database has changed since ``token``."""
        with self._cond:
            return self._tick != token

    def wait(self, token: int, timeout: float,
             stop: Optional[threading.Event] = None) -> int:
        """Block until a change after ``token``, ``stop`` is set, or
        the timeout lapses.

        Returns the current tick either way; callers re-read their
        predicate and loop with the fresh token.
        """
        def ready() -> bool:
            return self._tick != token or (stop is not None
                                           and stop.is_set())

        with self._cond:
            self._waiters += 1
            if stop is not None:
                self._stops.append(stop)
            REGISTRY.set_gauge("serve.wait.waiters", self._waiters)
            self._kick.set()
            try:
                self._cond.wait_for(ready, timeout=max(0.0, timeout))
                return self._tick
            finally:
                self._waiters -= 1
                if stop is not None:
                    self._stops.remove(stop)
                REGISTRY.set_gauge("serve.wait.waiters", self._waiters)

    # -- the poll thread ------------------------------------------------

    def _data_version(self, conn: sqlite3.Connection) -> int:
        return int(conn.execute("PRAGMA data_version").fetchone()[0])

    def _run(self, conn: sqlite3.Connection, version: int) -> None:
        try:
            while not self._stop.is_set():
                with self._cond:
                    waiting = self._waiters
                if not waiting:
                    # Nobody is listening: park.  The baseline persists
                    # across the park, so changes made meanwhile fire
                    # one (possibly spurious) wakeup on the next wait.
                    self._kick.wait(timeout=WATCH_PARK_SECONDS)
                    self._kick.clear()
                    continue
                REGISTRY.bump("serve.wait.polls")
                current = self._data_version(conn)
                with self._cond:
                    changed, woken = current != version, self._waiters
                    if changed:
                        version = current
                        self._tick += 1
                    if changed or any(stop.is_set()
                                      for stop in self._stops):
                        self._cond.notify_all()
                if changed:
                    REGISTRY.bump("serve.wait.wakeups", max(1, woken))
                self._stop.wait(self.poll_seconds)
        except sqlite3.Error:
            pass  # db vanished under us (test teardown); waiters time out
        finally:
            try:
                conn.close()
            except sqlite3.Error:
                pass


# ---------------------------------------------------------------------------
# corpus snapshot store
# ---------------------------------------------------------------------------


class CorpusStore:
    """Content-addressed corpus snapshots under ``<root>/corpus/``.

    An upload is an *overlay*: the checked-in corpus is copied into a
    fresh snapshot directory and the uploaded files replace (or join)
    it, so clients ship only the units they changed.  The snapshot id
    is a sha256 over the resulting ``(filename, content sha)`` set —
    upload the same overlay twice and you get the same snapshot, which
    keeps request keys (and therefore dedup) content-stable.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.join(root, "corpus")
        os.makedirs(self.root, exist_ok=True)
        #: directory -> (stat key, hashes) of its last trusted hashing.
        self._hashes: "OrderedDict[str, Tuple[tuple, Dict[str, str]]]" = \
            OrderedDict()
        self._hashes_lock = threading.Lock()

    def path(self, corpus_id: str) -> str:
        """The snapshot directory for one corpus id (must exist)."""
        path = os.path.join(self.root, corpus_id)
        if not os.path.isdir(path):
            raise QueueError(f"unknown corpus snapshot {corpus_id!r}")
        return path

    def hashes(self, corpus_id: Optional[str]) -> Dict[str, str]:
        """filename -> source sha256 for one snapshot (None = default).

        Memoized per directory under each unit's (name, inode, size,
        mtime, ctime).  As in git's racy-clean rule, an entry is kept
        only when every mtime is ``RACY_NS`` older than the read: a
        same-size rewrite in the read's timestamp tick keeps the stat.
        """
        if corpus_id is None:
            from repro.corpus import corpus_dir

            directory = corpus_dir()
        else:
            directory = self.path(corpus_id)
        read_ns = time.time_ns()
        with os.scandir(directory) as entries:
            key = tuple(sorted(
                (entry.name, st.st_ino, st.st_size, st.st_mtime_ns,
                 st.st_ctime_ns)
                for entry in entries if entry.name.endswith(".c")
                for st in (entry.stat(),)))
        with self._hashes_lock:
            memo = self._hashes.get(directory)
            if memo is not None and memo[0] == key:
                self._hashes.move_to_end(directory)
                return dict(memo[1])
        hashes = corpus_hashes(directory)
        if all(unit[3] <= read_ns - RACY_NS for unit in key):
            with self._hashes_lock:
                self._hashes[directory] = (key, hashes)
                self._hashes.move_to_end(directory)
                while len(self._hashes) > MAX_HASHED_CORPORA:
                    self._hashes.popitem(last=False)
        return dict(hashes)

    def add(self, files: Dict[str, str]) -> str:
        """Store one overlay upload; returns its content-derived id."""
        from repro.corpus.loader import UNIT_COMPONENTS, corpus_path

        for name in files:
            if os.path.basename(name) != name or not name.endswith(".c"):
                raise QueueError(f"invalid corpus filename {name!r}")
        merged: Dict[str, bytes] = {}
        for name in UNIT_COMPONENTS:
            with open(corpus_path(name), "rb") as handle:
                merged[name] = handle.read()
        for name, source in files.items():
            merged[name] = source.encode("utf-8")
        digest = hashlib.sha256()
        for name in sorted(merged):
            sha = hashlib.sha256(merged[name]).hexdigest()
            digest.update(f"{name}={sha}\n".encode("utf-8"))
        corpus_id = digest.hexdigest()[:32]
        directory = os.path.join(self.root, corpus_id)
        if not os.path.isdir(directory):
            tmp = directory + ".tmp"
            os.makedirs(tmp, exist_ok=True)
            for name, blob in merged.items():
                with open(os.path.join(tmp, name), "wb") as handle:
                    handle.write(blob)
            try:
                os.replace(tmp, directory)
            except OSError:
                # A racing identical upload won the rename; same content.
                import shutil

                shutil.rmtree(tmp, ignore_errors=True)
        return corpus_id
