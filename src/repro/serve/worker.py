"""Workers: claim compatible job batches, execute them, record manifests.

A worker is a loop over :meth:`repro.serve.db.RunQueue.claim_batch`:
claim up to ``batch_limit`` compatible runs, execute them — back to
back with one exec slot, in concurrent waves with several — and mark
each ``done``/``failed``.  Execution goes through the *real CLI entry
points* (``repro.cli.main_*``) with stdout captured per thread
(:func:`capture_output`) — the service's result bytes are, by
construction, the bytes a direct CLI invocation of the same request
prints.  ``bench_service.py`` and the CI service smoke assert that
identity rather than trusting it.

Perf shape:

- the worker process is **warm**: in-process memos, the loaded corpus,
  and the campaign process pool (``--jobs N > 1``) survive across
  jobs, so only the first job of a configuration pays cold
  costs — every compatible job after it rides warm memos and the
  shared function-level analysis store;
- **batching**: a claimed batch shares one engine signature and
  corpus, so the batch executes as one warm wave (the first job
  populates the memos; the rest replay them);
- each run's manifest (the obs run record) is written into the service
  data dir and linked back into the ``runs`` row, carrying a ``run``
  section (run id, request key, worker, attempt) so ``repro-runs
  show``/``diff`` can treat service runs like any other run.

The tool registry below is the submission surface: every tool the
service accepts, the params it allows, and how they become argv.  The
API validates against it at submit time so bad requests fail at the
door, not in a worker.
"""

from __future__ import annotations

import io
import os
import socket
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import servicelog, tracer as obs_tracer
from repro.obs.metrics import REGISTRY
from repro.perf.timers import bump
from repro.serve import keys as serve_keys
from repro.serve.db import CorpusStore, QueueWatcher, RunQueue

#: Default upper bound on jobs claimed per wave.
DEFAULT_BATCH_LIMIT = 8

#: Default claim lease; must exceed the slowest single job by a margin.
DEFAULT_LEASE_SECONDS = 120.0

#: Seconds between worker heartbeat upserts while idle.
HEARTBEAT_SECONDS = 5.0

#: Event-driven idle cap: the claim query only reruns on a database
#: change (seen by the queue watcher) or ``stop``, with a safety-net
#: re-poll this often.
IDLE_WAIT_SECONDS = 5.0


def service_tracing_enabled() -> bool:
    """Whether service runs record per-run trace trees (default: yes).

    ``REPRO_SERVE_TRACE=0`` turns it off.  The trace goes to the run's
    record directory and its status lines to stderr, so the captured
    stdout — the service's result bytes — stays byte-identical to a
    direct CLI invocation either way.
    """
    return os.environ.get("REPRO_SERVE_TRACE", "1") != "0"


class RequestError(ValueError):
    """A submitted request names an unknown tool or invalid params."""


@dataclass(frozen=True)
class ToolSpec:
    """One service-invocable tool: its CLI main and allowed params."""

    name: str
    main: str  # attribute on repro.cli
    #: param name -> (python type, argv builder)
    params: Dict[str, Tuple[type, Callable[[Any], List[str]]]] = \
        field(default_factory=dict)

    def build_argv(self, params: Dict[str, Any]) -> List[str]:
        argv: List[str] = []
        for name in sorted(params):
            if name not in self.params:
                raise RequestError(
                    f"tool {self.name!r} does not accept param {name!r}")
            expected, build = self.params[name]
            value = params[name]
            if expected is int and isinstance(value, bool):
                raise RequestError(f"param {name!r} must be an integer")
            if not isinstance(value, expected):
                raise RequestError(
                    f"param {name!r} must be {expected.__name__}, "
                    f"got {type(value).__name__}")
            argv.extend(build(value))
        return argv


def _flag(option: str) -> Callable[[Any], List[str]]:
    return lambda value: [option] if value else []


def _opt(option: str) -> Callable[[Any], List[str]]:
    return lambda value: [option, str(value)]


def _count(name: str) -> Callable[[Any], List[str]]:
    """An integer >= 1 param.  The CLI rejects smaller values too;
    failing here keeps a bad value from ever getting a request key of
    its own."""
    def build(value: int) -> List[str]:
        if value < 1:
            raise RequestError(f"param {name!r} must be >= 1, got {value}")
        return [f"--{name}", str(value)]
    return build


_CAMPAIGN_PARAMS = {
    "jobs": (int, _count("jobs")),
    "seed": (int, _opt("--seed")),
    "sample": (str, _opt("--sample")),
    "budget": (int, _count("budget")),
    "shards": (int, _count("shards")),
}

#: Every tool the service executes.  ``repro-runs`` and ``repro-demo``
#: style inspection stays client-side; these are the compute requests.
TOOLS: Dict[str, ToolSpec] = {
    "extract": ToolSpec("extract", "main_extract", {
        "list": (bool, _flag("--list")),
    }),
    "condocck": ToolSpec("condocck", "main_condocck", {}),
    "conhandleck": ToolSpec("conhandleck", "main_conhandleck", {
        "verbose": (bool, _flag("--verbose")),
        **_CAMPAIGN_PARAMS,
    }),
    "conbugck": ToolSpec("conbugck", "main_conbugck", {
        "count": (int, _opt("--count")),
        "fs_blocks": (int, _opt("--fs-blocks")),
        **_CAMPAIGN_PARAMS,
    }),
    "study": ToolSpec("study", "main_study", {}),
    "demo": ToolSpec("demo", "main_demo", {}),
}


def validate_request(tool: str, params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Canonical params for one request; RequestError when invalid.

    Validation *is* argv building — a request is valid exactly when
    the worker could turn it into a CLI invocation.
    """
    spec = TOOLS.get(tool)
    if spec is None:
        raise RequestError(
            f"unknown tool {tool!r}; expected one of {', '.join(sorted(TOOLS))}")
    canonical = serve_keys.canonical_params(params)
    spec.build_argv(canonical)  # raises on unknown/ill-typed params
    return canonical


class _OutputRouter(io.TextIOBase):
    """A stdout/stderr stand-in that routes writes per thread.

    ``contextlib.redirect_stdout`` swaps ``sys.stdout`` process-wide,
    which forced the old ``_EXEC_LOCK``: only one captured job could
    run at a time.  The router keeps ``sys.stdout`` swapped *once* and
    routes each ``write`` by the calling thread's ident — registered
    exec threads hit their own job buffer, everyone else falls through
    to the real stream — so N jobs capture concurrently without ever
    seeing each other's bytes.
    """

    def __init__(self, fallback) -> None:
        self.fallback = fallback
        #: thread ident -> capture buffer; mutated under _CAPTURE_LOCK,
        #: read lock-free on the write path (dict get is atomic).
        self.routes: Dict[int, io.StringIO] = {}

    def _target(self):
        return self.routes.get(threading.get_ident(), self.fallback)

    def write(self, text: str) -> int:
        return self._target().write(text)

    def flush(self) -> None:
        self._target().flush()

    def writable(self) -> bool:  # pragma: no cover - io plumbing
        return True

    def isatty(self) -> bool:
        return False


#: Guards installation/teardown of the routers and route registration.
_CAPTURE_LOCK = threading.Lock()

#: Live capture state: routers installed while any capture is active.
_CAPTURE = {"depth": 0, "stdout": None, "stderr": None}


@contextmanager
def capture_output() -> Iterator[Tuple[io.StringIO, io.StringIO]]:
    """Capture this thread's stdout/stderr into private buffers.

    Re-entrant across threads: the first active capture installs the
    routers, the last one restores the original streams (unless
    someone else has since replaced ``sys.stdout`` — then it is left
    alone).  Unlike ``redirect_stdout`` this never serializes callers,
    which is what lets a worker's exec slots run jobs concurrently.
    """
    out, err = io.StringIO(), io.StringIO()
    ident = threading.get_ident()
    with _CAPTURE_LOCK:
        if _CAPTURE["depth"] == 0:
            _CAPTURE["stdout"] = _OutputRouter(sys.stdout)
            _CAPTURE["stderr"] = _OutputRouter(sys.stderr)
            sys.stdout = _CAPTURE["stdout"]
            sys.stderr = _CAPTURE["stderr"]
        _CAPTURE["depth"] += 1
        _CAPTURE["stdout"].routes[ident] = out
        _CAPTURE["stderr"].routes[ident] = err
    try:
        yield out, err
    finally:
        with _CAPTURE_LOCK:
            _CAPTURE["stdout"].routes.pop(ident, None)
            _CAPTURE["stderr"].routes.pop(ident, None)
            _CAPTURE["depth"] -= 1
            if _CAPTURE["depth"] == 0:
                if sys.stdout is _CAPTURE["stdout"]:
                    sys.stdout = _CAPTURE["stdout"].fallback
                if sys.stderr is _CAPTURE["stderr"]:
                    sys.stderr = _CAPTURE["stderr"].fallback
                _CAPTURE["stdout"] = _CAPTURE["stderr"] = None


class Worker:
    """One queue consumer: claim, execute, record, repeat.

    ``exec_slots`` is the in-process concurrency width: a worker with
    N > 1 slots runs up to N compatible batchmates at once on a thread
    pool (their per-job output capture is thread-routed, see
    :func:`capture_output`).  The payoff comes when the jobs dispatch
    campaign shards to the *process* pool — the slots keep that pool
    saturated — so slots default to 1 and are worth raising only for
    sharded ``--jobs N > 1`` campaigns on a multi-core host.
    """

    def __init__(self, db_path: str, data_dir: str,
                 worker_id: Optional[str] = None,
                 batch_limit: int = DEFAULT_BATCH_LIMIT,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 exec_slots: Optional[int] = None) -> None:
        self.queue = RunQueue(db_path)
        self.store = CorpusStore(data_dir)
        self.data_dir = data_dir
        self.worker_id = worker_id or f"{socket.gethostname()}:{os.getpid()}"
        self.batch_limit = max(1, batch_limit)
        self.lease_seconds = lease_seconds
        if exec_slots is None:
            exec_slots = int(os.environ.get("REPRO_SERVE_SLOTS", "1") or 1)
        self.exec_slots = max(1, exec_slots)
        self.jobs_done = 0
        self.jobs_failed = 0
        self.batches = 0
        self._executor: Optional[ThreadPoolExecutor] = None
        self._watcher: Optional[QueueWatcher] = None

    def close(self) -> None:
        """Release the exec pool, the watcher, and pooled connections."""
        if self._watcher is not None:
            self._watcher.stop()
            self._watcher = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.queue.close()

    # -- execution ------------------------------------------------------

    @contextmanager
    def _corpus_env(self, corpus_id: Optional[str]) -> Iterator[None]:
        """Point ``REPRO_CORPUS_DIR`` at one snapshot for the body.

        No-op when the variable already points there (the batch loop
        sets it once for the whole batch — batchmates share a corpus
        by :meth:`RunQueue.claim_batch` construction — so concurrent
        jobs never fight over the process-global environment).
        """
        if not corpus_id:
            yield
            return
        target = self.store.path(corpus_id)
        if os.environ.get("REPRO_CORPUS_DIR") == target:
            yield
            return
        saved = os.environ.get("REPRO_CORPUS_DIR")
        os.environ["REPRO_CORPUS_DIR"] = target
        try:
            yield
        finally:
            if saved is None:
                os.environ.pop("REPRO_CORPUS_DIR", None)
            else:
                os.environ["REPRO_CORPUS_DIR"] = saved

    def execute(self, run: Dict[str, Any],
                tracing: Optional[bool] = None) -> Tuple[Dict[str, Any], str]:
        """Run one claimed job; returns ``(result payload, manifest path)``.

        The job executes through its CLI main with stdout/stderr
        captured and ``--manifest`` pointed into the run's record
        directory; the manifest then gets the ``run`` linkage section.
        Exceptions propagate to the caller (which marks the run failed).

        ``tracing=None`` follows :func:`service_tracing_enabled`; the
        batch loop passes False for jobs sharing a concurrent wave
        (the trace session is one-per-process, so overlapping traced
        jobs would interleave their span trees).
        """
        import repro.cli as cli
        from repro.obs.manifest import load_manifest, write_manifest

        spec = TOOLS[run["tool"]]
        argv = spec.build_argv(run["params"])
        run_dir = os.path.join(self.data_dir, "runs", run["run_id"])
        os.makedirs(run_dir, exist_ok=True)
        manifest_path = os.path.join(run_dir, "manifest.json")
        argv = argv + ["--manifest", manifest_path]
        # Per-run trace: the CLI main's own --trace machinery records
        # the span tree into the run directory, and the traceparent —
        # derived from the request key, so every process agrees on it
        # with no coordination — rides a thread-scoped override
        # (:func:`repro.obs.tracer.traceparent_scope`) into the
        # session, whose trace file header carries it.  The old
        # process-global TRACEPARENT export would race between
        # concurrent exec slots.
        traceparent = obs_tracer.make_traceparent(
            run["run_id"], f"attempt-{int(run['attempts'])}")
        if tracing is None:
            tracing = service_tracing_enabled()
        trace_path = os.path.join(run_dir, "trace.jsonl")
        if tracing:
            argv = argv + ["--trace", trace_path]
        main = getattr(cli, spec.main)
        self.queue.start(run["run_id"], self.worker_id)
        started_wall = time.time()
        started = time.perf_counter()
        with self._corpus_env(run.get("corpus_id")), \
                obs_tracer.traceparent_scope(traceparent), \
                capture_output() as (out, err):
            try:
                exit_code = int(main(argv) or 0)
            except SystemExit as exc:  # argparse-style exits
                exit_code = int(exc.code or 0)
        wall = time.perf_counter() - started

        manifest = load_manifest(manifest_path)
        queue_latency = None
        if run.get("claimed_at") is not None and run.get("created") is not None:
            queue_latency = round(
                max(0.0, run["claimed_at"] - run["created"]), 6)
        manifest["run"] = {
            "id": run["run_id"],
            "request_key": run["run_id"],
            "worker": self.worker_id,
            "attempt": int(run["attempts"]),
            "traceparent": traceparent,
            "queued": run.get("created"),
            "claimed": run.get("claimed_at"),
            "started": started_wall,
            "finished": started_wall + wall,
            "queue_latency": queue_latency,
        }
        write_manifest(manifest, manifest_path)
        result = {
            "exit_code": exit_code,
            "output": out.getvalue(),
            "stderr": err.getvalue()[-4000:],
            "wall_seconds": round(wall, 6),
            "digest": (manifest.get("report") or {}).get("digest"),
            "manifest": os.path.relpath(manifest_path, self.data_dir),
        }
        return result, manifest_path

    # -- batch orchestration --------------------------------------------

    def _wave_key(self, run: Dict[str, Any]) -> Tuple[Any, ...]:
        """Which batchmates may safely share a concurrent wave.

        Jobs with ``jobs > 1`` share the campaign process pool, which
        is keyed by its ``--jobs`` width: a concurrent job with a
        *different* width would retire the pool out from under its
        wavemates, so only equal widths ride one wave together.
        """
        jobs = run["params"].get("jobs", 1)
        if jobs > 1:
            return ("process", jobs)
        return ("inproc",)

    def _waves(self, batch: List[Dict[str, Any]]) -> List[List[Dict[str, Any]]]:
        """Partition a claimed batch into concurrency-safe waves."""
        if self.exec_slots <= 1:
            return [[run] for run in batch]
        waves: List[List[Dict[str, Any]]] = []
        last_key: Optional[Tuple[Any, ...]] = None
        for run in batch:
            key = self._wave_key(run)
            if waves and key == last_key:
                waves[-1].append(run)
            else:
                waves.append([run])
                last_key = key
        return waves

    def _exec_pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.exec_slots,
                thread_name_prefix=f"exec-{self.worker_id}")
        return self._executor

    def _job_outcome(self, run: Dict[str, Any], tracing: Optional[bool]
                     ) -> Tuple[Optional[Dict[str, Any]], Optional[str],
                                Optional[BaseException]]:
        """Execute one job, trapping everything (futures-safe)."""
        try:
            result, manifest_path = self.execute(run, tracing=tracing)
            return result, manifest_path, None
        except BaseException as exc:
            return None, None, exc

    def _complete(self, run: Dict[str, Any],
                  outcome: Tuple[Optional[Dict[str, Any]], Optional[str],
                                 Optional[BaseException]],
                  outstanding: List[str]) -> bool:
        """Record one finished job; returns True when it failed.

        Also renews every still-outstanding claim in the batch: the
        lease covers the whole batch, and a long job must not let its
        batchmates lapse.
        """
        run_id = run["run_id"]
        if run_id in outstanding:
            outstanding.remove(run_id)
        result, manifest_path, exc = outcome
        if exc is not None:
            self.jobs_failed += 1
            bump("serve.jobs_failed")
            detail = "".join(traceback.format_exception_only(
                type(exc), exc)).strip()
            self.queue.fail(run_id, self.worker_id, detail)
        else:
            self.jobs_done += 1
            bump("serve.jobs_done")
            self.queue.finish(run_id, self.worker_id, result, manifest_path)
            # In-process latency view (the fleet view is derived from
            # the runs table by whoever serves /v1/metrics).
            REGISTRY.observe("serve.run.exec_latency",
                             result["wall_seconds"])
            timeline = self.queue.run_latencies(run_id)
            if timeline["queue_latency"] is not None:
                REGISTRY.observe("serve.run.queue_latency",
                                 timeline["queue_latency"])
        for waiting_id in outstanding:
            self.queue.renew(waiting_id, self.worker_id, self.lease_seconds)
        return exc is not None

    def run_once(self) -> int:
        """Claim and execute one batch; returns the number of jobs run.

        Waves of compatible batchmates (see :meth:`_wave_key`) run
        concurrently on the exec pool when ``exec_slots > 1``; a
        single-job wave runs inline with tracing enabled, exactly as
        a one-slot worker would.
        """
        batch = self.queue.claim_batch(self.worker_id,
                                       limit=self.batch_limit,
                                       lease_seconds=self.lease_seconds)
        if not batch:
            return 0
        self.batches += 1
        bump("serve.batches")
        bump("serve.batch_jobs", len(batch))
        batch_done = batch_failed = 0
        outstanding = [run["run_id"] for run in batch]
        interrupt: Optional[BaseException] = None

        def record(run: Dict[str, Any], outcome) -> None:
            nonlocal batch_done, batch_failed, interrupt
            if self._complete(run, outcome, outstanding):
                batch_failed += 1
            else:
                batch_done += 1
            exc = outcome[2]
            if exc is not None and not isinstance(exc, Exception):
                interrupt = exc

        try:
            # The corpus env is set once around the whole batch (all
            # batchmates share one corpus by claim_batch construction):
            # a per-job set/restore would yank the process-global
            # variable out from under a concurrent wavemate mid-run.
            with self._corpus_env(batch[0].get("corpus_id")):
                for wave in self._waves(batch):
                    if len(wave) == 1:
                        run = wave[0]
                        record(run, self._job_outcome(run, None))
                    else:
                        bump("serve.concurrent_waves")
                        # Concurrent wave: per-run tracing off — the
                        # trace session is one-per-process and
                        # overlapping jobs would interleave their span
                        # trees.  Result bytes are unaffected (traces
                        # never touch stdout).  Each job is recorded
                        # as it completes, so an early finisher's
                        # waiters wake while its wavemates still run.
                        futures = {
                            self._exec_pool().submit(
                                self._job_outcome, run, False): run
                            for run in wave}
                        for future in as_completed(futures):
                            record(futures[future], future.result())
                    if interrupt is not None:
                        break
        finally:
            self.queue.heartbeat(self.worker_id, jobs_done=batch_done,
                                 jobs_failed=batch_failed, batches=1)
        if interrupt is not None:
            raise interrupt  # KeyboardInterrupt and friends still stop us
        return len(batch)

    # -- the long-running loop ------------------------------------------

    def _get_watcher(self) -> QueueWatcher:
        if self._watcher is None:
            self._watcher = QueueWatcher(self.queue)
        if not self._watcher.running:
            self._watcher.start()
        return self._watcher

    def run_forever(self, stop: Optional[threading.Event] = None,
                    max_jobs: Optional[int] = None) -> int:
        """Claim-and-execute until ``stop`` is set (or ``max_jobs`` run).

        When idle, the worker blocks in the queue watcher until the
        database changes or ``stop`` is set.  The change token is taken
        *before* the claim query, so a submit racing an empty claim
        still wakes the wait that follows it.
        """
        total = 0
        self.queue.heartbeat(self.worker_id)
        servicelog.emit("worker.online", worker=self.worker_id)
        last_beat = time.time()
        watcher = self._get_watcher()
        while stop is None or not stop.is_set():
            token = watcher.token()
            ran = self.run_once()
            total += ran
            if max_jobs is not None and total >= max_jobs:
                break
            if not ran:
                # Idle heartbeats, throttled: liveness without writing
                # the database on every idle wake-up.
                now = time.time()
                if now - last_beat >= HEARTBEAT_SECONDS:
                    self.queue.heartbeat(self.worker_id)
                    last_beat = now
                watcher.wait(token, IDLE_WAIT_SECONDS, stop)
            else:
                last_beat = time.time()
        servicelog.emit("worker.offline", worker=self.worker_id)
        return total


def submit_request(queue: RunQueue, store: CorpusStore, tool: str,
                   params: Optional[Dict[str, Any]] = None,
                   corpus_id: Optional[str] = None,
                   ) -> Tuple[Dict[str, Any], bool]:
    """Validate, key, and enqueue one request (the API's submit path).

    Returns ``(run row, created)`` — ``created`` False is the dedup
    hit.  Shared by the HTTP API and in-process callers (tests,
    benchmarks) so both enqueue byte-for-byte identical rows.
    """
    canonical = validate_request(tool, params)
    # Every stage has one engine, so the engine part of the key is empty.
    engine: Dict[str, str] = {}
    corpus = store.hashes(corpus_id)
    run_id = serve_keys.request_key(tool, canonical, corpus, engine)
    row, created = queue.submit(run_id, tool, canonical, engine,
                                corpus_id=corpus_id)
    bump("serve.submits")
    if not created:
        bump("serve.dedup_hits")
    return row, created
