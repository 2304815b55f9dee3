"""The service HTTP API (stdlib ``ThreadingHTTPServer``, no new deps).

Routes (all JSON unless noted):

- ``GET  /healthz``                 liveness probe
- ``GET  /v1/stats``                queue depth by state + dedup tallies
- ``GET  /v1/metrics``              Prometheus text exposition: queue
  gauges, dedup ratio, lease reclaims, worker heartbeats, and the
  queue/exec/request latency histograms derived from the runs table
- ``POST /v1/runs``                 submit ``{"tool", "params", "corpus"}``
  → 201 with the new run, or 200 with the existing run when the
  content key deduplicated the request (``deduplicated: true``); a
  ``done`` run's answer carries ``result_etag`` while its result is cached
- ``GET  /v1/runs``                 recent runs (``?status=``, ``?limit=``)
- ``GET  /v1/runs/<id>``            one run; ``?wait=<seconds>`` long-polls
  until the run reaches ``done``/``failed`` (or the wait lapses)
- ``GET  /v1/runs/<id>/result``     the run's output bytes
  (``text/plain``; byte-identical to the CLI's stdout) — 409 until done
- ``GET  /v1/runs/<id>/manifest``   the run's obs manifest (the run record)
- ``POST /v1/corpus``               upload ``{"files": {name: source}}``
  → content-addressed corpus snapshot id for later submissions

The API never executes jobs; it validates requests at the door
(against the :mod:`repro.serve.worker` tool registry), keys them
(:mod:`repro.serve.keys`), and enqueues.  Workers — separate
processes, possibly separate machines sharing the database file's
filesystem — do the computing.  That split is what lets the service
absorb submission bursts: enqueue is a millisecond-scale SQLite
insert regardless of how long the work itself takes.

**The read hot path.**  A run finishes once and is fetched many times
(dedup aims traffic at exactly that shape), so finished result and
manifest bytes live in a bounded in-memory LRU (:class:`HotCache`):
a hot ``GET .../result`` touches neither the database nor the disk.
Both routes carry a strong ``ETag`` (the content sha) and honor
``If-None-Match`` with ``304 Not Modified`` — safe because ``done``
is a terminal state, a run's bytes never change — so a re-validating
client pays headers, not body bytes.  Long-polls ride the
:class:`~repro.serve.db.QueueWatcher` condition variable instead of
per-waiter sleep loops: N blocked clients cost one ``data_version``
poll per tick, and every completion wakes them all at once.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlparse

from repro.obs import prom, servicelog
from repro.obs.metrics import REGISTRY
from repro.serve.db import (DONE, FAILED, STATES, CorpusStore, QueueError,
                            QueueWatcher, RunQueue)
from repro.serve.worker import RequestError, submit_request

#: Cap on long-poll waits so a stuck client cannot pin an API thread.
MAX_WAIT_SECONDS = 60.0

#: Upload size cap (corpus sources are tens of KB; 8 MB is generous).
MAX_BODY_BYTES = 8 << 20

#: Default hot-cache budget (``REPRO_SERVE_CACHE_BYTES`` overrides).
DEFAULT_CACHE_BYTES = 32 << 20


class HotCache:
    """Bounded LRU over finished-run response bytes.

    Keys are ``(run_id, kind)``; an entry carries the body, its strong
    ``ETag`` (the content sha — ``done`` is terminal, so the bytes are
    immutable), the content type, and any extra response headers.
    Eviction is LRU by total body bytes against ``max_bytes``; an
    evicted entry simply falls back to the database/disk read path.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, str], Dict[str, Any]]" = \
            OrderedDict()
        self._bytes = 0

    def _publish_gauges(self) -> None:
        REGISTRY.set_gauge("serve.cache.bytes", self._bytes)
        REGISTRY.set_gauge("serve.cache.entries", len(self._entries))

    def get(self, key: Tuple[str, str]) -> Optional[Dict[str, Any]]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: Tuple[str, str], body: bytes, etag: str,
            content_type: str,
            headers: Sequence[Tuple[str, str]] = ()) -> None:
        if len(body) > self.max_bytes:
            return  # larger than the whole budget: never cacheable
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old["body"])
            self._entries[key] = {"body": body, "etag": etag,
                                  "content_type": content_type,
                                  "headers": tuple(headers)}
            self._bytes += len(body)
            while self._bytes > self.max_bytes and self._entries:
                _evicted_key, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted["body"])
                REGISTRY.bump("serve.cache.evictions")
            self._publish_gauges()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def render_metrics(queue: RunQueue) -> str:
    """The ``/v1/metrics`` exposition text for one queue.

    Three sources fold into one scrape:

    - **queue gauges** from :meth:`RunQueue.stats` — depth by status
      (labelled), dedup ratio, lease reclaims, worker liveness — the
      database is the only view shared by every process in the fleet;
    - **run-latency histograms** from :meth:`RunQueue.latencies`,
      derived from the queued/claimed/started/finished timestamps of
      finished rows (the API never executed those runs itself, so
      in-process counters cannot know them);
    - **this process's registry** — HTTP request counters and the
      request-latency histogram the handler below records.
    """
    stats = queue.stats()
    workers = queue.workers()
    exp = prom.Exposition()
    for state, depth in sorted(stats["by_status"].items()):
        exp.add("repro_serve_queue_depth", "gauge", depth,
                labels={"status": state},
                help_text="Runs currently in each queue state.")
    exp.add("repro_serve_submits", "gauge", stats["submits"],
            help_text="Total submissions (including deduplicated).")
    exp.add("repro_serve_dedup_ratio", "gauge", stats["dedup_ratio"],
            help_text="Fraction of submissions coalesced onto an "
                      "existing run.")
    exp.add("repro_serve_lease_reclaims", "gauge", stats["reclaims"],
            help_text="Claims of lapsed leases (worker died or "
                      "stalled mid-job).")
    exp.add("repro_serve_workers_alive", "gauge",
            sum(1 for worker in workers if worker["alive"]),
            help_text="Workers with a recent heartbeat.")
    now = time.time()
    for worker in workers:
        exp.add("repro_serve_worker_heartbeat_age_seconds", "gauge",
                max(0.0, now - worker["last_seen"]),
                labels={"worker": worker["worker_id"]},
                help_text="Seconds since each worker's last heartbeat.")
        exp.add("repro_serve_worker_jobs_done", "gauge",
                worker["jobs_done"],
                labels={"worker": worker["worker_id"]},
                help_text="Jobs completed per worker.")
    for name, hist in sorted(queue.latencies().items()):
        exp.add_histogram(f"repro_{name}_seconds", hist,
                          help_text=f"Latency histogram {name!r} derived "
                                    "from the runs table.")
    for name, value in sorted(REGISTRY.counters().items()):
        exp.add(f"repro_{name}_total", "counter", value,
                help_text=f"Monotonic counter {name!r} (API process).")
    for name, value in sorted(REGISTRY.gauges().items()):
        exp.add(f"repro_{name}", "gauge", value,
                help_text=f"Gauge {name!r} (API process).")
    for name, hist in sorted(REGISTRY.histograms().items()):
        if name.startswith("serve.run."):
            continue  # fleet view above is authoritative for run latencies
        exp.add_histogram(f"repro_{name}_seconds", hist,
                          help_text=f"Latency histogram {name!r} "
                                    "(API process).")
    return exp.render()


#: ``(method, path)`` -> route name, for the fixed routes.
_ROUTES = {("GET", "/healthz"): "healthz", ("GET", "/v1/stats"): "stats",
           ("GET", "/v1/metrics"): "metrics", ("GET", "/v1/runs"): "runs_list",
           ("POST", "/v1/runs"): "runs_submit",
           ("POST", "/v1/corpus"): "corpus_upload"}


def route_name(method: str, path: str) -> str:
    """The route a request hit, as a metric-name suffix.

    ``serve.http.latency.<route>`` carries the route in the name (the
    registry has no labels), so the set is closed: a path outside the
    API maps to ``other``, never to a client-chosen name.
    """
    path = path.rstrip("/") or "/"
    name = _ROUTES.get((method, path))
    if name is not None:
        return name
    parts = path.split("/")
    if method == "GET" and parts[1:3] == ["v1", "runs"]:
        if len(parts) == 4:
            return "runs_get"
        if len(parts) == 5 and parts[4] in ("result", "manifest"):
            return f"runs_{parts[4]}"
    return "other"


def _public_run(run: Dict[str, Any]) -> Dict[str, Any]:
    """The externally visible shape of one run row."""
    out = {key: run.get(key) for key in (
        "run_id", "tool", "params", "engine", "corpus_id", "status",
        "submits", "attempts", "reclaims", "created", "claimed_at",
        "started", "finished", "error")}
    result = run.get("result")
    if result is not None:
        out["result"] = {key: value for key, value in result.items()
                         if key != "output"}
    return out


class ServiceHandler(BaseHTTPRequestHandler):
    """Request dispatch over the queue/store the server carries."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on each accepted connection.  ``StreamRequestHandler
    #: .setup()`` reads this from the handler class, not the server.
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------

    @property
    def queue(self) -> RunQueue:
        return self.server.queue  # type: ignore[attr-defined]

    @property
    def store(self) -> CorpusStore:
        return self.server.store  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        """Handler diagnostics (errors etc.) go to the service log too."""
        servicelog.emit("http.log", detail=format % args)
        if getattr(self.server, "verbose", False):  # quiet by default
            super().log_message(format, *args)

    def _respond(self, code: int, body: bytes, content_type: str,
                 headers: Sequence[Tuple[str, str]] = (),
                 etag: Optional[str] = None) -> None:
        """Send one whole response in a single ``wfile.write``; record it.

        Headers and body written apart are two TCP segments, and the
        second can wait ~40 ms behind the peer's delayed ACK; one write
        cannot split that way, whatever the socket options.  With an
        ``etag``, a matching ``If-None-Match`` turns the 200 into a
        bodyless 304.

        This is the single choke point for HTTP telemetry, taken after
        the write so the latency covers sending the body: a counter,
        the overall and per-route latency histograms, a service-log
        event, and the classic access line only under ``--verbose``.
        """
        if etag is not None and self.headers.get("If-None-Match") == etag:
            REGISTRY.bump("serve.cache.304s")
            code, body = 304, b""
        lines = [f"{self.protocol_version} {code} {self.responses[code][0]}",
                 f"Server: {self.version_string()}",
                 f"Date: {self.date_time_string()}"]
        if code != 304:
            lines += [f"Content-Type: {content_type}",
                      f"Content-Length: {len(body)}"]
        if etag is not None:
            lines.append(f"ETag: {etag}")
        lines += [f"{name}: {value}" for name, value in headers]
        self.wfile.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)

        duration = time.perf_counter() - self._began
        path = urlparse(self.path).path
        REGISTRY.bump("serve.http.requests")
        REGISTRY.observe("serve.http.latency", duration)
        REGISTRY.observe(
            f"serve.http.latency.{route_name(self.command, path)}", duration)
        servicelog.emit("http.request", method=self.command, path=path,
                        status=code, duration=round(duration, 6))
        if getattr(self.server, "verbose", False):
            # The classic access line, without re-entering our
            # log_message override (which would double-emit).
            BaseHTTPRequestHandler.log_message(
                self, '"%s" %s %s', self.requestline, code, len(body))

    def _json(self, code: int, payload: Any) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._respond(code, body, "application/json; charset=utf-8")

    def _error(self, code: int, message: str) -> None:
        self._json(code, {"error": message})

    def _read_body(self) -> Optional[Dict[str, Any]]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            self._error(413, f"body too large ({length} bytes)")
            return None
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw or b"{}")
        except ValueError:
            self._error(400, "body is not valid JSON")
            return None
        if not isinstance(payload, dict):
            self._error(400, "body must be a JSON object")
            return None
        return payload

    def _route(self) -> Tuple[str, Dict[str, Any]]:
        parsed = urlparse(self.path)
        query = {key: values[-1]
                 for key, values in parse_qs(parsed.query).items()}
        return parsed.path.rstrip("/") or "/", query

    # -- GET ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        self._began = time.perf_counter()
        path, query = self._route()
        if path == "/healthz":
            self._json(200, {"ok": True, "time": time.time()})
            return
        if path == "/v1/stats":
            self._json(200, self.queue.stats())
            return
        if path == "/v1/metrics":
            self._respond(200, render_metrics(self.queue).encode("utf-8"),
                          prom.CONTENT_TYPE)
            return
        if path == "/v1/runs":
            status = query.get("status")
            if status is not None and status not in STATES:
                self._error(400, f"unknown status {status!r}")
                return
            limit = min(int(query.get("limit", 100)), 1000)
            runs = self.queue.list_runs(status=status, limit=limit)
            self._json(200, {"runs": [_public_run(run) for run in runs]})
            return
        parts = path.split("/")
        if len(parts) >= 4 and parts[1] == "v1" and parts[2] == "runs":
            run_id = parts[3]
            if len(parts) == 5 and parts[4] in ("result", "manifest"):
                # Hot path first: a cached entry answers without
                # touching the database (or waiting) at all — the run
                # is necessarily done, or it would not be cached.
                if self._send_cached(run_id, parts[4]):
                    return
            run = self._wait_for(run_id, query)
            if run is None:
                self._error(404, f"unknown run {run_id!r}")
                return
            if len(parts) == 4:
                self._json(200, _public_run(run))
                return
            if len(parts) == 5 and parts[4] == "result":
                self._send_result(run)
                return
            if len(parts) == 5 and parts[4] == "manifest":
                self._send_manifest(run)
                return
        self._error(404, f"no route {path!r}")

    def _wait_for(self, run_id: str,
                  query: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The run row, long-polled to a terminal state when asked.

        The wait is event-driven: take a change token from the queue
        watcher, re-read the row (*after* the token, so a completion
        racing the read is never missed — at worst the wakeup is
        spurious), and block on the shared condition variable until
        the database changes or the deadline lapses.
        """
        run = self.queue.get(run_id)
        try:
            wait = min(float(query.get("wait", 0)), MAX_WAIT_SECONDS)
        except ValueError:
            wait = 0.0
        if (wait <= 0 or run is None
                or run["status"] in (DONE, FAILED)):
            return run
        deadline = time.monotonic() + wait
        watcher = self.server.get_watcher()  # type: ignore[attr-defined]
        while run is not None and run["status"] not in (DONE, FAILED):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            token = watcher.token()
            run = self.queue.get(run_id)
            if run is None or run["status"] in (DONE, FAILED):
                break
            watcher.wait(token, remaining)
            run = self.queue.get(run_id)
        return run

    # -- results & manifests (the read hot path) ------------------------

    @property
    def cache(self) -> Optional[HotCache]:
        return getattr(self.server, "cache", None)

    def _send_cached(self, run_id: str, kind: str) -> bool:
        """Serve one result/manifest from the hot cache; False on miss."""
        cache = self.cache
        if cache is None:
            return False
        entry = cache.get((run_id, kind))
        if entry is None:
            return False
        REGISTRY.bump("serve.cache.hits")
        self._respond(200, entry["body"], entry["content_type"],
                      entry["headers"], entry["etag"])
        return True

    def _send_read(self, run_id: str, kind: str, body: bytes,
                   content_type: str,
                   headers: Sequence[Tuple[str, str]] = ()) -> None:
        """A 200 for bytes read from the database or disk.

        With the cache on, the bytes are cached and validated by a
        strong ``ETag``; with it off, the 200 carries no validator.
        """
        etag = None
        cache = self.cache
        if cache is not None:
            REGISTRY.bump("serve.cache.misses")
            etag = f'"{hashlib.sha256(body).hexdigest()}"'
            cache.put((run_id, kind), body, etag, content_type, headers)
        self._respond(200, body, content_type, headers, etag)

    def _send_result(self, run: Dict[str, Any]) -> None:
        if run["status"] != DONE or not isinstance(run.get("result"), dict):
            self._error(409, f"run is {run['status']}, result not available")
            return
        self._send_read(run["run_id"], "result",
                        run["result"].get("output", "").encode("utf-8"),
                        "text/plain; charset=utf-8",
                        (("X-Repro-Exit-Code",
                          str(run["result"].get("exit_code", 0))),))

    def _send_manifest(self, run: Dict[str, Any]) -> None:
        path = run.get("manifest_path")
        if run["status"] != DONE or not path or not os.path.exists(path):
            self._error(409, f"run is {run['status']}, manifest not available")
            return
        with open(path, "rb") as handle:
            body = handle.read()
        self._send_read(run["run_id"], "manifest", body,
                        "application/json; charset=utf-8")

    # -- POST -----------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (http.server contract)
        self._began = time.perf_counter()
        path, _query = self._route()
        body = self._read_body()
        if body is None:
            return
        if path == "/v1/runs":
            self._submit(body)
            return
        if path == "/v1/corpus":
            self._upload_corpus(body)
            return
        self._error(404, f"no route {path!r}")

    def _submit(self, body: Dict[str, Any]) -> None:
        tool = body.get("tool")
        params = body.get("params") or {}
        corpus_id = body.get("corpus")
        if not isinstance(tool, str):
            self._error(400, "missing tool name")
            return
        if not isinstance(params, dict):
            self._error(400, "params must be an object")
            return
        try:
            run, created = submit_request(self.queue, self.store, tool,
                                          params, corpus_id=corpus_id)
        except (RequestError, QueueError) as exc:
            self._error(400, str(exc))
            return
        answer = {"run": _public_run(run), "deduplicated": not created}
        entry = self.cache.get((run["run_id"], "result")) \
            if self.cache is not None and run["status"] == DONE else None
        if entry is not None:
            answer["result_etag"] = entry["etag"]
        self._json(201 if created else 200, answer)

    def _upload_corpus(self, body: Dict[str, Any]) -> None:
        files = body.get("files")
        if (not isinstance(files, dict) or not files
                or not all(isinstance(k, str) and isinstance(v, str)
                           for k, v in files.items())):
            self._error(400, "files must map filename -> source text")
            return
        try:
            corpus_id = self.store.add(files)
        except QueueError as exc:
            self._error(400, str(exc))
            return
        self._json(201, {"corpus": corpus_id,
                         "files": sorted(files)})


class Service(ThreadingHTTPServer):
    """The HTTP front end bound to one queue + corpus store.

    The queue keeps one DB connection per thread, and long-polls ride
    a single shared :class:`QueueWatcher`.  ``cache_bytes`` is the
    :class:`HotCache` budget for finished-run result/manifest bytes
    (``REPRO_SERVE_CACHE_BYTES`` overrides the default; 0 disables the
    cache *and* ``ETag`` emission).
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], db_path: str,
                 data_dir: str, verbose: bool = False,
                 cache_bytes: Optional[int] = None) -> None:
        super().__init__(address, ServiceHandler)
        self.queue = RunQueue(db_path)
        self.store = CorpusStore(data_dir)
        self.verbose = verbose
        if cache_bytes is None:
            cache_bytes = int(os.environ.get("REPRO_SERVE_CACHE_BYTES",
                                             DEFAULT_CACHE_BYTES))
        self.cache = HotCache(cache_bytes) if cache_bytes > 0 else None
        self._watcher: Optional[QueueWatcher] = None
        self._watcher_lock = threading.Lock()

    def get_watcher(self) -> QueueWatcher:
        """The shared queue watcher, started on first use."""
        with self._watcher_lock:
            if self._watcher is None:
                self._watcher = QueueWatcher(self.queue)
            if not self._watcher.running:
                self._watcher.start()
            return self._watcher

    def server_close(self) -> None:
        super().server_close()
        with self._watcher_lock:
            if self._watcher is not None:
                self._watcher.stop()
                self._watcher = None
        self.queue.close()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def start_in_thread(db_path: str, data_dir: str,
                    host: str = "127.0.0.1", port: int = 0,
                    **kwargs: Any) -> Tuple[Service, threading.Thread]:
    """Boot a service on a background thread (tests and benchmarks).

    Extra keyword arguments (``cache_bytes``) pass through to
    :class:`Service`.
    """
    service = Service((host, port), db_path, data_dir, **kwargs)
    thread = threading.Thread(target=service.serve_forever,
                              name="repro-serve", daemon=True)
    thread.start()
    return service, thread
