"""Stdlib HTTP client for the service (``repro-submit``, benches, CI).

Thin by design: every method is one request, JSON in / JSON out, with
:meth:`ServiceClient.wait_done` layering the long-poll loop on top.  Errors
surface as :class:`ServiceError` carrying the HTTP status and the
server's ``error`` message, so callers never parse HTML tracebacks.

Hot-path behaviours:

- **keep-alive**: one persistent ``http.client.HTTPConnection`` per
  thread instead of a fresh TCP connect per call.  The server is a
  thread-per-connection ``ThreadingHTTPServer``, so a reused client
  connection also pins a reused server thread — and with it that
  thread's cached database connection;
- **conditional GETs**: result/manifest fetches remember the last
  ``ETag`` and body per run and send ``If-None-Match``; a ``304``
  answer reuses the remembered bytes without shipping the body again
  (``not_modified`` counts the hits);
- **terminal rows**: a ``done`` or ``failed`` run row that a
  ``submit`` or ``run`` response carries is remembered, and
  :meth:`ServiceClient.wait_done` answers from it without a request.
  Safe because both states are terminal: the queue moves rows only
  out of ``queued`` and ``claimed``, so a remembered row can lag only
  in its ``submits`` tally.  :meth:`ServiceClient.run` always asks;
- **validated results**: a ``done`` run's submit answer carries the
  result's ``ETag`` (``result_etag``, while cached); if the remembered
  bytes carry it, the next :meth:`ServiceClient.result_bytes` returns
  them without a request (a ``not_modified`` hit), so a warm client's
  dedup hit on a finished run is one round trip.

``round_trips`` counts the requests that got a response.

A request that fails on a stale kept-alive socket (the server closed
it between calls) is retried once on a fresh connection — safe because
every request here is idempotent: submissions are content-keyed
(resubmitting is the dedup no-op) and everything else is a read.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.serve.keys import DONE, FAILED

#: Remembered (etag, body) pairs per client, LRU-bounded; the
#: terminal-row and validation memories have the same bound.
MAX_ETAG_ENTRIES = 256


class ServiceError(RuntimeError):
    """An HTTP request to the service failed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceClient:
    """One service endpoint, addressed by base URL."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: Conditional-GET hits answered from remembered bytes.
        self.not_modified = 0
        #: Requests answered by the server (a retried one counts once).
        self.round_trips = 0
        split = urlsplit(self.base_url)
        if split.scheme not in ("http", ""):
            raise ServiceError(0, f"unsupported scheme {split.scheme!r}")
        self._host = split.hostname or "127.0.0.1"
        self._port = split.port or 80
        self._prefix = split.path.rstrip("/")
        self._local = threading.local()
        #: Guards the memories below.
        self._memory_lock = threading.Lock()
        self._etags: "OrderedDict[Tuple[str, str], Tuple[str, bytes]]" = \
            OrderedDict()
        #: run_id -> the last ``done``/``failed`` row seen for it.
        self._terminal: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        #: ("result", run_id) -> a submit answer's ETag, used once.
        self._validated: "OrderedDict[Tuple[str, str], str]" = OrderedDict()

    # -- plumbing -------------------------------------------------------

    def _connection(self, fresh: bool = False) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if fresh and conn is not None:
            try:
                conn.close()
            except OSError:
                pass
            conn = None
        if conn is None:
            conn = http.client.HTTPConnection(self._host, self._port,
                                              timeout=self.timeout)
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close this thread's kept-alive connection (if any)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
            self._local.conn = None

    def _http(self, method: str, path: str,
              body: Optional[bytes] = None,
              headers: Optional[Dict[str, str]] = None,
              ) -> Tuple[int, Dict[str, str], bytes]:
        """One round trip on the kept-alive connection, retried once.

        Returns ``(status, headers, body)`` without interpreting the
        status — conditional-GET callers need the 304 as data, not as
        an error.
        """
        send_headers = {"Accept": "application/json"}
        if body is not None:
            send_headers["Content-Type"] = "application/json"
        if headers:
            send_headers.update(headers)
        url = self._prefix + path
        last_error: Optional[Exception] = None
        for attempt in (0, 1):
            conn = self._connection(fresh=attempt > 0)
            try:
                conn.request(method, url, body=body, headers=send_headers)
                response = conn.getresponse()
                payload = response.read()
                self.round_trips += 1
                return (response.status,
                        {k.title(): v for k, v in response.getheaders()},
                        payload)
            except (http.client.HTTPException, ConnectionError,
                    OSError) as exc:
                # A stale keep-alive socket fails here; one fresh
                # retry distinguishes that from a dead server.
                last_error = exc
                continue
        raise ServiceError(
            0, f"cannot reach {self.base_url}{path}: {last_error}") from None

    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None,
                 raw: bool = False) -> Any:
        data = None
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
        status, _headers, body = self._http(method, path, body=data)
        if status >= 400:
            try:
                message = json.loads(body).get("error", "")
            except ValueError:
                message = body.decode("utf-8", "replace")[:200]
            raise ServiceError(status, message)
        return body if raw else json.loads(body)

    def _conditional_get(self, kind: str, run_id: str,
                         path: str) -> Tuple[bytes, Dict[str, str]]:
        """GET with ``If-None-Match`` revalidation from remembered bytes."""
        key = (kind, run_id)
        headers: Dict[str, str] = {}
        with self._memory_lock:
            remembered = self._etags.get(key)
            validated = self._validated.pop(key, None)
            if remembered is not None:
                self._etags.move_to_end(key)
        if remembered is not None and remembered[0] == validated:
            self.not_modified += 1  # the 304 the submit answer carried
            return remembered[1], {"Etag": validated}
        if remembered is not None:
            headers["If-None-Match"] = remembered[0]
        status, resp_headers, body = self._http("GET", path, headers=headers)
        if status == 304 and remembered is not None:
            self.not_modified += 1
            return remembered[1], resp_headers
        if status >= 400:
            try:
                message = json.loads(body).get("error", "")
            except ValueError:
                message = body.decode("utf-8", "replace")[:200]
            raise ServiceError(status, message)
        etag = resp_headers.get("Etag")
        if etag:
            self._remember(self._etags, key, (etag, body))
        return body, resp_headers

    def _remember(self, memory: "OrderedDict[Any, Any]", key: Any,
                  value: Any) -> None:
        """Store ``value`` under ``key`` in one LRU-bounded memory."""
        with self._memory_lock:
            memory[key] = value
            memory.move_to_end(key)
            while len(memory) > MAX_ETAG_ENTRIES:
                memory.popitem(last=False)

    def _note_run(self, run: Dict[str, Any]) -> Dict[str, Any]:
        """Remember ``run`` if it is terminal; returns it."""
        if run["status"] in (DONE, FAILED):
            self._remember(self._terminal, run["run_id"], run)
        return run

    # -- API ------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/stats")

    def metrics_text(self) -> str:
        """The raw Prometheus exposition text from ``/v1/metrics``."""
        return self._request("GET", "/v1/metrics", raw=True) \
            .decode("utf-8")

    def metrics(self) -> Dict[Any, float]:
        """The scrape parsed into ``{(name, labels): value}`` samples."""
        from repro.obs import prom

        return prom.parse(self.metrics_text())

    def submit(self, tool: str, params: Optional[Dict[str, Any]] = None,
               corpus: Optional[str] = None) -> Dict[str, Any]:
        """Submit one request; returns ``{"run": ..., "deduplicated": ...}``."""
        body: Dict[str, Any] = {"tool": tool, "params": params or {}}
        if corpus is not None:
            body["corpus"] = corpus
        submitted = self._request("POST", "/v1/runs", body)
        run_id = self._note_run(submitted["run"])["run_id"]
        if submitted.get("result_etag"):
            self._remember(self._validated, ("result", run_id),
                           submitted["result_etag"])
        return submitted

    def run(self, run_id: str, wait: Optional[float] = None) -> Dict[str, Any]:
        """One run row; ``wait`` long-polls toward a terminal state."""
        path = f"/v1/runs/{run_id}"
        if wait:
            path += f"?wait={wait:g}"
        return self._note_run(self._request("GET", path))

    def runs(self, status: Optional[str] = None,
             limit: int = 100) -> List[Dict[str, Any]]:
        path = f"/v1/runs?limit={limit}"
        if status:
            path += f"&status={status}"
        return self._request("GET", path)["runs"]

    def result_bytes(self, run_id: str) -> bytes:
        """The run's output, byte-identical to the CLI's stdout."""
        body, _headers = self._conditional_get(
            "result", run_id, f"/v1/runs/{run_id}/result")
        return body

    def manifest(self, run_id: str) -> Dict[str, Any]:
        """The run's obs manifest (the run record)."""
        body, _headers = self._conditional_get(
            "manifest", run_id, f"/v1/runs/{run_id}/manifest")
        return json.loads(body)

    def upload_corpus(self, files: Dict[str, str]) -> str:
        """Upload a corpus overlay; returns the snapshot id."""
        return self._request("POST", "/v1/corpus", {"files": files})["corpus"]

    # -- composite helpers ---------------------------------------------

    def wait_done(self, run_id: str, timeout: float = 120.0) -> Dict[str, Any]:
        """Long-poll one run to ``done``; ServiceError on fail/timeout.

        A remembered terminal row answers without a request.
        """
        with self._memory_lock:
            run = self._terminal.get(run_id)
            if run is not None:
                self._terminal.move_to_end(run_id)
        deadline = time.monotonic() + timeout
        while True:
            if run is not None and run["status"] == DONE:
                return run
            if run is not None and run["status"] == FAILED:
                raise ServiceError(0, f"run {run_id} failed: {run.get('error')}")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(0, f"run {run_id} still pending after "
                                      f"{timeout:g}s")
            run = self.run(run_id, wait=min(remaining, 10.0))

    def submit_and_wait(self, tool: str,
                        params: Optional[Dict[str, Any]] = None,
                        corpus: Optional[str] = None,
                        timeout: float = 120.0) -> Dict[str, Any]:
        """Submit, block until done, return the final run row."""
        submitted = self.submit(tool, params, corpus=corpus)
        return self.wait_done(submitted["run"]["run_id"], timeout=timeout)
