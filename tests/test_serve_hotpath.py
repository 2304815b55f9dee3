"""The serving hot path: pooled connections, watcher, cache, slots.

Covers the tier-10 surface (connection reuse, the hot-result cache
with ``ETag``/``If-None-Match`` revalidation, event-driven long-polls,
and concurrent worker execution):

- the per-thread connection pool (:class:`repro.serve.db.RunQueue`):
  reuse across calls, graceful invalidation on :meth:`close`, and the
  fork/pid guard;
- :class:`repro.serve.db.QueueWatcher`: wakeups on commit, timeout
  semantics, clean stop, ``stop=`` events, and no missed first change
  after a lazy start;
- the idle worker: a submit wakes it within a poll tick, and ``stop``
  ends ``run_forever`` just as promptly;
- :class:`repro.serve.api.HotCache`: byte-bounded LRU eviction and
  the fallback to the database/disk read path;
- the conditional-GET contract end to end: stable ``ETag`` across
  duplicate submissions, bodyless ``304`` on ``If-None-Match``,
  eviction falling back to a correct ``200``, no validator at all in
  the cache-disabled baseline;
- the client side: remembered-bytes revalidation (``not_modified``),
  ``wait``/``wait_done`` timeout semantics under the event-driven
  wakeup path, and the round trips a call costs (a dedup hit on a
  finished run: one for a client that remembers the result, two for
  one that does not);
- the warm read workload's work counters: no new DB connections,
  every result/manifest read a hot-cache hit answered with a ``304``,
  one kept-alive client connection throughout;
- the wire: one ``wfile.write`` per response of every kind, Nagle off
  on both ends, kept-alive round trips in milliseconds (a response
  split into headers and body waits ~40 ms on a delayed ACK), and
  HTTP latency histograms, overall and per route, taken after the
  body is written;
- concurrent worker execution: thread-routed output capture, a
  two-slot worker completing a compatible batch with per-job results
  intact and byte-identical to a one-slot worker's.
"""

import http.client
import json
import os
import socket
import sqlite3
import statistics
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.obs.metrics import REGISTRY
from repro.serve.api import HotCache, ServiceHandler, route_name
from repro.serve.db import DONE, QUEUED, QueueWatcher, RunQueue
from repro.serve.worker import Worker, capture_output, submit_request

ENGINE = {"backend": "inline"}


@pytest.fixture
def service_dir(tmp_path):
    data = tmp_path / "serve"
    data.mkdir()
    return str(data)


def make_worker(service_dir, **kwargs):
    db = os.path.join(service_dir, "service.db")
    kwargs.setdefault("worker_id", "test-worker")
    return Worker(db, service_dir, **kwargs)


def counter(name):
    return REGISTRY.counters().get(name, 0)


# ---------------------------------------------------------------------------
# the per-thread connection pool
# ---------------------------------------------------------------------------


class TestConnectionPool:
    def test_calls_reuse_one_connection(self, tmp_path):
        opened, reused = counter("serve.db.conn_opened"), \
            counter("serve.db.conn_reuse")
        # Schema setup inside __init__ opens this thread's pooled
        # connection; every later call on the thread reuses it.
        queue = RunQueue(str(tmp_path / "q.db"))
        queue.submit("k1", "demo", {}, ENGINE)
        for _ in range(5):
            queue.stats()
        assert counter("serve.db.conn_opened") - opened == 1
        assert counter("serve.db.conn_reuse") - reused >= 5
        queue.close()

    def test_close_invalidates_then_reopens(self, tmp_path):
        queue = RunQueue(str(tmp_path / "q.db"))
        queue.submit("k1", "demo", {}, ENGINE)
        queue.close()
        opened = counter("serve.db.conn_opened")
        # The cached handle is stale (generation bumped): the next call
        # must transparently open a fresh connection and still work.
        assert queue.get("k1")["status"] == QUEUED
        assert counter("serve.db.conn_opened") - opened == 1
        queue.close()

    def test_each_thread_gets_its_own_connection(self, tmp_path):
        queue = RunQueue(str(tmp_path / "q.db"))
        queue.submit("k1", "demo", {}, ENGINE)
        opened = counter("serve.db.conn_opened")
        seen = []

        def reader():
            seen.append(queue.get("k1")["status"])

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == [QUEUED] * 3
        assert counter("serve.db.conn_opened") - opened == 3
        queue.close()

    def test_forked_child_abandons_inherited_handles(self, tmp_path,
                                                     monkeypatch):
        import repro.serve.db as db_module

        queue = RunQueue(str(tmp_path / "q.db"))
        queue.submit("k1", "demo", {}, ENGINE)
        inherited = queue._local.holder.conn
        real_pid = os.getpid()
        monkeypatch.setattr(db_module.os, "getpid", lambda: real_pid + 1)
        # "In the child": the cached handle's pid no longer matches, so
        # the call must open a fresh connection — and must NOT close
        # the inherited one (closing could flush parent WAL state).
        assert queue.get("k1")["status"] == QUEUED
        monkeypatch.setattr(db_module.os, "getpid", lambda: real_pid)
        inherited.execute("SELECT 1")  # still usable: never closed
        queue.close()

    def test_error_rolls_back_the_cached_connection(self, tmp_path):
        queue = RunQueue(str(tmp_path / "q.db"))
        with pytest.raises(sqlite3.Error):
            with queue._conn() as conn:
                conn.execute("BEGIN IMMEDIATE")
                conn.execute("SELECT * FROM no_such_table")
        # The same cached handle serves the next call with no open
        # transaction left behind.
        with queue._conn() as conn:
            assert not conn.in_transaction
            conn.execute("BEGIN IMMEDIATE")
            conn.execute("COMMIT")
        queue.close()

    def test_latencies_scan_is_index_bounded(self, tmp_path):
        queue = RunQueue(str(tmp_path / "q.db"))
        with queue._conn() as conn:
            plan = " ".join(row["detail"] for row in conn.execute(
                "EXPLAIN QUERY PLAN "
                "SELECT created, claimed_at, started, finished FROM runs "
                "INDEXED BY runs_finished "
                "WHERE finished IS NOT NULL AND status IN (?, ?) "
                "ORDER BY finished DESC LIMIT ?", (DONE, "failed", 10)))
        assert "runs_finished" in plan
        assert "TEMP B-TREE" not in plan
        queue.close()


# ---------------------------------------------------------------------------
# the queue watcher
# ---------------------------------------------------------------------------


class TestQueueWatcher:
    def test_commit_wakes_a_waiter(self, tmp_path):
        queue = RunQueue(str(tmp_path / "q.db"))
        watcher = QueueWatcher(queue, poll_seconds=0.01).start()
        try:
            token = watcher.token()
            timer = threading.Timer(
                0.05, lambda: queue.submit("k1", "demo", {}, ENGINE))
            timer.start()
            started = time.monotonic()
            watcher.wait(token, timeout=5.0)
            elapsed = time.monotonic() - started
            timer.join()
            assert watcher.changed(token)
            assert elapsed < 2.0  # woke on the commit, not the timeout
        finally:
            watcher.stop()
            queue.close()

    def test_wait_times_out_without_changes(self, tmp_path):
        queue = RunQueue(str(tmp_path / "q.db"))
        watcher = QueueWatcher(queue, poll_seconds=0.01).start()
        try:
            token = watcher.token()
            started = time.monotonic()
            watcher.wait(token, timeout=0.1)
            assert 0.05 <= time.monotonic() - started < 2.0
            assert not watcher.changed(token)
        finally:
            watcher.stop()
            queue.close()

    def test_stop_is_clean_and_releases_waiters(self, tmp_path):
        queue = RunQueue(str(tmp_path / "q.db"))
        watcher = QueueWatcher(queue, poll_seconds=0.01).start()
        assert watcher.running
        released = threading.Event()

        def waiter():
            watcher.wait(watcher.token(), timeout=30.0)
            released.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        watcher.stop()
        assert released.wait(timeout=5.0)
        thread.join()
        assert not watcher.running
        queue.close()

    def test_stop_event_wakes_a_waiter(self, tmp_path):
        queue = RunQueue(str(tmp_path / "q.db"))
        watcher = QueueWatcher(queue).start()
        stop = threading.Event()
        try:
            timer = threading.Timer(0.1, stop.set)
            timer.start()
            started = time.monotonic()
            watcher.wait(watcher.token(), timeout=5.0, stop=stop)
            elapsed = time.monotonic() - started
            timer.join()
            assert elapsed < 0.1 + 0.25  # woke on stop, not the timeout
        finally:
            watcher.stop()
            queue.close()

    def test_first_change_after_lazy_start_is_not_missed(self, tmp_path,
                                                         monkeypatch):
        # Hold the poll thread's first data_version read back, so a
        # commit lands between start() and that read.  The baseline
        # must already predate the commit, or the first waiter sleeps
        # out its whole timeout.
        real_read = QueueWatcher._data_version
        held = []

        def held_first_read(self, conn):
            if (threading.current_thread().name == "repro-queue-watch"
                    and not held):
                held.append(True)
                time.sleep(0.2)
            return real_read(self, conn)

        monkeypatch.setattr(QueueWatcher, "_data_version", held_first_read)
        queue = RunQueue(str(tmp_path / "q.db"))
        watcher = QueueWatcher(queue, poll_seconds=0.01).start()
        try:
            token = watcher.token()
            queue.submit("k1", "demo", {}, ENGINE)
            started = time.monotonic()
            watcher.wait(token, timeout=3.0)
            assert time.monotonic() - started < 1.0
            assert watcher.changed(token)
            assert held
        finally:
            watcher.stop()
            queue.close()


# ---------------------------------------------------------------------------
# the idle worker
# ---------------------------------------------------------------------------


class TestIdleWorker:
    """An idle ``run_forever(stop)`` worker waits on the queue watcher:
    a submit or ``stop`` wakes it within a poll tick, not the 5 s
    safety-net poll."""

    TRIALS = 50
    PROMPT = 0.25

    def test_submit_and_stop_wake_the_idle_worker(self, service_dir,
                                                  monkeypatch):
        worker = make_worker(service_dir)
        monkeypatch.setattr(worker, "execute", lambda run, tracing=None: (
            {"exit_code": 0, "output": "", "wall_seconds": 0.0}, None))
        submitter = RunQueue(os.path.join(service_dir, "service.db"))
        stop = threading.Event()
        thread = threading.Thread(target=worker.run_forever, args=(stop,),
                                  daemon=True)
        thread.start()
        try:
            for trial in range(self.TRIALS):
                time.sleep(0.03)  # let the worker go idle again
                run_id = f"k{trial}"
                submitter.submit(run_id, "demo", {}, ENGINE)
                deadline = time.monotonic() + 1.0
                row = submitter.get(run_id)
                while row["status"] != DONE and time.monotonic() < deadline:
                    time.sleep(0.005)
                    row = submitter.get(run_id)
                assert row["claimed_at"] is not None, f"trial {trial}"
                pickup = row["claimed_at"] - row["created"]
                assert pickup < self.PROMPT, (trial, pickup)
            time.sleep(0.1)
            started = time.monotonic()
            stop.set()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert time.monotonic() - started < self.PROMPT
            assert worker.jobs_done == self.TRIALS
        finally:
            stop.set()
            thread.join(timeout=5.0)
            worker.close()
            submitter.close()


# ---------------------------------------------------------------------------
# the hot cache
# ---------------------------------------------------------------------------


class TestHotCache:
    def test_lru_eviction_by_bytes(self):
        cache = HotCache(max_bytes=100)
        cache.put(("a", "result"), b"x" * 60, '"ea"', "text/plain")
        cache.put(("b", "result"), b"y" * 30, '"eb"', "text/plain")
        cache.get(("a", "result"))  # touch: b becomes the LRU entry
        cache.put(("c", "result"), b"z" * 40, '"ec"', "text/plain")
        assert cache.get(("b", "result")) is None
        assert cache.get(("a", "result"))["body"] == b"x" * 60
        assert cache.get(("c", "result"))["body"] == b"z" * 40

    def test_oversized_body_is_never_cached(self):
        cache = HotCache(max_bytes=10)
        cache.put(("a", "result"), b"x" * 11, '"e"', "text/plain")
        assert len(cache) == 0

    def test_replacement_does_not_leak_budget(self):
        cache = HotCache(max_bytes=100)
        for _ in range(10):
            cache.put(("a", "result"), b"x" * 90, '"e"', "text/plain")
        assert len(cache) == 1
        assert cache.get(("a", "result"))["body"] == b"x" * 90


# ---------------------------------------------------------------------------
# conditional GETs end to end
# ---------------------------------------------------------------------------


def _boot(service_dir, **kwargs):
    from repro.serve.api import start_in_thread

    db = os.path.join(service_dir, "service.db")
    return start_in_thread(db, service_dir, **kwargs)


def _finish_one(service_dir, tool="demo"):
    """Run one request to done through a real worker; returns run_id."""
    worker = make_worker(service_dir)
    row, _created = submit_request(worker.queue, worker.store, tool)
    assert worker.run_once() == 1
    worker.close()
    return row["run_id"]


def _raw_get(url, path, headers=None):
    split = urlsplit(url)
    conn = http.client.HTTPConnection(split.hostname, split.port, timeout=10)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class TestConditionalGET:
    def test_etag_stable_across_duplicate_submissions(self, service_dir):
        run_id = _finish_one(service_dir)
        service, _thread = _boot(service_dir)
        try:
            from repro.serve.client import ServiceClient

            client = ServiceClient(service.url)
            # Duplicate submissions collapse onto the same run id, so
            # the validator a client remembered stays good forever.
            dup = client.submit("demo")
            assert dup["deduplicated"] and dup["run"]["run_id"] == run_id
            path = f"/v1/runs/{run_id}/result"
            _status, first, _body = _raw_get(service.url, path)
            client.submit("demo")
            _status, second, _body = _raw_get(service.url, path)
            assert first["ETag"] == second["ETag"]
        finally:
            service.shutdown()
            service.server_close()

    def test_if_none_match_answers_bodyless_304(self, service_dir):
        run_id = _finish_one(service_dir)
        service, _thread = _boot(service_dir)
        try:
            for kind in ("result", "manifest"):
                path = f"/v1/runs/{run_id}/{kind}"
                status, headers, body = _raw_get(service.url, path)
                assert status == 200 and body
                etag = headers["ETag"]
                status, headers, body = _raw_get(
                    service.url, path, {"If-None-Match": etag})
                assert status == 304
                assert body == b""
                assert headers["ETag"] == etag
        finally:
            service.shutdown()
            service.server_close()

    def test_eviction_falls_back_to_disk_bytes(self, service_dir):
        run_id = _finish_one(service_dir)
        # A cache too small for the manifest: every manifest read is a
        # miss that falls through to the disk bytes — still a correct
        # 200 with the same validator.
        service, _thread = _boot(service_dir, cache_bytes=64)
        try:
            path = f"/v1/runs/{run_id}/manifest"
            status, headers, body = _raw_get(service.url, path)
            assert status == 200
            assert len(service.cache) == 0  # too big to cache
            again_status, again_headers, again_body = _raw_get(
                service.url, path)
            assert again_status == 200 and again_body == body
            assert again_headers["ETag"] == headers["ETag"]
            json.loads(body)
        finally:
            service.shutdown()
            service.server_close()

    def test_cache_disabled_baseline_has_no_validator(self, service_dir):
        run_id = _finish_one(service_dir)
        service, _thread = _boot(service_dir, cache_bytes=0)
        try:
            status, headers, body = _raw_get(
                service.url, f"/v1/runs/{run_id}/result")
            assert status == 200 and body
            assert "ETag" not in headers
        finally:
            service.shutdown()
            service.server_close()

    def test_result_cache_hit_keeps_exit_code_header(self, service_dir):
        run_id = _finish_one(service_dir)
        service, _thread = _boot(service_dir)
        try:
            path = f"/v1/runs/{run_id}/result"
            _raw_get(service.url, path)  # miss: populates the cache
            hits = counter("serve.cache.hits")
            status, headers, _body = _raw_get(service.url, path)
            assert status == 200
            assert headers["X-Repro-Exit-Code"] == "0"
            assert counter("serve.cache.hits") > hits
        finally:
            service.shutdown()
            service.server_close()


class TestClientConditional:
    def test_repeat_fetch_reuses_remembered_bytes(self, service_dir):
        run_id = _finish_one(service_dir)
        service, _thread = _boot(service_dir)
        try:
            from repro.serve.client import ServiceClient

            client = ServiceClient(service.url)
            first = client.result_bytes(run_id)
            assert client.not_modified == 0
            again = client.result_bytes(run_id)
            assert again == first
            assert client.not_modified == 1
            assert client.manifest(run_id) == client.manifest(run_id)
            assert client.not_modified >= 2
        finally:
            service.shutdown()
            service.server_close()


class TestRoundTrips:
    """Requests per client call, counted by ``ServiceClient.round_trips``.

    A ``done``/``failed`` row a response carried is remembered, so
    ``wait_done`` on it sends nothing; a run that is not terminal yet
    still long-polls.  A submit answer's ``result_etag`` that matches
    the remembered result bytes answers the fetch too, so a warm
    client's dedup hit is one round trip and a cold client's two.
    """

    def test_warm_dedup_hit_of_a_finished_run_makes_one_round_trip(
            self, service_dir):
        run_id = _finish_one(service_dir)
        service, _thread = _boot(service_dir)
        try:
            from repro.serve.client import ServiceClient

            client = ServiceClient(service.url)
            result = client.result_bytes(run_id)  # remembers the ETag
            before, not_modified = client.round_trips, client.not_modified
            submitted = client.submit("demo")
            assert submitted["deduplicated"]
            row = client.wait_done(submitted["run"]["run_id"], timeout=10)
            assert row["status"] == DONE and row["run_id"] == run_id
            assert client.result_bytes(run_id) == result
            assert client.round_trips - before == 1
            assert client.not_modified - not_modified == 1
            assert submitted["result_etag"].startswith('"')
            # The validation is one-shot: the next fetch asks again.
            assert client.result_bytes(run_id) == result
            assert client.round_trips - before == 2
            client.close()
        finally:
            service.shutdown()
            service.server_close()

    def test_cache_off_sends_no_result_etag(self, service_dir):
        run_id = _finish_one(service_dir)
        service, _thread = _boot(service_dir, cache_bytes=0)
        try:
            from repro.serve.client import ServiceClient

            client = ServiceClient(service.url)
            result = client.result_bytes(run_id)
            assert result
            before = client.round_trips
            submitted = client.submit("demo")
            assert submitted["deduplicated"]
            assert "result_etag" not in submitted
            client.wait_done(run_id, timeout=10)
            assert client.result_bytes(run_id) == result
            assert client.round_trips - before == 2
            client.close()
        finally:
            service.shutdown()
            service.server_close()

    def test_result_etag_comes_only_from_a_cached_result(self, service_dir):
        """A submit hashes no output: until a GET fills the hot cache,
        a finished run's answer carries no ``result_etag``."""
        run_id = _finish_one(service_dir)
        service, _thread = _boot(service_dir)
        try:
            from repro.serve.client import ServiceClient

            client = ServiceClient(service.url)
            assert "result_etag" not in client.submit("demo")
            result = client.result_bytes(run_id)
            submitted = client.submit("demo")
            assert client._etags[("result", run_id)] == (
                submitted["result_etag"], result)
            client.close()
        finally:
            service.shutdown()
            service.server_close()

    def test_other_result_etag_makes_the_client_fetch(self, service_dir):
        run_id = _finish_one(service_dir)
        service, _thread = _boot(service_dir)
        try:
            from repro.serve.client import ServiceClient

            client = ServiceClient(service.url)
            result = client.result_bytes(run_id)
            client._etags[("result", run_id)] = ('"stale"', b"stale bytes")
            before, not_modified = client.round_trips, client.not_modified
            submitted = client.submit("demo")
            assert submitted["result_etag"] != '"stale"'
            client.wait_done(run_id, timeout=10)
            assert client.result_bytes(run_id) == result
            assert client.round_trips - before == 2
            assert client.not_modified == not_modified
            assert client._etags[("result", run_id)] == (
                submitted["result_etag"], result)
            client.close()
        finally:
            service.shutdown()
            service.server_close()

    def test_dedup_hit_of_a_finished_run_makes_two_round_trips(
            self, service_dir):
        run_id = _finish_one(service_dir)
        service, _thread = _boot(service_dir)
        try:
            from repro.serve.client import ServiceClient

            client = ServiceClient(service.url)
            submitted = client.submit("demo")
            assert submitted["deduplicated"]
            row = client.wait_done(submitted["run"]["run_id"], timeout=10)
            assert row["status"] == DONE and row["run_id"] == run_id
            assert client.result_bytes(run_id)
            assert client.round_trips == 2
        finally:
            service.shutdown()
            service.server_close()

    def test_queued_run_still_long_polls_to_done(self, service_dir):
        service, _thread = _boot(service_dir)
        try:
            from repro.serve.client import ServiceClient

            client = ServiceClient(service.url)
            submitted = client.submit("demo")
            assert submitted["run"]["status"] == QUEUED
            worker = make_worker(service_dir)

            def finish_later():
                time.sleep(0.1)
                worker.run_once()

            thread = threading.Thread(target=finish_later)
            thread.start()
            row = client.wait_done(submitted["run"]["run_id"], timeout=30)
            thread.join()
            worker.close()
            assert row["status"] == DONE
            polled = client.round_trips
            assert polled >= 2  # the submit, then at least one long-poll
            # The long-poll's answer is remembered in turn.
            assert client.wait_done(row["run_id"], timeout=30) == row
            assert client.round_trips == polled
        finally:
            service.shutdown()
            service.server_close()

    def test_remembered_failed_row_raises_the_fetched_error(
            self, service_dir, monkeypatch):
        import repro.cli as cli
        from repro.serve.client import ServiceClient, ServiceError

        def explode(argv):
            raise RuntimeError("synthetic tool crash")

        monkeypatch.setattr(cli, "main_demo", explode)
        run_id = _finish_one(service_dir)
        service, _thread = _boot(service_dir)
        try:
            fetching = ServiceClient(service.url)
            with pytest.raises(ServiceError) as fetched:
                fetching.wait_done(run_id, timeout=10)
            assert fetching.round_trips == 1
            assert "synthetic tool crash" in str(fetched.value)

            deduping = ServiceClient(service.url)
            submitted = deduping.submit("demo")
            assert submitted["run"]["run_id"] == run_id
            with pytest.raises(ServiceError) as remembered:
                deduping.wait_done(run_id, timeout=10)
            assert deduping.round_trips == 1
            assert str(remembered.value) == str(fetched.value)
            assert remembered.value.status == fetched.value.status
        finally:
            service.shutdown()
            service.server_close()


class TestWarmReadCounters:
    """The read hot path, gated on work counters instead of wall clock.

    N rounds of result, manifest and run-row reads through one warm
    client: each layer of the hot path must show up in its counter.
    """

    N = 20

    def test_warm_reads_reuse_everything(self, service_dir):
        run_id = _finish_one(service_dir)
        service, _thread = _boot(service_dir)
        try:
            from repro.serve.client import ServiceClient

            client = ServiceClient(service.url)
            # Warm-up: fills the hot cache, the client's remembered
            # ETags, and this connection's server-thread DB handle.
            result = client.result_bytes(run_id)
            manifest = client.manifest(run_id)
            assert client.run(run_id)["status"] == DONE
            conn = client._local.conn
            opened = counter("serve.db.conn_opened")
            reused = counter("serve.db.conn_reuse")
            hits = counter("serve.cache.hits")
            not_modified = client.not_modified
            for _ in range(self.N):
                assert client.result_bytes(run_id) == result
                assert client.manifest(run_id) == manifest
                assert client.run(run_id)["status"] == DONE
            # Connection reuse on both sides: no DB handle opened, every
            # run-row read on the cached one, one client socket.
            assert counter("serve.db.conn_opened") - opened == 0
            assert counter("serve.db.conn_reuse") - reused >= self.N
            assert client._local.conn is conn
            # Hot cache plus conditional GETs: every result/manifest
            # read served from memory as a bodyless 304.
            assert counter("serve.cache.hits") - hits >= 2 * self.N
            assert client.not_modified - not_modified == 2 * self.N
        finally:
            service.shutdown()
            service.server_close()


class _SpyWriter:
    """A handler ``wfile`` stand-in: records each write, optionally
    after a delay (a slow body write)."""

    def __init__(self, inner, writes, delay):
        self.inner, self.writes, self.delay = inner, writes, delay

    def write(self, data):
        time.sleep(self.delay)
        self.writes.append(len(data))
        return self.inner.write(data)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _spy_boot(service_dir, delay=0.0, **kwargs):
    """A service whose handlers write through a :class:`_SpyWriter`;
    also records whether each accepted socket has Nagle off."""
    writes, nodelay = [], []

    class SpyHandler(ServiceHandler):
        def setup(self):
            super().setup()
            nodelay.append(self.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))
            self.wfile = _SpyWriter(self.wfile, writes, delay)

    service, _thread = _boot(service_dir, **kwargs)
    service.RequestHandlerClass = SpyHandler
    return service, writes, nodelay


def _keepalive(service):
    split = urlsplit(service.url)
    return http.client.HTTPConnection(split.hostname, split.port, timeout=10)


def _round_trip(conn, method, path, body=None, headers=None):
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    return response.status, dict(response.getheaders()), response.read()


class TestWireLevel:
    """What goes on the socket: one write per response, Nagle off on
    both ends, and kept-alive round trips that never wait on a
    delayed ACK."""

    SUBMIT = json.dumps({"tool": "demo"}).encode("utf-8")

    @pytest.mark.parametrize("cache_bytes", [None, 0],
                             ids=["cache", "no-cache"])
    def test_one_write_per_response(self, service_dir, cache_bytes):
        run_id = _finish_one(service_dir)
        service, writes, nodelay = _spy_boot(service_dir,
                                             cache_bytes=cache_bytes)
        conn = _keepalive(service)
        try:
            queued = json.dumps({"tool": "condocck"}).encode("utf-8")
            result = f"/v1/runs/{run_id}/result"
            requests = [
                ("submit new", 201, "POST", "/v1/runs", queued),
                ("submit duplicate", 200, "POST", "/v1/runs", self.SUBMIT),
                ("run row", 200, "GET", f"/v1/runs/{run_id}", None),
                ("wait on done", 200, "GET", f"/v1/runs/{run_id}?wait=5",
                 None),
                ("result", 200, "GET", result, None),
                ("result again", 200, "GET", result, None),
                ("manifest", 200, "GET", f"/v1/runs/{run_id}/manifest",
                 None),
                ("unknown run", 404, "GET", "/v1/runs/" + "0" * 64, None),
                ("no route", 404, "GET", "/v1/nope", None),
                ("metrics", 200, "GET", "/v1/metrics", None),
            ]
            answers = {}
            for label, status, method, path, body in requests:
                writes.clear()
                got, headers, answer = _round_trip(conn, method, path, body)
                assert got == status, label
                assert len(writes) == 1, (label, writes)
                answers[label] = headers, answer
            queued_id = json.loads(answers["submit new"][1])["run"]["run_id"]
            writes.clear()
            got, _headers, _body = _round_trip(
                conn, "GET", f"/v1/runs/{queued_id}/result")
            assert got == 409 and len(writes) == 1, writes
            if cache_bytes is None:
                etag = answers["result"][0]["ETag"]
                writes.clear()
                got, _headers, body = _round_trip(
                    conn, "GET", result, headers={"If-None-Match": etag})
                assert got == 304 and body == b"" and len(writes) == 1
            assert nodelay == [1]  # one kept-alive connection, Nagle off
        finally:
            conn.close()
            service.shutdown()
            service.server_close()

    def test_kept_alive_round_trips_take_milliseconds(self, service_dir):
        run_id = _finish_one(service_dir)
        service, _thread = _boot(service_dir)
        conn = _keepalive(service)
        kinds = {
            "submit": ("POST", "/v1/runs", self.SUBMIT),
            "wait": ("GET", f"/v1/runs/{run_id}?wait=5", None),
            "result": ("GET", f"/v1/runs/{run_id}/result", None),
        }
        try:
            medians = {}
            for kind, (method, path, body) in kinds.items():
                samples = []
                for _ in range(50):
                    started = time.perf_counter()
                    status, _headers, _body = _round_trip(conn, method,
                                                          path, body)
                    samples.append(time.perf_counter() - started)
                    assert status == 200, kind
                medians[kind] = statistics.median(samples)
            assert all(median < 0.005 for median in medians.values()), \
                medians
        finally:
            conn.close()
            service.shutdown()
            service.server_close()

    def test_client_socket_has_nagle_off(self, service_dir):
        # http.client writes a POST's headers and body in two sends;
        # they cannot stall on the server's delayed ACK because the
        # client's connect() turns Nagle off.
        from repro.serve.client import ServiceClient

        service, _thread = _boot(service_dir)
        try:
            client = ServiceClient(service.url)
            client.submit("demo")
            sock = client._local.conn.sock
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            client.close()
        finally:
            service.shutdown()
            service.server_close()


def _hist_totals(name):
    hist = REGISTRY.histograms().get(name)
    return (0, 0.0) if hist is None else (hist.count, hist.sum)


class TestHttpTelemetry:
    @pytest.mark.parametrize("method, path, route", [
        ("GET", "/healthz", "healthz"),
        ("GET", "/v1/metrics", "metrics"),
        ("GET", "/v1/stats/", "stats"),
        ("GET", "/v1/runs", "runs_list"),
        ("POST", "/v1/runs", "runs_submit"),
        ("POST", "/v1/corpus", "corpus_upload"),
        ("GET", "/v1/runs/abc", "runs_get"),
        ("GET", "/v1/runs/abc/result", "runs_result"),
        ("GET", "/v1/runs/abc/manifest", "runs_manifest"),
        ("GET", "/v1/runs/abc/anything", "other"),
        ("POST", "/v1/runs/abc", "other"),
        ("GET", "/made-up", "other"),
    ])
    def test_route_names_are_a_closed_set(self, method, path, route):
        assert route_name(method, path) == route

    def test_latency_covers_the_body_write(self, service_dir):
        service, _writes, _nodelay = _spy_boot(service_dir, delay=0.05)
        names = ("serve.http.latency", "serve.http.latency.healthz")
        before = {name: _hist_totals(name) for name in names}
        conn = _keepalive(service)
        try:
            assert _round_trip(conn, "GET", "/healthz")[0] == 200
            deadline = time.monotonic() + 2.0
            while (_hist_totals(names[1])[0] == before[names[1]][0]
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            for name in names:
                count, total = _hist_totals(name)
                assert count - before[name][0] == 1, name
                assert total - before[name][1] >= 0.05, name
            _status, _headers, text = _round_trip(conn, "GET", "/v1/metrics")
            assert b"repro_serve_http_latency_healthz_seconds_count" in text
        finally:
            conn.close()
            service.shutdown()
            service.server_close()


class TestWaitSemantics:
    def test_wait_returns_nonterminal_run_after_the_window(self,
                                                           service_dir):
        service, _thread = _boot(service_dir)
        try:
            from repro.serve.client import ServiceClient

            client = ServiceClient(service.url)
            run_id = client.submit("demo")["run"]["run_id"]
            started = time.monotonic()
            row = client.run(run_id, wait=0.3)  # no worker: still queued
            elapsed = time.monotonic() - started
            assert row["status"] == QUEUED
            assert 0.2 <= elapsed < 5.0
        finally:
            service.shutdown()
            service.server_close()

    def test_wait_done_times_out_with_service_error(self, service_dir):
        from repro.serve.client import ServiceClient, ServiceError

        service, _thread = _boot(service_dir)
        try:
            client = ServiceClient(service.url)
            run_id = client.submit("demo")["run"]["run_id"]
            with pytest.raises(ServiceError, match="still pending"):
                client.wait_done(run_id, timeout=0.4)
        finally:
            service.shutdown()
            service.server_close()

    def test_completion_wakes_a_long_poll_promptly(self, service_dir):
        service, _thread = _boot(service_dir)
        try:
            from repro.serve.client import ServiceClient

            client = ServiceClient(service.url)
            run_id = client.submit("demo")["run"]["run_id"]
            worker = make_worker(service_dir)

            def finish_later():
                time.sleep(0.1)
                worker.run_once()

            thread = threading.Thread(target=finish_later)
            thread.start()
            row = client.run(run_id, wait=30.0)
            thread.join()
            worker.close()
            assert row["status"] == DONE
        finally:
            service.shutdown()
            service.server_close()


# ---------------------------------------------------------------------------
# concurrent execution
# ---------------------------------------------------------------------------


class TestCaptureOutput:
    def test_threads_capture_only_their_own_writes(self):
        import sys

        results = {}
        barrier = threading.Barrier(2)

        def job(name):
            with capture_output() as (out, _err):
                barrier.wait()
                for index in range(50):
                    print(f"{name}:{index}")
                results[name] = out.getvalue()

        threads = [threading.Thread(target=job, args=(name,))
                   for name in ("alpha", "beta")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for name in ("alpha", "beta"):
            lines = results[name].splitlines()
            assert lines == [f"{name}:{index}" for index in range(50)]
        # The last capture out restores the real streams.
        assert not isinstance(sys.stdout, type(None))
        assert sys.stdout is not None and not hasattr(sys.stdout, "routes")

    def test_uncaptured_threads_fall_through(self, capsys):
        with capture_output() as (out, _err):
            print("captured")

            def bystander():
                print("fallthrough")

            thread = threading.Thread(target=bystander)
            thread.start()
            thread.join()
        assert out.getvalue() == "captured\n"
        assert "fallthrough" in capsys.readouterr().out


class TestExecSlots:
    def submit_pair(self, worker):
        rows = [submit_request(worker.queue, worker.store, tool)[0]
                for tool in ("demo", "condocck")]
        return [row["run_id"] for row in rows]

    def test_two_slot_batch_completes_without_clobbering(self, service_dir,
                                                         tmp_path):
        # One-slot reference run in its own queue.
        solo_dir = str(tmp_path / "solo")
        os.makedirs(solo_dir)
        solo = make_worker(solo_dir, exec_slots=1)
        solo_ids = self.submit_pair(solo)
        assert solo.run_once() == 2
        reference = {run_id: solo.queue.get(run_id) for run_id in solo_ids}
        solo.close()

        worker = make_worker(service_dir, exec_slots=2)
        run_ids = self.submit_pair(worker)
        assert run_ids == solo_ids  # same requests, same content keys
        waves = counter("serve.concurrent_waves")
        assert worker.run_once() == 2
        assert counter("serve.concurrent_waves") > waves
        for run_id in run_ids:
            run = worker.queue.get(run_id)
            assert run["status"] == DONE
            assert run["attempts"] == 1
            assert run["claimed_by"] == "test-worker"
            assert run["result"]["output"] == \
                reference[run_id]["result"]["output"]
        # Distinct tools produced distinct bytes: no cross-thread mixing.
        outputs = [worker.queue.get(run_id)["result"]["output"]
                   for run_id in run_ids]
        assert outputs[0] != outputs[1]
        worker.close()

    def test_solo_wave_traces_concurrent_wave_does_not(self, service_dir,
                                                       tmp_path,
                                                       monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_TRACE", raising=False)

        def trace_path(worker, run_id):
            return os.path.join(worker.data_dir, "runs", run_id,
                                "trace.jsonl")

        solo_dir = str(tmp_path / "solo")
        os.makedirs(solo_dir)
        solo = make_worker(solo_dir, exec_slots=1)
        run_id = submit_request(solo.queue, solo.store, "demo")[0]["run_id"]
        assert solo.run_once() == 1
        assert os.path.exists(trace_path(solo, run_id))
        solo.close()

        worker = make_worker(service_dir, exec_slots=2)
        run_ids = self.submit_pair(worker)
        assert worker.run_once() == 2
        for run_id in run_ids:
            assert not os.path.exists(trace_path(worker, run_id))
        worker.close()
