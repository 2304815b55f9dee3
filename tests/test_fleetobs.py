"""Fleet telemetry: histograms, exposition, service log, run traces.

Covers the tier-9 observability surface added on top of the serving
layer:

- the bounded log-bucket :class:`repro.obs.metrics.Histogram` and its
  registry integration (observe/histograms/reset);
- Prometheus text exposition (:mod:`repro.obs.prom`): render/parse
  round-trip, family typing, histogram triplets, quantile recovery;
- the structured multi-process service log
  (:mod:`repro.obs.servicelog`): append/read, rotation chain, schema
  validation, the module-global configure/emit fast path;
- queue telemetry (:mod:`repro.serve.db`): run timeline derivation,
  DB-backed latency histograms, reclaim accounting, worker heartbeats;
- the ``/v1/metrics`` endpoint end to end (scrape parses, gauges and
  run-latency histograms populated);
- cross-process trace reassembly (:mod:`repro.serve.runtrace` +
  ``repro-runs trace``): a worker-executed run stitches into a single
  rooted span tree, traceparent mismatches are quarantined;
- trace context through a process-worker campaign (the trace file
  carries the traceparent and stays one rooted tree, with the shard
  spans from the pool workers grafted in);
- the ``repro-top`` dashboard and ``repro-runs tail`` CLI surfaces.
"""

import json
import math
import os
import threading
import time

import pytest

from repro.obs import events as obs_events
from repro.obs import prom, servicelog
from repro.obs import tracer as obs_tracer
from repro.obs.metrics import REGISTRY, Histogram, MetricsRegistry
from repro.serve import runtrace
from repro.serve.db import DONE, RunQueue
from repro.serve.worker import Worker, submit_request

ENGINE = {"backend": "inline"}


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_bucketing_is_log2_from_base(self):
        h = Histogram()
        h.observe(0.0005)   # below base -> first bucket
        h.observe(0.0015)   # base..2*base -> second bucket
        h.observe(0.0030)
        assert h.count == 3
        assert h.counts[0] == 1 and h.counts[1] == 1 and h.counts[2] == 1

    def test_exact_powers_of_two_land_in_their_own_bucket(self):
        h = Histogram()
        h.observe(0.002)  # exactly 2*base: le bound 0.002 must cover it
        cumulative = dict(h.cumulative())
        assert cumulative[h.bounds[1]] == 1

    def test_overflow_bucket_and_minmax(self):
        h = Histogram()
        h.observe(10_000_000.0)
        h.observe(0.0001)
        assert h.counts[-1] == 1
        assert h.min == pytest.approx(0.0001)
        assert h.max == pytest.approx(10_000_000.0)
        bounds = [b for b, _ in h.cumulative()]
        assert bounds[-1] == math.inf

    def test_cumulative_is_monotone_and_ends_at_count(self):
        h = Histogram()
        for value in (0.001, 0.004, 0.1, 3.0, 1e9):
            h.observe(value)
        counts = [c for _, c in h.cumulative()]
        assert counts == sorted(counts)
        assert counts[-1] == h.count == 5

    def test_quantile_returns_covering_bound(self):
        h = Histogram()
        for _ in range(99):
            h.observe(0.0015)
        h.observe(5.0)
        assert h.quantile(0.5) == h.bounds[1]
        assert h.quantile(0.999) >= 5.0
        assert Histogram().quantile(0.5) == 0.0

    def test_merge_and_copy_are_independent(self):
        a, b = Histogram(), Histogram()
        a.observe(0.001)
        b.observe(1.0)
        c = a.copy()
        c.merge(b)
        assert c.count == 2 and a.count == 1
        assert c.sum == pytest.approx(a.sum + b.sum)

    def test_registry_observe_and_reset(self):
        registry = MetricsRegistry()
        registry.observe("x.latency", 0.25)
        registry.observe("x.latency", 0.5)
        snap = registry.histograms()
        assert snap["x.latency"].count == 2
        snap["x.latency"].observe(9.0)  # snapshot is a copy
        assert registry.histograms()["x.latency"].count == 2
        registry.reset()
        assert registry.histograms() == {}


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------


class TestProm:
    def test_render_parse_round_trip(self):
        hist = Histogram()
        hist.observe(0.003)
        hist.observe(0.7)
        text = prom.render(counters={"serve.submits": 4},
                           gauges={"queue.depth": 2.5},
                           histograms={"run.latency": hist})
        samples = prom.parse(text)
        assert prom.counter_value(
            samples, "repro_serve_submits_total") == 4
        assert prom.counter_value(samples, "repro_queue_depth") == 2.5
        assert prom.counter_value(
            samples, "repro_run_latency_seconds_count") == 2
        assert prom.counter_value(
            samples, "repro_run_latency_seconds_sum") == \
            pytest.approx(0.703)
        inf_bucket = prom.counter_value(
            samples, "repro_run_latency_seconds_bucket", {"le": "+Inf"})
        assert inf_bucket == 2

    def test_exposition_declares_each_family_once(self):
        exposition = prom.Exposition()
        exposition.add("a_total", "counter", 1)
        exposition.add("a_total", "counter", 2, labels={"x": "y"})
        text = exposition.render()
        assert text.count("# TYPE a_total counter") == 1
        with pytest.raises(ValueError):
            exposition.add("a_total", "gauge", 3)

    def test_parse_rejects_garbage_sample_lines(self):
        with pytest.raises(ValueError):
            prom.parse("this is not exposition\n")

    def test_histogram_quantile_recovers_bucket_bound(self):
        hist = Histogram()
        for _ in range(10):
            hist.observe(0.0015)
        text = prom.render(counters={}, gauges={},
                           histograms={"lat": hist})
        samples = prom.parse(text)
        q = prom.histogram_quantile(samples, "repro_lat_seconds", 0.5)
        assert q == pytest.approx(hist.quantile(0.5))

    def test_metric_name_sanitizes(self):
        assert prom.metric_name("serve.run.exec_latency") == \
            "serve_run_exec_latency"
        assert prom.metric_name("9lives")[0] == "_"


# ---------------------------------------------------------------------------
# Service log
# ---------------------------------------------------------------------------


class TestServiceLog:
    def test_emit_and_read_round_trip(self, tmp_path):
        log = servicelog.ServiceLog(str(tmp_path / "svc.jsonl"),
                                    proc="api")
        log.emit("http.request", method="GET", path="/healthz",
                 status=200, duration=0.001)
        log.emit("run.claimed", proc="queue", run_id="abc",
                 worker="w1", attempt=1)
        events = log.read()
        assert [e["event"] for e in events] == ["http.request",
                                                "run.claimed"]
        assert events[0]["proc"] == "api" and events[1]["proc"] == "queue"
        assert all(e["schema"] == servicelog.SERVICELOG_SCHEMA_VERSION
                   for e in events)

    def test_validation_rejects_off_schema_fields(self, tmp_path):
        log = servicelog.ServiceLog(str(tmp_path / "svc.jsonl"),
                                    proc="api", validate=True)
        log.emit("ok.event", method="GET")  # on-schema passes
        with pytest.raises(ValueError):
            log.emit("bad.event", not_a_field="boom")

    def test_validate_log_file(self, tmp_path):
        path = str(tmp_path / "svc.jsonl")
        log = servicelog.ServiceLog(path, proc="worker")
        log.emit("worker.online", worker="w1")
        assert servicelog.validate_log_file(path) == 1

    def test_rotation_keeps_a_bounded_chain(self, tmp_path):
        path = str(tmp_path / "svc.jsonl")
        log = servicelog.ServiceLog(path, proc="api", max_bytes=400,
                                    backups=2)
        for i in range(50):
            log.emit("http.request", method="GET", path=f"/p/{i}",
                     status=200)
        assert os.path.exists(path)
        assert os.path.getsize(path) <= 400 + 256  # one record of slack
        chain = log.segments()
        assert len(chain) <= 3
        # Newest events live in the active file; read() spans the chain.
        assert log.read()[-1]["path"] == "/p/49"

    def test_module_global_emit_is_noop_until_configured(self, tmp_path):
        servicelog.unconfigure()
        assert servicelog.emit("http.request") is None
        path = str(tmp_path / "svc.jsonl")
        servicelog.configure(path, proc="cli")
        try:
            record = servicelog.emit("run.submitted", run_id="x")
            assert record is not None and record["proc"] == "cli"
            assert len(servicelog.ServiceLog(path, proc="cli").read()) == 1
        finally:
            servicelog.unconfigure()

    def test_follow_streams_appended_events(self, tmp_path):
        path = str(tmp_path / "svc.jsonl")
        log = servicelog.ServiceLog(path, proc="api")
        log.emit("http.request", path="/before")
        stop = threading.Event()
        seen = []

        def consume():
            for record in log.follow(poll=0.01, stop=stop):
                seen.append(record)
                stop.set()

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.05)
        log.emit("http.request", path="/after")
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert [r["path"] for r in seen] == ["/after"]


# ---------------------------------------------------------------------------
# Queue telemetry
# ---------------------------------------------------------------------------


@pytest.fixture
def queue(tmp_path):
    return RunQueue(str(tmp_path / "service.db"))


def _submit(queue, i=0):
    return queue.submit(f"run-{i:02d}", "demo", {"i": i}, ENGINE, None)


class TestQueueTelemetry:
    def test_timeline_derivation(self):
        row = {"created": 10.0, "claimed_at": 12.5, "started": 13.0,
               "finished": 14.0}
        timeline = RunQueue.timeline(row)
        assert timeline["queue_latency"] == pytest.approx(2.5)
        assert timeline["exec_latency"] == pytest.approx(1.0)
        assert timeline["request_latency"] == pytest.approx(4.0)

    def test_timeline_handles_unknowns_and_skew(self):
        assert RunQueue.timeline({"created": 5.0})["queue_latency"] is None
        skewed = RunQueue.timeline({"created": 10.0, "claimed_at": 9.0,
                                    "started": 9.0, "finished": 8.0})
        assert skewed["queue_latency"] == 0.0
        assert skewed["request_latency"] == 0.0

    def test_latency_histograms_from_finished_runs(self, queue):
        _submit(queue, 0)
        claimed = queue.claim_batch("w1", limit=1)
        queue.start(claimed[0]["run_id"], "w1")
        queue.finish(claimed[0]["run_id"], "w1", {"exit_code": 0})
        hists = queue.latencies()
        assert set(hists) == {"serve.run.queue_latency",
                              "serve.run.exec_latency",
                              "serve.run.request_latency"}
        assert all(h.count == 1 for h in hists.values())

    def test_reclaims_are_counted_per_row_and_in_stats(self, queue):
        _submit(queue, 0)
        queue.claim_batch("w1", limit=1, lease_seconds=0.0)
        time.sleep(0.01)
        reclaimed = queue.claim_batch("w2", limit=1, lease_seconds=60.0)
        assert len(reclaimed) == 1
        assert reclaimed[0]["reclaims"] == 1
        assert queue.stats()["reclaims"] == 1

    def test_heartbeats_accumulate_and_report_liveness(self, queue):
        queue.heartbeat("w1", jobs_done=2, batches=1)
        queue.heartbeat("w1", jobs_done=3, jobs_failed=1, batches=1)
        workers = queue.workers()
        assert len(workers) == 1
        record = workers[0]
        assert record["worker_id"] == "w1"
        assert record["jobs_done"] == 5
        assert record["jobs_failed"] == 1
        assert record["batches"] == 2
        assert record["alive"] is True
        assert queue.workers(stale_seconds=-1.0)[0]["alive"] is False

    def test_schema_migration_adds_telemetry_columns(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "old.db")
        conn = sqlite3.connect(path)
        # A pre-telemetry runs table: no reclaims/started columns.
        conn.execute("""
            CREATE TABLE runs (
                run_id TEXT PRIMARY KEY, tool TEXT NOT NULL,
                params TEXT NOT NULL, engine TEXT NOT NULL,
                corpus_id TEXT, status TEXT NOT NULL, submits INTEGER
                    NOT NULL DEFAULT 1, attempts INTEGER NOT NULL
                    DEFAULT 0, created REAL NOT NULL, claimed_at REAL,
                claimed_by TEXT, lease_expires REAL, finished REAL,
                result TEXT, manifest_path TEXT, error TEXT)""")
        conn.commit()
        conn.close()
        queue = RunQueue(path)  # migrates on open
        _submit(queue, 0)
        rows = queue.claim_batch("w1", limit=1)
        assert rows[0]["reclaims"] == 0
        assert queue.stats()["reclaims"] == 0


# ---------------------------------------------------------------------------
# /v1/metrics end to end
# ---------------------------------------------------------------------------


@pytest.fixture
def service(tmp_path):
    from repro.serve.api import start_in_thread

    data_dir = str(tmp_path / "serve")
    os.makedirs(data_dir)
    db = os.path.join(data_dir, "service.db")
    service, _thread = start_in_thread(db, data_dir)
    yield service, data_dir
    service.shutdown()
    service.server_close()


class TestMetricsEndpoint:
    def test_scrape_parses_and_reflects_fleet_state(self, service):
        from repro.serve.client import ServiceClient

        api, data_dir = service
        client = ServiceClient(api.url)
        submitted = client.submit("demo", {})
        run_id = submitted["run"]["run_id"]
        client.submit("demo", {})  # dedup onto the same run
        worker = Worker(os.path.join(data_dir, "service.db"), data_dir,
                        worker_id="metrics-worker")
        assert worker.run_once() == 1
        client.wait_done(run_id, timeout=60)

        samples = client.metrics()
        assert prom.counter_value(
            samples, "repro_serve_queue_depth", {"status": DONE}) == 1
        assert prom.counter_value(samples, "repro_serve_submits") == 2
        assert prom.counter_value(
            samples, "repro_serve_dedup_ratio") == pytest.approx(0.5)
        assert prom.counter_value(
            samples, "repro_serve_lease_reclaims") == 0
        for name in ("repro_serve_run_queue_latency_seconds",
                     "repro_serve_run_exec_latency_seconds",
                     "repro_serve_run_request_latency_seconds"):
            assert prom.counter_value(samples, name + "_count") >= 1
        assert prom.counter_value(
            samples, "repro_serve_workers_alive") == 1
        ages = prom.samples_named(
            samples, "repro_serve_worker_heartbeat_age_seconds")
        assert [labels["worker"] for labels, _ in ages] == \
            ["metrics-worker"]

    def test_scrape_content_type_and_http_counter(self, service):
        from repro.serve.client import ServiceClient

        api, _data_dir = service
        client = ServiceClient(api.url)
        client.metrics_text()  # first scrape counts itself afterwards
        samples = client.metrics()
        assert prom.counter_value(
            samples, "repro_serve_http_requests_total") >= 1


# ---------------------------------------------------------------------------
# Cross-process trace reassembly
# ---------------------------------------------------------------------------


def _run_one(data_dir, tool="demo", params=None):
    db = os.path.join(data_dir, "service.db")
    worker = Worker(db, data_dir, worker_id="trace-worker")
    row, _created = submit_request(worker.queue, worker.store, tool,
                                   params or {})
    assert worker.run_once() == 1
    return worker.queue, row["run_id"]


class TestRunTrace:
    def test_worker_run_assembles_one_rooted_tree(self, tmp_path):
        data_dir = str(tmp_path)
        queue, run_id = _run_one(data_dir)
        assembled = runtrace.assemble(queue, data_dir, run_id)
        assert assembled["rooted"] is True
        assert assembled["traceparent_match"] is True
        assert assembled["file_roots"] == 1
        assert assembled["file_spans"] >= 1
        tree = assembled["tree"]
        assert tree["name"] == "serve.request"
        names = [child["name"] for child in tree["children"]]
        assert names == ["queue.wait", "worker.exec"]
        exec_node = tree["children"][1]
        assert exec_node["children"], "tool spans must graft under exec"

    def test_trace_file_header_carries_derived_traceparent(self, tmp_path):
        data_dir = str(tmp_path)
        queue, run_id = _run_one(data_dir)
        header, _events = obs_events.read_jsonl(
            runtrace.trace_path(data_dir, run_id))
        assert header["traceparent"] == \
            obs_tracer.make_traceparent(run_id, "attempt-1")

    def test_foreign_traceparent_is_not_grafted(self, tmp_path):
        data_dir = str(tmp_path)
        queue, run_id = _run_one(data_dir)
        path = runtrace.trace_path(data_dir, run_id)
        header, events = obs_events.read_jsonl(path)
        header["traceparent"] = obs_tracer.make_traceparent("someone-else")
        with open(path, "w", encoding="utf-8") as handle:
            for record in [header] + events:
                handle.write(json.dumps(record) + "\n")
        assembled = runtrace.assemble(queue, data_dir, run_id)
        assert assembled["rooted"] is False
        assert assembled["traceparent_match"] is False
        assert not assembled["tree"]["children"][1]["children"]

    def test_resolve_run_by_unique_prefix(self, tmp_path):
        data_dir = str(tmp_path)
        queue, run_id = _run_one(data_dir)
        assert runtrace.resolve_run(queue, run_id[:10])["run_id"] == run_id
        with pytest.raises(LookupError):
            runtrace.resolve_run(queue, "zz-no-such-run")

    def test_cli_trace_json_and_exit_codes(self, tmp_path, capsys):
        from repro.cli import main_runs

        data_dir = str(tmp_path)
        _queue, run_id = _run_one(data_dir)
        rc = main_runs(["trace", run_id, "--json", "--data-dir", data_dir])
        out = capsys.readouterr().out
        assembled = json.loads(out)
        assert rc == 0 and assembled["rooted"] is True
        assert main_runs(["trace", "nope", "--data-dir", data_dir]) == 2

    def test_cli_trace_renders_the_tree(self, tmp_path, capsys):
        from repro.cli import main_runs

        data_dir = str(tmp_path)
        _queue, run_id = _run_one(data_dir)
        assert main_runs(["trace", run_id, "--data-dir", data_dir]) == 0
        out = capsys.readouterr().out
        assert "serve.request" in out
        assert "queue.wait" in out
        assert "worker.exec" in out
        assert "rooted: yes" in out


# ---------------------------------------------------------------------------
# Trace context through a process-worker campaign (--jobs 2)
# ---------------------------------------------------------------------------


class TestProcessBackendTrace:
    def test_process_pool_preserves_context_under_batching(
            self, tmp_path, monkeypatch, capsys):
        from repro.cli import main_conbugck

        # Four shard batches over two pool workers: the traceparent must
        # ride every shard, and the grafted spans must still form one
        # tree under the CLI root.
        traceparent = obs_tracer.make_traceparent("ctx-test", "attempt-1")
        monkeypatch.setenv(obs_tracer.TRACEPARENT_ENV, traceparent)
        trace = str(tmp_path / "proc.jsonl")
        rc = main_conbugck(["--sample", "random", "--budget", "60",
                            "--shards", "4", "--jobs", "2",
                            "--trace", trace])
        capsys.readouterr()
        assert rc == 0
        assert obs_events.validate_events_file(trace) > 0
        header, span_events = obs_events.read_jsonl(trace)
        assert header["traceparent"] == traceparent
        roots = [e for e in span_events if e["parent"] is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "repro-conbugck"
        # Worker-side shard spans crossed the process boundary and were
        # grafted under the span open at submit time.
        by_id = {e["id"]: e for e in span_events}
        shards = [e for e in span_events if e["name"] == "campaign.shard"]
        assert len(shards) == 4
        assert {by_id[e["parent"]]["name"] for e in shards} == \
            {"campaign.sharded"}


# ---------------------------------------------------------------------------
# repro-top and repro-runs tail
# ---------------------------------------------------------------------------


class TestDashboards:
    def test_top_once_renders_all_sections(self, service, capsys):
        from repro.cli import main_top
        from repro.serve.client import ServiceClient

        api, data_dir = service
        client = ServiceClient(api.url)
        submitted = client.submit("demo", {})
        worker = Worker(os.path.join(data_dir, "service.db"), data_dir,
                        worker_id="top-worker")
        worker.run_once()
        client.wait_done(submitted["run"]["run_id"], timeout=60)
        assert main_top(["--url", api.url, "--once"]) == 0
        out = capsys.readouterr().out
        for section in ("Queue", "Flow", "Run latency", "Workers"):
            assert section in out
        assert "top-worker" in out
        assert "lease reclaims" in out

    def test_top_unreachable_service_exits_3(self, capsys):
        from repro.cli import main_top

        assert main_top(["--url", "http://127.0.0.1:9",
                         "--once"]) == 3

    def test_tail_prints_structured_events(self, tmp_path, capsys):
        from repro.cli import main_runs

        data_dir = str(tmp_path)
        servicelog.configure(servicelog.default_path(data_dir),
                             proc="queue")
        try:
            _queue, run_id = _run_one(data_dir)
        finally:
            servicelog.unconfigure()
        assert main_runs(["tail", "-n", "50",
                          "--data-dir", data_dir]) == 0
        out = capsys.readouterr().out
        assert "run.submitted" in out
        assert "run.finished" in out
        assert run_id[:16] in out

    def test_tail_event_filter(self, tmp_path, capsys):
        from repro.cli import main_runs

        data_dir = str(tmp_path)
        servicelog.configure(servicelog.default_path(data_dir),
                             proc="queue")
        try:
            _run_one(data_dir)
        finally:
            servicelog.unconfigure()
        assert main_runs(["tail", "-n", "50", "--event", "run.finished",
                          "--data-dir", data_dir]) == 0
        lines = [line for line in
                 capsys.readouterr().out.splitlines() if line]
        assert lines
        assert all("run.finished" in line for line in lines)
