"""The serving layer: dedup latency, throughput, hot path, CI smoke.

Contracts measured and enforced here (the tier-8 service plus the
tier-10 hot path, ``src/repro/serve``):

- **duplicate vs cold latency** — submitting a request whose content
  key already resolved to a ``done`` run must return its result at
  least ``MIN_DUP_SPEEDUP`` faster than the cold submit-execute-fetch
  path: the dedup hit is a SQLite row read plus two HTTP round trips,
  never a re-execution.
- **sustained throughput** — a mixed workload of
  ``WORKLOAD_REQUESTS`` requests (a rotation of extraction, checker,
  study, and corpus-overlay submissions, most of them duplicates —
  the shape a shared service actually sees) must complete end to end
  at ``MIN_THROUGHPUT_RPS`` requests/second through one API and one
  worker.
- **read hot path** — a read-heavy workload (result/manifest fetches
  of finished runs through connection reuse, the hot-result cache and
  ``ETag``/``If-None-Match`` 304s) is timed and recorded.  Its gate is
  deterministic work counters in the test suite
  (``tests/test_serve_hotpath.py::TestWarmReadCounters``: no new DB
  connections, every read a cache hit answered with a 304, one
  kept-alive client connection), not a wall-clock ratio.
- **concurrent worker execution** — a worker with two exec slots must
  complete a compatible two-job batch (sampled ``conbugck`` campaigns
  with distinct seeds, shards on ``--jobs 2`` process workers) faster
  than one slot by ``MIN_CONCURRENT_SPEEDUP``; enforced only with >= 4
  usable CPUs (the process's affinity mask, not the host's count;
  recorded elsewhere), and the outputs must be byte-identical across
  slot counts — concurrency must not perturb results.
- **byte identity** — the service's result bytes for a request must
  equal the stdout of a direct CLI invocation of the same request.

``--ci-smoke`` is the CI service job: boot a real ``repro-serve``
process and two ``repro-worker`` processes, push 50 requests of which
25 are duplicates, and require a dedup ratio >= 0.5, every run
``done``, byte-identical results, and ``repro-runs diff`` equivalence
between a service manifest and a direct CLI manifest.  The fleet
telemetry is held to the same bar: ``/v1/metrics`` must parse as
Prometheus text exposition with populated run-latency histograms, the
dedup gauge, two live workers, and nonzero hot-path counters
(``repro_serve_cache_hits_total``, ``repro_serve_wait_wakeups_total``);
an explicit ``If-None-Match`` revalidation must answer ``304`` with no
body; the structured service log must validate against its schema and
contain the full run lifecycle; and a ``repro-submit`` sampled
campaign executed with ``--jobs 2`` must reassemble into a single
rooted span tree via ``repro-runs trace``, with the pool workers'
``campaign.shard`` spans grafted under ``campaign.sharded``.  Then
SIGTERM everything and require clean signal semantics.

Results land machine-readable in ``BENCH_service.json`` at the repo
root.  Runnable standalone (``python benchmarks/bench_service.py
[--smoke|--ci-smoke]``) or under pytest (``test_service_perf``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

#: Required cold/duplicate latency ratio.  A duplicate of a done run
#: never executes; it must cost two HTTP round trips, not a pipeline.
MIN_DUP_SPEEDUP = 5.0

#: Required end-to-end requests/second on the mixed workload (one API,
#: one worker, mostly-duplicate traffic).
MIN_THROUGHPUT_RPS = 8.0
SMOKE_THROUGHPUT_RPS = 5.0

#: Required two-slot vs one-slot ratio on a compatible batch of
#: process-worker campaigns.  Parallel speedup needs cores: enforced
#: at >= 4 usable CPUs, recorded (never failed) below that.
MIN_CONCURRENT_SPEEDUP = 1.25
CONCURRENT_FLOOR_MIN_CPUS = 4

#: Mixed-workload size (requests submitted, duplicates included).
WORKLOAD_REQUESTS = 100
SMOKE_WORKLOAD_REQUESTS = 40

#: Read-heavy workload size (result/manifest GETs over done runs).
READ_REQUESTS = 240
SMOKE_READ_REQUESTS = 90

#: Sampled-campaign size for the concurrent-worker batch.
CONBUGCK_BUDGET = 5000
SMOKE_CONBUGCK_BUDGET = 2500

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_service.json")


def _ensure_imports() -> None:
    """Allow standalone invocation from a source checkout."""
    try:
        import repro  # noqa: F401
    except ImportError:
        here = os.path.dirname(os.path.abspath(__file__))
        sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))


def _direct_cli(tool_main: str, argv: List[str]) -> Tuple[int, str]:
    """Run one CLI main in-process with stdout captured.

    Uses the worker's thread-routed :func:`~repro.serve.worker.
    capture_output`, so the capture composes with any job an
    in-process worker thread is running concurrently — each thread
    sees only its own bytes.
    """
    import repro.cli as cli
    from repro.serve import worker as serve_worker

    with serve_worker.capture_output() as (out, _err):
        try:
            code = int(getattr(cli, tool_main)(list(argv)) or 0)
        except SystemExit as exc:
            code = int(exc.code or 0)
    return code, out.getvalue()


def _unique_requests(client, overlays: int) -> List[Dict[str, Any]]:
    """The unique request mix: tools, params, and corpus overlays."""
    uniques: List[Dict[str, Any]] = [
        {"tool": "demo", "params": {}},
        {"tool": "condocck", "params": {}},
        {"tool": "study", "params": {}},
        {"tool": "extract", "params": {}},
        {"tool": "extract", "params": {"list": True}},
    ]
    for index in range(overlays):
        corpus_id = client.upload_corpus(
            {"zz_overlay.c": f"/* service bench overlay {index} */\n"
                             f"static int zz_overlay_{index};\n"})
        uniques.append({"tool": "condocck", "params": {},
                        "corpus": corpus_id})
    return uniques


def _read_workload(client, run_ids: List[str], reads: int) -> float:
    """Time ``reads`` result/manifest fetches round-robin over runs."""
    started = time.perf_counter()
    for index in range(reads):
        run_id = run_ids[index % len(run_ids)]
        if index % 3 == 2:
            client.manifest(run_id)
        else:
            client.result_bytes(run_id)
    return time.perf_counter() - started


def _warm_reads(client, run_ids: List[str]) -> None:
    """Touch every (run, kind) pair once so timed reads run steady-state."""
    for run_id in run_ids:
        client.result_bytes(run_id)
        client.manifest(run_id)


def _concurrent_worker_section(smoke: bool) -> Dict[str, Any]:
    """Time a compatible two-job batch at one vs two exec slots.

    Two sampled ``conbugck`` campaigns with distinct seeds share an
    engine signature and a ``--jobs`` width, so
    :meth:`~repro.serve.db.RunQueue.claim_batch` hands them to one
    worker as one batch; with ``exec_slots=2`` they execute as one
    concurrent wave.  Output bytes must match across slot counts —
    concurrency is a scheduling change, never a result change — and
    the distinct seeds must keep producing distinct outputs (no
    cross-job clobbering through the shared capture plumbing).
    """
    from conftest import usable_cpus
    from repro.serve.db import DONE, CorpusStore, RunQueue
    from repro.serve.worker import Worker, submit_request

    budget = SMOKE_CONBUGCK_BUDGET if smoke else CONBUGCK_BUDGET
    seeds = (11, 12)

    def params_for(seed: int) -> Dict[str, Any]:
        return {"sample": "random", "budget": budget, "seed": seed,
                "jobs": 2}

    # Tracing off for the whole section: solo waves trace by default,
    # concurrent waves never do, and the comparison must not fold that
    # difference into the timing.
    saved_trace = os.environ.get("REPRO_SERVE_TRACE")
    os.environ["REPRO_SERVE_TRACE"] = "0"
    timings: Dict[int, float] = {}
    outputs: Dict[int, Dict[int, str]] = {}
    try:
        # Warm-up: create the persistent process pool and populate the
        # in-process memos, so both slot configurations run warm.
        warm_dir = tempfile.mkdtemp(prefix="repro-service-bench-warm-")
        warm_db = os.path.join(warm_dir, "queue.db")
        warm_queue = RunQueue(warm_db)
        submit_request(warm_queue, CorpusStore(warm_dir), "conbugck",
                       params_for(99))
        warm_worker = Worker(warm_db, warm_dir, worker_id="bench-warm")
        try:
            warm_worker.run_once()
        finally:
            warm_worker.close()
            warm_queue.close()

        for slots in (1, 2):
            tmp = tempfile.mkdtemp(prefix=f"repro-service-bench-s{slots}-")
            db_path = os.path.join(tmp, "queue.db")
            queue = RunQueue(db_path)
            store = CorpusStore(tmp)
            rows = [submit_request(queue, store, "conbugck",
                                   params_for(seed))[0] for seed in seeds]
            worker = Worker(db_path, tmp, worker_id=f"bench-slots{slots}",
                            exec_slots=slots)
            try:
                started = time.perf_counter()
                ran = worker.run_once()
                timings[slots] = time.perf_counter() - started
            finally:
                worker.close()
            assert ran == len(seeds), \
                f"expected one batch of {len(seeds)}, worker ran {ran}"
            outputs[slots] = {}
            for seed, row in zip(seeds, rows):
                final = queue.get(row["run_id"])
                assert final is not None and final["status"] == DONE, \
                    f"seed {seed} run not done at {slots} slot(s): {final}"
                assert final["attempts"] == 1, \
                    f"seed {seed} run re-attempted at {slots} slot(s)"
                outputs[slots][seed] = final["result"]["output"]
            queue.close()
    finally:
        if saved_trace is None:
            os.environ.pop("REPRO_SERVE_TRACE", None)
        else:
            os.environ["REPRO_SERVE_TRACE"] = saved_trace

    identical = all(outputs[1][seed] == outputs[2][seed] for seed in seeds)
    distinct = outputs[1][seeds[0]] != outputs[1][seeds[1]]
    speedup = (timings[1] / timings[2]) if timings[2] > 0 else float("inf")
    cpus = usable_cpus()
    return {
        "budget": budget,
        "slots1_s": timings[1],
        "slots2_s": timings[2],
        "speedup": speedup,
        "identical": identical,
        "distinct_seeds_distinct_outputs": distinct,
        "cpus": cpus,
        "enforced": cpus >= CONCURRENT_FLOOR_MIN_CPUS,
    }


def run_benchmark(smoke: bool = False, emit_fn=None) -> int:
    """Measure, render, and enforce the service contracts; 0 on success."""
    _ensure_imports()

    from repro.common.texttable import TextTable
    from repro.serve.api import start_in_thread
    from repro.serve.client import ServiceClient
    from repro.serve.worker import Worker

    requests_total = SMOKE_WORKLOAD_REQUESTS if smoke else WORKLOAD_REQUESTS
    reads_total = SMOKE_READ_REQUESTS if smoke else READ_REQUESTS
    min_rps = SMOKE_THROUGHPUT_RPS if smoke else MIN_THROUGHPUT_RPS

    data_dir = tempfile.mkdtemp(prefix="repro-service-bench-")
    db_path = os.path.join(data_dir, "service.db")
    service, _thread = start_in_thread(db_path, data_dir)
    client = ServiceClient(service.url)
    stop = threading.Event()
    worker = Worker(db_path, data_dir, worker_id="bench-worker")
    worker_thread = threading.Thread(target=worker.run_forever,
                                     args=(stop,), daemon=True)
    worker_thread.start()

    try:
        # ---- duplicate vs cold latency --------------------------------
        started = time.perf_counter()
        cold_run = client.submit_and_wait("extract", {}, timeout=120)
        cold_s = time.perf_counter() - started
        probe_id = cold_run["run_id"]

        dup_s = float("inf")
        for _ in range(5):
            started = time.perf_counter()
            submitted = client.submit("extract", {})
            assert submitted["deduplicated"], "duplicate was not dedup'd"
            client.result_bytes(submitted["run"]["run_id"])
            dup_s = min(dup_s, time.perf_counter() - started)
        dup_speedup = cold_s / dup_s if dup_s > 0 else float("inf")

        # ---- byte identity vs the direct CLI --------------------------
        service_bytes = client.result_bytes(probe_id)
        direct_code, direct_out = _direct_cli("main_extract", [])
        byte_identical = (direct_code == 0
                          and service_bytes.decode("utf-8") == direct_out)

        # ---- mixed-workload throughput --------------------------------
        uniques = _unique_requests(client, overlays=5)
        started = time.perf_counter()
        submitted_ids = []
        for index in range(requests_total):
            request = uniques[index % len(uniques)]
            row = client.submit(request["tool"], request["params"],
                                corpus=request.get("corpus"))
            submitted_ids.append(row["run"]["run_id"])
        for run_id in dict.fromkeys(submitted_ids):  # unique, ordered
            client.wait_done(run_id, timeout=120)
        workload_s = time.perf_counter() - started
        throughput = requests_total / workload_s if workload_s else 0.0

        # ---- read-heavy hot path ---------------------------------------
        done_ids = [row["run_id"]
                    for row in client.runs(status="done", limit=16)]
        assert done_ids, "no finished runs to read back"
        _warm_reads(client, done_ids)  # populate cache + client ETags
        hot_reads_s = _read_workload(client, done_ids, reads_total)

        stats = client.stats()
    finally:
        stop.set()
        worker_thread.join(timeout=30)
        service.shutdown()
        service.server_close()
        worker.close()

    # ---- concurrent worker execution (own queues, no HTTP) ------------
    concurrent = _concurrent_worker_section(smoke)

    # ---- render -------------------------------------------------------

    mode = "smoke" if smoke else "full"
    table = TextTable(
        ["measurement", "value"],
        title=f"serving layer ({mode}; 1 API thread pool, 1 worker)")
    table.add_row("cold submit-execute-fetch", f"{cold_s:.4f} s")
    table.add_row("duplicate submit-fetch (best of 5)", f"{dup_s:.4f} s")
    table.add_row("duplicate speedup", f"{dup_speedup:.1f}x "
                  f"(floor {MIN_DUP_SPEEDUP:.1f}x)")
    table.add_row(f"mixed workload ({requests_total} requests)",
                  f"{workload_s:.3f} s")
    table.add_row("throughput", f"{throughput:.1f} req/s "
                  f"(floor {min_rps:.1f})")
    table.add_row(f"read workload hot ({reads_total} reads)",
                  f"{hot_reads_s:.3f} s")
    table.add_row("concurrent batch, 1 slot",
                  f"{concurrent['slots1_s']:.3f} s")
    table.add_row("concurrent batch, 2 slots",
                  f"{concurrent['slots2_s']:.3f} s")
    table.add_row("two-slot speedup",
                  f"{concurrent['speedup']:.2f}x "
                  f"(floor {MIN_CONCURRENT_SPEEDUP:.2f}x, "
                  + ("enforced" if concurrent["enforced"]
                     else f"recorded: {concurrent['cpus']} CPU(s)") + ")")
    table.add_row("dedup ratio", f"{stats['dedup_ratio']:.3f} "
                  f"({stats['deduplicated']}/{stats['submits']} coalesced)")
    rendered = table.render()
    rendered += (f"\n\nservice result byte-identical to direct CLI: "
                 f"{'yes' if byte_identical else 'NO'}")
    rendered += (f"\nconcurrent outputs identical across slot counts: "
                 f"{'yes' if concurrent['identical'] else 'NO'}")
    rendered += (f"\nqueue after workload: "
                 + ", ".join(f"{state}={count}" for state, count
                             in sorted(stats["by_status"].items())))

    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump({
            "mode": mode,
            "workload": {
                "description": "mixed extract/checker/study/overlay "
                               "rotation, mostly duplicates, one API + "
                               "one worker in-process; then a read-heavy "
                               "hot-path pass and a two-slot concurrent "
                               "batch",
                "requests": requests_total,
                "reads": reads_total,
                "conbugck_budget": concurrent["budget"],
                "unique_requests": stats["runs"],
                "dedup_ratio": stats["dedup_ratio"],
                "cpus": concurrent["cpus"],
            },
            "seconds": {
                "cold_request": cold_s,
                "duplicate_request": dup_s,
                "workload": workload_s,
                "read_workload_hot": hot_reads_s,
                "concurrent_slots1": concurrent["slots1_s"],
                "concurrent_slots2": concurrent["slots2_s"],
            },
            "speedups": {
                "duplicate_vs_cold": dup_speedup,
                "throughput_rps": throughput,
                "concurrent_two_slots": concurrent["speedup"],
            },
            "floors": {
                "duplicate_vs_cold": MIN_DUP_SPEEDUP,
                "throughput_rps": min_rps,
                "concurrent_two_slots": MIN_CONCURRENT_SPEEDUP,
            },
            "floor_enforced": {
                "duplicate_vs_cold": True,
                "throughput_rps": True,
                "concurrent_two_slots": concurrent["enforced"],
            },
            "identical_outputs": {
                "service_vs_cli": bool(byte_identical),
                "slots1_vs_slots2": bool(concurrent["identical"]),
                "distinct_seeds_distinct": bool(
                    concurrent["distinct_seeds_distinct_outputs"]),
            },
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if emit_fn is not None:
        emit_fn("service", rendered)
    else:
        print(rendered)

    failed = stats["by_status"].get("failed", 0)
    if failed:
        print(f"FAIL: {failed} run(s) failed during the workload",
              file=sys.stderr)
        return 1
    if not byte_identical:
        print("FAIL: service result differs from direct CLI stdout",
              file=sys.stderr)
        return 1
    if not concurrent["identical"]:
        print("FAIL: concurrent execution changed result bytes "
              "(slots=1 vs slots=2)", file=sys.stderr)
        return 1
    if not concurrent["distinct_seeds_distinct_outputs"]:
        print("FAIL: distinct campaign seeds produced identical outputs "
              "— jobs clobbered each other's capture", file=sys.stderr)
        return 1
    if dup_speedup < MIN_DUP_SPEEDUP:
        print(f"FAIL: duplicate-request speedup {dup_speedup:.2f}x is "
              f"below the {MIN_DUP_SPEEDUP:.1f}x floor — dedup is "
              f"re-executing", file=sys.stderr)
        return 1
    if throughput < min_rps:
        print(f"FAIL: mixed-workload throughput {throughput:.2f} req/s is "
              f"below the {min_rps:.1f} req/s floor", file=sys.stderr)
        return 1
    if (concurrent["enforced"]
            and concurrent["speedup"] < MIN_CONCURRENT_SPEEDUP):
        print(f"FAIL: two-slot speedup {concurrent['speedup']:.2f}x is "
              f"below the {MIN_CONCURRENT_SPEEDUP:.2f}x floor on a "
              f"{concurrent['cpus']}-CPU host", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# CI smoke: real processes, SIGTERM teardown
# ---------------------------------------------------------------------------


def _spawn(code: List[str], env: Dict[str, str],
           argv: Optional[List[str]] = None) -> subprocess.Popen:
    script = "; ".join(code)
    return subprocess.Popen([sys.executable, "-c", script] + (argv or []),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, text=True)


def _shard_parents(node: Dict[str, Any],
                   parent: Optional[str] = None) -> List[Optional[str]]:
    """Parent name of every ``campaign.shard`` node in a trace tree."""
    found = [parent] if node["name"] == "campaign.shard" else []
    for child in node["children"]:
        found.extend(_shard_parents(child, node["name"]))
    return found


def run_ci_smoke() -> int:
    """Boot API + 2 workers as real processes; 50 requests, 25 dupes."""
    _ensure_imports()
    from repro.serve.client import ServiceClient

    tmp = tempfile.mkdtemp(prefix="repro-service-ci-")
    env = dict(os.environ,
               PYTHONPATH=os.path.join(REPO_ROOT, "src"),
               REPRO_SERVE_DIR=os.path.join(tmp, "serve"),
               REPRO_CACHE_DIR=os.path.join(tmp, "cache"))
    procs: List[subprocess.Popen] = []
    try:
        server = _spawn(["import sys",
                         "from repro.cli import main_serve",
                         "sys.exit(main_serve(['--port', '0']))"], env)
        procs.append(server)
        line = server.stdout.readline().strip()
        if not line.startswith("listening on "):
            print(f"FAIL: server did not report its URL: {line!r}",
                  file=sys.stderr)
            return 1
        url = line[len("listening on "):]
        client = ServiceClient(url)

        workers = [
            _spawn(["import sys",
                    "from repro.cli import main_worker",
                    f"sys.exit(main_worker(['--id', 'ci-w{index}']))"],
                   env)
            for index in range(2)
        ]
        procs.extend(workers)

        # 25 unique requests: tool/param variants plus corpus overlays.
        uniques: List[Dict[str, Any]] = [
            {"tool": "demo", "params": {}},
            {"tool": "condocck", "params": {}},
            {"tool": "study", "params": {}},
            {"tool": "extract", "params": {"list": True}},
            {"tool": "extract", "params": {}},
        ]
        for index in range(25 - len(uniques)):
            corpus_id = client.upload_corpus(
                {"zz_ci.c": f"/* ci overlay {index} */\n"
                            f"static int zz_ci_{index};\n"})
            uniques.append({"tool": "condocck", "params": {},
                            "corpus": corpus_id})
        assert len(uniques) == 25

        # 50 submissions, each unique request twice = 25 duplicates.
        run_ids = []
        for request in uniques * 2:
            row = client.submit(request["tool"], request["params"],
                                corpus=request.get("corpus"))
            run_ids.append(row["run"]["run_id"])
        for run_id in dict.fromkeys(run_ids):
            client.wait_done(run_id, timeout=180)

        stats = client.stats()
        done = stats["by_status"].get("done", 0)
        print(f"ci-smoke: {stats['submits']} submissions, "
              f"{stats['runs']} runs ({done} done), dedup ratio "
              f"{stats['dedup_ratio']:.3f}")
        if stats["dedup_ratio"] < 0.5:
            print(f"FAIL: dedup ratio {stats['dedup_ratio']:.3f} < 0.5",
                  file=sys.stderr)
            return 1
        if done != stats["runs"] or stats["runs"] != 25:
            print(f"FAIL: expected 25 done runs, got {done}/{stats['runs']}",
                  file=sys.stderr)
            return 1

        # ---- /v1/metrics: the scrape must parse as Prometheus text
        # exposition and reflect the fleet telemetry the workload just
        # generated (run-latency histograms, dedup gauge, live workers).
        from repro.obs import prom
        samples = prom.parse(client.metrics_text())
        dedup_gauge = prom.counter_value(samples, "repro_serve_dedup_ratio")
        if dedup_gauge < 0.5:
            print(f"FAIL: /v1/metrics dedup gauge {dedup_gauge:.3f} < 0.5",
                  file=sys.stderr)
            return 1
        for name in ("repro_serve_run_queue_latency_seconds",
                     "repro_serve_run_exec_latency_seconds",
                     "repro_serve_run_request_latency_seconds"):
            count = prom.counter_value(samples, name + "_count")
            if count <= 0:
                print(f"FAIL: /v1/metrics {name} histogram is empty",
                      file=sys.stderr)
                return 1
        alive = prom.counter_value(samples, "repro_serve_workers_alive")
        if alive < 2:
            print(f"FAIL: /v1/metrics reports {alive:.0f} live workers, "
                  f"expected 2", file=sys.stderr)
            return 1
        print(f"ci-smoke: /v1/metrics OK ({len(samples)} samples, "
              f"dedup gauge {dedup_gauge:.3f}, {alive:.0f} workers alive)")

        # ---- structured service log: every event validates against
        # the checked-in schema, and the run lifecycle is in there.
        from repro.obs import servicelog
        log_path = servicelog.default_path(env["REPRO_SERVE_DIR"])
        log_events = servicelog.validate_log_file(log_path)
        if log_events <= 0:
            print("FAIL: service log is empty", file=sys.stderr)
            return 1
        logged = {event["event"] for event in
                  servicelog.ServiceLog(log_path, proc="cli").read()}
        for expected in ("run.submitted", "run.claimed", "run.started",
                         "run.finished", "http.request", "worker.online"):
            if expected not in logged:
                print(f"FAIL: service log never recorded {expected!r}",
                      file=sys.stderr)
                return 1
        print(f"ci-smoke: service log OK ({log_events} schema-valid "
              f"events)")

        # ---- distributed trace: submit a process-worker campaign
        # through the real repro-submit CLI, then require `repro-runs
        # trace` to reassemble it into a single rooted span tree (API
        # row -> worker -> campaign-shard pool children).
        submit = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.cli import main_submit; "
             "sys.exit(main_submit(sys.argv[1:]))",
             "conbugck", "--url", url, "--no-wait",
             "--params", json.dumps({"sample": "random", "budget": 200,
                                     "shards": 4, "jobs": 2})],
            capture_output=True, env=env, text=True, timeout=60)
        if submit.returncode != 0:
            print(f"FAIL: repro-submit failed: {submit.stderr}",
                  file=sys.stderr)
            return 1
        traced_run_id = submit.stdout.strip()
        client.wait_done(traced_run_id, timeout=300)
        trace = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.cli import main_runs; "
             "sys.exit(main_runs(sys.argv[1:]))",
             "trace", traced_run_id, "--json"],
            capture_output=True, env=env, text=True, timeout=60)
        if trace.returncode != 0:
            print(f"FAIL: repro-runs trace exit {trace.returncode}: "
                  f"{trace.stderr}", file=sys.stderr)
            return 1
        assembled = json.loads(trace.stdout)
        if not (assembled["rooted"] and assembled["traceparent_match"]
                and assembled["file_spans"] > 0):
            print(f"FAIL: trace did not reassemble into one rooted tree: "
                  f"rooted={assembled['rooted']} "
                  f"match={assembled['traceparent_match']} "
                  f"spans={assembled['file_spans']}", file=sys.stderr)
            return 1
        shard_parents = _shard_parents(assembled["tree"])
        if len(shard_parents) != 4 or \
                set(shard_parents) != {"campaign.sharded"}:
            print(f"FAIL: pool-side campaign.shard spans not grafted under "
                  f"campaign.sharded: parents {shard_parents}",
                  file=sys.stderr)
            return 1
        print(f"ci-smoke: distributed trace OK (run "
              f"{traced_run_id[:16]}, {assembled['file_spans']} spans, "
              f"{len(shard_parents)} grafted shard spans, single rooted "
              f"tree)")

        # Result equivalence vs the direct CLI, via real subprocesses:
        # byte-identical stdout, and manifests that `repro-runs diff`
        # calls equivalent.
        probe = next(row for row in
                     (client.run(run_id) for run_id in dict.fromkeys(run_ids))
                     if row["tool"] == "extract" and row["params"] == {})
        service_out = client.result_bytes(probe["run_id"]).decode("utf-8")
        service_manifest = os.path.join(tmp, "service-manifest.json")
        with open(service_manifest, "w", encoding="utf-8") as fh:
            json.dump(client.manifest(probe["run_id"]), fh)

        # ---- read hot path: the second fetch revalidates via
        # If-None-Match and must come back 304 from the remembered
        # bytes; the server must have answered from the hot cache.
        again = client.result_bytes(probe["run_id"])
        if again.decode("utf-8") != service_out:
            print("FAIL: revalidated result bytes differ from the first "
                  "fetch", file=sys.stderr)
            return 1
        if client.not_modified < 1:
            print("FAIL: client never got a 304 on a repeat fetch",
                  file=sys.stderr)
            return 1
        result_path = f"/v1/runs/{probe['run_id']}/result"
        status, headers, _body = client._http("GET", result_path)
        etag = headers.get("Etag")
        if status != 200 or not etag:
            print(f"FAIL: result GET returned {status} with ETag {etag!r}",
                  file=sys.stderr)
            return 1
        status, headers, body = client._http(
            "GET", result_path, headers={"If-None-Match": etag})
        if status != 304 or body:
            print(f"FAIL: If-None-Match revalidation returned {status} "
                  f"with {len(body)} body bytes (expected bodyless 304)",
                  file=sys.stderr)
            return 1
        if headers.get("Etag") != etag:
            print("FAIL: 304 did not echo the ETag", file=sys.stderr)
            return 1
        samples = prom.parse(client.metrics_text())
        cache_hits = prom.counter_value(samples,
                                        "repro_serve_cache_hits_total")
        wakeups = prom.counter_value(samples,
                                     "repro_serve_wait_wakeups_total")
        if cache_hits <= 0:
            print("FAIL: /v1/metrics repro_serve_cache_hits_total is zero "
                  "— the hot cache never served a read", file=sys.stderr)
            return 1
        if wakeups <= 0:
            print("FAIL: /v1/metrics repro_serve_wait_wakeups_total is "
                  "zero — long-polls never rode the queue watcher",
                  file=sys.stderr)
            return 1
        print(f"ci-smoke: read hot path OK (304 round-trip, "
              f"{cache_hits:.0f} cache hits, {wakeups:.0f} watcher "
              f"wakeups)")

        direct_manifest = os.path.join(tmp, "direct-manifest.json")
        direct = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.cli import main_extract; "
             "sys.exit(main_extract(sys.argv[1:]))",
             "--manifest", direct_manifest],
            capture_output=True, env=env, text=True, timeout=300)
        if direct.returncode != 0:
            print(f"FAIL: direct CLI run failed: {direct.stderr}",
                  file=sys.stderr)
            return 1
        if direct.stdout != service_out:
            print("FAIL: service result differs from direct CLI stdout",
                  file=sys.stderr)
            return 1
        diff = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.cli import main_runs; "
             "sys.exit(main_runs(sys.argv[1:]))",
             "diff", direct_manifest, service_manifest],
            capture_output=True, env=env, text=True, timeout=60)
        print(diff.stdout.strip())
        if diff.returncode != 0:
            print("FAIL: repro-runs diff says the service run and the "
                  "direct CLI run are NOT equivalent", file=sys.stderr)
            return 1

        # SIGTERM teardown: the signal handlers stop the pools and
        # re-deliver, so every process dies by SIGTERM, cleanly.
        for proc in procs:
            proc.send_signal(signal.SIGTERM)
        for proc in procs:
            proc.wait(timeout=30)
        print("ci-smoke: OK (dedup >= 0.5, 25/25 done, byte-identical, "
              "manifests equivalent, 304s served, clean SIGTERM teardown)")
        return 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def test_service_perf():
    """Pytest entry: smoke thresholds, isolated cache dir."""
    from conftest import emit

    with tempfile.TemporaryDirectory(prefix="repro-service-bench-") as tmp:
        old = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache")
        try:
            assert run_benchmark(smoke=True, emit_fn=emit) == 0
        finally:
            if old is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = old


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the serving layer: duplicate-request "
                    "latency, mixed-workload throughput, the read hot "
                    "path, concurrent worker execution, byte identity "
                    "with the CLI.")
    parser.add_argument("--smoke", action="store_true",
                        help="smaller workload, relaxed throughput floor "
                             "(the CI verify mode)")
    parser.add_argument("--ci-smoke", action="store_true",
                        help="boot real repro-serve/repro-worker processes "
                             "and run the CI service smoke (50 requests, "
                             "25 duplicates, SIGTERM teardown)")
    args = parser.parse_args(argv)

    if args.ci_smoke:
        return run_ci_smoke()
    with tempfile.TemporaryDirectory(prefix="repro-service-bench-") as tmp:
        os.environ.setdefault("REPRO_CACHE_DIR", os.path.join(tmp, "cache"))
        return run_benchmark(smoke=args.smoke)


if __name__ == "__main__":
    sys.exit(main())
