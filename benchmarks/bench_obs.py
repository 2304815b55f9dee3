"""Observability overhead: tracing disabled must cost (almost) nothing.

The tracer is on every hot path — each analyzed function, each corpus
compile, each checker probe opens a span.  The design bet is that a
*disabled* span is one module-global load, an ``is None`` test, and a
shared no-op context manager, so instrumentation can stay in the code
permanently.  This benchmark holds the layer to that bet:

- **disabled overhead** — time a cold extraction with tracing off,
  count the spans an identical traced run opens, price those calls at
  the measured per-call no-op cost, and require the bill to stay under
  ``MAX_DISABLED_OVERHEAD`` (5%) of the extraction wall time;
- **byte-identity** — the traced and untraced runs must produce
  byte-identical canonical dependency reports;
- **artifact validity** — the JSONL trace and the run manifest emitted
  by the traced run must validate against the checked-in schemas, and
  the trace must form a single rooted tree;
- **service telemetry overhead** — the fleet telemetry added with the
  serving layer (structured service-log emits, registry counters and
  latency histograms) must stay under ``MAX_SERVICE_OVERHEAD`` (5%) of
  a mixed service workload's wall time.  Methodology mirrors the
  disabled-overhead check: run the mixed workload with telemetry fully
  on, count the telemetry operations it actually performed (service-log
  events appended, ``serve.*`` counter bumps, histogram observes),
  price them at measured per-operation costs, and hold the bill to the
  ceiling.  Pricing rather than A/B-ing two workload runs keeps the
  check deterministic on a noisy 1-CPU box — per-op costs are stable
  where end-to-end walls are not.

Results land machine-readable in ``BENCH_obs.json`` at the repo root.
Runnable standalone (``python benchmarks/bench_obs.py [--smoke]``) or
under pytest (``test_obs_perf``); the ``verify`` target runs ``--smoke``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import List, Optional

#: Ceiling on the disabled-tracing overhead, as a fraction of the cold
#: extraction wall time.  Identical in smoke and full mode: the bound
#: is a design property, not a machine-speed property.
MAX_DISABLED_OVERHEAD = 0.05

#: No-op span() calls used to price the disabled fast path.
NOOP_CALIBRATION_CALLS = 200_000

#: Ceiling on the *enabled* service-telemetry overhead, as a fraction
#: of the mixed service workload's wall time.
MAX_SERVICE_OVERHEAD = 0.05

#: Mixed service workload size (requests submitted, duplicates
#: included) — matches the bench_service throughput workload.
SERVICE_WORKLOAD_REQUESTS = 100
SMOKE_SERVICE_REQUESTS = 24

#: Calibration loop sizes for the per-operation telemetry costs.
EMIT_CALIBRATION_CALLS = 10_000
REGISTRY_CALIBRATION_CALLS = 200_000

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_obs.json")


def _ensure_imports() -> None:
    """Allow standalone invocation from a source checkout."""
    try:
        import repro  # noqa: F401
    except ImportError:
        here = os.path.dirname(os.path.abspath(__file__))
        sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))


def _canonical(report) -> str:
    """Byte-stable serialization of a full extraction report."""
    lines: List[str] = []
    for result in report.scenarios:
        lines.append(f"## {result.spec.name}")
        lines.extend(dep.key() for dep in result.dependencies)
    lines.append("## union")
    lines.extend(dep.key() for dep in report.union)
    return "\n".join(lines)


def _noop_span_cost() -> float:
    """Measured seconds per span() call while tracing is disabled."""
    from repro.obs.tracer import span

    start = time.perf_counter()
    for _ in range(NOOP_CALIBRATION_CALLS):
        with span("bench.noop", probe=1):
            pass
    return (time.perf_counter() - start) / NOOP_CALIBRATION_CALLS


def _emit_cost(tmp: str) -> float:
    """Measured seconds per service-log emit (append + fsync-free write)."""
    from repro.obs.servicelog import ServiceLog

    log = ServiceLog(os.path.join(tmp, "calibration.jsonl"), proc="api")
    start = time.perf_counter()
    for _ in range(EMIT_CALIBRATION_CALLS):
        log.emit("http.request", method="GET", path="/v1/stats",
                 status=200, duration=0.001)
    return (time.perf_counter() - start) / EMIT_CALIBRATION_CALLS


def _registry_op_cost() -> float:
    """Measured seconds per registry operation (bump/observe averaged)."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    start = time.perf_counter()
    for _ in range(REGISTRY_CALIBRATION_CALLS // 2):
        registry.bump("bench.calibration")
        registry.observe("bench.calibration.latency", 0.01)
    return (time.perf_counter() - start) / REGISTRY_CALIBRATION_CALLS


def _measure_service_telemetry(smoke: bool) -> dict:
    """The mixed service workload with telemetry on, plus the pricing.

    Returns the measured walls, telemetry-operation counts, per-op
    costs, and the resulting overhead fraction.
    """
    import tempfile as tempfile_mod
    import threading

    from repro.obs import servicelog
    from repro.obs.metrics import REGISTRY
    from repro.serve.api import start_in_thread
    from repro.serve.client import ServiceClient
    from repro.serve.worker import Worker

    requests_total = (SMOKE_SERVICE_REQUESTS if smoke
                      else SERVICE_WORKLOAD_REQUESTS)
    data_dir = tempfile_mod.mkdtemp(prefix="repro-obs-service-")
    db_path = os.path.join(data_dir, "service.db")
    log_path = servicelog.default_path(data_dir)

    def _telemetry_counts() -> tuple:
        counters = sum(value for name, value in REGISTRY.counters().items()
                       if name.startswith(("serve.", "servicelog.")))
        observes = sum(h.count for name, h in REGISTRY.histograms().items()
                       if name.startswith("serve."))
        return counters, observes

    servicelog.configure(log_path, proc="api")
    bumps_before, observes_before = _telemetry_counts()
    service, _thread = start_in_thread(db_path, data_dir)
    client = ServiceClient(service.url)
    stop = threading.Event()
    worker = Worker(db_path, data_dir, worker_id="obs-bench-worker")
    worker_thread = threading.Thread(target=worker.run_forever,
                                     args=(stop,), daemon=True)
    worker_thread.start()
    try:
        uniques = [
            {"tool": "demo", "params": {}},
            {"tool": "condocck", "params": {}},
            {"tool": "extract", "params": {}},
            {"tool": "extract", "params": {"list": True}},
        ]
        started = time.perf_counter()
        submitted = []
        for index in range(requests_total):
            request = uniques[index % len(uniques)]
            row = client.submit(request["tool"], request["params"])
            submitted.append(row["run"]["run_id"])
        for run_id in dict.fromkeys(submitted):
            client.wait_done(run_id, timeout=180)
        workload_s = time.perf_counter() - started

        # The dashboards poll /v1/metrics; price one scrape separately
        # (pull-driven cost, not charged against the workload).
        scrape_start = time.perf_counter()
        samples = client.metrics()
        scrape_s = time.perf_counter() - scrape_start
        stats = client.stats()
    finally:
        stop.set()
        worker_thread.join(timeout=30)
        service.shutdown()
        service.server_close()
        servicelog.unconfigure()

    bumps_after, observes_after = _telemetry_counts()
    events_logged = len(servicelog.ServiceLog(log_path,
                                              proc="api").read())
    counter_bumps = max(0, bumps_after - bumps_before)
    observes = max(0, observes_after - observes_before)

    per_emit = _emit_cost(data_dir)
    per_registry_op = _registry_op_cost()
    priced = (events_logged * per_emit
              + (counter_bumps + observes) * per_registry_op)
    overhead = priced / workload_s if workload_s else 0.0
    return {
        "requests": requests_total,
        "workload_seconds": workload_s,
        "dedup_ratio": stats["dedup_ratio"],
        "events_logged": events_logged,
        "counter_bumps": counter_bumps,
        "histogram_observes": observes,
        "emit_us": per_emit * 1e6,
        "registry_op_ns": per_registry_op * 1e9,
        "scrape_seconds": scrape_s,
        "scrape_samples": len(samples),
        "priced_seconds": priced,
        "overhead_fraction": overhead,
    }


def run_benchmark(smoke: bool = False, repeat: int = 3,
                  emit_fn=None) -> int:
    """Measure, render, and enforce the obs contract; 0 on success."""
    _ensure_imports()

    from repro.analysis.extractor import extract_all
    from repro.common.texttable import TextTable
    from repro.corpus.loader import clear_cache
    from repro.obs import events, manifest, tracer

    if smoke:
        repeat = 1

    # -- untraced cold extractions: the wall-time denominator ----------
    assert not tracer.is_enabled()
    plain_best = float("inf")
    plain_canonical = None
    for _ in range(max(1, repeat)):
        clear_cache(disk=True)
        start = time.perf_counter()
        report = extract_all()
        plain_best = min(plain_best, time.perf_counter() - start)
        plain_canonical = _canonical(report)

    # -- one traced cold extraction: span count + artifacts ------------
    trace = tracer.Tracer("bench-obs")
    clear_cache(disk=True)
    start = time.perf_counter()
    with tracer.enabled(trace):
        traced_report = extract_all()
    traced_wall = time.perf_counter() - start
    traced_canonical = _canonical(traced_report)
    span_count = len(trace)

    identical = plain_canonical == traced_canonical

    # -- price the disabled fast path at the traced run's call volume --
    per_call = _noop_span_cost()
    overhead = (per_call * span_count) / plain_best if plain_best else 0.0

    # -- artifact validity ---------------------------------------------
    with tempfile.TemporaryDirectory(prefix="repro-obs-bench-") as tmp:
        trace_path = os.path.join(tmp, "trace.jsonl")
        manifest_path = os.path.join(tmp, "run.json")
        written = events.write_jsonl(trace, trace_path)
        validated = events.validate_events_file(trace_path)
        _header, span_events = events.read_jsonl(trace_path)
        roots = [e for e in span_events if e["parent"] is None]
        run_manifest = manifest.build_manifest(
            "bench-obs", wall_seconds=traced_wall,
            report_keys=[d.key() for d in traced_report.union])
        manifest.write_manifest(run_manifest, manifest_path)
        manifest.load_manifest(manifest_path)
    artifacts_ok = (written == validated == span_count
                    and len(roots) == 1)
    digest_ok = run_manifest["report"]["digest"] == manifest.report_digest(
        d.key() for d in traced_report.union)

    # -- service telemetry: price the enabled fleet instrumentation ----
    service = _measure_service_telemetry(smoke)
    service_overhead = service["overhead_fraction"]

    # -- render ---------------------------------------------------------
    table = TextTable(
        ["measurement", "value"],
        title="observability overhead "
              f"(best of {repeat}, {'smoke' if smoke else 'full'})")
    table.add_row("cold extraction, tracing off", f"{plain_best:.4f} s")
    table.add_row("cold extraction, tracing on", f"{traced_wall:.4f} s")
    table.add_row("spans in traced run", str(span_count))
    table.add_row("disabled span() cost", f"{per_call * 1e9:.1f} ns/call")
    table.add_row("disabled overhead at that volume",
                  f"{overhead * 100:.3f}% "
                  f"(limit {MAX_DISABLED_OVERHEAD * 100:.0f}%)")
    table.add_row(f"service workload ({service['requests']} requests)",
                  f"{service['workload_seconds']:.3f} s")
    table.add_row("service-log emit cost",
                  f"{service['emit_us']:.1f} us/event "
                  f"({service['events_logged']} events)")
    table.add_row("registry op cost",
                  f"{service['registry_op_ns']:.0f} ns/op "
                  f"({service['counter_bumps'] + service['histogram_observes']}"
                  f" ops)")
    table.add_row("/v1/metrics scrape",
                  f"{service['scrape_seconds'] * 1e3:.1f} ms "
                  f"({service['scrape_samples']} samples)")
    table.add_row("service telemetry overhead",
                  f"{service_overhead * 100:.3f}% "
                  f"(limit {MAX_SERVICE_OVERHEAD * 100:.0f}%)")
    rendered = table.render()
    rendered += (f"\n\nreports byte-identical with tracing on/off: "
                 f"{'yes' if identical else 'NO'}")
    rendered += (f"\ntrace artifacts valid (schema, single root, "
                 f"{span_count} spans): {'yes' if artifacts_ok else 'NO'}")
    rendered += (f"\nmanifest digest matches report: "
                 f"{'yes' if digest_ok else 'NO'}")

    if emit_fn is not None:
        emit_fn("obs", rendered)
    else:
        print(rendered)

    payload = {
        "smoke": smoke,
        "plain_seconds": plain_best,
        "traced_seconds": traced_wall,
        "span_count": span_count,
        "noop_span_ns": per_call * 1e9,
        "disabled_overhead_fraction": overhead,
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        "service_overhead_fraction": service_overhead,
        "max_service_overhead": MAX_SERVICE_OVERHEAD,
        "service_workload": service,
        "identical_outputs": identical,
        "artifacts_valid": artifacts_ok,
        "manifest_digest_matches": digest_ok,
    }
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    if not identical:
        print("FAIL: enabling tracing changed the dependency report",
              file=sys.stderr)
        return 1
    if not artifacts_ok:
        print("FAIL: trace artifacts did not validate as a single "
              "rooted tree", file=sys.stderr)
        return 1
    if not digest_ok:
        print("FAIL: manifest report digest does not match the report",
              file=sys.stderr)
        return 1
    if overhead > MAX_DISABLED_OVERHEAD:
        print(f"FAIL: disabled-tracing overhead {overhead * 100:.3f}% "
              f"exceeds the {MAX_DISABLED_OVERHEAD * 100:.0f}% ceiling",
              file=sys.stderr)
        return 1
    if service_overhead > MAX_SERVICE_OVERHEAD:
        print(f"FAIL: service-telemetry overhead "
              f"{service_overhead * 100:.3f}% exceeds the "
              f"{MAX_SERVICE_OVERHEAD * 100:.0f}% ceiling",
              file=sys.stderr)
        return 1
    return 0


def test_obs_perf():
    """Pytest entry: smoke mode, isolated cache dir."""
    from conftest import emit

    with tempfile.TemporaryDirectory(prefix="repro-ir-bench-") as tmp:
        old = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = tmp
        try:
            assert run_benchmark(smoke=True, emit_fn=emit) == 0
        finally:
            if old is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = old


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the observability layer: disabled-tracing "
                    "overhead, on/off byte-identity, artifact validity.")
    parser.add_argument("--smoke", action="store_true",
                        help="single repetition (the CI verify mode)")
    parser.add_argument("--repeat", type=int, default=3, metavar="N",
                        help="untraced repetitions, best-of (default 3)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-ir-bench-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        return run_benchmark(smoke=args.smoke, repeat=args.repeat)


if __name__ == "__main__":
    sys.exit(main())
