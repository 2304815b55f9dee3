"""Command-line entry points of the service layer.

- ``repro-runs``        inspect and diff run manifests
- ``repro-serve``       boot the HTTP API over the runs queue
- ``repro-worker``      claim queued runs and execute them
- ``repro-submit``      submit one request to a running service
- ``repro-top``         live terminal dashboard over a running service

They live apart from the analysis commands in :mod:`repro.cli` so that
a service command never compiles the analysis entry points, and each
imports only its own layer inside its ``main_*``: ``repro-submit`` and
``repro-top`` load the HTTP client, never the queue or the analyzer.
:mod:`repro.cli` still resolves every name here.  As there, results
go to stdout and status lines to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional


def _status(message: str) -> None:
    """One status line on stderr (stdout stays machine-parseable)."""
    print(message, file=sys.stderr)


def _clock(epoch: float) -> str:
    """An epoch timestamp as a local wall-clock stamp (ms precision)."""
    import datetime

    stamp = datetime.datetime.fromtimestamp(epoch)
    return stamp.strftime("%H:%M:%S.") + f"{stamp.microsecond // 1000:03d}"


def _runs_trace(args: argparse.Namespace) -> int:
    """``repro-runs trace``: stitch one run's distributed trace."""
    import json as json_mod

    from repro.serve import runtrace
    from repro.serve.db import RunQueue

    db_path, data_dir = _service_paths(args)
    queue = RunQueue(db_path)
    try:
        assembled = runtrace.assemble(queue, data_dir, args.run_id)
    except LookupError as exc:
        _status(f"repro-runs trace: {exc}")
        return 2
    if args.json:
        print(json_mod.dumps(assembled, indent=2, sort_keys=True))
    else:
        print(runtrace.render(assembled))
    return 0 if assembled["rooted"] else 1


def _format_service_event(record: dict) -> str:
    """One service-log record as a single scannable line."""
    ts = record.get("ts")
    stamp = _clock(ts) if isinstance(ts, (int, float)) else "--:--:--.---"
    head = (f"{stamp} {record.get('proc', '?'):<6} "
            f"{record.get('event', '?')}")
    skip = {"schema", "ts", "event", "proc", "pid"}
    extras = []
    for key in sorted(record):
        if key in skip or record[key] is None:
            continue
        value = record[key]
        if key in ("run_id", "request_key", "traceparent"):
            value = str(value)[:16]
        elif isinstance(value, float):
            value = f"{value:.3f}"
        extras.append(f"{key}={value}")
    return head + ("  " + " ".join(extras) if extras else "")


def _runs_tail(args: argparse.Namespace) -> int:
    """``repro-runs tail``: print/follow the structured service log."""
    from repro.obs import servicelog

    _, data_dir = _service_paths(args)
    path = servicelog.default_path(data_dir)
    log = servicelog.ServiceLog(path, proc="cli", validate=False)
    matches = (lambda r: True) if not args.event else (
        lambda r: str(r.get("event", "")).startswith(args.event))
    backlog = [r for r in log.read(limit=None) if matches(r)]
    if args.lines >= 0:
        backlog = backlog[-args.lines:] if args.lines else []
    for record in backlog:
        print(_format_service_event(record))
    if not backlog and not args.follow:
        _status(f"repro-runs tail: no events in {path}")
    if args.follow:
        try:
            for record in log.follow():
                if matches(record):
                    print(_format_service_event(record), flush=True)
        except KeyboardInterrupt:
            pass
    return 0


def main_runs(argv: Optional[List[str]] = None) -> int:
    """``repro-runs``: inspect and diff run manifests."""
    parser = argparse.ArgumentParser(
        prog="repro-runs",
        description="Inspect run manifests written with --manifest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    show = sub.add_parser("show", help="pretty-print one manifest")
    show.add_argument("path")
    diff = sub.add_parser(
        "diff", help="explain how two runs differ (exit 1 when they do)")
    diff.add_argument("a")
    diff.add_argument("b")
    trace = sub.add_parser(
        "trace", help="reassemble one service run's cross-process trace "
                      "(exit 1 unless it forms a single rooted tree)")
    trace.add_argument("run_id", help="run id or unique prefix")
    trace.add_argument("--json", action="store_true",
                       help="emit the assembled tree as JSON")
    _add_service_args(trace)
    tail = sub.add_parser(
        "tail", help="print (and optionally follow) the structured "
                     "service event log")
    tail.add_argument("-n", "--lines", type=int, default=20, metavar="N",
                      help="backlog events to print first (default 20)")
    tail.add_argument("-f", "--follow", action="store_true",
                      help="keep streaming new events until interrupted")
    tail.add_argument("--event", default=None, metavar="PREFIX",
                      help="only events whose name starts with PREFIX")
    _add_service_args(tail)
    args = parser.parse_args(argv)

    if args.command == "trace":
        return _runs_trace(args)
    if args.command == "tail":
        return _runs_tail(args)

    from repro.obs.manifest import (
        diff_manifests,
        load_manifest,
        manifests_equivalent,
        render_diff,
    )

    if args.command == "show":
        manifest = load_manifest(args.path)
        engine = manifest.get("engine", {})
        report = manifest.get("report", {})
        print(f"tool:        {manifest.get('tool')}")
        print(f"created:     {manifest.get('created_iso')}")
        print(f"wall:        {manifest.get('wall_seconds'):.4f}s")
        print(f"jobs:        {manifest.get('jobs')}")
        print("engine:      " + ", ".join(
            f"{k}={engine[k]}" for k in sorted(engine)))
        print(f"corpus:      {len(manifest.get('corpus', {}))} units")
        print(f"counters:    {len(manifest.get('counters', {}))} recorded")
        digest = report.get("digest")
        print(f"report:      count={report.get('count')} "
              f"digest={digest[:12] if digest else None}")
        if report.get("summary"):
            print(f"summary:     {report['summary']}")
        run = manifest.get("run")
        if run:
            print(f"run:         {run.get('id', '')[:16]} "
                  f"(worker {run.get('worker')}, "
                  f"attempt {run.get('attempt')})")
            if run.get("traceparent"):
                print(f"  trace:     {run['traceparent']}")
            stamps = " -> ".join(
                f"{field} {_clock(run[field])}"
                for field in ("queued", "claimed", "started", "finished")
                if isinstance(run.get(field), (int, float)))
            if stamps:
                print(f"  timeline:  {stamps}")
            if isinstance(run.get("queue_latency"), (int, float)):
                print(f"  queued:    {run['queue_latency']:.3f}s "
                      f"before claim")
        campaign = manifest.get("campaign")
        if campaign:
            hits = campaign.get("snapshot_hits", 0)
            misses = campaign.get("snapshot_misses", 0)
            shard_seconds = campaign.get("shard_seconds") or []
            print(f"campaign:    {campaign.get('sampler')} seed="
                  f"{campaign.get('seed')} budget={campaign.get('budget')} "
                  f"total={campaign.get('total')}")
            print(f"  shards:    {campaign.get('shards')}"
                  + (f" (timings {min(shard_seconds):.3f}.."
                     f"{max(shard_seconds):.3f}s)" if shard_seconds else ""))
            print(f"  snapshot:  {hits} hits / {misses} misses "
                  f"(ratio {campaign.get('snapshot_hit_ratio', 0.0):.3f})")
            if campaign.get("infeasible_skipped"):
                print(f"  skipped:   {campaign['infeasible_skipped']} "
                      f"infeasible")
            cdigest = campaign.get("digest")
            print(f"  digest:    {cdigest[:16] if cdigest else None}")
        return 0

    a = load_manifest(args.a)
    b = load_manifest(args.b)
    print(render_diff(a, b))
    return 0 if manifests_equivalent(diff_manifests(a, b)) else 1


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    """The shared service-location flags (``--db``/``--data-dir``)."""
    parser.add_argument("--data-dir", metavar="DIR", default=None,
                        help="service data directory: queue database, "
                             "corpus snapshots, run manifests (default: "
                             "$REPRO_SERVE_DIR or ~/.cache/repro/serve)")
    parser.add_argument("--db", metavar="PATH", default=None,
                        help="queue database file (default: "
                             "<data-dir>/service.db)")


def _service_paths(args: argparse.Namespace) -> tuple:
    data_dir = (args.data_dir
                or os.environ.get("REPRO_SERVE_DIR", "").strip()
                or os.path.join(os.path.expanduser("~"), ".cache",
                                "repro", "serve"))
    db_path = args.db or os.path.join(data_dir, "service.db")
    return db_path, data_dir


def main_serve(argv: Optional[List[str]] = None) -> int:
    """``repro-serve``: boot the HTTP API over the runs queue."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the dependency-analysis HTTP API: accept corpus "
                    "uploads and extraction/checker/campaign requests, "
                    "enqueue them with content-keyed dedup, and hand them "
                    "to repro-worker processes.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8675,
                        help="listen port (0 = pick a free port; the "
                             "resolved URL is printed on stdout)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every request to stderr")
    parser.add_argument("--cache-bytes", type=int, default=None,
                        metavar="N",
                        help="hot result/manifest cache budget in bytes; "
                             "0 disables the cache and ETag emission "
                             "(default: $REPRO_SERVE_CACHE_BYTES or 32 MiB)")
    _add_service_args(parser)
    args = parser.parse_args(argv)

    from repro.perf.procpool import install_signal_cleanup
    from repro.serve.api import Service

    db_path, data_dir = _service_paths(args)
    install_signal_cleanup()
    from repro.obs import servicelog
    servicelog.configure(servicelog.default_path(data_dir), proc="api")
    service = Service((args.host, args.port), db_path, data_dir,
                      verbose=args.verbose, cache_bytes=args.cache_bytes)
    # stdout, not stderr: scripts parse the resolved URL (port 0).
    print(f"listening on {service.url}", flush=True)
    _status(f"queue database: {db_path}")
    _status(f"data directory: {data_dir}")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        _status("shutting down")
    finally:
        service.server_close()
    return 0


def main_worker(argv: Optional[List[str]] = None) -> int:
    """``repro-worker``: claim queued runs and execute them."""
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Run one queue worker: claim batches of compatible "
                    "runs, execute them on the warm pipeline (campaign "
                    "shards on a process pool under --jobs N > 1), "
                    "and record obs manifests as the run records.",
    )
    parser.add_argument("--id", default=None,
                        help="worker identity recorded in claims and "
                             "manifests (default: host:pid)")
    parser.add_argument("--batch", type=int,
                        default=None, metavar="N",
                        help="max compatible runs claimed per wave "
                             "(default: $REPRO_SERVE_BATCH or 8)")
    parser.add_argument("--lease", type=float, default=None, metavar="SEC",
                        help="claim lease seconds; a worker that stops "
                             "renewing loses its claims after this long "
                             "(default 120)")
    parser.add_argument("--slots", type=int, default=None, metavar="N",
                        help="concurrent exec slots: run up to N compatible "
                             "batchmates at once (default: "
                             "$REPRO_SERVE_SLOTS or 1; pays off for "
                             "sharded --jobs N > 1 campaigns on multi-core "
                             "hosts)")
    parser.add_argument("--max-jobs", type=int, default=None, metavar="N",
                        help="exit after N jobs (default: run forever)")
    parser.add_argument("--once", action="store_true",
                        help="claim and execute at most one batch, then exit")
    _add_service_args(parser)
    args = parser.parse_args(argv)

    from repro.perf.procpool import install_signal_cleanup
    from repro.serve import worker as serve_worker

    db_path, data_dir = _service_paths(args)
    install_signal_cleanup()
    from repro.obs import servicelog
    servicelog.configure(servicelog.default_path(data_dir), proc="worker")
    kwargs = {}
    if args.batch is not None:
        kwargs["batch_limit"] = args.batch
    elif os.environ.get("REPRO_SERVE_BATCH", "").strip():
        kwargs["batch_limit"] = int(os.environ["REPRO_SERVE_BATCH"])
    if args.lease is not None:
        kwargs["lease_seconds"] = args.lease
    if args.slots is not None:
        kwargs["exec_slots"] = args.slots
    worker = serve_worker.Worker(db_path, data_dir, worker_id=args.id,
                                 **kwargs)
    _status(f"worker {worker.worker_id} polling {db_path}")
    try:
        if args.once:
            ran = worker.run_once()
        else:
            ran = worker.run_forever(max_jobs=args.max_jobs)
    except KeyboardInterrupt:
        ran = worker.jobs_done + worker.jobs_failed
        _status("interrupted")
    finally:
        worker.close()
    _status(f"worker {worker.worker_id}: {worker.jobs_done} done, "
            f"{worker.jobs_failed} failed in {worker.batches} batch(es)")
    return 0 if ran or not worker.jobs_failed else 1


def main_submit(argv: Optional[List[str]] = None) -> int:
    """``repro-submit``: submit one request and (optionally) await it."""
    parser = argparse.ArgumentParser(
        prog="repro-submit",
        description="Submit one request to a running repro-serve instance; "
                    "the run's output bytes land on stdout, status lines "
                    "on stderr.",
    )
    parser.add_argument("tool",
                        help="tool to run (extract, condocck, conhandleck, "
                             "conbugck, study, demo)")
    parser.add_argument("--url", default="http://127.0.0.1:8675",
                        help="service base URL")
    parser.add_argument("--params", metavar="JSON", default=None,
                        help='request params as a JSON object, e.g. '
                             '\'{"sample": "random", "budget": 500}\'')
    parser.add_argument("--corpus", metavar="ID", default=None,
                        help="corpus snapshot id from a prior upload")
    parser.add_argument("--upload", metavar="FILE", action="append",
                        default=None,
                        help="corpus unit to upload as an overlay before "
                             "submitting (repeatable; basename is the "
                             "unit name)")
    parser.add_argument("--no-wait", action="store_true",
                        help="enqueue and print the run id without waiting")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds to wait for completion (default 300)")
    parser.add_argument("--manifest", metavar="PATH", default=None,
                        help="also fetch the run manifest to PATH")
    args = parser.parse_args(argv)

    import json as json_mod

    from repro.serve.client import ServiceClient, ServiceError

    try:
        params = json_mod.loads(args.params) if args.params else {}
    except ValueError as exc:
        _status(f"repro-submit: --params is not valid JSON: {exc}")
        return 2
    client = ServiceClient(args.url)
    try:
        corpus_id = args.corpus
        if args.upload:
            files = {}
            for path in args.upload:
                with open(path, encoding="utf-8") as handle:
                    files[os.path.basename(path)] = handle.read()
            corpus_id = client.upload_corpus(files)
            _status(f"uploaded corpus snapshot {corpus_id}")
        submitted = client.submit(args.tool, params, corpus=corpus_id)
        run = submitted["run"]
        dedup = " (deduplicated)" if submitted["deduplicated"] else ""
        _status(f"run {run['run_id'][:16]} [{run['status']}]{dedup}")
        if args.no_wait:
            print(run["run_id"])
            return 0
        run = client.wait_done(run["run_id"], timeout=args.timeout)
        output = client.result_bytes(run["run_id"])
        sys.stdout.write(output.decode("utf-8"))
        sys.stdout.flush()
        if args.manifest:
            manifest = client.manifest(run["run_id"])
            with open(args.manifest, "w", encoding="utf-8") as handle:
                json_mod.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
            _status(f"wrote run manifest to {args.manifest}")
        exit_code = int(run["result"].get("exit_code", 0))
        _status(f"run {run['run_id'][:16]} done "
                f"(exit {exit_code}, "
                f"{run['result'].get('wall_seconds', 0):.3f}s worker wall)")
        return exit_code
    except ServiceError as exc:
        _status(f"repro-submit: {exc}")
        return 3
    except OSError as exc:
        _status(f"repro-submit: {exc}")
        return 2


def _top_frame(stats: dict, samples: dict) -> str:
    """One ``repro-top`` dashboard frame from a stats+metrics poll."""
    from repro.common.texttable import TextTable
    from repro.obs import prom

    queue_table = TextTable(["State", "Runs"], title="Queue")
    for state in sorted(stats.get("by_status", {})):
        queue_table.add_row(state, str(stats["by_status"][state]))
    queue_table.add_row("total", str(stats.get("runs", 0)))

    flow = TextTable(["Signal", "Value"], title="Flow")
    flow.add_row("submits", str(stats.get("submits", 0)))
    flow.add_row("deduplicated", str(stats.get("deduplicated", 0)))
    flow.add_row("dedup ratio", f"{stats.get('dedup_ratio', 0.0):.3f}")
    flow.add_row("lease reclaims", str(stats.get("reclaims", 0)))

    latency = TextTable(["Latency", "p50", "p90", "count"],
                        title="Run latency (finished runs)")
    for label, name in (("queued", "repro_serve_run_queue_latency_seconds"),
                        ("exec", "repro_serve_run_exec_latency_seconds"),
                        ("request",
                         "repro_serve_run_request_latency_seconds")):
        count = sum(v for (n, labels), v in samples.items()
                    if n == name + "_count")
        p50 = prom.histogram_quantile(samples, name, 0.5)
        p90 = prom.histogram_quantile(samples, name, 0.9)
        latency.add_row(label, f"<={p50:.3f}s", f"<={p90:.3f}s",
                        str(int(count)))

    workers = TextTable(["Worker", "Jobs", "Heartbeat age"],
                        title="Workers")
    ages = {labels.get("worker"): value for labels, value in
            prom.samples_named(samples,
                               "repro_serve_worker_heartbeat_age_seconds")}
    jobs = {labels.get("worker"): value for labels, value in
            prom.samples_named(samples, "repro_serve_worker_jobs_done")}
    for worker_id in sorted(ages):
        workers.add_row(worker_id, str(int(jobs.get(worker_id, 0))),
                        f"{ages[worker_id]:.1f}s")
    if not ages:
        workers.add_row("(none seen)", "-", "-")

    return "\n\n".join(table.render() for table in
                       (queue_table, flow, latency, workers))


def main_top(argv: Optional[List[str]] = None) -> int:
    """``repro-top``: live terminal dashboard over a running service."""
    parser = argparse.ArgumentParser(
        prog="repro-top",
        description="Poll a repro-serve instance's /v1/stats and "
                    "/v1/metrics and render a live queue/latency/worker "
                    "dashboard.",
    )
    parser.add_argument("--url", default="http://127.0.0.1:8675",
                        help="service base URL")
    parser.add_argument("--interval", type=float, default=2.0,
                        metavar="SEC", help="poll interval (default 2s)")
    parser.add_argument("--once", action="store_true",
                        help="print a single frame and exit (for scripts "
                             "and CI)")
    args = parser.parse_args(argv)

    from repro.serve.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        while True:
            stats = client.stats()
            samples = client.metrics()
            frame = _top_frame(stats, samples)
            if args.once:
                print(frame)
                return 0
            # Clear + home, like top(1); one frame per poll.
            sys.stdout.write("\x1b[2J\x1b[H" + args.url + "\n\n"
                             + frame + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except ServiceError as exc:
        _status(f"repro-top: {exc}")
        return 3
    except KeyboardInterrupt:
        return 0
