"""Pipeline performance: cold vs warm IR cache.

Unlike the other ``bench_*`` modules (which regenerate paper tables),
this one benchmarks the *reproduction's own* analysis pipeline — the
perf layer added on top of the paper:

- **cold**        — empty disk cache: compile the corpus + analyze;
- **warm-disk**   — fresh process simulated (in-memory caches and the
  stored report dropped by ``clear_cache()``), IR modules unpickled
  from the persistent cache and analyses decoded from the store;
- **warm-report** — a repeat extraction, which the stored report
  answers whole, in this process or a new one (recorded, no floor).

Contract (the ``verify`` target runs ``--smoke`` and fails loudly):

- warm-disk must beat cold by ``MIN_WARM_SPEEDUP`` (3x full, 2x smoke);
- every run, any cache state: identical dependencies.

Runnable standalone (``python benchmarks/bench_pipeline.py [--smoke]``)
or under pytest (``test_pipeline_perf`` applies the smoke thresholds).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import List, Optional

#: Required cold/warm-disk speedup (full mode; --smoke relaxes to 2x so
#: a loaded CI box does not flake the verify target).
MIN_WARM_SPEEDUP = 3.0
SMOKE_WARM_SPEEDUP = 2.0

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_pipeline.json")


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


def _best_of(repeat: int, fn) -> float:
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(smoke: bool = False, repeat: int = 3,
                  emit_fn=None) -> int:
    """Measure, render, and enforce the perf contract; 0 on success."""
    _ensure_imports()

    from repro.analysis.extractor import extract_all
    from repro.common.texttable import TextTable
    from repro.corpus.cache import cache_stats, report_stats, reset_cache_stats
    from repro.corpus.loader import clear_cache

    if smoke:
        repeat = 1
    min_speedup = SMOKE_WARM_SPEEDUP if smoke else MIN_WARM_SPEEDUP

    outputs: List[str] = []

    def timed_run(prepare) -> float:
        def one_run():
            prepare()
            outputs.append(_canonical(extract_all()))
        return _best_of(repeat, one_run)

    reset_cache_stats()
    cold = timed_run(lambda: clear_cache(disk=True))
    warm_disk = timed_run(clear_cache)
    warm_report = timed_run(lambda: None)  # warm-disk stored the report

    warm_speedup = cold / warm_disk if warm_disk > 0 else float("inf")
    report_speedup = cold / warm_report if warm_report > 0 else float("inf")

    table = TextTable(["configuration", "best s", "vs cold"],
                      title="pipeline wall time "
                            f"(best of {repeat}, {'smoke' if smoke else 'full'})")
    table.add_row("cold (compile everything)", f"{cold:.4f}", "1.00x")
    table.add_row("warm disk cache (new process)", f"{warm_disk:.4f}",
                  f"{warm_speedup:.2f}x")
    table.add_row("stored report", f"{warm_report:.4f}",
                  f"{report_speedup:.2f}x")
    rendered = table.render()
    stats = cache_stats()
    rendered += (f"\n\ndisk cache: {stats.hits} hits, {stats.misses} misses, "
                 f"{stats.stores} stores, {stats.errors} errors")
    reports = report_stats()
    rendered += (f"\nreport store: {reports.hits} hits, {reports.misses} "
                 f"misses, {reports.stores} stores, {reports.errors} errors")

    identical = all(out == outputs[0] for out in outputs[1:])
    rendered += (f"\noutputs byte-identical across all runs: "
                 f"{'yes' if identical else 'NO'}")
    rendered += (f"\nwarm-disk speedup {warm_speedup:.2f}x "
                 f"(required >= {min_speedup:.1f}x)")

    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump({
            "mode": "smoke" if smoke else "full",
            "repeat": repeat,
            "seconds": {
                "cold": cold,
                "warm_disk": warm_disk,
                "warm_report": warm_report,
            },
            "speedups": {
                "warm_disk": warm_speedup,
                "warm_report": report_speedup,
            },
            "floors": {"warm_disk": min_speedup},
            "floor_enforced": {"warm_disk": True},
            "ir_cache": {"hits": stats.hits, "misses": stats.misses,
                         "stores": stats.stores, "errors": stats.errors},
            "report_store": {"hits": reports.hits, "misses": reports.misses,
                             "stores": reports.stores,
                             "errors": reports.errors},
            "identical_outputs": bool(identical),
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if emit_fn is not None:
        emit_fn("pipeline", rendered)
    else:
        print(rendered)

    if not identical:
        print("FAIL: warm outputs differ from the cold run",
              file=sys.stderr)
        return 1
    if warm_speedup < min_speedup:
        print(f"FAIL: warm-cache speedup {warm_speedup:.2f}x is below the "
              f"{min_speedup:.1f}x floor — perf regression", file=sys.stderr)
        return 1
    return 0


def test_pipeline_perf():
    """Pytest entry: smoke thresholds, isolated cache dir."""
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
        description="Benchmark the extraction pipeline: cold vs warm IR "
                    "cache.")
    parser.add_argument("--smoke", action="store_true",
                        help="single repetition, relaxed 2x threshold "
                             "(the CI verify mode)")
    parser.add_argument("--repeat", type=int, default=3, metavar="N",
                        help="repetitions per configuration, best-of (default 3)")
    parser.add_argument("--cache-dir", metavar="PATH", default=None,
                        help="IR cache directory (default: a throwaway tmpdir "
                             "so the benchmark never pollutes the real cache)")
    args = parser.parse_args(argv)

    if args.cache_dir is not None:
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
        return run_benchmark(smoke=args.smoke, repeat=args.repeat)
    with tempfile.TemporaryDirectory(prefix="repro-ir-bench-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        return run_benchmark(smoke=args.smoke, repeat=args.repeat)


if __name__ == "__main__":
    sys.exit(main())
