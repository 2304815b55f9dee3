"""Incremental reuse: the function-level analysis store after an edit.

- **warm-incremental** — after editing ONE corpus file, a re-run in a
  fresh process (in-memory memos dropped, analysis store warm) must
  cut the *recompute phases* — ``frontend.compile`` + ``analysis.*``,
  the work the store exists to replay — by
  ``MIN_INCREMENTAL_SPEEDUP``: only the edited unit recompiles and
  re-analyzes, every untouched function decodes from the store.  The
  floor is on those phase seconds rather than end-to-end wall because
  the fixed tail of a run (report assembly, union dedup, graph
  bookkeeping) is identical on both sides and, on a corpus this size,
  large enough to cap the wall ratio regardless of how good the store
  is — the end-to-end wall ratio is still measured and recorded
  (``warm_incremental_wall``).  This floor is hardware-independent and
  always enforced.  Each repetition makes a *fresh* edit so every
  timed run really is the 1-miss incremental case, not a fully warm
  replay.

The measurement asserts byte-identical reports: incremental vs a fresh
cold extraction of the edited corpus.  Every edit changes the unit's
bytes, so the stored-report layer above the analysis store misses on
each incremental run (its tallies are recorded), and the cold runs
clear it with the other stores.

Results land machine-readable in ``BENCH_backend.json`` at the repo
root.  Runnable standalone (``python benchmarks/bench_backend.py
[--smoke]``) or under pytest (``test_backend_perf``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from typing import List, Optional

#: Required cold/incremental speedup of the recompute phases after a
#: single-file edit.
MIN_INCREMENTAL_SPEEDUP = 5.0
SMOKE_INCREMENTAL_SPEEDUP = 3.0

#: The phases the analysis store exists to replay: compiling units and
#: running the per-function analyses.  Everything else in a run (report
#: assembly, bridging, cache/graph bookkeeping) happens identically on
#: the cold and incremental sides.
RECOMPUTE_PHASES = ("frontend.compile", "analysis.cfg",
                    "analysis.taint", "analysis.constraints")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_backend.json")

#: The unit the incremental benchmark edits.
EDIT_UNIT = "mount.c"


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


def _copy_corpus(dest: str) -> None:
    """Copy the checked-in corpus sources into ``dest``."""
    from repro.corpus import loader

    src_dir = os.path.dirname(os.path.abspath(loader.__file__))
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".c"):
            shutil.copy(os.path.join(src_dir, name), os.path.join(dest, name))


def run_benchmark(smoke: bool = False, repeat: int = 3,
                  emit_fn=None) -> int:
    """Measure, render, and enforce the incremental contract; 0 on success."""
    _ensure_imports()

    from conftest import usable_cpus
    from repro.analysis.extractor import extract_all
    from repro.common.texttable import TextTable
    from repro.corpus.cache import (
        analysis_stats,
        report_stats,
        reset_cache_stats,
    )
    from repro.corpus.loader import CORPUS_DIR_ENV, clear_cache
    from repro.perf import reset_profile, stats

    if smoke:
        repeat = 1
    min_incremental = (SMOKE_INCREMENTAL_SPEEDUP if smoke
                       else MIN_INCREMENTAL_SPEEDUP)
    cpus = usable_cpus()

    # ---- warm-incremental after a single-file edit --------------------

    corpus_tmp = tempfile.mkdtemp(prefix="repro-corpus-bench-")
    old_corpus = os.environ.get(CORPUS_DIR_ENV)
    try:
        _copy_corpus(corpus_tmp)
        os.environ[CORPUS_DIR_ENV] = corpus_tmp
        edit_path = os.path.join(corpus_tmp, EDIT_UNIT)
        edit_count = 0

        def edit_unit() -> None:
            nonlocal edit_count
            edit_count += 1
            with open(edit_path, "a", encoding="utf-8") as fh:
                fh.write(f"\n/* bench edit {edit_count} */\n")

        def recompute_seconds() -> float:
            snapshot = stats()
            return sum(snapshot[p].seconds for p in RECOMPUTE_PHASES
                       if p in snapshot)

        def cold_run() -> str:
            clear_cache(disk=True)
            return _canonical(extract_all())

        # Populate the analysis store with a cold run over the copy.
        cold_baseline = cold_run()
        incremental_outputs: List[str] = []

        def incremental() -> None:
            # Fresh-process simulation: memos dropped, disk store warm.
            # The edit happened just before the clock started, so this
            # run recompiles and re-analyzes exactly one unit.
            clear_cache()
            incremental_outputs.append(
                _canonical(extract_all()))

        incremental_s = float("inf")
        incremental_recompute_s = float("inf")
        reset_cache_stats()
        for _ in range(max(1, repeat)):
            edit_unit()  # outside the clock; invalidates EDIT_UNIT
            reset_profile()
            start = time.perf_counter()
            incremental()
            incremental_s = min(incremental_s,
                                time.perf_counter() - start)
            incremental_recompute_s = min(incremental_recompute_s,
                                          recompute_seconds())
        live = analysis_stats()  # live object: snapshot before cold reruns
        an_stats = {"hits": live.hits, "misses": live.misses,
                    "stores": live.stores, "errors": live.errors}
        reports = report_stats()
        report_tallies = {"hits": reports.hits, "misses": reports.misses,
                          "stores": reports.stores, "errors": reports.errors}

        # Reference: a fresh cold extraction of the *edited* corpus must
        # match what the incremental path produced.
        cold_edited = cold_run()
        # Re-time cold on this corpus copy for an apples-to-apples ratio.
        cold_s = float("inf")
        cold_recompute_s = float("inf")
        for _ in range(max(1, repeat)):
            reset_profile()
            start = time.perf_counter()
            cold_run()
            cold_s = min(cold_s, time.perf_counter() - start)
            cold_recompute_s = min(cold_recompute_s, recompute_seconds())
        incremental_identical = (
            incremental_outputs
            and all(o == cold_edited for o in incremental_outputs)
            and cold_baseline == cold_edited)
    finally:
        if old_corpus is None:
            os.environ.pop(CORPUS_DIR_ENV, None)
        else:
            os.environ[CORPUS_DIR_ENV] = old_corpus
        clear_cache()
        shutil.rmtree(corpus_tmp, ignore_errors=True)

    incremental_speedup = (cold_recompute_s / incremental_recompute_s
                           if incremental_recompute_s > 0 else float("inf"))
    incremental_wall = (cold_s / incremental_s
                        if incremental_s > 0 else float("inf"))

    # ---- render -------------------------------------------------------

    table = TextTable(
        ["configuration", "best s", "speedup"],
        title=f"incremental reuse (best of {repeat}, "
              f"{'smoke' if smoke else 'full'}, {cpus} cpu)")
    table.add_row("cold (incremental corpus copy)", f"{cold_s:.4f}", "1.00x")
    table.add_row("warm-incremental (1 file edited)",
                  f"{incremental_s:.4f}", f"{incremental_wall:.2f}x")
    table.add_row("  cold recompute phases", f"{cold_recompute_s:.4f}",
                  "1.00x")
    table.add_row("  incremental recompute phases",
                  f"{incremental_recompute_s:.4f}",
                  f"{incremental_speedup:.2f}x")
    rendered = table.render()
    rendered += (f"\n\nanalysis store during incremental runs: "
                 f"{an_stats['hits']} hits, {an_stats['misses']} misses, "
                 f"{an_stats['stores']} stores, {an_stats['errors']} errors")
    rendered += (f"\nreport store during incremental runs: "
                 f"{report_tallies['hits']} hits, "
                 f"{report_tallies['misses']} misses")
    rendered += (f"\nincremental byte-identical to fresh cold: "
                 f"{'yes' if incremental_identical else 'NO'}")
    rendered += (f"\nwarm-incremental recompute speedup "
                 f"{incremental_speedup:.2f}x "
                 f"(required >= {min_incremental:.1f}x; "
                 f"end-to-end wall {incremental_wall:.2f}x, recorded)")

    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump({
            "mode": "smoke" if smoke else "full",
            "workload": {
                "description": "full-corpus extraction; incremental runs "
                               "re-edit one unit per repetition",
                "repeat": repeat,
                "cpu_count": cpus,
                "edited_unit": EDIT_UNIT,
            },
            "seconds": {
                "cold": cold_s,
                "incremental": incremental_s,
                "cold_recompute": cold_recompute_s,
                "incremental_recompute": incremental_recompute_s,
            },
            "speedups": {
                "warm_incremental": incremental_speedup,
                "warm_incremental_wall": incremental_wall,
            },
            "floors": {
                "warm_incremental": min_incremental,
            },
            "floor_enforced": {
                "warm_incremental": True,
            },
            "analysis_store": an_stats,
            "report_store": report_tallies,
            "identical_outputs": {
                "incremental_vs_cold": bool(incremental_identical),
            },
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if emit_fn is not None:
        emit_fn("backend", rendered)
    else:
        print(rendered)

    if not incremental_identical:
        print("FAIL: incremental output differs from a fresh cold run",
              file=sys.stderr)
        return 1
    if incremental_speedup < min_incremental:
        print(f"FAIL: warm-incremental recompute speedup "
              f"{incremental_speedup:.2f}x is below the "
              f"{min_incremental:.1f}x floor — the analysis store is not "
              f"replaying untouched functions", file=sys.stderr)
        return 1
    return 0


def test_backend_perf():
    """Pytest entry: smoke thresholds, isolated cache dir."""
    from conftest import emit

    with tempfile.TemporaryDirectory(prefix="repro-backend-bench-") as tmp:
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
        description="Benchmark warm-incremental reuse of the analysis "
                    "store after a single-file edit.")
    parser.add_argument("--smoke", action="store_true",
                        help="single repetition, relaxed floors "
                             "(the CI verify mode)")
    parser.add_argument("--repeat", type=int, default=3, metavar="N",
                        help="repetitions per configuration, best-of "
                             "(default 3)")
    parser.add_argument("--cache-dir", metavar="PATH", default=None,
                        help="cache directory (default: a throwaway tmpdir "
                             "so the benchmark never pollutes the real "
                             "cache)")
    args = parser.parse_args(argv)

    if args.cache_dir is not None:
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
        return run_benchmark(smoke=args.smoke, repeat=args.repeat)
    with tempfile.TemporaryDirectory(prefix="repro-backend-bench-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        return run_benchmark(smoke=args.smoke, repeat=args.repeat)


if __name__ == "__main__":
    sys.exit(main())
