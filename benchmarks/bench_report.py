"""Aggregate every ``BENCH_*.json`` into one ``BENCH_report.json``.

Each perf benchmark (``bench_pipeline``, ``bench_campaign``,
``bench_obs``, ``bench_service``) records its machine-readable results
in a ``BENCH_<name>.json`` file at the repo root.  This tool folds them
into a single trajectory file — one entry per benchmark with its
measured speedups, the floors they are held to, and whether each floor
currently holds — so a reviewer (or CI) can see the whole perf posture
of the tree in one read instead of four.

Floors are *reported*, not re-enforced: each benchmark already fails
its own run when a floor regresses, and ``make verify`` runs them all
before this aggregation.  A floor marked ``enforced: false`` by its
benchmark (e.g. the sampled-campaign floor on a small host) shows up
here with that caveat preserved.

Each aggregation also appends one compact summary line to
``BENCH_history.jsonl`` — timestamp, per-benchmark measured values,
and whether every enforced floor held — so the repo accumulates a perf
trajectory *over time*, not just the latest snapshot: ``git log`` says
what changed, the history says what it did to the numbers.

Runnable standalone (``python benchmarks/bench_report.py``) or under
pytest (``test_bench_report`` checks the aggregation logic on the
checked-in files).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORT_PATH = os.path.join(REPO_ROOT, "BENCH_report.json")
HISTORY_PATH = os.path.join(REPO_ROOT, "BENCH_history.jsonl")


def _ensure_imports() -> None:
    """Allow standalone invocation from a source checkout."""
    try:
        import repro  # noqa: F401
    except ImportError:
        here = os.path.dirname(os.path.abspath(__file__))
        sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))


def collect(root: str = REPO_ROOT) -> Dict[str, Any]:
    """Fold every ``BENCH_*.json`` under ``root`` into one report dict."""
    entries: Dict[str, Any] = {}
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        name = os.path.basename(path)[len("BENCH_"):-len(".json")]
        if name == "report":
            continue
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            entries[name] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        speedups = data.get("speedups", {})
        floors = data.get("floors", {})
        enforced = data.get("floor_enforced", {})
        checks = {}
        for key, floor in floors.items():
            measured = speedups.get(key)
            checks[key] = {
                "measured": measured,
                "floor": floor,
                "enforced": bool(enforced.get(key, True)),
                "ok": (measured is None or measured >= floor
                       or not enforced.get(key, True)),
            }
        # bench_obs speaks in overhead ceilings rather than speedup
        # floors; fold its contracts into the same check shape.
        for check_name, measured_key, ceiling_key in (
                ("disabled_overhead", "disabled_overhead_fraction",
                 "max_disabled_overhead"),
                ("service_overhead", "service_overhead_fraction",
                 "max_service_overhead")):
            if measured_key not in data:
                continue
            measured = data[measured_key]
            ceiling = data.get(ceiling_key)
            checks[check_name] = {
                "measured": measured,
                "ceiling": ceiling,
                "enforced": True,
                "ok": ceiling is None or measured <= ceiling,
            }
        entries[name] = {
            "mode": (data.get("mode")
                     or ("smoke" if data.get("smoke") else None)),
            "speedups": speedups,
            "floors": checks,
            "identical_outputs": data.get("identical_outputs"),
            "source": os.path.basename(path),
        }
    all_ok = all(
        check["ok"]
        for entry in entries.values() if "floors" in entry
        for check in entry["floors"].values()
    )
    return {"schema": 1, "benchmarks": entries, "all_floors_ok": all_ok}


def render(report: Dict[str, Any]) -> str:
    """Human-readable summary of the aggregated report."""
    lines: List[str] = ["perf trajectory (one row per BENCH_*.json)"]
    for name, entry in sorted(report["benchmarks"].items()):
        if "error" in entry:
            lines.append(f"  {name:<10s} UNREADABLE: {entry['error']}")
            continue
        parts = []
        for key, check in sorted(entry.get("floors", {}).items()):
            measured = check["measured"]
            mark = "ok" if check["ok"] else "REGRESSED"
            if not check["enforced"]:
                mark = "recorded"
            if "ceiling" in check:
                shown = f"{measured:.4f}" if measured is not None else "?"
                bound = (f"<={check['ceiling']:.2f}"
                         if check["ceiling"] is not None else "")
            else:
                shown = f"{measured:.2f}x" if measured is not None else "?"
                bound = f">={check['floor']:.1f}x"
            parts.append(f"{key}={shown}{bound} [{mark}]")
        mode = entry.get("mode") or "?"
        lines.append(f"  {name:<10s} ({mode}) " + "; ".join(parts))
    lines.append(f"all enforced floors hold: "
                 f"{'yes' if report['all_floors_ok'] else 'NO'}")
    return "\n".join(lines)


def summarize(report: Dict[str, Any]) -> Dict[str, Any]:
    """One history line: measured values and floor verdicts, compact."""
    benchmarks: Dict[str, Any] = {}
    for name, entry in sorted(report["benchmarks"].items()):
        if "error" in entry:
            benchmarks[name] = {"error": True}
            continue
        benchmarks[name] = {
            "mode": entry.get("mode"),
            "measured": {key: check.get("measured")
                         for key, check in sorted(
                             entry.get("floors", {}).items())},
            "ok": all(check["ok"]
                      for check in entry.get("floors", {}).values()),
        }
    return {
        "time": time.time(),
        "time_iso": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "all_floors_ok": report["all_floors_ok"],
        "benchmarks": benchmarks,
    }


def append_history(report: Dict[str, Any],
                   path: str = HISTORY_PATH) -> Dict[str, Any]:
    """Append this aggregation's summary line to the history file."""
    line = summarize(report)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")
    return line


def run_report(emit_fn=None) -> int:
    """Aggregate, write ``BENCH_report.json``, print the summary."""
    _ensure_imports()
    report = collect()
    with open(REPORT_PATH, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if report["benchmarks"]:
        append_history(report)
    rendered = render(report)
    if emit_fn is not None:
        emit_fn("report", rendered)
    else:
        print(rendered)
    if not report["benchmarks"]:
        print("FAIL: no BENCH_*.json files found — run `make bench-smoke` "
              "first", file=sys.stderr)
        return 1
    if not report["all_floors_ok"]:
        print("FAIL: an enforced floor regressed — see the rows marked "
              "REGRESSED above", file=sys.stderr)
        return 1
    return 0


def test_bench_report(tmp_path):
    """Pytest entry: aggregation and floor logic on synthetic files."""
    good = {"mode": "smoke", "speedups": {"x": 2.0},
            "floors": {"x": 1.5}, "identical_outputs": True}
    gated = {"mode": "full", "speedups": {"y": 0.6}, "floors": {"y": 1.8},
             "floor_enforced": {"y": False}}
    bad = {"mode": "full", "speedups": {"z": 1.0}, "floors": {"z": 5.0}}
    (tmp_path / "BENCH_a.json").write_text(json.dumps(good))
    (tmp_path / "BENCH_b.json").write_text(json.dumps(gated))
    report = collect(str(tmp_path))
    assert set(report["benchmarks"]) == {"a", "b"}
    assert report["all_floors_ok"] is True
    assert report["benchmarks"]["b"]["floors"]["y"]["ok"] is True
    assert report["benchmarks"]["b"]["floors"]["y"]["enforced"] is False
    (tmp_path / "BENCH_c.json").write_text(json.dumps(bad))
    report = collect(str(tmp_path))
    assert report["all_floors_ok"] is False
    assert report["benchmarks"]["c"]["floors"]["z"]["ok"] is False
    # The aggregate skips itself, so re-collecting stays stable.
    (tmp_path / "BENCH_report.json").write_text(json.dumps(report))
    again = collect(str(tmp_path))
    assert set(again["benchmarks"]) == {"a", "b", "c"}
    assert "REGRESSED" in render(again)
    # History: one compact JSONL line per aggregation, append-only.
    history = tmp_path / "BENCH_history.jsonl"
    append_history(report, str(history))
    append_history(again, str(history))
    lines = [json.loads(line)
             for line in history.read_text().splitlines()]
    assert len(lines) == 2
    assert lines[0]["all_floors_ok"] is False
    assert lines[0]["benchmarks"]["a"]["measured"]["x"] == 2.0
    assert lines[0]["benchmarks"]["c"]["ok"] is False


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Aggregate every BENCH_*.json into BENCH_report.json.")
    parser.parse_args(argv)
    return run_report()


if __name__ == "__main__":
    sys.exit(main())
