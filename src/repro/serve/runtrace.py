"""Reassemble one service run's distributed trace into a span tree.

A run submitted over HTTP crosses three process boundaries: the API
process that queued it, the ``repro-worker`` that claimed and executed
it, and the campaign-shard children the CLI fanned out to (``--jobs
N > 1``).  Each leaves its own evidence — the queue row's timestamps,
and the run directory's ``trace.jsonl`` written by the worker-driven
CLI (whose shard spans were already grafted in-process by
:func:`repro.obs.tracer.graft`).

:func:`assemble` stitches those fragments into a single rooted tree:

- a synthetic ``serve.request`` root spanning submit → finish,
- a ``queue.wait`` child covering the time spent queued,
- a ``worker.exec`` child covering the execution attempt, under which
  the trace file's own root (the tool span) is re-parented.

Trust is established by the traceparent: the worker derives it from
the run id (:func:`repro.obs.tracer.make_traceparent`), so the trace
file's header must carry exactly the value any process would re-derive.
A mismatch (stale file, wrong attempt) marks the assembly un-rooted
rather than silently grafting a foreign trace.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.obs import events as obs_events
from repro.obs import tracer as obs_tracer
from repro.serve.db import RunQueue


def trace_path(data_dir: str, run_id: str) -> str:
    """Where the worker-driven CLI writes the run's trace file."""
    return os.path.join(data_dir, "runs", run_id, "trace.jsonl")


def resolve_run(queue: RunQueue, run_ref: str) -> Dict[str, Any]:
    """The run row for an exact id or a unique id prefix.

    Raises :class:`LookupError` when nothing (or more than one run)
    matches — the caller turns that into exit code 2.
    """
    run = queue.get(run_ref)
    if run is not None:
        return run
    matches = [row for row in queue.list_runs(limit=1000)
               if row["run_id"].startswith(run_ref)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise LookupError(f"no run matches {run_ref!r}")
    raise LookupError(
        f"ambiguous run prefix {run_ref!r} ({len(matches)} matches)")


def _node(name: str, ts: Optional[float], dur: Optional[float],
          **attrs: Any) -> Dict[str, Any]:
    return {"name": name, "ts": ts, "dur": dur,
            "attrs": {k: v for k, v in attrs.items() if v is not None},
            "children": []}


def _file_tree(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The trace file's span events as nested nodes (roots returned)."""
    nodes: Dict[int, Dict[str, Any]] = {}
    for event in sorted(events, key=lambda e: e["id"]):
        nodes[event["id"]] = _node(
            event["name"], event.get("ts"), event.get("dur"),
            thread=event.get("thread"), error=event.get("error"),
            **(event.get("attrs") or {}))
    roots: List[Dict[str, Any]] = []
    for event in sorted(events, key=lambda e: e["id"]):
        parent = event.get("parent")
        if parent is not None and parent in nodes:
            nodes[parent]["children"].append(nodes[event["id"]])
        else:
            roots.append(nodes[event["id"]])
    return roots


def assemble(queue: RunQueue, data_dir: str,
             run_ref: str) -> Dict[str, Any]:
    """One run's cross-process trace as a single rooted span tree.

    Never raises for an *incomplete* trace (missing file, pending run);
    the gaps are reported via ``rooted``/``file_spans`` so callers can
    distinguish "not yet" from "broken".
    """
    run = resolve_run(queue, run_ref)
    run_id = run["run_id"]
    timeline = RunQueue.timeline(run)
    attempt = int(run.get("attempts") or 1)
    expected = obs_tracer.make_traceparent(run_id, f"attempt-{attempt}")

    path = trace_path(data_dir, run_id)
    file_header: Dict[str, Any] = {}
    file_events: List[Dict[str, Any]] = []
    file_error: Optional[str] = None
    if os.path.exists(path):
        try:
            file_header, file_events = obs_events.read_jsonl(path)
        except (OSError, ValueError) as exc:
            file_error = str(exc)
    file_roots = _file_tree(file_events)
    file_traceparent = file_header.get("traceparent")
    match = file_traceparent == expected

    root = _node("serve.request", run.get("created"),
                 timeline.get("request_latency"),
                 run_id=run_id, tool=run.get("tool"),
                 status=run.get("status"))
    root["children"].append(_node(
        "queue.wait", run.get("created"), timeline.get("queue_latency"),
        reclaims=run.get("reclaims") or None))
    exec_node = _node(
        "worker.exec", run.get("started") or run.get("claimed_at"),
        timeline.get("exec_latency"), worker=run.get("claimed_by"),
        attempt=attempt)
    if match:
        exec_node["children"].extend(file_roots)
    root["children"].append(exec_node)

    return {
        "run_id": run_id,
        "status": run.get("status"),
        "tool": run.get("tool"),
        "worker": run.get("claimed_by"),
        "attempt": attempt,
        "traceparent": expected,
        "trace_file": path if os.path.exists(path) else None,
        "file_traceparent": file_traceparent,
        "traceparent_match": match,
        "file_spans": len(file_events),
        "file_roots": len(file_roots),
        "file_error": file_error,
        # The acceptance bar: all three process layers present and the
        # exec fragment is itself one tree under a trusted identity.
        "rooted": bool(match and len(file_roots) == 1),
        "tree": root,
    }


def _render_node(node: Dict[str, Any], prefix: str, last: bool,
                 lines: List[str]) -> None:
    connector = "`- " if last else "|- "
    dur = node.get("dur")
    label = node["name"]
    attrs = node.get("attrs") or {}
    shown = {k: v for k, v in attrs.items()
             if k not in ("thread",) and v is not None}
    if shown:
        label += " (" + ", ".join(
            f"{k}={v}" for k, v in sorted(shown.items())) + ")"
    timing = f"  {dur:.3f}s" if isinstance(dur, (int, float)) else ""
    lines.append(f"{prefix}{connector}{label}{timing}")
    child_prefix = prefix + ("   " if last else "|  ")
    children = node.get("children") or []
    for index, child in enumerate(children):
        _render_node(child, child_prefix, index == len(children) - 1, lines)


def render(assembled: Dict[str, Any]) -> str:
    """The assembled trace as an ASCII tree, one span per line."""
    lines = [
        f"run {assembled['run_id'][:16]} [{assembled['status']}] "
        f"tool={assembled['tool']} attempt={assembled['attempt']}",
        f"traceparent {assembled['traceparent']}",
    ]
    if assembled["trace_file"] is None:
        lines.append("trace file: (none yet)")
    elif not assembled["traceparent_match"]:
        lines.append(
            f"trace file: {assembled['trace_file']} — traceparent "
            f"mismatch ({assembled['file_traceparent']}); not grafted")
    else:
        lines.append(
            f"trace file: {assembled['trace_file']} "
            f"({assembled['file_spans']} spans)")
    if assembled.get("file_error"):
        lines.append(f"trace file error: {assembled['file_error']}")
    tree = assembled["tree"]
    label = tree["name"]
    dur = tree.get("dur")
    lines.append(label + (f"  {dur:.3f}s"
                          if isinstance(dur, (int, float)) else ""))
    children = tree.get("children") or []
    for index, child in enumerate(children):
        _render_node(child, "", index == len(children) - 1, lines)
    lines.append("rooted: " + ("yes" if assembled["rooted"] else "no"))
    return "\n".join(lines)
