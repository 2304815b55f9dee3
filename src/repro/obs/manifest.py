"""Per-run manifests: what ran, over what, in which modes, to what end.

A manifest is the run-level complement of a span trace: one JSON
document capturing everything needed to explain *why two runs differ*
— corpus content hashes, the engine modes (empty now that every stage
has one engine; older manifests diff through
:data:`RETIRED_ENGINE_KNOBS`), the job count, the counter snapshot,
wall time, and a digest of the dependency report.  ``repro-runs diff
a.json b.json`` reads two manifests and prints exactly what differed;
the digest comparison is what turns "the outputs look the same" into
a checked fact.

Manifests are written atomically and validate against the checked-in
``manifest_schema.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.metrics import REGISTRY
from repro.obs.schema import load_schema, validate
from repro.store import corpus_hashes

#: Bump when the manifest layout changes.
#: v2: optional ``campaign`` section (sampler identity, shard count and
#: timings, snapshot hit/miss ratio, streaming-campaign digest).
#: v3: optional ``run`` section (service run-record linkage: run id ==
#: content request key, executing worker, claim attempt) written by
#: :mod:`repro.serve.worker` so a manifest can be traced back to the
#: queue row it records.
#: v4: the ``run`` section gains the run timeline (queued/claimed/
#: started/finished epoch stamps, derived queue latency) and the
#: cross-process ``traceparent``; all informational, so v3 manifests
#: keep diffing as equivalent against v4 ones.
MANIFEST_SCHEMA_VERSION = 4

_MANIFEST_SCHEMA: Dict[str, Any] = load_schema("manifest_schema.json")


def report_digest(keys: Iterable[str]) -> str:
    """Order-independent sha256 over a report's dependency keys.

    Sorting first makes the digest a property of the dependency *set*,
    so any two runs extracting the same dependencies — sequential or
    parallel — produce the same digest.
    """
    digest = hashlib.sha256()
    for key in sorted(keys):
        digest.update(key.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def build_manifest(tool: str,
                   wall_seconds: float,
                   jobs: int = 1,
                   argv: Optional[List[str]] = None,
                   report_keys: Optional[Iterable[str]] = None,
                   report_summary: Optional[str] = None,
                   trace: Optional[str] = None,
                   campaign: Optional[Dict[str, Any]] = None,
                   ) -> Dict[str, Any]:
    """Assemble the manifest dict for one finished run.

    ``campaign`` (sampled-campaign runs only) records the sampler
    identity, shard layout and timings, snapshot-cache traffic, and the
    streaming campaign digest — the fields ``repro-runs diff`` needs to
    compare two campaign runs.
    """
    keys = list(report_keys) if report_keys is not None else None
    created = time.time()
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "tool": tool,
        "created": created,
        "created_iso": time.strftime("%Y-%m-%dT%H:%M:%S",
                                     time.localtime(created)),
        "wall_seconds": wall_seconds,
        "jobs": jobs,
        "argv": list(argv or []),
        "engine": {},
        "corpus": corpus_hashes(),
        "counters": {k: v for k, v in sorted(REGISTRY.counters().items())},
        "trace": trace,
        "report": {
            "digest": report_digest(keys) if keys is not None else None,
            "count": len(keys) if keys is not None else None,
            "summary": report_summary,
        },
    }
    if campaign is not None:
        manifest["campaign"] = dict(campaign)
    return manifest


def validate_manifest(manifest: Dict[str, Any]) -> None:
    """Raise when a manifest violates the checked-in schema."""
    validate(manifest, _MANIFEST_SCHEMA)


def write_manifest(manifest: Dict[str, Any], path: str) -> None:
    """Atomically persist a (validated) manifest."""
    validate_manifest(manifest)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-manifest-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise


def load_manifest(path: str) -> Dict[str, Any]:
    """Read and validate a manifest file."""
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    validate_manifest(manifest)
    return manifest


# ---------------------------------------------------------------------------
# diffing
# ---------------------------------------------------------------------------

#: Engine knobs that no longer exist, with the one engine that survived
#: each.  A manifest written before a knob was retired records its
#: value; a newer one omits the key and compares as the survivor, so a
#: run on the old default diffs as equivalent while a run on a deleted
#: mode (``solver: dense``) still shows up as a difference.
RETIRED_ENGINE_KNOBS: Dict[str, str] = {
    "transport": "shm",
    "solver": "sparse",
    "lex": "regex",
    "parser": "climb",
    "lattice": "intern",
    "backend": "thread",
}


def _engine_value(engine: Dict[str, Any], knob: str) -> Any:
    return engine.get(knob, RETIRED_ENGINE_KNOBS.get(knob))


def diff_manifests(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Human-readable lines explaining how run ``b`` differs from ``a``.

    Returns an empty list only when the two runs are equivalent in
    every way that can change results (tool, engine modes, corpus,
    report digest/count); informational drift (wall time, counters)
    is reported but prefixed with ``~`` so callers can filter it.
    """
    lines: List[str] = []

    if a.get("tool") != b.get("tool"):
        lines.append(f"tool: {a.get('tool')} -> {b.get('tool')}")

    ea, eb = a.get("engine", {}), b.get("engine", {})
    for knob in sorted(set(ea) | set(eb)):
        va, vb = _engine_value(ea, knob), _engine_value(eb, knob)
        if va != vb:
            lines.append(f"engine.{knob}: {va} -> {vb}")

    if a.get("jobs") != b.get("jobs"):
        lines.append(f"jobs: {a.get('jobs')} -> {b.get('jobs')}")

    ca, cb = a.get("corpus", {}), b.get("corpus", {})
    for unit in sorted(set(ca) | set(cb)):
        ha, hb = ca.get(unit), cb.get(unit)
        if ha == hb:
            continue
        if ha is None:
            lines.append(f"corpus.{unit}: added ({hb[:12]})")
        elif hb is None:
            lines.append(f"corpus.{unit}: removed (was {ha[:12]})")
        else:
            lines.append(f"corpus.{unit}: content changed "
                         f"({ha[:12]} -> {hb[:12]})")

    ra, rb = a.get("report", {}), b.get("report", {})
    if ra.get("digest") != rb.get("digest"):
        lines.append(f"report.digest: {_short(ra.get('digest'))} -> "
                     f"{_short(rb.get('digest'))}")
    if ra.get("count") != rb.get("count"):
        lines.append(f"report.count: {ra.get('count')} -> {rb.get('count')}")

    # Campaign identity: sampler/seed/budget/total/digest changes mean
    # the two runs drove different campaigns.  Shard layout, timings,
    # and cache traffic are execution shape, not results — a sharded
    # run is byte-identical to an unsharded one — so they diff as
    # informational (~) drift.
    ga, gb = a.get("campaign") or {}, b.get("campaign") or {}
    if ga or gb:
        for field in ("sampler", "seed", "budget", "total", "digest"):
            if ga.get(field) != gb.get(field):
                va, vb = ga.get(field), gb.get(field)
                if field == "digest":
                    va, vb = _short(va), _short(vb)
                lines.append(f"campaign.{field}: {va} -> {vb}")
        for field in ("shards", "snapshot_hits", "snapshot_misses",
                      "infeasible_skipped"):
            if ga.get(field) != gb.get(field):
                lines.append(f"~campaign.{field}: {ga.get(field)} -> "
                             f"{gb.get(field)}")
        ratio_a, ratio_b = ga.get("snapshot_hit_ratio"), \
            gb.get("snapshot_hit_ratio")
        if ratio_a != ratio_b and (ratio_a is not None
                                   or ratio_b is not None):
            lines.append(f"~campaign.snapshot_hit_ratio: "
                         f"{_ratio(ratio_a)} -> {_ratio(ratio_b)}")
        sa, sb = ga.get("shard_seconds") or [], gb.get("shard_seconds") or []
        if (sa or sb) and sa != sb:
            lines.append(f"~campaign.shard_seconds: {_span(sa)} -> "
                         f"{_span(sb)}")

    # Service run-record linkage: which queue row / worker produced a
    # manifest is execution provenance, not a result — a service run
    # and a direct CLI run of the same request must diff as equivalent
    # (the CI service smoke asserts exactly that), so every ``run``
    # field is informational (~) drift.
    ua, ub = a.get("run") or {}, b.get("run") or {}
    if ua or ub:
        for field in ("id", "request_key", "worker", "attempt",
                      "traceparent"):
            if ua.get(field) != ub.get(field):
                va, vb = ua.get(field), ub.get(field)
                if field in ("id", "request_key"):
                    va, vb = _short(va), _short(vb)
                lines.append(f"~run.{field}: {va} -> {vb}")
        # The run timeline (v4): epoch stamps and derived queue
        # latency.  Two executions always have different clocks, so
        # all of it is informational drift by definition.
        for field in ("queued", "claimed", "started", "finished"):
            if ua.get(field) != ub.get(field):
                lines.append(f"~run.{field}: {_stamp(ua.get(field))} -> "
                             f"{_stamp(ub.get(field))}")
        la, lb = ua.get("queue_latency"), ub.get("queue_latency")
        if la != lb and (la is not None or lb is not None):
            lines.append(f"~run.queue_latency: {_latency(la)} -> "
                         f"{_latency(lb)}")

    # Informational drift: never makes the runs "different", but often
    # explains a perf question at a glance.
    wa, wb = a.get("wall_seconds"), b.get("wall_seconds")
    if isinstance(wa, (int, float)) and isinstance(wb, (int, float)) and wa:
        lines.append(f"~wall_seconds: {wa:.4f} -> {wb:.4f} "
                     f"({wb / wa:.2f}x)")
    ka, kb = a.get("counters", {}), b.get("counters", {})
    for counter in sorted(set(ka) | set(kb)):
        va, vb = ka.get(counter, 0), kb.get(counter, 0)
        if va != vb:
            lines.append(f"~counters.{counter}: {va} -> {vb}")

    return lines


def manifests_equivalent(diff: List[str]) -> bool:
    """Whether a diff contains only informational (``~``) drift."""
    return all(line.startswith("~") for line in diff)


def render_diff(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """The full diff report ``repro-runs diff`` prints."""
    diff = diff_manifests(a, b)
    if manifests_equivalent(diff):
        ra = a.get("report", {})
        head = ("runs are equivalent: same engine modes, corpus, and "
                f"report ({ra.get('count')} dependencies, digest "
                f"{_short(ra.get('digest'))})")
    else:
        head = "runs differ:"
    body = "\n".join(f"  {line}" for line in diff)
    return head + ("\n" + body if body else "")


def _short(digest: Optional[str]) -> str:
    return digest[:12] if isinstance(digest, str) else str(digest)


def _ratio(value: Optional[float]) -> str:
    return f"{value:.3f}" if isinstance(value, (int, float)) else str(value)


def _span(seconds: List[float]) -> str:
    """Compact shard-timing summary: count and min..max."""
    if not seconds:
        return "[]"
    return f"[{len(seconds)}x {min(seconds):.3f}..{max(seconds):.3f}s]"


def _stamp(epoch: Optional[float]) -> str:
    """Epoch seconds as a local wall-clock timestamp (or the raw value)."""
    if not isinstance(epoch, (int, float)):
        return str(epoch)
    return time.strftime("%H:%M:%S", time.localtime(epoch)) \
        + f".{int(epoch * 1000) % 1000:03d}"


def _latency(seconds: Optional[float]) -> str:
    return f"{seconds:.3f}s" if isinstance(seconds, (int, float)) \
        else str(seconds)
