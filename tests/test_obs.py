"""Tests for the observability layer (repro.obs).

Covers the tracer (nesting, thread handoff, disabled fast path), the
JSONL/Chrome event sinks and their checked-in schemas, run manifests
and ``repro-runs diff``, dependency provenance, the metrics registry
(idempotent counter-source registration), and the CLI surface:
results on stdout, status on stderr, one rooted span tree per run.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import events, manifest, tracer
from repro.obs.schema import SchemaError, validate


# ---------------------------------------------------------------------------
# tracer core
# ---------------------------------------------------------------------------


def test_disabled_span_is_shared_noop():
    assert not tracer.is_enabled()
    cm = tracer.span("anything", attr=1)
    assert cm is tracer.span("something.else")
    with cm:
        pass  # reentrant, stateless
    cm.set_attr("dropped", True)  # silently ignored


def test_span_nesting_builds_a_tree():
    t = tracer.Tracer("unit")
    with tracer.enabled(t):
        with tracer.span("root", kind="outer"):
            with tracer.span("child.a"):
                pass
            with tracer.span("child.b"):
                with tracer.span("grandchild"):
                    pass
    assert len(t) == 4
    roots = t.roots()
    assert [s.name for s in roots] == ["root"]
    children = t.children(roots[0])
    assert [s.name for s in children] == ["child.a", "child.b"]
    assert [s.name for s in t.children(children[1])] == ["grandchild"]
    assert roots[0].attrs == {"kind": "outer"}
    assert all(s.duration >= 0.0 for s in t.spans)


def test_span_records_exception_and_reraises():
    t = tracer.Tracer("unit")
    with tracer.enabled(t):
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
    (span,) = t.spans
    assert span.error == "ValueError: boom"


def test_enabled_restores_previous_tracer():
    outer = tracer.Tracer("outer")
    inner = tracer.Tracer("inner")
    with tracer.enabled(outer):
        with tracer.enabled(inner):
            assert tracer.active() is inner
        assert tracer.active() is outer
    assert tracer.active() is None


def test_capture_returns_none_when_disabled():
    assert tracer.capture() is None


# ---------------------------------------------------------------------------
# schema validator
# ---------------------------------------------------------------------------


def test_schema_validate_accepts_and_rejects():
    schema = {
        "type": "object",
        "properties": {
            "n": {"type": "integer", "minimum": 1},
            "tag": {"type": "string", "enum": ["a", "b"]},
            "items": {"type": "array", "items": {"type": "number"}},
        },
        "required": ["n"],
        "additionalProperties": False,
    }
    validate({"n": 3, "tag": "a", "items": [1, 2.5]}, schema)
    with pytest.raises(SchemaError):
        validate({"n": 0}, schema)  # minimum
    with pytest.raises(SchemaError):
        validate({"tag": "a"}, schema)  # required
    with pytest.raises(SchemaError):
        validate({"n": 1, "extra": 1}, schema)  # additionalProperties
    with pytest.raises(SchemaError):
        validate({"n": True}, schema)  # bool is not an integer
    with pytest.raises(SchemaError):
        validate({"n": 1, "tag": "c"}, schema)  # enum


def test_schema_rejects_unknown_keywords():
    with pytest.raises(SchemaError):
        validate(1, {"type": "integer", "multipleOf": 3})


# ---------------------------------------------------------------------------
# metrics registry: every counter lives until reset_profile()
# ---------------------------------------------------------------------------


def test_clear_cache_keeps_counters_until_reset_profile(tmp_path,
                                                         monkeypatch):
    from repro.analysis.extractor import extract_all
    from repro.corpus import cache as disk_cache
    from repro.corpus.loader import clear_cache
    from repro.perf import counters, reset_profile

    def tracked():
        return {name: count for name, count in counters().items()
                if name.startswith(("lattice.intern.", "cache."))}

    monkeypatch.setenv(disk_cache.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.delenv(disk_cache.DISABLE_ENV, raising=False)
    clear_cache()
    reset_profile()
    try:
        extract_all()   # cold: solves, so the lattice is consulted
        before = tracked()
        assert before.get("lattice.intern.hit", 0) > 0
        assert before.get("lattice.intern.miss", 0) > 0
        assert before.get("cache.an.miss", 0) > 0
        clear_cache()
        assert tracked() == before
        reset_profile()
        assert tracked() == {}
    finally:
        clear_cache()


# ---------------------------------------------------------------------------
# extraction under tracing: shape and byte-identity
# ---------------------------------------------------------------------------

#: Span names the extractor emits deterministically — one per analyzed
#: unit of work, independent of memo state.  Cache and solver spans
#: (corpus.compile, taint.solve, cache.disk.*) depend on which worker
#: loses a memo race, so tree tests filter to this set.
_DETERMINISTIC = {"extract.all", "extract.scenario", "extract.function",
                  "extract.bridge"}

#: Attrs that identify a span's work item (jobs/timings excluded).
_SHAPE_ATTRS = ("scenario", "unit", "function", "scenarios")


def _shape(t: tracer.Tracer, span=None):
    """Order-independent canonical form of the deterministic span tree."""
    nodes = t.roots() if span is None else t.children(span)
    out = []
    for node in nodes:
        if node.name not in _DETERMINISTIC:
            continue
        attrs = tuple((k, node.attrs[k]) for k in _SHAPE_ATTRS
                      if k in node.attrs)
        out.append((node.name, attrs, tuple(sorted(_shape(t, node)))))
    return sorted(out)


def _canonical(report):
    lines = []
    for result in report.scenarios:
        lines.append(f"## {result.spec.name}")
        lines.extend(dep.key() for dep in result.dependencies)
    lines.append("## union")
    lines.extend(dep.key() for dep in report.union)
    return "\n".join(lines)


#: Campaign span names whose count and attrs depend only on the campaign
#: (one sharded root, one span per shard, one per snapshot-cache miss).
_CAMPAIGN_SPANS = {"campaign.sharded", "campaign.violate.sharded",
                   "campaign.shard", "campaign.snapshot.build"}


def _campaign_shape(t: tracer.Tracer, span):
    """Canonical form of the campaign spans under ``span`` (the job
    count itself excluded; other spans are looked through)."""
    out = []
    for node in t.children(span):
        if node.name not in _CAMPAIGN_SPANS:
            out.extend(_campaign_shape(t, node))
            continue
        out.append((node.name, sorted((k, v) for k, v in node.attrs.items()
                                      if k != "jobs"),
                    _campaign_shape(t, node)))
    return sorted(out)


def test_span_tree_same_shape_sequential_and_parallel(extraction_report):
    """Shards on process workers (jobs=2) graft the same span tree a
    sequential in-process campaign (jobs=1) records, for a ConBugCk
    campaign and for a ConHandleCk one, whose shards build snapshots."""
    from repro.tools.conbugck import sampled_campaign
    from repro.tools.conhandleck import sampled_check

    deps = extraction_report.true_dependencies()
    campaigns = {
        "campaign.sharded": lambda jobs: sampled_campaign(
            sample="random", budget=30, shards=3, jobs=jobs),
        "campaign.violate.sharded": lambda jobs: sampled_check(
            deps, seed=2022, budget=30, shards=3, jobs=jobs),
    }
    for phase, run in campaigns.items():
        shapes = []
        for jobs in (1, 2):
            t = tracer.Tracer(f"jobs{jobs}")
            with tracer.enabled(t):
                with tracer.span("campaign.run"):
                    run(jobs)
            (root,) = t.roots()
            shapes.append(_campaign_shape(t, root))
        assert shapes[0] == shapes[1], phase
        ((name, _attrs, shards),) = shapes[0]
        assert name == phase
        assert [shard[0] for shard in shards] == ["campaign.shard"] * 3
        builds = [child[0] for shard in shards for child in shard[2]]
        if phase == "campaign.violate.sharded":
            assert builds and set(builds) == {"campaign.snapshot.build"}
        else:
            assert builds == []


def test_parallel_trace_is_single_rooted(tmp_path, capsys):
    """A ``--jobs 2 --trace`` campaign is one rooted tree on disk, the
    pool workers' shard spans grafted under ``campaign.sharded``."""
    from repro.cli import main_conbugck

    trace = str(tmp_path / "run.jsonl")
    assert main_conbugck(["--sample", "random", "--budget", "30",
                          "--shards", "3", "--jobs", "2",
                          "--trace", trace]) == 0
    capsys.readouterr()
    events.validate_events_file(trace)
    _header, spans = events.read_jsonl(trace)
    roots = [e for e in spans if e["parent"] is None]
    assert [e["name"] for e in roots] == ["repro-conbugck"]
    by_id = {e["id"]: e for e in spans}
    shards = [e for e in spans if e["name"] == "campaign.shard"]
    assert len(shards) == 3
    assert {by_id[e["parent"]]["name"] for e in shards} == \
        {"campaign.sharded"}


def test_tracing_does_not_change_the_report(extraction_report):
    from repro.analysis.extractor import extract_all
    from repro.corpus.loader import clear_cache

    clear_cache()
    plain = _canonical(extract_all())

    def traced_run():
        t = tracer.Tracer("check")
        with tracer.enabled(t):
            assert _canonical(extract_all()) == plain
        (root,) = t.roots()
        assert root.name == "extract.all"
        return t, [child.name for child in t.children(root)]

    # A stored report answers with one load under the root.
    _, children = traced_run()
    assert children == ["cache.report.load"]
    # A miss extracts: the tree really is populated with 4 scenarios,
    # and the finished report is stored.  clear_cache() drops the
    # stored report with the memos.
    clear_cache()
    t, children = traced_run()
    shape = _shape(t)
    assert len(shape) == 1
    assert shape[0][0] == "extract.all"
    assert len(shape[0][2]) == 4
    assert children[0] == "cache.report.load"
    assert "cache.report.store" in children


# ---------------------------------------------------------------------------
# event sinks
# ---------------------------------------------------------------------------


def _small_trace():
    t = tracer.Tracer("unit")
    with tracer.enabled(t):
        with tracer.span("outer", n=1):
            with tracer.span("inner", tag="x"):
                pass
    return t


def test_jsonl_round_trip_and_schema(tmp_path):
    t = _small_trace()
    path = str(tmp_path / "trace.jsonl")
    assert events.write_jsonl(t, path) == 2
    assert events.validate_events_file(path) == 2
    header, spans = events.read_jsonl(path)
    assert header["trace"] == "unit"
    assert header["spans"] == 2
    by_name = {e["name"]: e for e in spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["inner"]["attrs"] == {"tag": "x"}
    assert by_name["outer"]["error"] is None


def test_jsonl_validation_catches_corruption(tmp_path):
    t = _small_trace()
    path = str(tmp_path / "trace.jsonl")
    events.write_jsonl(t, path)
    lines = open(path, encoding="utf-8").read().splitlines()
    # Drop the root: the child now references a missing parent.
    bad = [lines[0]] + [l for l in lines[1:]
                        if json.loads(l)["name"] != "outer"]
    (tmp_path / "bad.jsonl").write_text("\n".join(bad) + "\n")
    with pytest.raises(ValueError):
        events.validate_events_file(str(tmp_path / "bad.jsonl"))


def test_chrome_trace_export(tmp_path):
    t = _small_trace()
    path = str(tmp_path / "chrome.json")
    assert events.write_chrome_trace(t, path) == 2
    assert events.validate_chrome_trace_file(path) == 2
    payload = json.load(open(path, encoding="utf-8"))
    xs = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    names = {e["name"] for e in xs}
    assert names == {"outer", "inner"}
    assert all(e["ts"] >= 0 for e in xs)
    metas = [e for e in payload["traceEvents"] if e["ph"] == "M"]
    assert any(e["name"] == "process_name" for e in metas)
    assert any(e["name"] == "thread_name" for e in metas)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def test_report_digest_is_order_independent():
    a = manifest.report_digest(["k1", "k2", "k3"])
    b = manifest.report_digest(["k3", "k1", "k2"])
    assert a == b
    assert a != manifest.report_digest(["k1", "k2"])


def test_manifest_build_write_load(tmp_path):
    m = manifest.build_manifest("repro-extract", wall_seconds=1.5, jobs=2,
                                argv=["--json", "x"],
                                report_keys=["a", "b"], report_summary="2 deps")
    path = str(tmp_path / "run.json")
    manifest.write_manifest(m, path)
    loaded = manifest.load_manifest(path)
    assert loaded["tool"] == "repro-extract"
    assert loaded["report"]["count"] == 2
    assert loaded["report"]["digest"] == manifest.report_digest(["a", "b"])
    assert loaded["engine"] == {}
    assert len(loaded["corpus"]) == 9


def test_manifest_schema_rejects_bad_engine_mode(tmp_path):
    for knob in ("backend", "solver"):  # retired knobs still validate
        m = manifest.build_manifest("t", wall_seconds=0.0)
        m["engine"][knob] = "quantum"
        with pytest.raises(SchemaError):
            manifest.write_manifest(m, str(tmp_path / "bad.json"))


def test_manifest_diff_flags_solver_and_digest():
    a = manifest.build_manifest("t", 1.0, report_keys=["x", "y"])
    b = manifest.build_manifest("t", 2.0, report_keys=["x", "y"])
    b["engine"]["solver"] = "dense"
    diff = manifest.diff_manifests(a, b)
    assert any(line == "engine.solver: sparse -> dense" for line in diff)
    assert not manifest.manifests_equivalent(diff)
    assert "runs differ:" in manifest.render_diff(a, b)

    c = manifest.build_manifest("t", 3.0, report_keys=["y", "x"])
    diff_ac = manifest.diff_manifests(a, c)
    assert manifest.manifests_equivalent(diff_ac)
    assert "runs are equivalent" in manifest.render_diff(a, c)

    d = manifest.build_manifest("t", 1.0, report_keys=["x"])
    assert any(line.startswith("report.digest:")
               for line in manifest.diff_manifests(a, d))


#: The engine section manifests recorded before the solver, lexer,
#: parser, lattice, transport and backend knobs were retired (their
#: defaults).
_RETIRED_DEFAULTS = {"solver": "sparse", "lex": "regex", "parser": "climb",
                     "lattice": "intern", "transport": "shm",
                     "backend": "thread"}


def _write_pair(tmp_path, old_engine):
    new = manifest.build_manifest("t", 1.0, report_keys=["x", "y"])
    old = json.loads(json.dumps(new))
    old["engine"].update(old_engine)
    paths = str(tmp_path / "old.json"), str(tmp_path / "new.json")
    manifest.write_manifest(old, paths[0])
    manifest.write_manifest(new, paths[1])
    return paths


def test_retired_knobs_at_their_survivor_diff_as_equivalent(tmp_path,
                                                            capsys):
    from repro.cli import main_runs

    old, new = _write_pair(tmp_path, _RETIRED_DEFAULTS)
    diff = manifest.diff_manifests(manifest.load_manifest(old),
                                   manifest.load_manifest(new))
    assert not any(line.startswith("engine.") for line in diff)
    assert manifest.manifests_equivalent(diff)
    assert main_runs(["diff", old, new]) == 0
    assert "runs are equivalent" in capsys.readouterr().out


@pytest.mark.parametrize("knob,mode", [
    ("solver", "dense"), ("lex", "scan"), ("parser", "ladder"),
    ("lattice", "plain"), ("transport", "pickle"), ("backend", "process"),
])
def test_retired_knob_on_a_deleted_mode_still_differs(tmp_path, capsys,
                                                      knob, mode):
    from repro.cli import main_runs

    old, new = _write_pair(tmp_path, {**_RETIRED_DEFAULTS, knob: mode})
    survivor = manifest.RETIRED_ENGINE_KNOBS[knob]
    assert main_runs(["diff", old, new]) == 1
    assert f"engine.{knob}: {mode} -> {survivor}" in capsys.readouterr().out


class TestTransportKnobs:
    def test_manifest_records_transport(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRANSPORT", "pickle")  # ignored now
        built = manifest.build_manifest("repro-extract", wall_seconds=0.1)
        assert "transport" not in built["engine"]
        manifest.validate_manifest(built)
        # A manifest written when transport was a knob still loads.
        older = manifest.build_manifest("repro-extract", wall_seconds=0.1)
        older["engine"]["transport"] = "pickle"
        manifest.validate_manifest(older)
        path = tmp_path / "manifest.json"
        manifest.write_manifest(older, str(path))
        assert (manifest.load_manifest(str(path))["engine"]["transport"]
                == "pickle")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def provenance_index(extraction_report):
    from repro.obs.provenance import ProvenanceIndex

    return ProvenanceIndex.build(report=extraction_report)


def test_provenance_names_shared_struct_fields(provenance_index):
    shared = [p for p in provenance_index.known_params()
              if provenance_index.explain(p).shared_fields]
    # The acceptance floor: provenance output names the shared-struct
    # fields for at least five corpus parameters.
    assert len(shared) >= 5
    record = provenance_index.explain("mke2fs.sparse_super2")
    assert "ext2_super_block.s_feature_compat" in record.shared_fields
    assert any(st["struct"] == "ext2_super_block" for st in record.stores)
    assert any(ld["component"] != "mke2fs" for ld in record.loads)


def test_provenance_links_dependencies(provenance_index):
    record = provenance_index.explain("mke2fs.blocksize")
    assert record.entry_points
    assert any("blocksize" in key for key in record.dependencies)
    rendered = record.render()
    assert "provenance for mke2fs.blocksize" in rendered
    assert "enters the analysis at" in rendered


def test_provenance_resolve(provenance_index):
    assert provenance_index.resolve("sparse_super2") == "mke2fs.sparse_super2"
    with pytest.raises(ValueError):
        provenance_index.resolve("definitely_not_a_param")
    # 'size' exists in both resize2fs and e2fsck contexts? if unique it
    # resolves; ambiguity must raise rather than guess.
    known = provenance_index.known_params()
    bare = {}
    for param in known:
        bare.setdefault(param.split(".", 1)[1], []).append(param)
    ambiguous = [n for n, ps in bare.items() if len(ps) > 1]
    if ambiguous:
        with pytest.raises(ValueError):
            provenance_index.resolve(ambiguous[0])


def test_dependency_provenance_records(provenance_index, extraction_report):
    from repro.obs.provenance import dependency_provenance

    dep = next(d for d in extraction_report.union
               if "sparse_super2" in d.key() and "resize2fs" in d.key())
    prov = dependency_provenance(provenance_index, dep)
    assert str(dep.params[0]) in prov
    record = prov["mke2fs.sparse_super2"]
    assert record["shared_fields"] == ["ext2_super_block.s_feature_compat"]
    assert "trace" not in record  # compact by default


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


def test_cli_trace_explain_end_to_end(tmp_path, capsys):
    from repro.cli import main_extract

    trace = str(tmp_path / "run.jsonl")
    chrome = str(tmp_path / "run.json")
    man = str(tmp_path / "manifest.json")
    rc = main_extract(["--trace", trace, "--chrome-trace", chrome,
                       "--manifest", man, "--explain", "sparse_super2"])
    assert rc == 0
    out, err = capsys.readouterr()
    # stdout: the provenance report; stderr: the artifact status lines.
    assert "provenance for mke2fs.sparse_super2" in out
    assert "wrote" not in out
    assert trace in err and chrome in err and man in err

    spans = events.validate_events_file(trace)
    assert spans > 0
    header, span_events = events.read_jsonl(trace)
    roots = [e for e in span_events if e["parent"] is None]
    assert len(roots) == 1 and roots[0]["name"] == "repro-extract"
    assert events.validate_chrome_trace_file(chrome) == spans

    m = manifest.load_manifest(man)
    assert m["tool"] == "repro-extract"
    assert m["jobs"] == 1
    assert m["report"]["count"] == 64


def test_cli_manifest_digest_matches_report(tmp_path, capsys,
                                            extraction_report):
    from repro.cli import main_extract

    man = str(tmp_path / "m.json")
    assert main_extract(["--manifest", man]) == 0
    capsys.readouterr()
    m = manifest.load_manifest(man)
    expected = manifest.report_digest(
        d.key() for d in extraction_report.union)
    assert m["report"]["digest"] == expected
    assert m["report"]["count"] == len(extraction_report.union)


def test_cli_runs_diff(tmp_path, capsys):
    from repro.cli import main_conbugck, main_runs

    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main_conbugck(["--manifest", a]) == 0
    assert main_conbugck(["--manifest", b, "--count", "10"]) == 0
    capsys.readouterr()
    rc = main_runs(["diff", a, b])
    out, _err = capsys.readouterr()
    assert rc == 1
    assert "report.digest:" in out
    # Same run -> equivalent, exit 0.
    assert main_conbugck(["--manifest", b]) == 0
    capsys.readouterr()
    rc = main_runs(["diff", a, b])
    out, _err = capsys.readouterr()
    assert rc == 0
    assert "runs are equivalent" in out


def test_cli_runs_show(tmp_path, capsys):
    from repro.cli import main_extract, main_runs

    man = str(tmp_path / "m.json")
    assert main_extract(["--manifest", man]) == 0
    capsys.readouterr()
    assert main_runs(["show", man]) == 0
    out, _err = capsys.readouterr()
    assert "tool:        repro-extract" in out
    assert "count=64" in out


def test_cli_profile_and_status_go_to_stderr(tmp_path, capsys):
    from repro.cli import main_extract

    path = str(tmp_path / "deps.json")
    assert main_extract(["--profile", "--json", path]) == 0
    out, err = capsys.readouterr()
    assert "Table 5" in out
    assert "pipeline profile" not in out
    assert "pipeline profile" in err
    assert f"wrote 64 dependencies to {path}" in err
    assert "wrote" not in out


def test_cli_provenance_embeds_records(tmp_path, capsys):
    from repro.cli import main_extract

    path = str(tmp_path / "deps.json")
    assert main_extract(["--json", path, "--provenance"]) == 0
    capsys.readouterr()
    payload = json.load(open(path, encoding="utf-8"))
    assert len(payload) == 64
    assert all("provenance" in d for d in payload)
    with_shared = [
        d for d in payload
        if any(not rec.get("unresolved") and rec.get("shared_fields")
               for rec in d["provenance"].values())
    ]
    assert len(with_shared) >= 5
    # The report remains loadable by the plain reader (extra key ignored).
    from repro.analysis.jsonio import load_dependencies

    deps = load_dependencies(path)
    assert len(deps) == 64


def test_cli_json_identical_with_and_without_tracing(tmp_path, capsys):
    from repro.cli import main_extract

    plain = tmp_path / "plain.json"
    traced = tmp_path / "traced.json"
    assert main_extract(["--json", str(plain)]) == 0
    assert main_extract(["--json", str(traced),
                         "--trace", str(tmp_path / "t.jsonl")]) == 0
    capsys.readouterr()
    assert plain.read_bytes() == traced.read_bytes()
