"""The analysis store, its content keys, and the campaign process pool.

- the analysis store: hit/miss/error accounting, corrupt and
  wrong-shape entries deleted (the IR cache too), key sensitivity
  (frontend version, source slice), ``clear_cache(disk=True)``
  coverage, and the classes a stored entry holds all living in code
  the key's code digest covers;
- end-to-end: pinned golden digests of the extraction, process-worker
  campaigns (``--jobs 2``) giving the same CLI output as sequential
  ones (``--jobs 1``), a process-worker trace staying one rooted tree,
  a one-function edit re-analyzing exactly one function (content keys
  are the only invalidation) and matching a cold run, frontend version
  bumps forcing full recompute, corrupted store entries degrading to
  recompute instead of wrong results;
- the campaign process pool: the environment signature it is keyed by,
  ordered results, configuration keying, and a killed worker failing
  loudly.
"""

import os
import pickle
import shutil
import signal
import threading
import time
from hashlib import sha256

import pytest

from repro import store
from repro.perf import procpool
from repro.perf.procpool import ProcessPoolError
from repro.store import PACKAGE_SUFFIXES
from tests import store_rows as rows


def _canonical(report) -> str:
    """Byte-stable serialization of a full extraction report."""
    lines = []
    for result in report.scenarios:
        lines.append(f"## {result.spec.name}")
        lines.extend(dep.key() for dep in result.dependencies)
    lines.append("## union")
    lines.extend(dep.key() for dep in report.union)
    return "\n".join(lines)


def extraction_digest() -> str:
    """sha256 of this process's canonical extraction report."""
    from repro.analysis.extractor import extract_all

    return sha256(_canonical(extract_all()).encode()).hexdigest()


def extraction_digests(jobs: int):
    """The extraction digest in this process (``jobs=1``), or on each
    of ``jobs`` campaign pool workers — where sharded violation
    campaigns re-extract their dependency list."""
    if jobs <= 1:
        return [extraction_digest()]
    return procpool.run_ordered(jobs, extraction_digest, [()] * jobs)


def _summary():
    """A small function summary, the analysis store's entry type."""
    from repro.analysis.constraints import FunctionFindings
    from repro.analysis.extractor import FunctionSummary

    return FunctionSummary(3, (), FunctionFindings("fn", [], []))


@pytest.fixture
def isolated_store(tmp_path, monkeypatch):
    """A private disk cache + clean memos/stats for store-level tests."""
    from repro.corpus import cache as disk
    from repro.corpus.loader import clear_cache

    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    clear_cache()
    disk.reset_cache_stats()
    yield str(cache_dir)
    clear_cache()
    disk.reset_cache_stats()


# ---------------------------------------------------------------------------
# engine modes: none left, and asking for one is loud
# ---------------------------------------------------------------------------


class TestModes:
    """Every stage has one engine and shards run in-process or on
    ``--jobs`` process workers; what is left of the mode registry is
    the ``REPRO_*`` signature the campaign pool is keyed by."""

    def test_unknown_mode_is_loud(self, capsys):
        from repro.cli import main_conbugck
        from repro.serve.worker import RequestError, validate_request

        # The retired backend knob is no knob at all, not a silent
        # default: the flag is an argparse error, the param a 400.
        for mode in ("thread", "process", "fork"):
            with pytest.raises(SystemExit) as exc:
                main_conbugck(["--sample", "random", "--backend", mode])
            assert exc.value.code == 2
            assert "--backend" in capsys.readouterr().err
            with pytest.raises(RequestError, match="does not accept"):
                validate_request("conbugck", {"sample": "random",
                                              "backend": mode})

    def test_env_signature_tracks_repro_vars_only(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        before = procpool.env_signature()
        monkeypatch.setenv("HOME_NOT_REPRO", "x")
        assert procpool.env_signature() == before
        monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
        after = procpool.env_signature()
        assert after != before
        assert ("REPRO_CACHE_DIR", "/elsewhere") in after


# ---------------------------------------------------------------------------
# analysis store
# ---------------------------------------------------------------------------


class TestAnalysisStore:
    def test_store_then_load_roundtrip(self, isolated_store):
        from repro.analysis.extractor import FunctionSummary
        from repro.corpus import cache as disk

        key = "a" * 64
        assert disk.store_analysis(key, _summary())
        assert disk.load_analysis(key, FunctionSummary) == _summary()
        stats = disk.analysis_stats()
        assert (stats.hits, stats.misses, stats.stores, stats.errors) == \
            (1, 0, 1, 0)

    def test_absent_entry_is_a_miss(self, isolated_store):
        from repro.analysis.extractor import FunctionSummary
        from repro.corpus import cache as disk

        assert disk.load_analysis("b" * 64, FunctionSummary) is None
        assert disk.analysis_stats().misses == 1
        assert disk.analysis_stats().errors == 0

    @pytest.mark.parametrize("garbage", [
        pytest.param(b"", id="empty"),
        pytest.param(b"not a pickle", id="not-a-pickle"),
        pytest.param(None, id="truncated"),  # filled in below
    ])
    def test_corrupt_entry_recovers_as_miss(self, isolated_store, garbage):
        from repro.analysis.extractor import FunctionSummary
        from repro.corpus import cache as disk

        key = "c" * 64
        assert disk.store_analysis(key, _summary())
        if garbage is None:
            garbage = rows.blobs()[key][:-3]
        rows.put(key, garbage)
        assert disk.load_analysis(key, FunctionSummary) is None
        assert disk.analysis_stats().errors == 1
        # The poisoned row is gone, so the next lookup is a clean miss.
        assert key not in rows.blobs()
        assert disk.load_analysis(key, FunctionSummary) is None
        assert disk.analysis_stats().misses == 1

    def test_wrong_shape_entry_is_an_error(self, isolated_store):
        """An entry that unpickles to the wrong shape is an error and is
        deleted, in the IR cache (a unit index row: definition lines and
        slice hashes over the same functions, and summaries of those
        functions) and the analysis store alike, so it does not error
        again on every lookup."""
        from repro.analysis.extractor import FunctionSummary
        from repro.corpus import cache as disk

        key = "d" * 64
        analysis = ("an", lambda: disk.load_analysis(key, FunctionSummary),
                    disk.analysis_stats)
        entry = ("disk", lambda: disk.load_index(key, FunctionSummary),
                 disk.cache_stats)
        summary = FunctionSummary(1, (), None)
        cases = [(value, load)
                 for value in [("not", "a", "pair"), {"not": "a summary"},
                               ({"fn": "1"}, {"fn": "ab"}, {}),
                               ({"fn": 1}, {"other": "ab"}, {}),
                               ({"fn": 1}, {"fn": "ab"},
                                {("fn", "fp", "c"): "not a summary"}),
                               ({"fn": 1}, {"fn": "ab"},
                                {("other", "fp", "c"): summary}),
                               # retired layouts: the index alone, and
                               # the index beside module bytes
                               ({"fn": 1}, {"fn": "ab"}),
                               ({"fn": 1}, pickle.dumps(["a", "module"]))]
                 for load in (analysis, entry)]
        for value, (kind, load, stats) in cases:
            disk.reset_cache_stats()
            rows.put_value(key, value, kind)
            assert load() is None
            assert (stats().errors, stats().misses) == (1, 0)
            assert key not in rows.blobs()
            assert load() is None
            assert (stats().errors, stats().misses) == (1, 1)

    def test_stored_classes_live_in_digested_code(self, isolated_store):
        """Pickle names each stored object's class and rebuilds it from
        that class's current definition, so a class edit must move the
        keys: every class reachable from a stored IR module, analysis
        pair or report is defined in code the package digest covers."""
        import io
        import sys

        from repro.analysis.extractor import extract_all
        from repro.corpus import cache as disk

        seen = set()

        class Recorder(pickle.Pickler):
            # Called for every object except None, bools and exact
            # ints, floats, strings, bytes and builtin containers; a
            # class stored as a value is pickled by name as well.
            def reducer_override(self, obj):
                seen.add(obj if isinstance(obj, type) else type(obj))
                return NotImplemented

        extract_all()
        for kind in ("disk", "an", "report"):
            assert rows.blobs(kind)
        for blob in rows.blobs().values():
            Recorder(io.BytesIO()).dump(pickle.loads(blob))
        package = os.path.dirname(sys.modules["repro"].__file__)

        def covered(cls) -> bool:
            # A file of the package that the package digest hashes.
            path = os.path.relpath(sys.modules[cls.__module__].__file__,
                                   package)
            return (not path.startswith(os.pardir)
                    and "__pycache__" not in path.split(os.sep)
                    and path.endswith(PACKAGE_SUFFIXES))

        names = {cls.__name__ for cls in seen}
        assert {"FunctionSummary", "FieldStore", "FunctionFindings",
                "ExtractionReport"} <= names
        assert sorted(cls.__qualname__ for cls in seen
                      if not covered(cls)) == []
        # Taint states, IR modules and the IR instructions they hold
        # are never stored: a summary holds what extraction reads, and
        # a unit index its function lines and slice hashes.
        assert not names & {"TaintState", "FieldWrite", "Module",
                            "Function"}

    def test_analysis_key_sensitivity(self, isolated_store, monkeypatch):
        from repro.corpus import cache as disk

        base = dict(filename="mount.c", function="parse_opts",
                    slice_hash="s1", sources_fp="f1", component="mount")
        key = disk.analysis_key(**base)
        assert disk.analysis_key(**base) == key  # deterministic
        for field, value in [("slice_hash", "s2"),
                             ("function", "other"), ("filename", "e2fsck.c"),
                             ("sources_fp", "f2"), ("component", "fsck")]:
            assert disk.analysis_key(**{**base, field: value}) != key
        # A frontend version bump rotates every key: old entries become
        # unreachable rather than mis-served.
        monkeypatch.setattr(disk, "FRONTEND_VERSION",
                            disk.FRONTEND_VERSION + "-bumped")
        bumped = disk.analysis_key(**base)
        assert bumped != key
        # So does an edit to the analyzer's code, and code that cannot
        # be read leaves the function unkeyed (the store is skipped).
        monkeypatch.setattr(store, "_PACKAGE_DIGEST", "0" * 64)
        assert disk.analysis_key(**base) not in (key, bumped)
        monkeypatch.setattr(disk, "package_digest", lambda: "")
        assert disk.analysis_key(**base) == ""

    def test_function_slices_localize_edits(self, isolated_store):
        from repro.corpus import cache as disk
        from repro.lang import compile_c

        source = ("#define N 8\n"
                  "int first(void) { return N; }\n"
                  "int second(void) { return 2; }\n")

        def slices(text):
            return disk.function_slices(compile_c(text, bodies=False))

        before = slices(source)
        assert set(before) == {"first", "second"}
        # Editing one function's body changes only that slice…
        edited = source.replace("return 2", "return 3")
        after = slices(edited)
        assert after["first"] == before["first"]
        assert after["second"] != before["second"]
        # …moving a body, or a comment or blank line between two
        # functions, leaves a slice alone…
        moved = source.replace("return N;", "\n  return N;")
        assert slices(moved)["second"] == before["second"]
        between = source.replace("int second", "\n/* doc */\nint second")
        assert slices(between) == before
        # …but a line moving inside a function (its reported lines are
        # relative to its definition line) changes that slice only.
        header = source.replace("int second(void) {",
                                "int second(void)\n{")
        assert slices(header)["first"] == before["first"]
        assert slices(header)["second"] != before["second"]
        # …while editing the shared context changes every slice, be it
        # a macro (wherever it is defined) or a declaration between
        # two functions.
        for context in (source.replace("#define N 8", "#define N 9"),
                        source.replace("return 2;",
                                       "\n#define M 1\nreturn 2;"),
                        source.replace("int second",
                                       "int late;\nint second")):
            shifted = slices(context)
            assert shifted["first"] != before["first"]
            assert shifted["second"] != before["second"]

    def test_clear_cache_disk_wipes_store_and_graph(self, isolated_store):
        """``clear_cache(disk=True)`` empties every store: IR modules,
        analysis entries and reports."""
        from repro.analysis.extractor import extract_all
        from repro.corpus import cache as disk
        from repro.corpus.loader import clear_cache

        extract_all()
        assert all(rows.blobs(kind) for kind in ("disk", "an", "report"))
        # Entries of the retired file-per-entry layouts go too.
        os.makedirs(os.path.join(disk.cache_dir(), "reports"))
        for name in ("e" * 64 + ".an.bin", "e" * 64 + ".an.pkl",
                     "e" * 64 + ".ir.pkl",
                     os.path.join("reports", "e" * 64 + ".report.pkl")):
            with open(os.path.join(disk.cache_dir(), name), "wb") as handle:
                handle.write(b"RAC1")
        clear_cache(disk=True)
        assert os.listdir(disk.cache_dir()) == []


# ---------------------------------------------------------------------------
# end-to-end: backends and incremental correctness
# ---------------------------------------------------------------------------


class TestPinnedExtraction:
    """sha256 of the default extraction outputs, recorded before the
    extraction process backend was deleted: extraction must keep
    producing exactly these bytes, in-process and in every campaign
    pool worker."""

    REPORT = ("2ad09294a76928cde8948068f6c53018"
              "316fb3c0fd18c9c4874460c7dcbf1265")
    STDOUT = ("c354627cdce6765fc4259b1d1c1acdb4"
              "8b7119d13e04c7877d0dcb9d6233ae1c")

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_report_digest(self, jobs):
        assert extraction_digests(jobs) == [self.REPORT] * jobs

    def test_default_stdout_digest(self, capsys):
        from repro.cli import main_extract

        assert main_extract([]) == 0
        out = capsys.readouterr().out
        assert sha256(out.encode()).hexdigest() == self.STDOUT


class TestBackendsEndToEnd:
    def test_process_backend_matches_thread(self, capsys):
        """Process workers (``--jobs 2``) print what the sequential
        in-process run (``--jobs 1``) prints."""
        from repro.cli import main_conbugck, main_conhandleck

        def run(main, jobs):
            rc = main(["--sample", "random", "--budget", "120",
                       "--shards", "3", "--jobs", jobs])
            return rc, capsys.readouterr().out

        for main in (main_conbugck, main_conhandleck):
            sequential = run(main, "1")
            assert sequential[1]
            assert run(main, "2") == sequential

    def test_process_backend_trace_is_one_rooted_tree(self):
        from repro.obs import tracer
        from repro.tools.conbugck import sampled_campaign

        run = tracer.Tracer("test")
        with tracer.enabled(run):
            with run.span("campaign.run", {}):
                sampled_campaign(sample="random", budget=40, shards=3,
                                 jobs=2)
        roots = run.roots()
        assert [r.name for r in roots] == ["campaign.run"]
        # Worker-side shard spans grafted in, parented under the root.
        shards = [s for s in run.spans if s.name == "campaign.shard"]
        assert len(shards) == 3
        root_id = roots[0].span_id
        by_id = {s.span_id: s for s in run.spans}
        for span in run.spans:
            walk = span
            while walk.parent_id is not None:
                walk = by_id[walk.parent_id]
            assert walk.span_id == root_id

    def test_incremental_after_single_file_edit(self, isolated_store,
                                                tmp_path, monkeypatch):
        from repro.analysis.extractor import extract_all
        from repro.corpus import cache as disk
        from repro.corpus.loader import CORPUS_DIR_ENV, clear_cache

        corpus_src = os.path.join(
            os.path.dirname(__file__), os.pardir, "src", "repro", "corpus")
        corpus_tmp = tmp_path / "corpus"
        corpus_tmp.mkdir()
        for name in os.listdir(corpus_src):
            if name.endswith(".c"):
                shutil.copy(os.path.join(corpus_src, name),
                            corpus_tmp / name)
        monkeypatch.setenv(CORPUS_DIR_ENV, str(corpus_tmp))
        clear_cache()

        # analysis_stats() returns the live counter object, which
        # reset_cache_stats() zeroes in place — snapshot what we assert
        # against later.
        def stats_snapshot():
            live = disk.analysis_stats()
            return (live.hits, live.misses, live.stores, live.errors)

        # Cold run populates the store; nothing to hit yet.
        disk.reset_cache_stats()
        extract_all()
        cold_hits, cold_misses, cold_stores, _ = stats_snapshot()
        assert cold_hits == 0
        assert cold_stores == cold_misses > 0

        # Warm, untouched corpus: the stored report answers first...
        disk.reset_cache_stats()
        untouched = _canonical(extract_all())
        assert disk.report_stats().hits == 1
        assert stats_snapshot() == (0, 0, 0, 0)
        untouched_report = rows.keys("report")
        # ...and underneath it everything is served from the store
        # (clear_cache() drops the stored report with the memos).
        clear_cache()
        disk.reset_cache_stats()
        assert _canonical(extract_all()) == untouched
        warm_hits, warm_misses, _, _ = stats_snapshot()
        assert warm_misses == 0 and warm_hits == cold_stores

        # Each edit below touches one function: exactly that function
        # is re-analyzed, every other one is served from the store, and
        # the report matches a from-scratch extraction of the edited
        # corpus.
        assert cold_stores == 16

        def edit_and_extract(name, edit):
            path = corpus_tmp / name
            text = path.read_text(encoding="utf-8")
            path.write_text(edit(text), encoding="utf-8")
            clear_cache()
            disk.reset_cache_stats()
            incremental = _canonical(extract_all())
            # The edit changed the unit's bytes, so the report key moved.
            assert (disk.report_stats().hits,
                    disk.report_stats().misses) == (0, 1)
            edited_hits, edited_misses, _, _ = stats_snapshot()
            assert (edited_misses, edited_hits) == (1, cold_stores - 1)
            clear_cache(disk=True)
            assert incremental == _canonical(extract_all())
            return incremental

        # A comment closing the unit's last function body lands in that
        # function's slice and changes no semantics, so outputs match
        # the untouched run.  (Text outside every body is the context
        # of all of the unit's slices; tests/test_reextraction.py
        # covers edits there.)
        def close_last_body(text):
            end = text.rindex("}")
            return text[:end] + "    /* incremental edit */\n" + text[end:]

        assert edit_and_extract("mount.c", close_last_body) == untouched
        assert rows.keys("report") not in ([], untouched_report)
        # A body edit of a function whose struct.field traffic other
        # units read through the metadata bridge: the readers' stored
        # states still hit, and the bridge joins them with the new one.
        anchor = "int write_superblock(void)\n{"
        edit_and_extract("mke2fs.c", lambda text: text.replace(
            anchor, anchor + "\n    int incremental_dead = 1;", 1))

    def test_frontend_version_bump_forces_recompute(self, isolated_store,
                                                    monkeypatch):
        from repro.analysis.extractor import extract_all
        from repro.corpus import cache as disk
        from repro.corpus.loader import clear_cache

        baseline = _canonical(extract_all())
        assert disk.analysis_stats().stores > 0
        baseline_report = rows.keys("report")
        monkeypatch.setattr(disk, "FRONTEND_VERSION",
                            disk.FRONTEND_VERSION + "-bumped")
        clear_cache()
        disk.reset_cache_stats()
        bumped = _canonical(extract_all())
        stats = disk.analysis_stats()
        assert stats.hits == 0 and stats.misses > 0
        assert bumped == baseline
        # The report key covers the frontend version too: the bumped
        # run stored its report under a new key.
        assert (disk.report_stats().hits, disk.report_stats().misses) == (0, 1)
        assert rows.keys("report") not in ([], baseline_report)

    def test_corrupted_store_degrades_to_recompute(self, isolated_store):
        from repro.analysis.extractor import extract_all
        from repro.corpus import cache as disk
        from repro.corpus.loader import clear_cache

        baseline = _canonical(extract_all())
        entries = rows.keys("an")
        assert entries
        for key in entries:
            rows.put(key, b"\x00 corrupted \xff")
        # clear_cache() also drops the intact stored report, and the
        # index rows go too: either would otherwise answer without
        # reading the corrupted entries.
        rows.drop("disk")
        clear_cache()
        disk.reset_cache_stats()
        recovered = _canonical(extract_all())
        stats = disk.analysis_stats()
        assert stats.errors == len(entries)
        assert stats.hits == 0 and stats.stores == len(entries)
        assert recovered == baseline
        reports = disk.report_stats()
        assert (reports.hits, reports.misses, reports.stores) == (0, 1, 1)


# ---------------------------------------------------------------------------
# the campaign process pool
# ---------------------------------------------------------------------------


class TestProcessPool:
    def test_run_ordered_merges_in_call_order(self):
        calls = [(n, 3) for n in range(9)]
        assert procpool.run_ordered(2, divmod, calls) == \
            [divmod(n, d) for n, d in calls]

    def test_worker_errors_propagate_and_pool_survives(self):
        pool = procpool.get_pool(2)
        with pytest.raises(ZeroDivisionError):
            procpool.run_ordered(2, divmod, [(7, 2), (1, 0)])
        assert procpool.run_ordered(2, divmod, [(7, 2)]) == [(3, 1)]
        assert procpool.get_pool(2) is pool

    def test_pool_is_keyed_by_configuration(self, monkeypatch):
        pool = procpool.get_pool(2)
        assert procpool.get_pool(2) is pool
        monkeypatch.setenv("REPRO_SOLVER", "dense")
        fresh = procpool.get_pool(2)
        assert fresh is not pool
        with pytest.raises(RuntimeError):  # stale configuration retired
            pool.submit(divmod, 1, 1)
        monkeypatch.delenv("REPRO_SOLVER")
        assert procpool.get_pool(2) is not fresh

    def test_killed_worker_fails_the_campaign_loudly(self):
        from repro.perf import counters
        from repro.tools.conbugck import sampled_campaign

        procpool.shutdown_pools()
        pool = procpool.get_pool(2)
        procpool.run_ordered(2, divmod, [(1, 1), (2, 1)])  # spawn workers
        outcome = {}

        def campaign():
            try:
                outcome["report"] = sampled_campaign(
                    sample="random", budget=3000, shards=8, jobs=2)
            except ProcessPoolError as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=campaign)
        thread.start()
        deadline = time.monotonic() + 30
        while not pool._pending_work_items:  # wait for shards in flight
            assert time.monotonic() < deadline
            time.sleep(0.005)
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        thread.join(120)
        # One named error, never a partial report.
        assert set(outcome) == {"error"}
        created = counters().get("procpool.created", 0)
        report, _ = sampled_campaign(sample="random", budget=40, shards=2,
                                     jobs=2)
        assert counters()["procpool.created"] == created + 1
        assert report.total == 40
