"""The report store: one stored extraction report per content key.

A warm ``extract_all`` reads the finished report back whole; anything
that could change the report (corpus bytes, the frontend version,
the analyzer's own code, the scenario set, the extractor class) must
miss it, and a recomputed report must equal the stored one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import pytest

from repro.analysis.extractor import (
    SCENARIOS,
    XFS_SCENARIO,
    ExtractionReport,
    Extractor,
    extract_all,
)
from repro import store as repro_store
from repro.corpus import cache as disk
from repro.corpus.loader import CORPUS_DIR_ENV, clear_cache
from tests import store_rows as rows

CORPUS_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                          "repro", "corpus")


def _canonical(report) -> str:
    """Every scenario's and the union's dependency keys plus evidence."""
    lines = []
    for result in report.scenarios:
        lines.append(f"## {result.spec.name}")
        lines.extend(f"{dep.key()} {dep.evidence}"
                     for dep in result.dependencies)
    lines.append("## union")
    lines.extend(f"{dep.key()} {dep.evidence}" for dep in report.union)
    return "\n".join(lines)


def _entries(kind: str = "report"):
    """The keys of the store's rows of ``kind``."""
    return rows.keys(kind)


def _tallies():
    live = disk.report_stats()
    return live.hits, live.misses, live.stores, live.errors


def _new_process():
    """What a new process over the same disk starts from: nothing in
    memory, zeroed tallies, and every store as this process left it.
    ``clear_cache()`` drops the stored reports too, so they are put
    back.  The command store's entries are dropped: this file checks
    what a command's own code prints over a stored report, which an
    entry would answer instead."""
    repro_store.clear_commands()
    kept = rows.blobs("report")
    clear_cache()
    for key, blob in kept.items():
        rows.put(key, blob, "report")
    disk.reset_cache_stats()


def _fresh_run(extractor=None):
    """One extraction in a new process over the same disk."""
    _new_process()
    return (extractor or Extractor()).extract_all()


@pytest.fixture
def store(tmp_path, monkeypatch):
    """A private cache directory holding the default report."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    clear_cache()
    disk.reset_cache_stats()
    baseline = _canonical(extract_all())
    assert _tallies() == (0, 1, 1, 0)
    assert len(_entries()) == 1
    yield baseline
    clear_cache()
    disk.reset_cache_stats()


class TestHit:
    def test_hit_reads_nothing_underneath(self, store):
        report = _fresh_run()
        assert _canonical(report) == store
        assert _tallies() == (1, 0, 0, 0)
        assert disk.cache_stats().hits + disk.cache_stats().misses == 0
        assert disk.analysis_stats().hits + disk.analysis_stats().misses == 0
        assert isinstance(report, ExtractionReport)
        assert [result.spec for result in report.scenarios] == list(SCENARIOS)
        assert (report.total_extracted, report.total_false_positives) == (64, 5)


class TestMiss:
    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty",
                                        "foreign"])
    def test_damaged_entry_is_a_deleted_miss(self, store, damage):
        (name,) = _entries()
        blob = rows.blobs()[name]
        damaged = {
            "truncated": blob[:len(blob) // 2],
            "garbage": b"\x00 not a pickle \xff",
            "empty": b"",
            "foreign": __import__("pickle").dumps({"not": "a report"}),
        }[damage]
        rows.put(name, damaged, "report")
        _new_process()
        assert disk.load_report(name, ExtractionReport) is None
        assert _tallies() == (0, 0, 0, 1)
        assert _entries() == []  # the damaged row was deleted
        # The next run recomputes the same report and stores it again.
        assert _canonical(_fresh_run()) == store
        assert _tallies() == (0, 1, 1, 0)
        assert _entries() == [name]

    @pytest.mark.parametrize("version", ["FRONTEND_VERSION"])
    def test_version_bump_misses(self, store, monkeypatch, version):
        monkeypatch.setattr(disk, version, f"{getattr(disk, version)}-bumped")
        assert _canonical(_fresh_run()) == store
        assert _tallies() == (0, 1, 1, 0)
        assert len(_entries()) == 2

    def test_code_digest_change_misses(self, store, monkeypatch):
        monkeypatch.setattr(repro_store, "_PACKAGE_DIGEST", "0" * 64)
        assert _canonical(_fresh_run()) == store
        assert _tallies() == (0, 1, 1, 0)
        # The analysis store and the IR cache are keyed on the code too:
        # an edited analyzer or frontend recomputes everything.
        analysis, modules = disk.analysis_stats(), disk.cache_stats()
        assert (analysis.hits, modules.hits) == (0, 0)
        assert analysis.misses > 0 and modules.misses > 0

    def test_code_digest_is_computed_once(self, store):
        digest = disk.package_digest()
        assert len(digest) == 64
        assert disk.package_digest() is digest  # memoized, not re-hashed

    def test_one_byte_corpus_edit_misses(self, store, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in os.listdir(CORPUS_SRC):
            if name.endswith(".c"):
                shutil.copy(os.path.join(CORPUS_SRC, name), corpus / name)
        monkeypatch.setenv(CORPUS_DIR_ENV, str(corpus))
        # The copy has the same bytes: same key, served.
        assert _canonical(_fresh_run()) == store
        assert _tallies()[0] == 1
        with open(corpus / "e2fsck.c", "a", encoding="utf-8") as handle:
            handle.write("\n")
        edited = _canonical(_fresh_run())
        assert _tallies() == (0, 1, 1, 0)
        # A trailing newline changes nothing the analysis sees, and a
        # cold run of the edited corpus agrees.
        assert edited == store
        clear_cache(disk=True)
        assert _canonical(extract_all()) == edited

    def test_other_scenarios_and_extractors_miss(self, store):
        xfs = _fresh_run(Extractor([XFS_SCENARIO]))
        assert _tallies() == (0, 1, 1, 0)
        assert [r.spec for r in xfs.scenarios] == [XFS_SCENARIO]

        class Subclassed(Extractor):
            pass

        assert _canonical(_fresh_run(Subclassed())) == store
        assert _tallies() == (0, 1, 1, 0)

    def test_interprocedural_never_reads_the_store(self, store):
        from repro.analysis.interproc import InterproceduralExtractor

        interproc = _fresh_run(InterproceduralExtractor())
        assert _tallies() == (0, 0, 0, 0)
        assert _canonical(interproc) != store
        assert interproc.total_extracted > 64


class TestNoWrites:
    def test_disabled_disk_cache_writes_no_entry(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        report = _fresh_run()
        assert report.total_extracted == 64
        assert _tallies() == (0, 0, 0, 0)
        assert not os.path.exists(tmp_path / "cache")
        clear_cache()

    def test_unreadable_code_writes_no_entry(self, tmp_path, monkeypatch):
        # Without a code digest no key can cover the code, so every
        # store is skipped rather than keyed on content alone.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
        monkeypatch.setattr(disk, "package_digest", lambda: "")
        report = _fresh_run()
        assert report.total_extracted == 64
        for stats in (disk.report_stats(), disk.analysis_stats(),
                      disk.cache_stats()):
            assert (stats.hits, stats.misses, stats.stores) == (0, 0, 0)
        assert not os.path.exists(tmp_path / "cache")
        clear_cache()

    def test_unwritable_store_degrades_to_no_entry(self, store,
                                                   monkeypatch):
        execute = disk._execute

        def refuse(sql, params=(), create=False):
            if sql.startswith("INSERT"):
                raise PermissionError(disk.cache_dir())
            return execute(sql, params, create)

        disk.clear_reports()
        monkeypatch.setattr(disk, "_execute", refuse)
        assert _canonical(_fresh_run()) == store
        assert _tallies() == (0, 1, 0, 1)
        assert _entries() == []


class TestClearing:
    def test_clear_disk_cache_removes_reports_and_temp_files(self, store):
        # The file-per-entry layout this store replaced left entries,
        # a report directory, and the temp files of killed writers.
        reports = os.path.join(disk.cache_dir(), "reports")
        os.makedirs(reports)
        leftovers = [os.path.join(disk.cache_dir(), ".tmp-killed-writer"),
                     os.path.join(disk.cache_dir(), ".tmp-abc123.pkl"),
                     os.path.join(disk.cache_dir(), "a" * 64 + ".ir.pkl"),
                     os.path.join(reports, ".tmp-report"),
                     os.path.join(reports, "b" * 64 + ".report.pkl")]
        for path in leftovers:
            with open(path, "wb") as handle:
                handle.write(b"partial")
        assert len(_entries()) == 1
        disk.clear_disk_cache()
        assert os.listdir(disk.cache_dir()) == []
        # A load after the clear is a miss and creates no database.
        assert disk.load_report("c" * 64, ExtractionReport) is None
        assert os.listdir(disk.cache_dir()) == []

    def test_clear_reports_keeps_the_other_stores(self, store):
        assert disk.clear_reports() == 1
        assert _entries() == []
        assert _entries("disk") and _entries("an")

    def test_clear_cache_drops_reports_so_the_stores_answer(self, store):
        # In-process, clear_cache() means "assemble the next extraction
        # from the IR cache and the analysis store"; benchmarks time
        # those layers that way, and a report left behind would answer.
        clear_cache()
        assert _entries() == []
        assert _entries("disk") and _entries("an")
        disk.reset_cache_stats()
        assert _canonical(extract_all()) == store
        assert _tallies() == (0, 1, 1, 0)
        assert disk.cache_stats().hits == 7
        assert disk.cache_stats().misses == 0
        analysis = disk.analysis_stats()
        assert analysis.hits > 0 and analysis.misses == 0

    def test_cold_flag_misses_the_report(self, store):
        from repro.cli import main_extract

        disk.reset_cache_stats()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main_extract(["--cold"]) == 0
        assert _tallies() == (0, 1, 1, 0)
        assert disk.cache_stats().hits == 0


class TestCliOnAHit:
    """``--explain`` and ``--provenance`` re-derive what they print from
    the analyses, so a stored report must not change their output."""

    @staticmethod
    def _run(argv):
        from repro.cli import main_extract

        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main_extract(argv) == 0
        return out.getvalue()

    def test_explain_unchanged(self, store):
        argv = ["--explain", "sparse_super2", "--explain", "mount.dax"]
        clear_cache(disk=True)
        cold = self._run(argv)
        _new_process()
        warm = self._run(argv)
        assert _tallies()[0] == 1
        assert warm == cold and "provenance for" in warm

    def test_provenance_json_unchanged(self, store, tmp_path):
        def dump(name):
            path = str(tmp_path / name)
            self._run(["--json", path, "--provenance"])
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)

        clear_cache(disk=True)
        cold = dump("cold.json")
        _new_process()
        warm = dump("warm.json")
        assert _tallies()[0] == 1
        assert warm == cold and len(warm) == 64
        assert all("provenance" in entry for entry in warm)
