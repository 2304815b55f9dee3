"""Correctness of the pipeline acceleration layer.

The contract under test: no observable behaviour may depend on cache
state or on the process that computes it.  Cold, disk-warm, and
memo-warm runs produce identical extractions; editing a corpus source
invalidates its disk entry; extractions on ``jobs`` campaign pool
workers (fresh processes sharing one cold disk cache) are
byte-identical to the in-process one.
"""

import os
import shutil

import pytest

from repro.analysis import extractor as extractor_mod
from repro.analysis import taint as taint_mod
from repro.analysis.extractor import (Extractor, FunctionSummary,
                                      ScenarioSpec, extract_all)
from repro.corpus import cache as disk_cache
from repro.corpus.loader import clear_cache, corpus_path, load_corpus, load_unit
from repro.perf import procpool
from tests import store_rows as rows


@pytest.fixture
def ir_cache_dir(tmp_path, monkeypatch):
    """A private disk-cache dir; memory + memo caches start empty."""
    monkeypatch.setenv(disk_cache.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.delenv(disk_cache.DISABLE_ENV, raising=False)
    disk_cache.reset_cache_stats()
    clear_cache()
    yield tmp_path
    clear_cache()
    disk_cache.reset_cache_stats()


#: One unit's scenario: its extraction writes that unit's index row.
MOUNT_ONLY = ScenarioSpec("mount", ("mount",),
                          (("mount.c", ("parse_mount_options",)),))
MKE2FS_ONLY = ScenarioSpec("mke2fs", ("mke2fs",),
                           (("mke2fs.c", ("check_feature_conflicts",)),))


def _canonical(report):
    lines = []
    for result in report.scenarios:
        lines.append(f"## {result.spec.name}")
        lines.extend(dep.key() for dep in result.dependencies)
    lines.append("## union")
    lines.extend(dep.key() for dep in report.union)
    return "\n".join(lines)


def _canonical_extraction():
    return _canonical(extract_all())


def _interproc_keys():
    from repro.analysis.interproc import extract_interprocedural

    return [d.key() for d in extract_interprocedural().union]


class TestDiskCache:
    def test_store_load_roundtrip(self, ir_cache_dir):
        unit = load_unit("mke2fs.c", use_cache=False)
        key = disk_cache.module_key(unit.source, "mke2fs.c")
        summaries = {("write_superblock", "f" * 64, "mke2fs"):
                     FunctionSummary(unit.lines["write_superblock"], (), None)}
        assert disk_cache.store_index(key, unit.lines, unit.slices, summaries)
        entry = disk_cache.load_index(key, FunctionSummary)
        assert entry is not None
        lines, slices, stored = entry
        assert lines == {name: func.line
                         for name, func in unit.module.functions.items()}
        assert list(lines) == list(unit.module.functions)
        assert slices == unit.slices and set(slices) == set(lines)
        assert stored == summaries
        # Summaries of another class are an error, and the row goes.
        assert disk_cache.load_index(key, str) is None
        assert disk_cache.cache_stats().errors == 1
        assert rows.keys() == []

    def test_miss_on_unknown_key(self, ir_cache_dir):
        assert disk_cache.load_index("0" * 64, FunctionSummary) is None
        assert disk_cache.cache_stats().misses == 1

    def test_key_depends_on_source_and_filename(self):
        assert (disk_cache.module_key("int x;", "a.c")
                != disk_cache.module_key("int y;", "a.c"))
        assert (disk_cache.module_key("int x;", "a.c")
                != disk_cache.module_key("int x;", "b.c"))

    def test_corrupt_entry_is_a_miss_and_removed(self, ir_cache_dir):
        key = "f" * 64
        rows.put(key, b"not a pickle", "disk")
        assert disk_cache.load_index(key, FunctionSummary) is None
        assert disk_cache.cache_stats().errors == 1
        assert rows.keys() == []

    def test_disable_env(self, ir_cache_dir, monkeypatch):
        monkeypatch.setenv(disk_cache.DISABLE_ENV, "1")
        load_unit("mount.c")
        assert os.listdir(str(ir_cache_dir)) == []

    def test_loader_populates_and_hits(self, ir_cache_dir):
        # A reader of IR alone neither looks the index row up nor
        # writes it; the extraction that resolves the unit's summaries
        # writes it, once.
        load_unit("mount.c")
        stats = disk_cache.cache_stats()
        assert (stats.hits, stats.misses, stats.stores) == (0, 0, 0)
        Extractor([MOUNT_ONLY]).extract_all()
        assert disk_cache.cache_stats().stores == 1
        clear_cache()  # drop memory, keep disk: simulates a new process
        unit = load_unit("mount.c", summary_kind=FunctionSummary)
        assert disk_cache.cache_stats().hits == 1
        ((function, _sources, component),) = unit.summaries
        assert (function, component) == ("parse_mount_options", "mount")

    def test_clear_disk_cache(self, ir_cache_dir):
        Extractor([MOUNT_ONLY]).extract_all()
        assert os.listdir(str(ir_cache_dir))
        # The unit's index row, its one summary and the report.
        assert disk_cache.clear_disk_cache() == 3
        assert rows.keys("disk") == []
        assert os.listdir(str(ir_cache_dir)) == []


class TestInvalidation:
    def test_edited_corpus_file_invalidates(self, ir_cache_dir, tmp_path,
                                            monkeypatch):
        edited = tmp_path / "mke2fs.c"
        shutil.copy(corpus_path("mke2fs.c"), edited)
        monkeypatch.setattr("repro.corpus.loader.corpus_path",
                            lambda name: str(edited))

        extractor = Extractor([MKE2FS_ONLY])
        extractor.extract_all()
        first = load_unit("mke2fs.c")
        assert disk_cache.cache_stats().stores == 1

        clear_cache()
        extractor.extract_all()
        cached = load_unit("mke2fs.c")
        assert disk_cache.cache_stats().hits == 1
        assert cached.module.fingerprint == first.module.fingerprint

        # Touching content (even whitespace) must change the key.
        with open(edited, "a", encoding="utf-8") as fh:
            fh.write("\n")
        clear_cache()
        extractor.extract_all()
        recompiled = load_unit("mke2fs.c")
        assert disk_cache.cache_stats().hits == 1  # unchanged: no stale hit
        assert disk_cache.cache_stats().stores == 2
        assert recompiled.module.fingerprint != first.module.fingerprint

    def test_frontend_version_in_key(self, monkeypatch):
        before = disk_cache.module_key("int x;", "a.c")
        monkeypatch.setattr("repro.lang.FRONTEND_VERSION", "999-test")
        monkeypatch.setattr("repro.corpus.cache.FRONTEND_VERSION", "999-test")
        assert disk_cache.module_key("int x;", "a.c") != before


class TestWarmEqualsCold:
    def test_warm_disk_run_identical_to_cold(self, ir_cache_dir):
        clear_cache(disk=True)
        cold = _canonical(extract_all())
        # Memory empty, disk warm; clear_cache() drops the stored report
        # too, so the IR cache answers.
        clear_cache()
        warm = _canonical(extract_all())
        assert disk_cache.cache_stats().hits > 0
        assert warm == cold
        # The warm run stored the report; the next extraction reads it.
        hits = disk_cache.report_stats().hits
        assert _canonical(extract_all()) == cold
        assert disk_cache.report_stats().hits == hits + 1

    def test_memo_warm_run_identical(self, ir_cache_dir):
        first = _canonical(extract_all())
        again = _canonical(extract_all())  # fully memoized
        assert again == first


class TestParallelDeterminism:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_jobs_output_byte_identical(self, ir_cache_dir, jobs):
        clear_cache(disk=True)
        sequential = _canonical(extract_all())
        clear_cache(disk=True)
        parallel = procpool.run_ordered(jobs, _canonical_extraction,
                                        [()] * jobs)
        assert parallel == [sequential] * jobs

    def test_interproc_jobs_identical(self, ir_cache_dir):
        clear_cache(disk=True)
        sequential = _interproc_keys()
        clear_cache(disk=True)
        parallel = procpool.run_ordered(4, _interproc_keys, [()] * 4)
        assert parallel == [sequential] * 4


class TestMemoTables:
    def test_extraction_populates_memos(self, ir_cache_dir):
        extract_all()
        assert extractor_mod._SUMMARIES
        assert taint_mod._SPLIT_MEMO
        assert taint_mod._PREP_MEMO

    def test_summary_memo_returns_same_object(self, ir_cache_dir):
        extractor = extractor_mod.Extractor()
        unit = load_unit("ext4_super.c")
        first = extractor._summarize(unit, "ext4_fill_super")
        assert extractor._summarize(unit, "ext4_fill_super") is first

    def test_clear_cache_clears_memos(self, ir_cache_dir):
        extract_all()
        clear_cache()
        assert not extractor_mod._SUMMARIES
        assert not taint_mod._SPLIT_MEMO
        assert not taint_mod._PREP_MEMO


class TestLoadCorpusDedupe:
    def test_repeated_filenames_deduped(self):
        units = load_corpus(["mke2fs.c", "mount.c", "mke2fs.c", "mount.c"])
        assert [u.filename for u in units] == ["mke2fs.c", "mount.c"]

    def test_first_occurrence_order_kept(self):
        units = load_corpus(["mount.c", "mke2fs.c", "mount.c"])
        assert [u.filename for u in units] == ["mount.c", "mke2fs.c"]
