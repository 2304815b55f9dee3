"""Re-extraction after a corpus edit, through the IR index and the
analysis store.

- an edit that moves functions (a line inserted or removed above them)
  leaves their slices, and so their store keys, alone: a warm
  ``repro-extract --json`` must still print exactly the lines a run
  with every store disabled prints;
- work counters for a one-function edit over warm stores: no module of
  an unedited unit is unpickled (its function index answers), each
  selected function is loaded from the store at most once, and only the
  edited function is solved;
- the error and damage paths of the unit index: a missing pre-selected
  function is still an error, a torn IR entry is a deleted miss, and
  module bytes that hold no module are deleted and compiled again.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import pytest

from repro.corpus import cache as disk
from repro.corpus.loader import CORPUS_DIR_ENV, clear_cache

CORPUS_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                          "repro", "corpus")


@pytest.fixture
def corpus(tmp_path, monkeypatch):
    """A private corpus copy and cache directory, memos dropped."""
    folder = tmp_path / "corpus"
    folder.mkdir()
    for name in os.listdir(CORPUS_SRC):
        if name.endswith(".c"):
            shutil.copy(os.path.join(CORPUS_SRC, name), folder / name)
    monkeypatch.setenv(CORPUS_DIR_ENV, str(folder))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    clear_cache()
    disk.reset_cache_stats()
    yield folder
    clear_cache()
    disk.reset_cache_stats()


def _insert_at_body_top(folder, unit: str, function: str, lines: int) -> None:
    """Insert ``lines`` comment lines at the top of ``function``'s body."""
    path = folder / unit
    text = path.read_text(encoding="utf-8")
    brace = text.index("{", text.index(f"{function}(")) + 1
    edit = "".join(f"\n    /* inserted {n} */" for n in range(lines))
    path.write_text(text[:brace] + edit + text[brace:], encoding="utf-8")


def _extract_json(tmp_path, name: str) -> list:
    """What ``repro-extract --json`` writes, from this process's state."""
    from repro.cli import main_extract

    path = str(tmp_path / name)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main_extract(["--json", path]) == 0
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _warm_and_disabled(tmp_path, monkeypatch, tag: str):
    """The ``--json`` dependency dicts of a warm run (memos and reports
    dropped, the IR and analysis stores kept) and of a run with every
    store disabled."""
    clear_cache()
    warm = _extract_json(tmp_path, f"warm-{tag}.json")
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_NO_DISK_CACHE", "1")
        clear_cache()
        disabled = _extract_json(tmp_path, f"disabled-{tag}.json")
    return warm, disabled


#: The first selected function of three units: every other selected
#: function of the unit is defined below it.
_MOVERS = (("mke2fs.c", "parse_mke2fs_options"),
           ("mount.c", "parse_mount_options"),
           ("libext2fs.c", "ext2fs_check_blocksize"))


class TestStoredLinesFollowTheirFunction:
    def test_warm_json_equals_store_disabled_after_moves(
            self, corpus, tmp_path, monkeypatch):
        pristine = {unit: (corpus / unit).read_text(encoding="utf-8")
                    for unit, _function in _MOVERS}
        # Store every entry with the functions one line lower...
        for unit, function in _MOVERS:
            _insert_at_body_top(corpus, unit, function, 1)
        shifted_once = _extract_json(tmp_path, "cold.json")
        # ...then read them back after the functions moved up a line...
        for unit, text in pristine.items():
            (corpus / unit).write_text(text, encoding="utf-8")
        warm, disabled = _warm_and_disabled(tmp_path, monkeypatch, "up")
        assert len(warm) == 64
        assert warm == disabled
        assert warm != shifted_once  # the lines did move
        # ...and after they moved down two.
        for unit, function in _MOVERS:
            _insert_at_body_top(corpus, unit, function, 2)
        warm, disabled = _warm_and_disabled(tmp_path, monkeypatch, "down")
        assert warm == disabled
        moved = [dep for dep in warm
                 if any(dep["evidence"]["file"] == unit
                        and dep["evidence"]["function"] != function
                        for unit, function in _MOVERS)]
        assert moved

    def test_explain_after_a_move_matches_store_disabled(
            self, corpus, tmp_path, monkeypatch):
        from repro.cli import main_extract

        def explain():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main_extract(["--explain", "sparse_super2",
                                     "--explain", "mount.dax"]) == 0
            return out.getvalue()

        _extract_json(tmp_path, "cold.json")
        _insert_at_body_top(corpus, "mke2fs.c", "parse_mke2fs_options", 1)
        clear_cache()
        warm = explain()
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_NO_DISK_CACHE", "1")
            clear_cache()
            assert explain() == warm
        assert "provenance for" in warm


class TestOneFunctionEditWork:
    """Host-independent work of re-extracting after a one-function
    edit over warm stores (what perfbench ``reanalysis`` times)."""

    def test_only_the_edited_function_is_solved(self, corpus, monkeypatch):
        from repro import lang
        from repro.analysis.extractor import extract_all
        from repro.analysis.taint import TaintEngine

        extract_all()  # cold: fills the IR cache and the analysis store
        edited = ("mke2fs.c", "check_feature_conflicts")
        _insert_at_body_top(corpus, *edited, 1)

        unpickled, compiled, solved = [], [], []
        decode_module, compile_c, run = (disk.decode_module, lang.compile_c,
                                         TaintEngine.run)

        def spy_decode(key, stored):
            unpickled.append(key)
            return decode_module(key, stored)

        def spy_compile(source, filename):
            compiled.append(filename)
            return compile_c(source, filename)

        def spy_run(engine):
            solved.append(engine.func.name)
            return run(engine)

        monkeypatch.setattr(disk, "decode_module", spy_decode)
        monkeypatch.setattr("repro.corpus.loader.compile_c", spy_compile)
        monkeypatch.setattr(TaintEngine, "run", spy_run)
        clear_cache()
        disk.reset_cache_stats()
        report = extract_all()

        assert report.total_extracted == 64
        # No module of the six unedited units is unpickled: their
        # function indexes answer; the edited unit is compiled, and its
        # module is the one the solve reads.
        assert unpickled == []
        assert compiled == ["mke2fs.c"]
        ir = disk.cache_stats()
        assert (ir.hits, ir.misses, ir.errors) == (6, 1, 0)
        # Each of the 16 selected functions is looked up once: the
        # edited one misses, the 15 others hit (moved or not).
        analysis = disk.analysis_stats()
        assert analysis.hits + analysis.misses + analysis.errors <= 16
        assert (analysis.hits, analysis.misses, analysis.stores) == (15, 1, 1)
        # Only the function whose slice changed is solved.
        assert solved == [edited[1]]


class TestIndexPaths:
    def test_missing_function_raises_when_answered_from_the_index(
            self, corpus, monkeypatch):
        from repro.analysis.extractor import Extractor, ScenarioSpec, extract_all
        from repro.errors import UnknownFunctionError

        extract_all()
        spec = ScenarioSpec("missing", ("mke2fs",),
                            (("mke2fs.c", ("no_such_function",)),))
        # Stores on: the unit is answered by its index (one IR hit, no
        # module unpickled); stores off: the unit is compiled.
        for disabled, answered in (("", (1, 0)), ("1", (0, 0))):
            monkeypatch.setenv("REPRO_NO_DISK_CACHE", disabled)
            clear_cache()
            disk.reset_cache_stats()
            with pytest.raises(UnknownFunctionError,
                               match="no_such_function"):
                Extractor([spec]).extract_all()
            ir = disk.cache_stats()
            assert (ir.hits, ir.misses) == answered

    def test_torn_ir_entries_are_deleted_misses(self, corpus):
        from repro.analysis.extractor import extract_all

        baseline = [dep.key() for dep in extract_all().union]
        entries = [os.path.join(disk.cache_dir(), name)
                   for name in os.listdir(disk.cache_dir())
                   if name.endswith(".ir.pkl")]
        assert len(entries) == 7
        for path in entries:
            with open(path, "rb") as handle:
                blob = handle.read()
            with open(path, "wb") as handle:
                handle.write(blob[:len(blob) // 2])
        clear_cache()
        disk.reset_cache_stats()
        assert [dep.key() for dep in extract_all().union] == baseline
        ir = disk.cache_stats()
        # Each torn entry errors once, is deleted, and is rewritten by
        # the compile that replaces it.
        assert (ir.hits, ir.errors, ir.stores) == (0, 7, 7)
        assert all(os.path.exists(path) for path in entries)


    def test_foreign_module_bytes_compile_and_are_restored(self, corpus):
        import pickle

        from repro.corpus.loader import load_unit

        reference = set(load_unit("mke2fs.c").module.functions)
        (name,) = [name for name in os.listdir(disk.cache_dir())
                   if name.endswith(".ir.pkl")]
        path = os.path.join(disk.cache_dir(), name)
        with open(path, "rb") as handle:
            index, _stored = pickle.load(handle)
        with open(path, "wb") as handle:
            pickle.dump((index, pickle.dumps(["not", "a", "module"])),
                        handle)
        clear_cache()
        disk.reset_cache_stats()
        unit = load_unit("mke2fs.c")
        assert unit.lines == index  # the index still answers...
        assert set(unit.module.functions) == reference  # ...then compiles
        ir = disk.cache_stats()
        assert (ir.hits, ir.errors, ir.stores) == (1, 1, 1)
        with open(path, "rb") as handle:
            assert pickle.loads(pickle.load(handle)[1]).functions.keys() \
                == reference


class TestMovedSummary:
    def test_moved_to_shifts_every_output_line(self):
        from repro.analysis.constraints import BranchUse, FunctionFindings
        from repro.analysis.extractor import FunctionSummary
        from repro.analysis.model import (
            Dependency,
            Evidence,
            ParamRef,
            SubKind,
            make_constraint,
        )

        dep = Dependency(SubKind.SD_VALUE_RANGE,
                         (ParamRef("mke2fs", "blocksize"),),
                         make_constraint(min=1024),
                         evidence=Evidence("mke2fs.c", "fn", 12))
        dep.key()  # cached on the instance; the move must keep it valid
        use = BranchUse("fn", 14, frozenset(), frozenset(), True, {})
        summary = FunctionSummary(10, (), FunctionFindings("fn", [dep], [use]))
        assert summary.moved_to(10) is summary
        for line in (7, 13):
            moved = summary.moved_to(line)
            (moved_dep,), (moved_use,) = (moved.findings.dependencies,
                                          moved.findings.branch_uses)
            assert moved.line == line
            assert moved_dep == dep and moved_dep.key() == dep.key()
            assert moved_dep.evidence == Evidence("mke2fs.c", "fn",
                                                  12 + line - 10)
            assert moved_use.line == 14 + line - 10
            # The stored summary itself is left as it was.
            assert (dep.evidence.line, use.line) == (12, 14)
