"""Re-extraction after a corpus edit, through the IR index and the
analysis store.

- an edit that moves functions (a line inserted or removed above them)
  leaves their slices, and so their store keys, alone: a warm
  ``repro-extract --json`` must still print exactly the lines a run
  with every store disabled prints;
- an edit to anything a body is compiled against — a macro defined
  late in the unit or inside another body, a late global — moves every
  slice of the unit, so warm output still equals store-disabled output;
- the report store is keyed by the sources the extraction analyzed,
  so an edit after a process read a unit cannot poison it;
- work counters for a one-function edit over warm stores: only the
  edited function's body is lexed and compiled (none when no scenario
  selects it), no module is pickled or unpickled, each unit is read
  and hashed once, only the edited function is solved, the six
  unchanged units' index rows answer their summaries (only the edited
  unit's three functions read analysis rows), and the stores write one
  row per kind they miss and no file;
- the error and damage paths of the unit index: a missing pre-selected
  function is still an error, a torn IR row is a deleted miss, a row
  of another layout or with damaged summaries is deleted and the unit
  outlined again, and summaries stored under another sources
  fingerprint are not served.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from repro import store as repro_store
from repro.corpus import cache as disk
from repro.corpus.loader import CORPUS_DIR_ENV, clear_cache
from tests import store_rows as rows

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
CORPUS_SRC = os.path.join(SRC, "repro", "corpus")


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


def _extract_json_bytes(tmp_path, name: str) -> bytes:
    """What ``repro-extract --json`` writes, from this process's state."""
    from repro.cli import main_extract

    path = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main_extract(["--json", str(path)]) == 0
    return path.read_bytes()


def _extract_json(tmp_path, name: str) -> list:
    """The ``--json`` dependency dicts, from this process's state."""
    return json.loads(_extract_json_bytes(tmp_path, name))


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

        def explain(tag):
            """``--explain`` stdout and ``--json --provenance`` bytes."""
            path = tmp_path / f"{tag}.json"
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main_extract(["--explain", "sparse_super2",
                                     "--explain", "mount.dax",
                                     "--json", str(path),
                                     "--provenance"]) == 0
            return out.getvalue(), path.read_bytes()

        _extract_json(tmp_path, "cold.json")
        _insert_at_body_top(corpus, "mke2fs.c", "parse_mke2fs_options", 1)
        clear_cache()
        warm = explain("warm")
        # An empty store: this process solves every selected function
        # for the extraction, then again for the provenance records.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "empty-cache"))
        clear_cache()
        assert explain("cold") == warm
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_NO_DISK_CACHE", "1")
            clear_cache()
            assert explain("disabled") == warm
        assert "provenance for" in warm[0]
        assert b'"provenance"' in warm[1]


#: The define whose value the context tests edit: it bounds the
#: ``mke2fs.inode_size`` value range that ``parse_mke2fs_options``
#: checks.
_DEFINE = "#define EXT2_INODE_SIZE_MAX 4096\n"


class TestSliceContext:
    """Edits outside the analyzed function that change what it compiles
    to must miss the analysis store."""

    @pytest.mark.parametrize("anchor", [
        # late in the unit, between two function definitions
        "int parse_mke2fs_options(int argc",
        # inside the body of a function no scenario selects
        "    word = parse_feature_word(str);",
    ], ids=["late", "in-another-body"])
    def test_moved_define_value_edit_matches_store_disabled(
            self, corpus, tmp_path, monkeypatch, anchor):
        path = corpus / "mke2fs.c"
        text = path.read_text(encoding="utf-8")
        assert text.count(_DEFINE) == 1 and text.count(anchor) == 1
        moved = text.replace(_DEFINE, "").replace(anchor, _DEFINE + anchor)
        path.write_text(moved, encoding="utf-8")
        cold = _extract_json(tmp_path, "cold.json")
        path.write_text(moved.replace(" 4096\n", " 8192\n"), encoding="utf-8")
        warm, disabled = _warm_and_disabled(tmp_path, monkeypatch, "edit")
        assert warm == disabled
        assert warm != cold
        assert "[128,8192]" in json.dumps(warm)

    def test_late_global_edit_moves_every_slice(self, corpus):
        from repro.corpus.loader import load_unit

        path = corpus / "mke2fs.c"
        text = path.read_text(encoding="utf-8")
        anchor = "int write_superblock(void)"
        slices = []
        for declaration in ("int late_global;\n", "long late_global;\n"):
            path.write_text(text.replace(anchor, declaration + anchor),
                            encoding="utf-8")
            clear_cache()
            slices.append(load_unit("mke2fs.c").slices)
        before, after = slices
        assert set(before) == set(after) == {
            "parse_feature_opts", "parse_mke2fs_options",
            "check_feature_conflicts", "write_superblock"}
        assert all(after[name] != before[name] for name in before)


class TestTextBetweenFunctions:
    """Comments and blank lines outside every body change no token, so
    they leave every slice alone: the moved functions hit the store
    and report their new lines."""

    def test_doc_comments_and_blank_lines_keep_every_slice(
            self, corpus, tmp_path, monkeypatch):
        from repro.corpus.loader import load_unit

        path = corpus / "mke2fs.c"
        text = path.read_text(encoding="utf-8")
        before = load_unit("mke2fs.c").slices
        cold = _extract_json(tmp_path, "cold.json")
        edited = text.replace("struct ext2_super_block {",
                              "struct ext2_super_block {\n", 1)
        for function in ("parse_mke2fs_options", "write_superblock"):
            anchor = f"int {function}("
            edited = edited.replace(anchor, f"/* {function}:\n * doc\n */\n"
                                    + anchor, 1)
        path.write_text(edited, encoding="utf-8")
        clear_cache()
        disk.reset_cache_stats()
        assert load_unit("mke2fs.c").slices == before
        warm, disabled = _warm_and_disabled(tmp_path, monkeypatch, "doc")
        stats = disk.analysis_stats()
        assert (stats.hits, stats.misses) == (16, 0)
        assert warm == disabled
        assert warm != cold  # the lines did move

    def test_a_line_moved_inside_a_header_misses_that_function(
            self, corpus, tmp_path, monkeypatch):
        path = corpus / "mke2fs.c"
        text = path.read_text(encoding="utf-8")
        _extract_json(tmp_path, "cold.json")
        path.write_text(text.replace("int write_superblock(void)\n{",
                                     "int write_superblock(void)\n\n{", 1),
                        encoding="utf-8")
        disk.reset_cache_stats()
        warm, disabled = _warm_and_disabled(tmp_path, monkeypatch, "header")
        stats = disk.analysis_stats()
        assert (stats.hits, stats.misses) == (15, 1)
        assert warm == disabled


def _fresh_process_keys() -> list:
    """Dependency keys of ``extract_all()`` in a new interpreter over
    this test's corpus and cache directory."""
    code = ("from repro.analysis.extractor import extract_all\n"
            "for dep in extract_all().union:\n"
            "    print(dep.key())\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return sorted(done.stdout.splitlines())


class TestReportKey:
    def test_edit_after_a_read_does_not_poison_the_report_store(
            self, corpus, monkeypatch):
        from repro.analysis.extractor import extract_all

        before = sorted(dep.key() for dep in extract_all().union)
        path = corpus / "mke2fs.c"
        path.write_text(path.read_text(encoding="utf-8").replace(
            _DEFINE, _DEFINE.replace("4096", "8192")), encoding="utf-8")
        # Same process, units already read: the old sources are still
        # the ones analyzed, and the report says so.
        assert sorted(dep.key() for dep in extract_all().union) == before
        # A new process reads the edit, and no store answers it with
        # the old sources' report.
        fresh = _fresh_process_keys()
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        assert fresh == _fresh_process_keys()
        assert fresh != before
        assert any("[128,8192]" in key for key in fresh)


class TestOneFunctionEditWork:
    """Host-independent work of re-extracting after a one-function
    edit over warm stores (what perfbench ``reanalysis`` times)."""

    def _work(self, corpus, monkeypatch, edited: str) -> dict:
        """Warm the stores, insert a line at the top of ``edited``'s
        body in ``mke2fs.c``, then re-extract as a new process would;
        returns what the re-extraction did."""
        from repro.analysis.extractor import extract_all
        from repro.analysis.taint import TaintEngine
        from repro.corpus import loader
        from repro.lang.frontend import Outline
        from repro.lang.ir import Module
        from repro.lang.parser import Parser
        from repro.obs import tracer
        from repro.perf import counters, reset_profile

        extract_all()  # cold: fills the IR cache and the analysis store
        _insert_at_body_top(corpus, "mke2fs.c", edited, 1)

        work = {"parsed": [], "outlined": [], "pickled": [], "solved": [],
                "hashed": [], "compile_c": [], "written": []}
        parse_body, init, run = Parser.parse_body, Outline.__init__, \
            TaintEngine.run
        module_key = disk.module_key

        def spy_parse_body(parser, span):
            work["parsed"].append(span.function.name)
            return parse_body(parser, span)

        def spy_init(outline, source, filename="<input>"):
            work["outlined"].append(filename)
            init(outline, source, filename)

        def spy_getstate(module):
            work["pickled"].append(("pickle", module.filename))
            return module.__dict__

        def spy_setstate(module, state):
            work["pickled"].append(("unpickle", state["filename"]))
            module.__dict__.update(state)

        def spy_run(engine):
            work["solved"].append(engine.func.name)
            return run(engine)

        def spy_key(source, filename):
            work["hashed"].append(filename)
            return module_key(source, filename)

        compile_c = loader.compile_c

        def spy_compile_c(source, filename="<input>", *, bodies=True):
            work["compile_c"].append((filename, bodies))
            return compile_c(source, filename, bodies=bodies)

        write_atomic = repro_store.write_atomic

        def spy_write_atomic(path, write):
            work["written"].append(os.path.basename(path))
            return write_atomic(path, write)

        # Every binding of the file writer, under whatever name a
        # module imported it.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for name, value in list(vars(module).items()):
                    if value is write_atomic:
                        monkeypatch.setattr(module, name, spy_write_atomic)

        monkeypatch.setattr(Parser, "parse_body", spy_parse_body)
        monkeypatch.setattr(Outline, "__init__", spy_init)
        monkeypatch.setattr(Module, "__getstate__", spy_getstate,
                            raising=False)
        monkeypatch.setattr(Module, "__setstate__", spy_setstate,
                            raising=False)
        monkeypatch.setattr(TaintEngine, "run", spy_run)
        monkeypatch.setattr(disk, "module_key", spy_key)
        monkeypatch.setattr(loader, "compile_c", spy_compile_c)
        clear_cache()
        disk.reset_cache_stats()
        reset_profile()
        trace = tracer.Tracer("edit")
        with tracer.enabled(trace):
            assert extract_all().total_extracted == 64
        # Bodies the outline left unlexed and a compile then lexed.
        work["lexed"] = counters().get("frontend.lex.bodies", 0)
        work["compile_spans"] = [
            (span.attrs["unit"], span.attrs.get("function"))
            for span in trace.spans if span.name == "corpus.compile"]
        work["rows"] = {kind: counters().get(f"cache.{kind}.store", 0)
                        for kind in ("disk", "an", "report")}
        work["an_loads"] = sum(1 for span in trace.spans
                               if span.name == "cache.an.load")
        work["listed"] = sorted(os.listdir(disk.cache_dir()))
        ir, analysis = disk.cache_stats(), disk.analysis_stats()
        work["ir"] = (ir.hits, ir.misses, ir.errors, ir.stores)
        work["analysis"] = (analysis.hits, analysis.misses, analysis.errors,
                            analysis.stores)
        return work

    def _assert_common(self, work: dict) -> None:
        # The edited unit is outlined; the six other units are answered
        # by their indexes.  No module is pickled or unpickled anywhere.
        assert work["outlined"] == ["mke2fs.c"]
        assert work["compile_c"] == [("mke2fs.c", False)]
        assert work["pickled"] == []
        assert work["ir"] == (6, 1, 0, 1)
        # Each unit is read and hashed once, for the report key and the
        # unit alike.
        assert sorted(work["hashed"]) == sorted(set(work["hashed"]))
        assert len(work["hashed"]) == 7
        # The stores write rows of one database, never a file: the
        # edited unit's index and the report (and, when one is solved,
        # the edited function's summary) are one row each.
        assert work["written"] == []
        assert work["listed"] and all(name.startswith(disk.STORE_DB)
                                      for name in work["listed"])
        assert (work["rows"]["disk"], work["rows"]["report"]) == (1, 1)
        # The six unchanged units' index rows answer their 13 selected
        # functions; only the edited unit's three read analysis rows.
        assert work["an_loads"] == 3

    def test_only_the_edited_function_is_solved(self, corpus, monkeypatch):
        edited = "check_feature_conflicts"
        work = self._work(corpus, monkeypatch, edited)
        self._assert_common(work)
        # Only the edited body is lexed and compiled, in one traced
        # compile, and only it is solved.
        assert work["lexed"] == 1
        assert work["parsed"] == [edited]
        assert work["compile_spans"] == [("mke2fs.c", edited)]
        assert work["solved"] == [edited]
        # Each of the 16 selected functions is resolved once: the
        # edited one misses, the 15 others hit (moved or not), 13 of
        # them in their unit's index row.
        assert work["analysis"] == (15, 1, 0, 1)
        assert work["rows"] == {"disk": 1, "an": 1, "report": 1}

    def test_an_unselected_edit_compiles_no_body(self, corpus, monkeypatch):
        # No scenario selects parse_feature_opts: its unit is outlined,
        # every selected function hits the store, nothing compiles.
        work = self._work(corpus, monkeypatch, "parse_feature_opts")
        self._assert_common(work)
        assert work["lexed"] == 0
        assert work["parsed"] == []
        assert work["compile_spans"] == []
        assert work["solved"] == []
        assert work["analysis"] == (16, 0, 0, 0)
        assert work["rows"]["an"] == 0


class TestIndexPaths:
    def test_missing_function_raises_when_answered_from_the_index(
            self, corpus, monkeypatch):
        from repro.analysis.extractor import Extractor, ScenarioSpec, extract_all
        from repro.errors import UnknownFunctionError

        extract_all()
        spec = ScenarioSpec("missing", ("mke2fs",),
                            (("mke2fs.c", ("no_such_function",)),))
        # Stores on: the unit is answered by its index (one IR hit, no
        # outline); stores off: the unit is outlined.
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
        entries = rows.blobs("disk")
        assert len(entries) == 7
        for key, blob in entries.items():
            rows.put(key, blob[:len(blob) // 2], "disk")
        clear_cache()
        disk.reset_cache_stats()
        assert [dep.key() for dep in extract_all().union] == baseline
        ir = disk.cache_stats()
        # Each torn row errors once, is deleted, and is rewritten by
        # the outline that replaces it.
        assert (ir.hits, ir.errors, ir.stores) == (0, 7, 7)
        assert rows.keys("disk") == sorted(entries)

    def test_foreign_module_bytes_compile_and_are_restored(self, corpus):
        import pickle

        from repro.analysis.extractor import extract_all
        from repro.corpus.loader import load_unit

        extract_all()
        unit = load_unit("mke2fs.c")
        reference = (unit.lines, unit.slices, set(unit.module.functions))
        key = unit.fingerprint
        stored = rows.values("disk")[key]
        assert stored[:2] == reference[:2]
        # An entry of a retired layout: the index beside the pickled
        # module.
        rows.put_value(key, (unit.lines, pickle.dumps(unit.module)), "disk")
        clear_cache()
        disk.reset_cache_stats()
        extract_all()
        unit = load_unit("mke2fs.c")
        # The entry is an error: it is deleted, the unit is outlined
        # again, and the row is stored back in its current layout.
        ir = disk.cache_stats()
        assert (ir.hits, ir.errors, ir.stores) == (6, 1, 1)
        assert (unit.lines, unit.slices,
                set(unit.module.functions)) == reference
        assert rows.values("disk")[key] == stored

    @pytest.mark.parametrize("damage", [
        lambda summaries: list(summaries.items()),
        lambda summaries: {name[:2]: summary
                           for name, summary in summaries.items()},
        lambda summaries: {("no_such_function",) + name[1:]: summary
                           for name, summary in summaries.items()},
        lambda summaries: {name: summary.findings
                           for name, summary in summaries.items()},
    ], ids=["list", "short-key", "unknown-function", "other-class"])
    def test_damaged_summaries_are_deleted_misses(self, corpus, tmp_path,
                                                   damage):
        reference = _extract_json_bytes(tmp_path, "reference.json")
        stored = rows.values("disk")
        assert len(stored) == 7
        for key, (lines, slices, summaries) in stored.items():
            rows.put_value(key, (lines, slices, damage(summaries)), "disk")
        clear_cache()
        disk.reset_cache_stats()
        assert _extract_json_bytes(tmp_path, "damaged.json") == reference
        # Each damaged row errors once and is deleted; its unit is
        # outlined again and the row is written back whole.
        ir = disk.cache_stats()
        assert (ir.hits, ir.misses, ir.errors, ir.stores) == (0, 0, 7, 7)
        assert rows.values("disk") == stored

    def test_other_sources_summaries_are_not_served(self, corpus):
        from dataclasses import replace

        from repro.analysis.extractor import extract_all
        from repro.obs import tracer

        baseline = [dep.key() for dep in extract_all().union]
        # Every stored summary filed under another sources fingerprint,
        # and emptied, so serving one would change the union.
        for key, (lines, slices, summaries) in rows.values("disk").items():
            rows.put_value(key, (lines, slices, {
                (function, "0" * 64, component): replace(
                    summary, field_writes=(),
                    findings=replace(summary.findings, dependencies=[],
                                     branch_uses=[]))
                for (function, _sources, component), summary
                in summaries.items()}), "disk")
        clear_cache()
        disk.reset_cache_stats()
        trace = tracer.Tracer("other-sources")
        with tracer.enabled(trace):
            assert [dep.key() for dep in extract_all().union] == baseline
        # The rows are accepted, but every summary comes from the
        # analysis store.
        ir, analysis = disk.cache_stats(), disk.analysis_stats()
        assert (ir.hits, ir.errors) == (7, 0)
        assert (analysis.hits, analysis.misses) == (16, 0)
        assert sum(span.name == "cache.an.load" for span in trace.spans) == 16


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
