"""The database behind the IR, analysis and report stores.

- bounds: rows carry the package digest they were written under, and
  the first open in a process deletes every row of another code state,
  so code edits never pile states up;
- the connection follows the cache directory: a directory change in
  the middle of a process reads and writes the new directory's rows,
  and a store after another process deleted the database writes to a
  new file; threads share it under one lock;
- faults degrade to recomputing: a file that is not a database is
  deleted and recreated, and an unwritable cache directory makes every
  store refuse; either way the command's output is unchanged.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import threading

import pytest

from repro import store as repro_store
from repro.corpus import cache as disk
from repro.corpus.loader import clear_cache
from repro.perf import counters, reset_profile
from tests import store_rows as rows

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A private cache directory, memos and tallies dropped."""
    path = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    clear_cache()
    disk.reset_cache_stats()
    reset_profile()
    yield path
    clear_cache()
    disk.reset_cache_stats()


def _new_process() -> None:
    """What a new process over the same directory starts from: no
    connection, no memos."""
    with disk._DB_LOCK:
        disk._close()
    clear_cache()


def _extract_stdout(*argv: str) -> str:
    """``repro-extract`` stdout in this process (its own code: the
    command store's entries are dropped first)."""
    from repro.cli import main_extract

    repro_store.clear_commands()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main_extract(list(argv)) == 0
    return out.getvalue()


def _extract_stdout_disabled(monkeypatch, *argv: str) -> str:
    """``repro-extract`` stdout with every store disabled."""
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_NO_DISK_CACHE", "1")
        clear_cache()
        return _extract_stdout(*argv)


def _fresh_extract(cache_path, **env) -> subprocess.CompletedProcess:
    """``repro-extract`` in a fresh interpreter over ``cache_path``
    (its own code: the command store's entries are dropped first)."""
    repro_store.clear_commands()
    child = {key: value for key, value in os.environ.items()
             if not key.startswith("REPRO_")}
    child.update(PYTHONPATH=SRC, REPRO_CACHE_DIR=str(cache_path), **env)
    return subprocess.run([sys.executable, "-m", "repro.cli"], env=child,
                          capture_output=True, text=True, timeout=300)


class TestBounds:
    def test_a_fresh_process_sweeps_other_code_states(self, cache):
        from repro.analysis.extractor import extract_all

        extract_all()
        current = rows.keys()
        for n in range(3):
            rows.put(f"{n}" * 64, b"stale", kind=("disk", "an", "report")[n],
                     code="0" * 64)
        assert len(rows.keys()) == len(current) + 3
        done = _fresh_extract(cache)
        assert done.returncode == 0, done.stderr
        assert rows.keys() == current
        assert set(rows.codes()) == {disk.package_digest()}

    def test_code_state_changes_keep_one_state(self, cache, monkeypatch):
        from repro.analysis.extractor import extract_all

        counts = []
        for code in ("a" * 64, "b" * 64, "c" * 64):
            monkeypatch.setattr(repro_store, "_PACKAGE_DIGEST", code)
            reset_profile()
            _new_process()
            extract_all()
            counts.append((len(rows.keys()),
                           counters().get("cache.swept", 0)))
        (one_state, none_swept), *later = counts
        assert one_state == 24  # 7 indexes, 16 summaries, 1 report
        assert none_swept == 0
        assert later == [(one_state, one_state)] * 2
        assert rows.codes() == ["c" * 64] * one_state


class TestConnection:
    def test_follows_the_cache_directory(self, cache, tmp_path, monkeypatch):
        from repro.analysis.extractor import FunctionSummary

        summary = FunctionSummary(3, (), None)
        assert disk.store_analysis("a" * 64, summary)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "other"))
        assert disk.load_analysis("a" * 64, FunctionSummary) is None
        assert disk.store_analysis("b" * 64, summary)
        assert rows.keys() == ["b" * 64]
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        assert disk.load_analysis("a" * 64, FunctionSummary) == summary
        assert rows.keys() == ["a" * 64]


    def test_a_store_after_another_process_clears_is_kept(self, cache):
        """One process stores, a second clears the cache directory, the
        first stores again: that row lands in the new database file
        (not the unlinked one), so a third process loads it."""
        from repro.analysis.extractor import FunctionSummary

        summary = FunctionSummary(3, (), None)
        assert disk.store_analysis("a" * 64, summary)
        assert _child(cache, "print(disk.clear_disk_cache())") == "1"
        assert disk.store_analysis("b" * 64, summary)
        assert _child(cache, "print(disk.load_analysis('b' * 64, "
                             "FunctionSummary))") == repr(summary)
        assert rows.keys() == ["b" * 64]


def _child(cache_path, code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter over
    ``cache_path``, with ``disk`` and ``FunctionSummary`` imported."""
    child = {key: value for key, value in os.environ.items()
             if not key.startswith("REPRO_")}
    child.update(PYTHONPATH=SRC, REPRO_CACHE_DIR=str(cache_path))
    done = subprocess.run(
        [sys.executable, "-c",
         "from repro.analysis.extractor import FunctionSummary\n"
         "from repro.corpus import cache as disk\n" + code],
        env=child, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestSharedConnection:
    def test_threads_share_one_connection(self, cache):
        """More threads than cores store, load and clear on the one
        connection with a short switch interval: every load reads back
        what its thread stored, and the tallies add up."""
        from repro.analysis.extractor import FunctionSummary

        threads, rounds, failures = 8, 40, []

        def hammer(index):
            try:
                for n in range(rounds):
                    key = f"{index:02d}{n:04d}".ljust(64, "k")
                    summary = FunctionSummary(n, (), None)
                    assert disk.store_analysis(key, summary)
                    assert disk.load_analysis(key, FunctionSummary) == summary
                    disk.store_report(key[::-1], "report")
                    disk.clear_reports()
            except Exception as exc:  # reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer, args=(index,))
                       for index in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert failures == []
        stats = disk.analysis_stats()
        assert (stats.hits, stats.stores, stats.errors) == \
            (threads * rounds,) * 2 + (0,)
        assert len(rows.keys("an")) == threads * rounds
        assert rows.keys("report") == []


class TestFaults:
    def test_garbage_database_is_recreated(self, cache):
        reference = _extract_stdout()
        clear_cache(disk=True)
        cache.mkdir(exist_ok=True)
        (cache / disk.STORE_DB).write_bytes(b"\x00 not a database \xff" * 64)
        reset_profile()
        assert _extract_stdout() == reference
        assert counters().get("cache.recreated") == 1
        assert len(rows.keys()) == 24
        # A fresh `repro-extract` over a garbage file prints the same
        # bytes and no traceback, and leaves a working store behind.
        _new_process()
        (cache / disk.STORE_DB).write_bytes(b"garbage" * 512)
        for name in os.listdir(cache):
            if name.startswith(f"{disk.STORE_DB}-"):
                os.remove(cache / name)
        done = _fresh_extract(cache)
        assert (done.returncode, done.stdout) == (0, reference)
        assert "Traceback" not in done.stderr
        assert len(rows.keys()) == 24

    def test_unwritable_cache_directory_stores_nothing(self, cache,
                                                        tmp_path,
                                                        monkeypatch):
        from repro.analysis.extractor import FunctionSummary

        reference = _extract_stdout()
        # A path under a regular file cannot be created, whoever runs.
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        clear_cache()
        disk.reset_cache_stats()
        assert _extract_stdout() == reference
        assert _extract_stdout("--list") == _extract_stdout_disabled(
            monkeypatch, "--list")
        for stats in (disk.cache_stats(), disk.analysis_stats(),
                      disk.report_stats()):
            assert stats.hits == 0 and stats.stores == 0
            assert stats.errors > 0
        assert not disk.store_index("a" * 64, {}, {}, {})
        assert not disk.store_analysis("a" * 64, FunctionSummary(1, (), None))
        assert not disk.store_report("a" * 64, "report")
        assert not repro_store.store_command("a" * 64, "out", "", 0)
        assert disk.load_report("a" * 64, str) is None
        assert disk.clear_reports() == 0

