"""The command store: a repeat console command replays one stored entry.

A default-mode ``repro-*`` run looks up ``(stdout, stderr, exit code)``
under the content key the service dedups on (tool, parsed args, corpus
hashes, package digest).  What must hold:

- replay is invisible: stdout, stderr and the exit code are identical
  cold, warm and with the store disabled;
- anything that could change the output misses: a corpus edit, other
  arguments, a package edit (the package-copy test drives the CLI and
  the service in fresh interpreters);
- the runs that ask for fresh work or write artifacts, and the service
  worker, neither read nor write an entry;
- failures degrade to running the command: a torn entry is a deleted
  miss, an unwritable cache still prints, a raising command or an
  argparse error stores nothing;
- the clears that drop every store drop command entries too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

from repro import cli, cli_run, store
from repro.corpus import cache as disk
from repro.corpus.loader import CORPUS_DIR_ENV, clear_cache
from tests import store_rows as rows

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
CORPUS_SRC = os.path.join(SRC, "repro", "corpus")

#: The six default commands plus the argv variants whose output the
#: store must replay byte for byte.
COMMANDS = [
    ("main_extract", []),
    ("main_condocck", []),
    ("main_conhandleck", []),
    ("main_conbugck", []),
    ("main_study", []),
    ("main_demo", []),
    ("main_extract", ["--list"]),
    ("main_extract", ["--explain", "sparse_super2"]),
    ("main_conhandleck", ["--verbose"]),
]

#: One console command in a fresh interpreter; ``MARK`` records whether
#: the command's own code ran (the store answers without importing it).
_CHILD = """\
import json, sys
from repro.cli import {main}
code = {main}(sys.argv[1:])
with open({mark!r}, "w") as handle:
    json.dump("repro.cli_run" in sys.modules, handle)
sys.exit(code)
"""


def _entries(cache) -> list:
    try:
        names = os.listdir(cache)
    except OSError:
        return []
    return sorted(name for name in names
                  if name.endswith(store.COMMAND_SUFFIX))


def _fresh(main, argv, cache, tmp_path, pythonpath=SRC, **env):
    """``main(argv)`` in a fresh interpreter: ``(stdout, stderr, exit
    code, whether the command's own code ran)``."""
    mark = str(tmp_path / "ran.json")
    child_env = {key: value for key, value in os.environ.items()
                 if not key.startswith("REPRO_")}
    child_env.update(PYTHONPATH=pythonpath, REPRO_CACHE_DIR=str(cache), **env)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD.format(main=main, mark=mark)] + argv,
        env=child_env, capture_output=True, text=True, timeout=300)
    with open(mark, encoding="utf-8") as handle:
        ran = json.load(handle)
    return done.stdout, done.stderr, done.returncode, ran


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A private cache directory for in-process runs."""
    path = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    return path


@pytest.fixture
def ran(monkeypatch):
    """The names of the ``repro.cli_run`` commands that actually ran."""
    names = []
    for name in ("extract", "condocck", "conhandleck", "conbugck", "demo",
                 "study"):
        def spy(*args, _name=name, _run=getattr(cli_run, name)):
            names.append(_name)
            return _run(*args)
        monkeypatch.setattr(cli_run, name, spy)
    return names


def _run(main, argv=()):
    """``main(argv)`` in this process: ``(stdout, stderr, exit code)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = getattr(cli, main)(list(argv))
    return out.getvalue(), err.getvalue(), code


class TestReplayIsInvisible:
    @pytest.mark.parametrize("main, argv", COMMANDS)
    def test_cold_warm_and_disabled_agree(self, main, argv, tmp_path):
        cache = tmp_path / "cache"
        disabled = _fresh(main, argv, cache, tmp_path,
                          REPRO_NO_DISK_CACHE="1")
        assert not os.path.exists(cache)
        cold = _fresh(main, argv, cache, tmp_path)
        (entry,) = _entries(cache)
        warm = _fresh(main, argv, cache, tmp_path)
        assert _entries(cache) == [entry]
        assert disabled[3] and cold[3] and not warm[3]  # the hit ran nothing
        assert cold[:3] == disabled[:3]
        assert warm[:3] == disabled[:3]
        assert disabled[0]

    def test_output_is_teed_as_it_is_written(self, cache, monkeypatch):
        # A miss passes output on as it goes (a long command streams),
        # and records only what its own thread writes.
        seen = []

        def body(args, argv):
            print("first")
            seen.append(sys.stdout.stream.getvalue())
            other = threading.Thread(target=print, args=("elsewhere",))
            other.start()
            other.join()
            print("second", file=sys.stderr)
            return 3

        monkeypatch.setattr(cli_run, "demo", body)
        out, err, code = _run("main_demo")
        assert seen == ["first\n"]
        assert (out, err, code) == ("first\nelsewhere\n", "second\n", 3)
        (entry,) = _entries(cache)
        assert store.load_command(entry[:-len(store.COMMAND_SUFFIX)]) == \
            ("first\n", "second\n", 3)
        assert _run("main_demo") == ("first\n", "second\n", 3)


class TestMisses:
    def test_one_byte_corpus_edit_misses(self, cache, ran, tmp_path,
                                         monkeypatch):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in os.listdir(CORPUS_SRC):
            if name.endswith(".c"):
                shutil.copy(os.path.join(CORPUS_SRC, name), corpus / name)
        monkeypatch.setenv(CORPUS_DIR_ENV, str(corpus))
        first = _run("main_condocck")
        assert _run("main_condocck") == first
        assert ran == ["condocck"]
        with open(corpus / "e2fsck.c", "a", encoding="utf-8") as handle:
            handle.write("\n")
        assert _run("main_condocck") == first  # a newline changes nothing
        assert ran == ["condocck", "condocck"]
        assert len(_entries(cache)) == 2
        clear_cache()

    def test_other_arguments_miss(self, cache, ran):
        default = _run("main_conbugck")
        five = _run("main_conbugck", ["-n", "5"])
        assert ran == ["conbugck", "conbugck"]
        assert five != default
        # The same parsed arguments spelled another way are one entry.
        assert _run("main_conbugck", ["--count", "5"]) == five
        assert ran == ["conbugck", "conbugck"]
        assert len(_entries(cache)) == 2

    def test_unreadable_package_runs_without_the_store(self, cache, ran,
                                                       monkeypatch):
        monkeypatch.setattr(store, "package_digest", lambda: "")
        assert _run("main_demo") == _run("main_demo")
        assert ran == ["demo", "demo"]
        assert _entries(cache) == []


class TestBypass:
    @pytest.mark.parametrize("main, argv", [
        ("main_extract", ["--profile"]),
        ("main_extract", ["--json", "{tmp}/deps.json"]),
        ("main_demo", ["--trace", "{tmp}/run.jsonl"]),
        ("main_demo", ["--chrome-trace", "{tmp}/run.json"]),
        ("main_demo", ["--manifest", "{tmp}/manifest.json"]),
        ("main_conhandleck", ["--profile"]),
        ("main_conhandleck", ["--budget", "20"]),
        ("main_conbugck", ["--profile"]),
        ("main_conbugck", ["--sample", "random", "--budget", "20"]),
    ])
    def test_flag_neither_reads_nor_writes(self, cache, ran, tmp_path,
                                           monkeypatch, main, argv):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        _run(main)  # an entry the run must not read
        before = _entries(cache)
        assert len(before) == 1

        def refuse(*args):
            raise AssertionError("the command store was consulted")

        monkeypatch.setattr(store, "command_key", refuse)
        monkeypatch.setattr(store, "load_command", refuse)
        _run(main, argv)
        _run(main, argv)
        assert _entries(cache) == before
        assert len(ran) == 3

    def test_disabled_store_neither_reads_nor_writes(self, cache, ran,
                                                     monkeypatch):
        _run("main_demo")
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        assert _run("main_demo") == _run("main_demo")
        assert ran == ["demo"] * 3
        assert len(_entries(cache)) == 1

    def test_cold_drops_every_entry_and_stores_none(self, cache, ran):
        _run("main_demo")
        _run("main_extract")
        assert len(_entries(cache)) == 2
        cold = _run("main_extract", ["--cold"])
        assert _entries(cache) == []
        assert cold == _run("main_extract")
        assert ran == ["demo", "extract", "extract", "extract"]

    def test_service_worker_never_touches_the_store(self, cache, tmp_path,
                                                    monkeypatch):
        from repro.serve.keys import DONE
        from repro.serve.worker import Worker, submit_request

        expected = _run("main_demo")[0]
        before = _entries(cache)
        monkeypatch.setattr(store, "load_command", None)
        data = tmp_path / "serve"
        data.mkdir()
        worker = Worker(str(data / "service.db"), str(data), worker_id="w")
        try:
            row, _created = submit_request(worker.queue, worker.store, "demo")
            assert worker.run_once() == 1
            run = worker.queue.get(row["run_id"])
        finally:
            worker.close()
        assert run["status"] == DONE
        assert run["result"]["output"] == expected
        assert _entries(cache) == before


class TestFailures:
    @pytest.mark.parametrize("damage", [
        b"", b"[\"torn", b"\x00 not json \xff", b'{"not": "a triple"}',
        b'["out", "err"]', b'["out", "err", "1"]', b'["out", 2, 1]'])
    def test_damaged_entry_is_a_deleted_miss(self, cache, ran, damage):
        first = _run("main_demo")
        (entry,) = _entries(cache)
        with open(os.path.join(cache, entry), "wb") as handle:
            handle.write(damage)
        key = entry[:-len(store.COMMAND_SUFFIX)]
        assert store.load_command(key) is None
        assert _entries(cache) == []  # deleted
        with open(os.path.join(cache, entry), "wb") as handle:
            handle.write(damage)
        assert _run("main_demo") == first  # a miss: it ran and stored
        assert ran == ["demo", "demo"]
        assert store.load_command(key) == first

    def test_unwritable_cache_still_prints(self, tmp_path, ran, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
        out, err, code = _run("main_demo")
        assert code == 0 and "Figure 1" in out
        assert _run("main_demo") == (out, err, code)
        assert ran == ["demo", "demo"]

    def test_raising_command_stores_nothing(self, cache, monkeypatch):
        def body(args, argv):
            print("partial")
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_run, "demo", body)
        out = io.StringIO()
        real = sys.stdout
        with contextlib.redirect_stdout(out), \
                pytest.raises(RuntimeError, match="boom"):
            cli.main_demo([])
        assert out.getvalue() == "partial\n"
        assert sys.stdout is real
        assert _entries(cache) == []

    @pytest.mark.parametrize("main, argv", [
        ("main_extract", ["--transport", "shm"]),
        ("main_conbugck", ["--jobs", "2"]),
        ("main_conhandleck", ["--jobs", "2"]),
    ])
    def test_argparse_error_exits_2_and_stores_nothing(self, cache, capsys,
                                                       main, argv):
        with pytest.raises(SystemExit) as exc:
            getattr(cli, main)(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert _entries(cache) == []


class TestClearing:
    def test_disk_clears_drop_command_entries(self, cache):
        for clear in (lambda: clear_cache(disk=True), disk.clear_disk_cache,
                      store.clear_commands):
            _run("main_demo")
            assert len(_entries(cache)) == 1
            clear()
            assert _entries(cache) == []

    def test_plain_clear_cache_scans_no_directory(self, cache, monkeypatch):
        # ``clear_cache()`` runs before every in-process re-extraction;
        # it drops stored reports with one DELETE by kind, never listing
        # the cache directory (where commands accumulate), creates no
        # database when there is none, and leaves commands be.
        _run("main_demo")
        scans = []
        listdir = os.listdir
        monkeypatch.setattr(os, "listdir",
                            lambda path: scans.append(path) or listdir(path))
        clear_cache()
        assert scans == []
        assert len(_entries(cache)) == 1
        assert not os.path.exists(cache / disk.STORE_DB)
        # Over a warm store it deletes the report row and nothing else.
        disk.store_report("r" * 64, "report")
        disk.store_analysis("a" * 64, "summary")
        del scans[:]
        clear_cache()
        assert scans == []
        assert rows.keys() == ["a" * 64]
        assert len(_entries(cache)) == 1


class TestPackageEdit:
    """A package edit reaches the CLI and the service in fresh
    interpreters: the command store and the run id both miss."""

    _WORKER = """\
import json
from repro.serve.worker import Worker, submit_request
worker = Worker({db!r}, {data!r}, worker_id="w")
row, created = submit_request(worker.queue, worker.store, "condocck")
if created:
    worker.run_once()
run = worker.queue.get(row["run_id"])
worker.close()
print(json.dumps([row["run_id"], created, run["result"]["output"]]))
"""

    def _service(self, data, pythonpath, cache):
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(PYTHONPATH=pythonpath, REPRO_CACHE_DIR=str(cache))
        code = self._WORKER.format(db=str(data / "service.db"),
                                   data=str(data))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def test_tool_edit_misses_the_cli_and_the_service(self, tmp_path):
        cache, data = tmp_path / "cache", tmp_path / "serve"
        data.mkdir()
        package = tmp_path / "pkg"
        shutil.copytree(os.path.join(SRC, "repro"), package / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        tool = package / "repro" / "tools" / "condocck.py"
        source = tool.read_text(encoding="utf-8")
        label = 'return f"[{self.issue}] '
        assert source.count(label) == 1

        old = _fresh("main_condocck", [], cache, tmp_path)
        old_run_id, created, old_output = self._service(data, SRC, cache)
        assert created and old_output == old[0]
        # Unedited, the copy is the same code: same entry, same run.
        assert _fresh("main_condocck", [], cache, tmp_path,
                      pythonpath=str(package)) == old[:3] + (False,)
        assert self._service(data, str(package), cache)[:2] == \
            [old_run_id, False]

        tool.write_text(source.replace(label, label + "edited: "),
                        encoding="utf-8")
        new = _fresh("main_condocck", [], cache, tmp_path,
                     pythonpath=str(package))
        assert new[3], "the edited package was answered by an old entry"
        assert "edited: " in new[0] and new[0] != old[0]
        assert new[2] == old[2]
        again = _fresh("main_condocck", [], cache, tmp_path,
                       pythonpath=str(package))
        assert again == new[:3] + (False,)  # a hit
        run_id, created, output = self._service(data, str(package), cache)
        assert run_id != old_run_id and created
        assert output == new[0]
