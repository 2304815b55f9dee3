"""Lazy package exports (:mod:`repro._lazy`) keep every public name.

Each package ``__init__`` resolves its exports on first access.  These
tests pin what the eager imports used to guarantee: every ``__all__``
name resolves, star-imports and ``dir()`` still list the names, unknown
names fail like a normal module's, first-use imports from many threads
neither deadlock nor fail, and the memo and counter registrations that
used to happen at ``import repro`` still cover everything a run used.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Every module that installs lazy exports.
LAZY_MODULES = [
    "repro", "repro.analysis", "repro.cli", "repro.common", "repro.corpus",
    "repro.ecosystem", "repro.fsimage", "repro.knowledge", "repro.lang",
    "repro.obs", "repro.perf", "repro.reporting", "repro.serve",
    "repro.study", "repro.suites", "repro.tools",
]


def _fresh(code: str, cache_dir: str, timeout: float = 120) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line last."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=SRC, REPRO_CACHE_DIR=cache_dir)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_every_package_is_lazy():
    packages = []
    for directory, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        if "__init__.py" in files:
            rel = os.path.relpath(directory, SRC)
            packages.append(rel.replace(os.sep, "."))
    assert sorted(packages) == sorted(m for m in LAZY_MODULES
                                      if m != "repro.cli")


@pytest.mark.parametrize("name", LAZY_MODULES)
class TestExports:
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        for export in module.__all__:
            assert getattr(module, export) is not None, export

    def test_star_import(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        module = importlib.import_module(name)
        assert set(module.__all__) <= set(namespace)
        for export in module.__all__:
            assert namespace[export] is getattr(module, export)

    def test_dir_lists_exports(self, name):
        module = importlib.import_module(name)
        assert set(module.__all__) <= set(dir(module))
        assert len(module.__all__) == len(set(module.__all__))

    def test_unknown_name_raises(self, name):
        module = importlib.import_module(name)
        with pytest.raises(AttributeError, match=f"'{name}'.*'no_such_name'"):
            getattr(module, "no_such_name")
        assert not hasattr(module, "no_such_name")


def test_exports_are_the_defining_objects():
    import repro
    import repro.tools.conbugck
    from repro.analysis.extractor import extract_all
    from repro.lang import ir

    assert repro.ConBugCk is repro.tools.conbugck.ConBugCk
    assert repro.extract_all is extract_all
    assert importlib.import_module("repro.lang").IRModule is ir.Module


def test_lower_stays_the_function(tmp_path):
    # The ``lower`` export shares its name with the submodule that
    # defines it; the first compile loads that submodule and must not
    # leave it in the function's place.
    code = ("import json, repro.lang as lang\n"
            "lang.compile_c('int f(int x) { return x; }')\n"
            "print(json.dumps([type(lang.lower).__name__,\n"
            "                  getattr(lang.lower, '__module__', None)]))\n")
    assert _fresh(code, str(tmp_path)) == ["function", "repro.lang.lower"]


def test_cli_resolves_service_commands():
    import repro.cli as cli
    import repro.cli_service as cli_service

    for name in ("main_runs", "main_serve", "main_worker", "main_submit",
                 "main_top"):
        assert getattr(cli, name) is getattr(cli_service, name)


_THREADS = """\
import importlib, json, sys, threading
import repro, repro.lang, repro.perf, repro.tools

sys.setswitchinterval(1e-6)  # switch threads as often as possible

TARGETS = [("repro", "ConBugCk"), ("repro.tools", "ConHandleCk"),
           ("repro.lang", "parse"), ("repro.perf", "SnapshotCache")]
barrier = threading.Barrier(8)
errors, resolved = [], {}

def resolve(index):
    package, name = TARGETS[index % len(TARGETS)]
    barrier.wait()
    try:
        value = getattr(importlib.import_module(package), name)
        resolved[f"{package}.{name}"] = f"{value.__module__}.{value.__name__}"
    except BaseException as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=resolve, args=(i,)) for i in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
print(json.dumps({"errors": errors, "resolved": resolved,
                  "alive": sum(t.is_alive() for t in threads)}))
"""


def test_concurrent_first_use(tmp_path):
    # The worker runs N exec slots in one process, so the first use of
    # a lazy name can race.  Several fresh interpreters widen the window.
    for _ in range(3):
        out = _fresh(_THREADS, str(tmp_path))
        assert out["errors"] == [] and out["alive"] == 0, out
        assert out["resolved"] == {
            "repro.ConBugCk": "repro.tools.conbugck.ConBugCk",
            "repro.tools.ConHandleCk": "repro.tools.conhandleck.ConHandleCk",
            "repro.lang.parse": "repro.lang.parser.parse",
            "repro.perf.SnapshotCache": "repro.perf.campaign.SnapshotCache",
        }


_MEMOS = """\
import json, sys
import repro

repro.extract_all()
# The run itself loaded every module that owns a memo, so the imports
# below register nothing new.
owners = ["repro.analysis.extractor", "repro.analysis.taint",
          "repro.perf.lattice"]
preloaded = all(name in sys.modules for name in owners)
registered = sorted(sys.modules["repro.perf"]._MEMO_REGISTRY)

from repro import perf
from repro.analysis import extractor, taint
from repro.perf import lattice

def sizes():
    return {
        "perf.lattice": len(lattice._INTERN) - 1,
        "extract.summaries": len(extractor._SUMMARIES),
        "taint.split": len(taint._SPLIT_MEMO),
        "taint.prep": len(taint._PREP_MEMO),
    }

before = sizes()
perf.clear_memos()
print(json.dumps({"preloaded": preloaded, "registered": registered,
                  "before": before, "after": sizes()}))
"""


def test_clear_memos_covers_every_memo(tmp_path):
    out = _fresh(_MEMOS, str(tmp_path))
    names = {"perf.lattice", "extract.summaries", "taint.split", "taint.prep"}
    assert out["preloaded"]
    assert set(out["registered"]) == names
    assert all(out["before"][name] > 0 for name in names), out["before"]
    assert out["after"] == dict.fromkeys(names, 0)


def test_profile_lists_lattice_counters(tmp_path):
    code = ("import contextlib, io, json\n"
            "from repro.cli import main_extract\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(err):\n"
            "    main_extract(['--profile', '--cold'])\n"
            "print(json.dumps(err.getvalue()))\n")
    profile = _fresh(code, str(tmp_path))
    assert "lattice.intern.hit" in profile
    assert "lattice.intern.miss" in profile


_PROFILE = """\
import contextlib, io, json, sys
from repro.cli import main_extract
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    main_extract({argv!r})
print(json.dumps({{"profile": err.getvalue(),
                  "lattice": "repro.perf.lattice" in sys.modules}}))
"""


def test_profile_on_a_stored_report_has_no_lattice_rows(tmp_path):
    cache = str(tmp_path)
    first = _fresh(_PROFILE.format(argv=["--profile"]), cache)
    assert "cache.report.miss" in first["profile"]
    assert "cache.report.store" in first["profile"]
    # The solver never runs on a hit, so the lattice is never imported
    # and its rows are absent rather than zero.
    hit = _fresh(_PROFILE.format(argv=["--profile"]), cache)
    assert "cache.report.hit" in hit["profile"]
    assert "cache.report.load" in hit["profile"]
    assert not hit["lattice"]
    assert "lattice." not in hit["profile"]
    # --cold drops the stored report with the other stores: the solver
    # runs again and its rows are back.
    cold = _fresh(_PROFILE.format(argv=["--profile", "--cold"]), cache)
    assert "cache.report.hit" not in cold["profile"]
    assert cold["lattice"] and "lattice.intern" in cold["profile"]
