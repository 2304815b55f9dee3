"""Import contract: each entry point loads only the layers it runs.

Every check starts a fresh interpreter over a warm private cache and
reads ``sys.modules`` after the run.  These are module-set checks, not
wall-clock budgets, so they pass or fail the same way on any host.  The
layering check reads the source instead: module-level imports in
``serve/`` and ``obs/`` must never reach the analysis stack.

The six analysis commands replay repeat runs from the command store
(:mod:`repro.store`).  The checks of what a command's own code loads
drop the command entries first, so they see the run the store did not
answer; one check pins what a replayed run loads.

Run as a script (``python tests/test_import_graph.py``, or ``make
import-check``) to print each console script's ``repro.*`` module count
and the source lines those modules hold, i.e. what a fresh interpreter
compiles when no bytecode is cached, and for the analysis commands the
same for a run the command store answers.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, Iterable, List, Optional, Set

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: The analysis stack: what the service and observability layers must
#: not load at import time.
ANALYSIS_STACK = ("repro.analysis", "repro.lang", "repro.corpus",
                  "repro.ecosystem", "repro.fsimage", "repro.tools")

#: Console script -> (module, call) run in the fresh interpreter.  The
#: long-lived services only parse ``--help``; the client commands point
#: at a closed local port and fail fast after loading what they use.
ENTRY_POINTS = {
    "repro-extract": ("repro.cli", "main_extract([])"),
    "repro-condocck": ("repro.cli", "main_condocck([])"),
    "repro-conhandleck": ("repro.cli", "main_conhandleck([])"),
    "repro-conbugck": ("repro.cli", "main_conbugck([])"),
    "repro-study": ("repro.cli", "main_study([])"),
    "repro-demo": ("repro.cli", "main_demo([])"),
    "repro-runs": ("repro.cli_service",
                   "main_runs(['tail', '--data-dir', CACHE])"),
    "repro-serve": ("repro.cli_service", "main_serve(['--help'])"),
    "repro-worker": ("repro.cli_service", "main_worker(['--help'])"),
    "repro-submit": ("repro.cli_service",
                     "main_submit(['demo', '--url', 'http://127.0.0.1:9'])"),
    "repro-top": ("repro.cli_service",
                  "main_top(['--url', 'http://127.0.0.1:9', '--once'])"),
}

_CHILD = """\
import contextlib, io, json, sys
CACHE = {cache!r}
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    try:
{body}
    except SystemExit:
        pass
print(json.dumps(sorted(sys.modules)))
"""


#: The analysis commands: the console scripts the command store serves.
ANALYSIS_COMMANDS = ("repro-extract", "repro-condocck", "repro-conhandleck",
                     "repro-conbugck", "repro-study", "repro-demo")

#: Every ``repro`` module a run answered by the command store loads:
#: argument parsing, the store and its key, nothing of what the
#: command itself runs.
REPLAY_MODULES = ["repro", "repro._lazy", "repro.cli", "repro.corpus",
                  "repro.store"]

#: Child-code prefix that drops the command store's entries, so the
#: command that follows runs its own code.
DROP_COMMANDS = "from repro.store import clear_commands\nclear_commands()\n"

#: What a command served by the stored report must not load: the
#: solver, constraint derivation, the bridge, the source annotations,
#: the IR, CFGs, the lattice and the corpus loader.
REPORT_PATH_SKIPS = (
    "repro.analysis.taint", "repro.analysis.constraints",
    "repro.analysis.bridge", "repro.analysis.sources", "repro.lang.ir",
    "repro.lang.cfg", "repro.perf.lattice", "repro.corpus.loader")


def _env(cache_dir: str) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = cache_dir
    return env


def loaded_modules(code: str, cache_dir: str) -> Set[str]:
    """``sys.modules`` after running ``code`` in a fresh interpreter."""
    body = "\n".join("        " + line for line in code.splitlines())
    done = subprocess.run(
        [sys.executable, "-c", _CHILD.format(cache=cache_dir, body=body)],
        env=_env(cache_dir), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def entry_point_modules(script: str, cache_dir: str,
                        replay: bool = False) -> Set[str]:
    """What ``script`` loads; an analysis command runs its own code
    unless ``replay`` lets the command store answer it."""
    module, call = ENTRY_POINTS[script]
    name = call.split("(", 1)[0]
    drop = DROP_COMMANDS if script in ANALYSIS_COMMANDS and not replay else ""
    return loaded_modules(f"{drop}from {module} import {name}\n{call}",
                          cache_dir)


def warm(cache_dir: str) -> None:
    """Fill the IR, analysis and report stores the way a first run does."""
    loaded_modules("from repro.cli import main_extract\nmain_extract([])",
                   cache_dir)


def within(modules: Iterable[str], prefixes: Iterable[str]) -> List[str]:
    """The modules that are one of ``prefixes`` or inside one."""
    prefixes = tuple(prefixes)
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in prefixes))


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory) -> str:
    cache_dir = str(tmp_path_factory.mktemp("import-graph-cache"))
    warm(cache_dir)
    return cache_dir


class TestEntryPoints:
    def test_import_repro_loads_no_subpackage(self, warm_cache):
        modules = loaded_modules("import repro", warm_cache)
        assert within(modules, ["repro"]) == ["repro", "repro._lazy"]

    def test_corpus_cache_and_loader_load_no_ir(self, warm_cache):
        # Both name the IR only for type checks; it loads when a module
        # is actually unpickled or compiled.  The store's database
        # module loads on the first load or store, not at import.
        modules = loaded_modules(
            "import repro.corpus.cache, repro.corpus.loader", warm_cache)
        assert within(modules, ["repro.lang.ir", "repro.lang.cfg",
                                "repro.perf.lattice"]) == []
        assert "sqlite3" not in modules

    def test_service_client_skips_analysis_and_sqlite(self, warm_cache):
        modules = loaded_modules("import repro.serve.client", warm_cache)
        assert within(modules, ANALYSIS_STACK) == []
        assert "sqlite3" not in modules
        assert within(modules, ["repro.serve.db"]) == []

    def test_warm_extract_skips_frontend_and_checkers(self, warm_cache):
        # Without its stored report, a warm extract re-assembles the
        # report from the IR cache and the analysis store.
        modules = loaded_modules(
            DROP_COMMANDS
            + "from repro.corpus.cache import clear_reports\n"
            "assert clear_reports() == 1\n"
            "from repro.cli import main_extract\n"
            "main_extract([])", warm_cache)
        frontend = [f"repro.lang.{name}" for name in
                    ("lexer", "parser", "sema", "lower", "ast_nodes")]
        assert within(modules, frontend + [
            "repro.tools", "repro.fsimage", "repro.perf.campaign",
            "repro.serve"]) == []
        # The analysis itself did run.
        assert "repro.analysis.taint" in modules
        assert "repro.lang.ir" in modules
        # And it stored the report again: the next run reads only that.
        assert within(entry_point_modules("repro-extract", warm_cache),
                      REPORT_PATH_SKIPS) == []

    @pytest.mark.parametrize("script", ["repro-extract", "repro-condocck"])
    def test_stored_report_skips_the_analysis_stack(self, warm_cache,
                                                    script):
        modules = entry_point_modules(script, warm_cache)
        assert within(modules, REPORT_PATH_SKIPS) == []
        assert "repro.analysis.extractor" in modules

    @pytest.mark.parametrize("script", ["repro-study", "repro-demo"])
    def test_study_and_demo_never_extract(self, warm_cache, script):
        modules = entry_point_modules(script, warm_cache)
        assert within(modules, ["repro.analysis.extractor",
                                "repro.lang"]) == []

    def test_condocck_never_touches_images(self, warm_cache):
        modules = entry_point_modules("repro-condocck", warm_cache)
        assert within(modules, ["repro.fsimage"]) == []
        assert "repro.tools.condocck" in modules

    def test_default_conbugck_skips_the_campaign_engine(self, warm_cache):
        # The guided-vs-naive comparison drives configs in-process; only
        # ``--sample`` campaigns shard, so only they load the engine.
        modules = entry_point_modules("repro-conbugck", warm_cache)
        assert "repro.tools.conbugck" in modules
        assert "repro.perf.sampling" in modules
        assert within(modules, ["repro.perf.campaign",
                                "repro.perf.procpool"]) == []

    @pytest.mark.parametrize("script", ANALYSIS_COMMANDS)
    def test_replayed_command_loads_only_the_cli_and_the_store(
            self, warm_cache, script):
        first = entry_point_modules(script, warm_cache)  # runs and stores
        assert within(first, ["repro.cli_run"]) == ["repro.cli_run"]
        replayed = entry_point_modules(script, warm_cache, replay=True)
        assert within(replayed, ["repro"]) == REPLAY_MODULES
        assert "sqlite3" not in replayed

    def test_service_clients_skip_analysis(self, warm_cache):
        for script in ("repro-submit", "repro-top"):
            modules = entry_point_modules(script, warm_cache)
            assert within(modules, ANALYSIS_STACK) == [], script
            assert "sqlite3" not in modules, script
            assert "repro.cli" not in modules, script


# ---------------------------------------------------------------------------
# Layering, read from the source
# ---------------------------------------------------------------------------

#: Modules allowed to import the analysis stack at module level: the
#: provenance records sit *above* analysis (see their docstring).
LAYERING_EXEMPT = {"repro.obs.provenance"}


def module_file(name: str) -> Optional[str]:
    """The source file of module ``name`` under ``src``, if any."""
    base = os.path.join(SRC, *name.split("."))
    for path in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(path):
            return path
    return None


def _import_time_nodes(node: ast.AST) -> Iterable[ast.AST]:
    """The nodes that run when the module is imported: everything but
    function bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        yield child
        yield from _import_time_nodes(child)


def module_level_imports(name: str, bodies: bool = False) -> Set[str]:
    """The ``repro`` modules that importing ``name`` itself imports.

    Only code that runs at import counts (function bodies run later,
    when called) unless ``bodies`` is set; importing ``a.b.c`` also
    runs ``a`` and ``a.b``.
    """
    path = module_file(name)
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    is_package = path.endswith("__init__.py")
    targets: Set[str] = set()
    for node in (ast.walk(tree) if bodies else _import_time_nodes(tree)):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = name.split(".")
                if not is_package:
                    anchor = anchor[:-1]
                anchor = anchor[:len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            targets.add(base)
            # ``from pkg import sub`` runs the submodule too.
            targets.update(f"{base}.{alias.name}" for alias in node.names
                           if module_file(f"{base}.{alias.name}"))
    out: Set[str] = set()
    for target in targets:
        parts = target.split(".")
        out.update(".".join(parts[:i + 1]) for i in range(len(parts)))
    return {m for m in out if m.startswith("repro") and module_file(m)}


def import_closure(name: str, bodies: bool = False) -> Set[str]:
    """Every ``repro`` module importing ``name`` loads, transitively;
    with ``bodies``, also every module a function of one of them may
    import when called."""
    seen: Set[str] = set()
    stack = [name]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(module_level_imports(current, bodies) - seen)
    return seen


def package_modules(package: str) -> List[str]:
    directory = os.path.join(SRC, *package.split("."))
    return sorted(f"{package}.{entry[:-3]}".replace(".__init__", "")
                  for entry in os.listdir(directory)
                  if entry.endswith(".py"))


class TestLayering:
    @pytest.mark.parametrize("package", ["repro.serve", "repro.obs"])
    def test_service_and_obs_stay_below_analysis(self, package):
        offenders = {}
        for name in package_modules(package):
            if name in LAYERING_EXEMPT:
                continue
            reached = within(import_closure(name), ANALYSIS_STACK)
            if reached:
                offenders[name] = reached
        assert offenders == {}

    def test_closure_sees_through_packages(self):
        # The checker itself must notice a real analysis import.
        assert "repro.analysis.taint" in import_closure(
            "repro.obs.provenance")
        assert "repro.perf.timers" in import_closure("repro.serve.worker")


class TestReportKey:
    def test_every_package_file_feeds_the_store_keys(self, tmp_path,
                                                     monkeypatch):
        # Every store key (IR, analysis, report, command) hashes the
        # package digest, and the digest hashes every file of the
        # package, so an edit to any one file moves all four keys: no
        # edit can be answered by an entry its old code produced.
        from repro import store
        from repro.corpus import cache as disk

        copy = tmp_path / "repro"
        shutil.copytree(os.path.join(SRC, "repro"), copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        files = sorted(path for path in copy.rglob("*") if path.is_file())
        # Code, the modelled corpus and schemas: nothing escapes it.
        assert [path.name for path in files
                if path.suffix not in store.PACKAGE_SUFFIXES] == []

        def keys():
            monkeypatch.setattr(store, "_PACKAGE_DIGEST",
                                store.tree_digest(str(copy)))
            return (disk.module_key("int x;", "mount.c"),
                    disk.analysis_key("mount.c", "f", "slice", "fp",
                                      "mount"),
                    disk.report_key("Extractor", "()",
                                    [("mount.c", b"int x;")]),
                    store.command_key("repro-demo", {}))

        assert store.tree_digest(str(copy)) == store.package_digest()
        seen = [keys()]
        for path in files:
            blob = path.read_bytes()
            path.write_bytes(blob + b"\n")
            seen.append(keys())
            path.write_bytes(blob)
        for column in zip(*seen):
            assert len(set(column)) == len(files) + 1


def source_lines(modules: Iterable[str]) -> int:
    """Lines of source in the ``repro`` modules among ``modules``."""
    total = 0
    for name in modules:
        path = module_file(name)
        if path is not None:
            with open(path, encoding="utf-8") as handle:
                total += sum(1 for _line in handle)
    return total


def main() -> int:
    with tempfile.TemporaryDirectory() as cache_dir:
        warm(cache_dir)
        print(f"{'entry point':<28s} {'repro.* modules':>15s} "
              f"{'source lines':>12s}")
        for script in ENTRY_POINTS:
            runs = [("", False)]
            if script in ANALYSIS_COMMANDS:
                runs.append((" (replayed)", True))
            for label, replay in runs:
                modules = within(
                    entry_point_modules(script, cache_dir, replay=replay),
                    ["repro"])
                print(f"{script + label:<28s} {len(modules):>15d} "
                      f"{source_lines(modules):>12d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
