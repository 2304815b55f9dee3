"""What every disk store shares, and the command store.

Four stores share one cache directory (:func:`cache_dir`), one switch
(``REPRO_NO_DISK_CACHE``) and one code digest.  Three of them are rows
of one SQLite table in ``store.db`` (:mod:`repro.corpus.cache`): unit
indexes, per-function analysis summaries and extraction reports.  The
fourth, defined here, holds whole console commands, one JSON file each.

This module is a leaf: at import it loads only the standard library,
so a console command answered from the command store compiles it and
:mod:`repro.cli`, and none of the analysis stack, the service, the
observability layer or the checkers.

**Package digest.**  :func:`package_digest` is sha256 over every
``.py``, ``.c`` and ``.json`` file under the ``repro`` package,
computed once per process.  Every store key and every run id cover it,
so an edit anywhere in the package makes each stored entry unreachable
in the next process.  When the package cannot be read the digest is ''
and every store is skipped.

**Run identity.**  :func:`request_key` names a run by what it would
compute: the tool, its canonical params, the corpus hashes, the engine
modes and the package digest.  The service dedups on it (its run id,
re-exported by :mod:`repro.serve.keys`), and the command store keys
its entries with it, so the CLI and the service share one notion of
"same run".

**Command store.**  A default-mode ``repro-*`` command prints what its
corpus, the code and its arguments decide.  One ``(stdout, stderr,
exit code)`` triple per command is kept, as a JSON list, under

    request_key(console script, parsed args, corpus hashes, {})

with the console script's name as the tool and the corpus hashes taken
from the effective corpus directory (``REPRO_CORPUS_DIR`` honoured).
:mod:`repro.cli` decides which runs may use it; runs that ask for fresh
work or write artifacts beside stdout never do.  A torn or foreign
entry is deleted and read as a miss.  The entries are JSON files, not
pickled rows like the other three stores': the key already loads
:mod:`json`, three plain values need no more, and a file read needs
no :mod:`sqlite3`, so a hit imports nothing of its own.  Nor does it
use the other stores' load helper, which records spans and counters
and so would load the observability layer on every hit.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Dict, Optional, Tuple

#: Environment override for the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Set to a truthy value to disable every disk store.
DISABLE_ENV = "REPRO_NO_DISK_CACHE"

#: Name prefix of the temp files atomic writes rename into place.
TMP_PREFIX = ".tmp-"

#: File-name suffix of the command store's entries.
COMMAND_SUFFIX = ".cmd.json"

#: File-name suffixes of the package files the digest covers: the
#: code, the modelled C corpus and the checked-in schemas.
PACKAGE_SUFFIXES = (".py", ".c", ".json")

_PACKAGE_DIGEST: Optional[str] = None


def disk_cache_enabled() -> bool:
    """False when ``REPRO_NO_DISK_CACHE`` is set to a truthy value."""
    return os.environ.get(DISABLE_ENV, "").strip() not in ("1", "true", "yes")


def cache_dir() -> str:
    """The cache directory (not necessarily existing yet)."""
    override = os.environ.get(CACHE_DIR_ENV, "").strip()
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "ir")


def write_atomic(path: str, write: Callable[[Any], None]) -> None:
    """Run ``write(handle)`` into a temp file, then rename it to ``path``.

    Readers see the old entry or the new one, never a torn one; a
    failed write removes its temp file and re-raises.  The temp file
    lives beside ``path``, whose directory is created if missing.
    """
    import tempfile  # only writers pay for it; a command-store hit does not

    folder = os.path.dirname(path)
    os.makedirs(folder, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=folder, prefix=TMP_PREFIX)
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise


def remove_entries(matches: Callable[[str], bool],
                   folder: Optional[str] = None) -> int:
    """Delete the files in ``folder`` (default: the cache directory)
    whose name ``matches``; the count."""
    folder = folder or cache_dir()
    try:
        names = os.listdir(folder)
    except OSError:
        return 0
    removed = 0
    for name in names:
        if not matches(name):
            continue
        try:
            os.remove(os.path.join(folder, name))
            removed += 1
        except OSError:
            pass
    return removed


# ---------------------------------------------------------------------------
# package digest
# ---------------------------------------------------------------------------


def tree_digest(root: str) -> str:
    """sha256 over every :data:`PACKAGE_SUFFIXES` file under ``root``,
    ``__pycache__`` skipped, in sorted relative-path order."""
    names = []
    for folder, dirs, files in os.walk(root):
        dirs[:] = [name for name in dirs if name != "__pycache__"]
        rel = os.path.relpath(folder, root)
        names.extend(os.path.normpath(os.path.join(rel, name))
                     .replace(os.sep, "/")
                     for name in files if name.endswith(PACKAGE_SUFFIXES))
    digest = hashlib.sha256()
    for name in sorted(names):
        with open(os.path.join(root, name), "rb") as handle:
            blob = handle.read()
        digest.update(f"{name} {len(blob)}\n".encode("utf-8"))
        digest.update(blob)
    return digest.hexdigest()


def package_digest() -> str:
    """:func:`tree_digest` of the installed ``repro`` package; '' if
    unreadable.

    Computed on the first key and kept for the process, so every later
    key pays one global read; a code edit is seen by the next process.
    """
    global _PACKAGE_DIGEST
    if _PACKAGE_DIGEST is None:
        try:
            _PACKAGE_DIGEST = tree_digest(
                os.path.dirname(os.path.abspath(__file__)))
        except OSError:
            return ""
    return _PACKAGE_DIGEST


# ---------------------------------------------------------------------------
# run identity
# ---------------------------------------------------------------------------

#: Bump when the request→execution mapping changes (new tool semantics,
#: changed argv building) — orphans every queued/done run's identity at
#: once, exactly like a frontend-version bump orphans IR cache entries.
SERVE_SCHEMA = 1


def canonical_params(params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Params with ``None`` entries dropped and keys sorted.

    ``{"jobs": None}`` and ``{}`` describe the same request; after
    canonicalization they produce the same key.
    """
    return {key: params[key] for key in sorted(params or {})
            if params[key] is not None}


def request_key(tool: str,
                params: Optional[Dict[str, Any]],
                corpus: Dict[str, str],
                engine: Dict[str, str]) -> str:
    """The content key of one run: the service's run id, and the
    command store's key.

    ``corpus`` maps unit filename -> source sha256 (the corpus the run
    would analyze); ``engine`` is the engine-mode dict (empty while
    every stage has one engine — the slot keeps the key format stable).
    Any difference that could change what executes — a corpus edit, an
    extra param, a code edit — changes the key;
    anything that cannot (submission time, client identity, which API
    thread handled it) is absent from it.
    """
    code = package_digest()
    if not code:
        raise OSError("the repro package sources are unreadable")
    payload = {
        "schema": SERVE_SCHEMA,
        "code": code,
        "tool": tool,
        "params": canonical_params(params),
        "corpus": {name: corpus[name] for name in sorted(corpus)},
        "engine": {name: engine[name] for name in sorted(engine)},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# command store
# ---------------------------------------------------------------------------


def corpus_hashes(directory: Optional[str] = None) -> Dict[str, str]:
    """filename -> sha256 of every ``*.c`` unit in ``directory`` (default:
    the effective corpus directory, ``REPRO_CORPUS_DIR`` honoured);
    OSError if unreadable.  The command key, the service's run ids and
    the manifests' ``corpus`` field all hash the corpus here."""
    if directory is None:
        from repro.corpus import corpus_dir

        directory = corpus_dir()
    out: Dict[str, str] = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".c"):
            with open(os.path.join(directory, name), "rb") as handle:
                out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


def command_key(tool: str, params: Dict[str, Any]) -> str:
    """The command store's key for one run of console script ``tool``
    with parsed arguments ``params``; '' when the run cannot be keyed
    (store disabled, package or corpus unreadable)."""
    if not disk_cache_enabled() or not package_digest():
        return ""
    try:
        corpus = corpus_hashes()
    except OSError:
        return ""
    return request_key(tool, params, corpus, {})


def _command_path(key: str) -> str:
    return os.path.join(cache_dir(), f"{key}{COMMAND_SUFFIX}")


def load_command(key: str) -> Optional[Tuple[str, str, int]]:
    """The stored ``(stdout, stderr, exit code)`` under ``key``, or
    None.  A torn, truncated or foreign entry is deleted: a miss."""
    path = _command_path(key)
    try:
        with open(path, "rb") as handle:
            value = json.loads(handle.read())
        out, err, code = value
        if not (type(value) is list and type(out) is str
                and type(err) is str and type(code) is int):
            raise TypeError(f"entry holds a {type(value).__name__}")
    except FileNotFoundError:
        return None
    except Exception:
        try:
            os.remove(path)
        except OSError:
            pass
        return None
    return out, err, code


def store_command(key: str, out: str, err: str, code: int) -> bool:
    """Atomically persist one command's output; False on failure (a
    read-only or full cache dir costs the next run a recompute)."""
    try:
        blob = json.dumps([out, err, code]).encode("utf-8")
        write_atomic(_command_path(key), lambda handle: handle.write(blob))
    except Exception:
        return False
    return True


def clear_commands() -> int:
    """Delete every command-store entry, leaving the other stores warm.

    What a test calls to run a command's own code over warm IR,
    analysis and report stores.
    """
    return remove_entries(lambda name: name.endswith(COMMAND_SUFFIX))
