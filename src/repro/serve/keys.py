"""Content-keyed request identity: the dedup backbone of the service.

A run is identified by what it would *compute*, not by who asked or
when: sha256 over the serve schema version, the tool name, the
canonicalized request params, the corpus content hashes, the resolved
engine modes and the package digest (:func:`package_digest`, every
source and data file of :mod:`repro`).  This mirrors the
analysis-store key discipline (:func:`repro.corpus.cache.analysis_key`)
— content and code in, identity out — so two submissions that would
produce byte-identical results collapse onto one ``runs`` row, one
execution, one manifest, and a service upgraded under an existing
queue runs a request again instead of serving a result its old code
produced.

Canonicalization drops ``None``-valued params (absent and "defaulted"
spell the same request) and validates every name/value against the
tool registry in :mod:`repro.serve.worker`, so a key can never cover
two requests the worker would run differently.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

#: Queue states of a run (the ``runs.status`` column of
#: :mod:`repro.serve.db`).  They live here, with the run identity, so
#: the client can test a run's state without loading the queue.
QUEUED = "queued"
CLAIMED = "claimed"
DONE = "done"
FAILED = "failed"

STATES = (QUEUED, CLAIMED, DONE, FAILED)

#: Bump when the request→execution mapping changes (new tool semantics,
#: changed argv building) — orphans every queued/done run's identity at
#: once, exactly like a frontend-version bump orphans IR cache entries.
SERVE_SCHEMA = 1


#: File-name suffixes of the package files the run id covers: the
#: code, the modelled C corpus and the checked-in schemas.
PACKAGE_SUFFIXES = (".py", ".c", ".json")

_PACKAGE_DIGEST: Optional[str] = None


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
    """:func:`tree_digest` of the installed ``repro`` package.

    Computed on the first request key and kept for the process, so
    every later key pays one global read; a code edit is seen by the
    next server process.
    """
    global _PACKAGE_DIGEST
    if _PACKAGE_DIGEST is None:
        _PACKAGE_DIGEST = tree_digest(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    return _PACKAGE_DIGEST


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
    """The content key of one service request.

    ``corpus`` maps unit filename -> source sha256 (the corpus the run
    would analyze); ``engine`` is the engine-mode dict (empty while
    every stage has one engine — the slot keeps the key format stable).
    Any difference that could change what executes — a corpus edit, an
    extra param, a code edit — changes the key;
    anything that cannot (submission time, client identity, which API
    thread handled it) is absent from it.
    """
    payload = {
        "schema": SERVE_SCHEMA,
        "code": package_digest(),
        "tool": tool,
        "params": canonical_params(params),
        "corpus": {name: corpus[name] for name in sorted(corpus)},
        "engine": {name: engine[name] for name in sorted(engine)},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
