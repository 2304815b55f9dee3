"""Content-keyed request identity: the dedup backbone of the service.

A run is identified by what it would *compute*, not by who asked or
when: sha256 over the serve schema version, the tool name, the
canonicalized request params, the corpus content hashes, and the
resolved engine modes.  This mirrors the analysis-store key discipline
(:func:`repro.corpus.cache.analysis_key`) — content in, identity out —
so two submissions that would produce byte-identical results collapse
onto one ``runs`` row, one execution, one manifest.

Canonicalization drops ``None``-valued params (absent and "defaulted"
spell the same request) and validates every name/value against the
tool registry in :mod:`repro.serve.worker`, so a key can never cover
two requests the worker would run differently.
"""

from __future__ import annotations

import hashlib
import json
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
    extra param — changes the key;
    anything that cannot (submission time, client identity, which API
    thread handled it) is absent from it.
    """
    payload = {
        "schema": SERVE_SCHEMA,
        "tool": tool,
        "params": canonical_params(params),
        "corpus": {name: corpus[name] for name in sorted(corpus)},
        "engine": {name: engine[name] for name in sorted(engine)},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
