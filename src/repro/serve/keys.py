"""Content-keyed request identity: the dedup backbone of the service.

A run is identified by what it would *compute*, not by who asked or
when: :func:`request_key` is sha256 over the serve schema version, the
tool name, the canonicalized request params, the corpus content
hashes, the resolved engine modes and the package digest
(:func:`repro.store.package_digest`, every source and data file of
:mod:`repro`).  This mirrors the store keys
(:func:`repro.corpus.cache.analysis_key`) — content and code in,
identity out — so two submissions that would produce byte-identical
results collapse onto one ``runs`` row, one execution, one manifest,
and a service upgraded under an existing queue runs a request again
instead of serving a result its old code produced.

The key itself lives in the store leaf (:mod:`repro.store`), where the
console commands' command store keys its entries the same way without
loading the service; it is re-exported here.  Canonicalization drops
``None``-valued params (absent and "defaulted" spell the same request)
and the worker validates every name/value against its tool registry
(:mod:`repro.serve.worker`), so a key can never cover two requests the
worker would run differently.
"""

from __future__ import annotations

from repro.store import (  # noqa: F401
    SERVE_SCHEMA,
    canonical_params,
    request_key,
)

#: Queue states of a run (the ``runs.status`` column of
#: :mod:`repro.serve.db`).  They live here, beside the run identity, so
#: the client can test a run's state without loading the queue.
QUEUED = "queued"
CLAIMED = "claimed"
DONE = "done"
FAILED = "failed"

STATES = (QUEUED, CLAIMED, DONE, FAILED)
