"""Tier 8: the serving layer — HTTP API + DB-backed worker queue.

Turns the CLI-only pipeline into a long-lived service:

- :mod:`repro.serve.api`    — stdlib ``ThreadingHTTPServer`` accepting
  corpus uploads and extraction/checker/campaign requests;
- :mod:`repro.serve.db`     — the SQLite ``runs`` queue
  (queued→claimed→done/failed, leases with timeout reclaim, no
  broker) plus the content-addressed corpus snapshot store;
- :mod:`repro.serve.worker` — worker processes that claim compatible
  job batches and execute them through the CLI entry points, writing
  obs manifests as the run records;
- :mod:`repro.serve.keys`   — the content-keyed request identity
  (sha256 of corpus shas + resolved engine modes + request params)
  that gives **single-flight dedup**: concurrent identical requests
  coalesce onto one run id and all read its one result;
- :mod:`repro.serve.client` — stdlib ``urllib`` client used by
  ``repro-submit``, the benchmarks, and the CI service smoke.

The perf contract (enforced by ``benchmarks/bench_service.py``):
duplicate-request latency ≥5x below a cold run, a sustained-throughput
floor on a mixed workload, and service responses byte-identical to
direct CLI runs of the same request.
"""

from repro import _lazy

_lazy.install(globals(), {"repro.serve.keys": ("request_key",)})
