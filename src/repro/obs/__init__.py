"""Observability for the reproduction pipeline (``repro.obs``).

Four pieces, layered bottom-up:

- :mod:`repro.obs.metrics` — the metrics registry: phase timings and
  counters; :mod:`repro.perf.timers` is now a thin view over it, so
  ``--profile`` renders the same store the manifests snapshot;
- :mod:`repro.obs.tracer` — hierarchical spans with contextvar
  propagation and an explicit cross-thread handoff, near-zero cost
  when disabled;
- :mod:`repro.obs.events` — the JSONL event sink (``--trace``) and
  Chrome-trace-format exporter (``--chrome-trace``), both validated
  against checked-in schemas;
- :mod:`repro.obs.manifest` — atomic per-run manifests plus the
  ``repro-runs diff`` engine.

Every export resolves on first access, like every package here.  That
matters most for :mod:`repro.obs.provenance` (per-dependency taint-path
records, ``--explain``): it sits *above* the analysis layer, and
importing it eagerly would cycle through :mod:`repro.perf`, which
imports the tracer and metrics submodules directly.
"""

from __future__ import annotations

from repro import _lazy

_lazy.install(globals(), {
    "repro.obs.metrics": ("REGISTRY", "MetricsRegistry", "PhaseStat"),
    "repro.obs.tracer": ("Span", "Tracer", "span"),
}, submodules=("events", "manifest", "metrics", "provenance", "tracer"))
