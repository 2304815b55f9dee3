"""The §3 empirical study: dataset, mining pipeline, classification.

- :mod:`repro.study.patches` — the curated 67 configuration-bug
  records (each modelled on a real Ext4-ecosystem bug class) plus a
  synthetic commit-history generator for the mining pipeline,
- :mod:`repro.study.mining` — keyword search over commit history and
  random sampling (§3.1: ~2,700 keyword hits, 400 sampled, 67 kept),
- :mod:`repro.study.classify` — scenario and dependency tallies that
  regenerate Tables 3 and 4.
"""

from repro import _lazy

_lazy.install(globals(), {
    "repro.study.patches": ("BugPatch", "CriticalDependency", "load_dataset"),
    "repro.study.mining": ("MiningPipeline", "MiningResult"),
    "repro.study.classify": ("scenario_table", "taxonomy_table"),
})
