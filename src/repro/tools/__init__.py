"""The three dependency-consuming checkers of paper §4.2.

- :mod:`repro.tools.condocck` — ConDocCk: manual/code inconsistency,
- :mod:`repro.tools.conhandleck` — ConHandleCk: dependency-violation
  robustness testing against the simulated ecosystem,
- :mod:`repro.tools.conbugck` — ConBugCk: dependency-respecting
  configuration generation that drives tests deep into the target.
"""

from repro import _lazy

_lazy.install(globals(), {
    "repro.tools.condocck": ("ConDocCk", "DocIssue"),
    "repro.tools.conhandleck": ("ConHandleCk", "ViolationOutcome",
                                "ViolationReport"),
    "repro.tools.conbugck": ("ConBugCk", "GeneratedConfig"),
})
