"""Multi-level configuration-dependency extraction (the paper's core).

Pipeline (paper §4.1):

1. :mod:`repro.analysis.sources` declares the initial configuration
   variables per component (the paper's manual annotations).
2. :mod:`repro.analysis.taint` propagates taint along the data-flow
   paths of each pre-selected function, keeping the taint set, the
   taint trace, and the multi-parameter map.
3. :mod:`repro.analysis.constraints` turns guarded comparisons into
   Self-Dependencies and Cross-Parameter Dependencies.
4. :mod:`repro.analysis.bridge` joins metadata-field stores and loads
   across components into Cross-Component Dependencies.
5. :mod:`repro.analysis.extractor` drives the four usage scenarios and
   produces the Table-5 report; :mod:`repro.analysis.jsonio` persists
   dependencies as JSON.
"""

from repro import _lazy

_lazy.install(globals(), {
    "repro.analysis.model": ("Category", "SubKind", "ParamRef", "Dependency"),
    "repro.analysis.taint": ("TaintEngine", "TaintState"),
    "repro.analysis.extractor": ("Extractor", "ExtractionReport",
                                 "SCENARIOS"),
})
