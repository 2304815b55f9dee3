"""Dependency provenance: *why* the analyzer emitted what it emitted.

The extractor's output is a flat dependency list; the reasoning behind
each entry lives in the :class:`~repro.analysis.taint.TaintState` the
pipeline otherwise throws away — which parameter tainted which values,
which stores pushed that taint into shared FS metadata fields, and
which later-stage branch loaded it back and guarded an error path.
This module re-derives those facts (the per-function analyses are
memoized, so it costs microseconds after an extraction) and assembles
them into per-parameter provenance records:

    source param → tainted values → field stores → cross-component
    field loads → branch sinks

Surfaced as ``repro-extract --explain <param>`` and, behind
``--provenance``, embedded per dependency in the ``--json`` report.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.constraints import BranchUse, derive_constraints
from repro.analysis.model import Dependency, ParamRef
from repro.analysis.sources import SOURCES_BY_UNIT
from repro.analysis.taint import analyze_function
from repro.corpus.loader import load_unit
from repro.lang.cfg import build_cfg

#: Cap on trace instructions reproduced per tainted value — provenance
#: is an explanation, not an IR dump.
MAX_TRACE_INSTRS = 6

#: Cap on tainted-value trace entries per parameter.
MAX_TRACE_VALUES = 8


@dataclass
class ParamProvenance:
    """Everything the analyzer knows about one parameter's taint path."""

    param: str
    entry_points: List[Dict[str, Any]] = dc_field(default_factory=list)
    stores: List[Dict[str, Any]] = dc_field(default_factory=list)
    loads: List[Dict[str, Any]] = dc_field(default_factory=list)
    sinks: List[Dict[str, Any]] = dc_field(default_factory=list)
    shared_fields: List[str] = dc_field(default_factory=list)
    trace: List[Dict[str, Any]] = dc_field(default_factory=list)
    dependencies: List[str] = dc_field(default_factory=list)

    def to_dict(self, compact: bool = False) -> Dict[str, Any]:
        """JSON-ready dict; ``compact`` drops the instruction traces."""
        out: Dict[str, Any] = {
            "param": self.param,
            "entry_points": self.entry_points,
            "stores": self.stores,
            "loads": self.loads,
            "sinks": self.sinks,
            "shared_fields": self.shared_fields,
            "dependencies": self.dependencies,
        }
        if not compact:
            out["trace"] = self.trace
        return out

    def render(self) -> str:
        """The human-readable ``--explain`` report."""
        lines = [f"provenance for {self.param}"]
        if not (self.entry_points or self.stores or self.sinks):
            lines.append("  (parameter never observed by the analyzer)")
            return "\n".join(lines)
        if self.entry_points:
            lines.append("  enters the analysis at:")
            for ep in self.entry_points:
                lines.append(f"    {ep['unit']}:{ep['function']} "
                             f"as variable {ep['variable']!r}")
        if self.trace:
            lines.append("  taints (trace excerpt):")
            for entry in self.trace:
                instrs = ", ".join(
                    f"line {i['line']}" for i in entry["instrs"])
                lines.append(f"    {entry['value']} in {entry['function']} "
                             f"({instrs})")
        if self.stores:
            lines.append("  stored into shared metadata:")
            for st in self.stores:
                lines.append(f"    {st['struct']}.{st['field']} by "
                             f"{st['component']}:{st['function']} "
                             f"(line {st['line']})")
        if self.loads:
            lines.append("  loaded back by later components:")
            for ld in self.loads:
                lines.append(f"    {ld['struct']}.{ld['field']} in "
                             f"{ld['component']}:{ld['function']} "
                             f"(line {ld['line']})")
        if self.sinks:
            lines.append("  reaches branch sinks:")
            for sk in self.sinks:
                guard = "error guard" if sk["error_guard"] else "branch"
                lines.append(f"    {sk['component']}:{sk['function']} "
                             f"line {sk['line']} ({guard}, via {sk['via']})")
        if self.shared_fields:
            lines.append("  shared-struct fields on the path: "
                         + ", ".join(self.shared_fields))
        if self.dependencies:
            lines.append("  appears in extracted dependencies:")
            for key in self.dependencies:
                lines.append(f"    {key}")
        return "\n".join(lines)


class ProvenanceIndex:
    """Provenance facts for every pre-selected function of a run.

    Build once (cheap after an extraction — every per-function analysis
    is served from the memo tables), then :meth:`explain` any
    parameter.  ``report`` links parameters to the dependencies they
    appear in; without it the records still carry the full taint path.
    """

    def __init__(self) -> None:
        #: (unit, function) -> (component, TaintState, FunctionFindings)
        self._functions: Dict[Tuple[str, str], Tuple[str, Any, Any]] = {}
        self._dep_keys_by_param: Dict[str, List[str]] = {}
        self._explained: Dict[str, ParamProvenance] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, scenarios: Optional[Sequence[Any]] = None,
              report: Optional[Any] = None) -> "ProvenanceIndex":
        """Analyze every pre-selected function of ``scenarios``.

        ``scenarios`` defaults to the Table-5 set; ``report`` is an
        :class:`~repro.analysis.extractor.ExtractionReport` whose union
        is used to cross-link dependencies.
        """
        from repro.analysis.extractor import SCENARIOS

        index = cls()
        for spec in (scenarios if scenarios is not None else SCENARIOS):
            for filename, functions in spec.selected:
                for fn_name in functions:
                    index._add_function(filename, fn_name)
        if report is not None:
            index.link_report(report)
        return index

    def _add_function(self, filename: str, fn_name: str) -> None:
        key = (filename, fn_name)
        if key in self._functions:
            return
        unit = load_unit(filename)
        sources = SOURCES_BY_UNIT[filename]
        func = unit.function(fn_name)
        state = analyze_function(func, sources, unit.component)
        findings = derive_constraints(func, build_cfg(func), state, sources,
                                      unit.component, filename)
        self._functions[key] = (unit.component, state, findings)

    def link_report(self, report: Any) -> None:
        """Index ``report.union`` dependencies by parameter."""
        self._dep_keys_by_param.clear()
        self._explained.clear()
        for dep in report.union:
            for param in dep.params:
                self._dep_keys_by_param.setdefault(
                    str(param), []).append(dep.key())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def known_params(self) -> List[str]:
        """Every parameter name the analyzed sources can introduce."""
        seen: Set[str] = set()
        for (filename, fn_name), (component, state, findings) in \
                self._functions.items():
            sources = SOURCES_BY_UNIT[filename]
            for param in sources.sources_for(fn_name).values():
                seen.add(str(param))
        return sorted(seen)

    def resolve(self, text: str) -> str:
        """Resolve ``name`` or ``component.name`` to a known parameter."""
        known = self.known_params()
        if text in known:
            return text
        matches = [p for p in known if p.split(".", 1)[1] == text]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise ValueError(
                f"parameter {text!r} is ambiguous: {', '.join(matches)}")
        # Unknown parameters still get a (mostly empty) record when
        # fully qualified — the caller may be asking about a bridge
        # wildcard like 'mount.*'.
        if "." in text:
            return text
        raise ValueError(
            f"unknown parameter {text!r}; known: {', '.join(known[:10])}...")

    def explain(self, param_text: str) -> ParamProvenance:
        """The provenance record for one parameter (cached)."""
        param = self.resolve(param_text)
        cached = self._explained.get(param)
        if cached is not None:
            return cached
        record = self._build_record(param)
        self._explained[param] = record
        return record

    # ------------------------------------------------------------------
    # record assembly
    # ------------------------------------------------------------------

    def _build_record(self, param: str) -> ParamProvenance:
        component, _, name = param.partition(".")
        ref = ParamRef(component, name)
        record = ParamProvenance(param=param)
        stored_fields: Set[Tuple[str, str]] = set()

        for (filename, fn_name), (comp, state, findings) in \
                self._functions.items():
            sources = SOURCES_BY_UNIT[filename]
            for var, source_ref in sorted(sources.sources_for(fn_name).items()):
                if source_ref == ref:
                    record.entry_points.append({
                        "unit": filename, "function": fn_name,
                        "variable": var,
                    })
            for write in state.field_writes:
                if any(isinstance(l, ParamRef) and l == ref
                       for l in write.labels):
                    stored_fields.add((write.struct, write.field))
                    record.stores.append({
                        "unit": filename, "component": comp,
                        "function": write.function,
                        "struct": write.struct, "field": write.field,
                        "line": write.instr.line,
                        "labels": sorted(str(l) for l in write.labels),
                    })

        # Cross-component loads and branch sinks of the stored fields,
        # plus direct sinks in the parameter's own component.
        for (filename, fn_name), (comp, state, findings) in \
                self._functions.items():
            if comp != component:
                for read in state.field_reads:
                    if (read.struct, read.field) in stored_fields:
                        record.loads.append({
                            "unit": filename, "component": comp,
                            "function": read.function,
                            "struct": read.struct, "field": read.field,
                            "line": read.instr.line,
                        })
            for use in findings.branch_uses:
                self._add_sinks(record, use, comp, filename, ref,
                                stored_fields)

        record.trace = self._taint_trace(ref)
        record.shared_fields = sorted(
            f"{struct}.{field}" for struct, field in stored_fields
            if any(ld["struct"] == struct and ld["field"] == field
                   for ld in record.loads)
            or any(sk["via"] == f"{struct}.{field}" for sk in record.sinks)
        )
        record.dependencies = sorted(
            set(self._dep_keys_by_param.get(param, [])))
        _sort_records(record)
        return record

    def _add_sinks(self, record: ParamProvenance, use: BranchUse,
                   comp: str, filename: str, ref: ParamRef,
                   stored_fields: Set[Tuple[str, str]]) -> None:
        if ref in use.params:
            record.sinks.append({
                "unit": filename, "component": comp,
                "function": use.function, "line": use.line,
                "error_guard": use.error_guard, "via": "direct",
            })
            return
        if comp == ref.component:
            return
        for ft in use.fields:
            if (ft.struct, ft.field) not in stored_fields:
                continue
            if ft.feature is not None and ft.feature != ref.name:
                continue
            record.sinks.append({
                "unit": filename, "component": comp,
                "function": use.function, "line": use.line,
                "error_guard": use.error_guard,
                "via": f"{ft.struct}.{ft.field}",
            })

    def _taint_trace(self, ref: ParamRef) -> List[Dict[str, Any]]:
        """Excerpts of the TaintState traces carrying ``ref``."""
        out: List[Dict[str, Any]] = []
        for (filename, fn_name), (comp, state, _findings) in \
                self._functions.items():
            if comp != ref.component:
                continue
            for value, labels in state.taint.items():
                if ref not in labels:
                    continue
                instrs = state.trace.get(value, [])
                if not instrs:
                    continue
                out.append({
                    "function": fn_name,
                    "value": str(value),
                    "instrs": [
                        {"line": instr.line, "text": str(instr)}
                        for instr in instrs[:MAX_TRACE_INSTRS]
                    ],
                })
                if len(out) >= MAX_TRACE_VALUES:
                    return out
        return out


def _sort_records(record: ParamProvenance) -> None:
    """Deterministic ordering for every list the record carries."""
    record.entry_points.sort(key=lambda e: (e["unit"], e["function"],
                                            e["variable"]))
    record.stores.sort(key=lambda s: (s["unit"], s["function"], s["line"],
                                      s["struct"], s["field"]))
    record.loads.sort(key=lambda l: (l["unit"], l["function"], l["line"],
                                     l["struct"], l["field"]))
    record.sinks.sort(key=lambda s: (s["unit"], s["function"], s["line"],
                                     s["via"]))
    record.trace.sort(key=lambda t: (t["function"], t["value"]))


def dependency_provenance(index: ProvenanceIndex,
                          dep: Dependency,
                          compact: bool = True) -> Dict[str, Any]:
    """Per-parameter provenance records for one dependency."""
    out: Dict[str, Any] = {}
    for param in dep.params:
        try:
            out[str(param)] = index.explain(str(param)).to_dict(
                compact=compact)
        except ValueError:
            out[str(param)] = {"param": str(param), "unresolved": True}
    return out
