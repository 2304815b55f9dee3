"""Inter-procedural taint analysis — the paper's §6 future work.

The HotStorage prototype "can handle intra-procedure taint analysis but
not inter-procedure analysis", which is why Table 5 extracts no
cross-component dependencies for the create/mount scenarios and only a
handful overall.  This module implements the anticipated extension as a
*unit-level* fixpoint on top of the unchanged intra-procedural engine:

1. **Store/load matching** — taint stored into a struct field anywhere
   in a translation unit flows to every load of that field in the unit
   (how the kernel's `ext4_sb_info` copies carry `ext2_super_block`
   taint from ``ext4_load_super`` into ``ext4_fill_super``).
2. **Call summaries** — a call to a unit-local function propagates
   argument taint into the callee's parameters and the callee's return
   taint back to the call site (context-insensitive).

Everything stays flow-insensitive, so the analysis inherits the
prototype's imprecision characteristics; it simply *sees further*.  As
the paper predicts, the extra reach surfaces additional CCDs —
including the dax/block-size and data=journal/has_journal mount
dependencies the intra-procedural prototype misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.bridge import ComponentSummary, FieldStore, MetadataBridge
from repro.analysis.constraints import derive_constraints
from repro.analysis.extractor import (
    ExtractionReport,
    ScenarioResult,
    ScenarioSpec,
    _dedupe,
)
from repro.analysis.model import Dependency
from repro.analysis.sources import SOURCES_BY_UNIT, ComponentSources
from repro.analysis.taint import Label, TaintEngine, TaintState
from repro.corpus.loader import CorpusUnit, load_unit
from repro.lang.cfg import build_cfg
from repro.lang.ir import CallInstr, Ret
from repro.obs.tracer import span
from repro.perf import timed

#: Upper bound on fixpoint rounds (label sets are finite; this is a
#: safety net, not a tuning knob).
MAX_ROUNDS = 12


@dataclass
class UnitAnalysis:
    """Inter-procedural analysis of one translation unit."""

    unit: CorpusUnit
    sources: ComponentSources
    states: Dict[str, TaintState] = dc_field(default_factory=dict)
    rounds: int = 0

    def run(self) -> Dict[str, TaintState]:
        """Fixpoint over store/load matching and call summaries."""
        module = self.unit.module
        param_taint: Dict[str, Dict[str, Set[Label]]] = {
            name: {} for name in module.functions
        }
        field_inj: Dict[Tuple[str, str], Set[Label]] = {}
        call_ret: Dict[str, Set[Label]] = {}

        for self.rounds in range(1, MAX_ROUNDS + 1):
            states = self._analyze_all(param_taint, field_inj, call_ret)
            changed = False
            changed |= self._update_field_summaries(states, field_inj)
            changed |= self._update_call_summaries(states, param_taint, call_ret)
            self.states = states
            if not changed:
                break
        return self.states

    # ------------------------------------------------------------------
    # one round
    # ------------------------------------------------------------------

    def _analyze_all(self, param_taint, field_inj, call_ret) -> Dict[str, TaintState]:
        frozen_inj = {k: frozenset(v) for k, v in field_inj.items()}
        frozen_ret = {k: frozenset(v) for k, v in call_ret.items() if v}

        def run_one(item: Tuple[str, object]) -> Tuple[str, TaintState]:
            name, func = item
            initial = {
                var: frozenset(labels)
                for var, labels in param_taint[name].items()
                if labels
            }
            engine = TaintEngine(
                func, self.sources, self.unit.component,
                initial_taint=initial,
                field_injections=frozen_inj,
                call_returns=frozen_ret,
            )
            return name, engine.run()

        with span("interproc.round", unit=self.unit.filename,
                  round=self.rounds), timed("interproc.round"):
            return dict(run_one(item)
                        for item in self.unit.module.functions.items())

    @staticmethod
    def _update_field_summaries(states: Dict[str, TaintState],
                                field_inj: Dict[Tuple[str, str], Set[Label]]) -> bool:
        changed = False
        for state in states.values():
            for write in state.field_writes:
                key = (write.struct, write.field)
                bucket = field_inj.setdefault(key, set())
                before = len(bucket)
                bucket |= write.labels
                changed |= len(bucket) != before
        return changed

    def _update_call_summaries(self, states: Dict[str, TaintState],
                               param_taint: Dict[str, Dict[str, Set[Label]]],
                               call_ret: Dict[str, Set[Label]]) -> bool:
        module = self.unit.module
        changed = False
        # return-taint summaries
        for name, func in module.functions.items():
            state = states[name]
            bucket = call_ret.setdefault(name, set())
            before = len(bucket)
            for instr in func.instructions():
                if isinstance(instr, Ret) and instr.value is not None:
                    bucket |= state.labels(instr.value)
            changed |= len(bucket) != before
        # argument-to-parameter propagation
        for name, func in module.functions.items():
            state = states[name]
            for instr in func.instructions():
                if not isinstance(instr, CallInstr):
                    continue
                callee = module.functions.get(instr.func)
                if callee is None:
                    continue
                for param_name, arg in zip(callee.params, instr.args):
                    labels = state.labels(arg)
                    if not labels:
                        continue
                    bucket = param_taint[instr.func].setdefault(param_name, set())
                    before = len(bucket)
                    bucket |= labels
                    changed |= len(bucket) != before
        return changed


def full_pipeline_spec() -> ScenarioSpec:
    """All corpus units, every function, in pipeline (stage) order."""
    order = ("mke2fs.c", "mount.c", "ext4_super.c", "e4defrag.c",
             "libext2fs.c", "resize2fs.c", "e2fsck.c")
    selected = []
    for filename in order:
        unit = load_unit(filename)
        selected.append((filename, tuple(unit.module.functions)))
    return ScenarioSpec(
        name="full pipeline (inter-procedural)",
        key_utilities=("mke2fs", "mount", "ext4", "e4defrag",
                       "resize2fs", "e2fsck"),
        selected=tuple(selected),
    )


class InterproceduralExtractor:
    """Scenario extraction with the inter-procedural engine."""

    def __init__(self,
                 scenarios: Optional[Sequence[ScenarioSpec]] = None) -> None:
        self.scenarios = tuple(scenarios) if scenarios else (full_pipeline_spec(),)

    def extract_scenario(self, spec: ScenarioSpec) -> ScenarioResult:
        """Extract one scenario with the inter-procedural engine."""
        deps: List[Dependency] = []
        summaries: List[ComponentSummary] = []
        for filename, functions in spec.selected:
            unit = load_unit(filename)
            sources = SOURCES_BY_UNIT[filename]
            states = UnitAnalysis(unit, sources).run()

            def derive_one(fn_name: str):
                func = unit.module.function(fn_name)
                state = states[fn_name]
                findings = derive_constraints(
                    func, build_cfg(func), state, sources,
                    unit.component, filename,
                )
                return state, findings

            derived = [derive_one(fn_name) for fn_name in functions]
            summary = ComponentSummary(unit.component, filename)
            for state, findings in derived:
                deps.extend(findings.dependencies)
                summary.field_writes.extend(
                    FieldStore.of(write) for write in state.field_writes)
                summary.branch_uses.extend(findings.branch_uses)
            summaries.append(summary)
        deps.extend(MetadataBridge(summaries).join())
        return ScenarioResult(spec, _dedupe(deps))

    def extract_all(self) -> ExtractionReport:
        """Extract every configured scenario plus the union."""
        results = [self.extract_scenario(spec) for spec in self.scenarios]
        union: List[Dependency] = []
        for result in results:
            union.extend(result.dependencies)
        return ExtractionReport(results, _dedupe(union))


def extract_interprocedural() -> ExtractionReport:
    """Run the full-pipeline inter-procedural extraction."""
    return InterproceduralExtractor().extract_all()
