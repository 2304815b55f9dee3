"""Intra-procedural taint analysis over the mini-C IR (paper §4.1).

Faithful to the paper's description: we maintain (a) a *set* of tainted
values — the initial configuration variables and everything derived
from them, (b) a *trace* mapping each tainted value to the instructions
that tainted it, and (c) a *multi-parameter map* for values derived
from more than one parameter.  Propagation is a flow-insensitive
fixpoint, so loops converge and kills are ignored — the same
imprecision the paper reports (and the mechanism behind its false
positives).

Two taint label kinds exist:

- :class:`~repro.analysis.model.ParamRef` — a configuration parameter,
- :class:`FieldTaint` — "came from metadata field ``struct.field``",
  optionally refined to a specific feature bit when the load was masked
  with a known feature macro.

Field stores and loads are recorded as :class:`FieldWrite` /
:class:`FieldRead` events; :mod:`repro.analysis.bridge` joins them
across components.

Solver
------

A worklist solver over def-use edges
(:meth:`~repro.lang.ir.Instr.flow_dst` /
:meth:`~repro.lang.ir.Instr.flow_srcs`) drives the transfer functions
to their least fixpoint: only instructions whose inputs changed are
re-evaluated.  Rounds are structured to *replay* a chaotic-iteration
sweep schedule exactly — within a round instructions fire in ascending
reverse-postorder position, and a change at position ``p``
re-schedules users after ``p`` into the current round and users at or
before ``p`` into the next — so the result is byte-identical to full
sweeps until nothing changes (the skipped evaluations are provably
no-ops: transfers are deterministic and leave no footprint when their
inputs are unchanged).  The test suite keeps that full-sweep scheduler
as a reference engine and compares the two function by function.

Instructions run in reverse postorder of the CFG over the interned
label-set lattice (:mod:`repro.perf.lattice`), so "did this transfer
change anything" is a pointer comparison.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro import perf
from repro.analysis.model import ParamRef
from repro.analysis.sources import (
    FEATURE_MACROS,
    TAINT_PRESERVING_CALLS,
    TYPED_PARSERS,
    ComponentSources,
)
from repro.lang.cfg import build_cfg
from repro.obs.tracer import span as obs_span
from repro.lang.ir import (
    BinOp,
    CallInstr,
    Const,
    Function,
    Instr,
    LoadField,
    LoadIndex,
    Move,
    StoreField,
    StoreIndex,
    StrConst,
    Temp,
    UnOp,
    Value,
    Var,
)
from repro.perf import lattice

#: Extra sweeps/rounds the convergence bound allows beyond the
#: instruction count.  The longest dependency chain a flow-insensitive
#: sweep can still be propagating along is bounded by the number of
#: instructions, so ``n + slack`` sweeps means the transfer functions
#: are not monotone — a bug, not a big function.
CONVERGENCE_SLACK = 16


@dataclass(frozen=True)
class FieldTaint:
    """Taint label: value derived from a metadata field.

    ``feature`` is set when the value was masked with a known feature
    macro, pinning it to one feature bit of a feature word.
    """

    struct: str
    field: str
    feature: Optional[str] = None

    def __str__(self) -> str:
        suffix = f"#{self.feature}" if self.feature else ""
        return f"{self.struct}.{self.field}{suffix}"


Label = Union[ParamRef, FieldTaint]


@dataclass
class FieldWrite:
    """One store into a metadata field, with the taint of the value."""

    struct: str
    field: str
    labels: FrozenSet[Label]
    function: str
    instr: StoreField


@dataclass
class FieldRead:
    """One load from a metadata field."""

    struct: str
    field: str
    dst: Temp
    function: str
    instr: LoadField


#: label set -> (parameter labels, field labels).  Content-keyed (no
#: identity hazard: a frozenset caches its own hash) and shared across
#: states — the constraint deriver splits the same canonical sets for
#: every branch atom it classifies.
_SPLIT_MEMO: Dict[FrozenSet[Label], Tuple[FrozenSet[ParamRef], FrozenSet[FieldTaint]]] = {}

perf.register_memo("taint.split", _SPLIT_MEMO.clear)


class _FuncPrep:
    """Memoized per-function solver inputs (see ``TaintEngine._prep``).

    Everything here is derived from the immutable function body and is
    treated as read-only by every consumer: ``defs`` is installed on
    each :class:`TaintState` *without copying* (``defining()`` only
    reads it) and ``field_instrs`` is the store/load subsequence the
    field-event collector walks instead of the whole body.
    """

    __slots__ = ("func", "order", "users", "defs", "field_instrs")

    def __init__(self, func: Function, order: List[Instr],
                 users: Dict[Value, List[int]],
                 defs: Dict[Value, List[Instr]],
                 field_instrs: List[Instr]) -> None:
        self.func = func
        self.order = order
        self.users = users
        self.defs = defs
        self.field_instrs = field_instrs


#: id(function) -> its _FuncPrep.  The entry pins the function object
#: (strong reference), so an id can never be recycled while its entry
#: lives; racing workers compute identical entries, so last-write-wins
#: under the GIL is safe.
_PREP_MEMO: Dict[int, _FuncPrep] = {}

perf.register_memo("taint.prep", _PREP_MEMO.clear)


def _split_labels(
    labels: FrozenSet[Label],
) -> Tuple[FrozenSet[ParamRef], FrozenSet[FieldTaint]]:
    """``labels`` partitioned into (params, fields), memoized by content."""
    cached = _SPLIT_MEMO.get(labels)
    if cached is None:
        cached = (
            frozenset(l for l in labels if isinstance(l, ParamRef)),
            frozenset(l for l in labels if isinstance(l, FieldTaint)),
        )
        _SPLIT_MEMO[labels] = cached
    return cached


@dataclass
class TaintState:
    """Result of analyzing one function."""

    function: str
    taint: Dict[Value, FrozenSet[Label]] = dc_field(default_factory=dict)
    trace: Dict[Value, List[Instr]] = dc_field(default_factory=dict)
    parsed_type: Dict[Value, str] = dc_field(default_factory=dict)
    field_writes: List[FieldWrite] = dc_field(default_factory=list)
    field_reads: List[FieldRead] = dc_field(default_factory=list)
    defs: Dict[Value, List[Instr]] = dc_field(default_factory=dict)
    #: lazily computed multi-parameter map; dropped on every taint
    #: mutation (the engine owns invalidation while it runs).
    _mpm_cache: Optional[Dict[Value, FrozenSet[ParamRef]]] = dc_field(
        default=None, repr=False, compare=False
    )

    def labels(self, value: Value) -> FrozenSet[Label]:
        """Taint labels of ``value`` (constants are clean)."""
        t = type(value)  # exact types: the IR hierarchy is flat
        if t is Const or t is StrConst or value is None:
            return lattice.EMPTY
        return self.taint.get(value, lattice.EMPTY)

    def params(self, value: Value) -> FrozenSet[ParamRef]:
        """Only the parameter labels of ``value``."""
        return _split_labels(self.labels(value))[0]

    def fields(self, value: Value) -> FrozenSet[FieldTaint]:
        """Only the metadata-field labels of ``value``."""
        return _split_labels(self.labels(value))[1]

    @property
    def multi_param_map(self) -> Dict[Value, FrozenSet[ParamRef]]:
        """Values derived from two or more parameters (paper §4.1).

        Cached after the first access; the engine invalidates the cache
        whenever it mutates :attr:`taint`, so post-analysis consumers
        (the deriver asks per branch atom) pay the scan once.
        """
        if self._mpm_cache is None:
            out: Dict[Value, FrozenSet[ParamRef]] = {}
            for value, labels in self.taint.items():
                params = _split_labels(labels)[0]
                if len(params) >= 2:
                    out[value] = params
            self._mpm_cache = out
        return self._mpm_cache

    def invalidate_caches(self) -> None:
        """Drop derived caches after a direct mutation of :attr:`taint`."""
        self._mpm_cache = None

    def defining(self, value: Value) -> List[Instr]:
        """Instructions that define ``value`` in this function.

        Served from the :attr:`defs` index the engine builds up front —
        O(1) per query instead of a scan over the function body.
        """
        return self.defs.get(value, [])


class TaintEngine:
    """Analyze one function of one component's translation unit.

    The three optional hooks power the inter-procedural extension
    (:mod:`repro.analysis.interproc`); they default to empty, which is
    the paper's intra-procedural prototype:

    - ``initial_taint`` — extra labels seeded onto named values (e.g.
      callee parameters receiving caller-argument taint),
    - ``field_injections`` — labels every load of a (struct, field)
      additionally receives (unit-wide store/load matching),
    - ``call_returns`` — labels the result of a call to a unit-local
      function receives (return-taint summaries).

    Hook label sets are interned on entry so every set the transfer
    functions touch is canonical — the solver's pointer-comparison
    change detection requires it.
    """

    def __init__(self, func: Function, sources: ComponentSources,
                 component: str,
                 initial_taint: Optional[Dict[str, FrozenSet[Label]]] = None,
                 field_injections: Optional[Dict[Tuple[str, str], FrozenSet[Label]]] = None,
                 call_returns: Optional[Dict[str, FrozenSet[Label]]] = None,
                 ) -> None:
        self.func = func
        self.sources = sources
        self.component = component
        self.initial_taint = {
            name: lattice.intern_labels(labels)
            for name, labels in (initial_taint or {}).items()
        }
        self.field_injections = {
            key: lattice.intern_labels(labels)
            for key, labels in (field_injections or {}).items()
        }
        self.call_returns = {
            name: lattice.intern_labels(labels)
            for name, labels in (call_returns or {}).items()
        }
        self.state = TaintState(function=func.name)
        #: (struct, field) -> canonical labels a load of it produces.
        self._load_labels: Dict[Tuple[str, str], FrozenSet[Label]] = {}

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def run(self) -> TaintState:
        """Run the fixpoint; returns the populated TaintState."""
        state = self.state
        for var, param in self.sources.sources_for(self.func.name).items():
            state.taint[Var(var)] = lattice.intern_labels(frozenset([param]))
        for var, labels in self.initial_taint.items():
            value = Var(var)
            state.taint[value] = lattice.join(
                state.taint.get(value, lattice.EMPTY), labels
            )
        state.invalidate_caches()
        prep = self._prep()
        state.defs = prep.defs  # shared, read-only (see _FuncPrep)
        self._solve(prep)
        self._collect_field_events(prep.field_instrs)
        return state

    def _prep(self) -> "_FuncPrep":
        """Per-function solver inputs, memoized across engine runs.

        Instruction order, the def index, and the def-use edges depend
        only on the (immutable) function body, while the engine re-runs
        per component and per interprocedural round.  The memo holds a
        strong reference to the function, so its ``id`` key can never
        be recycled while the entry is alive.
        """
        key = id(self.func)
        cached = _PREP_MEMO.get(key)
        if cached is not None and cached.func is self.func:
            return cached
        defs: Dict[Value, List[Instr]] = {}
        field_instrs: List[Instr] = []
        for instr in self.func.instructions():
            for dst in instr.defs():
                defs.setdefault(dst, []).append(instr)
            t = type(instr)
            if t is StoreField or t is LoadField:
                field_instrs.append(instr)
        order = self._instruction_order()
        prep = _FuncPrep(self.func, order, self._use_edges(order), defs,
                         field_instrs)
        _PREP_MEMO[key] = prep
        return prep

    def _instruction_order(self) -> List[Instr]:
        """Instructions flattened in reverse postorder of the CFG.

        RPO lets one round push taint through every forward dependency
        chain, so only loop-carried (backward) flows cost extra rounds.  The analysis itself is flow-insensitive:
        the order affects convergence speed and trace ordering, never
        the fixpoint.
        """
        cfg = build_cfg(self.func)
        blocks = self.func.blocks
        order: List[Instr] = []
        for label in cfg.reverse_postorder():
            order.extend(blocks[label].instrs)
        return order

    # ------------------------------------------------------------------
    # scheduler
    # ------------------------------------------------------------------

    def _sweep_limit(self, n_instrs: int) -> int:
        """Convergence bound proportional to function size."""
        return max(1, n_instrs + CONVERGENCE_SLACK)

    def _diverged(self, scheduler: str, rounds: int, n_instrs: int,
                  pending: int, evaluations: int) -> RuntimeError:
        return RuntimeError(
            f"taint fixpoint did not converge in {self.func.name!r}: "
            f"{scheduler} solver ran {rounds} rounds over {n_instrs} "
            f"instructions ({evaluations} transfer evaluations, "
            f"{pending} still pending) — bound is instructions + "
            f"{CONVERGENCE_SLACK}, so a transfer function is not monotone"
        )

    def _solve(self, prep: "_FuncPrep") -> None:
        """Worklist iteration replaying the full-sweep schedule.

        Each round is a min-heap of pending positions, popped in
        ascending order (the heap only ever holds positions after the
        last pop, so a position fires at most once per round).  When a
        transfer at position ``p`` changes its destination, every user
        of that value after ``p`` joins the current round and every
        user at or before ``p`` joins the next — exactly the positions
        at which a full sweep would next observe the change.
        Instructions left out of a round are no-ops by construction:
        their inputs have not changed since they last fired.
        """
        order = prep.order
        n = len(order)
        limit = self._sweep_limit(n)
        current = list(range(n))  # ascending == already a valid heap
        in_current = [True] * n
        nxt: List[int] = []
        in_next = [False] * n
        rounds = 0
        pops = 0
        heappop, heappush = heapq.heappop, heapq.heappush
        transfer = self._transfer
        users_get = prep.users.get
        while current:
            rounds += 1
            if rounds > limit:
                raise self._diverged("sparse", rounds, n, len(current), pops)
            while current:
                pos = heappop(current)
                in_current[pos] = False
                pops += 1
                instr = order[pos]
                if not transfer(instr):
                    continue
                dst = instr.flow_dst()
                for user in users_get(dst, ()):
                    if user > pos:
                        if not in_current[user]:
                            in_current[user] = True
                            heappush(current, user)
                    elif not in_next[user]:
                        in_next[user] = True
                        nxt.append(user)
            for pos in nxt:
                in_next[pos] = False
                in_current[pos] = True
            heapq.heapify(nxt)
            current, nxt = nxt, []
        perf.bump("solver.sparse.rounds", rounds)
        perf.bump("solver.sparse.pops", pops)

    def _use_edges(self, order: List[Instr]) -> Dict[Value, List[int]]:
        """value -> ascending positions of instructions it feeds.

        Built from :meth:`~repro.lang.ir.Instr.flow_srcs`, filtered to
        the calls whose transfer actually reads argument taint — an
        opaque or summarized call's output is independent of its
        arguments, so re-evaluating it on argument changes would be
        pure overhead (though never incorrect).
        """
        users: Dict[Value, List[int]] = {}
        for pos, instr in enumerate(order):
            if type(instr) is CallInstr and instr.func not in TAINT_PRESERVING_CALLS:
                continue
            for src in instr.flow_srcs():
                t = type(src)
                if src is None or t is Const or t is StrConst:
                    continue
                users.setdefault(src, []).append(pos)
        return users

    # ------------------------------------------------------------------
    # transfer functions
    # ------------------------------------------------------------------

    def _transfer(self, instr: Instr) -> bool:
        state = self.state
        t = type(instr)  # exact types: the IR hierarchy is flat
        if t is Move:
            return self._add(instr.dst, state.labels(instr.src), instr)
        if t is BinOp:
            return self._add(instr.dst, self._binop_labels(instr), instr)
        if t is CallInstr:
            return self._transfer_call(instr)
        if t is LoadField:
            key = (instr.struct, instr.field)
            labels = self._load_labels.get(key)
            if labels is None:
                labels = lattice.join(
                    lattice.intern_labels(frozenset([FieldTaint(*key)])),
                    self.field_injections.get(key, lattice.EMPTY),
                )
                self._load_labels[key] = labels
            return self._add(instr.dst, labels, instr)
        if t is UnOp:
            return self._add(instr.dst, state.labels(instr.operand), instr)
        if t is LoadIndex:
            return self._add(instr.dst, state.labels(instr.base), instr)
        if t is StoreIndex:
            # Writing through an array cell taints the base aggregate.
            return self._add(instr.base, state.labels(instr.src), instr)
        return False

    def _binop_labels(self, instr: BinOp) -> FrozenSet[Label]:
        state = self.state
        combined = lattice.join(state.labels(instr.left), state.labels(instr.right))
        if instr.op == "&" and combined:
            feature = _feature_of(instr.left) or _feature_of(instr.right)
            if feature is not None and any(
                isinstance(l, FieldTaint) and l.feature is None for l in combined
            ):
                refined: Set[Label] = set()
                for label in combined:
                    if isinstance(label, FieldTaint) and label.feature is None:
                        refined.add(FieldTaint(label.struct, label.field, feature))
                    else:
                        refined.add(label)
                combined = lattice.intern_labels(refined)
        return combined

    def _transfer_call(self, instr: CallInstr) -> bool:
        state = self.state
        if instr.dst is None:
            return False
        if instr.func in TAINT_PRESERVING_CALLS:
            labels = lattice.EMPTY
            for arg in instr.args:
                labels = lattice.join(labels, state.labels(arg))
            changed = self._add(instr.dst, labels, instr)
            if instr.func in TYPED_PARSERS and instr.dst not in state.parsed_type:
                state.parsed_type[instr.dst] = TYPED_PARSERS[instr.func]
                changed = True
            return changed
        if instr.func in self.call_returns:
            return self._add(instr.dst, self.call_returns[instr.func], instr)
        # Opaque call: intra-procedural analysis stops here (paper §4.1).
        return False

    def _add(self, dst: Value, labels: FrozenSet[Label], instr: Instr) -> bool:
        if dst is None or not labels:
            return False
        state = self.state
        current = state.taint.get(dst, lattice.EMPTY)
        merged = lattice.join(current, labels)
        # Interned sets settle "did anything change" on the pointer
        # check.  The content comparison only runs on a real change (a
        # strictly larger set, so it fails on the size test); it keeps
        # the transfer correct over label sets that are equal but not
        # interned, which the tests' allocate-per-join reference
        # lattice produces.
        if merged is current or merged == current:
            return False
        state.taint[dst] = merged
        state._mpm_cache = None
        trace = state.trace.setdefault(dst, [])
        if instr not in trace:
            trace.append(instr)
        # Parsed-type information rides along moves into named variables.
        if type(instr) is Move and instr.src in state.parsed_type:
            state.parsed_type.setdefault(dst, state.parsed_type[instr.src])
        return True

    # ------------------------------------------------------------------
    # field events
    # ------------------------------------------------------------------

    def _collect_field_events(self, field_instrs: List[Instr]) -> None:
        state = self.state
        for instr in field_instrs:
            if isinstance(instr, StoreField):
                labels = set(state.labels(instr.src))
                feature = self._stored_feature(instr)
                if feature is not None:
                    labels.add(ParamRef(self.component, feature))
                state.field_writes.append(FieldWrite(
                    struct=instr.struct,
                    field=instr.field,
                    labels=frozenset(labels),
                    function=self.func.name,
                    instr=instr,
                ))
            elif isinstance(instr, LoadField):
                state.field_reads.append(FieldRead(
                    struct=instr.struct,
                    field=instr.field,
                    dst=instr.dst,
                    function=self.func.name,
                    instr=instr,
                ))

    def _stored_feature(self, store: StoreField) -> Optional[str]:
        """Feature name when the stored value ORs in a feature macro.

        Recognizes ``word |= EXT*_FEATURE_*`` — the idiom every
        component uses to set feature bits, which lets the analyzer
        attribute the store to the feature parameter.
        """
        value = store.src
        for definition in self.state.defining(value):
            if isinstance(definition, BinOp) and definition.op in ("|", "|="):
                feature = _feature_of(definition.left) or _feature_of(definition.right)
                if feature is not None:
                    return feature
        return None


def _feature_of(value: Value) -> Optional[str]:
    if isinstance(value, Const) and value.macro in FEATURE_MACROS:
        return FEATURE_MACROS[value.macro]
    return None


def analyze_function(func: Function, sources: ComponentSources,
                     component: str) -> TaintState:
    """Run the taint engine on one function.

    Nothing is memoized here: the extractor's summary memo and the
    analysis store sit above this call, so an extraction solves each
    function once per content.
    """
    with obs_span("taint.solve", function=func.name), \
            perf.timed("analysis.taint"):
        return TaintEngine(func, sources, component).run()
