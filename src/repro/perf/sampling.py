"""Deterministic, seeded configuration sampling over a param registry.

Campaign-scale checking (ROADMAP item 3) needs configuration *sets*, not
hand-enumerated lists: this module turns a
:class:`repro.ecosystem.params.ParamRegistry` into a finite sampling
space and provides three generator families from "A Comparison of 10
Sampling Algorithms for Configurable Systems" (arXiv 1602.02052):

- :class:`RandomSampler` — seeded uniform sampling.  Each configuration
  is derived from ``(seed, index)`` through a counter-based splitmix64
  stream, so config ``i`` is the same no matter which shard generates it
  or how many configs came before — the property that lets a sharded
  campaign regenerate any slice in O(slice) without materializing the
  whole campaign.  Every stream word comes from one block kernel,
  :func:`draw_rows`, which computes :data:`BLOCK` rows per pass with
  each 64-bit lane in its own 128-bit slot of one int.
- :class:`TWiseSampler` — greedy IPOG-style covering arrays (``t=2`` is
  pairwise): every value combination of every ``t`` parameters appears
  in at least one sampled config.  Construction is deterministic
  (horizontal extension picks the first best value, vertical extension
  fills don't-cares from the seeded stream).
- :class:`FeasibleSampler` — wraps either of the above and skips
  configurations that violate *extracted* dependencies (feature
  requires/conflicts and value ranges from the Table-5 extraction), the
  dependency-aware strategy: configs mkfs would reject are never driven.

All samplers expose the same surface: ``total()`` (how many configs the
campaign drives), ``iter_range(lo, hi)`` (regenerate global config
indices ``[lo, hi)``), and ``shard_hints(ranges)`` (per-shard resume
state so no shard pays more than its own slice — the feasible scan and
the covering-array construction are done once, here, not once per
shard: a covering array ships each shard its own rows as a
:class:`RowSlice`).

Python's :class:`random.Random` is deliberately not used for the
counter-based streams: splitmix64 is a few integer ops per draw, has no
624-word init cost per config, and its output is bit-stable across
platforms and Python versions by construction.  Those few ops are what
packs: over a block they are a dozen bignum operations in C instead of
a dozen bytecodes per value, ~3x faster over the 66-domain campaign
space (600 rows: 6–10 ms against 19–34 ms for the per-value loop on a
shared 2-CPU x86-64 host, Python 3.11.7).
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from functools import lru_cache
from itertools import combinations, product
from typing import Dict, Iterator, List, NamedTuple, Optional, \
    Sequence, Set, Tuple

from repro.ecosystem.params import ConfigParam, ParamKind, ParamRegistry
from repro.obs.tracer import span
from repro.perf.timers import bump, timed

#: One sampled configuration: a value per domain, in domain order.
Assignment = Tuple[object, ...]

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_INDEX_STRIDE = 0xD1B54A32D192ED03

#: Rows per kernel pass.  A block's lanes share one int of
#: ``BLOCK * len(choices) * 128`` bits, so the constant bounds the ints
#: a pass touches (~66 KiB over the 66-domain campaign space).
BLOCK = 64
#: The low 64-bit word of every 128-bit slot, in lane order, from the
#: slot int's bytes in native order.
_LOW_WORDS = slice(None, None, 2) if sys.byteorder == "little" \
    else slice(None, None, -2)


@lru_cache(maxsize=32)
def _block_lanes(width: int, rows: int) -> Tuple[int, int, int, int]:
    """``(offsets, ones, mask, nbytes)`` for a block of ``rows`` rows of
    ``width`` values.  Value ``j`` of row ``r`` is lane ``r * width + j``,
    in the 128-bit slot of that number: ``offsets`` holds each lane's
    state offset from the block's first row (``r * STRIDE + (j + 1) *
    GOLDEN``), ``ones`` a 1 in each slot, ``mask`` 64 ones in each slot,
    and ``nbytes`` is the block's size.  Cached per shape: a campaign
    uses one full-block shape per width plus each window's tail."""
    lanes = width * rows
    mask = int.from_bytes((b"\xff" * 8 + bytes(8)) * lanes, "little")
    # Row and column parts built by repeating bytes, added slot-wise.
    by_row = int.from_bytes(b"".join(
        ((r * _INDEX_STRIDE) & _M64).to_bytes(16, "little") * width
        for r in range(rows)), "little")
    by_column = int.from_bytes(b"".join(
        ((j * _GOLDEN) & _M64).to_bytes(16, "little")
        for j in range(1, width + 1)) * rows, "little")
    ones = int.from_bytes((b"\x01" + bytes(15)) * lanes, "little")
    return (by_row + by_column) & mask, ones, mask, 16 * lanes


def draw_rows(seed: int, lo: int, hi: int,
              choices: Sequence[Sequence[object]]) -> List[Assignment]:
    """Rows ``[lo, hi)`` of the ``(seed, index)`` splitmix64 streams:
    row ``i`` holds one value from each of ``choices``, in order.

    Row ``i``'s stream starts at ``seed * GOLDEN + i * STRIDE`` (two
    distinct odd constants, so ``(seed, i)`` and ``(seed + 1, i - 1)``
    do not collide) and advances by ``GOLDEN`` per value; each value is
    the splitmix64 finalizer of the state, taken modulo the choice's
    length (len << 2^64, so the modulo bias is far below anything a
    campaign could observe).  A word depends only on ``(seed, i,
    position)``, so any window regenerates the same rows.

    This is the stream's only implementation.  It runs a block of
    :data:`BLOCK` rows per pass: every word of the block sits in its
    own 128-bit slot of one int, so each add, xor-shift, multiply and
    mask of the finalizer is one bignum operation over the whole block
    (a masked 64-bit lane times a 64-bit constant fits its slot).  The
    words come back through ``to_bytes``, and each domain's column maps
    through ``values[word % len(values)]``.
    """
    width = len(choices)
    if not width:
        return [()] * max(0, hi - lo)
    out: List[Assignment] = []
    base = seed * _GOLDEN
    columns = tuple(zip(range(width), choices, map(len, choices)))
    for start in range(lo, hi, BLOCK):
        offsets, ones, mask, nbytes = _block_lanes(width,
                                                   min(BLOCK, hi - start))
        x = (((base + start * _INDEX_STRIDE) & _M64) * ones + offsets) & mask
        x = ((x ^ (x >> 30)) & mask) * _MIX_A & mask
        x = ((x ^ (x >> 27)) & mask) * _MIX_B & mask
        # The last shift leaves the next lane's bits above bit 64 of
        # each slot, which the read below drops.
        x ^= x >> 31
        words = memoryview(x.to_bytes(nbytes, sys.byteorder)).cast(
            "Q")[_LOW_WORDS]
        out.extend(zip(*[[values[w % n] for w in words[j::width]]
                         for j, values, n in columns]))
        bump("sampling.draw.blocks")
    return out


def iter_rows(seed: int, lo: int, hi: int,
              choices: Sequence[Sequence[object]],
              ) -> Iterator[Tuple[int, Assignment]]:
    """``(index, row)`` for rows ``[lo, hi)`` of :func:`draw_rows`,
    drawn a block at a time, so a consumer that stops early (the
    feasible scan) draws at most one block past its last row, and a
    long window never materializes."""
    for start in range(lo, hi, BLOCK):
        yield from enumerate(
            draw_rows(seed, start, min(start + BLOCK, hi), choices), start)


class Domain:
    """One sampleable parameter: a name and its finite probe values."""

    __slots__ = ("name", "component", "values")

    def __init__(self, name: str, component: str,
                 values: Tuple[object, ...]) -> None:
        if not values:
            raise ValueError(f"domain {name!r} has no values")
        if any(a == b for a, b in combinations(values, 2)):
            raise ValueError(f"domain {name!r} repeats a value: {values!r}")
        self.name = name
        self.component = component
        self.values = values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Domain({self.component}.{self.name}, {self.values!r})"


def _probe_values(param: ConfigParam) -> Optional[Tuple[object, ...]]:
    """The finite probe set for one registry param, or ``None`` to skip.

    Booleans and features probe both states, enums probe every choice,
    and bounded numerics probe the boundary values plus the default —
    the places the paper's value-range dependencies bite.  Free-form
    strings and UUIDs have no finite domain and are skipped.
    """
    if param.kind in (ParamKind.FLAG, ParamKind.FEATURE):
        return (False, True)
    if param.kind is ParamKind.ENUM:
        return tuple(param.choices or ())
    if param.kind in (ParamKind.INT, ParamKind.SIZE):
        probes = []
        for value in (param.min_value, param.default, param.max_value):
            if isinstance(value, int) and value not in probes:
                probes.append(value)
        return tuple(sorted(probes)) if probes else None
    return None


class ConfigSpace:
    """A finite sampling space derived from a param registry."""

    def __init__(self, domains: Sequence[Domain]) -> None:
        if not domains:
            raise ValueError("a config space needs at least one domain")
        self.domains: Tuple[Domain, ...] = tuple(domains)
        self._index = {d.name: i for i, d in enumerate(self.domains)}

    @classmethod
    def from_registry(cls, registry: ParamRegistry,
                      components: Optional[Sequence[str]] = None,
                      probe_overrides: Optional[
                          Dict[str, Tuple[object, ...]]] = None,
                      ) -> "ConfigSpace":
        """Build the space from a registry, in registration order.

        ``components`` restricts which ecosystem components contribute
        params; ``probe_overrides`` replaces the derived probe set for a
        named param (e.g. capping ``blocksize`` probes so a sampled
        device stays small).
        """
        overrides = probe_overrides or {}
        wanted = set(components) if components is not None else None
        domains: List[Domain] = []
        for param in registry:
            if wanted is not None and param.component not in wanted:
                continue
            values = overrides.get(param.name, _probe_values(param))
            if values:
                domains.append(Domain(param.name, param.component,
                                      tuple(values)))
        return cls(domains)

    def __len__(self) -> int:
        return len(self.domains)

    def index_of(self, name: str) -> int:
        return self._index[name]

    def assignment_dict(self, assignment: Assignment) -> Dict[str, object]:
        """``name -> value`` view of one assignment."""
        return {d.name: v for d, v in zip(self.domains, assignment)}

    def combinations(self) -> int:
        """Size of the full cartesian space (for coverage reporting)."""
        size = 1
        for domain in self.domains:
            size *= len(domain.values)
        return size


class ConstraintIndex:
    """Extracted dependencies, indexed for feasibility checks.

    ``requires``/``conflicts`` hold mke2fs feature-pair control
    dependencies, ``ranges`` the per-param value ranges — exactly the
    index :class:`~repro.tools.conbugck.ConBugCk` uses for guided
    generation, factored out so samplers and shard workers can consult
    it without constructing a checker.
    """

    def __init__(self,
                 requires: Sequence[Tuple[str, str]] = (),
                 conflicts: Sequence[Tuple[str, str]] = (),
                 ranges: Optional[Dict[str, Tuple[Optional[int],
                                                  Optional[int]]]] = None,
                 ) -> None:
        self.requires: List[Tuple[str, str]] = [tuple(p) for p in requires]
        self.conflicts: List[Tuple[str, str]] = [tuple(p) for p in conflicts]
        self.ranges: Dict[str, Tuple[Optional[int], Optional[int]]] = {
            name: (lo, hi) for name, (lo, hi) in (ranges or {}).items()}
        self._plan: Optional[FeasibilityPlan] = None

    @classmethod
    def from_dependencies(cls, dependencies: Sequence[object],
                          ) -> "ConstraintIndex":
        """Index a validated dependency list (Table-5 output)."""
        from repro.analysis.model import SubKind
        from repro.ecosystem.featureset import all_feature_names

        feature_names = set(all_feature_names())
        index = cls()
        for dep in dependencies:
            if dep.kind is SubKind.CPD_CONTROL and \
                    dep.params[0].component == "mke2fs":
                a, b = dep.params[0].name, dep.params[-1].name
                if a in feature_names and b in feature_names:
                    relation = dep.constraint_dict.get("relation")
                    if relation == "requires":
                        index.requires.append((a, b))
                    else:
                        index.conflicts.append((a, b))
            elif dep.kind is SubKind.SD_VALUE_RANGE and \
                    dep.params[0].component == "mke2fs":
                cdict = dep.constraint_dict
                index.ranges[dep.params[0].name] = (
                    cdict.get("min"), cdict.get("max"))
        return index

    def as_payload(self) -> Dict[str, object]:
        """A plain-container form that survives pickling to workers."""
        return {
            "requires": [list(p) for p in self.requires],
            "conflicts": [list(p) for p in self.conflicts],
            "ranges": {name: [lo, hi]
                       for name, (lo, hi) in self.ranges.items()},
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ConstraintIndex":
        return cls(requires=[tuple(p) for p in payload.get("requires", ())],
                   conflicts=[tuple(p) for p in payload.get("conflicts", ())],
                   ranges={name: (lo, hi) for name, (lo, hi)
                           in dict(payload.get("ranges", {})).items()})

    def plan(self, space: ConfigSpace) -> "FeasibilityPlan":
        """The feasibility check over ``space``, built on first use per
        space (the index is final once consulted)."""
        plan = self._plan
        if plan is None or plan.space is not space:
            plan = self._plan = FeasibilityPlan(self, space)
        return plan

    def feasible(self, space: ConfigSpace, assignment: Assignment) -> bool:
        """Whether an assignment satisfies every indexed dependency."""
        return self.plan(space)(assignment)


class FeasibilityPlan:
    """A :class:`ConstraintIndex` resolved to positions of one space.

    A name is enabled when any domain of that name holds ``True``; a
    ``requires`` pair fails when its first name is enabled and its
    second is not, a ``conflicts`` pair when both are, and a range when
    an int (not bool) value falls outside it.  The plan resolves every
    name to its positions once, so checking one assignment reads only
    the positions some dependency names: no per-domain walk, no
    ``enabled`` set.
    """

    __slots__ = ("space", "_ranges", "_requires", "_conflicts")

    def __init__(self, index: ConstraintIndex, space: ConfigSpace) -> None:
        positions: Dict[str, List[int]] = {}
        for pos, domain in enumerate(space.domains):
            positions.setdefault(domain.name, []).append(pos)
        self.space = space
        #: ``(position, lo, hi)`` for every domain with a range.
        self._ranges = tuple(
            (pos, lo, hi) for name, (lo, hi) in index.ranges.items()
            for pos in positions.get(name, ()))
        #: ``(position of a, positions of b)``: fails when ``a`` is on
        #: and no ``b`` is.
        self._requires = tuple(
            (pos, tuple(positions.get(b, ())))
            for a, b in index.requires for pos in positions.get(a, ()))
        #: Position pairs that must not both be on.
        self._conflicts = tuple(
            (p, q) for a, b in index.conflicts
            for p in positions.get(a, ()) for q in positions.get(b, ()))

    def __call__(self, assignment: Assignment) -> bool:
        for pos, lo, hi in self._ranges:
            value = assignment[pos]
            if isinstance(value, int) and not isinstance(value, bool) and (
                    lo is not None and value < lo
                    or hi is not None and value > hi):
                return False
        for pos, others in self._requires:
            if assignment[pos] is True:
                for other in others:
                    if assignment[other] is True:
                        break
                else:
                    return False
        for p, q in self._conflicts:
            if assignment[p] is True and assignment[q] is True:
                return False
        return True


class RandomSampler:
    """Seeded uniform sampling with counter-based regeneration."""

    def __init__(self, space: ConfigSpace, seed: int, budget: int) -> None:
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self.space = space
        self.seed = seed
        self.budget = budget
        self.name = "random"
        self._choices = tuple(d.values for d in space.domains)

    def total(self) -> int:
        return self.budget

    def assignment_at(self, index: int) -> Assignment:
        return draw_rows(self.seed, index, index + 1, self._choices)[0]

    def iter_range(self, lo: int, hi: int,
                   hint: Optional[object] = None,
                   ) -> Iterator[Tuple[int, Assignment]]:
        return iter_rows(self.seed, lo, min(hi, self.budget),
                         self._choices)

    def shard_hints(self, ranges: Sequence[Tuple[int, int]]) -> List[object]:
        return [None for _ in ranges]


class RowSlice(NamedTuple):
    """A shard hint that carries the shard's configs themselves.

    Samplers whose whole campaign is already in memory (a covering
    array) hand each shard its own rows, so the shard drives them
    without constructing anything.  ``skipped`` is the number of raw
    configs the constraint check rejected inside the shard's window —
    what regenerating the window would have tallied.
    """

    rows: List[Assignment]
    skipped: int = 0


class _TupleIndex:
    """Bit positions for the value tuples of every ``m``-combination.

    Combinations of parameter positions are laid out in colex order
    (by last member, then lexicographically), so the combinations
    inside ``range(k)`` occupy the prefix ``[0, width(k))`` for every
    ``k``.  Each combination owns one bit per value tuple, numbered
    mixed-radix by value *index* with the first member fastest.  A row
    of value indices (``-1`` for a don't-care) then covers a set of
    bits, and "which t-tuples does this row cover" is one int.
    """

    def __init__(self, sizes: Sequence[int], m: int) -> None:
        self.sizes = sizes
        self.m = m
        self.combos: List[Tuple[int, ...]] = []
        self.bases: List[int] = []
        self.base_of: Dict[Tuple[int, ...], int] = {}
        self._widths: List[int] = []
        pos = 0
        for last in range(len(sizes)):
            self._widths.append(pos)
            for head in combinations(range(last), m - 1):
                combo = head + (last,)
                self.combos.append(combo)
                self.bases.append(pos)
                self.base_of[combo] = pos
                span_bits = 1
                for i in combo:
                    span_bits *= sizes[i]
                pos += span_bits
        self._widths.append(pos)

    def width(self, k: int) -> int:
        """Bits used by the combinations inside ``range(k)``."""
        return self._widths[k]

    def ending_at(self, row: Sequence[int], k: int) -> int:
        """The bits ``row`` covers among combinations whose last member
        is ``k`` (``row[k]`` assigned; don't-cares cover nothing)."""
        sizes = self.sizes
        if self.m == 1:
            return 1 << (self.base_of[(k,)] + row[k])
        low = self._widths[k]
        tail = row[k]
        bits = 0
        for head in combinations([i for i in range(k) if row[i] >= 0],
                                 self.m - 1):
            pos, stride = self.base_of[head + (k,)] - low, 1
            for i in head:
                pos += row[i] * stride
                stride *= sizes[i]
            bits |= 1 << (pos + tail * stride)
        return bits << low

    def covered(self, row: Sequence[int], k: int) -> int:
        """The bits ``row`` covers among combinations inside ``range(k)``."""
        bits = 0
        for last in range(self.m - 1, k):
            if row[last] >= 0:
                bits |= self.ending_at(row, last)
        return bits

    def decode(self, pos: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``(combo, value indices)`` for one bit position."""
        slot = bisect_right(self.bases, pos) - 1
        combo = self.combos[slot]
        rem = pos - self.bases[slot]
        values = []
        for i in combo:
            rem, value = divmod(rem, self.sizes[i])
            values.append(value)
        return combo, tuple(values)


class TWiseSampler:
    """Greedy IPOG-style t-wise covering array over the space.

    Parameters are processed in decreasing domain-size order (the
    classic IPOG ordering, which keeps the array short); rows are
    emitted in the space's own domain order.  Horizontal extension
    assigns each existing row the first value covering the most
    uncovered t-tuples; vertical extension adds rows for the remainder
    in ``repr`` order of ``(combo, values)``, reusing don't-care slots
    where possible, and leftover don't-cares are filled from the seeded
    stream.

    Uncovered t-tuples are int bitmasks (:class:`_TupleIndex`), one per
    value of the parameter being added, and a row's gain for a value is
    one popcount.  Values are identified by their position in the
    domain, so a domain's values must be distinct.  The array is built
    once per sampler and its rows ship to shards as :class:`RowSlice`
    hints, so a sharded campaign builds it exactly once.  Measured on a
    2-CPU x86-64 host with Python 3.11.7, over the 66-parameter
    ConBugCk campaign space: ``t=2`` (28 rows) builds in ~4 ms and
    ``t=3`` (80 rows) in ~0.16 s.  Cost grows as C(n, t), so higher t
    wants a component-restricted space.
    """

    def __init__(self, space: ConfigSpace, t: int, seed: int,
                 budget: Optional[int] = None) -> None:
        if t < 2:
            raise ValueError(f"t-wise strength must be >= 2, got {t}")
        if t > len(space):
            raise ValueError(
                f"t={t} exceeds the space's {len(space)} parameters")
        self.space = space
        self.t = t
        self.seed = seed
        self.budget = budget
        self.name = "pairwise" if t == 2 else f"twise:{t}"
        self._rows: Optional[List[Assignment]] = None

    # -- construction --------------------------------------------------

    def _build(self) -> List[Assignment]:
        if self._rows is None:
            with span("sampling.twise.build", t=self.t,
                      params=len(self.space)), \
                    timed("sampling.twise.build"):
                self._rows = self._construct()
            bump("sampling.twise.build")
        return self._rows

    def _construct(self) -> List[Assignment]:
        order = sorted(range(len(self.space)),
                       key=lambda i: (-len(self.space.domains[i].values), i))
        domains = [self.space.domains[i].values for i in order]
        sizes = [len(values) for values in domains]
        t = self.t
        index = _TupleIndex(sizes, t - 1)
        # Rows hold value indices, -1 for a don't-care.  Seed rows: the
        # full product of the first t (largest) domains.
        rows: List[List[int]] = [
            list(combo) for combo in product(*(range(n) for n in sizes[:t]))]
        covers = [index.covered(row, t) for row in rows]
        for k in range(t, len(domains)):
            # open_[v]: the uncovered t-tuples whose last value is v.
            open_ = [(1 << index.width(k)) - 1] * sizes[k]
            # Horizontal: give every existing row a value for param k,
            # picking the first value that covers the most open tuples.
            for row, cover in zip(rows, covers):
                best_value, best_gain = 0, -1
                for value, bits in enumerate(open_):
                    gain = (bits & cover).bit_count()
                    if gain > best_gain:
                        best_value, best_gain = value, gain
                row.append(best_value)
                open_[best_value] &= ~cover
            # Vertical: place leftovers into don't-care slots, adding
            # fresh rows only when nothing fits.
            leftovers = []
            for value, bits in enumerate(open_):
                while bits:
                    low = bits & -bits
                    bits ^= low
                    combo, values = index.decode(low.bit_length() - 1)
                    leftovers.append((combo, values + (value,)))
            leftovers.sort(key=lambda item: repr((item[0], tuple(
                domains[i][x] for i, x in zip(item[0] + (k,), item[1])))))
            touched: Set[int] = set()
            for combo, values in leftovers:
                for rowno, row in enumerate(rows):
                    if row[k] != values[-1]:
                        continue
                    if all(row[i] < 0 or row[i] == x
                           for i, x in zip(combo, values)):
                        for i, x in zip(combo, values):
                            row[i] = x
                        touched.add(rowno)
                        break
                else:
                    fresh = [-1] * (k + 1)
                    for i, x in zip(combo, values):
                        fresh[i] = x
                    fresh[k] = values[-1]
                    touched.add(len(rows))
                    rows.append(fresh)
                    covers.append(0)
            # Coverage inside range(k + 1) for the next parameter.
            for rowno, row in enumerate(rows):
                if rowno in touched:
                    covers[rowno] = index.covered(row, k + 1)
                else:
                    covers[rowno] |= index.ending_at(row, k)
        # Fill don't-cares deterministically and restore domain order.
        finished: List[Assignment] = []
        for rowno, row in enumerate(rows):
            fill = iter(draw_rows(self.seed, rowno, rowno + 1, [
                domains[i] for i, x in enumerate(row) if x < 0])[0])
            full = [domains[i][x] if x >= 0 else next(fill)
                    for i, x in enumerate(row)]
            emitted: List[object] = [None] * len(domains)
            for pos, orig in enumerate(order):
                emitted[orig] = full[pos]
            finished.append(tuple(emitted))
        return finished

    # -- sampler surface ----------------------------------------------

    def total(self) -> int:
        rows = self._build()
        if self.budget is not None:
            return min(self.budget, len(rows))
        return len(rows)

    def iter_range(self, lo: int, hi: int,
                   hint: Optional[RowSlice] = None,
                   ) -> Iterator[Tuple[int, Assignment]]:
        """Rows ``[lo, hi)``; with a :class:`RowSlice` hint (from
        :meth:`shard_hints`) the shipped rows, without building."""
        if hint is not None:
            yield from enumerate(hint.rows, lo)
            return
        rows = self._build()
        for index in range(lo, min(hi, self.total())):
            yield index, rows[index]

    def shard_hints(self, ranges: Sequence[Tuple[int, int]],
                    ) -> List[RowSlice]:
        rows = self._build()
        return [RowSlice(rows[lo:hi]) for lo, hi in ranges]


class FeasibleSampler:
    """Dependency-aware wrapper: only feasible configs are emitted.

    Config index ``j`` of this sampler is the ``j``-th config of the
    wrapped sampler that satisfies the constraint index.  ``total()``
    performs the (single) filtering scan.  ``shard_hints`` hands each
    shard either its own feasible rows (a covering array is already in
    memory, so shards never rebuild it) or, over a random stream, the
    inner index where its slice starts, so regenerating a shard costs
    O(shard's own raw window), not O(campaign).
    """

    def __init__(self, inner, constraints: ConstraintIndex) -> None:
        self.inner = inner
        self.space = inner.space
        self.constraints = constraints
        self.name = inner.name + "+feasible"
        self.seed = inner.seed
        self.budget = getattr(inner, "budget", None)
        #: Raw configs rejected by the constraint check during the scan.
        self.skipped = 0
        self._feasible_total: Optional[int] = None
        self._starts: Optional[List[int]] = None

    def _scan(self) -> None:
        """One pass over the inner stream, recording feasible count and
        the inner index at which each feasible config occurs (compactly:
        only counts and a start-index table on demand)."""
        if self._feasible_total is not None:
            return
        starts: List[int] = []
        feasible = 0
        skipped = 0
        inner_total = self.inner.total()
        want = self.budget if self.budget is not None else inner_total
        feasible_row = self.constraints.plan(self.space)
        for raw_index, assignment in self.inner.iter_range(0, inner_total):
            if feasible_row(assignment):
                starts.append(raw_index)
                feasible += 1
                if feasible >= want:
                    break
            else:
                skipped += 1
        self._starts = starts
        self._feasible_total = feasible
        self.skipped = skipped

    def total(self) -> int:
        self._scan()
        return self._feasible_total or 0

    def iter_range(self, lo: int, hi: int,
                   hint: Optional[object] = None,
                   ) -> Iterator[Tuple[int, Assignment]]:
        """Feasible configs ``[lo, hi)``; ``hint`` (from
        :meth:`shard_hints`) is the slice's rows or the inner start
        index, either of which avoids rescanning."""
        if isinstance(hint, RowSlice):
            self.skipped += hint.skipped
            yield from enumerate(hint.rows, lo)
            return
        if hint is None:
            self._scan()
            starts = self._starts or []
            if lo >= len(starts):
                return
            raw_start = starts[lo]
        else:
            raw_start = int(hint)
        emitted = lo
        inner_total = self.inner.total()
        feasible_row = self.constraints.plan(self.space)
        for raw_index, assignment in self.inner.iter_range(raw_start,
                                                           inner_total):
            if emitted >= hi:
                return
            if feasible_row(assignment):
                yield emitted, assignment
                emitted += 1
            else:
                self.skipped += 1

    def shard_hints(self, ranges: Sequence[Tuple[int, int]]) -> List[object]:
        self._scan()
        starts = self._starts or []
        if isinstance(self.inner, TWiseSampler):
            # A shard regenerating its window from starts[lo] would
            # skip the infeasible rows up to its last feasible one.
            rows = self.inner._build()
            return [RowSlice([rows[i] for i in starts[lo:hi]],
                             starts[hi - 1] - starts[lo] + 1 - (hi - lo)
                             if hi > lo else 0)
                    for lo, hi in ranges]
        return [starts[lo] if lo < len(starts) else self.inner.total()
                for lo, _hi in ranges]


def parse_sample_spec(text: str) -> Tuple[str, Optional[int], bool]:
    """Parse a ``--sample`` value into ``(kind, t, feasible)``.

    Accepted forms: ``random``, ``pairwise``, ``twise:<t>``, each with
    an optional ``+feasible`` suffix for dependency-aware filtering.
    """
    spec = text.strip().lower()
    feasible = spec.endswith("+feasible")
    if feasible:
        spec = spec[:-len("+feasible")]
    if spec == "random":
        return "random", None, feasible
    if spec == "pairwise":
        return "twise", 2, feasible
    if spec.startswith("twise:"):
        try:
            t = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed t-wise strength in {text!r}")
        if t < 2:
            raise ValueError(f"t-wise strength must be >= 2, got {t}")
        return "twise", t, feasible
    raise ValueError(
        f"unknown sampler {text!r} (expected random, pairwise, twise:<t>, "
        f"optionally +feasible)")


def make_sampler(space: ConfigSpace, kind: str, seed: int,
                 budget: Optional[int],
                 t: Optional[int] = None,
                 constraints: Optional[ConstraintIndex] = None):
    """Construct a sampler from parsed spec parts."""
    if kind == "random":
        if budget is None:
            raise ValueError("random sampling needs an explicit --budget")
        sampler = RandomSampler(space, seed, budget)
    elif kind == "twise":
        sampler = TWiseSampler(space, t or 2, seed, budget)
    else:
        raise ValueError(f"unknown sampler kind {kind!r}")
    if constraints is not None:
        return FeasibleSampler(sampler, constraints)
    return sampler

