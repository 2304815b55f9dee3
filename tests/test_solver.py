"""Differential tests: each default engine against a test-owned
reference, plus the work-counter gates that pin its optimisations.

Every analysis stage has exactly one engine in ``src/``.  The slower
implementations they replaced live on here, as references the default
must match *exactly*, not merely equivalently:

- :class:`DenseEngine` — the taint fixpoint by full sweeps until a
  sweep changes nothing (the default replays that schedule on a
  worklist);
- :class:`ScanLexer` — the per-character scanner over the whole input
  (the default hands it only the positions its master pattern cannot
  match);
- :class:`LadderParser` — the original 10-level recursive ladder for
  binary expressions (the default climbs precedences);
- :data:`PLAIN` — a label lattice that allocates a fresh ``frozenset``
  per join (the default interns).

The comparisons run on the real corpus (token streams, ASTs, per-
function ``TaintState``s field by field, including the trace) and on
seeded random IR.  End to end, the extraction, the interprocedural
union and the checker verdicts are pinned to sha256 digests recorded
while the references were still selectable engines.  The work
counters (solver pops/rounds, lattice intern misses, scanner path)
turn "still the optimised engine" into a deterministic check.
"""

import random
import types
from hashlib import sha256

import pytest

import tests.test_backend as backend_tests
from repro import perf
from repro.analysis.model import ParamRef
from repro.analysis.sources import ComponentSources
from repro.analysis.taint import TaintEngine
from repro.corpus import loader
from repro.corpus.loader import UNIT_COMPONENTS
from repro.lang import ast_nodes as A
from repro.lang import compile_c
from repro.lang.lexer import Lexer, TokenKind, tokenize
from repro.lang.parser import Parser
from repro.perf import lattice


class DenseEngine(TaintEngine):
    """Reference scheduler: full sweeps until a sweep changes nothing."""

    def _solve(self, prep):
        order = prep.order
        limit = self._sweep_limit(len(order))
        sweeps = evaluations = 0
        changed = True
        while changed:
            changed = False
            sweeps += 1
            if sweeps > limit:
                raise self._diverged("dense", sweeps, len(order),
                                     len(order), evaluations)
            for instr in order:
                evaluations += 1
                if self._transfer(instr):
                    changed = True


class ScanLexer(Lexer):
    """Reference scanner: per-character over the whole input."""

    def _raw_tokens(self):
        return self._raw_tokens_scan()


class LadderParser(Parser):
    """Reference parser: one recursion level per precedence level."""

    LEVELS = [
        ["||"],
        ["&&"],
        ["|"],
        ["^"],
        ["&"],
        ["==", "!="],
        ["<", ">", "<=", ">="],
        ["<<", ">>"],
        ["+", "-"],
        ["*", "/", "%"],
    ]

    def _parse_binary(self, min_prec):
        # Climbing from precedence P is ladder level P - 1.
        return self._ladder(min_prec - 1)

    def _ladder(self, level):
        if level >= len(self.LEVELS):
            return self._parse_unary()
        ops = self.LEVELS[level]
        expr = self._ladder(level + 1)
        while True:
            token = self._peek()
            if token.kind is TokenKind.OP and token.text in ops:
                self._next()
                right = self._ladder(level + 1)
                expr = A.Binary(expr.line, token.text, expr, right)
            else:
                return expr


def _plain_join(a, b):
    if not a:
        return b
    if not b:
        return a
    return a | b


#: Reference lattice: content-equal sets, a fresh union per join.
PLAIN = types.SimpleNamespace(
    EMPTY=frozenset(),
    intern_labels=lambda labels: (labels if isinstance(labels, frozenset)
                                  else frozenset(labels)),
    join=_plain_join,
)


def _run_plain(func, sources, component):
    """Run the engine with the taint module's lattice swapped for PLAIN."""
    import repro.analysis.taint as taint_mod

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(taint_mod, "lattice", PLAIN)
        return TaintEngine(func, sources, component).run()


def _corpus_functions():
    """(unit, function) pairs for the whole corpus, memo-served."""
    for unit in loader.load_corpus():
        for func in unit.module.functions.values():
            yield unit, func


def _run_engine(func, sources, component, engine=TaintEngine):
    return engine(func, sources, component).run()


def _assert_states_identical(a, b, context):
    """Field-by-field TaintState equality (trace order included)."""
    assert a.function == b.function, context
    assert a.taint == b.taint, f"{context}: taint maps differ"
    assert a.trace == b.trace, f"{context}: traces differ"
    assert a.parsed_type == b.parsed_type, f"{context}: parsed types differ"
    assert a.field_writes == b.field_writes, f"{context}: field writes differ"
    assert a.field_reads == b.field_reads, f"{context}: field reads differ"
    assert a.defs == b.defs, f"{context}: def indexes differ"
    assert a.multi_param_map == b.multi_param_map, context


class TestCorpusDifferential:
    """The reference sweep and the worklist agree on every corpus function."""

    def test_taint_states_identical_per_function(self):
        from repro.analysis.sources import SOURCES_BY_UNIT

        checked = 0
        for unit, func in _corpus_functions():
            sources = SOURCES_BY_UNIT[unit.filename]
            dense = _run_engine(func, sources, unit.component, DenseEngine)
            sparse = _run_engine(func, sources, unit.component)
            _assert_states_identical(
                dense, sparse, f"{unit.filename}:{func.name}")
            checked += 1
        assert checked > 20  # the corpus is not trivially empty

    def test_lattice_mode_does_not_change_states(self):
        from repro.analysis.sources import SOURCES_BY_UNIT

        for unit, func in _corpus_functions():
            sources = SOURCES_BY_UNIT[unit.filename]
            interned = _run_engine(func, sources, unit.component)
            plain = _run_plain(func, sources, unit.component)
            _assert_states_identical(
                interned, plain, f"{unit.filename}:{func.name}")


class TestFrontendDifferential:
    """The reference lexer and parser agree with the defaults on the corpus."""

    @staticmethod
    def _sources():
        for filename in sorted(UNIT_COMPONENTS):
            with open(loader.corpus_path(filename), encoding="utf-8") as fh:
                yield filename, fh.read()

    def test_regex_lexer_matches_scan_lexer(self):
        for filename, source in self._sources():
            scan = ScanLexer(source, filename).tokenize()
            regex = tokenize(source, filename)
            assert len(scan) == len(regex), filename
            for s, r in zip(scan, regex):
                assert (s.kind, s.text, s.line, s.col, s.value, s.macro) == \
                       (r.kind, r.text, r.line, r.col, r.value, r.macro), \
                       f"{filename}:{s.line}:{s.col}"

    def test_climb_parser_matches_ladder_parser(self):
        for filename, source in self._sources():
            tokens = tokenize(source, filename)
            ladder = LadderParser(list(tokens), filename).parse_unit()
            climb = Parser(list(tokens), filename).parse_unit()
            # AST nodes are plain dataclasses: == is deep equality.
            assert ladder == climb, filename


class TestRandomIRDifferential:
    """Seeded generated functions: loops, field stores, calls."""

    PRELUDE = """
    typedef unsigned int __u32;
    struct rnd_sb { __u32 s_a; __u32 s_b; __u32 s_feat; };
    int helper(int x);
    int opaque2(int x, int y);
    """

    @staticmethod
    def _gen_expr(rng, variables, depth=0):
        roll = rng.random()
        if depth >= 2 or roll < 0.35:
            return rng.choice(variables)
        if roll < 0.55:
            return str(rng.randrange(0, 64))
        if roll < 0.7:
            inner = TestRandomIRDifferential._gen_expr(rng, variables, depth + 1)
            return f"helper({inner})"
        op = rng.choice(["+", "-", "*", "|", "&", "^"])
        left = TestRandomIRDifferential._gen_expr(rng, variables, depth + 1)
        right = TestRandomIRDifferential._gen_expr(rng, variables, depth + 1)
        return f"({left} {op} {right})"

    @classmethod
    def _gen_stmts(cls, rng, variables, budget, depth=0):
        lines = []
        while budget > 0:
            budget -= 1
            kind = rng.random()
            expr = cls._gen_expr(rng, variables)
            if kind < 0.25 and depth == 0:
                # Declarations stay at function scope so nested blocks
                # never leak block-scoped names to later statements.
                name = f"v{len(variables)}"
                lines.append(f"int {name} = {expr};")
                variables.append(name)
            elif kind < 0.5:
                lines.append(f"{rng.choice(variables)} = {expr};")
            elif kind < 0.62:
                field = rng.choice(["s_a", "s_b", "s_feat"])
                lines.append(f"sb->{field} = {expr};")
            elif kind < 0.74:
                field = rng.choice(["s_a", "s_b"])
                lines.append(f"{rng.choice(variables)} = sb->{field} + {expr};")
            elif kind < 0.82:
                lines.append(
                    f"{rng.choice(variables)} = "
                    f"opaque2({expr}, {rng.choice(variables)});")
            elif kind < 0.92 and depth < 2:
                # A loop whose body rebinds earlier variables: the
                # backward def-use edges are what separate a sparse
                # scheduler from a single forward sweep.
                guard = rng.choice(variables)
                body = cls._gen_stmts(rng, variables, min(3, budget), depth + 1)
                lines.append(
                    f"while ({guard} < {rng.randrange(2, 30)}) "
                    f"{{ {' '.join(body)} {guard} = {guard} + 1; }}")
            elif depth < 2:
                cond = cls._gen_expr(rng, variables)
                then = cls._gen_stmts(rng, variables, min(2, budget), depth + 1)
                other = cls._gen_stmts(rng, variables, min(2, budget), depth + 1)
                lines.append(
                    f"if ({cond} > {rng.randrange(0, 16)}) "
                    f"{{ {' '.join(then)} }} else {{ {' '.join(other)} }}")
        return lines

    @classmethod
    def _gen_function(cls, seed):
        rng = random.Random(seed)
        variables = ["a", "b"]
        body = " ".join(cls._gen_stmts(rng, variables, budget=14))
        return (cls.PRELUDE +
                f"int f(int a, int b, struct rnd_sb *sb) {{ {body} return a; }}")

    @pytest.mark.parametrize("seed", range(25))
    def test_dense_and_sparse_agree(self, seed):
        source = self._gen_function(seed)
        module = compile_c(source, filename=f"<random-{seed}>")
        func = module.function("f")
        sources = ComponentSources("mke2fs", {"*": {
            "a": ParamRef("mke2fs", "alpha"),
            "b": ParamRef("mke2fs", "beta"),
        }})
        dense = _run_engine(func, sources, "mke2fs", DenseEngine)
        sparse = _run_engine(func, sources, "mke2fs")
        _assert_states_identical(dense, sparse, f"seed {seed}")

    @pytest.mark.parametrize("seed", [3, 11, 19])
    def test_lattice_modes_agree_on_random_ir(self, seed):
        source = self._gen_function(seed)
        module = compile_c(source, filename=f"<random-{seed}>")
        func = module.function("f")
        sources = ComponentSources("mke2fs", {"*": {
            "a": ParamRef("mke2fs", "alpha"),
        }})
        plain = _run_plain(func, sources, "mke2fs")
        interned = _run_engine(func, sources, "mke2fs")
        _assert_states_identical(plain, interned, f"seed {seed}")


def _canonical_report(report):
    lines = []
    for result in report.scenarios:
        lines.append(f"## {result.spec.name}")
        lines.extend(dep.key() for dep in result.dependencies)
    lines.append("## union")
    lines.extend(dep.key() for dep in report.union)
    return "\n".join(lines)


def _digest(text):
    return sha256(text.encode()).hexdigest()


@pytest.fixture()
def cold_memory(monkeypatch):
    """Disk cache off and every memo dropped, before and after."""
    monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
    loader.clear_cache(disk=False)
    yield
    loader.clear_cache(disk=False)


class TestEndToEndDifferential:
    """Extraction, interprocedural union and checker verdicts, pinned.

    The digests were recorded while the dense/scan/ladder/plain engines
    were still selectable, and were identical under both engine sets at
    ``--jobs 1`` and ``--jobs 4``.
    """

    #: sha256 of the sorted interprocedural union keys (70 dependencies).
    INTERPROC = ("48acbe8c91f1b893572ac3e6397bd92a"
                 "b5df9f0a68791a1567b82db6046afcef")
    #: sha256 of ConDocCk issues, eight ConBugCk configs (seed 2022)
    #: and ConHandleCk verdicts on the first six true dependencies.
    VERDICTS = ("65c3aa9fb222816866e77ec4d5dc32cf"
                "21c7b4023b9ba6ca60f51e33ac79aee5")

    @pytest.mark.usefixtures("cold_memory")
    def test_extraction_identical_across_configs_and_jobs(self):
        from repro.analysis.extractor import extract_all

        canon = _canonical_report(extract_all())
        assert canon.count("\n") > 60  # a real report
        pinned = backend_tests.TestPinnedExtraction.REPORT
        assert _digest(canon) == pinned
        # Cold (disk cache off) on campaign pool workers, too.
        assert backend_tests.extraction_digests(2) == [pinned] * 2

    @pytest.mark.usefixtures("cold_memory")
    def test_interprocedural_identical(self):
        from repro.analysis.interproc import extract_interprocedural

        loader.clear_cache(disk=False)
        report = extract_interprocedural()
        keys = sorted(dep.key() for dep in report.union)
        assert len(keys) == 70
        assert _digest("\n".join(keys)) == self.INTERPROC

    @pytest.mark.usefixtures("cold_memory")
    def test_checker_verdicts_identical(self):
        from repro.analysis.extractor import extract_all
        from repro.tools.conbugck import ConBugCk
        from repro.tools.condocck import ConDocCk
        from repro.tools.conhandleck import ConHandleCk

        loader.clear_cache(disk=False)
        report = extract_all()
        lines = ["## condocck"]
        lines += [f"{i.dependency.key()}|{i.issue}|{i.detail}"
                  for i in ConDocCk().check(report.union)]
        lines.append("## conbugck")
        lines += [repr(config) for config in ConBugCk(
            report.true_dependencies(), seed=2022).generate(8)]
        lines.append("## conhandleck")
        lines += [f"{r.dependency.key()}|{r.outcome}|{r.detail}"
                  for r in ConHandleCk().check(
                      report.true_dependencies()[:6]).results]
        assert _digest("\n".join(lines)) == self.VERDICTS


class TestWorkCounters:
    """Deterministic counters on a cold full-corpus extraction.

    Each pins one optimisation: reverting it changes the count (the
    full-sweep reference needs 1557 evaluations where the worklist
    pops 830; an uninterned lattice records no intern misses; the
    per-character scanner shows up as a call).
    """

    @pytest.fixture()
    def cold_counters(self, cold_memory):
        from repro.analysis.extractor import extract_all

        perf.reset_profile()
        report = extract_all()
        return report, perf.counters()

    def test_solver_pops_and_rounds(self, cold_counters):
        _report, counters = cold_counters
        assert counters["solver.sparse.pops"] == 830
        assert counters["solver.sparse.rounds"] == 16

    def test_lattice_interns_every_state(self, cold_counters):
        from repro.analysis.extractor import SCENARIOS
        from repro.analysis.sources import SOURCES_BY_UNIT
        from repro.analysis.taint import analyze_function

        _report, counters = cold_counters
        assert counters["lattice.intern.miss"] == 126
        checked = 0
        for spec in SCENARIOS:
            for filename, functions in spec.selected:
                unit = loader.load_unit(filename)
                for fn_name in functions:
                    state = analyze_function(
                        unit.function(fn_name),
                        SOURCES_BY_UNIT[filename], unit.component)
                    for labels in state.taint.values():
                        assert lattice.is_interned(labels), \
                            (filename, fn_name, labels)
                        checked += 1
        assert checked > 100

    def test_corpus_never_takes_the_scan_path(self, monkeypatch):
        calls = []
        original = Lexer._raw_tokens_scan

        def spy(self):
            calls.append(self.filename)
            return original(self)

        monkeypatch.setattr(Lexer, "_raw_tokens_scan", spy)
        for filename in sorted(UNIT_COMPONENTS):
            with open(loader.corpus_path(filename), encoding="utf-8") as fh:
                assert tokenize(fh.read(), filename)
        assert calls == []
        # The spy does see the reference path when it is taken.
        ScanLexer("int x;").tokenize()
        assert calls == ["<input>"]


class TestConvergenceDiagnostics:
    """The size-proportional bound turns livelock into a diagnosis."""

    LOOPY = """
    int f(int a, int b) {
        int x = 0;
        int y = 0;
        int z = 0;
        while (b > 0) { x = y; y = z; z = a; }
        return x;
    }
    """

    @pytest.mark.parametrize("engine", [DenseEngine, TaintEngine],
                             ids=["dense", "sparse"])
    def test_bound_raises_with_diagnosis(self, engine, monkeypatch):
        import repro.analysis.taint as taint_mod

        module = compile_c(self.LOOPY)
        func = module.function("f")
        sources = ComponentSources("mke2fs", {"*": {
            "a": ParamRef("mke2fs", "alpha")}})
        # Force the bound to one sweep/round: the loop-carried chain
        # x <- y <- z <- a genuinely needs several, so the engine must
        # report divergence rather than spin.
        monkeypatch.setattr(taint_mod, "CONVERGENCE_SLACK", -(10 ** 9))
        with pytest.raises(RuntimeError, match="did not converge"):
            _run_engine(func, sources, "mke2fs", engine)

    @pytest.mark.parametrize("engine", [DenseEngine, TaintEngine],
                             ids=["dense", "sparse"])
    def test_bound_admits_real_functions(self, engine):
        module = compile_c(self.LOOPY)
        func = module.function("f")
        sources = ComponentSources("mke2fs", {"*": {
            "a": ParamRef("mke2fs", "alpha")}})
        state = _run_engine(func, sources, "mke2fs", engine)
        assert ParamRef("mke2fs", "alpha") in state.params(
            next(iter(state.taint)))  # taint actually flowed


class TestLattice:
    """Unit coverage for the interned lattice."""

    def test_intern_returns_canonical_object(self):
        a = lattice.intern_labels(frozenset({"p", "q"}))
        b = lattice.intern_labels({"q", "p"})
        assert a is b
        assert lattice.is_interned(a)

    def test_join_is_memoized_and_canonical(self):
        a = lattice.intern_labels(frozenset({"p"}))
        b = lattice.intern_labels(frozenset({"q"}))
        first = lattice.join(a, b)
        assert first == frozenset({"p", "q"})
        assert lattice.join(a, b) is first
        assert lattice.is_interned(first)

    def test_join_identities(self):
        a = lattice.intern_labels(frozenset({"p"}))
        assert lattice.join(a, a) is a
        assert lattice.join(lattice.EMPTY, a) is a
        assert lattice.join(a, lattice.EMPTY) is a

    def test_plain_mode_allocates_but_agrees(self):
        a = lattice.intern_labels(frozenset({"p"}))
        b = lattice.intern_labels(frozenset({"q"}))
        merged = lattice.join(a, b)
        # The plain reference allocates a fresh union per join; the
        # interned join agrees on content and allocates nothing new
        # when the same join repeats.
        assert PLAIN.join(a, b) is not PLAIN.join(a, b)
        assert merged == PLAIN.join(a, b)
        entries = len(lattice._INTERN)
        assert lattice.join(a, b) is merged
        assert len(lattice._INTERN) == entries

    def test_hit_rate_tracks_tallies(self):
        perf.reset_profile()
        a = lattice.intern_labels(frozenset({object()}))   # miss
        b = lattice.intern_labels(frozenset({object()}))   # miss
        lattice.join(a, b)   # miss
        lattice.join(a, b)   # hit
        assert perf.hit_rates(perf.counters())["lattice.intern"] == 0.25
        perf.reset_profile()
        assert "lattice.intern" not in perf.hit_rates(perf.counters())


class TestDefIndex:
    """Satellite: defining() is served from the prebuilt def index."""

    def test_defining_matches_body_scan(self):
        module = compile_c("""
        int f(int a) {
            int x = a + 1;
            int y = x * 2;
            x = y - a;
            return x;
        }
        """)
        func = module.function("f")
        sources = ComponentSources("mke2fs", {"*": {
            "a": ParamRef("mke2fs", "alpha")}})
        state = _run_engine(func, sources, "mke2fs")
        for value, defs in state.defs.items():
            scanned = [instr for instr in func.instructions()
                       if value in instr.defs()]
            assert defs == scanned, value
            assert state.defining(value) == scanned

    def test_defining_unknown_value_is_empty(self):
        module = compile_c("int f(int a) { return a; }")
        func = module.function("f")
        sources = ComponentSources("mke2fs", {"*": {
            "a": ParamRef("mke2fs", "alpha")}})
        state = _run_engine(func, sources, "mke2fs", DenseEngine)
        from repro.lang.ir import Var
        assert state.defining(Var("no_such_value")) == []
