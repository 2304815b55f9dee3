"""Bit-identity of the campaign hot loop against test-owned references.

The samplers draw every value of every config through one block kernel
(``repro.perf.sampling.draw_rows``: a block of rows per pass, each
64-bit splitmix64 lane in its own 128-bit slot of one int), ConBugCk
adapts assignments through a per-space plan (``ConfigAdapter``), the
feasible samplers check them through another (``FeasibilityPlan``) and
ConHandleCk draws its dependency indices through the same kernel, one
lane per index.  The references below are the straightforward forms
those replaced — a stateful stream object with a separate finalizer
drawing one value at a time, an adapter that re-classifies every domain
for every config, and a feasibility check that walks every domain into
an ``enabled`` set — kept here so a change to the fast forms that
alters a single draw, a single config or a single skip fails by name,
not only as a moved campaign digest.  The windows cover the kernel's
block edges: lengths that are not a multiple of the block, starts off
a block boundary, one-row and empty windows.  Drives build the mke2fs
configuration directly; its reference is what ``Mke2fs.from_args``
parses from the config's readable argv (``mke2fs_args``).
"""

from itertools import product
from math import ceil
from typing import Dict, List, Optional, Sequence, Set

import pytest

from repro.ecosystem.featureset import all_feature_names
from repro.ecosystem.mke2fs import Mke2fs, Mke2fsConfig
from repro.ecosystem.params import EXT4_REGISTRY, ConfigParam, ParamKind
from repro.errors import UsageError
from repro.perf import counters, reset_profile
from repro.perf.sampling import BLOCK, ConfigSpace, ConstraintIndex, \
    Domain, FeasibleSampler, RandomSampler, TWiseSampler, draw_rows
from repro.tools import conhandleck
from repro.tools.conbugck import ConBugCk, ConfigAdapter, GeneratedConfig, \
    SampledConfig, _drive_config_fast, build_campaign_space, \
    sampled_campaign

SEEDS = (0, 2022, (1 << 64) + 12345)
#: Index windows: the start of a campaign (150 rows, not a multiple of
#: the block), one past 2**40 (off a block boundary), one straddling
#: two block boundaries, a one-row window and an empty one.
WINDOWS = ((0, 150), ((1 << 40) + 7, (1 << 40) + 157),
           (BLOCK - 1, 2 * BLOCK + 1), (77, 78), (90, 90))

# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_INDEX_STRIDE = 0xD1B54A32D192ED03


def ref_mix64(x: int) -> int:
    x &= _M64
    x = ((x ^ (x >> 30)) * _MIX_A) & _M64
    x = ((x ^ (x >> 27)) * _MIX_B) & _M64
    return x ^ (x >> 31)


class RefStream:
    def __init__(self, seed: int, index: int) -> None:
        self._state = (seed * _GOLDEN + index * _INDEX_STRIDE) & _M64

    def next_word(self) -> int:
        self._state = (self._state + _GOLDEN) & _M64
        return ref_mix64(self._state)

    def pick(self, values: Sequence[object]) -> object:
        return values[self.next_word() % len(values)]


def ref_assignment(space, seed: int, index: int) -> tuple:
    stream = RefStream(seed, index)
    return tuple(stream.pick(d.values) for d in space.domains)


def ref_feasible(index: ConstraintIndex, space, assignment) -> bool:
    enabled: Set[str] = set()
    for domain, value in zip(space.domains, assignment):
        if value is True:
            enabled.add(domain.name)
        lo, hi = index.ranges.get(domain.name, (None, None))
        if isinstance(value, int) and not isinstance(value, bool):
            if lo is not None and value < lo:
                return False
            if hi is not None and value > hi:
                return False
    for a, b in index.requires:
        if a in enabled and b not in enabled:
            return False
    for a, b in index.conflicts:
        if a in enabled and b in enabled:
            return False
    return True


_REF_NUMERIC = ("blocksize", "inode_size", "inode_ratio", "reserved_percent")


def ref_mount_token(param: ConfigParam, value: object) -> Optional[str]:
    if value == param.default:
        return None
    if param.kind is ParamKind.FLAG:
        return param.name if value else f"no{param.name}"
    return f"{param.name}={value}"


def ref_config_from_assignment(space, assignment) -> GeneratedConfig:
    mount_params = {p.name: p for p in EXT4_REGISTRY
                    if p.component == "mount"}
    feature_names = set(all_feature_names())
    features: List[str] = []
    numerics: Dict[str, int] = {}
    options: List[str] = []
    for domain, value in zip(space.domains, assignment):
        if domain.component == "mke2fs":
            if domain.name in _REF_NUMERIC:
                numerics[domain.name] = int(value)
            elif value is True and domain.name in feature_names:
                features.append(domain.name)
            continue
        token = ref_mount_token(mount_params[domain.name], value)
        if token is not None:
            options.append(token)
    return GeneratedConfig(
        features=tuple(sorted(features)),
        blocksize=numerics["blocksize"],
        inode_size=numerics["inode_size"],
        inode_ratio=numerics["inode_ratio"],
        reserved_percent=numerics["reserved_percent"],
        mount_options=",".join(options),
    )


@pytest.fixture(scope="module")
def space():
    return build_campaign_space()


@pytest.fixture(scope="module")
def constraints(extraction_report):
    return ConstraintIndex.from_dependencies(
        extraction_report.true_dependencies())


# ---------------------------------------------------------------------------
# draws
# ---------------------------------------------------------------------------

class TestDraws:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_rows(self, space, seed):
        for lo, hi in WINDOWS:
            sampler = RandomSampler(space, seed, hi)
            expected = [(i, ref_assignment(space, seed, i))
                        for i in range(lo, hi)]
            assert list(sampler.iter_range(lo, hi)) == expected
            assert [sampler.assignment_at(i) for i in range(lo, hi)] == \
                [row for _, row in expected]

    #: Raw words (a choice as wide as its draws returns the word modulo
    #: it), single-value domains between them (which still consume
    #: their word), and ConHandleCk's one lane per index.
    CHOICES = ((range(1 << 62),) * 5,
               (range(1 << 62), ("only",), (False, True), (7,),
                range(1 << 62)),
               (range(59),))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_raw_words(self, seed):
        for choices, (lo, hi) in product(self.CHOICES, WINDOWS):
            expected = []
            for index in range(lo, hi):
                stream = RefStream(seed, index)
                expected.append(tuple(stream.pick(values)
                                      for values in choices))
            assert draw_rows(seed, lo, hi, choices) == expected, choices
            assert [draw_rows(seed, i, i + 1, choices)[0]
                    for i in range(lo, hi)] == expected, choices

    def test_sampler_passes_one_block_at_a_time(self, space):
        # 600 rows are ceil(600 / BLOCK) kernel passes, not 600: a
        # per-row draw loop would bump the counter once per row.
        sampler = RandomSampler(space, 2022, 600)
        reset_profile()
        rows = list(sampler.iter_range(0, 600))
        assert len(rows) == 600
        assert counters().get("sampling.draw.blocks") == ceil(600 / BLOCK)

    @pytest.mark.parametrize("shards, jobs", [(7, 1), (7, 2)])
    def test_random_campaign_shards(self, extraction_report, shards, jobs):
        # Seven shards of 600 start off block boundaries (86, 172, ...);
        # in-process and on two process workers they must drive exactly
        # the one-shard campaign.
        deps = extraction_report.true_dependencies()

        def run(shards, jobs):
            report, meta = sampled_campaign(deps, sample="random",
                                            seed=2022, budget=600,
                                            shards=shards, jobs=jobs)
            assert meta.pop("shards") == shards
            return (report.digest_hex, report.total, dict(report.reached),
                    report.failures, report.failure_count, meta)

        assert run(shards, jobs) == run(1, 1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_feasible_rows_and_skips(self, space, constraints, seed):
        budget = 400
        expected, skipped = [], 0
        for index in range(budget):
            row = ref_assignment(space, seed, index)
            if ref_feasible(constraints, space, row):
                expected.append(row)
            else:
                skipped += 1
        sampler = FeasibleSampler(RandomSampler(space, seed, budget),
                                  constraints)
        assert sampler.total() == len(expected)
        assert sampler.skipped == skipped
        assert [row for _, row in sampler.iter_range(0, len(expected))] \
            == expected
        # A shard resuming from its hint sees the same rows.
        mid = len(expected) // 2
        hint = sampler.shard_hints([(mid, len(expected))])[0]
        fresh = FeasibleSampler(RandomSampler(space, seed, budget),
                                constraints)
        assert [row for _, row in fresh.iter_range(
            mid, len(expected), hint=hint)] == expected[mid:]

    def test_feasibility_plan_edges(self):
        # Cases the campaign's own index never reaches: ranges that
        # reject (also on a bool domain, where they do not apply), a
        # required name missing from the space, a name held by two
        # domains, a conflict of a name with itself.
        space = ConfigSpace([
            Domain("a", "x", (False, True)), Domain("b", "x", (False, True)),
            Domain("a", "y", (False, True)), Domain("n", "x", (0, 4, 9)),
            Domain("flag", "x", (False, True)), Domain("s", "x", ("1", 1)),
        ])
        index = ConstraintIndex(
            requires=[("a", "b"), ("flag", "absent"), ("absent", "b")],
            conflicts=[("b", "n"), ("s", "s"), ("flag", "a")],
            ranges={"n": (2, 8), "flag": (5, None), "s": (None, 0),
                    "absent": (0, 0)})
        rows = list(product(*(d.values for d in space.domains)))
        verdicts = [index.feasible(space, row) for row in rows]
        assert verdicts == [ref_feasible(index, space, row) for row in rows]
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dependency_draws(self, extraction_report, seed, monkeypatch):
        # ConHandleCk's shard draws dependency Stream(seed, i) % len for
        # every index i, so a payload built from the reference draws
        # must equal the shard's own, counters included.
        deps = extraction_report.true_dependencies()
        monkeypatch.setattr(conhandleck, "_shard_dependencies",
                            lambda: deps)
        for lo, hi in WINDOWS:
            spec = {"lo": lo, "hi": hi, "seed": seed, "budget": 10 ** 13}
            got = conhandleck.run_shard(spec)
            assert got == self._reference_shard(deps, spec)

    @staticmethod
    def _reference_shard(deps, spec):
        from repro.perf.campaign import ShardAggregate

        checker = conhandleck.ConHandleCk(device_blocks=4096,
                                          block_size=4096)
        aggregate = ShardAggregate()
        memo = {}
        for index in range(spec["lo"], spec["hi"]):
            dep_index = RefStream(spec["seed"], index).next_word() % len(deps)
            result = memo.get(dep_index)
            if result is None:
                result = memo[dep_index] = checker.violate(deps[dep_index])
                aggregate.tally("campaign.outcome.miss")
            else:
                aggregate.tally("campaign.outcome.hit")
            dep = deps[dep_index]
            failure = (f"{dep.key()} — {result.detail}" if result.outcome
                       is conhandleck.ViolationOutcome.CORRUPTION else None)
            aggregate.add(index, (result.outcome.value, dep.key()), failure)
        aggregate.tally("campaign.snapshot.hit", checker._snapshots.hits)
        aggregate.tally("campaign.snapshot.miss", checker._snapshots.misses)
        return aggregate.as_payload()


# ---------------------------------------------------------------------------
# adapted configs
# ---------------------------------------------------------------------------

def sampled_rows(space) -> list:
    """2 000 random rows and three pairwise covering arrays."""
    rows = [row for _, row in RandomSampler(space, 2022, 2000)
            .iter_range(0, 2000)]
    for seed in (1, 7, 2022):
        sampler = TWiseSampler(space, 2, seed)
        rows += [row for _, row in sampler.iter_range(0, sampler.total())]
    return rows


class TestAdaptedConfigs:
    def test_sampled_assignments(self, space):
        adapt = ConfigAdapter(space)
        rows = sampled_rows(space)
        assert len(rows) >= 2000
        for row in rows:
            assert adapt(row) == ref_config_from_assignment(space, row), row
        # The sample exercises every kind of domain the plan knows.
        configs = [adapt(row) for row in rows]
        assert len({c.features for c in configs}) > 100
        assert len({c.mount_options for c in configs}) > 100
        assert {c.blocksize for c in configs} == {1024, 2048, 4096}

    def test_extremes(self, space):
        adapt = ConfigAdapter(space)
        for pick in (0, -1):
            row = tuple(d.values[pick] for d in space.domains)
            assert adapt(row) == ref_config_from_assignment(space, row)

    def test_feature_domains_must_be_boolean(self, space):
        """The plan reads a row's feature values for truth, so it takes
        only ``(False, True)`` feature domains: ``(0, 1)`` compares
        equal to that but is refused, as is the reversed order."""
        features = set(all_feature_names())
        pos = next(i for i, d in enumerate(space.domains)
                   if d.component == "mke2fs" and d.name in features)
        name = space.domains[pos].name
        for values in ((0, 1), (True, False), (False, True, None)):
            domains = list(space.domains)
            domains[pos] = Domain(name, "mke2fs", values)
            with pytest.raises(ValueError, match=name):
                ConfigAdapter(ConfigSpace(domains))

    @pytest.mark.parametrize("kept", [0, 1, 2])
    def test_few_feature_domains(self, space, kept):
        """Spaces with zero, one or two feature domains adapt as the
        reference does."""
        features = set(all_feature_names())
        seen = 0
        domains = []
        for domain in space.domains:
            if domain.component == "mke2fs" and domain.name in features:
                seen += 1
                if seen > kept:
                    continue
            domains.append(domain)
        small = ConfigSpace(domains)
        adapt = ConfigAdapter(small)
        rows = [row for _, row in RandomSampler(small, 5, 64)
                .iter_range(0, 64)]
        configs = [adapt(row) for row in rows]
        for row, config in zip(rows, configs):
            assert config == ref_config_from_assignment(small, row)
        assert {len(config.features) for config in configs} == \
            set(range(kept + 1))


# ---------------------------------------------------------------------------
# structured mke2fs configurations
# ---------------------------------------------------------------------------

def parsed_fields(config: GeneratedConfig, fs_blocks: int = 512) -> dict:
    """The reference: what mke2fs parses from the config's argv."""
    return mke2fs_fields(Mke2fs.from_args(config.mke2fs_args(fs_blocks))
                         .config)


def mke2fs_fields(config: Mke2fsConfig) -> dict:
    fields = dict(vars(config))
    fields["features"] = config.features.enabled()
    return fields


class TestStructuredMke2fs:
    """Drives build the mke2fs configuration directly; it must equal
    what ``Mke2fs.from_args`` parses from ``mke2fs_args``, field by
    field, for every generator's configs."""

    def test_guided_and_naive(self, extraction_report):
        gen = ConBugCk(extraction_report.true_dependencies(), seed=2022)
        configs = gen.generate(300) + gen.generate_naive(300)
        assert {c.blocksize for c in configs} >= {512, 1024, 131072}
        for config in configs:
            assert mke2fs_fields(config.mke2fs_config(512)) == \
                parsed_fields(config), config

    def test_sampled(self, space):
        plan = ConfigAdapter(space)
        for row in sampled_rows(space):
            reference = ref_config_from_assignment(space, row)
            expected = parsed_fields(reference)
            sampled = SampledConfig(plan, row)
            assert mke2fs_fields(sampled.mke2fs_config(512)) == expected
            assert (sampled.blocksize, sampled.features,
                    sampled.mount_options) == (
                reference.blocksize, reference.features,
                reference.mount_options)

    def test_unknown_feature_same_usage_error(self):
        config = GeneratedConfig(features=("extent", "no_such_feature"),
                                 blocksize=4096, inode_size=256,
                                 inode_ratio=16384, reserved_percent=5,
                                 mount_options="")
        with pytest.raises(UsageError) as parsed:
            Mke2fs.from_args(config.mke2fs_args(512))
        with pytest.raises(UsageError) as built:
            config.mke2fs_config(512)
        assert str(built.value) == str(parsed.value)
        assert "no_such_feature" in str(built.value)
        assert _drive_config_fast(config, 512) == ((), f"mkfs: {parsed.value}")

    def test_drives_never_parse_argv(self, extraction_report, monkeypatch):
        deps = extraction_report.true_dependencies()
        expected, _ = sampled_campaign(deps, sample="random", seed=2022,
                                       budget=400)

        def refuse(cls, args):
            raise AssertionError(f"mke2fs argv parsed: {args}")

        monkeypatch.setattr(Mke2fs, "from_args", classmethod(refuse))
        report, _ = sampled_campaign(deps, sample="random", seed=2022,
                                     budget=400)
        assert report.digest_hex == expected.digest_hex
        gen = ConBugCk(deps, seed=2022)
        assert gen.drive(gen.generate(10)).reached["fsck-clean"] > 0
        assert gen.drive(gen.generate_naive(10)).total == 10

    def test_mount_options_render_only_after_mkfs(self, extraction_report,
                                                  monkeypatch):
        rendered = []
        original = SampledConfig.mount_options.fget

        def counted(self):
            rendered.append(self)
            return original(self)

        monkeypatch.setattr(SampledConfig, "mount_options", property(counted))
        report, _ = sampled_campaign(extraction_report.true_dependencies(),
                                     sample="random", seed=2022, budget=600)
        assert report.reached["mkfs"] == len(rendered) > 0
