"""Tests for the campaign config samplers (repro.perf.sampling)."""

import random
from hashlib import sha256
from itertools import combinations, product

import pytest

from repro.perf import counters, reset_profile
from repro.perf.sampling import (
    ConfigSpace,
    ConstraintIndex,
    Domain,
    FeasibleSampler,
    RandomSampler,
    RowSlice,
    TWiseSampler,
    draw_rows,
    make_sampler,
    parse_sample_spec,
)
from repro.tools.conbugck import build_campaign_space


def synth_space(*sizes):
    """A synthetic space with one integer domain per entry."""
    return ConfigSpace([Domain(f"p{i}", "test", tuple(range(n)))
                        for i, n in enumerate(sizes)])


def assert_covers(space, rows, t):
    """Every value combination of every t params appears in some row."""
    for idxs in combinations(range(len(space)), t):
        needed = set(product(*(space.domains[i].values for i in idxs)))
        seen = {tuple(row[i] for i in idxs) for row in rows}
        missing = needed - seen
        assert not missing, f"params {idxs}: uncovered {sorted(missing)[:5]}"


# ---------------------------------------------------------------------------
# Stream
# ---------------------------------------------------------------------------

class TestStream:
    """The counter-based splitmix64 stream behind :func:`draw_rows`."""

    #: A choice 2**62 wide draws the raw word's low 62 bits (a
    #: 2**64-wide range would overflow ``len``).
    WORDS = (range(1 << 62),)

    def test_deterministic_per_index(self):
        a = draw_rows(7, 0, 100, self.WORDS)
        b = draw_rows(7, 0, 100, self.WORDS)
        assert a == b
        assert len(set(a)) == 100

    def test_counter_addressable(self):
        # Index 50's draws don't depend on having drawn indices 0..49:
        # that O(1) regeneration is what makes shards independent.
        sequential = draw_rows(3, 0, 60, self.WORDS)
        assert draw_rows(3, 50, 51, self.WORDS) == sequential[50:51]
        assert draw_rows(3, 13, 60, self.WORDS) == sequential[13:]

    def test_seed_decorrelates(self):
        assert draw_rows(1, 0, 20, self.WORDS) != \
            draw_rows(2, 0, 20, self.WORDS)
        # (seed, index) and (seed+1, index-1) must not collide.
        assert draw_rows(1, 5, 6, self.WORDS) != \
            draw_rows(2, 4, 5, self.WORDS)

    def test_pick_stays_in_domain(self):
        values = ("a", "b", "c")
        [picks] = draw_rows(9, 0, 1, (values,) * 50)
        assert len(picks) == 50 and set(picks) <= set(values)
        # Later draws continue the stream rather than repeat its start.
        [words] = draw_rows(9, 0, 1, self.WORDS * 3)
        assert words[:1] == draw_rows(9, 0, 1, self.WORDS)[0]
        assert len(set(words)) == 3

    def test_empty_window_and_no_choices(self):
        assert draw_rows(9, 5, 5, self.WORDS) == []
        assert draw_rows(9, 5, 3, self.WORDS) == []
        assert draw_rows(9, 0, 3, ()) == [(), (), ()]


# ---------------------------------------------------------------------------
# ConfigSpace
# ---------------------------------------------------------------------------

class TestConfigSpace:
    def test_combinations(self):
        assert synth_space(2, 3, 4).combinations() == 24

    def test_index_and_dict(self):
        space = synth_space(2, 2)
        assert space.index_of("p1") == 1
        assert space.assignment_dict((0, 1)) == {"p0": 0, "p1": 1}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ConfigSpace([])
        with pytest.raises(ValueError):
            Domain("x", "test", ())

    def test_rejects_repeated_values(self):
        # Covering arrays identify values by position in the domain.
        with pytest.raises(ValueError):
            Domain("x", "test", (1, 2, 1))
        with pytest.raises(ValueError):
            Domain("x", "test", (0, False))


# ---------------------------------------------------------------------------
# RandomSampler
# ---------------------------------------------------------------------------

class TestRandomSampler:
    def test_deterministic(self):
        space = synth_space(4, 4, 4)
        a = list(RandomSampler(space, 11, 50).iter_range(0, 50))
        b = list(RandomSampler(space, 11, 50).iter_range(0, 50))
        assert a == b

    def test_shard_concatenation_matches_full_range(self):
        # Any shard partition regenerates exactly the sequential stream.
        space = synth_space(3, 5, 2, 7)
        sampler = RandomSampler(space, 2022, 97)
        full = list(sampler.iter_range(0, 97))
        for cuts in ((0, 97), (0, 40, 97), (0, 10, 11, 96, 97)):
            ranges = list(zip(cuts, cuts[1:]))
            sharded = [pair for lo, hi in ranges
                       for pair in sampler.iter_range(lo, hi)]
            assert sharded == full, f"ranges={ranges}"

    def test_values_come_from_domains(self):
        space = synth_space(2, 3)
        for _, assignment in RandomSampler(space, 5, 40).iter_range(0, 40):
            for domain, value in zip(space.domains, assignment):
                assert value in domain.values

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            RandomSampler(synth_space(2), 1, 0)


# ---------------------------------------------------------------------------
# TWiseSampler
# ---------------------------------------------------------------------------

class TestTWiseSampler:
    def test_pairwise_covers_every_value_pair(self):
        space = synth_space(2, 3, 4, 2, 3)
        sampler = TWiseSampler(space, 2, seed=2022)
        rows = [row for _, row in sampler.iter_range(0, sampler.total())]
        assert_covers(space, rows, 2)

    def test_pairwise_is_a_real_compression(self):
        space = synth_space(2, 3, 4, 2, 3)
        assert TWiseSampler(space, 2, seed=2022).total() < \
            space.combinations()

    def test_three_wise_coverage(self):
        space = synth_space(2, 2, 3, 2)
        sampler = TWiseSampler(space, 3, seed=7)
        rows = [row for _, row in sampler.iter_range(0, sampler.total())]
        assert_covers(space, rows, 3)

    def test_deterministic_for_seed(self):
        space = synth_space(3, 3, 3)
        a = [r for _, r in TWiseSampler(space, 2, 9).iter_range(0, 100)]
        b = [r for _, r in TWiseSampler(space, 2, 9).iter_range(0, 100)]
        assert a == b

    def test_budget_truncates(self):
        space = synth_space(4, 4, 4)
        unbounded = TWiseSampler(space, 2, seed=1).total()
        assert unbounded > 3
        sampler = TWiseSampler(space, 2, seed=1, budget=3)
        assert sampler.total() == 3
        assert len(list(sampler.iter_range(0, 100))) == 3

    def test_rejects_bad_strength(self):
        with pytest.raises(ValueError):
            TWiseSampler(synth_space(2, 2), 1, seed=0)
        with pytest.raises(ValueError):
            TWiseSampler(synth_space(2, 2), 3, seed=0)

    def test_random_spaces_are_covered(self):
        rng = random.Random(16)
        for _ in range(25):
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(3, 7))]
            t = rng.choice((2, 3))
            space = synth_space(*sizes)
            sampler = TWiseSampler(space, t, seed=rng.randrange(1 << 30))
            rows = [row for _, row in sampler.iter_range(0, sampler.total())]
            assert_covers(space, rows, t)

    def test_shard_hints_ship_rows_without_rebuilding(self):
        space = synth_space(3, 2, 4, 2, 3)
        parent = TWiseSampler(space, 2, seed=5)
        full = list(parent.iter_range(0, parent.total()))
        ranges = [(0, 4), (4, 9), (9, parent.total())]
        hints = parent.shard_hints(ranges)
        assert all(isinstance(hint, RowSlice) for hint in hints)
        sharded = []
        for (lo, hi), hint in zip(ranges, hints):
            shard = TWiseSampler(space, 2, seed=5)
            sharded.extend(shard.iter_range(lo, hi, hint=hint))
            assert shard._rows is None
        assert sharded == full

    def test_one_build_per_sampler(self):
        reset_profile()
        sampler = TWiseSampler(synth_space(3, 3, 2, 2), 2, seed=1)
        for _ in range(3):
            sampler.total()
        list(sampler.iter_range(0, 100))
        sampler.shard_hints([(0, 2), (2, sampler.total())])
        assert counters()["sampling.twise.build"] == 1


class TestPinnedCoveringArrays:
    """sha256 of ``repr(rows)`` for fixed (space, t, seed) cases: the
    construction order (first-best value, vertical placement in repr
    order, seeded don't-care fill) is pinned row for row."""

    CAMPAIGN_T2 = {
        2022: "536ceb428ff620b98972c3447a670cb8"
              "66a823eb0cfed1d3755d710446c41bf2",
        1: "3d7b783e938a8305cdf749fff1757eec"
           "c5cad829d224eefc5d622c5cbe44cd66",
        7: "e69beccb185417e8507561d3746b0545"
           "e9d22837be28078eb24915aa7b0c64b6",
        99: "01a896b7084f842810adcab18a677c31"
            "39885c7009715a86e3e7bbd75faf9cb8",
    }
    CAMPAIGN14_T3_SEED5 = ("926eb33eb9befc25c475454e5fa99a33"
                           "c3c3d9ce25d7544f48bec06b1795576c")
    CAMPAIGN_T3_SEED5 = ("3483365752cc8338634979aef86b35f0"
                         "7ca8e10f59bd4cc996d2c747f79192a3")
    SYNTH = {
        ((2, 3, 4, 2, 3), 2, 2022): "ee1851662455987a37b8ed5fbdbcf8e7"
                                    "2bb41327085f88775858a806d9e674a3",
        ((2, 2, 3, 2), 3, 7): "40b9be8d2bcfd2924aa75d6bcc638156"
                              "497cf7020bd75a73927cc5f679dc7e33",
    }

    @staticmethod
    def _hash(sampler):
        rows = [row for _, row in sampler.iter_range(0, sampler.total())]
        return sha256(repr(rows).encode()).hexdigest()

    def test_campaign_space_pairwise(self):
        space = build_campaign_space()
        assert len(space) == 66
        for seed, expected in self.CAMPAIGN_T2.items():
            assert self._hash(TWiseSampler(space, 2, seed)) == expected, seed

    def test_campaign_domains_three_wise(self):
        space = build_campaign_space()
        assert self._hash(TWiseSampler(ConfigSpace(space.domains[:14]),
                                       3, 5)) == self.CAMPAIGN14_T3_SEED5
        assert self._hash(TWiseSampler(space, 3, 5)) == \
            self.CAMPAIGN_T3_SEED5

    def test_synthetic_spaces(self):
        for (sizes, t, seed), expected in self.SYNTH.items():
            assert self._hash(TWiseSampler(synth_space(*sizes), t, seed)) \
                == expected, (sizes, t, seed)

    def test_campaign_pairwise_covers_every_value_pair(self):
        space = build_campaign_space()
        sampler = TWiseSampler(space, 2, seed=2022)
        rows = [row for _, row in sampler.iter_range(0, sampler.total())]
        seen = {(i, j, row[i], row[j]) for row in rows
                for i, j in combinations(range(len(space)), 2)}
        needed = sum(len(a.values) * len(b.values)
                     for a, b in combinations(space.domains, 2))
        assert needed == 8968
        assert len(seen) == needed


# ---------------------------------------------------------------------------
# ConstraintIndex + FeasibleSampler
# ---------------------------------------------------------------------------

def bool_space():
    return ConfigSpace([Domain("a", "test", (False, True)),
                        Domain("b", "test", (False, True)),
                        Domain("n", "test", (1, 5, 9))])


class TestConstraintIndex:
    def test_requires_and_conflicts(self):
        space = bool_space()
        index = ConstraintIndex(requires=[("a", "b")])
        assert index.feasible(space, (True, True, 5))
        assert not index.feasible(space, (True, False, 5))
        index = ConstraintIndex(conflicts=[("a", "b")])
        assert not index.feasible(space, (True, True, 5))
        assert index.feasible(space, (False, True, 5))

    def test_value_ranges(self):
        space = bool_space()
        index = ConstraintIndex(ranges={"n": (2, 8)})
        assert index.feasible(space, (False, False, 5))
        assert not index.feasible(space, (False, False, 1))
        assert not index.feasible(space, (False, False, 9))

    def test_payload_roundtrip(self):
        index = ConstraintIndex(requires=[("a", "b")],
                                conflicts=[("a", "c")],
                                ranges={"n": (2, None)})
        restored = ConstraintIndex.from_payload(index.as_payload())
        assert restored.requires == index.requires
        assert restored.conflicts == index.conflicts
        assert restored.ranges == index.ranges


class TestFeasibleSampler:
    def test_emits_only_feasible(self):
        space = bool_space()
        index = ConstraintIndex(requires=[("a", "b")], ranges={"n": (2, 8)})
        sampler = FeasibleSampler(RandomSampler(space, 2022, 200), index)
        rows = [row for _, row in sampler.iter_range(0, sampler.total())]
        assert rows
        assert all(index.feasible(space, row) for row in rows)

    def test_skipped_accounting(self):
        space = bool_space()
        index = ConstraintIndex(requires=[("a", "b")])
        sampler = FeasibleSampler(RandomSampler(space, 2022, 200), index)
        total = sampler.total()
        assert total + sampler.skipped == 200

    def test_indices_are_dense(self):
        space = bool_space()
        index = ConstraintIndex(requires=[("a", "b")])
        sampler = FeasibleSampler(RandomSampler(space, 2022, 100), index)
        indices = [i for i, _ in sampler.iter_range(0, sampler.total())]
        assert indices == list(range(sampler.total()))

    def test_shard_hints_skip_the_rescan(self):
        space = bool_space()
        index = ConstraintIndex(requires=[("a", "b")], ranges={"n": (2, 8)})

        def build():
            return FeasibleSampler(RandomSampler(space, 7, 300), index)

        parent = build()
        total = parent.total()
        full = list(parent.iter_range(0, total))
        cuts = (0, total // 3, 2 * total // 3, total)
        ranges = list(zip(cuts, cuts[1:]))
        hints = parent.shard_hints(ranges)
        # A fresh sampler per shard (as a worker would hold) plus its
        # hint regenerates exactly its slice — no leading rescan.
        sharded = []
        for (lo, hi), hint in zip(ranges, hints):
            sharded.extend(build().iter_range(lo, hi, hint=hint))
        assert sharded == full

    def test_covering_array_hints_carry_rows_and_skips(self):
        flags = [Domain(name, "test", (False, True)) for name in "abcd"]
        space = ConfigSpace(flags + [Domain("n", "test", (1, 5, 9)),
                                     Domain("m", "test", (1, 2, 3))])
        index = ConstraintIndex(requires=[("a", "b")],
                                conflicts=[("c", "d")], ranges={"n": (2, 9)})

        def build():
            return FeasibleSampler(TWiseSampler(space, 2, seed=3), index)

        parent = build()
        total = parent.total()
        # Feasible rows sit between infeasible ones: skips are interior.
        assert parent._starts == [4, 6, 9, 10]
        full = list(parent.iter_range(0, total))
        starts = parent._starts
        for cuts in ((0, total), (0, 1, total), tuple(range(total + 1))):
            ranges = list(zip(cuts, cuts[1:]))
            hints = parent.shard_hints(ranges)
            sharded = []
            for (lo, hi), hint in zip(ranges, hints):
                assert isinstance(hint, RowSlice)
                shipped = build()
                sharded.extend(shipped.iter_range(lo, hi, hint=hint))
                assert shipped.inner._rows is None
                # Same skip tally as regenerating the raw window.
                regenerated = build()
                list(regenerated.iter_range(lo, hi, hint=starts[lo]))
                assert shipped.skipped == regenerated.skipped
            assert sharded == full


# ---------------------------------------------------------------------------
# spec parsing + construction
# ---------------------------------------------------------------------------

class TestParseSampleSpec:
    def test_forms(self):
        assert parse_sample_spec("random") == ("random", None, False)
        assert parse_sample_spec("pairwise") == ("twise", 2, False)
        assert parse_sample_spec("twise:3") == ("twise", 3, False)
        assert parse_sample_spec("random+feasible") == ("random", None, True)
        assert parse_sample_spec("pairwise+feasible") == ("twise", 2, True)

    def test_rejects_malformed(self):
        for bad in ("", "coverage", "twise:x", "twise:1", "twise:"):
            with pytest.raises(ValueError):
                parse_sample_spec(bad)

    def test_make_sampler_wiring(self):
        space = synth_space(2, 3)
        assert make_sampler(space, "random", 1, 10).name == "random"
        assert make_sampler(space, "twise", 1, None, t=2).name == "pairwise"
        wrapped = make_sampler(space, "random", 1, 10,
                               constraints=ConstraintIndex())
        assert wrapped.name == "random+feasible"
        with pytest.raises(ValueError):
            make_sampler(space, "random", 1, None)
        with pytest.raises(ValueError):
            make_sampler(space, "coverage", 1, 10)
