"""Tests for the campaign engine (repro.perf.campaign + checker wiring)."""

import tracemalloc
from collections import Counter

import pytest

from repro.ecosystem.mke2fs import Mke2fs
from repro.errors import UsageError
from repro.fsimage.blockdev import BlockDevice
from repro.perf import SnapshotCache
from repro.perf.sampling import ConstraintIndex, FeasibleSampler, \
    RandomSampler
from repro.tools.conbugck import (
    ConBugCk,
    DriveStats,
    MAX_STORED_FAILURES,
    ConfigAdapter,
    build_campaign_space,
)
from repro.tools.conhandleck import (ConHandleCk, ViolationOutcome,
                                     sampled_check)


@pytest.fixture(scope="module")
def deps(extraction_report):
    return extraction_report.true_dependencies()


def _canonical(stats: DriveStats):
    return (stats.total, stats.reached, stats.failures,
            stats.failures_truncated)


# ---------------------------------------------------------------------------
# SnapshotCache
# ---------------------------------------------------------------------------

class TestSnapshotCache:
    @staticmethod
    def _mkfs(dev: BlockDevice) -> None:
        Mke2fs.from_args(["-b", "1024", "512"]).run(dev)

    def test_clone_matches_cold_build(self):
        cache = SnapshotCache()
        cold = cache.device_for(("k",), 512, 1024, self._mkfs)
        clone = cache.device_for(("k",), 512, 1024, self._mkfs)
        assert clone is not cold
        assert clone.snapshot() == cold.snapshot()

    def test_clone_isolation(self):
        cache = SnapshotCache()
        reference = cache.device_for(("k",), 512, 1024, self._mkfs).snapshot()
        mutated = cache.device_for(("k",), 512, 1024, self._mkfs)
        mutated.write_block(3, b"\xde\xad" * 512)
        # A mutated clone never leaks back into the cache.
        assert cache.device_for(("k",), 512, 1024, self._mkfs).snapshot() == \
            reference

    def test_builds_once_per_key(self):
        calls = []

        def build(dev):
            calls.append(1)
            self._mkfs(dev)

        cache = SnapshotCache()
        for _ in range(4):
            cache.device_for(("k",), 512, 1024, build)
        assert len(calls) == 1
        assert len(cache) == 1

    def test_deterministic_error_cached(self):
        def build(dev):
            raise UsageError("mke2fs", "bad geometry")

        cache = SnapshotCache()
        with pytest.raises(UsageError, match="bad geometry"):
            cache.device_for(("bad",), 512, 1024, build)
        # The replayed rejection is the identical error, not a rebuild.
        with pytest.raises(UsageError, match="bad geometry"):
            cache.device_for(("bad",), 512, 1024,
                             lambda dev: pytest.fail("must not rebuild"))

    def test_block_map_clone_roundtrip(self):
        written = (0, 1, 2, 9, 10, 40)

        def build(dev):
            for b in written:
                dev.write_block(b, bytes([b + 1]) * 1024)

        cache = SnapshotCache()
        cold = cache.device_for(("k",), 64, 1024, build)
        clone = cache.device_for(("k",), 64, 1024,
                                 lambda dev: pytest.fail("must not rebuild"))
        # A hit holds exactly the blocks the build wrote.
        assert sorted(clone._blocks) == list(written)
        assert clone.snapshot() == cold.snapshot()


# ---------------------------------------------------------------------------
# BlockDevice fast paths
# ---------------------------------------------------------------------------

class TestBlockDeviceFastPath:
    def test_read_block_view_zero_copy(self):
        dev = BlockDevice(4, 1024)
        dev.write_block(2, b"\xaa" * 1024)
        view = dev.read_block_view(2)
        assert isinstance(view, memoryview)
        assert view.readonly
        assert bytes(view) == b"\xaa" * 1024
        view.release()

    def test_from_snapshot(self):
        dev = BlockDevice(4, 1024)
        dev.write_block(0, b"hello")
        clone = BlockDevice.from_snapshot(dev.snapshot(), 1024)
        assert clone.snapshot() == dev.snapshot()
        clone.write_block(0, b"bye")
        assert dev.read_block(0)[:5] == b"hello"

    def test_from_snapshot_rejects_misaligned(self):
        with pytest.raises(ValueError):
            BlockDevice.from_snapshot(b"\x00" * 1500, 1024)
        with pytest.raises(ValueError):
            BlockDevice.from_snapshot(b"", 1024)

    def test_from_snapshot_checks_geometry(self):
        with pytest.raises(ValueError):
            BlockDevice.from_snapshot(b"\x00" * 3072, 1536)
        with pytest.raises(ValueError):
            BlockDevice.from_snapshot(b"\x00" * 512, 256)

    def test_from_snapshot_allocates_one_buffer(self):
        # The clone's only device-sized allocation is the copy itself.
        snapshot = BlockDevice(256, 4096).snapshot()
        tracemalloc.start()
        try:
            clone = BlockDevice.from_snapshot(snapshot, 4096)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert clone.size_bytes == len(snapshot)
        assert peak < 1.25 * len(snapshot), (peak, len(snapshot))


# ---------------------------------------------------------------------------
# DriveStats guards and failure capping
# ---------------------------------------------------------------------------

class TestDriveStats:
    def test_depth_rate_empty_campaign(self):
        stats = DriveStats()
        for stage in stats.reached:
            assert stats.depth_rate(stage) == 0.0

    def test_failure_cap_exact_counts(self):
        stats = DriveStats(total=0, max_stored_failures=5)
        for i in range(12):
            stats.record_failure(f"boom {i}")
        assert len(stats.failures) == 5
        assert stats.failures == [f"boom {i}" for i in range(5)]
        assert stats.failures_truncated == 7
        assert stats.failure_count == 12

    def test_default_cap(self):
        assert DriveStats().max_stored_failures == MAX_STORED_FAILURES

    def test_drive_applies_cap(self, deps):
        gen = ConBugCk(deps, seed=3)
        configs = gen.generate_naive(MAX_STORED_FAILURES + 40)
        stats = gen.drive(configs)
        again = ConBugCk(deps, seed=3).drive(configs)
        # Same configs, same failures, regardless of how often driven.
        assert stats.failures == again.failures
        # Every config short of fsck-clean is a failure, counted exactly
        # past the storage cap.
        assert stats.failure_count == stats.total - stats.reached["fsck-clean"]
        assert len(stats.failures) == MAX_STORED_FAILURES
        assert stats.failures_truncated > 0

    def test_violations_die_at_mount(self, deps):
        """A failure names the first stage a config did not reach, and
        sampled mount options that violate a dependency die at mount
        validation on a valid image."""
        gen = ConBugCk(deps, seed=9)
        space = build_campaign_space()
        next_stage = {(): ("device:", "mkfs:"), ("mkfs",): ("mount:",),
                      ("mkfs", "mount"): ("use:",),
                      ("mkfs", "mount", "use"): ("fsck:",)}
        died_at_mount = 0
        adapt = ConfigAdapter(space)
        for _, assignment in RandomSampler(space, 9, 200).iter_range(0, 200):
            config = adapt(assignment)
            reached, failure = gen._drive_one(config, 512)
            if failure is None:
                assert reached == ("mkfs", "mount", "use", "fsck-clean")
                continue
            assert failure.startswith(next_stage[reached]), (reached, failure)
            died_at_mount += reached == ("mkfs",)
        assert died_at_mount > 0


# ---------------------------------------------------------------------------
# equivalence across drive paths and job counts
# ---------------------------------------------------------------------------

class TestEquivalence:
    def test_drive_identical_across_jobs(self, deps):
        """``drive`` over a sample's materialised configs agrees with the
        sharded sampled campaign, in-process (jobs=1) and on process
        workers (jobs=2): one drive body serves both, fed readable
        ``GeneratedConfig``s by ``drive`` and lazily rendered
        ``SampledConfig``s by the shards, and the two feeds stay
        outcome-identical, config by config.  ``+feasible`` keeps
        configs mkfs accepts, so the sample reaches mount and use, not
        only mkfs."""
        space = build_campaign_space()
        sampler = FeasibleSampler(RandomSampler(space, 11, 400),
                                  ConstraintIndex.from_dependencies(deps))
        adapt = ConfigAdapter(space)
        configs = [adapt(assignment) for _, assignment
                   in sampler.iter_range(0, sampler.total())]
        gen = ConBugCk(deps, seed=11)
        baseline = gen.drive(configs)
        digest = sum(outcome_digest_term(index, *gen._drive_one(config, 512))
                     for index, config in enumerate(configs)) % (1 << 256)
        assert {"mkfs", "mount"} <= {s for s, n in baseline.reached.items()
                                     if n}
        for jobs in (1, 2):
            report, _meta = sampled_campaign(
                deps, sample="random+feasible", seed=11, budget=400,
                shards=3, jobs=jobs)
            assert _report_canonical(report) == \
                _sparse_canonical(baseline), f"jobs={jobs}"
            assert report.digest == digest, f"jobs={jobs}"

    def test_conhandleck_identical_across_jobs(self, deps):
        """``check`` verdicts match the sharded violation campaign's,
        in-process (jobs=1) and on process workers (jobs=2)."""
        results = ConHandleCk().check(deps).results
        reached = Counter()
        for result in results:
            reached[result.outcome.value] += 1
            reached[result.dependency.key()] += 1
        corruptions = [f"{r.dependency.key()} — {r.detail}" for r in results
                       if r.outcome is ViolationOutcome.CORRUPTION]
        for jobs in (1, 2):
            report, _meta = sampled_check(deps, shards=3, jobs=jobs)
            assert report.reached == dict(reached), f"jobs={jobs}"
            assert [msg for _, msg in report.failures] == corruptions


# ---------------------------------------------------------------------------
# sharded streaming campaigns
# ---------------------------------------------------------------------------


from repro.obs.manifest import build_manifest, diff_manifests, \
    validate_manifest
from repro.perf.campaign import (
    CampaignReport,
    ShardAggregate,
    outcome_digest_term,
    outcome_tail,
    shard_ranges,
)
from repro.perf import counters, reset_profile
from repro.tools import conhandleck as chc
from repro.tools.conbugck import sampled_campaign


def _sparse_canonical(stats: DriveStats):
    """DriveStats in the sparse form a streaming CampaignReport holds."""
    return (stats.total,
            {s: n for s, n in stats.reached.items() if n},
            stats.failures, stats.failures_truncated)


def _report_canonical(report: CampaignReport):
    return (report.total, dict(report.reached),
            [msg for _, msg in report.failures],
            report.failure_count - len(report.failures))


class TestShardRanges:
    def test_partitions_exactly(self):
        for total, shards in ((10, 3), (7, 7), (100, 8), (3, 50), (1, 1)):
            ranges = shard_ranges(total, shards)
            assert ranges[0][0] == 0 and ranges[-1][1] == total
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
            sizes = [hi - lo for lo, hi in ranges]
            assert max(sizes) - min(sizes) <= 1
            assert len(ranges) == min(shards, total)

    def test_empty_campaign(self):
        assert shard_ranges(0, 4) == [(0, 0)]


class TestShardAggregateMerge:
    @staticmethod
    def _outcomes(n):
        return [(i, ("mkfs", "mount") if i % 3 else ("mkfs",),
                 None if i % 3 else f"mount: boom {i}") for i in range(n)]

    def test_digest_is_order_independent_but_index_bound(self):
        outcomes = self._outcomes(30)
        forward, backward = ShardAggregate(), ShardAggregate()
        for item in outcomes:
            forward.add(*item)
        for item in reversed(outcomes):
            backward.add(*item)
        assert forward.digest == backward.digest
        shifted = ShardAggregate()
        for index, reached, failure in outcomes:
            shifted.add(index + 1, reached, failure)
        assert shifted.digest != forward.digest

    def test_payload_digest_travels_as_hex(self):
        agg = ShardAggregate()
        for item in self._outcomes(10):
            agg.add(*item)
        payload = agg.as_payload()
        assert payload["digest"] == "%064x" % agg.digest
        assert CampaignReport.merge([payload]).digest == agg.digest

    def test_merge_failure_cap_matches_sequential(self):
        outcomes = self._outcomes(60)
        sequential = ShardAggregate(max_failures=5)
        for item in outcomes:
            sequential.add(*item)
        payloads = []
        for lo, hi in shard_ranges(60, 4):
            agg = ShardAggregate(max_failures=5)
            for item in outcomes[lo:hi]:
                agg.add(*item)
            payloads.append(agg.as_payload())
        merged = CampaignReport.merge(payloads, max_failures=5)
        assert merged.failures == sequential.failures
        assert merged.failure_count == \
            len(sequential.failures) + sequential.failures_truncated
        assert merged.digest == sequential.digest
        assert merged.reached == sequential.reached

    def test_add_sums_outcome_terms(self):
        """``add`` hashes ``b"%d" % index + tail`` and must equal the sum
        of :func:`outcome_digest_term` mod 2**256, with or without a
        memoized tail: repeated outcomes, no failure, and failure text
        outside ASCII (ConHandleCk's exemplars carry an em dash)."""
        outcomes = [(i, ("corruption", "mke2fs.x → mount.y"),
                     "mke2fs.x → mount.y — e2fsck found 2 problems")
                    for i in range(0, 40, 3)]
        outcomes += [(i, ("rejected", "mke2fs.blocksize"), None)
                     for i in range(1, 40, 3)]
        outcomes += [(i, (), "mkfs: naïve size ≠ 64 blocks")
                     for i in range(2, 40, 3)]
        outcomes.append((10 ** 30, ("mkfs", "mount"), ""))
        expected = sum(outcome_digest_term(*item) for item in outcomes) \
            % 2 ** 256
        plain, memoized = ShardAggregate(), ShardAggregate()
        for index, reached, failure in outcomes:
            plain.add(index, reached, failure)
            memoized.add(index, reached, failure,
                         outcome_tail(reached, failure))
            assert 0 <= plain.digest < 2 ** 256
        assert plain.digest == memoized.digest == expected

    def test_term_depends_on_every_field(self):
        base = outcome_digest_term(3, ("mkfs",), "boom")
        assert outcome_digest_term(4, ("mkfs",), "boom") != base
        assert outcome_digest_term(3, ("mount",), "boom") != base
        assert outcome_digest_term(3, ("mkfs",), None) != base


class TestSampledCampaign:
    def test_shard_count_invariant(self, deps):
        baseline, meta = sampled_campaign(deps, sample="random", seed=5,
                                          budget=120, shards=1)
        assert baseline.total == 120
        assert meta["sampler"] == "random"
        assert meta["seed"] == 5 and meta["shards"] == 1
        assert meta["space_params"] > 0
        for shards in (3, 8):
            report, _ = sampled_campaign(deps, sample="random", seed=5,
                                         budget=120, shards=shards)
            assert report.digest_hex == baseline.digest_hex
            assert _report_canonical(report) == _report_canonical(baseline)

    def test_seed_changes_the_campaign(self, deps):
        a, _ = sampled_campaign(deps, sample="random", seed=1, budget=40)
        b, _ = sampled_campaign(deps, sample="random", seed=2, budget=40)
        assert a.digest_hex != b.digest_hex

    def test_feasible_sampling_skips_infeasible(self, deps):
        report, meta = sampled_campaign(deps, sample="random+feasible",
                                        seed=2022, budget=150, shards=2)
        assert meta["sampler"] == "random+feasible"
        assert report.total + meta["infeasible_skipped"] == 150
        assert meta["infeasible_skipped"] > 0

    #: perfbench's pinned reference digest for this spec and seed.
    PAIRWISE_FEASIBLE_DIGEST = ("e65799ef7009fef5fc8a30b27714c6dd"
                                "269f52d64462fd48fcbeb5bce8a82c60")

    @pytest.mark.parametrize("sample", ["pairwise", "pairwise+feasible"])
    def test_pairwise_shards_and_backends(self, deps, sample):
        runs = {}
        for shards, jobs in ((1, 1), (3, 1), (7, 1), (3, 2)):
            reset_profile()
            report, meta = sampled_campaign(deps, sample=sample, seed=2022,
                                            shards=shards, jobs=jobs)
            # The array is built once, in the caller, whatever the
            # shard count or job count: shards get its rows as hints.
            assert counters().get("sampling.twise.build") == 1, \
                (shards, jobs)
            assert meta.pop("shards") == min(shards, report.total)
            runs[shards, jobs] = (report.digest_hex,
                                  _report_canonical(report), meta)
        baseline = runs[1, 1]
        for key, run in runs.items():
            assert run == baseline, key
        if sample == "pairwise+feasible":
            assert baseline[0] == self.PAIRWISE_FEASIBLE_DIGEST


class TestPinnedDigests:
    """The seed-2022 random (budget 600) and violation (budget 3000)
    campaigns, pinned like perfbench's reference round: in one shard,
    in three and on two process workers; and a 20 000-config random
    campaign of the same seed."""

    RANDOM_DIGEST = ("30144f41096af65b7d63b4bf6556301c"
                     "ea194a06fbbebd9dccc9b9498476c9d1")
    VIOLATIONS_DIGEST = ("9fed4050a51aeacc2ba9a8cb6587cd3d"
                         "2fce6fb734acf830c0ca4f90c677574b")

    @pytest.mark.parametrize("shards, jobs", [(1, 1), (3, 1), (3, 2)])
    def test_random(self, deps, shards, jobs):
        report, meta = sampled_campaign(deps, sample="random", seed=2022,
                                        budget=600, shards=shards,
                                        jobs=jobs)
        assert (report.total, meta["shards"]) == (600, shards)
        assert report.digest_hex == self.RANDOM_DIGEST

    def test_random_20000(self, deps):
        """Deep enough that a few hundred configs pass mkfs and a dozen
        mount, so the lazily rendered mount options are pinned too."""
        report, meta = sampled_campaign(deps, sample="random", seed=2022,
                                        budget=20_000, shards=3, jobs=1)
        assert (report.total, meta["shards"]) == (20_000, 3)
        assert report.reached == {"mkfs": 431, "mount": 12}
        assert report.digest_hex == (
            "30acf60b908c25f449d23d58d6dc631d"
            "1db957f431965bbfc9bf692e811db454")

    @pytest.mark.parametrize("shards, jobs", [(1, 1), (3, 1), (3, 2)])
    def test_violations(self, deps, shards, jobs):
        report, meta = chc.sampled_check(deps, seed=2022, budget=3000,
                                         shards=shards, jobs=jobs)
        assert (report.total, meta["shards"]) == (3000, shards)
        assert report.digest_hex == self.VIOLATIONS_DIGEST


class TestProcessBackendCampaigns:
    """Process-worker shards (``jobs=2``) give the same report, digest
    and meta as sequential in-process ones (``jobs=1``) for every
    campaign kind, whatever the shard count."""

    @staticmethod
    def _run(deps, kind, shards, jobs):
        if kind == "violations":
            return chc.sampled_check(deps, seed=3, budget=24, shards=shards,
                                     jobs=jobs)
        budget = 60 if kind == "random" else None
        return sampled_campaign(deps, sample=kind, seed=2022, budget=budget,
                                shards=shards, jobs=jobs)

    @pytest.mark.parametrize("kind", ["random", "pairwise",
                                      "pairwise+feasible", "violations"])
    def test_process_matches_thread(self, deps, kind):
        for shards in (1, 3, 8):
            runs = []
            for jobs in (1, 2):
                report, meta = self._run(deps, kind, shards, jobs)
                runs.append((report.digest_hex, _report_canonical(report),
                             meta))
            assert runs[1] == runs[0], (kind, shards)


class TestConHandleCkSampled:
    def test_shard_count_invariant(self, deps):
        baseline, meta = chc.sampled_check(deps, seed=3, budget=24, shards=1)
        assert meta["total"] == 24
        for shards in (2, 6):
            report, _ = chc.sampled_check(deps, seed=3, budget=24,
                                          shards=shards)
            assert report.digest_hex == baseline.digest_hex

    def test_unbudgeted_covers_every_dependency(self, deps):
        report, meta = chc.sampled_check(deps, shards=4)
        assert report.total == len(deps)
        assert meta["sampler"] == "deps"
        # The paper's single mishandled dependency surfaces here too.
        assert report.failure_count == 1
        assert "sparse_super2" in report.failures[0][1]


class TestCampaignWorkCounters:
    """Host-independent work gate for the campaign caches that stay.

    ConHandleCk's violation campaign repeats dependencies and base
    images, so its outcome memo and snapshot cache do pinned amounts of
    work; ConBugCk formats every config cold and reports no cache
    traffic at all.
    """

    def test_only_violation_campaigns_use_the_caches(self, deps):
        report, _meta = sampled_check(deps, seed=2022, budget=3000)
        counters = report.counters
        assert counters.get("campaign.outcome.hit", 0) == 2941
        assert (counters["campaign.snapshot.hit"],
                counters["campaign.snapshot.miss"]) == (14, 40)
        report, _meta = sampled_campaign(deps, sample="random", seed=2022,
                                         budget=120, shards=2)
        assert not [name for name in report.counters
                    if name.startswith(("campaign.snapshot.",
                                        "campaign.outcome."))]


class TestSnapshotCacheCounters:
    @staticmethod
    def _mkfs(dev: BlockDevice) -> None:
        Mke2fs.from_args(["-b", "1024", "512"]).run(dev)

    def test_instance_hit_miss_accounting(self):
        cache = SnapshotCache()
        assert (cache.hits, cache.misses) == (0, 0)
        cache.device_for(("k",), 512, 1024, self._mkfs)
        assert (cache.hits, cache.misses) == (0, 1)
        cache.device_for(("k",), 512, 1024, self._mkfs)
        cache.device_for(("k",), 512, 1024, self._mkfs)
        assert (cache.hits, cache.misses) == (2, 1)
        cache.device_for(("k2",), 512, 1024, self._mkfs)
        assert (cache.hits, cache.misses) == (2, 2)

    def test_cached_rejection_reraised_verbatim(self):
        error = UsageError("mke2fs", "bad geometry")

        def build(dev):
            raise error

        cache = SnapshotCache()
        for _ in range(3):
            with pytest.raises(UsageError) as caught:
                cache.device_for(("bad",), 512, 1024, build)
            assert caught.value is error
        assert (cache.hits, cache.misses) == (2, 1)


class TestSparseAllocationGate:
    """Host-independent memory gates for the sparse block device.

    A flat device allocates its whole size up front: 4 GiB for the
    first case, and ~160 MiB of peak for the violation campaign.
    """

    def test_construction_allocates_no_device_buffer(self):
        tracemalloc.start()
        try:
            dev = BlockDevice(1 << 20, 4096)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dev.size_bytes == 1 << 32
        assert peak < 64 * 1024, peak

    def test_violation_campaign_peak_under_one_device(self, deps):
        tracemalloc.start()
        try:
            report, _meta = sampled_check(deps, seed=2022, budget=3000)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.total == 3000
        assert peak < 4 * 1024 * 1024, peak

    def test_stored_blocks_are_the_nonzero_blocks(self):
        dev = BlockDevice(4096, 4096)
        Mke2fs.from_args(["-b", "4096", "4096"]).run(dev)
        image = dev.snapshot()
        nonzero = sum(1 for b in range(4096)
                      if image[b * 4096:(b + 1) * 4096] != bytes(4096))
        assert len(dev._blocks) == nonzero == 6


class TestManifestCampaignSection:
    @staticmethod
    def _manifest(**overrides):
        campaign = {
            "sampler": "random", "seed": 2022, "budget": 100, "total": 100,
            "shards": 4, "snapshot_hits": 10, "snapshot_misses": 90,
            "snapshot_hit_ratio": 0.1, "infeasible_skipped": 0,
            "digest": "ab" * 32, "shard_seconds": [0.1, 0.2, 0.1, 0.2],
        }
        campaign.update(overrides)
        return build_manifest("repro-conbugck", wall_seconds=1.0,
                              campaign=campaign)

    def test_round_trips_through_validation(self):
        manifest = self._manifest()
        validate_manifest(manifest)
        assert manifest["campaign"]["sampler"] == "random"

    def test_identity_fields_diff_as_real(self):
        diff = diff_manifests(self._manifest(),
                              self._manifest(sampler="pairwise",
                                             digest="cd" * 32))
        real = [line for line in diff if not line.startswith("~")]
        assert any(line.startswith("campaign.sampler:") for line in real)
        assert any(line.startswith("campaign.digest:") for line in real)

    def test_execution_shape_diffs_as_informational(self):
        diff = diff_manifests(
            self._manifest(),
            self._manifest(shards=8, snapshot_hits=50,
                           shard_seconds=[0.05] * 8))
        campaign_lines = [line for line in diff if "campaign." in line]
        assert campaign_lines
        assert all(line.startswith("~") for line in campaign_lines)
