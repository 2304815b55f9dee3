"""ConBugCk: dependency-respecting configuration generation (§4.2).

ConBugCk is a plugin for test suites with limited configuration
coverage: it replaces the configuration-loading logic and generates
configuration states that satisfy the extracted multi-level
dependencies, so the enhanced tests drive deep into the target code
instead of dying on shallow validation errors.

``generate`` produces dependency-respecting configurations,
``generate_naive`` produces unconstrained random ones (the baseline),
and ``drive`` executes either kind through the simulated ecosystem
(mkfs → mount → use → umount → fsck), reporting how deep each
configuration gets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, \
    Set, Tuple, Union

from repro.analysis.model import Dependency
from repro.ecosystem.featureset import DEFAULT_EXT4_FEATURES, FeatureSet, \
    all_feature_names
from repro.ecosystem.mke2fs import Mke2fs, Mke2fsConfig, requested_features
from repro.ecosystem.mount import Ext4Mount
from repro.ecosystem.e2fsck import E2fsck, E2fsckConfig
from repro.ecosystem.params import EXT4_REGISTRY, ConfigParam, ParamKind
from repro.errors import ReproError
from repro.fsimage.blockdev import BlockDevice
from repro.obs.tracer import span
from repro.perf import bump, timed
from repro.perf.sampling import Assignment, ConfigSpace, ConstraintIndex, \
    make_sampler, parse_sample_spec

if TYPE_CHECKING:
    from repro.perf.campaign import CampaignReport

#: Stages a driven configuration can reach.
STAGES = ("mkfs", "mount", "use", "fsck-clean")

#: How many failure messages a campaign keeps verbatim.  Counts stay
#: exact past the cap (``failures_truncated``); only the stored strings
#: are bounded, so a million-config campaign cannot hoard memory.
MAX_STORED_FAILURES = 200

@dataclass
class GeneratedConfig:
    """One configuration state for the create+mount pipeline."""

    features: Tuple[str, ...]
    blocksize: int
    inode_size: int
    inode_ratio: int
    reserved_percent: int
    mount_options: str

    def mke2fs_args(self, fs_blocks: int) -> List[str]:
        # "-O none" first: the generated feature set is complete, not a
        # delta against mke2fs's defaults.
        """The mke2fs argument vector for this configuration."""
        spec = ["-O", "none"]
        if self.features:
            spec += ["-O", ",".join(self.features)]
        return spec + [
            "-b", str(self.blocksize),
            "-I", str(self.inode_size),
            "-i", str(self.inode_ratio),
            "-m", str(self.reserved_percent),
            str(fs_blocks),
        ]

    def mke2fs_config(self, fs_blocks: int) -> Mke2fsConfig:
        """What mke2fs parses from :meth:`mke2fs_args`, built directly."""
        return Mke2fsConfig(
            features=requested_features(self.features),
            fs_blocks_count=fs_blocks,
            **{name: getattr(self, name) for name in _MKFS_NUMERIC})


@dataclass
class DriveStats:
    """How deep each driven configuration reached."""

    total: int = 0
    reached: Dict[str, int] = field(default_factory=lambda: {s: 0 for s in STAGES})
    failures: List[str] = field(default_factory=list)
    #: Failure messages dropped once ``failures`` hit the storage cap.
    failures_truncated: int = 0
    max_stored_failures: int = MAX_STORED_FAILURES

    def depth_rate(self, stage: str) -> float:
        """Fraction of configurations reaching ``stage``.

        An empty campaign (``total == 0``) has a rate of 0.0 at every
        stage rather than a division error.
        """
        if not self.total:
            return 0.0
        return self.reached[stage] / self.total

    @property
    def failure_count(self) -> int:
        """Exact number of failures, stored messages plus truncated."""
        return len(self.failures) + self.failures_truncated

    def record_failure(self, message: str) -> None:
        """Count a failure; store its message unless the cap is reached."""
        if len(self.failures) < self.max_stored_failures:
            self.failures.append(message)
        else:
            self.failures_truncated += 1


class ConBugCk:
    """Dependency-respecting configuration generator + driver."""

    #: Numeric parameters ConBugCk samples, with power-of-two handling.
    _POW2 = {"blocksize", "inode_size"}

    def __init__(self, dependencies: Sequence[Dependency], seed: int = 2022) -> None:
        self.dependencies = list(dependencies)
        self.rng = random.Random(seed)
        self._index_dependencies()

    @classmethod
    def from_extraction(cls, seed: int = 2022) -> "ConBugCk":
        """Build from a fresh Table-5 extraction (validated deps only)."""
        from repro.analysis.extractor import extract_all

        return cls(extract_all().true_dependencies(), seed=seed)

    def _index_dependencies(self) -> None:
        # The index itself lives in repro.perf.sampling so samplers and
        # shard workers can consult it without constructing a checker;
        # the attribute views keep the historical surface.
        self.constraints = ConstraintIndex.from_dependencies(self.dependencies)
        self._requires = self.constraints.requires
        self._conflicts = self.constraints.conflicts
        self._ranges = self.constraints.ranges

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------

    def generate(self, count: int) -> List[GeneratedConfig]:
        """Generate ``count`` dependency-respecting configurations."""
        return [self._generate_one() for _ in range(count)]

    def _generate_one(self) -> GeneratedConfig:
        features = self._sample_features()
        blocksize = self._sample_pow2("blocksize", (1024, 2048, 4096))
        inode_size = self._sample_pow2("inode_size", (128, 256, 512, 1024))
        # CPD value: inode_size <= blocksize.
        inode_size = min(inode_size, blocksize)
        inode_ratio = self._sample_range("inode_ratio", default=(1024, 65536))
        reserved = self._sample_range("reserved_percent", default=(0, 50))
        mount_options = self._sample_mount_options(features)
        return GeneratedConfig(
            features=tuple(sorted(features)),
            blocksize=blocksize,
            inode_size=inode_size,
            inode_ratio=inode_ratio,
            reserved_percent=reserved,
            mount_options=mount_options,
        )

    def _sample_features(self) -> Set[str]:
        candidates = list(DEFAULT_EXT4_FEATURES) + [
            "sparse_super2", "bigalloc", "inline_data", "metadata_csum",
            "uninit_bg", "64bit", "quota", "project", "huge_file",
            "dir_nlink", "ea_inode", "large_dir", "encrypt",
            "casefold", "meta_bg",
        ]
        chosen = {f for f in candidates if self.rng.random() < 0.45}
        return self._repair_features(chosen)

    def _repair_features(self, chosen: Set[str]) -> Set[str]:
        """Enforce the extracted requires/conflicts dependencies."""
        for _ in range(10):
            changed = False
            for a, b in self._requires:
                if a in chosen and b not in chosen:
                    chosen.add(b)
                    changed = True
            for a, b in self._conflicts:
                if a in chosen and b in chosen:
                    chosen.discard(self.rng.choice((a, b)))
                    changed = True
            if not changed:
                return chosen
        raise ReproError("feature repair did not converge")

    def _sample_pow2(self, name: str, choices: Tuple[int, ...]) -> int:
        lo, hi = self._ranges.get(name, (None, None))
        valid = [c for c in choices
                 if (lo is None or c >= lo) and (hi is None or c <= hi)]
        return self.rng.choice(valid or list(choices))

    def _sample_range(self, name: str, default: Tuple[int, int]) -> int:
        lo, hi = self._ranges.get(name, (None, None))
        lo = lo if lo is not None else default[0]
        hi = hi if hi is not None else default[1]
        return self.rng.randint(lo, min(hi, default[1]))

    def _sample_mount_options(self, features: Set[str]) -> str:
        opts: List[str] = []
        if self.rng.random() < 0.3:
            opts.append("noatime")
        if self.rng.random() < 0.3:
            opts.append(f"commit={self.rng.randint(0, 900)}")
        if self.rng.random() < 0.2 and "has_journal" in features:
            # CPD: journal_async_commit requires journal_checksum.
            opts.append("journal_checksum")
            if self.rng.random() < 0.5:
                opts.append("journal_async_commit")
        if self.rng.random() < 0.2:
            mode = self.rng.choice(("ordered", "writeback"))
            opts.append(f"data={mode}")
        if self.rng.random() < 0.2:
            opts.append(f"journal_ioprio={self.rng.randint(0, 7)}")
        return ",".join(opts)

    # ------------------------------------------------------------------
    # naive baseline
    # ------------------------------------------------------------------

    def generate_naive(self, count: int) -> List[GeneratedConfig]:
        """Random configurations with no dependency awareness."""
        out: List[GeneratedConfig] = []
        feature_pool = list(all_feature_names())
        for _ in range(count):
            features = tuple(sorted(
                f for f in feature_pool if self.rng.random() < 0.3))
            opts: List[str] = []
            if self.rng.random() < 0.4:
                opts.append(f"commit={self.rng.randint(-100, 2000)}")
            if self.rng.random() < 0.3:
                opts.append("journal_async_commit")
            if self.rng.random() < 0.3:
                opts.append("data=journal")
            if self.rng.random() < 0.2:
                opts.append("noload")
            out.append(GeneratedConfig(
                features=features,
                blocksize=self.rng.choice((512, 1024, 2048, 4096, 131072)),
                inode_size=self.rng.choice((64, 128, 256, 8192)),
                inode_ratio=self.rng.choice((256, 1024, 16384, 8388608)),
                reserved_percent=self.rng.randint(0, 60),
                mount_options=",".join(opts),
            ))
        return out

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def drive(self, configs: Sequence[GeneratedConfig],
              fs_blocks: int = 512) -> DriveStats:
        """Run each configuration through the full ecosystem pipeline.

        Configurations drive one after another, in spec order (driving
        only — generation already consumed the RNG).  Every
        configuration is formatted cold on its own sparse device.
        """
        bump("campaign.items", len(configs))
        with span("campaign.drive", items=len(configs)), \
                timed("campaign.drive"):
            outcomes = [self._drive_one(config, fs_blocks)
                        for config in configs]
        stats = DriveStats(total=len(configs))
        for reached, failure in outcomes:
            for stage in reached:
                stats.reached[stage] += 1
            if failure is not None:
                stats.record_failure(failure)
        return stats

    def _drive_one(self, config: DrivenConfig, fs_blocks: int,
                   ) -> Tuple[Tuple[str, ...], Optional[str]]:
        """Drive one configuration under a span; returns (stages
        reached, failure)."""
        with span("conbugck.config", blocksize=config.blocksize,
                  mount_options=config.mount_options):
            return _drive_config_fast(config, fs_blocks)


def _drive_config_fast(config: DrivenConfig, fs_blocks: int,
                       ) -> Tuple[Tuple[str, ...], Optional[str]]:
    """One config through mkfs→mount→use→fsck: (stages reached, failure).

    The one drive body.  :meth:`ConBugCk.drive` calls it under a
    per-config span; campaign shards call it bare, once per config (a
    10^6-config shard cannot afford a span each).  The mount options
    are read only once mkfs has accepted the config.  Pure: no RNG, no
    shared mutable state.
    """
    try:
        dev = BlockDevice(fs_blocks, config.blocksize)
        Mke2fs(config.mke2fs_config(fs_blocks)).run(dev)
    except ValueError as exc:
        return (), f"device: {exc}"
    except ReproError as exc:
        return (), f"mkfs: {exc}"
    try:
        handle = Ext4Mount.mount(dev, config.mount_options)
    except ReproError as exc:
        return STAGES[:1], f"mount: {exc}"
    try:
        ino = handle.create_file(4, fragmented=True)
        handle.delete_file(ino)
        handle.create_file(2)
        handle.umount()
    except ReproError as exc:
        return STAGES[:2], f"use: {exc}"
    result = E2fsck(E2fsckConfig(force=True, no_changes=True)).run(dev)
    if result.is_clean:
        return STAGES, None
    return STAGES[:3], (
        f"fsck: {len(result.problems)} problems under {config.features}")


# ---------------------------------------------------------------------------
# sampled campaigns: registry-wide sharded sweeps
# ---------------------------------------------------------------------------
#
# The entry points below scale ConBugCk past hand-enumerated lists: a
# seeded sampler (repro.perf.sampling) generates configurations over the
# full mke2fs+mount param registry, and the sharded streaming driver
# (repro.perf.campaign.run_sharded) cuts contiguous index ranges that
# run in-process or, with jobs > 1, on process workers.  Each shard
# regenerates its own slice from (seed, index) — no config list is ever
# materialized; a covering array, which is small and exists only whole,
# ships each shard its rows instead — and folds outcomes into a bounded ShardAggregate, so
# campaign memory stays constant regardless of N.

#: mkfs params a GeneratedConfig can express numerically.  Everything
#: else in the mke2fs component (journal sizing, group geometry, usage
#: types, ...) has no lever in ``GeneratedConfig.mke2fs_args`` and is
#: excluded from the sampling space rather than sampled as a silent
#: no-op.
_MKFS_NUMERIC = ("blocksize", "inode_size", "inode_ratio",
                 "reserved_percent")

#: Probe override: cap sampled block sizes so a sampled device stays a
#: few MiB (the registry allows 64 KiB blocks; 512 fs_blocks of those is
#: 32 MiB per config — pointless for dependency probing).
_CAMPAIGN_PROBES = {"blocksize": (1024, 2048, 4096)}


def build_campaign_space() -> ConfigSpace:
    """The sampling space for registry-wide ConBugCk campaigns.

    mke2fs contributes its feature flags (every name mkfs's ``-O``
    accepts) plus the four numeric knobs a :class:`GeneratedConfig`
    expresses; mount contributes every finite-domain option.  Params a
    generated config cannot express are excluded up front — sampling
    them would silently not vary anything.
    """
    space = ConfigSpace.from_registry(
        EXT4_REGISTRY, components=("mke2fs", "mount"),
        probe_overrides=_CAMPAIGN_PROBES)
    feature_names = set(all_feature_names())
    keep = [d for d in space.domains
            if d.component == "mount"
            or d.name in feature_names
            or d.name in _MKFS_NUMERIC]
    return ConfigSpace(keep)


def _mount_token(param: ConfigParam, value: object) -> Optional[str]:
    """The mount-option token for one sampled value, or ``None``.

    Values equal to the param's default are omitted (the kernel applies
    them anyway, and emitting them would bloat every option string).
    Flags emit ``name`` / ``noname``; valued params emit
    ``name=value`` — the exact grammar the simulated mount parses.
    """
    if value == param.default:
        return None
    if param.kind is ParamKind.FLAG:
        return param.name if value else f"no{param.name}"
    return f"{param.name}={value}"


def _tuple_getter(positions: List[int]) -> Callable[[Assignment], tuple]:
    """``operator.itemgetter`` over ``positions`` that returns a tuple
    however many positions there are."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda row: tuple(row[pos] for pos in positions)


class ConfigAdapter:
    """Adapts sampled assignments over one space into configurations.

    The plan (which domain is a numeric knob, a feature or a mount
    option, and each mount value's token) is built once per space, so
    adapting one assignment only reads its values; its feature names
    come from the registry, so they are checked once, here.
    Deterministic and order-stable: features sort alphabetically (the
    generator's own convention) and mount options follow registry
    registration order, so the same assignment always produces the same
    config — and therefore the same campaign digest.
    """

    def __init__(self, space: ConfigSpace) -> None:
        mount_params = {p.name: p for p in EXT4_REGISTRY
                        if p.component == "mount"}
        feature_names = set(all_feature_names())
        numeric: Dict[str, int] = {}
        features: List[Tuple[str, int]] = []
        mount: List[Tuple[int, Dict[object, Optional[str]]]] = []
        for pos, domain in enumerate(space.domains):
            if domain.component == "mke2fs":
                if domain.name in _MKFS_NUMERIC:
                    numeric[domain.name] = pos
                elif domain.name in feature_names:
                    values = domain.values
                    # ``(0, 1) == (False, True)``: test identity, since
                    # a row's feature value is read for truth.
                    if not (len(values) == 2 and values[0] is False
                            and values[1] is True):
                        raise ValueError(
                            f"feature domain {domain.name!r} must be "
                            f"(False, True), not {values!r}")
                    features.append((domain.name, pos))
                continue
            param = mount_params[domain.name]
            mount.append((pos, {value: _mount_token(param, value)
                                for value in domain.values}))
        # GeneratedConfig and Mke2fsConfig name their fields after the params.
        self._numeric = tuple((name, numeric[name]) for name in _MKFS_NUMERIC)
        self._blocksize = numeric["blocksize"]
        features.sort()
        self._feature_names = tuple(name for name, _pos in features)
        self._feature_values = _tuple_getter([pos for _name, pos in features])
        self._mount = tuple(mount)

    def __call__(self, assignment: Assignment) -> GeneratedConfig:
        """The readable form of ``assignment``, every field rendered."""
        sampled = SampledConfig(self, assignment)
        return GeneratedConfig(features=sampled.features,
                               mount_options=sampled.mount_options,
                               **sampled.numbers())


class SampledConfig:
    """One sampled assignment as the drive body reads it: the mke2fs
    configuration comes straight from the assignment, and the feature
    tuple and mount options render only when read (most sampled configs
    die in mkfs, before the mount options are needed)."""

    __slots__ = ("_plan", "_row", "blocksize")

    def __init__(self, plan: ConfigAdapter, row: Assignment) -> None:
        self._plan, self._row = plan, row
        self.blocksize = int(row[plan._blocksize])  # type: ignore[call-overload]

    @property
    def features(self) -> Tuple[str, ...]:
        plan = self._plan
        return tuple(compress(plan._feature_names,
                              plan._feature_values(self._row)))

    @property
    def mount_options(self) -> str:
        row = self._row
        return ",".join(filter(None, [
            tokens[row[pos]] for pos, tokens in self._plan._mount]))

    def numbers(self) -> Dict[str, int]:
        return {name: int(self._row[pos])  # type: ignore[call-overload]
                for name, pos in self._plan._numeric}

    def mke2fs_config(self, fs_blocks: int) -> Mke2fsConfig:
        """What mke2fs parses from the readable form's ``mke2fs_args``
        (the plan checked the feature names once)."""
        return Mke2fsConfig(features=FeatureSet.registered(self.features),
                            fs_blocks_count=fs_blocks, **self.numbers())


#: What the drive body reads of a configuration.
DrivenConfig = Union[GeneratedConfig, SampledConfig]


def _sampler_from_spec(spec: Dict[str, Any]):
    """Rebuild (space, sampler) inside a shard from its spec dict."""
    space = build_campaign_space()
    constraints = None
    if spec.get("constraints") is not None:
        constraints = ConstraintIndex.from_payload(spec["constraints"])
    sampler = make_sampler(space, str(spec["kind"]), int(spec["seed"]),
                           spec.get("budget"), t=spec.get("t"),
                           constraints=constraints)
    return space, sampler


def run_shard(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Drive global config indices ``[spec['lo'], spec['hi'])``.

    The shard runner behind :data:`repro.perf.campaign.SHARD_RUNNERS`
    ["conbugck"]: regenerates its own slice from the sampler's hint (a
    covering array's hint is the slice's rows, so no shard rebuilds the
    array), drives each config cold and folds outcomes into a bounded
    :class:`~repro.perf.campaign.ShardAggregate`.  Pure: no shared
    mutable state, which is what makes process and sequential runs
    byte-identical.
    """
    from repro.perf.campaign import ShardAggregate

    lo, hi = int(spec["lo"]), int(spec["hi"])
    fs_blocks = int(spec.get("fs_blocks", 512))
    aggregate = ShardAggregate()
    space, sampler = _sampler_from_spec(spec)
    plan = ConfigAdapter(space)
    for index, assignment in sampler.iter_range(lo, hi,
                                                hint=spec.get("hint")):
        reached, failure = _drive_config_fast(
            SampledConfig(plan, assignment), fs_blocks)
        aggregate.add(index, reached, failure)
    if hasattr(sampler, "skipped"):
        aggregate.tally("campaign.infeasible_skipped", sampler.skipped)
    return aggregate.as_payload()


def sampled_campaign(dependencies: Sequence[Dependency] = (),
                     sample: str = "random",
                     seed: int = 2022,
                     budget: Optional[int] = None,
                     shards: int = 1,
                     fs_blocks: int = 512,
                     jobs: int = 1,
                     ) -> Tuple[CampaignReport, Dict[str, Any]]:
    """Sample the registry and drive the campaign in streaming shards.

    ``sample`` follows ``--sample`` grammar (``random``, ``pairwise``,
    ``twise:<t>``, each optionally ``+feasible``); ``+feasible``
    consults ``dependencies`` (the Table-5 extraction) to skip configs
    mkfs would reject before they are ever driven.  Returns the merged
    :class:`~repro.perf.campaign.CampaignReport` plus a meta dict
    (sampler name, seed, budget, totals, space size) for manifests and
    status output.

    Counters: ``campaign.sampled`` (configs driven),
    ``campaign.infeasible_skipped`` (raw draws the constraint check
    rejected), ``campaign.shards``.
    """
    from repro.perf.campaign import run_sharded, shard_ranges

    kind, t, feasible = parse_sample_spec(sample)
    space = build_campaign_space()
    constraints = None
    if feasible:
        constraints = ConstraintIndex.from_dependencies(dependencies)
    sampler = make_sampler(space, kind, seed, budget, t=t,
                           constraints=constraints)
    with timed("campaign.sample"):
        total = sampler.total()
    bump("campaign.sampled", total)
    skipped = int(getattr(sampler, "skipped", 0))
    if skipped:
        bump("campaign.infeasible_skipped", skipped)
    ranges = shard_ranges(total, shards)
    hints = sampler.shard_hints(ranges)
    spec: Dict[str, Any] = {
        "tool": "conbugck", "kind": kind, "t": t,
        "seed": seed, "budget": budget, "fs_blocks": fs_blocks,
    }
    if constraints is not None:
        spec["constraints"] = constraints.as_payload()
    report = run_sharded("conbugck", spec, total, shards=shards, jobs=jobs,
                         hints=hints)
    meta = {
        "sampler": sampler.name,
        "seed": seed,
        "budget": budget,
        "total": total,
        "shards": len(ranges),
        "space_params": len(space),
        "space_combinations": space.combinations(),
        "infeasible_skipped": skipped,
    }
    return report, meta

