"""Campaign engine performance: serial-cold vs snapshot-warm, plus
campaign-scale sharded streaming throughput.

Benchmarks the checker campaign engine (``repro.perf.campaign``) on a
realistic workload: a mount-option sweep over a few shared on-disk
formats, most configurations dying at mount validation — the shape the
paper's ConBugCk campaigns take.  Two engine configurations run the
same sweep:

- **serial-cold**    — snapshot cache off (the pre-engine behavior:
  every config re-runs mkfs);
- **snapshot-warm**  — snapshot cache on: configs sharing an mkfs tuple
  clone one formatted image instead of re-formatting.

A second, campaign-scale section measures the sharded streaming driver
(``sweep_campaign``/``sampled_campaign``) against the pre-shard
``ConBugCk.drive`` path at N=10^4 configurations (10^5 in full mode):

- **sharded sweep**  — the 10^4-config sweep through the sharded
  streaming driver in-process (``jobs=1``: per-shard outcome memo +
  block-map clones) versus the serial-cold pre-shard driver;
- **sharded sampled** — a diverse random-registry campaign
  (``sampled_campaign``) where every shard regenerates its own slice
  on ``--jobs`` process workers (in-process on a single usable CPU),
  versus materializing the configs and driving them serially.

Contract (the ``verify`` target runs ``--smoke`` and fails loudly):

- snapshot-warm must beat serial-cold by ``MIN_CACHE_SPEEDUP`` (1.5x);
- the sharded streaming driver must beat the serial pre-shard driver
  by ``MIN_SHARDED_SPEEDUP`` (3.0x) at campaign scale — always
  enforced: the win comes from outcome memoization, not parallelism;
- the sharded *sampled* campaign must beat its serial baseline by
  ``MIN_SAMPLED_SPEEDUP`` (3.0x) — enforced only with >= 4 usable CPUs
  (the CPUs this process may run on, not the host's count: the diverse
  workload has few duplicate configs, so this win is parallelism;
  smaller hosts record the measurement unenforced);
- every configuration, any job/shard count: byte-identical DriveStats,
  and the sharded campaign digest must equal the unsharded one.

Results additionally land machine-readable in ``BENCH_campaign.json``
at the repository root.

Runnable standalone (``python benchmarks/bench_campaign.py [--smoke]``)
or under pytest (``test_campaign_perf`` applies the smoke workload).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

#: Required speedup of the snapshot cache (cache on vs off).
MIN_CACHE_SPEEDUP = 1.5
#: Required campaign-scale speedup of the sharded streaming driver over
#: the serial pre-shard driver (always enforced).
MIN_SHARDED_SPEEDUP = 3.0
#: Required speedup of the sharded sampled campaign (enforced >= 4
#: usable CPUs).
MIN_SAMPLED_SPEEDUP = 3.0
#: Usable-CPU floor below which the sampled-campaign speedup is
#: recorded but not enforced — its win is parallel shard execution.
SAMPLED_FLOOR_CPUS = 4

#: Sweep geometry: small blocks and a small device keep mkfs the
#: dominant serial cost (as it is for full-size campaign images), and a
#: high violation rate reproduces the paper's observation that naive
#: configurations die shallow at mount validation.
BLOCK_SIZE = 1024
FS_BLOCKS = 384
BASES = 3
VIOLATE_RATE = 0.8
SEED = 2022

#: Campaign-scale section: shard count and config counts per mode.
CAMPAIGN_SHARDS = 8
SMOKE_CAMPAIGN_CONFIGS = 10_000
FULL_CAMPAIGN_CONFIGS = 100_000
#: Device size for the diverse sampled campaign (registry defaults).
SAMPLED_FS_BLOCKS = 512

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_campaign.json")


def _ensure_imports() -> None:
    """Allow standalone invocation from a source checkout."""
    try:
        import repro  # noqa: F401
    except ImportError:
        here = os.path.dirname(os.path.abspath(__file__))
        sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))


def _canonical(stats, sparse: bool = False) -> str:
    """Byte-stable serialization of a campaign's DriveStats.

    ``sparse`` drops zero-count stages — DriveStats pre-initializes
    every stage, while a streaming CampaignReport only tallies stages
    that were actually reached.
    """
    lines = [f"total={stats.total}"]
    lines += [f"reached[{s}]={n}" for s, n in sorted(stats.reached.items())
              if n or not sparse]
    lines.append(f"truncated={stats.failures_truncated}")
    lines.extend(stats.failures)
    return "\n".join(lines)


def _canonical_report(report) -> str:
    """The same byte-stable form for a sharded CampaignReport."""
    lines = [f"total={report.total}"]
    lines += [f"reached[{s}]={n}" for s, n in sorted(report.reached.items())]
    lines.append(f"truncated={report.failure_count - len(report.failures)}")
    lines.extend(message for _, message in report.failures)
    return "\n".join(lines)


def _best_of(repeat: int, fn) -> float:
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(smoke: bool = False, jobs: int = 4, repeat: int = 5,
                  count: int = 800, emit_fn=None) -> int:
    """Measure, render, and enforce the perf contract; 0 on success."""
    _ensure_imports()

    from conftest import usable_cpus
    from repro.analysis.extractor import extract_all
    from repro.common.texttable import TextTable
    from repro.perf.sampling import RandomSampler
    from repro.tools.conbugck import (ConBugCk, build_campaign_space,
                                      config_from_assignment,
                                      sampled_campaign, sweep_campaign)

    if smoke:
        repeat, count = 3, 300
    scale_n = SMOKE_CAMPAIGN_CONFIGS if smoke else FULL_CAMPAIGN_CONFIGS

    deps = extract_all().true_dependencies()
    sweep = ConBugCk(deps, seed=SEED).generate_mount_sweep(
        count, bases=BASES, fs_blocks=FS_BLOCKS, blocksize=BLOCK_SIZE,
        violate_rate=VIOLATE_RATE)

    outputs: List[str] = []

    def timed_run(cache: bool) -> float:
        def one_run():
            stats = ConBugCk(deps, seed=SEED).drive(
                sweep, fs_blocks=FS_BLOCKS, snapshot_cache=cache)
            outputs.append(_canonical(stats))
        return _best_of(repeat, one_run)

    serial_cold = timed_run(cache=False)
    snapshot_warm = timed_run(cache=True)

    cache_speedup = serial_cold / snapshot_warm if snapshot_warm else float("inf")

    # ---- campaign scale: sharded streaming vs the pre-shard driver ----
    # Large N self-averages, so each mode is timed once.

    sweep_scale = ConBugCk(deps, seed=SEED).generate_mount_sweep(
        scale_n, bases=BASES, fs_blocks=FS_BLOCKS, blocksize=BLOCK_SIZE,
        violate_rate=VIOLATE_RATE)

    start = time.perf_counter()
    scale_stats = ConBugCk(deps, seed=SEED).drive(
        sweep_scale, fs_blocks=FS_BLOCKS, snapshot_cache=False)
    scale_serial = time.perf_counter() - start

    start = time.perf_counter()
    scale_report = sweep_campaign(sweep_scale, fs_blocks=FS_BLOCKS,
                                  shards=CAMPAIGN_SHARDS, jobs=1)
    scale_sharded = time.perf_counter() - start

    scale_unsharded = sweep_campaign(sweep_scale, fs_blocks=FS_BLOCKS,
                                     shards=1)
    scale_identical = (
        scale_report.digest_hex == scale_unsharded.digest_hex
        and _canonical_report(scale_report) == _canonical(scale_stats, sparse=True))

    sharded_speedup = (scale_serial / scale_sharded
                       if scale_sharded else float("inf"))
    sweep_cps = scale_n / scale_sharded if scale_sharded else float("inf")

    # Diverse sampled campaign: shards regenerate their own slices, so
    # the serial baseline must also pay config materialization.  With
    # one usable CPU, process workers would only add spawn cost.
    cpus = usable_cpus()
    sampled_jobs = jobs if cpus >= 2 else 1
    sampled_enforced = cpus >= SAMPLED_FLOOR_CPUS

    start = time.perf_counter()
    space = build_campaign_space()
    sampler = RandomSampler(space, SEED, scale_n)
    sampled_configs = [config_from_assignment(space, assignment)
                       for _, assignment in sampler.iter_range(0, scale_n)]
    sampled_stats = ConBugCk(deps, seed=SEED).drive(
        sampled_configs, fs_blocks=SAMPLED_FS_BLOCKS)
    sampled_serial = time.perf_counter() - start

    start = time.perf_counter()
    sampled_report, _meta = sampled_campaign(
        deps, sample="random", seed=SEED, budget=scale_n,
        shards=CAMPAIGN_SHARDS, fs_blocks=SAMPLED_FS_BLOCKS,
        jobs=sampled_jobs)
    sampled_sharded = time.perf_counter() - start

    sampled_unsharded, _ = sampled_campaign(
        deps, sample="random", seed=SEED, budget=scale_n, shards=1,
        fs_blocks=SAMPLED_FS_BLOCKS)
    sampled_identical = (
        sampled_report.digest_hex == sampled_unsharded.digest_hex
        and _canonical_report(sampled_report) == _canonical(sampled_stats, sparse=True))

    sampled_speedup = (sampled_serial / sampled_sharded
                       if sampled_sharded else float("inf"))
    sampled_cps = scale_n / sampled_sharded if sampled_sharded else float("inf")

    mode = "smoke" if smoke else "full"
    table = TextTable(
        ["configuration", "best s", "vs serial"],
        title=f"campaign wall time ({count} configs, best of {repeat}, {mode})")
    table.add_row("serial-cold (mkfs per config)", f"{serial_cold:.4f}", "1.00x")
    table.add_row("snapshot-warm (cache)", f"{snapshot_warm:.4f}",
                  f"{cache_speedup:.2f}x")
    rendered = table.render()

    scale_table = TextTable(
        ["configuration", "s", "configs/s", "vs pre-shard"],
        title=(f"campaign scale ({scale_n} configs, "
               f"{CAMPAIGN_SHARDS} shards, {mode})"))
    scale_table.add_row("sweep: pre-shard serial driver",
                        f"{scale_serial:.3f}",
                        f"{scale_n / scale_serial:.0f}", "1.00x")
    scale_table.add_row("sweep: sharded streaming (jobs=1)",
                        f"{scale_sharded:.3f}", f"{sweep_cps:.0f}",
                        f"{sharded_speedup:.2f}x")
    scale_table.add_row("sampled: materialize + serial drive",
                        f"{sampled_serial:.3f}",
                        f"{scale_n / sampled_serial:.0f}", "1.00x")
    scale_table.add_row(f"sampled: sharded (jobs={sampled_jobs})",
                        f"{sampled_sharded:.3f}", f"{sampled_cps:.0f}",
                        f"{sampled_speedup:.2f}x")
    rendered += "\n\n" + scale_table.render()

    identical = (all(out == outputs[0] for out in outputs[1:])
                 and scale_identical and sampled_identical)
    rendered += (f"\n\noutputs byte-identical across all engine "
                 f"configurations and shard counts: "
                 f"{'yes' if identical else 'NO'}")
    rendered += (f"\nsnapshot-cache speedup {cache_speedup:.2f}x "
                 f"(required >= {MIN_CACHE_SPEEDUP:.1f}x)")
    rendered += (f"\nsharded-campaign speedup {sharded_speedup:.2f}x "
                 f"(required >= {MIN_SHARDED_SPEEDUP:.1f}x)")
    rendered += (f"\nsharded-sampled speedup {sampled_speedup:.2f}x "
                 f"(required >= {MIN_SAMPLED_SPEEDUP:.1f}x on "
                 f">= {SAMPLED_FLOOR_CPUS} usable CPUs; this process "
                 f"has {cpus}, "
                 f"{'enforced' if sampled_enforced else 'recorded only'})")

    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump({
            "mode": mode,
            "workload": {
                "configs": count, "bases": BASES, "fs_blocks": FS_BLOCKS,
                "block_size": BLOCK_SIZE, "violate_rate": VIOLATE_RATE,
                "seed": SEED, "repeat": repeat,
            },
            "seconds": {
                "serial_cold": serial_cold,
                "snapshot_warm": snapshot_warm,
            },
            "campaign_scale": {
                "configs": scale_n,
                "shards": CAMPAIGN_SHARDS,
                "cpus": cpus,
                "sweep": {
                    "serial_seconds": scale_serial,
                    "sharded_seconds": scale_sharded,
                    "configs_per_sec": sweep_cps,
                    "digest": scale_report.digest_hex,
                },
                "sampled": {
                    "jobs": sampled_jobs,
                    "serial_seconds": sampled_serial,
                    "sharded_seconds": sampled_sharded,
                    "configs_per_sec": sampled_cps,
                    "digest": sampled_report.digest_hex,
                },
            },
            "speedups": {
                "snapshot_cache": cache_speedup,
                "sharded_campaign": sharded_speedup,
                "sharded_sampled": sampled_speedup,
            },
            "floors": {
                "snapshot_cache": MIN_CACHE_SPEEDUP,
                "sharded_campaign": MIN_SHARDED_SPEEDUP,
                "sharded_sampled": MIN_SAMPLED_SPEEDUP,
            },
            "floor_enforced": {
                "snapshot_cache": True,
                "sharded_campaign": True,
                "sharded_sampled": sampled_enforced,
            },
            "identical_outputs": identical,
        }, fh, indent=2)
        fh.write("\n")
    rendered += f"\nwrote {os.path.basename(JSON_PATH)}"

    if emit_fn is not None:
        emit_fn("campaign", rendered)
    else:
        print(rendered)

    if not identical:
        print("FAIL: engine configurations produced different campaign stats",
              file=sys.stderr)
        return 1
    if cache_speedup < MIN_CACHE_SPEEDUP:
        print(f"FAIL: snapshot-cache speedup {cache_speedup:.2f}x is below "
              f"the {MIN_CACHE_SPEEDUP:.1f}x floor — perf regression",
              file=sys.stderr)
        return 1
    if sharded_speedup < MIN_SHARDED_SPEEDUP:
        print(f"FAIL: sharded-campaign speedup {sharded_speedup:.2f}x is "
              f"below the {MIN_SHARDED_SPEEDUP:.1f}x floor — perf regression",
              file=sys.stderr)
        return 1
    if sampled_enforced and sampled_speedup < MIN_SAMPLED_SPEEDUP:
        print(f"FAIL: sharded-sampled speedup {sampled_speedup:.2f}x is "
              f"below the {MIN_SAMPLED_SPEEDUP:.1f}x floor — perf regression",
              file=sys.stderr)
        return 1
    return 0


def test_campaign_perf():
    """Pytest entry: smoke workload, same floors as the verify target."""
    from conftest import emit

    assert run_benchmark(smoke=True, emit_fn=emit) == 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the campaign engine: serial-cold vs "
                    "snapshot-warm checker execution, plus "
                    "campaign-scale sharded streaming throughput.")
    parser.add_argument("--smoke", action="store_true",
                        help="smaller sweep, fewer repetitions "
                             "(the CI verify mode; floors unchanged)")
    parser.add_argument("--jobs", type=int, default=4, metavar="N",
                        help="process workers for the sharded sampled "
                             "campaign (default 4)")
    parser.add_argument("--repeat", type=int, default=5, metavar="N",
                        help="repetitions per configuration, best-of (default 5)")
    parser.add_argument("--count", type=int, default=800, metavar="N",
                        help="sweep size in configurations (default 800)")
    args = parser.parse_args(argv)
    return run_benchmark(smoke=args.smoke, jobs=args.jobs,
                        repeat=args.repeat, count=args.count)


if __name__ == "__main__":
    sys.exit(main())
