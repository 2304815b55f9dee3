"""Campaign engine performance: campaign-scale sharded streaming
throughput.

Measures the sharded streaming driver (``sampled_campaign``) on a
diverse random-registry campaign at N=10^4 configurations (10^5 in
full mode), where every shard regenerates its own slice on ``--jobs``
process workers (in-process on a single usable CPU), against
materializing the same configs and driving them serially through
``ConBugCk.drive``.

Contract (the ``verify`` target runs ``--smoke`` and fails loudly):

- the sharded sampled campaign must beat its serial baseline by
  ``MIN_SAMPLED_SPEEDUP`` (3.0x) — enforced only with >= 4 usable
  CPUs (the CPUs this process may run on, not the host's count: the
  diverse workload has few duplicate configs, so this win is
  parallelism; smaller hosts record the measurement unenforced);
- the serial drive and the sharded campaign must produce
  byte-identical stats, and the sharded digest must equal the
  unsharded one.

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

#: Required speedup of the sharded sampled campaign (enforced >= 4
#: usable CPUs).
MIN_SAMPLED_SPEEDUP = 3.0
#: Usable-CPU floor below which the sampled-campaign speedup is
#: recorded but not enforced — its win is parallel shard execution.
SAMPLED_FLOOR_CPUS = 4

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


def _canonical(stats) -> str:
    """Byte-stable serialization of a campaign's DriveStats.

    Zero-count stages are dropped — DriveStats pre-initializes every
    stage, while a streaming CampaignReport only tallies stages that
    were actually reached.
    """
    lines = [f"total={stats.total}"]
    lines += [f"reached[{s}]={n}" for s, n in sorted(stats.reached.items())
              if n]
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


def run_benchmark(smoke: bool = False, jobs: int = 4,
                  emit_fn=None) -> int:
    """Measure, render, and enforce the perf contract; 0 on success."""
    _ensure_imports()

    from conftest import usable_cpus
    from repro.analysis.extractor import extract_all
    from repro.common.texttable import TextTable
    from repro.perf.sampling import RandomSampler
    from repro.tools.conbugck import (ConBugCk, ConfigAdapter,
                                      build_campaign_space,
                                      sampled_campaign)

    scale_n = SMOKE_CAMPAIGN_CONFIGS if smoke else FULL_CAMPAIGN_CONFIGS
    deps = extract_all().true_dependencies()

    # Large N self-averages, so each mode is timed once.  Shards
    # regenerate their own slices, so the serial baseline must also pay
    # config materialization.  With one usable CPU, process workers
    # would only add spawn cost.
    cpus = usable_cpus()
    sampled_jobs = jobs if cpus >= 2 else 1
    sampled_enforced = cpus >= SAMPLED_FLOOR_CPUS

    start = time.perf_counter()
    space = build_campaign_space()
    sampler = RandomSampler(space, SEED, scale_n)
    adapt = ConfigAdapter(space)
    sampled_configs = [adapt(assignment)
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
    identical = (
        sampled_report.digest_hex == sampled_unsharded.digest_hex
        and _canonical_report(sampled_report) == _canonical(sampled_stats))

    sampled_speedup = (sampled_serial / sampled_sharded
                       if sampled_sharded else float("inf"))
    sampled_cps = scale_n / sampled_sharded if sampled_sharded else float("inf")

    mode = "smoke" if smoke else "full"
    scale_table = TextTable(
        ["configuration", "s", "configs/s", "vs serial"],
        title=(f"campaign scale ({scale_n} configs, "
               f"{CAMPAIGN_SHARDS} shards, {mode})"))
    scale_table.add_row("sampled: materialize + serial drive",
                        f"{sampled_serial:.3f}",
                        f"{scale_n / sampled_serial:.0f}", "1.00x")
    scale_table.add_row(f"sampled: sharded (jobs={sampled_jobs})",
                        f"{sampled_sharded:.3f}", f"{sampled_cps:.0f}",
                        f"{sampled_speedup:.2f}x")
    rendered = scale_table.render()

    rendered += (f"\n\noutputs byte-identical across the serial drive "
                 f"and shard counts: {'yes' if identical else 'NO'}")
    rendered += (f"\nsharded-sampled speedup {sampled_speedup:.2f}x "
                 f"(required >= {MIN_SAMPLED_SPEEDUP:.1f}x on "
                 f">= {SAMPLED_FLOOR_CPUS} usable CPUs; this process "
                 f"has {cpus}, "
                 f"{'enforced' if sampled_enforced else 'recorded only'})")

    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump({
            "mode": mode,
            "campaign_scale": {
                "configs": scale_n,
                "shards": CAMPAIGN_SHARDS,
                "seed": SEED,
                "cpus": cpus,
                "sampled": {
                    "jobs": sampled_jobs,
                    "serial_seconds": sampled_serial,
                    "sharded_seconds": sampled_sharded,
                    "configs_per_sec": sampled_cps,
                    "digest": sampled_report.digest_hex,
                },
            },
            "speedups": {"sharded_sampled": sampled_speedup},
            "floors": {"sharded_sampled": MIN_SAMPLED_SPEEDUP},
            "floor_enforced": {"sharded_sampled": sampled_enforced},
            "identical_outputs": identical,
        }, fh, indent=2)
        fh.write("\n")
    rendered += f"\nwrote {os.path.basename(JSON_PATH)}"

    if emit_fn is not None:
        emit_fn("campaign", rendered)
    else:
        print(rendered)

    if not identical:
        print("FAIL: serial and sharded campaigns produced different stats",
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
        description="Benchmark the campaign engine: campaign-scale "
                    "sharded streaming throughput.")
    parser.add_argument("--smoke", action="store_true",
                        help="10^4 configs instead of 10^5 "
                             "(the CI verify mode; floors unchanged)")
    parser.add_argument("--jobs", type=int, default=4, metavar="N",
                        help="process workers for the sharded sampled "
                             "campaign (default 4)")
    args = parser.parse_args(argv)
    return run_benchmark(smoke=args.smoke, jobs=args.jobs)


if __name__ == "__main__":
    sys.exit(main())
