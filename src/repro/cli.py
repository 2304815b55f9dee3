"""Command-line entry points.

- ``repro-extract``     run the Table-5 extraction (optionally dump JSON)
- ``repro-condocck``    check manuals against extracted dependencies
- ``repro-conhandleck`` violate dependencies against the simulated ecosystem
- ``repro-conbugck``    generate and drive dependency-respecting configs
- ``repro-study``       print the study tables (Tables 1-4) and mining stats
- ``repro-demo``        run the executable Figure 1/2 demonstrations

The service commands (``repro-runs``, ``repro-serve``, ``repro-worker``,
``repro-submit``, ``repro-top``) live in :mod:`repro.cli_service` and
resolve from this module too.  Each ``main_*`` imports its own layer
inside its body, so a command loads only what it runs.

Every command takes the shared observability flags (``--trace``,
``--chrome-trace``, ``--manifest``); results stay on stdout while
status lines — profile breakdowns, "wrote N ..." notes, trace/manifest
confirmations — go to stderr, so piping stdout into a file or another
tool always yields machine-parseable output.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, List, Optional

from repro import _lazy

__all__ = ["main_extract", "main_condocck", "main_conhandleck",
           "main_conbugck", "main_demo", "main_study"]


def _status(message: str) -> None:
    """One status line on stderr (stdout stays machine-parseable)."""
    print(message, file=sys.stderr)


def _count(text: str) -> int:
    """``--jobs``/``--budget``/``--shards`` values: an integer >= 1
    (argparse exits 2 otherwise)."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    """The shared ``--jobs`` flag (process workers for campaign shards)."""
    parser.add_argument("-j", "--jobs", type=_count, default=1,
                        metavar="N",
                        help="process workers for sampled-campaign shards "
                             "(default 1: everything runs sequentially "
                             "in-process; N > 1 needs a sampled campaign "
                             "— reports are byte-identical either way)")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags every repro-* command takes."""
    group = parser.add_argument_group("observability")
    group.add_argument("--trace", metavar="PATH", default=None,
                       help="write the span tree as JSONL events")
    group.add_argument("--chrome-trace", metavar="PATH", default=None,
                       help="write the span tree in Chrome trace format "
                            "(load in chrome://tracing or Perfetto)")
    group.add_argument("--manifest", metavar="PATH", default=None,
                       help="write a run manifest (engine modes, corpus "
                            "hashes, counters, report digest)")


class _ObsSession:
    """Per-command observability lifecycle.

    Installs a tracer when ``--trace``/``--chrome-trace`` asked for one,
    opens a root span named after the tool (so every run is a single
    rooted tree), and on exit writes the requested artifacts — trace
    JSONL, Chrome trace, run manifest — with status lines on stderr.
    """

    def __init__(self, tool: str, args: argparse.Namespace,
                 argv: Optional[List[str]]) -> None:
        self.tool = tool
        self.args = args
        self.argv = list(argv) if argv is not None else sys.argv[1:]
        self.report_keys: Optional[List[str]] = None
        self.report_summary: Optional[str] = None
        self.campaign: Optional[dict] = None
        self._tracer = None
        self._root_cm = None
        self._start = 0.0

    def set_report(self, keys: Optional[List[str]],
                   summary: Optional[str] = None) -> None:
        """Attach the run's result digest inputs for the manifest."""
        self.report_keys = list(keys) if keys is not None else None
        self.report_summary = summary

    def set_campaign(self, campaign: dict) -> None:
        """Attach a sampled campaign's manifest section (sampler
        identity, shard timings, snapshot traffic, digest)."""
        self.campaign = dict(campaign)

    def __enter__(self) -> "_ObsSession":
        self._start = time.perf_counter()
        if self.args.trace or self.args.chrome_trace:
            from repro.obs import tracer as obs_tracer

            # Adopt trace context handed down by a parent process (the
            # service worker sets TRACEPARENT around each run), so this
            # run's trace file carries the distributed identity and
            # `repro-runs trace` can stitch it to the queue row.
            self._tracer = obs_tracer.Tracer(
                self.tool, traceparent=obs_tracer.traceparent_from_env())
            obs_tracer.enable(self._tracer)
            self._root_cm = obs_tracer.span(self.tool,
                                            argv=list(self.argv))
            self._root_cm.__enter__()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        wall = time.perf_counter() - self._start
        if self._tracer is not None:
            from repro.obs import tracer as obs_tracer

            self._root_cm.__exit__(exc_type, exc, tb)
            obs_tracer.disable()
        if exc_type is not None:
            return False
        if self.args.trace:
            from repro.obs.events import write_jsonl

            count = write_jsonl(self._tracer, self.args.trace)
            _status(f"wrote {count} spans to {self.args.trace}")
        if self.args.chrome_trace:
            from repro.obs.events import write_chrome_trace

            count = write_chrome_trace(self._tracer, self.args.chrome_trace)
            _status(f"wrote {count} chrome trace events to "
                    f"{self.args.chrome_trace}")
        if self.args.manifest:
            from repro.obs.manifest import build_manifest, write_manifest

            manifest = build_manifest(
                self.tool,
                wall_seconds=wall,
                jobs=getattr(self.args, "jobs", 1),
                argv=self.argv,
                report_keys=self.report_keys,
                report_summary=self.report_summary,
                trace=self.args.trace,
                campaign=self.campaign,
            )
            write_manifest(manifest, self.args.manifest)
            _status(f"wrote run manifest to {self.args.manifest}")
        return False


def _add_sampling_args(parser: argparse.ArgumentParser,
                       sample_help: str) -> None:
    """The shared sampled-campaign flags (``--sample``/``--budget``/
    ``--shards``)."""
    group = parser.add_argument_group("sampled campaigns")
    group.add_argument("--sample", metavar="SPEC", default=None,
                       help=sample_help)
    group.add_argument("--budget", type=_count, default=None, metavar="N",
                       help="campaign size cap: raw configs drawn "
                            "(random needs one; covering arrays are "
                            "truncated to it)")
    group.add_argument("--shards", type=_count, default=1, metavar="N",
                       help="contiguous campaign shards; each regenerates "
                            "its own config slice and streams back a "
                            "bounded aggregate (default 1)")


def _campaign_section(report: Any, meta: dict) -> dict:
    """The manifest ``campaign`` section for one sampled-campaign run."""
    hits = int(report.counters.get("campaign.snapshot.hit", 0))
    misses = int(report.counters.get("campaign.snapshot.miss", 0))
    skipped = int(meta.get("infeasible_skipped")
                  or report.counters.get("campaign.infeasible_skipped", 0))
    return {
        "sampler": str(meta["sampler"]),
        "seed": int(meta["seed"]),
        "budget": meta.get("budget"),
        "total": int(meta["total"]),
        "shards": int(meta["shards"]),
        "snapshot_hits": hits,
        "snapshot_misses": misses,
        "snapshot_hit_ratio": (hits / (hits + misses)
                               if hits + misses else 0.0),
        "infeasible_skipped": skipped,
        "digest": report.digest_hex,
        "shard_seconds": [round(s, 6) for s in report.shard_seconds],
    }


def main_extract(argv: Optional[List[str]] = None) -> int:
    """``repro-extract``: run the Table-5 extraction."""
    parser = argparse.ArgumentParser(
        prog="repro-extract",
        description="Extract multi-level configuration dependencies (Table 5).",
    )
    parser.add_argument("--json", metavar="PATH",
                        help="write the unique dependencies as JSON")
    parser.add_argument("--list", action="store_true",
                        help="print every dependency key")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-phase timing breakdown afterwards "
                             "(includes solver and lattice counters)")
    parser.add_argument("--cold", action="store_true",
                        help="drop every persistent cache first — IR, "
                             "analysis store and stored reports (measure a "
                             "from-scratch run)")
    parser.add_argument("--explain", metavar="PARAM", action="append",
                        default=None,
                        help="print the taint provenance of one parameter "
                             "(name or component.name; repeatable) instead "
                             "of the extraction table")
    parser.add_argument("--provenance", action="store_true",
                        help="embed per-dependency provenance records in "
                             "the --json report")
    _add_obs_args(parser)
    args = parser.parse_args(argv)

    from repro.analysis.extractor import extract_all
    from repro.perf import render_profile, reset_profile
    from repro.reporting.tables import render_table5

    if args.cold:
        from repro.corpus.loader import clear_cache

        clear_cache(disk=True)
    if args.profile:
        reset_profile()

    with _ObsSession("repro-extract", args, argv) as obs:
        report = extract_all()
        obs.set_report([d.key() for d in report.union],
                       summary=f"{len(report.union)} unique dependencies, "
                               f"{len(report.scenarios)} scenarios")

        index = None
        if args.explain or args.provenance:
            from repro.obs.provenance import ProvenanceIndex

            index = ProvenanceIndex.build(report=report)

        if args.explain:
            try:
                records = [index.explain(text) for text in args.explain]
            except ValueError as exc:
                _status(f"repro-extract: {exc}")
                return 2
            print("\n\n".join(record.render() for record in records))
        else:
            print(render_table5(report))
        if args.profile:
            _status("")
            _status(render_profile())
        if args.list:
            print()
            for dep in sorted(report.union, key=lambda d: d.key()):
                print(dep.key())
        if args.json:
            if args.provenance:
                import json as json_mod

                from repro.analysis.jsonio import dependency_to_dict
                from repro.obs.provenance import dependency_provenance

                payload = []
                for dep in report.union:
                    entry = dependency_to_dict(dep)
                    entry["provenance"] = dependency_provenance(index, dep)
                    payload.append(entry)
                with open(args.json, "w", encoding="utf-8") as handle:
                    json_mod.dump(payload, handle, indent=2, sort_keys=True)
            else:
                from repro.analysis.jsonio import dump_dependencies

                dump_dependencies(report.union, args.json)
            _status(f"wrote {len(report.union)} dependencies to {args.json}")
    return 0


def main_condocck(argv: Optional[List[str]] = None) -> int:
    """``repro-condocck``: check manuals against extracted deps."""
    parser = argparse.ArgumentParser(
        prog="repro-condocck",
        description="Check the manual corpus against extracted dependencies.",
    )
    _add_obs_args(parser)
    args = parser.parse_args(argv)

    from repro.tools.condocck import ConDocCk

    with _ObsSession("repro-condocck", args, argv) as obs:
        issues = ConDocCk().check_extracted()
        obs.set_report([str(issue) for issue in issues],
                       summary=f"{len(issues)} inaccurate documentations")
        for issue in issues:
            print(issue)
        print(f"\n{len(issues)} inaccurate documentations")
    return 0 if not issues else 1


def main_conhandleck(argv: Optional[List[str]] = None) -> int:
    """``repro-conhandleck``: violate dependencies, report handling."""
    parser = argparse.ArgumentParser(
        prog="repro-conhandleck",
        description="Violate extracted dependencies against the simulated "
                    "ecosystem and report how each violation is handled.",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="print every violation outcome")
    _add_jobs_arg(parser)
    parser.add_argument("--seed", type=int, default=2022,
                        help="seed for budgeted violation draws")
    _add_sampling_args(
        parser,
        sample_help="sharded violation campaign sampler; only 'random' "
                    "applies here (dependency draws with replacement) — "
                    "implied by --budget/--shards")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-phase timing breakdown afterwards")
    _add_obs_args(parser)
    args = parser.parse_args(argv)

    from repro.perf import render_profile, reset_profile
    from repro.tools.conhandleck import ConHandleCk, sampled_check

    if args.sample not in (None, "random"):
        _status(f"repro-conhandleck: --sample {args.sample} is not "
                f"meaningful over a dependency list (only random draws)")
        return 2
    sampled = bool(args.sample or args.budget is not None or args.shards > 1)
    if args.jobs > 1 and not sampled:
        parser.error("--jobs N > 1 runs sampled-campaign shards on process "
                     "workers; it needs --sample, --budget or --shards")
    if args.profile:
        reset_profile()
    with _ObsSession("repro-conhandleck", args, argv) as obs:
        if sampled:
            from repro.analysis.extractor import extract_all

            deps = extract_all().true_dependencies()
            started = time.perf_counter()
            report, meta = sampled_check(
                deps, seed=args.seed, budget=args.budget,
                shards=args.shards, jobs=args.jobs)
            wall = time.perf_counter() - started
            rate = report.total / wall if wall > 0 else 0.0
            obs.set_campaign(_campaign_section(report, meta))
            # ``reached`` counts outcome values and dependency keys side
            # by side; the outcome rollup is the enum-valued subset.
            from repro.tools.conhandleck import ViolationOutcome

            outcome_names = {o.value for o in ViolationOutcome}
            outcome_counts = {key: count
                              for key, count in report.reached.items()
                              if key in outcome_names}
            obs.set_report(
                [f"{k}={v}" for k, v in sorted(outcome_counts.items())]
                + [f"digest={report.digest_hex}"],
                summary=f"{meta['sampler']} violation campaign: "
                        f"{report.total} draws over "
                        f"{meta['dependencies']} dependencies, digest "
                        f"{report.digest_hex[:12]}")
            print(f"campaign:    {report.total} violation draws over "
                  f"{meta['dependencies']} dependencies in "
                  f"{meta['shards']} shard(s)")
            for outcome, count in sorted(outcome_counts.items()):
                print(f"{outcome:>14s}: {count}")
            print(f"digest:      {report.digest_hex}")
            print(f"throughput:  {rate:,.0f} violations/sec "
                  f"({wall:.2f}s wall)")
            bad_exemplars = report.failures
            for index, message in bad_exemplars:
                print(f"\nBAD HANDLING [config {index}]: {message}")
            if args.profile:
                _status("")
                _status(render_profile())
            return 0 if not report.failure_count else 1
        report = ConHandleCk().check_extracted()
        summary = ", ".join(f"{o.value}={c}"
                            for o, c in report.by_outcome().items() if c)
        obs.set_report([str(r) for r in report.results], summary=summary)
        if args.profile:
            _status(render_profile())
            _status("")
        if args.verbose:
            for result in report.results:
                print(result)
            print()
        for outcome, count in report.by_outcome().items():
            if count:
                print(f"{outcome.value:>14s}: {count}")
        bad = report.bad_handling()
        for result in bad:
            print(f"\nBAD HANDLING: {result}")
    return 0 if not bad else 1


def main_conbugck(argv: Optional[List[str]] = None) -> int:
    """``repro-conbugck``: guided vs naive configuration generation."""
    parser = argparse.ArgumentParser(
        prog="repro-conbugck",
        description="Generate dependency-respecting configurations and drive "
                    "them through the ecosystem; compare against naive random.",
    )
    parser.add_argument("-n", "--count", type=int, default=30)
    parser.add_argument("--seed", type=int, default=2022)
    _add_jobs_arg(parser)
    _add_sampling_args(
        parser,
        sample_help="run a registry-wide sampled campaign instead of the "
                    "guided-vs-naive comparison: random, pairwise, or "
                    "twise:<t>, each optionally +feasible (skip configs "
                    "the extracted dependencies say mkfs rejects)")
    parser.add_argument("--fs-blocks", type=int, default=512, metavar="N",
                        help="device size (blocks) for sampled campaigns")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-phase timing breakdown afterwards")
    _add_obs_args(parser)
    args = parser.parse_args(argv)

    if args.jobs > 1 and not args.sample:
        parser.error("--jobs N > 1 runs sampled-campaign shards on process "
                     "workers; it needs --sample")

    from repro.perf import render_profile, reset_profile
    from repro.tools.conbugck import ConBugCk, STAGES, sampled_campaign

    if args.profile:
        reset_profile()
    with _ObsSession("repro-conbugck", args, argv) as obs:
        if args.sample:
            from repro.analysis.extractor import extract_all

            deps = extract_all().true_dependencies()
            started = time.perf_counter()
            report, meta = sampled_campaign(
                deps, sample=args.sample, seed=args.seed,
                budget=args.budget, shards=args.shards,
                fs_blocks=args.fs_blocks, jobs=args.jobs)
            wall = time.perf_counter() - started
            rate = report.total / wall if wall > 0 else 0.0
            obs.set_campaign(_campaign_section(report, meta))
            obs.set_report(
                [f"{stage}={count}"
                 for stage, count in sorted(report.reached.items())]
                + [f"digest={report.digest_hex}"],
                summary=f"{meta['sampler']} campaign: {report.total} "
                        f"configs, {meta['shards']} shard(s), digest "
                        f"{report.digest_hex[:12]}")
            print(f"sampler:     {meta['sampler']} (seed {meta['seed']})")
            print(f"space:       {meta['space_params']} params, "
                  f"{meta['space_combinations']:.3e} combinations")
            print(f"campaign:    {report.total} configs in "
                  f"{meta['shards']} shard(s)"
                  + (f", {meta['infeasible_skipped']} infeasible skipped"
                     if meta["infeasible_skipped"] else ""))
            print(f"{'stage':>12s} {'reached':>8s}")
            for stage in STAGES:
                print(f"{stage:>12s} {report.reached.get(stage, 0):>8d}")
            print(f"failures:    {report.failure_count} "
                  f"({len(report.failures)} stored)")
            print(f"digest:      {report.digest_hex}")
            print(f"throughput:  {rate:,.0f} configs/sec "
                  f"({wall:.2f}s wall)")
            if args.profile:
                _status("")
                _status(render_profile())
            return 0
        generator = ConBugCk.from_extraction(seed=args.seed)
        guided = generator.drive(generator.generate(args.count))
        naive = generator.drive(generator.generate_naive(args.count))
        obs.set_report(
            [f"{kind}.{stage}={stats.reached[stage]}"
             for kind, stats in (("guided", guided), ("naive", naive))
             for stage in STAGES],
            summary=f"{args.count} configs each; guided fsck-clean="
                    f"{guided.reached['fsck-clean']}, naive fsck-clean="
                    f"{naive.reached['fsck-clean']}")
        print(f"{'stage':>12s} {'guided':>8s} {'naive':>8s}")
        for stage in STAGES:
            print(f"{stage:>12s} {guided.reached[stage]:>8d} "
                  f"{naive.reached[stage]:>8d}")
        if args.profile:
            _status("")
            _status(render_profile())
    return 0


def main_demo(argv: Optional[List[str]] = None) -> int:
    """``repro-demo``: run the executable Figure 1/2 demonstrations."""
    parser = argparse.ArgumentParser(
        prog="repro-demo",
        description="Run the executable Figure-1 and Figure-2 demonstrations.",
    )
    _add_obs_args(parser)
    args = parser.parse_args(argv)

    from repro.reporting.tables import render_figure1, render_figure2

    with _ObsSession("repro-demo", args, argv):
        print(render_figure1())
        print()
        print(render_figure2())
    return 0


def main_study(argv: Optional[List[str]] = None) -> int:
    """``repro-study``: print Tables 1-4 and the mining stats."""
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Print the study results (Tables 1-4) and mining stats.",
    )
    _add_obs_args(parser)
    args = parser.parse_args(argv)

    from repro.reporting.tables import (
        render_mining,
        render_table1,
        render_table2,
        render_table3,
        render_table4,
    )

    with _ObsSession("repro-study", args, argv):
        for render in (render_table1, render_table2, render_mining,
                       render_table3, render_table4):
            print(render())
            print()
    return 0


# The service commands live in :mod:`repro.cli_service`; they resolve
# from here on first access, so an analysis command never compiles them.
_lazy.install(globals(), {
    "repro.cli_service": ("main_runs", "main_serve", "main_worker",
                          "main_submit", "main_top"),
})


if __name__ == "__main__":  # pragma: no cover - manual invocation aid
    sys.exit(main_extract())
