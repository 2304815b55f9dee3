"""What the six analysis commands of :mod:`repro.cli` run once their
arguments are parsed and the command store has no entry for the run.

:mod:`repro.cli` parses the arguments and consults the command store
(:mod:`repro.store`); only a run the store does not answer imports this
module, so a replayed command never compiles it.  Each function takes
the parsed arguments and the argv they came from, prints the command's
result on stdout (status lines on stderr) and returns its exit code.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, List, Optional


def _status(message: str) -> None:
    """One status line on stderr (stdout stays machine-parseable)."""
    print(message, file=sys.stderr)


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


def extract(args: argparse.Namespace, argv: Optional[List[str]]) -> int:
    """``repro-extract``: the Table-5 extraction."""
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


def condocck(args: argparse.Namespace, argv: Optional[List[str]]) -> int:
    """``repro-condocck``: the manuals checked against the extraction."""
    from repro.tools.condocck import ConDocCk

    with _ObsSession("repro-condocck", args, argv) as obs:
        issues = ConDocCk().check_extracted()
        obs.set_report([str(issue) for issue in issues],
                       summary=f"{len(issues)} inaccurate documentations")
        for issue in issues:
            print(issue)
        print(f"\n{len(issues)} inaccurate documentations")
    return 0 if not issues else 1


def conhandleck(args: argparse.Namespace, argv: Optional[List[str]],
                 sampled: bool) -> int:
    """``repro-conhandleck``: violations and how each is handled
    (``sampled``: a sharded violation campaign instead)."""
    from repro.perf import render_profile, reset_profile
    from repro.tools.conhandleck import ConHandleCk, sampled_check

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
            _status(f"throughput:  {rate:,.0f} violations/sec "
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


def conbugck(args: argparse.Namespace, argv: Optional[List[str]]) -> int:
    """``repro-conbugck``: guided vs naive configurations, or a sampled
    campaign."""
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
            _status(f"throughput:  {rate:,.0f} configs/sec "
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


def demo(args: argparse.Namespace, argv: Optional[List[str]]) -> int:
    """``repro-demo``: the Figure 1/2 demonstrations."""
    from repro.reporting.tables import render_figure1, render_figure2

    with _ObsSession("repro-demo", args, argv):
        print(render_figure1())
        print()
        print(render_figure2())
    return 0


def study(args: argparse.Namespace, argv: Optional[List[str]]) -> int:
    """``repro-study``: Tables 1-4 and the mining stats."""
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
