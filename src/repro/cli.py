"""Command-line entry points.

- ``repro-extract``     run the Table-5 extraction (optionally dump JSON)
- ``repro-condocck``    check manuals against extracted dependencies
- ``repro-conhandleck`` violate dependencies against the simulated ecosystem
- ``repro-conbugck``    generate and drive dependency-respecting configs
- ``repro-study``       print the study tables (Tables 1-4) and mining stats
- ``repro-demo``        run the executable Figure 1/2 demonstrations

The service commands (``repro-runs``, ``repro-serve``, ``repro-worker``,
``repro-submit``, ``repro-top``) live in :mod:`repro.cli_service` and
resolve from this module too.  This module only parses arguments and
consults the command store; what each command runs lives in
:mod:`repro.cli_run` and imports its own layers inside its body, so a
command loads only what it runs.

Every command takes the shared observability flags (``--trace``,
``--chrome-trace``, ``--manifest``); results stay on stdout while
status lines — profile breakdowns, "wrote N ..." notes, trace/manifest
confirmations — go to stderr, so piping stdout into a file or another
tool always yields machine-parseable output.

What a default-mode command prints depends only on the corpus, the
code and its arguments, so the six commands replay repeat runs from
the command store (:mod:`repro.store`): after argparse, one lookup
under the run's content key; a hit writes the stored stdout and stderr
and returns the stored exit code, having loaded only this module and
the store.  A miss runs the command, tees its output as it goes and
stores ``(stdout, stderr, exit code)``.  Runs that ask for fresh work
or write artifacts beside stdout never touch the store: ``--cold``,
``--profile``, ``--trace``, ``--chrome-trace``, ``--manifest``,
``repro-extract --json``, every sampled campaign (it prints its
wall-clock throughput) and ``REPRO_NO_DISK_CACHE``.  The service
worker always passes ``--manifest``, so it never reads an entry.
"""

from __future__ import annotations

import _thread
import argparse
import sys
from typing import Any, Callable, List, Optional

from repro import _lazy

__all__ = ["main_extract", "main_condocck", "main_conhandleck",
           "main_conbugck", "main_demo", "main_study"]


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


#: Flags whose runs never touch the command store: they ask for fresh
#: work, or write artifacts the store does not hold.  A run the store
#: answers has none of them set, and the key drops unset (None) args.
_FRESH_FLAGS = ("trace", "chrome_trace", "manifest", "cold", "profile",
                "json")


class _Tee:
    """A stream that writes through to ``stream`` and keeps a copy of
    what the thread that made it writes (another thread's output is
    passed on, never recorded)."""

    def __init__(self, stream: Any) -> None:
        self.stream = stream
        self.parts: List[str] = []
        self._owner = _thread.get_ident()

    def write(self, text: str) -> int:
        if _thread.get_ident() == self._owner:
            self.parts.append(text)
        return self.stream.write(text)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.stream, name)


def _run(command: str, *args: Any) -> Callable[[], int]:
    """What a run executes when the command store does not answer it:
    ``command`` of :mod:`repro.cli_run`, the only path that imports it."""
    def run() -> int:
        from repro import cli_run

        return getattr(cli_run, command)(*args)
    return run


def _replay(tool: str, args: argparse.Namespace,
            run: Callable[[], int], fresh: bool = False) -> int:
    """``run()`` through the command store: the stored output of an
    identical earlier run if there is one, else ``run()`` with its
    output teed and stored.  ``fresh`` (or a :data:`_FRESH_FLAGS` flag)
    runs it without the store; a run that raises stores nothing."""
    if fresh or any(getattr(args, name, None) for name in _FRESH_FLAGS):
        return run()
    from repro import store

    key = store.command_key(tool, vars(args))
    if not key:
        return run()
    stored = store.load_command(key)
    if stored is not None:
        out, err, code = stored
        sys.stdout.write(out)
        sys.stderr.write(err)
        return code
    tees = _Tee(sys.stdout), _Tee(sys.stderr)
    sys.stdout, sys.stderr = tees
    try:
        code = int(run() or 0)
    finally:
        if sys.stdout is tees[0]:
            sys.stdout = tees[0].stream
        if sys.stderr is tees[1]:
            sys.stderr = tees[1].stream
    store.store_command(key, "".join(tees[0].parts), "".join(tees[1].parts),
                        code)
    return code


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
    return _replay("repro-extract", args, _run("extract", args, argv))


def main_condocck(argv: Optional[List[str]] = None) -> int:
    """``repro-condocck``: check manuals against extracted deps."""
    parser = argparse.ArgumentParser(
        prog="repro-condocck",
        description="Check the manual corpus against extracted dependencies.",
    )
    _add_obs_args(parser)
    args = parser.parse_args(argv)
    return _replay("repro-condocck", args, _run("condocck", args, argv))


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

    if args.sample not in (None, "random"):
        print(f"repro-conhandleck: --sample {args.sample} is not "
              f"meaningful over a dependency list (only random draws)",
              file=sys.stderr)
        return 2
    sampled = bool(args.sample or args.budget is not None or args.shards > 1)
    if args.jobs > 1 and not sampled:
        parser.error("--jobs N > 1 runs sampled-campaign shards on process "
                     "workers; it needs --sample, --budget or --shards")
    return _replay("repro-conhandleck", args,
                   _run("conhandleck", args, argv, sampled), fresh=sampled)


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
    return _replay("repro-conbugck", args, _run("conbugck", args, argv),
                   fresh=bool(args.sample))


def main_demo(argv: Optional[List[str]] = None) -> int:
    """``repro-demo``: run the executable Figure 1/2 demonstrations."""
    parser = argparse.ArgumentParser(
        prog="repro-demo",
        description="Run the executable Figure-1 and Figure-2 demonstrations.",
    )
    _add_obs_args(parser)
    args = parser.parse_args(argv)
    return _replay("repro-demo", args, _run("demo", args, argv))


def main_study(argv: Optional[List[str]] = None) -> int:
    """``repro-study``: print Tables 1-4 and the mining stats."""
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Print the study results (Tables 1-4) and mining stats.",
    )
    _add_obs_args(parser)
    args = parser.parse_args(argv)
    return _replay("repro-study", args, _run("study", args, argv))


# The service commands live in :mod:`repro.cli_service`; they resolve
# from here on first access, so an analysis command never compiles them.
_lazy.install(globals(), {
    "repro.cli_service": ("main_runs", "main_serve", "main_worker",
                          "main_submit", "main_top"),
})


if __name__ == "__main__":  # pragma: no cover - manual invocation aid
    sys.exit(main_extract())
