"""Prometheus text exposition: render and parse, no client library.

``GET /v1/metrics`` speaks the Prometheus text format (version 0.0.4)
because it is the lingua franca of fleet monitoring — any scraper,
``curl``, or the bundled ``repro-top`` dashboard can consume it — and
because the format is simple enough that depending on a client library
would buy nothing.  This module is the single place that knows the
wire shape:

- :func:`render` turns counters / gauges / :class:`~repro.obs.metrics.
  Histogram` snapshots into exposition text, expanding each histogram
  into the canonical ``_bucket{le=...}`` / ``_sum`` / ``_count``
  triplet with a cumulative ``+Inf`` bucket;
- :func:`parse` reads exposition text back into sample dicts — used by
  ``repro-top``, the service-smoke CI job, and the tests, so the
  round-trip is exercised on every run;
- :func:`histogram_quantile` estimates quantiles from parsed
  ``_bucket`` samples, mirroring PromQL's function of the same name.

Metric names are sanitised the way Prometheus requires
(``[a-zA-Z_:][a-zA-Z0-9_:]*``): the registry's dotted names
(``serve.http.requests``) become underscored (``serve_http_requests``).
Everything here is pure data-in/data-out; the HTTP layer in
:mod:`repro.serve.api` just calls :func:`render` and ships bytes.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .metrics import Histogram

#: Content type a conforming scraper expects for this format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")

#: A parsed sample: ((name, ((label, value), ...)) -> float).
SampleKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def metric_name(raw: str) -> str:
    """Sanitise a dotted registry name into a legal metric name."""
    name = _NAME_FIX.sub("_", raw)
    if not name or not _NAME_OK.match(name):
        name = "_" + name
    return name


def _fmt_value(value: float) -> str:
    """Render a sample value the way Prometheus expects."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _fmt_labels(labels: Optional[Mapping[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (metric_name(k),
                     str(v).replace("\\", r"\\").replace('"', r'\"')
                     .replace("\n", r"\n"))
        for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class Exposition:
    """Accumulates metric families and renders the exposition text."""

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._seen: Dict[str, str] = {}

    def _header(self, name: str, kind: str, help_text: str) -> None:
        prior = self._seen.get(name)
        if prior is None:
            escaped = help_text.replace("\\", r"\\").replace("\n", r"\n")
            self._lines.append(f"# HELP {name} {escaped}")
            self._lines.append(f"# TYPE {name} {kind}")
            self._seen[name] = kind
        elif prior != kind:
            raise ValueError(
                f"metric {name} declared as both {prior} and {kind}")

    def add(self, name: str, kind: str, value: float,
            labels: Optional[Mapping[str, str]] = None,
            help_text: str = "") -> None:
        """Add one counter/gauge sample (header emitted once per family)."""
        name = metric_name(name)
        self._header(name, kind, help_text or name)
        self._lines.append(
            f"{name}{_fmt_labels(labels)} {_fmt_value(float(value))}")

    def add_histogram(self, name: str, hist: Histogram,
                      labels: Optional[Mapping[str, str]] = None,
                      help_text: str = "") -> None:
        """Expand a histogram into ``_bucket``/``_sum``/``_count``."""
        name = metric_name(name)
        self._header(name, "histogram", help_text or name)
        base = dict(labels or {})
        for bound, cumulative in hist.cumulative():
            bucket_labels = dict(base)
            bucket_labels["le"] = _fmt_value(bound)
            self._lines.append(
                f"{name}_bucket{_fmt_labels(bucket_labels)} {cumulative}")
        self._lines.append(
            f"{name}_sum{_fmt_labels(base)} {_fmt_value(hist.sum)}")
        self._lines.append(
            f"{name}_count{_fmt_labels(base)} {hist.count}")

    def render(self) -> str:
        """The exposition text (trailing newline included, as required)."""
        return "\n".join(self._lines) + ("\n" if self._lines else "")


def render(counters: Optional[Mapping[str, Union[int, float]]] = None,
           gauges: Optional[Mapping[str, Union[int, float]]] = None,
           histograms: Optional[Mapping[str, Histogram]] = None,
           prefix: str = "repro") -> str:
    """One-call rendering of registry-shaped snapshots.

    ``counters`` and ``gauges`` map dotted names to values;
    ``histograms`` maps dotted names to :class:`Histogram` snapshots.
    Every family is prefixed (``repro_``) so scrapes of mixed fleets
    stay collision-free.
    """
    exp = Exposition()
    for raw, value in sorted((counters or {}).items()):
        exp.add(f"{prefix}_{raw}_total", "counter", value,
                help_text=f"Monotonic counter {raw!r}.")
    for raw, value in sorted((gauges or {}).items()):
        exp.add(f"{prefix}_{raw}", "gauge", value,
                help_text=f"Gauge {raw!r}.")
    for raw, hist in sorted((histograms or {}).items()):
        exp.add_histogram(f"{prefix}_{raw}_seconds", hist,
                          help_text=f"Latency histogram {raw!r}.")
    return exp.render()


_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<ts>-?\d+))?$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_value(text: str) -> float:
    lowered = text.lower()
    if lowered in ("+inf", "inf"):
        return float("inf")
    if lowered == "-inf":
        return float("-inf")
    if lowered == "nan":
        return float("nan")
    return float(text)


def parse(text: str) -> Dict[SampleKey, float]:
    """Parse exposition text into ``{(name, labels): value}``.

    Strict on sample lines (a malformed one raises ``ValueError`` with
    the offending line) and tolerant of comments/blank lines, which is
    what a smoke test wants: any scrape that this cannot parse is a
    scrape Prometheus could not parse either.
    """
    samples: Dict[SampleKey, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = _LINE.match(stripped)
        if not match:
            raise ValueError(
                f"unparseable exposition line {lineno}: {line!r}")
        raw_labels = match.group("labels")
        labels: List[Tuple[str, str]] = []
        if raw_labels:
            consumed = 0
            for lmatch in _LABEL.finditer(raw_labels):
                value = (lmatch.group(2)
                         .replace(r"\"", '"')
                         .replace(r"\n", "\n")
                         .replace(r"\\", "\\"))
                labels.append((lmatch.group(1), value))
                consumed = lmatch.end()
            leftover = raw_labels[consumed:].strip().strip(",").strip()
            if leftover:
                raise ValueError(
                    f"unparseable labels on line {lineno}: {line!r}")
        key = (match.group("name"), tuple(sorted(labels)))
        samples[key] = _parse_value(match.group("value"))
    return samples


def samples_named(samples: Mapping[SampleKey, float],
                  name: str) -> List[Tuple[Dict[str, str], float]]:
    """All samples of one family, as ``(labels dict, value)`` pairs."""
    return [(dict(labels), value)
            for (sample_name, labels), value in samples.items()
            if sample_name == name]


def histogram_quantile(samples: Mapping[SampleKey, float],
                       name: str, q: float) -> float:
    """PromQL-style quantile from parsed ``<name>_bucket`` samples.

    Returns the upper bound of the first bucket whose cumulative count
    covers rank ``q * count`` (0.0 when the histogram is empty) —
    matching :meth:`Histogram.quantile` so dashboard and in-process
    views agree.
    """
    buckets: List[Tuple[float, float]] = []
    for labels, value in samples_named(samples, f"{name}_bucket"):
        if "le" in labels:
            buckets.append((_parse_value(labels["le"]), value))
    if not buckets:
        raise KeyError(f"no {name}_bucket samples in scrape")
    buckets.sort()
    total = buckets[-1][1]
    if not total:
        return 0.0
    rank = q * total
    finite_max = 0.0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            if bound != float("inf"):
                return bound
            break
        if bound != float("inf"):
            finite_max = bound
    return finite_max


def counter_value(samples: Mapping[SampleKey, float], name: str,
                  labels: Optional[Mapping[str, str]] = None) -> float:
    """Value of one exact sample; KeyError names the missing sample."""
    key = (name, tuple(sorted((labels or {}).items())))
    if key not in samples:
        raise KeyError(f"sample {name}{dict(labels or {})} not in scrape")
    return samples[key]
