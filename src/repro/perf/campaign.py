"""Campaign execution engine: snapshot-cloning, sharded checker runs.

The paper's checkers earn their value at scale — thousands of driven
configurations.  A ConHandleCk violation campaign re-formats the same
few images over and over (every mount violation formats one base
image, and setting violations repeat argument vectors), while a
ConBugCk campaign drives diverse formats that almost never repeat, so
its configurations are formatted cold.  This module provides the two
pieces campaigns run on, neither of which changes a single result:

- :class:`SnapshotCache` — a post-mkfs image snapshot cache.  The
  simulated mkfs is fully deterministic (even the UUID derives from the
  geometry), so configurations sharing the same mkfs-relevant tuple
  produce byte-identical fresh images.  The cache formats once per
  tuple and keeps the formatted device; every later request gets a
  :meth:`~repro.fsimage.blockdev.BlockDevice.clone` of it — a copy of
  its block map, which holds only the blocks mkfs wrote.  Stored blocks
  are immutable, so each driven configuration still gets its own
  independent device and no mutable state is ever shared between
  configurations.  Deterministic mkfs *failures* are cached too, so a
  tuple that mkfs rejects is rejected from the cache with the identical
  error.

- :func:`run_sharded` — the streaming campaign driver.  A sampled
  campaign is cut into contiguous shards that run sequentially
  in-process (``jobs <= 1``) or on ``jobs`` process workers
  (:mod:`repro.perf.procpool`); shard payloads merge in shard order,
  so the report is identical either way.

Counters: ``campaign.snapshot.hit`` / ``campaign.snapshot.miss`` /
``campaign.shards`` (see ``--profile`` on the checker CLIs).
"""

from __future__ import annotations

import hashlib
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, \
    Union

from repro.errors import ReproError
from repro.fsimage.blockdev import BlockDevice
from repro.obs import tracer
from repro.obs.tracer import span
from repro.perf.timers import bump, timed

#: Anything usable as a snapshot-cache key (must be hashable).
CacheKey = Tuple


class SnapshotCache:
    """Post-mkfs image snapshots, cloned instead of re-formatted.

    ``device_for`` either replays a cached outcome (clone the formatted
    device's block map, or re-raise the cached rejection) or runs
    ``build`` cold and caches what it did.  Thread-safe: the entry
    table is lock-protected, and a racing double-build of the same key
    is harmless because the builder is deterministic — both threads
    compute identical images and the second store is a no-op.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: key -> a private formatted device (the template every hit
        #: clones), or the deterministic rejection mkfs raised.
        self._entries: Dict[CacheKey, Union[BlockDevice, ReproError]] = {}
        #: Per-instance hit/miss tallies (the global ``campaign.snapshot``
        #: counters aggregate across caches; shard runners report these).
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def device_for(self, key: CacheKey, num_blocks: int, block_size: int,
                   build: Callable[[BlockDevice], None]) -> BlockDevice:
        """A fresh device holding the image that ``build`` produces.

        ``build`` receives a zeroed device and must format it (raising
        :class:`ReproError` on rejection).  Every call returns an
        independent device — mutating it never leaks into the cache.
        """
        # Tally under the entry lock: ``+=`` on a shared int is a
        # read-modify-write, and concurrent checker threads sharing one
        # cache could lose increments — hits + misses must equal calls
        # for per-instance stats (and the service counters) to add up.
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
            else:
                self.misses += 1
        if entry is not None:
            bump("campaign.snapshot.hit")
            if isinstance(entry, ReproError):
                raise entry
            return entry.clone()
        bump("campaign.snapshot.miss")
        dev = BlockDevice(num_blocks, block_size)
        try:
            with span("campaign.snapshot.build", blocks=num_blocks,
                      block_size=block_size):
                build(dev)
        except ReproError as exc:
            # Cache the rejection *without* pinning the build state: a
            # stored exception drags its traceback along, and the
            # traceback's frames reference the locals of the failed
            # build (the device and every image structure mkfs had
            # made).  On a diverse campaign — thousands of distinct
            # rejected tuples — that pins one dead build per entry.
            del dev
            exc.__traceback__ = None
            with self._lock:
                self._entries.setdefault(key, exc)
            raise
        template = dev.clone()
        with self._lock:
            self._entries.setdefault(key, template)
        return dev


# ---------------------------------------------------------------------------
# sharded streaming campaigns
# ---------------------------------------------------------------------------
#
# A sampled campaign (repro.perf.sampling) can be arbitrarily large, so
# the driver never materializes per-config results: the campaign is cut
# into contiguous shards, each shard regenerates its own config slice
# and folds outcomes into a bounded ShardAggregate as it drives, and the
# parent merges the (small, constant-size) shard payloads.  Shards run
# one after another in this process or, with jobs > 1, on the campaign
# process pool (repro.perf.procpool), whose payloads come back pickled.
#
# Merged results are provably identical to an unsharded sequential run:
# stage counts are sums, the digest is commutative (a sum of per-config
# hashes over global indices), and the bounded failure exemplars are
# exact — the campaign-wide first-N failures by config index are always
# a subset of the union of each shard's first-N.

#: Failure exemplars a shard (and the merged report) keeps verbatim.
#: Counts stay exact past the cap; only stored messages are bounded.
MAX_SHARD_FAILURES = 200

_DIGEST_BITS = 256

#: Shard runner registry: name -> module exposing ``run_shard(spec)``.
#: Modules are imported lazily (inside workers / at shard start), so
#: this module never imports the tools layer.
SHARD_RUNNERS: Dict[str, str] = {
    "conbugck": "repro.tools.conbugck",
    "conhandleck": "repro.tools.conhandleck",
}


def shard_ranges(total: int, shards: int) -> List[Tuple[int, int]]:
    """Deterministic contiguous ``[lo, hi)`` ranges covering ``total``.

    Sizes differ by at most one; empty campaigns get one empty shard so
    callers always have a merge input.
    """
    if total <= 0:
        return [(0, 0)]
    shards = max(1, min(shards, total))
    base, extra = divmod(total, shards)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def outcome_digest_term(index: int, reached: Sequence[str],
                        failure: Optional[str]) -> int:
    """One config outcome as a digest term.

    The global config index is folded in, so any reordering or
    reassignment of outcomes changes the digest — yet the sum of terms
    is order-independent, which is what lets shards digest their slices
    independently and the merge stay byte-identical to sequential.
    """
    key = "%d\x1f%s\x1f%s" % (index, ",".join(reached), failure or "")
    return int.from_bytes(hashlib.sha256(key.encode()).digest(), "big")


def outcome_tail(reached: Sequence[str], failure: Optional[str]) -> bytes:
    """The index-free end of an outcome's digest key, UTF-8 encoded:
    :func:`outcome_digest_term` hashes ``b"%d" % index + tail``."""
    return ("\x1f%s\x1f%s" % (",".join(reached), failure or "")).encode()


class ShardAggregate:
    """Bounded-memory accumulation of per-config outcomes in one shard."""

    def __init__(self, max_failures: int = MAX_SHARD_FAILURES) -> None:
        self.total = 0
        self.reached: Dict[str, int] = {}
        self.failures: List[Tuple[int, str]] = []
        self.failures_truncated = 0
        self.max_failures = max_failures
        self.digest = 0
        self.counters: Dict[str, int] = {}
        self.seconds = 0.0

    def add(self, index: int, reached: Sequence[str],
            failure: Optional[str], tail: Optional[bytes] = None) -> None:
        """Fold one config outcome (global index ``index``) in; ``tail``
        is its :func:`outcome_tail`, if the caller memoizes outcomes."""
        self.total += 1
        for stage in reached:
            self.reached[stage] = self.reached.get(stage, 0) + 1
        if failure is not None:
            if len(self.failures) < self.max_failures:
                self.failures.append((index, failure))
            else:
                self.failures_truncated += 1
        if tail is None:
            tail = outcome_tail(reached, failure)
        term = hashlib.sha256(b"%d" % index + tail).digest()
        self.digest = (self.digest + int.from_bytes(term, "big")) \
            % (1 << _DIGEST_BITS)

    def tally(self, name: str, count: int = 1) -> None:
        """Count a shard-local event for the merged report's counters."""
        self.counters[name] = self.counters.get(name, 0) + count

    def as_payload(self) -> Dict[str, Any]:
        """Plain-container form (picklable across the process pool).

        The digest travels as fixed-width hex, the form reports print.
        """
        return {
            "total": self.total,
            "reached": dict(self.reached),
            "failures": [(index, msg) for index, msg in self.failures],
            "failures_truncated": self.failures_truncated,
            "digest": "%064x" % self.digest,
            "counters": dict(self.counters),
            "seconds": self.seconds,
        }


class CampaignReport:
    """The merged view of a sharded streaming campaign."""

    def __init__(self, total: int, reached: Dict[str, int],
                 failures: List[Tuple[int, str]], failures_truncated: int,
                 digest: int, shard_seconds: List[float],
                 counters: Dict[str, int]) -> None:
        self.total = total
        self.reached = reached
        self.failures = failures
        self.failures_truncated = failures_truncated
        self.digest = digest
        self.shard_seconds = shard_seconds
        self.counters = counters

    @property
    def digest_hex(self) -> str:
        """The campaign digest as a fixed-width hex string."""
        return "%064x" % self.digest

    @property
    def failure_count(self) -> int:
        """Exact failures: stored exemplars plus truncated."""
        return len(self.failures) + self.failures_truncated

    @classmethod
    def merge(cls, payloads: Sequence[Dict[str, Any]],
              max_failures: int = MAX_SHARD_FAILURES) -> "CampaignReport":
        """Merge shard payloads (must be in ascending shard order).

        Shards hold contiguous ascending index ranges, so concatenating
        their exemplar lists in shard order yields the campaign-wide
        failures in global config order; the cap then keeps exactly the
        first ``max_failures`` — the same exemplars a sequential run
        stores — while the truncated count absorbs the rest exactly.
        """
        total = 0
        reached: Dict[str, int] = {}
        failures: List[Tuple[int, str]] = []
        truncated = 0
        digest = 0
        seconds: List[float] = []
        counters: Dict[str, int] = {}
        for payload in payloads:
            total += payload["total"]
            for stage, count in payload["reached"].items():
                reached[stage] = reached.get(stage, 0) + count
            for index, msg in payload["failures"]:
                if len(failures) < max_failures:
                    failures.append((int(index), msg))
                else:
                    truncated += 1
            truncated += payload["failures_truncated"]
            term = payload["digest"]
            term = int(term, 16) if isinstance(term, str) else int(term)
            digest = (digest + term) % (1 << _DIGEST_BITS)
            seconds.append(float(payload["seconds"]))
            for name, count in payload.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + count
        return cls(total, reached, failures, truncated, digest, seconds,
                   counters)


def _run_shard_local(runner: str, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Resolve and run one shard in this process, timing it.

    The wall-clock of the shard (sampling + driving, not queue time) is
    stamped into the payload for the run manifest's shard timings.
    """
    module = importlib.import_module(SHARD_RUNNERS[runner])
    with span("campaign.shard", shard=spec.get("shard"), lo=spec["lo"],
              hi=spec["hi"]):
        started = time.perf_counter()
        payload = module.run_shard(spec)
        payload["seconds"] = time.perf_counter() - started
    return payload


def _run_shard_child(runner: str, spec: Dict[str, Any],
                     trace: bool) -> Tuple[Dict[str, Any], List[Any]]:
    """One shard in a pool worker: ``(payload, exported spans)``.

    With tracing on, the shard runs under a worker-local tracer whose
    spans travel back for the parent to graft into its own tree.
    """
    if not trace:
        return _run_shard_local(runner, spec), []
    local = tracer.Tracer(f"shard-{spec.get('shard')}")
    with tracer.enabled(local):
        payload = _run_shard_local(runner, spec)
    return payload, tracer.export_spans(local)


def run_sharded(runner: str, spec: Dict[str, Any], total: int,
                shards: int = 1,
                jobs: int = 1,
                hints: Optional[Sequence[Any]] = None,
                phase: str = "campaign.sharded") -> CampaignReport:
    """Drive a sampled campaign of ``total`` configs in shards.

    ``runner`` names a :data:`SHARD_RUNNERS` module whose
    ``run_shard(spec)`` drives global config indices ``[spec['lo'],
    spec['hi'])`` and returns a :meth:`ShardAggregate.as_payload` dict.
    ``hints`` (optional, one per shard — see sampler ``shard_hints``)
    ride along in each shard's spec as ``spec['hint']``.

    With ``jobs <= 1`` the shards run one after another in this
    process; with ``jobs > 1`` each shard runs on the ``jobs``-worker
    campaign process pool (:mod:`repro.perf.procpool`) and its payload
    comes back pickled.  Both merge in shard order, so the report is
    identical for any job count or shard count.
    """
    if runner not in SHARD_RUNNERS:
        raise ValueError(f"unknown shard runner {runner!r}")
    ranges = shard_ranges(total, shards)
    specs: List[Dict[str, Any]] = []
    for index, (lo, hi) in enumerate(ranges):
        shard_spec = dict(spec, lo=lo, hi=hi, shard=index)
        if hints is not None:
            shard_spec["hint"] = hints[index]
        specs.append(shard_spec)
    bump("campaign.shards", len(specs))
    with span(phase, total=total, shards=len(specs), jobs=jobs), \
            timed(phase):
        if jobs > 1:
            payloads = _run_shards_process(runner, specs, jobs)
        else:
            payloads = [_run_shard_local(runner, s) for s in specs]
    return CampaignReport.merge(payloads)


def _run_shards_process(runner: str, specs: Sequence[Dict[str, Any]],
                        jobs: int) -> List[Dict[str, Any]]:
    """Fan shard specs over the process pool; payloads in shard order.

    Worker-side spans graft under the span open at submit time, so a
    traced run stays one rooted tree.
    """
    from repro.perf import procpool

    active = tracer.active()
    parent = tracer.capture()
    results = procpool.run_ordered(
        jobs, _run_shard_child,
        [(runner, spec, active is not None) for spec in specs])
    payloads: List[Dict[str, Any]] = []
    for payload, spans in results:
        if active is not None and spans:
            tracer.graft(spans, active, parent)
        payloads.append(payload)
    return payloads
