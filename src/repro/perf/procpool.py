"""The process pool behind sharded campaigns (``--jobs N > 1``).

Campaign shards are CPU-bound simulated mkfs → mount → use → fsck
drives that share no state, so they are the one job that gains from
real cores; everything else runs sequentially in-process.
:func:`get_pool` hands out one lazily created spawn-context
``ProcessPoolExecutor`` keyed by ``(jobs, REPRO_* snapshot)``: change
the cache/corpus dir or any other ``REPRO_*`` variable and the next
call retires the stale pool, so workers always agree with the parent
(counters ``procpool.created``/``procpool.reused``).
:func:`run_ordered` returns results in call order; a worker that dies
fails the whole call with :class:`ProcessPoolError`, never a partial
result, and retires the pool.  An ``atexit`` hook and, for long-lived
service processes, :func:`install_signal_cleanup` stop every worker.
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.perf.timers import bump


class ProcessPoolError(RuntimeError):
    """A pool worker died; the run has no complete result."""


#: (jobs, REPRO_* snapshot) -> the live pool.  At most one entry.
_POOLS: Dict[Tuple[int, Tuple[Tuple[str, str], ...]], Any] = {}
_POOLS_LOCK = threading.Lock()


def env_signature() -> Tuple[Tuple[str, str], ...]:
    """Sorted snapshot of every ``REPRO_*`` environment variable.

    Two processes with equal signatures resolve every cache and corpus
    location identically, which is the consistency condition for
    reusing a persistent worker pool.
    """
    return tuple(sorted(
        (key, value) for key, value in os.environ.items()
        if key.startswith("REPRO_")
    ))


def _retire(pool) -> None:
    """Stop ``pool`` now: cancel queued work, terminate its workers."""
    # Read the worker table before shutdown() drops it; terminating
    # rather than draining keeps signal-time cleanup prompt even when a
    # shard is mid-drive.
    workers = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for worker in workers:
        if worker.is_alive():
            worker.terminate()
    for worker in workers:
        worker.join(5.0)


def get_pool(jobs: int):
    """The shared ``jobs``-worker pool for the current environment
    (created on demand)."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    key = (jobs, env_signature())
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is not None and not getattr(pool, "_broken", False):
            bump("procpool.reused")
            return pool
        stale = list(_POOLS.values())
        _POOLS.clear()
        # Workers spawn lazily at submit time and inherit the
        # environment then, which the key guarantees is this snapshot.
        pool = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context("spawn"))
        _POOLS[key] = pool
        bump("procpool.created")
    for old in stale:
        _retire(old)
    return pool


def run_ordered(jobs: int, fn: Callable[..., Any],
                calls: Sequence[Tuple[Any, ...]]) -> List[Any]:
    """Run ``fn(*args)`` for every args tuple; results in call order.

    ``fn`` must be a module-level function and every argument and
    result picklable.  The first failing call (in call order) re-raises
    its worker-side exception; a dead worker raises
    :class:`ProcessPoolError` and retires the pool.
    """
    from concurrent.futures.process import BrokenProcessPool

    pool = get_pool(jobs)
    futures = []
    try:
        futures = [pool.submit(fn, *args) for args in calls]
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        shutdown_pools()  # the registry holds only this pool
        raise ProcessPoolError(
            f"a pool worker died with {len(calls)} call(s) in flight") from exc
    finally:
        for future in futures:
            future.cancel()


def shutdown_pools() -> None:
    """Stop every pool (atexit hook, signal handler; also used by tests)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        _retire(pool)


atexit.register(shutdown_pools)

#: Whether :func:`install_signal_cleanup` already ran in this process.
_SIGNALS_INSTALLED = False


def install_signal_cleanup() -> bool:
    """Stop every pool on SIGINT/SIGTERM, then re-deliver the signal
    through the previous handler (or the default action), preserving
    exit status.  Main thread only; idempotent (False when already
    installed).  Called by ``repro-serve``/``repro-worker``."""
    global _SIGNALS_INSTALLED
    if _SIGNALS_INSTALLED:
        return False
    import signal

    def _install(sig: int) -> None:
        previous = signal.getsignal(sig)

        def _handler(signum, frame):
            shutdown_pools()
            if callable(previous) and previous not in (
                    signal.SIG_IGN, signal.SIG_DFL):
                previous(signum, frame)
            else:
                signal.signal(signum, signal.SIG_DFL)
                os.kill(os.getpid(), signum)

        signal.signal(sig, _handler)

    for sig in (signal.SIGINT, signal.SIGTERM):
        _install(sig)
    _SIGNALS_INSTALLED = True
    return True
