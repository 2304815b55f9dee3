"""Concurrent access to the shared caches a long-lived service leans on.

A service multiplies concurrency: API threads share one
:class:`~repro.serve.db.RunQueue`, worker processes share one
analysis store directory, and campaign shards share one
:class:`~repro.perf.campaign.SnapshotCache`.  These tests pin the
guarantees that make that safe:

- SnapshotCache: concurrent ``device_for`` calls from
  many threads produce exactly one cold build per key and tallies that
  add up (``hits + misses == calls`` — the increments run under the
  entry lock);
- the function-level analysis store: concurrent loads/stores from
  threads *and* separate processes never tear an entry, and the
  per-process tallies stay consistent (`DiskCacheStats.tally` is
  atomic);
- the queue's single-flight guarantee under true process concurrency:
  many processes submitting the identical request all get one run id.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.corpus import cache
from repro.perf.campaign import SnapshotCache
from repro.errors import ReproError


# ---------------------------------------------------------------------------
# SnapshotCache under thread concurrency
# ---------------------------------------------------------------------------


def _run_threads(count, target):
    threads = [threading.Thread(target=target, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestSnapshotCacheConcurrency:
    THREADS = 16
    ROUNDS = 8

    def test_tallies_add_up_under_contention(self):
        snapshots = SnapshotCache()
        builds = []
        build_lock = threading.Lock()

        def build(dev):
            with build_lock:
                builds.append(threading.get_ident())
            dev.write_block(0, b"\x42" * dev.block_size)

        def hammer(_index):
            for _round in range(self.ROUNDS):
                dev = snapshots.device_for(("k",), 8, 512, build)
                assert dev.read_block(0)[:1] == b"\x42"

        _run_threads(self.THREADS, hammer)
        calls = self.THREADS * self.ROUNDS
        assert snapshots.hits + snapshots.misses == calls
        assert len(snapshots) == 1
        # A racing double-build is allowed (both compute the same
        # snapshot); a build per call is not.
        assert snapshots.misses == len(builds)
        assert snapshots.misses < calls

    def test_rejection_tallies_add_up(self):
        snapshots = SnapshotCache()

        def reject(dev):
            raise ReproError("synthetic rejection")

        def hammer(_index):
            for _round in range(self.ROUNDS):
                with pytest.raises(ReproError):
                    snapshots.device_for(("bad",), 8, 512, reject)

        _run_threads(self.THREADS, hammer)
        calls = self.THREADS * self.ROUNDS
        assert snapshots.hits + snapshots.misses == calls
        assert snapshots.hits == calls - snapshots.misses

    def test_distinct_keys_build_independently(self):
        snapshots = SnapshotCache()

        def build(dev):
            dev.write_block(0, b"\x01" * dev.block_size)

        def hammer(index):
            for _round in range(self.ROUNDS):
                snapshots.device_for((f"k{index % 4}",), 8, 512, build)

        _run_threads(self.THREADS, hammer)
        assert len(snapshots) == 4
        assert snapshots.hits + snapshots.misses == \
            self.THREADS * self.ROUNDS

    def test_concurrent_clones_stay_independent(self):
        # Clones share the template's immutable blocks; each thread's
        # writes must land in its own block map only.
        snapshots = SnapshotCache()
        image = b"\x42" * 512

        def build(dev):
            dev.write_block(0, image)

        snapshots.device_for(("k",), 8, 512, build)
        errors = []

        def hammer(index):
            mark = bytes([index + 1]) * 512
            for _round in range(self.ROUNDS):
                dev = snapshots.device_for(("k",), 8, 512, build)
                dev.write_block(1, mark)
                dev.write_bytes(0, mark[:16])
                if (dev.read_block(1) != mark
                        or dev.read_block(0) != mark[:16] + image[16:]):
                    errors.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        fresh = snapshots.device_for(("k",), 8, 512, build)
        assert fresh.snapshot() == image + bytes(7 * 512)


# ---------------------------------------------------------------------------
# the analysis store under thread + process concurrency
# ---------------------------------------------------------------------------


def _an_key(tag):
    return cache.analysis_key("unit.c", f"fn_{tag}", "s" * 8, "f" * 8,
                              "comp")


class TestAnalysisStoreConcurrency:
    THREADS = 12
    ROUNDS = 10

    def test_thread_tallies_are_consistent(self):
        cache.reset_cache_stats()
        from repro.analysis.bridge import FieldStore
        from repro.analysis.constraints import FunctionFindings
        from repro.analysis.extractor import FunctionSummary

        key = _an_key("threads")
        payload = FunctionSummary(
            7, tuple(FieldStore("super", f"f{n}", frozenset())
                     for n in range(32)),
            FunctionFindings("threads", [], []))

        def hammer(index):
            for round_no in range(self.ROUNDS):
                if (index + round_no) % 3 == 0:
                    assert cache.store_analysis(key, payload)
                else:
                    loaded = cache.load_analysis(key, FunctionSummary)
                    assert loaded is None or loaded == payload

        _run_threads(self.THREADS, hammer)
        stats = cache.analysis_stats()
        loads = sum(1 for i in range(self.THREADS)
                    for r in range(self.ROUNDS) if (i + r) % 3 != 0)
        stores = self.THREADS * self.ROUNDS - loads
        assert stats.hits + stats.misses + stats.errors == loads
        assert stats.stores == stores
        assert stats.errors == 0

    def test_processes_share_the_store_without_tearing(self, tmp_path):
        """N processes store/load one key; every load is hit-or-miss,
        never a torn read, and each process's tallies add up."""
        key = _an_key("procs")
        script = (
            "import json, sys\n"
            "from repro.analysis.bridge import FieldStore\n"
            "from repro.analysis.constraints import FunctionFindings\n"
            "from repro.analysis.extractor import FunctionSummary\n"
            "from repro.corpus import cache\n"
            "key = sys.argv[1]\n"
            "payload = FunctionSummary(\n"
            "    1, (FieldStore('super', 'x' * 4096, frozenset()),),\n"
            "    FunctionFindings('procs', [], []))\n"
            "for _ in range(20):\n"
            "    cache.store_analysis(key, payload)\n"
            "    loaded = cache.load_analysis(key, FunctionSummary)\n"
            "    assert loaded is None or loaded == payload\n"
            "stats = cache.analysis_stats()\n"
            "print(json.dumps({'hits': stats.hits, 'misses': stats.misses,\n"
            "                  'stores': stats.stores,"
            " 'errors': stats.errors}))\n"
        )
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"),
                   REPRO_CACHE_DIR=str(tmp_path / "shared-cache"))
        procs = [subprocess.Popen([sys.executable, "-c", script, key],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, env=env,
                                  text=True)
                 for _ in range(4)]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            stats = json.loads(out)
            assert stats["errors"] == 0  # no torn entries observed
            assert stats["hits"] + stats["misses"] == 20
            assert stats["stores"] == 20

    def test_tally_is_atomic(self):
        stats = cache.DiskCacheStats()

        def hammer(_index):
            for _round in range(200):
                stats.tally("hits")

        _run_threads(16, hammer)
        assert stats.hits == 16 * 200


# ---------------------------------------------------------------------------
# single-flight dedup across processes
# ---------------------------------------------------------------------------


class TestCrossProcessSingleFlight:
    def test_identical_submits_from_many_processes(self, tmp_path):
        service_dir = tmp_path / "serve"
        service_dir.mkdir()
        db = str(service_dir / "service.db")
        script = (
            "import sys\n"
            "from repro.serve.db import CorpusStore, RunQueue\n"
            "from repro.serve.worker import submit_request\n"
            "queue, store = RunQueue(sys.argv[1]), CorpusStore(sys.argv[2])\n"
            "row, created = submit_request(queue, store, 'extract', {})\n"
            "print(row['run_id'], int(created))\n"
        )
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        procs = [subprocess.Popen(
                     [sys.executable, "-c", script, db, str(service_dir)],
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                     env=env, text=True)
                 for _ in range(6)]
        outputs = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            outputs.append(out.split())
        run_ids = {run_id for run_id, _created in outputs}
        assert len(run_ids) == 1  # one run, no matter who submits
        created = sum(int(flag) for _run_id, flag in outputs)
        assert created == 1  # exactly one submission created the row

        from repro.serve.db import RunQueue
        stats = RunQueue(db).stats()
        assert stats["runs"] == 1 and stats["submits"] == 6
        assert stats["dedup_ratio"] == pytest.approx(5 / 6)
