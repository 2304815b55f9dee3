"""Tests for the perf substrate: timers, counters, how ``--jobs``
resolves, the process pool's ordered fan-out, the memo registry."""

import json
import threading
import time

import pytest

from repro import perf
from repro.perf import procpool
from repro.perf.timers import PhaseStat


def _slow_for_small(x):
    time.sleep(0.05 * (5 - x))  # earlier items finish later
    return x * 10


@pytest.fixture(autouse=True)
def _fresh_profile():
    perf.reset_profile()
    yield
    perf.reset_profile()


class TestTimers:
    def test_timed_accumulates_calls_and_seconds(self):
        for _ in range(3):
            with perf.timed("phase.a"):
                time.sleep(0.001)
        stat = perf.stats()["phase.a"]
        assert stat.calls == 3
        assert stat.seconds >= 0.003

    def test_timed_records_on_exception(self):
        with pytest.raises(ValueError):
            with perf.timed("phase.err"):
                raise ValueError("boom")
        assert perf.stats()["phase.err"].calls == 1

    def test_bump_and_counters(self):
        perf.bump("c.one")
        perf.bump("c.one", 4)
        assert perf.counters()["c.one"] == 5

    def test_reset_profile(self):
        with perf.timed("phase.a"):
            pass
        perf.bump("c.one")
        perf.reset_profile()
        assert perf.stats() == {}
        assert perf.counters() == {}

    def test_mean_ms(self):
        stat = PhaseStat(calls=4, seconds=0.008)
        assert stat.mean_ms == pytest.approx(2.0)
        assert PhaseStat().mean_ms == 0.0

    def test_thread_safety(self):
        def work():
            for _ in range(200):
                with perf.timed("phase.mt"):
                    pass
                perf.bump("c.mt")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert perf.stats()["phase.mt"].calls == 800
        assert perf.counters()["c.mt"] == 800


class TestRenderProfile:
    def test_contains_phases_and_counters(self):
        with perf.timed("phase.render"):
            pass
        perf.bump("counter.render")
        text = perf.render_profile(title="test profile")
        assert "test profile" in text
        assert "phase.render" in text
        assert "counter.render" in text

    def test_empty_profile_renders(self):
        assert "phase" in perf.render_profile()


class TestResolveJobs:
    """``--jobs`` is the only source of the job count: default 1
    (sequential in-process), an explicit value as given, and the
    retired ``REPRO_JOBS`` variable has no effect."""

    @staticmethod
    def _manifest_jobs(tmp_path, argv):
        from repro.cli import main_conbugck

        path = str(tmp_path / "run.json")
        assert main_conbugck(argv + ["--manifest", path]) == 0
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)["jobs"]

    def test_default_is_sequential(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert self._manifest_jobs(tmp_path, ["--count", "2"]) == 1
        assert perf.counters().get("procpool.created", 0) == 0

    def test_explicit_wins(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert self._manifest_jobs(tmp_path, [
            "--sample", "random", "--budget", "8", "--shards", "2",
            "--jobs", "2"]) == 2


class TestRunOrdered:
    """The process pool's ordered fan-out (campaign shards ride it)."""

    def test_sequential_path(self):
        # One worker runs the calls one after another.
        assert procpool.run_ordered(1, divmod, [(7, 2), (9, 4)]) == \
            [(3, 1), (2, 1)]

    def test_parallel_preserves_submission_order(self):
        assert procpool.run_ordered(2, _slow_for_small,
                                    [(1,), (2,), (3,), (4,)]) == \
            [10, 20, 30, 40]

    def test_parallel_propagates_exceptions(self):
        with pytest.raises(ZeroDivisionError):
            procpool.run_ordered(2, divmod, [(1, 1), (1, 0), (2, 1)])

    def test_empty_items(self):
        assert procpool.run_ordered(2, divmod, []) == []


class TestMemoRegistry:
    def test_registered_clear_called(self):
        cleared = []
        perf.register_memo("test.memo", lambda: cleared.append(True))
        try:
            perf.clear_memos()
            assert cleared
        finally:
            perf._MEMO_REGISTRY.pop("test.memo", None)

    def test_analysis_memos_registered(self):
        import repro.analysis.extractor  # noqa: F401  (registers on import)
        import repro.analysis.taint  # noqa: F401

        for name in ("extract.summaries", "taint.split", "taint.prep"):
            assert name in perf._MEMO_REGISTRY
