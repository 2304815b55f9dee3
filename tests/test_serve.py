"""The serving layer: request keys, the SQLite queue, workers, the API.

Covers the tier-8 surface (:mod:`repro.serve`):

- content-keyed request identity (:mod:`repro.serve.keys`): canonical
  params, sensitivity to tool/params/corpus/engine, stability;
- the ``runs`` queue (:mod:`repro.serve.db`): single-flight dedup at
  the row level, claim ordering, batch compatibility, lease-timeout
  reclaim, the ``claimed_by`` guards on finish/fail, stats;
- the corpus snapshot store: content-stable ids, overlay semantics;
- the worker (:mod:`repro.serve.worker`): request validation at the
  door, execution through the real CLI mains (service results are
  byte-identical to direct CLI stdout), manifest run-record linkage,
  the failure path;
- the HTTP API + client: submit/dedup/wait/result/manifest routes,
  error statuses, corpus upload, concurrent identical submissions
  collapsing onto one run id;
- signal cleanup (:func:`repro.perf.procpool.install_signal_cleanup`):
  a SIGTERM'd or SIGINT'd worker stops its campaign pool's children.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import store as repro_store
from repro.obs.manifest import (diff_manifests, load_manifest,
                                manifests_equivalent)
from repro.serve import keys as serve_keys
from repro.serve.db import (CLAIMED, DONE, FAILED, QUEUED, CorpusStore,
                            QueueError, RunQueue)
from repro.serve.worker import (RequestError, Worker, submit_request,
                                validate_request)

CORPUS = {"mount.c": "a" * 64, "super.c": "b" * 64}
ENGINE = {"backend": "inline"}


@pytest.fixture
def queue(tmp_path):
    return RunQueue(str(tmp_path / "service.db"))


@pytest.fixture
def store(tmp_path):
    return CorpusStore(str(tmp_path))


def submit_n(queue, n, **overrides):
    """Enqueue n distinct trivial rows; returns their ids in order."""
    ids = []
    for i in range(n):
        row = dict(tool="demo", params={"i": i}, engine=ENGINE,
                   corpus_id=None)
        row.update(overrides)
        run_id = serve_keys.request_key(
            row["tool"], row["params"], CORPUS, row["engine"])
        queue.submit(run_id, row["tool"], row["params"], row["engine"],
                     corpus_id=row["corpus_id"])
        ids.append(run_id)
    return ids


# ---------------------------------------------------------------------------
# request keys
# ---------------------------------------------------------------------------


class TestRequestKeys:
    def test_canonical_params_drop_none_and_sort(self):
        assert serve_keys.canonical_params(None) == {}
        assert serve_keys.canonical_params({"b": 1, "a": None}) == {"b": 1}
        assert list(serve_keys.canonical_params({"z": 1, "a": 2})) == \
            ["a", "z"]

    def test_none_and_absent_spell_the_same_request(self):
        key = serve_keys.request_key("extract", {}, CORPUS, ENGINE)
        assert serve_keys.request_key(
            "extract", {"jobs": None}, CORPUS, ENGINE) == key

    def test_key_is_stable_across_dict_order(self):
        a = serve_keys.request_key("extract", {"a": 1, "b": 2},
                                   CORPUS, ENGINE)
        b = serve_keys.request_key("extract", {"b": 2, "a": 1},
                                   dict(reversed(list(CORPUS.items()))),
                                   dict(reversed(list(ENGINE.items()))))
        assert a == b

    @pytest.mark.parametrize("mutate", [
        lambda t, p, c, e: ("condocck", p, c, e),
        lambda t, p, c, e: (t, {"jobs": 2}, c, e),
        lambda t, p, c, e: (t, p, {**c, "mount.c": "c" * 64}, e),
        lambda t, p, c, e: (t, p, c, {**e, "backend": "process"}),
    ])
    def test_any_content_difference_changes_the_key(self, mutate):
        base = ("extract", {"jobs": 1}, CORPUS, ENGINE)
        assert serve_keys.request_key(*base) != \
            serve_keys.request_key(*mutate(*base))

    def test_code_change_gives_a_new_run_id(self, monkeypatch):
        # The same tool, params and corpus under other code is another
        # run: an upgraded service must not dedupe onto old results.
        base = ("condocck", {}, CORPUS, {})
        before = serve_keys.request_key(*base)
        monkeypatch.setattr(repro_store, "_PACKAGE_DIGEST", "0" * 64)
        assert serve_keys.request_key(*base) != before

    def test_every_package_file_moves_the_digest(self, tmp_path):
        import shutil

        package = os.path.dirname(repro_store.__file__)
        copy = tmp_path / "repro"
        shutil.copytree(package, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert repro_store.tree_digest(str(copy)) == \
            repro_store.package_digest()
        files = sorted(path for path in copy.rglob("*")
                       if path.suffix in repro_store.PACKAGE_SUFFIXES)
        assert {".py", ".c", ".json"} <= {path.suffix for path in files}
        seen = {repro_store.package_digest()}
        for path in files:
            blob = path.read_bytes()
            path.write_bytes(blob + b"\n")
            seen.add(repro_store.tree_digest(str(copy)))
            path.write_bytes(blob)
        assert len(seen) == len(files) + 1
        # Bytecode and files of other kinds are not code.
        (copy / "__pycache__").mkdir()
        (copy / "__pycache__" / "x.py").write_text("pass\n")
        (copy / "notes.txt").write_text("notes\n")
        assert repro_store.tree_digest(str(copy)) == \
            repro_store.package_digest()


# ---------------------------------------------------------------------------
# the runs queue
# ---------------------------------------------------------------------------


class TestRunQueue:
    def test_submit_creates_a_queued_row(self, queue):
        row, created = queue.submit("k1", "demo", {"x": 1}, ENGINE)
        assert created
        assert row["status"] == QUEUED
        assert row["submits"] == 1 and row["attempts"] == 0
        assert row["params"] == {"x": 1} and row["engine"] == ENGINE

    def test_duplicate_submit_is_single_flight(self, queue):
        queue.submit("k1", "demo", {}, ENGINE)
        row, created = queue.submit("k1", "demo", {}, ENGINE)
        assert not created
        assert row["submits"] == 2
        assert queue.stats()["deduplicated"] == 1

    def test_duplicate_of_a_done_run_skips_the_queue(self, queue):
        queue.submit("k1", "demo", {}, ENGINE)
        [run] = queue.claim_batch("w1")
        assert queue.finish("k1", "w1", {"exit_code": 0})
        row, created = queue.submit("k1", "demo", {}, ENGINE)
        assert not created and row["status"] == DONE
        assert row["result"] == {"exit_code": 0}

    def test_claim_is_fifo(self, queue):
        ids = submit_n(queue, 3)
        claimed = queue.claim_batch("w1", limit=2)
        assert [run["run_id"] for run in claimed] == ids[:2]
        assert all(run["status"] == CLAIMED and run["claimed_by"] == "w1"
                   and run["attempts"] == 1 for run in claimed)

    def test_claimed_rows_are_not_reclaimable_while_leased(self, queue):
        submit_n(queue, 1)
        assert queue.claim_batch("w1")
        assert queue.claim_batch("w2") == []

    def test_lapsed_lease_is_reclaimable(self, queue):
        submit_n(queue, 1)
        [run] = queue.claim_batch("w1", lease_seconds=0.01)
        time.sleep(0.03)
        [reclaimed] = queue.claim_batch("w2")
        assert reclaimed["run_id"] == run["run_id"]
        assert reclaimed["claimed_by"] == "w2"
        assert reclaimed["attempts"] == 2
        # The original worker lost the claim: its writes must bounce.
        assert not queue.finish(run["run_id"], "w1", {"exit_code": 0})
        assert not queue.fail(run["run_id"], "w1", "boom")
        assert not queue.renew(run["run_id"], "w1")
        assert queue.get(run["run_id"])["status"] == CLAIMED

    def test_renew_extends_a_live_lease(self, queue):
        submit_n(queue, 1)
        [run] = queue.claim_batch("w1", lease_seconds=60)
        before = queue.get(run["run_id"])["lease_expires"]
        assert queue.renew(run["run_id"], "w1", lease_seconds=120)
        assert queue.get(run["run_id"])["lease_expires"] > before

    def test_batch_shares_engine_and_corpus(self, queue):
        ids = submit_n(queue, 2)
        other_engine = submit_n(queue, 1, params={"i": 9},
                                engine={**ENGINE, "backend": "process"})
        other_corpus = submit_n(queue, 1, params={"i": 10},
                                corpus_id="c" * 32)
        batch = queue.claim_batch("w1", limit=10)
        assert [run["run_id"] for run in batch] == ids
        # The incompatible rows are still queued, claimable next wave.
        rest = queue.claim_batch("w1", limit=10)
        assert [run["run_id"] for run in rest] == other_engine
        assert [run["run_id"] for run in queue.claim_batch("w1", limit=10)] \
            == other_corpus

    def test_fail_records_the_error(self, queue):
        submit_n(queue, 1)
        [run] = queue.claim_batch("w1")
        assert queue.fail(run["run_id"], "w1", "ValueError: nope")
        row = queue.get(run["run_id"])
        assert row["status"] == FAILED and row["error"] == "ValueError: nope"

    def test_failed_runs_are_not_reclaimed(self, queue):
        submit_n(queue, 1)
        [run] = queue.claim_batch("w1")
        queue.fail(run["run_id"], "w1", "boom")
        assert queue.claim_batch("w2") == []

    def test_list_runs_filters_by_status(self, queue):
        submit_n(queue, 2)
        queue.claim_batch("w1", limit=1)
        assert len(queue.list_runs()) == 2
        assert len(queue.list_runs(status=QUEUED)) == 1
        assert len(queue.list_runs(status=CLAIMED)) == 1

    def test_get_unknown_run_is_none(self, queue):
        assert queue.get("nope") is None

    def test_stats_dedup_ratio(self, queue):
        ids = submit_n(queue, 2)
        submit_n(queue, 1)          # duplicates ids[0]
        queue.submit(ids[1], "demo", {"i": 1}, ENGINE)
        stats = queue.stats()
        assert stats["runs"] == 2 and stats["submits"] == 4
        assert stats["deduplicated"] == 2
        assert stats["dedup_ratio"] == pytest.approx(0.5)

    def test_racing_first_submits_tally_one_row(self, queue, monkeypatch):
        """Two threads first-submit one request at once (a rendezvous
        holds each upsert's answer until both have run): SQLite orders
        the two writes, so one creates the row and the other bumps it."""
        import types

        barrier = threading.Barrier(2, timeout=10)
        cached_conn = queue._cached_conn

        class Rendezvous:
            def __init__(self, conn):
                self._conn = conn

            def execute(self, sql, *args):
                cursor = self._conn.execute(sql, *args)
                if "RETURNING" not in sql:
                    return cursor
                rows = cursor.fetchall()
                barrier.wait()
                return types.SimpleNamespace(fetchall=lambda: rows)

            def __getattr__(self, name):
                return getattr(self._conn, name)

        monkeypatch.setattr(queue, "_cached_conn",
                            lambda: Rendezvous(cached_conn()))
        run_id = serve_keys.request_key("demo", {}, CORPUS, ENGINE)
        created = []

        def submit():
            created.append(queue.submit(run_id, "demo", {}, ENGINE)[1])

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert sorted(created) == [False, True]
        assert queue.get(run_id)["submits"] == 2
        stats = queue.stats()
        assert stats["runs"] == 1 and stats["submits"] == 2
        assert stats["dedup_ratio"] == pytest.approx(0.5)


class TestCorpusStore:
    def test_same_overlay_same_id(self, store):
        a = store.add({"mount.c": "int main(void) { return 0; }\n"})
        b = store.add({"mount.c": "int main(void) { return 0; }\n"})
        assert a == b
        assert os.path.isdir(store.path(a))

    def test_different_content_different_id(self, store):
        a = store.add({"mount.c": "// v1\n"})
        b = store.add({"mount.c": "// v2\n"})
        assert a != b

    def test_snapshot_overlays_the_default_corpus(self, store):
        corpus_id = store.add({"extra.c": "// new unit\n"})
        names = sorted(os.listdir(store.path(corpus_id)))
        assert "extra.c" in names and "mount.c" in names

    def test_hashes_reflect_the_overlay(self, store):
        default = store.hashes(None)
        corpus_id = store.add({"mount.c": "// patched\n"})
        patched = store.hashes(corpus_id)
        assert patched["mount.c"] != default["mount.c"]
        assert set(default) <= set(patched)

    def test_default_hashes_and_run_ids_cover_the_shipped_units(
            self, queue, store, monkeypatch):
        """The submit path, the command key and the manifest share one
        corpus hash: on the shipped corpus it equals a sha256 of each
        unit the loader knows, so run ids are unchanged."""
        import hashlib

        from repro.corpus.loader import UNIT_COMPONENTS, corpus_path
        from repro.obs.manifest import build_manifest

        monkeypatch.delenv("REPRO_CORPUS_DIR", raising=False)
        reference = {}
        for filename in sorted(UNIT_COMPONENTS):
            with open(corpus_path(filename), "rb") as handle:
                reference[filename] = hashlib.sha256(
                    handle.read()).hexdigest()
        assert store.hashes(None) == reference
        assert list(store.hashes(None)) == sorted(reference)
        assert build_manifest("demo", 0.0)["corpus"] == reference
        row, _created = submit_request(queue, store, "demo")
        assert row["run_id"] == serve_keys.request_key(
            "demo", {}, reference, {})

    @pytest.mark.parametrize("name", ["../evil.c", "notes.txt", "a/b.c"])
    def test_invalid_filenames_are_rejected(self, store, name):
        with pytest.raises(QueueError):
            store.add({name: "// nope\n"})

    def test_unknown_snapshot_raises(self, store):
        with pytest.raises(QueueError):
            store.path("f" * 32)


def _sha(path):
    import hashlib

    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _backdate(directory, seconds=60.0):
    """Move every unit's mtime out of the racy window."""
    old = time.time() - seconds
    for name in os.listdir(directory):
        os.utime(os.path.join(directory, name), (old, old))


def _edit_in_place(path):
    """A same-size rewrite of one byte, mtime restored (ctime moves)."""
    stat = os.stat(path)
    with open(path, "r+b") as handle:
        first = handle.read(1)
        handle.seek(0)
        handle.write(b"/" if first != b"/" else b" ")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns, after.st_ino) == \
        (stat.st_size, stat.st_mtime_ns, stat.st_ino)


class TestCorpusHashMemo:
    """``CorpusStore.hashes`` answers a repeat from each unit's stat;
    every change below must give new hashes and a new run id, never a
    dedup hit on the old run."""

    @pytest.fixture
    def corpus(self, tmp_path, monkeypatch):
        import shutil

        from repro.corpus import corpus_dir

        monkeypatch.delenv("REPRO_CORPUS_DIR", raising=False)
        shipped = corpus_dir()
        copy = tmp_path / "corpus-copy"
        copy.mkdir()
        for name in os.listdir(shipped):
            if name.endswith(".c"):
                shutil.copyfile(os.path.join(shipped, name), copy / name)
        monkeypatch.setenv("REPRO_CORPUS_DIR", str(copy))
        return str(copy)

    @pytest.fixture
    def reads(self, monkeypatch):
        import repro.serve.db as db

        calls = []

        def counting(directory=None):
            calls.append(directory)
            return repro_store.corpus_hashes(directory)

        monkeypatch.setattr(db, "corpus_hashes", counting)
        return calls

    def test_repeat_reads_no_source_once_outside_the_window(
            self, store, corpus, reads):
        _backdate(corpus)
        first = store.hashes(None)
        assert store.hashes(None) == first == repro_store.corpus_hashes()
        assert len(reads) == 1

    def test_same_size_edit_with_mtime_restored(self, queue, store, corpus):
        _backdate(corpus)
        before, created = submit_request(queue, store, "demo")
        assert created
        path = os.path.join(corpus, "mount.c")
        _edit_in_place(path)  # only the ctime tells
        hashes = store.hashes(None)
        assert hashes["mount.c"] == _sha(path)
        after, created = submit_request(queue, store, "demo")
        assert created and after["run_id"] != before["run_id"]

    def test_same_size_edit_inside_the_racy_window(
            self, queue, store, corpus, reads):
        _backdate(corpus, seconds=0.0)
        before, _created = submit_request(queue, store, "demo")
        store.hashes(None)
        assert len(reads) == 2  # units this fresh are never trusted
        path = os.path.join(corpus, "mount.c")
        _edit_in_place(path)
        assert store.hashes(None)["mount.c"] == _sha(path)
        after, created = submit_request(queue, store, "demo")
        assert created and after["run_id"] != before["run_id"]

    def test_unit_added_and_unit_removed(self, queue, store, corpus):
        _backdate(corpus)
        base, _created = submit_request(queue, store, "demo")
        extra = os.path.join(corpus, "zz_extra.c")
        with open(extra, "w", encoding="utf-8") as handle:
            handle.write("static int zz_unused;\n")
        _backdate(corpus)
        assert "zz_extra.c" in store.hashes(None)
        added, created = submit_request(queue, store, "demo")
        assert created and added["run_id"] != base["run_id"]
        os.remove(os.path.join(corpus, "xfs_growfs.c"))
        assert "xfs_growfs.c" not in store.hashes(None)
        removed, created = submit_request(queue, store, "demo")
        assert created
        assert removed["run_id"] not in (base["run_id"], added["run_id"])

    def test_overlay_snapshot(self, queue, store, corpus, reads):
        corpus_id = store.add({"mount.c": "int main(void) { return 0; }\n"})
        snapshot = store.path(corpus_id)
        _backdate(snapshot)
        before, _created = submit_request(queue, store, "demo",
                                          corpus_id=corpus_id)
        store.hashes(corpus_id)
        assert reads == [snapshot]
        path = os.path.join(snapshot, "mount.c")
        _edit_in_place(path)
        assert store.hashes(corpus_id)["mount.c"] == _sha(path)
        after, created = submit_request(queue, store, "demo",
                                        corpus_id=corpus_id)
        assert created and after["run_id"] != before["run_id"]

    def test_memo_keeps_a_bounded_number_of_snapshots(
            self, store, corpus, reads, monkeypatch):
        import repro.serve.db as db

        monkeypatch.setattr(db, "MAX_HASHED_CORPORA", 2)
        snapshots = [store.add({"mount.c": f"// v{n}\n"}) for n in range(3)]
        for corpus_id in snapshots:
            _backdate(store.path(corpus_id))
            store.hashes(corpus_id)
        assert list(store._hashes) == [store.path(c) for c in snapshots[1:]]
        store.hashes(snapshots[2])
        assert len(reads) == 3
        assert store.hashes(snapshots[0]) == \
            repro_store.corpus_hashes(store.path(snapshots[0]))
        assert len(reads) == 4  # the evicted snapshot is hashed again


# ---------------------------------------------------------------------------
# request validation
# ---------------------------------------------------------------------------


class TestValidateRequest:
    def test_unknown_tool(self):
        with pytest.raises(RequestError, match="unknown tool"):
            validate_request("frobnicate", {})

    def test_unknown_param(self):
        with pytest.raises(RequestError, match="does not accept"):
            validate_request("extract", {"threads": 4})

    def test_ill_typed_param(self):
        with pytest.raises(RequestError, match="must be int"):
            validate_request("conbugck", {"jobs": "four"})

    def test_bool_is_not_an_int(self):
        with pytest.raises(RequestError, match="must be an integer"):
            validate_request("conbugck", {"jobs": True})

    @pytest.mark.parametrize("tool", ["extract", "conhandleck",
                                      "conbugck"])
    def test_retired_transport_param_is_rejected(self, tool):
        with pytest.raises(RequestError, match="does not accept"):
            validate_request(tool, {"transport": "shm"})

    def test_extract_no_longer_takes_a_backend(self):
        with pytest.raises(RequestError, match="does not accept"):
            validate_request("extract", {"backend": "process"})

    def test_valid_request_canonicalizes(self):
        assert validate_request("conbugck", {"jobs": 2, "seed": None}) == \
            {"jobs": 2}

    @pytest.mark.parametrize("tool", ["conhandleck", "conbugck"])
    @pytest.mark.parametrize("value", ["thread", "process"])
    def test_campaign_backend_param_is_rejected(self, tool, value):
        with pytest.raises(RequestError, match="does not accept"):
            validate_request(tool, {"sample": "random", "backend": value})

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_extract_jobs_param_is_rejected(self, jobs):
        with pytest.raises(RequestError, match="does not accept"):
            validate_request("extract", {"jobs": jobs})

    @pytest.mark.parametrize("tool", ["conhandleck", "conbugck"])
    @pytest.mark.parametrize("param,value", [
        # The bare ids are the ``jobs`` cases.
        pytest.param("jobs", -5, id="-5"),
        pytest.param("jobs", 0, id="0"),
        pytest.param("budget", -3, id="budget=-3"),
        pytest.param("budget", 0, id="budget=0"),
        pytest.param("shards", 0, id="shards=0"),
        pytest.param("shards", -2, id="shards=-2"),
    ])
    def test_out_of_range_jobs_is_rejected(self, tool, param, value):
        with pytest.raises(RequestError,
                           match=f"param '{param}' must be >= 1"):
            validate_request(tool, {"sample": "random", param: value})

    def test_resolved_engine_rejects_bad_modes(self, queue, store):
        # No engine mode is selectable, so asking for one — known,
        # retired or made up — fails at the door, before any key.
        for mode in ("thread", "process", "quantum"):
            with pytest.raises(RequestError, match="does not accept"):
                submit_request(queue, store, "conbugck",
                               {"sample": "random", "backend": mode})
        assert queue.stats()["runs"] == 0

    def test_runs_record_an_empty_engine(self, queue, store):
        row, _created = submit_request(queue, store, "conbugck",
                                       {"sample": "random", "jobs": 2})
        assert row["engine"] == {}

    def test_retired_solver_param_is_rejected(self):
        with pytest.raises(RequestError, match="does not accept"):
            validate_request("extract", {"solver": "sparse"})


# ---------------------------------------------------------------------------
# the worker
# ---------------------------------------------------------------------------


@pytest.fixture
def service_dir(tmp_path):
    data = tmp_path / "serve"
    data.mkdir()
    return str(data)


def make_worker(service_dir, **kwargs):
    db = os.path.join(service_dir, "service.db")
    kwargs.setdefault("worker_id", "test-worker")
    return Worker(db, service_dir, **kwargs)


class TestWorker:
    def test_result_is_byte_identical_to_the_cli(self, service_dir, capsys):
        worker = make_worker(service_dir)
        row, created = submit_request(worker.queue, worker.store, "demo")
        assert created
        assert worker.run_once() == 1
        run = worker.queue.get(row["run_id"])
        assert run["status"] == DONE

        import repro.cli as cli
        assert cli.main_demo([]) == 0
        direct = capsys.readouterr().out
        assert run["result"]["output"] == direct
        assert run["result"]["exit_code"] == 0

    def test_manifest_carries_the_run_record(self, service_dir):
        worker = make_worker(service_dir)
        row, _created = submit_request(worker.queue, worker.store, "demo")
        worker.run_once()
        run = worker.queue.get(row["run_id"])
        manifest = load_manifest(run["manifest_path"])
        record = manifest["run"]
        assert record["id"] == row["run_id"]
        assert record["request_key"] == row["run_id"]
        assert record["worker"] == "test-worker"
        assert record["attempt"] == 1
        # v4 timeline: queued <= claimed <= started <= finished, with
        # the queue latency derived from the first two.
        assert record["queued"] <= record["claimed"]
        assert record["claimed"] <= record["started"] + 1e-6
        assert record["started"] < record["finished"]
        assert record["queue_latency"] == pytest.approx(
            record["claimed"] - record["queued"], abs=1e-3)
        # v4 trace context: derived from the request key, so it is
        # reproducible from the row alone.
        from repro.obs import tracer as obs_tracer
        assert record["traceparent"] == obs_tracer.make_traceparent(
            row["run_id"], "attempt-1")
        assert run["result"]["manifest"] == \
            os.path.relpath(run["manifest_path"], service_dir)

    def test_service_and_cli_manifests_diff_equivalent(self, service_dir,
                                                       tmp_path, capsys):
        worker = make_worker(service_dir)
        row, _created = submit_request(worker.queue, worker.store, "demo")
        worker.run_once()
        service_manifest = load_manifest(
            worker.queue.get(row["run_id"])["manifest_path"])

        import repro.cli as cli
        direct_path = str(tmp_path / "direct.json")
        assert cli.main_demo(["--manifest", direct_path]) == 0
        capsys.readouterr()
        direct_manifest = load_manifest(direct_path)

        diff = diff_manifests(direct_manifest, service_manifest)
        assert manifests_equivalent(diff), diff
        assert any(line.startswith("~run.id:") for line in diff)

    def test_failure_marks_the_run_failed(self, service_dir, monkeypatch):
        import repro.cli as cli

        def explode(argv):
            raise RuntimeError("synthetic tool crash")

        monkeypatch.setattr(cli, "main_demo", explode)
        worker = make_worker(service_dir)
        row, _created = submit_request(worker.queue, worker.store, "demo")
        assert worker.run_once() == 1
        run = worker.queue.get(row["run_id"])
        assert run["status"] == FAILED
        assert "synthetic tool crash" in run["error"]
        assert worker.jobs_failed == 1

    def test_waves_key_process_jobs_by_width(self, service_dir):
        worker = make_worker(service_dir)
        keys = [worker._wave_key({"params": params}) for params in
                ({}, {"jobs": 1}, {"jobs": 2}, {"jobs": 2, "seed": 7},
                 {"jobs": 4})]
        assert keys == [("inproc",), ("inproc",), ("process", 2),
                        ("process", 2), ("process", 4)]

    def test_batch_runs_compatible_jobs_in_one_wave(self, service_dir):
        worker = make_worker(service_dir, batch_limit=4)
        ids = []
        for params in ({}, {"verbose": True}):
            row, _created = submit_request(worker.queue, worker.store,
                                           "demo" if not params else
                                           "conhandleck", params or None)
            ids.append(row["run_id"])
        # demo and conhandleck share the default engine and corpus, so
        # one claim wave takes both.
        assert worker.run_once() == 2
        assert worker.batches == 1
        for run_id in ids:
            assert worker.queue.get(run_id)["status"] == DONE

    def test_corpus_snapshot_changes_the_key_and_env(self, service_dir):
        worker = make_worker(service_dir)
        row_default, _ = submit_request(worker.queue, worker.store,
                                        "condocck")
        patched = worker.store.hashes(None)
        corpus_id = worker.store.add(
            {"zz_extra.c": "static int zz_unused;\n"})
        row_overlay, _ = submit_request(worker.queue, worker.store,
                                        "condocck", corpus_id=corpus_id)
        assert row_default["run_id"] != row_overlay["run_id"]
        assert worker.store.hashes(corpus_id) != patched


# ---------------------------------------------------------------------------
# the HTTP API
# ---------------------------------------------------------------------------


@pytest.fixture
def service(service_dir):
    from repro.serve.api import start_in_thread

    db = os.path.join(service_dir, "service.db")
    service, _thread = start_in_thread(db, service_dir)
    yield service
    service.shutdown()
    service.server_close()


@pytest.fixture
def client(service):
    from repro.serve.client import ServiceClient

    return ServiceClient(service.url)


class TestServiceAPI:
    def test_health_and_stats(self, client):
        assert client.health()["ok"] is True
        stats = client.stats()
        assert stats["runs"] == 0 and stats["dedup_ratio"] == 0.0

    def test_submit_then_duplicate(self, client):
        first = client.submit("demo")
        assert first["deduplicated"] is False
        assert first["run"]["status"] == QUEUED
        again = client.submit("demo")
        assert again["deduplicated"] is True
        assert again["run"]["run_id"] == first["run"]["run_id"]
        assert again["run"]["submits"] == 2

    def test_submit_rejects_bad_requests(self, client):
        from repro.serve.client import ServiceError

        for payload in (("frobnicate", None), ("extract", {"jobs": "x"}),
                        ("extract", {"transport": "shm"}),
                        ("extract", {"solver": "sparse"}),
                        ("extract", {"jobs": 2}),
                        ("conbugck", {"sample": "random",
                                      "transport": "pickle"}),
                        ("conbugck", {"sample": "random",
                                      "backend": "process"}),
                        ("conhandleck", {"sample": "random",
                                         "backend": "thread"}),
                        ("conbugck", {"sample": "random", "jobs": -5}),
                        ("conhandleck", {"sample": "random", "jobs": 0})):
            with pytest.raises(ServiceError) as err:
                client.submit(*payload)
            assert err.value.status == 400

    def test_unknown_run_is_404(self, client):
        from repro.serve.client import ServiceError

        with pytest.raises(ServiceError) as err:
            client.run("0" * 64)
        assert err.value.status == 404

    def test_result_before_done_is_409(self, client):
        from repro.serve.client import ServiceError

        run_id = client.submit("demo")["run"]["run_id"]
        with pytest.raises(ServiceError) as err:
            client.result_bytes(run_id)
        assert err.value.status == 409

    def test_end_to_end_with_a_worker(self, service_dir, service, client,
                                      capsys):
        stop = threading.Event()
        worker = make_worker(service_dir)
        thread = threading.Thread(target=worker.run_forever, args=(stop,),
                                  daemon=True)
        thread.start()
        try:
            run_id = client.submit("demo")["run"]["run_id"]
            run = client.wait_done(run_id, timeout=60)
            assert run["status"] == DONE
            assert "output" not in run["result"]  # stripped from JSON

            import repro.cli as cli
            assert cli.main_demo([]) == 0
            direct = capsys.readouterr().out
            assert client.result_bytes(run_id).decode("utf-8") == direct

            manifest = client.manifest(run_id)
            assert manifest["run"]["id"] == run_id
            listed = client.runs(status=DONE)
            assert [r["run_id"] for r in listed] == [run_id]
        finally:
            stop.set()
            thread.join(timeout=10)

    def test_corpus_upload_round_trip(self, client):
        uploaded = client.upload_corpus(
            {"zz_probe.c": "static int zz_probe;\n"})
        base = client.submit("condocck")["run"]["run_id"]
        overlay = client.submit("condocck",
                                corpus=uploaded)["run"]["run_id"]
        assert base != overlay
        # Same overlay again: same snapshot, dedup against the first.
        again = client.upload_corpus(
            {"zz_probe.c": "static int zz_probe;\n"})
        assert again == uploaded
        assert client.submit("condocck", corpus=again)["deduplicated"]

    def test_concurrent_identical_submits_share_one_run(self, client):
        results = []

        def submit():
            results.append(client.submit("extract", {"list": True}))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ids = {r["run"]["run_id"] for r in results}
        assert len(ids) == 1
        assert sum(r["deduplicated"] for r in results) == 7
        assert client.stats()["runs"] == 1
        assert client.stats()["submits"] == 8


# ---------------------------------------------------------------------------
# signal cleanup: SIGTERM/SIGINT stop the campaign pool's children
# ---------------------------------------------------------------------------


def _live_children(pid):
    """Pids of ``pid``'s children that are still running (not zombies)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            children.append(int(entry))
    return children


def _still_running(pids):
    alive = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z":
            alive.append(pid)
    return alive


class TestSignalCleanup:
    def test_install_is_idempotent(self):
        script = ("from repro.perf import procpool\n"
                  "assert procpool.install_signal_cleanup() is True\n"
                  "assert procpool.install_signal_cleanup() is False\n")
        env = dict(os.environ, PYTHONPATH=os.path.join(
            os.path.dirname(__file__), os.pardir, "src"))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_signal_stops_pool_children(self, tmp_path, signum):
        data_dir = str(tmp_path / "serve")
        os.makedirs(data_dir)
        queue = RunQueue(os.path.join(data_dir, "service.db"))
        row, _ = submit_request(
            queue, CorpusStore(data_dir), "conbugck",
            {"sample": "random", "budget": 200, "shards": 4, "jobs": 2})
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"),
                   REPRO_CACHE_DIR=str(tmp_path / "cache"))
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from repro.cli import main_worker; "
             "sys.exit(main_worker(sys.argv[1:]))",
             "--data-dir", data_dir],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
            text=True)
        children = []
        try:
            deadline = time.monotonic() + 120
            while queue.get(row["run_id"])["status"] not in (DONE, FAILED):
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline, "campaign never finished"
                time.sleep(0.05)
            assert queue.get(row["run_id"])["status"] == DONE
            # The campaign ran on the pool, whose workers stay warm.
            children = _live_children(proc.pid)
            assert children
            proc.send_signal(signum)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 5
            while _still_running(children) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _still_running(children) == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in _still_running(children):  # never leak on failure
                os.kill(pid, signal.SIGKILL)
        if signum == signal.SIGTERM:
            assert proc.returncode == -signal.SIGTERM  # re-delivered
        else:  # the KeyboardInterrupt unwinds into repro-worker's clean exit
            assert proc.returncode == 0
