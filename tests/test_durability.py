"""Durability of the race-checking service: journal, recovery, dedup.

The crash-safety contract of ``repro serve`` (PR 10):

* the write-ahead submission journal survives ``kill -9`` — every
  acknowledged submission is journaled before the client sees its 202,
  and a torn final record salvages cleanly at *every* byte boundary;
* restart recovery re-enqueues unfinished work, restores finished
  verdicts, and turns missing traces into explicit ``lost_trace``
  failures — never silence, never phantoms;
* the content-hashed verdict cache serves duplicate uploads without
  touching the worker pool, refunding the quota token;
* the worker pool survives a respawn storm by degrading instead of
  thrashing, and its workers exit when the pool's process is killed;
* the whole loop closes end to end: SIGKILL a live daemon mid-burst,
  restart it on the same spool, and every acknowledged submission
  reaches the exact verdict of an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exec import PersistentPool
from repro.exec.job import Job
from repro.experiments.traces import record_trace
from repro.obs import MetricsRegistry
from repro.runtime.trace import read_frames, write_frame
from repro.service import (
    QueueFull,
    RaceCheckService,
    ServeDaemon,
    ServiceDraining,
    SubmissionJournal,
    SubmissionStore,
)
from repro.service.jobs import analyze_submission
from repro.workloads.suite import get_benchmark


# -- fixtures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def racy_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "racy.trace"
    trace = record_trace(get_benchmark("dedup"), scale="test", seed=1,
                         racy=True)
    trace.save(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def clean_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "clean.trace"
    trace = record_trace(get_benchmark("dedup"), scale="test", seed=1,
                         racy=False)
    trace.save(path)
    return path.read_bytes()


PROC = Path("/proc")
needs_proc = pytest.mark.skipif(
    not (PROC / "self" / "stat").exists(), reason="needs Linux /proc"
)


def _processes(match) -> list:
    """Pids of running processes for which ``match(pid, ppid, cmdline)``
    holds; zombies have exited and never match."""
    pids = []
    for entry in PROC.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        pid = int(entry.name)
        if stat[0] != "Z" and match(pid, int(stat[1]), cmdline):
            pids.append(pid)
    return pids


def _wait_until_gone(match, timeout=5.0) -> list:
    """Poll until no process satisfies ``match``; returns the survivors."""
    deadline = time.monotonic() + timeout
    while _processes(match) and time.monotonic() < deadline:
        time.sleep(0.05)
    return _processes(match)


def _counter(registry, name):
    try:
        return registry.value(name)
    except KeyError:
        return 0


def _service(spool, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("inline_pool", True)
    kwargs.setdefault("registry", MetricsRegistry())
    return RaceCheckService(spool=str(spool), **kwargs)


# -- generic CRC frame streams ----------------------------------------------


class TestFrames:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "frames.bin"
        payloads = [b"alpha", b"", b"x" * 300, json.dumps({"k": 1}).encode()]
        with open(path, "wb") as fh:
            for payload in payloads:
                write_frame(fh, payload)
        out, good = read_frames(path.read_bytes())
        assert out == payloads
        assert good == path.stat().st_size

    def test_strict_raises_on_torn_tail(self, tmp_path):
        path = tmp_path / "frames.bin"
        with open(path, "wb") as fh:
            write_frame(fh, b"whole")
            write_frame(fh, b"torn-away")
        data = path.read_bytes()[:-3]
        with pytest.raises(ValueError, match="truncated|corrupt"):
            read_frames(data)

    def test_salvage_stops_at_damage(self, tmp_path):
        path = tmp_path / "frames.bin"
        with open(path, "wb") as fh:
            write_frame(fh, b"keep-me")
            write_frame(fh, b"bit-rot")
        data = bytearray(path.read_bytes())
        data[-2] ^= 0xFF  # corrupt the second payload -> CRC mismatch
        out, good = read_frames(bytes(data), salvage=True)
        assert out == [b"keep-me"]
        assert good == 8 + len(b"keep-me")


# -- the submission journal -------------------------------------------------


def _journal_records(n):
    records = [
        {"op": "accepted", "id": f"s{i:06d}", "tenant": "t",
         "request_id": f"r{i}", "size": 100 + i, "events": 10 * i,
         "sha256": "", "trace": f"s{i:06d}.trace"}
        for i in range(1, n + 1)
    ]
    records.append({"op": "running", "id": "s000001"})
    return records


class TestJournal:
    def test_append_replay_round_trip(self, tmp_path):
        path = tmp_path / "j.clnj"
        journal = SubmissionJournal(path)
        records = _journal_records(3)
        for record in records:
            journal.append(record)
        journal.close()
        assert SubmissionJournal(path).replay() == records
        assert journal.salvaged_bytes == 0

    def test_torn_tail_salvages_at_every_byte_boundary(self, tmp_path):
        """Truncate the journal at every byte of the final record:
        recovery never raises and never resurrects a phantom."""
        path = tmp_path / "j.clnj"
        journal = SubmissionJournal(path)
        records = _journal_records(2)  # 3 records: 2 accepted + 1 running
        for record in records:
            journal.append(record)
        journal.close()
        data = path.read_bytes()
        final = json.dumps(
            records[-1], sort_keys=True, separators=(",", ":")
        ).encode()
        final_start = len(data) - len(final) - 8
        for cut in range(final_start, len(data) + 1):
            torn = tmp_path / f"torn{cut}.clnj"
            torn.write_bytes(data[:cut])
            replayed = SubmissionJournal(torn).replay()
            expected = records if cut == len(data) else records[:-1]
            assert replayed == expected, f"cut at byte {cut}"
            # truncate=True must converge the file to the clean prefix
            assert torn.stat().st_size == (
                len(data) if cut == len(data) else final_start
            )

    def test_truncated_magic_is_an_empty_journal(self, tmp_path):
        path = tmp_path / "j.clnj"
        journal = SubmissionJournal(path)
        journal.append({"op": "accepted", "id": "s000001"})
        journal.close()
        for keep in range(0, 8):  # JOURNAL_MAGIC is 8 bytes
            torn = tmp_path / f"magic{keep}.clnj"
            torn.write_bytes(path.read_bytes()[:keep])
            assert SubmissionJournal(torn).replay() == []

    def test_append_after_salvage(self, tmp_path):
        path = tmp_path / "j.clnj"
        journal = SubmissionJournal(path)
        journal.append({"op": "accepted", "id": "s000001"})
        journal.append({"op": "accepted", "id": "s000002"})
        journal.close()
        path.write_bytes(path.read_bytes()[:-5])  # tear the tail
        journal = SubmissionJournal(path)
        assert journal.replay() == [{"op": "accepted", "id": "s000001"}]
        journal.append({"op": "running", "id": "s000001"})
        journal.close()
        assert SubmissionJournal(path).replay() == [
            {"op": "accepted", "id": "s000001"},
            {"op": "running", "id": "s000001"},
        ]

    def test_rewrite_compacts(self, tmp_path):
        path = tmp_path / "j.clnj"
        journal = SubmissionJournal(path)
        for record in _journal_records(5):
            journal.append(record)
        journal.append({"op": "done", "id": "s000002", "attempts": 1,
                        "latency_s": 0.1, "result": {"verdict": "clean"}})
        assert journal.dead_records == 1
        live = [{"op": "accepted", "id": "s000001"}]
        journal.rewrite(live)
        assert journal.dead_records == 0
        journal.close()
        assert SubmissionJournal(path).replay() == live


# -- store-level recovery ---------------------------------------------------


class TestStoreRecovery:
    def _store(self, spool):
        return SubmissionStore(str(spool), journal=True)

    def test_resumes_unfinished_with_intact_trace(self, tmp_path, racy_bytes):
        store = self._store(tmp_path / "spool")
        submission = store.create("t", "r1", racy_bytes, events=10)
        store.commit(submission.id)
        store.close()

        fresh = self._store(tmp_path / "spool")
        report = fresh.recover()
        assert report["resumed"] == [submission.id]
        assert report["lost"] == [] and report["restored"] == []
        resumed = fresh.get(submission.id)
        assert resumed.state == "queued" and resumed.recovered

    def test_restores_terminal_verdicts(self, tmp_path, racy_bytes):
        store = self._store(tmp_path / "spool")
        submission = store.create("t", "r1", racy_bytes, events=10)
        store.commit(submission.id)
        store.mark_running(submission.id)
        store.finish(submission.id, result={"verdict": "racy"}, attempts=2)
        store.close()

        fresh = self._store(tmp_path / "spool")
        report = fresh.recover()
        assert report["restored"] == [submission.id]
        restored = fresh.get(submission.id)
        assert restored.state == "done"
        assert restored.result == {"verdict": "racy"}
        assert restored.attempts == 2

    def test_missing_trace_fails_loudly(self, tmp_path, racy_bytes):
        store = self._store(tmp_path / "spool")
        submission = store.create("t", "r1", racy_bytes, events=10)
        store.commit(submission.id)
        store.close()
        os.unlink(submission.trace_path)

        fresh = self._store(tmp_path / "spool")
        report = fresh.recover()
        assert report["lost"] == [submission.id]
        lost = fresh.get(submission.id)
        assert lost.state == "failed"
        assert "lost_trace" in lost.error

    def test_corrupt_trace_fails_loudly(self, tmp_path, racy_bytes):
        store = self._store(tmp_path / "spool")
        submission = store.create("t", "r1", racy_bytes, events=10)
        store.commit(submission.id)
        store.close()
        damaged = bytearray(racy_bytes)
        damaged[len(damaged) // 2] ^= 0xFF
        with open(submission.trace_path, "wb") as fh:
            fh.write(bytes(damaged))

        fresh = self._store(tmp_path / "spool")
        report = fresh.recover()
        assert report["lost"] == [submission.id]

    def test_orphan_spools_reaped(self, tmp_path, racy_bytes):
        spool = tmp_path / "spool"
        store = self._store(spool)
        store.create("t", "r1", racy_bytes, events=10)
        # committed to spool but never journaled: the client never got
        # a 202, so recovery owes it nothing
        store.close()

        fresh = self._store(spool)
        report = fresh.recover()
        assert report["journaled"] == 0
        assert report["orphan_spools"] == 1
        assert not list(spool.glob("*.trace"))

    def test_phantom_records_never_fabricate_submissions(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        journal = SubmissionJournal(spool / "journal.clnj")
        # lifecycle records for an id that was never accepted (salvage
        # aftermath): recovery must ignore them, not invent a submission
        journal.append({"op": "running", "id": "s000009"})
        journal.append({"op": "done", "id": "s000009", "attempts": 1,
                        "latency_s": 0.1, "result": {"verdict": "clean"}})
        journal.close()

        store = self._store(spool)
        report = store.recover()
        assert report["journaled"] == 0
        assert store.get("s000009") is None

    def test_dry_run_touches_nothing(self, tmp_path, racy_bytes):
        spool = tmp_path / "spool"
        store = self._store(spool)
        submission = store.create("t", "r1", racy_bytes, events=10)
        store.commit(submission.id)
        store.close()
        os.unlink(submission.trace_path)
        journal_bytes = (spool / "journal.clnj").read_bytes()

        fresh = self._store(spool)
        report = fresh.recover(dry_run=True)
        assert report["lost"] == [submission.id]
        assert (spool / "journal.clnj").read_bytes() == journal_bytes

    def test_ids_continue_past_recovered(self, tmp_path, racy_bytes):
        spool = tmp_path / "spool"
        store = self._store(spool)
        s1 = store.create("t", "r1", racy_bytes, events=10)
        store.commit(s1.id)
        store.close()

        fresh = self._store(spool)
        fresh.recover()
        s2 = fresh.create("t", "r2", racy_bytes, events=10)
        assert s2.id > s1.id


# -- the verdict dedup cache ------------------------------------------------


class TestVerdictCache:
    def test_duplicate_upload_serves_from_cache(self, tmp_path, racy_bytes):
        service = _service(tmp_path / "spool")
        service.start()
        try:
            first = service.submit(racy_bytes, tenant="a")
            assert service.drain(timeout=30)
            second = service.submit(racy_bytes, tenant="a")
            assert second["cached"] is True

            r1 = service.result(first["id"])
            r2 = service.result(second["id"])
            assert r2["state"] == "done"
            assert r2["verdict"] == r1["verdict"] == "racy"
            assert r2["attempts"] == 0
            # the full report is byte-identical, not merely same verdict
            assert (service.report(second["id"])["report"]
                    == service.report(first["id"])["report"])
            # the hit never touched the worker pool
            assert service.pool.status_snapshot()["submitted"] == 1
            registry = service.registry
            assert _counter(registry, "cache.hit") == 1
            assert _counter(registry, "cache.miss") == 1
            assert _counter(registry, 'cache.hit{tenant="a"}') == 1
        finally:
            service.stop()

    def test_hit_skips_crc_walk_with_equal_payload(
        self, tmp_path, racy_bytes, monkeypatch
    ):
        import repro.service.service as service_mod

        walks = []
        verify = service_mod.verify_trace_bytes

        def counting_verify(data, name="<upload>"):
            walks.append(name)
            return verify(data, name=name)

        monkeypatch.setattr(service_mod, "verify_trace_bytes", counting_verify)
        service = _service(tmp_path / "spool")
        service.start()
        try:
            first = service.submit(racy_bytes)
            assert service.drain(timeout=30)
            assert len(walks) == 1  # the miss is verified before persisting
            second = service.submit(racy_bytes)
            assert len(walks) == 1  # the hit reuses the verified bytes
            assert second["cached"] is True
            # Field for field the 202 a walk would have produced.
            assert second["events"] == first["events"] == verify(racy_bytes)
            assert sorted(second) == sorted([*first, "cached"])
            assert second["state"] == service.result(second["id"])["state"]
        finally:
            service.stop()

    def test_cache_hits_refund_quota(self, tmp_path, racy_bytes):
        service = _service(tmp_path / "spool", quota_tokens=2)
        service.start()
        try:
            service.submit(racy_bytes, tenant="a")
            assert service.drain(timeout=30)
            # tokens: 2 -> 1.  Each hit consumes then refunds, so any
            # number of duplicates fits in the remaining budget.
            for _ in range(4):
                payload = service.submit(racy_bytes, tenant="a")
                assert payload["cached"] is True
        finally:
            service.stop()

    def test_no_dedup_disables_cache(self, tmp_path, racy_bytes):
        service = _service(tmp_path / "spool", dedup=False)
        service.start()
        try:
            service.submit(racy_bytes)
            assert service.drain(timeout=30)
            second = service.submit(racy_bytes)
            assert "cached" not in second
            assert service.drain(timeout=30)
            assert service.pool.status_snapshot()["submitted"] == 2
            assert _counter(service.registry, "cache.hit") == 0
        finally:
            service.stop()

    def test_different_analysis_params_miss(self, tmp_path, racy_bytes):
        spool = tmp_path / "spool"
        batch = _service(spool, mode="batch")
        batch.start()
        try:
            batch.submit(racy_bytes)
            assert batch.drain(timeout=30)
        finally:
            batch.stop()
        # same bytes, different analysis mode: the cache key includes
        # the analysis parameters, so this must be a miss
        scalar = _service(spool, mode="scalar")
        scalar.start()
        try:
            payload = scalar.submit(racy_bytes)
            assert "cached" not in payload
            assert scalar.drain(timeout=30)
        finally:
            scalar.stop()


# -- spool hygiene ----------------------------------------------------------


class TestSpoolHygiene:
    def test_queue_full_discard_reaps_spool_file(self, tmp_path, racy_bytes):
        spool = tmp_path / "spool"
        service = _service(spool, queue_size=1, dedup=False)
        service.start()
        service.pause()
        try:
            accepted = 0
            with pytest.raises(QueueFull):
                for _ in range(10):
                    service.submit(racy_bytes)
                    accepted += 1
            assert accepted >= 1
            # every rejected upload is gone from disk already
            assert len(list(spool.glob("*.trace"))) == accepted
            service.resume()
            assert service.drain(timeout=60)
            # and the accepted ones are reaped after their verdicts
            assert list(spool.glob("*.trace")) == []
        finally:
            service.stop()

    def test_verdict_reaps_spool_file(self, tmp_path, racy_bytes):
        spool = tmp_path / "spool"
        service = _service(spool)
        service.start()
        try:
            service.submit(racy_bytes)
            assert service.drain(timeout=30)
            assert list(spool.glob("*.trace")) == []
        finally:
            service.stop()


# -- draining and preserve-stop ---------------------------------------------


class TestDraining:
    def test_draining_rejects_with_503(self, tmp_path, racy_bytes):
        service = _service(tmp_path / "spool")
        service.start()
        try:
            service.begin_drain()
            with pytest.raises(ServiceDraining):
                service.submit(racy_bytes)
            assert _counter(service.registry, "serve.drain_rejected") == 1
        finally:
            service.stop()

    def test_daemon_maps_draining_to_503_retry_after(self, tmp_path,
                                                     racy_bytes):
        import http.client

        service = _service(tmp_path / "spool")
        with ServeDaemon(service, collect=False) as daemon:
            service.begin_drain()
            conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                              timeout=10)
            try:
                conn.request("POST", "/submit", body=racy_bytes)
                resp = conn.getresponse()
                payload = json.loads(resp.read())
                assert resp.status == 503
                assert payload["error"] == "draining"
                assert int(resp.getheader("Retry-After")) >= 1
            finally:
                conn.close()

    def test_preserve_stop_then_restart_recovers(self, tmp_path, racy_bytes,
                                                 clean_bytes):
        spool = tmp_path / "spool"
        service = _service(spool, dedup=False)
        service.start()
        service.pause()
        racy_sid = service.submit(racy_bytes)["id"]
        clean_sid = service.submit(clean_bytes)["id"]
        service.stop(preserve_queued=True)
        assert service.store.get(racy_sid).state == "queued"

        reborn = _service(spool, dedup=False)
        reborn.start()
        try:
            assert sorted(reborn.recovery["resumed"]) == sorted(
                [racy_sid, clean_sid]
            )
            assert reborn.drain(timeout=60)
            assert reborn.result(racy_sid)["verdict"] == "racy"
            assert reborn.result(clean_sid)["verdict"] == "clean"
            assert reborn.result(racy_sid)["recovered"] is True
            assert _counter(reborn.registry, "serve.recovered") == 2
        finally:
            reborn.stop()

    def test_plain_stop_still_settles_queued(self, tmp_path, racy_bytes):
        # the pre-durability contract is unchanged: a default stop()
        # fails queued work loudly instead of leaving it pending
        service = _service(tmp_path / "spool")
        service.start()
        service.pause()
        sid = service.submit(racy_bytes)["id"]
        service.stop()
        result = service.store.get(sid)
        assert result.state == "failed"
        assert "ServiceStopped" in result.error


# -- respawn-storm guard ----------------------------------------------------


class TestRespawnStorm:
    def test_storm_degrades_instead_of_thrashing(self):
        pool = PersistentPool(workers=1, retries=0, respawn_limit=2,
                              respawn_backoff=0.01,
                              registry=MetricsRegistry())
        pool.start()
        try:
            tickets = [
                pool.submit(Job(
                    fn="repro.faults:chaos_job",
                    config={"benchmark": "lu_ncb", "scale": "test",
                            "inject_fault": {"kind": "worker-crash"}},
                ))
                for _ in range(5)
            ]
            results = [t.wait(timeout=60) for t in tickets]
            assert all(r.status == "failed" for r in results)
            snap = pool.status_snapshot()
            assert snap["respawn_storm"] == 1
            assert snap["degraded"] is True
            # the pool stopped forking: respawns stayed at the limit + 1
            assert snap["respawns"] == 3
            # and it still answers — inline, structurally
            clean = pool.submit(Job(
                fn="repro.faults:chaos_job",
                config={"benchmark": "lu_ncb", "scale": "test"},
            )).wait(timeout=60)
            assert clean.status == "ok"
        finally:
            pool.stop()

    def test_transient_crash_does_not_storm(self, tmp_path):
        scar = tmp_path / "crash.scar"
        pool = PersistentPool(workers=1, retries=1, respawn_limit=8,
                              respawn_backoff=0.01)
        pool.start()
        try:
            result = pool.submit(Job(
                fn="repro.faults:chaos_job",
                config={"benchmark": "lu_ncb", "scale": "test",
                        "inject_fault": {"kind": "worker-crash",
                                         "scar": str(scar)}},
            )).wait(timeout=60)
            assert result.status == "ok"
            snap = pool.status_snapshot()
            assert snap["respawn_storm"] == 0
            assert snap["degraded"] is False
        finally:
            pool.stop()


# -- orphaned workers -------------------------------------------------------


_POOL_OWNER = """
import sys, time
from repro.exec import PersistentPool
PersistentPool(workers=int(sys.argv[1])).start()
print("ready", flush=True)
time.sleep(60)
"""


@needs_proc
class TestOrphanedWorkers:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_workers_exit_when_the_pool_process_is_killed(self, workers):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        owner = subprocess.Popen(
            [sys.executable, "-c", _POOL_OWNER, str(workers)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            assert owner.stdout.readline().strip() == "ready"
            children = set(
                _processes(lambda _pid, ppid, _cmd: ppid == owner.pid)
            )
            assert len(children) == workers
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()
        survivors = _wait_until_gone(lambda pid, _ppid, _cmd: pid in children)
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert survivors == []


# -- the full loop: kill -9 a live daemon -----------------------------------


class TestDaemonKill:
    def test_crash_recovery_determinism(self, tmp_path):
        from repro.faults import run_daemon_kill

        report = run_daemon_kill(tmp_path / "dk", seed=2, submissions=3,
                                 workers=2)
        assert report["accepted"] == 3
        assert report["lost"] == []
        assert report["failed"] == []
        assert report["mismatched"] == []
        assert report["matched"] == 3
        assert report["ok"] is True
        assert (tmp_path / "dk" / "daemon_kill_report.json").exists()
        if (PROC / "self" / "stat").exists():
            # Neither daemon, nor any of their pool workers, outlives it.
            spool = str(tmp_path / "dk" / "spool").encode()
            survivors = _wait_until_gone(lambda _pid, _ppid, cmd: spool in cmd)
            for pid in survivors:
                os.kill(pid, signal.SIGKILL)
            assert survivors == []


# -- service status surfaces durability -------------------------------------


class TestStatus:
    def test_status_reports_durability_and_recovery(self, tmp_path,
                                                    racy_bytes):
        spool = tmp_path / "spool"
        service = _service(spool)
        service.start()
        service.pause()
        service.submit(racy_bytes)
        service.stop(preserve_queued=True)

        reborn = _service(spool)
        reborn.start()
        try:
            status = reborn.status()
            assert status["durability"]["dedup"] is True
            assert status["durability"]["journal"].endswith("journal.clnj")
            assert status["recovery"]["resumed"] == 1
            assert reborn.drain(timeout=60)
        finally:
            reborn.stop()
