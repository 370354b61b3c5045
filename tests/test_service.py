"""Tests for the race-checking service stack (``python -m repro serve``).

Covers the hardened TelemetryServer (client-disconnect swallowing with
``serve.client_aborts`` accounting, idempotent/concurrent stop, the
port-restart contract, request routing), the quota manager, the
persistent worker pool, the RaceCheckService pipeline (CRC rejection,
backpressure, quota exhaustion, chaos crash recovery, verdict parity
with direct ``analyze_trace``), and the full HTTP daemon under
concurrent clients.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.analysis import analyze_trace
from repro.exec import Job, PersistentPool
from repro.exec.job import run_job_traced
from repro.experiments.traces import record_trace
from repro.obs import MetricsRegistry, Tracer
from repro.obs.serve import Request, Response, TelemetryServer
from repro.service import (
    CorruptTrace,
    NotReady,
    QueueFull,
    QuotaExceeded,
    QuotaManager,
    RaceCheckService,
    ServeDaemon,
    UnknownSubmission,
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


def _corrupt(data: bytes) -> bytes:
    """Flip one payload byte (past the magic) so the CRC walk fails."""
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0xFF
    return bytes(flipped)


def _counter(registry, name):
    """Counter value, 0 while the instrument does not exist yet."""
    try:
        return registry.value(name)
    except KeyError:
        return 0


def _wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _request(port, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        raw = resp.read()
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = raw.decode("utf-8", "replace")
        return resp.status, payload, dict(resp.getheaders())
    finally:
        conn.close()


# -- TelemetryServer hardening ----------------------------------------------


class TestTelemetryServer:
    def test_port_survives_restart(self):
        server = TelemetryServer(MetricsRegistry())
        port = server.start()
        assert port > 0 and server.port == port
        server.stop()
        # The bound port stays readable after stop ...
        assert server.port == port
        # ... and an ephemeral-port server rebinds the same port.
        assert server.start() == port
        assert server.port == port
        server.stop()

    def test_stop_idempotent_and_concurrent(self):
        server = TelemetryServer(MetricsRegistry())
        server.start()
        errors = []

        def stopper():
            try:
                server.stop()
            except Exception as exc:  # noqa: BLE001 - the test's assertion
                errors.append(exc)

        threads = [threading.Thread(target=stopper) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        server.stop()  # and once more after the dust settles
        assert errors == []

    def test_stop_before_start_is_noop(self):
        server = TelemetryServer(MetricsRegistry())
        server.stop()
        assert server.port == 0

    def test_routing_exact_prefix_and_404(self):
        server = TelemetryServer(MetricsRegistry())
        seen = {}

        def echo(request: Request) -> Response:
            seen["rest"] = request.rest
            return Response.json({"rest": request.rest})

        server.add_route("GET", "/thing/", echo)
        with server:
            status, payload, _ = _request(server.port, "GET", "/thing/abc")
            assert status == 200 and payload == {"rest": "abc"}
            status, payload, _ = _request(server.port, "GET", "/nope")
            assert status == 404 and payload["error"] == "unknown_endpoint"
            status, _, _ = _request(server.port, "GET", "/metrics")
            assert status == 200

    def test_handler_exception_is_500_not_crash(self):
        registry = MetricsRegistry()
        server = TelemetryServer(registry)
        server.add_route("GET", "/boom", lambda r: 1 / 0)
        with server:
            status, payload, _ = _request(server.port, "GET", "/boom")
            assert status == 500 and payload["error"] == "internal"
            # The thread survived: the server still answers.
            status, _, _ = _request(server.port, "GET", "/metrics")
            assert status == 200
        assert registry.value("serve.errors") == 1

    def test_post_content_length_contract(self):
        server = TelemetryServer(MetricsRegistry(), max_body=64)
        server.add_route("POST", "/in", lambda r: Response.json({"n": len(r.body)}))
        with server:
            # Missing Content-Length -> 411. http.client always sends one,
            # so speak raw sockets.
            with socket.create_connection(("127.0.0.1", server.port)) as sk:
                sk.sendall(b"POST /in HTTP/1.1\r\nHost: x\r\n\r\n")
                assert b"411" in sk.recv(4096).split(b"\r\n", 1)[0]
            status, payload, _ = _request(
                server.port, "POST", "/in", body=b"x" * 100
            )
            assert status == 413 and payload["error"] == "body_too_large"
            status, payload, _ = _request(server.port, "POST", "/in", body=b"hi")
            assert status == 200 and payload == {"n": 2}

    def test_mid_upload_disconnect_counted_not_crashed(self):
        registry = MetricsRegistry()
        server = TelemetryServer(registry)
        server.add_route("POST", "/in", lambda r: Response.json({}))
        with server:
            # Claim 1000 bytes, send 10, vanish.
            sk = socket.create_connection(("127.0.0.1", server.port))
            sk.sendall(
                b"POST /in HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 1000\r\n\r\n" + b"x" * 10
            )
            sk.close()
            assert _wait_for(
                lambda: _counter(registry, "serve.client_aborts") >= 1
            ), "client abort was not counted"
            # The daemon thread survived the abort.
            status, _, _ = _request(server.port, "GET", "/metrics")
            assert status == 200


# -- QuotaManager -----------------------------------------------------------


class TestQuotaManager:
    def test_hard_budget_and_refund(self):
        quota = QuotaManager(tokens=2)
        assert quota.try_acquire("a")
        assert quota.try_acquire("a")
        assert not quota.try_acquire("a")
        # Tenants are independent buckets.
        assert quota.try_acquire("b")
        quota.refund("a")
        assert quota.try_acquire("a")
        snap = quota.snapshot()
        assert snap["a"]["denied"] == 1
        assert snap["a"]["capacity"] == 2.0

    def test_refill(self):
        quota = QuotaManager(tokens=1, refill_per_s=200.0)
        assert quota.try_acquire("t")
        assert not quota.try_acquire("t") or quota.try_acquire("t")
        assert _wait_for(lambda: quota.try_acquire("t"), timeout=2.0)
        assert quota.retry_after_s() == pytest.approx(1 / 200.0)

    def test_unlimited(self):
        quota = QuotaManager(tokens=None)
        assert all(quota.try_acquire("t") for _ in range(100))
        assert quota.snapshot() == {}

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            QuotaManager(tokens=0)


class TestQuotaRefund:
    def test_refund_after_exhaustion_restores_exactly_one_token(self):
        quota = QuotaManager(tokens=3)
        for _ in range(3):
            assert quota.try_acquire("t")
        assert not quota.try_acquire("t")
        quota.refund("t")
        assert quota.try_acquire("t")
        # Only ONE token came back.
        assert not quota.try_acquire("t")

    def test_refund_never_exceeds_capacity(self):
        quota = QuotaManager(tokens=2)
        assert quota.try_acquire("t")  # level 1
        for _ in range(10):
            quota.refund("t")  # clamped at capacity 2
        assert quota.snapshot()["t"]["tokens"] == 2.0
        assert quota.try_acquire("t")
        assert quota.try_acquire("t")
        assert not quota.try_acquire("t")

    def test_refund_unknown_tenant_is_a_noop(self):
        quota = QuotaManager(tokens=2)
        quota.refund("ghost")  # must not create the bucket
        assert "ghost" not in quota.snapshot()
        # Unlimited managers ignore refunds entirely.
        QuotaManager(tokens=None).refund("anyone")

    def test_refund_racing_refill_stays_clamped(self):
        # Refunds and a fast continuous refill race on the same bucket:
        # whatever interleaving happens, the level never exceeds
        # capacity and every acquire/refund pair stays consistent.
        quota = QuotaManager(tokens=4, refill_per_s=500.0)
        assert quota.try_acquire("t")
        stop = threading.Event()
        errors = []

        def churn():
            try:
                while not stop.is_set():
                    if quota.try_acquire("t"):
                        quota.refund("t")
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            assert quota.snapshot()["t"]["tokens"] <= 4.0
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        assert quota.snapshot()["t"]["tokens"] <= 4.0


# -- PersistentPool ---------------------------------------------------------


class TestPersistentPool:
    def test_submit_wait_and_counters(self):
        registry = MetricsRegistry()
        pool = PersistentPool(workers=2, registry=registry)
        pool.start()
        try:
            tickets = [
                pool.submit(Job(fn="tests._runner_jobs:double",
                                config={"x": i}, name=f"d{i}"))
                for i in range(5)
            ]
            results = [t.wait(timeout=30) for t in tickets]
            assert all(r is not None and r.ok for r in results)
            assert [r.value["doubled"] for r in results] == [0, 2, 4, 6, 8]
        finally:
            pool.stop()
        assert registry.value("pool.completed") == 5
        assert pool.status_snapshot()["failed"] == 0

    def test_job_error_is_structured(self):
        pool = PersistentPool(workers=1, retries=0)
        pool.start()
        try:
            result = pool.submit(
                Job(fn="tests._runner_jobs:boom", config={}, name="b")
            ).wait(timeout=30)
            assert result is not None and not result.ok
            assert "RuntimeError" in result.error
            # Pool still healthy after a job failure.
            ok = pool.submit(
                Job(fn="tests._runner_jobs:double", config={"x": 3}, name="d")
            ).wait(timeout=30)
            assert ok.ok and ok.value["doubled"] == 6
        finally:
            pool.stop()

    def test_worker_crash_respawn_and_retry(self, tmp_path):
        registry = MetricsRegistry()
        pool = PersistentPool(workers=1, retries=1, registry=registry)
        pool.start()
        try:
            scar = tmp_path / "crash.scar"
            result = pool.submit(
                Job(
                    fn="tests._runner_jobs:double",
                    config={
                        "x": 7,
                        "inject_fault": {
                            "kind": "worker-crash", "scar": str(scar)
                        },
                    },
                    name="crashy",
                )
            ).wait(timeout=30)
            assert result is not None and result.ok, result and result.error
            assert result.value["doubled"] == 14
            assert result.attempts == 2
        finally:
            pool.stop()
        counts = pool.status_snapshot()
        assert counts["crashes"] >= 1 and counts["respawns"] >= 1

    def test_crash_without_retry_is_structured_failure(self):
        pool = PersistentPool(workers=1, retries=0)
        pool.start()
        try:
            result = pool.submit(
                Job(fn="tests._runner_jobs:hard_exit", config={"code": 13},
                    name="dead")
            ).wait(timeout=30)
            assert result is not None and not result.ok
            assert "WorkerCrash" in result.error
            # The replacement worker picks up new jobs.
            ok = pool.submit(
                Job(fn="tests._runner_jobs:double", config={"x": 1}, name="d")
            ).wait(timeout=30)
            assert ok.ok
        finally:
            pool.stop()

    def test_stop_idempotent(self):
        pool = PersistentPool(workers=1)
        pool.start()
        pool.stop()
        pool.stop()
        with pytest.raises(RuntimeError):
            pool.submit(Job(fn="tests._runner_jobs:double", config={"x": 1},
                            name="late"))


# -- analysis phase spans ---------------------------------------------------


class TestAnalysisSpans:
    @pytest.mark.parametrize("variant", ["clean", "racy"])
    def test_phase_spans_reach_job_telemetry(
        self, tmp_path, variant, clean_bytes, racy_bytes
    ):
        path = tmp_path / f"{variant}.trace"
        path.write_bytes(clean_bytes if variant == "clean" else racy_bytes)
        job = Job(fn="repro.service.jobs:analyze_submission",
                  config={"trace": str(path)})
        value, telemetry = run_job_traced(job)
        spans = telemetry["spans"]

        def named(name):
            return [s for s in spans if s["name"] == name]

        (job_run,) = named("job.run")
        (plan,) = named("analyze.plan")
        (replay,) = named("analyze.replay")
        (hot,) = named("analyze.hot_sites")
        resolves = named("analyze.resolve")
        for top in (plan, replay, hot):
            assert top["parent_id"] == job_run["span_id"]
            assert top["attrs"]["mode"] == "batch"
        assert plan["attrs"]["threads"] == value["threads"]
        assert plan["attrs"]["syncs"] == value["syncs"]
        assert resolves
        assert replay["attrs"]["windows"] == len(resolves)
        assert all(s["parent_id"] == replay["span_id"] for s in resolves)
        assert plan["end"] <= replay["start"] and replay["end"] <= hot["start"]
        # Tracing observes the analysis; it never changes its answer.
        assert value == analyze_submission(str(path))
        assert value["verdict"] == variant


# -- RaceCheckService -------------------------------------------------------


def _service(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    return RaceCheckService(spool=str(tmp_path / "spool"), **kwargs)


class TestRaceCheckService:
    def test_verdicts_match_direct_analyze(
        self, tmp_path, racy_bytes, clean_bytes
    ):
        direct_path = tmp_path / "direct.trace"
        direct_path.write_bytes(racy_bytes)
        direct = analyze_trace(str(direct_path), hot_sites=8)
        with _service(tmp_path, hot_sites=8) as service:
            racy = service.submit(racy_bytes)
            clean = service.submit(clean_bytes)
            assert service.drain(timeout=30)
            assert service.result(racy["id"])["verdict"] == "racy"
            assert service.result(clean["id"])["verdict"] == "clean"
            report = service.report(racy["id"])["report"]
            # The service lane and the CLI lane are the same detector.
            assert report["race"] == direct.race
            assert report["counters"] == direct.counters
            assert report["hot_sites"] == direct.to_payload()["hot_sites"]
            # Fleet totals folded into the shared registry.
            assert service.registry.value("clean.checks") > 0
            assert service.registry.value("serve.verdict.racy") == 1
            assert service.registry.value("serve.verdict.clean") == 1

    def test_corrupt_upload_rejected_before_queueing(
        self, tmp_path, racy_bytes
    ):
        with _service(tmp_path, quota_tokens=5) as service:
            with pytest.raises(CorruptTrace):
                service.submit(_corrupt(racy_bytes))
            assert service.registry.value("serve.corrupt_rejected") == 1
            # The rejected upload neither queued nor burned quota.
            assert service.status()["submissions"]["total"] == 0
            assert service.quota.snapshot()["default"]["tokens"] == 5.0

    def test_queue_full_backpressure(self, tmp_path, clean_bytes):
        with _service(
            tmp_path, workers=1, queue_size=2, retry_after_s=2.0
        ) as service:
            service.pause()
            accepted = []
            with pytest.raises(QueueFull) as exc:
                for _ in range(10):
                    accepted.append(service.submit(clean_bytes))
            assert exc.value.retry_after == 2.0
            # The queue holds 2; the dispatcher may have dequeued one
            # item before pause() parked it, so acceptance is bounded
            # at queue_size + 1 — never the whole burst.
            assert 2 <= len(accepted) <= 3
            assert service.registry.value("serve.queue_rejected") >= 1
            # Rejected submissions leave no trace behind.
            assert service.status()["submissions"]["total"] == len(accepted)
            service.resume()
            assert service.drain(timeout=30)
            for payload in accepted:
                assert service.result(payload["id"])["verdict"] == "clean"

    def test_quota_exhaustion(self, tmp_path, clean_bytes):
        with _service(tmp_path, quota_tokens=2) as service:
            service.submit(clean_bytes, tenant="acme")
            service.submit(clean_bytes, tenant="acme")
            with pytest.raises(QuotaExceeded) as exc:
                service.submit(clean_bytes, tenant="acme")
            assert exc.value.retry_after >= 1.0
            # Another tenant is unaffected.
            service.submit(clean_bytes, tenant="other")
            assert service.drain(timeout=30)
            assert service.registry.value("serve.quota_denied") == 1

    def test_unknown_and_not_ready(self, tmp_path, clean_bytes):
        with _service(tmp_path) as service:
            with pytest.raises(UnknownSubmission):
                service.result("s999999")
            service.pause()
            payload = service.submit(clean_bytes)
            with pytest.raises(NotReady):
                service.report(payload["id"])
            service.resume()
            assert service.drain(timeout=30)
            assert service.report(payload["id"])["verdict"] == "clean"

    def test_chaos_crash_is_retried(self, tmp_path, racy_bytes):
        with _service(
            tmp_path, workers=1, retries=1, crash_every=1
        ) as service:
            payload = service.submit(racy_bytes)
            assert service.drain(timeout=30)
            result = service.result(payload["id"])
            assert result["state"] == "done"
            assert result["verdict"] == "racy"
            assert result["attempts"] == 2
            assert service.registry.value("serve.chaos_armed") == 1

    def test_chaos_crash_without_retries_fails_structurally(
        self, tmp_path, racy_bytes, clean_bytes
    ):
        with _service(
            tmp_path, workers=1, retries=0, crash_every=1
        ) as service:
            # crash_every=1 arms every submission; the scar file makes the
            # fault one-shot *per submission*, so with retries=0 each one
            # fails exactly once.
            doomed = service.submit(racy_bytes)
            assert service.drain(timeout=30)
            result = service.result(doomed["id"])
            assert result["state"] == "failed"
            assert "WorkerCrash" in result["error"]
            assert service.registry.value("serve.failed") == 1

    def test_request_id_roundtrip(self, tmp_path, clean_bytes):
        with _service(tmp_path) as service:
            payload = service.submit(clean_bytes, request_id="req-abc")
            assert payload["request_id"] == "req-abc"
            generated = service.submit(clean_bytes)
            assert generated["request_id"].startswith("r")
            assert service.drain(timeout=30)
            assert service.result(payload["id"])["request_id"] == "req-abc"

    def test_spans_carry_request_ids(self, tmp_path, clean_bytes):
        tracer = Tracer()
        with _service(tmp_path, tracer=tracer) as service:
            service.submit(clean_bytes, request_id="req-1")
            assert service.drain(timeout=30)
        spans = tracer.spans_named("serve.submission")
        assert len(spans) == 1
        assert spans[0].attrs["request_id"] == "req-1"
        assert spans[0].attrs["state"] == "done"

    def test_stop_settles_queued_work(self, tmp_path, clean_bytes):
        service = _service(tmp_path, workers=1).start()
        service.pause()
        payload = service.submit(clean_bytes)
        service.stop()
        result = service.result(payload["id"])
        assert result["state"] == "failed"
        assert "ServiceStopped" in result["error"]


# -- the HTTP daemon --------------------------------------------------------


class TestServeDaemon:
    def test_concurrent_submitters_match_direct_analyze(
        self, tmp_path, racy_bytes, clean_bytes
    ):
        direct_path = tmp_path / "direct.trace"
        direct_path.write_bytes(racy_bytes)
        direct_racy = analyze_trace(str(direct_path)).racy
        assert direct_racy is True
        service = _service(tmp_path, workers=2)
        with ServeDaemon(service) as daemon:
            port = daemon.port
            outcomes = {}
            errors = []

            def submitter(index):
                racy = index % 2 == 0
                body = racy_bytes if racy else clean_bytes
                try:
                    status, payload, _ = _request(
                        port, "POST", "/submit", body=body,
                        headers={"X-Tenant": f"t{index}"},
                    )
                    assert status == 202, payload
                    sid = payload["id"]
                    deadline = time.monotonic() + 30
                    while time.monotonic() < deadline:
                        status, result, _ = _request(
                            port, "GET", f"/result/{sid}"
                        )
                        if result["state"] in ("done", "failed"):
                            outcomes[index] = (racy, result)
                            return
                        time.sleep(0.05)
                    raise AssertionError(f"submission {sid} never finished")
                except Exception as exc:  # noqa: BLE001 - joined below
                    errors.append((index, exc))

            threads = [
                threading.Thread(target=submitter, args=(i,))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            assert len(outcomes) == 4
            for racy, result in outcomes.values():
                assert result["state"] == "done"
                assert result["verdict"] == ("racy" if racy else "clean")
            # /metrics exposes the service and fleet detector counters.
            status, text, _ = _request(port, "GET", "/metrics")
            assert status == 200
            assert "serve_accepted 4" in text
            assert "clean_checks" in text
            status, doc, _ = _request(port, "GET", "/status")
            assert status == 200
            assert doc["submissions"]["done"] == 4
            status, payload, _ = _request(port, "GET", "/healthz")
            assert status == 200 and payload == {"ok": True}

    def test_corrupt_upload_400(self, tmp_path, racy_bytes):
        with ServeDaemon(_service(tmp_path)) as daemon:
            status, payload, _ = _request(
                daemon.port, "POST", "/submit", body=_corrupt(racy_bytes)
            )
            assert status == 400
            assert payload["error"] == "corrupt_trace"

    def test_queue_full_429_with_retry_after(self, tmp_path, clean_bytes):
        service = _service(tmp_path, workers=1, queue_size=1)
        with ServeDaemon(service) as daemon:
            service.pause()
            statuses = []
            for _ in range(6):
                status, payload, headers = _request(
                    daemon.port, "POST", "/submit", body=clean_bytes
                )
                statuses.append(status)
                if status == 429:
                    assert payload["error"] == "queue_full"
                    assert int(headers["Retry-After"]) >= 1
            assert 202 in statuses and 429 in statuses
            service.resume()
            assert service.drain(timeout=30)

    def test_quota_429(self, tmp_path, clean_bytes):
        service = _service(tmp_path, quota_tokens=1)
        with ServeDaemon(service) as daemon:
            status, _, _ = _request(
                daemon.port, "POST", "/submit", body=clean_bytes,
                headers={"X-Tenant": "starved"},
            )
            assert status == 202
            status, payload, headers = _request(
                daemon.port, "POST", "/submit", body=clean_bytes,
                headers={"X-Tenant": "starved"},
            )
            assert status == 429
            assert payload["error"] == "quota_exhausted"
            assert "Retry-After" in headers
            assert service.drain(timeout=30)

    def test_unknown_id_404_and_not_ready_409(self, tmp_path, clean_bytes):
        service = _service(tmp_path)
        with ServeDaemon(service) as daemon:
            status, payload, _ = _request(
                daemon.port, "GET", "/result/s999999"
            )
            assert status == 404
            assert payload["error"] == "unknown_submission"
            service.pause()
            _, accepted, _ = _request(
                daemon.port, "POST", "/submit", body=clean_bytes
            )
            status, payload, _ = _request(
                daemon.port, "GET", f"/report/{accepted['id']}"
            )
            assert status == 409 and payload["error"] == "not_ready"
            service.resume()
            assert service.drain(timeout=30)

    def test_mid_upload_disconnect_leaves_no_submission(
        self, tmp_path, racy_bytes
    ):
        service = _service(tmp_path)
        with ServeDaemon(service) as daemon:
            sk = socket.create_connection(("127.0.0.1", daemon.port))
            sk.sendall(
                b"POST /submit HTTP/1.1\r\nHost: x\r\n"
                + b"Content-Length: %d\r\n\r\n" % (len(racy_bytes) * 2)
                + racy_bytes[:100]
            )
            sk.close()
            assert _wait_for(
                lambda: _counter(service.registry, "serve.client_aborts") >= 1
            )
            assert service.status()["submissions"]["total"] == 0
