"""The race-checking service core: admission, queueing, dispatch.

:class:`RaceCheckService` is the daemon minus HTTP: it takes raw trace
bytes in (:meth:`~RaceCheckService.submit`), pushes verdict payloads
out (:meth:`~RaceCheckService.result` / :meth:`~RaceCheckService.report`),
and in between owns the whole pipeline:

1. **admission** — per-tenant token quota
   (:class:`~repro.service.quota.QuotaManager`), then CRC validation of
   the upload (:func:`~repro.runtime.trace.verify_trace_bytes`) *before*
   anything touches disk: a corrupt trace costs one refused request,
   never a worker (a dedup-cache hit, whose bytes were verified when
   first admitted, skips the walk);
2. **queueing** — accepted submissions spool to disk
   (:class:`~repro.service.store.SubmissionStore`) and enter a bounded
   ``queue.Queue``; a full queue raises :class:`QueueFull` (the daemon's
   429 + ``Retry-After``) and refunds the quota token — backpressure,
   not buffering;
3. **dispatch** — a dispatcher thread feeds the queue to a
   :class:`~repro.exec.runner.PersistentPool` of resident analysis
   workers, at most ``workers`` in flight (a semaphore, so the *queue*
   is what fills up and the 429 semantics stay honest);
4. **completion** — the pool's callback lands the verdict in the store,
   observes the queue-to-verdict latency histogram, ends the
   submission's span and merges the job's ``clean.*`` counters into the
   shared registry.

Every submission carries a request id (client-supplied or generated)
stamped on its span and in every payload.  Faults are first-class: a
worker crashing mid-analysis costs one retry (the pool respawns the
worker); a submission that exhausts its retries lands as a structured
``failed`` result; the daemon itself never goes down with a worker.
``crash_every=N`` arms the chaos hook — every Nth submission's job
carries a one-shot ``worker-crash`` fault spec (scarred, so the retry
runs clean): the recovery path stays exercised in production shape.

**Durability** (on by default) adds two layers on top:

* a write-ahead submission journal
  (:class:`~repro.service.store.SubmissionJournal`) — every accepted
  submission is fsync'd to an append-only CRC-framed log before the
  202 goes out, and :meth:`RaceCheckService.start` replays that log so
  a ``kill -9``'d daemon restarted on the same spool re-enqueues every
  accepted-but-unfinished submission (CLEAN's deterministic verdicts
  make the recovery *checkable*: a recovered submission reaches the
  byte-identical verdict an uninterrupted run would have);
* a content-hashed verdict cache (SHA-256 of the trace bytes → verdict
  payload, stored through the atomic
  :class:`~repro.exec.checkpoint.CheckpointStore`) — duplicate uploads
  are verdict-served at submit time without touching the worker pool,
  counted in ``cache.hit``/``cache.miss`` and with the quota token
  refunded (a hit costs the fleet nothing).

:meth:`RaceCheckService.begin_drain` is the graceful-shutdown valve:
admissions turn into 503 + ``Retry-After`` (:class:`ServiceDraining`),
in-flight analyses settle, and ``stop(preserve_queued=True)`` leaves
whatever did not finish journaled for the next boot instead of failing
it.
"""

from __future__ import annotations

import hashlib
import os
import queue
import threading
import time
from typing import Any, Dict, Optional, Union

from ..exec import CheckpointStore, Job, PersistentPool
from ..runtime.trace import verify_trace_bytes
from .quota import QuotaManager
from .store import SubmissionStore

__all__ = [
    "CorruptTrace",
    "NotReady",
    "QueueFull",
    "QuotaExceeded",
    "RaceCheckService",
    "ServiceDraining",
    "ServiceError",
    "UnknownSubmission",
]

#: serve.latency histogram bounds (seconds): sub-second resolution, the
#: scale a single-trace analysis lives at — the library-wide power-of-two
#: defaults are integer-scaled and would flatten every sample into one
#: bucket.
LATENCY_BOUNDS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


class ServiceError(RuntimeError):
    """Base of all structured service refusals (maps to an HTTP error)."""

    status = 500
    error = "internal"

    def payload(self) -> Dict[str, Any]:
        return {"error": self.error, "detail": str(self)}


class QuotaExceeded(ServiceError):
    status = 429
    error = "quota_exhausted"

    def __init__(self, tenant: str, retry_after: float) -> None:
        super().__init__(f"tenant {tenant!r} is out of submission tokens")
        self.retry_after = retry_after


class QueueFull(ServiceError):
    status = 429
    error = "queue_full"

    def __init__(self, capacity: int, retry_after: float) -> None:
        super().__init__(f"submission queue is full ({capacity} deep)")
        self.retry_after = retry_after


class ServiceDraining(ServiceError):
    """The daemon is shutting down gracefully: no new admissions, but
    in-flight and journaled work is preserved — retry on the next boot."""

    status = 503
    error = "draining"

    def __init__(self, retry_after: float = 5.0) -> None:
        super().__init__("service is draining; retry after restart")
        self.retry_after = retry_after


class CorruptTrace(ServiceError):
    status = 400
    error = "corrupt_trace"


class UnknownSubmission(ServiceError):
    status = 404
    error = "unknown_submission"

    def __init__(self, sid: str) -> None:
        super().__init__(f"no submission {sid!r}")


class NotReady(ServiceError):
    status = 409
    error = "not_ready"

    def __init__(self, sid: str, state: str) -> None:
        super().__init__(f"submission {sid!r} is still {state}")


class RaceCheckService:
    """Everything between an uploaded trace and its verdict."""

    def __init__(
        self,
        spool: str,
        workers: int = 2,
        queue_size: int = 32,
        retries: int = 1,
        mode: str = "batch",
        hot_sites: int = 8,
        quota_tokens: Optional[int] = None,
        quota_refill_per_s: float = 0.0,
        retry_after_s: float = 1.0,
        job_timeout: Optional[float] = None,
        registry: Any = None,
        tracer: Any = None,
        keep_traces: bool = False,
        crash_every: int = 0,
        inline_pool: bool = False,
        journal: Union[None, bool, str] = True,
        journal_fsync: bool = True,
        dedup: bool = True,
        compact_every: int = 256,
    ) -> None:
        if mode not in ("batch", "scalar"):
            raise ValueError(
                f"service analysis mode must be batch or scalar, not {mode!r}"
            )
        from ..obs import MetricsRegistry

        self.registry = registry if registry is not None else MetricsRegistry()
        self.registry.histogram("serve.latency", bounds=LATENCY_BOUNDS)
        self._describe_metrics()
        # Per-(name, tenant) instrument handles: the canonical labeled
        # name is built once per tenant, not once per request.
        self._tenant_counters: Dict[Any, Any] = {}
        self._tenant_latency: Dict[str, Any] = {}
        self.tracer = tracer
        self.mode = mode
        self.hot_sites = hot_sites
        self.queue_size = queue_size
        self.retry_after_s = retry_after_s
        self.crash_every = crash_every
        self.store = SubmissionStore(
            spool,
            keep_traces=keep_traces,
            journal=journal,
            journal_fsync=journal_fsync,
            compact_every=compact_every,
        )
        self.dedup = dedup
        #: Content-addressed verdict cache: SHA-256 of the trace bytes
        #: (plus the analysis parameters, via the synthetic job id) →
        #: the verdict payload, one atomic JSON record each.
        self._verdicts: Optional[CheckpointStore] = (
            CheckpointStore(self.store.spool / "verdicts", fsync=True)
            if dedup
            else None
        )
        self.recovery: Dict[str, Any] = {}
        self.quota = QuotaManager(
            tokens=quota_tokens, refill_per_s=quota_refill_per_s
        )
        self.pool = PersistentPool(
            workers=workers,
            retries=retries,
            timeout=job_timeout,
            registry=self.registry,
            tracer=tracer,
            inline=inline_pool,
        )
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue(
            maxsize=queue_size
        )
        self._slots = threading.Semaphore(max(1, workers))
        self._lock = threading.Lock()
        self._spans: Dict[str, Any] = {}
        self._accepted = 0
        self._started = False
        self._stopping = False
        self._draining = False
        self._preserve = False
        self._paused = threading.Event()
        self._resumed = threading.Event()
        self._resumed.set()
        self._idle = threading.Condition(self._lock)
        self._inflight = 0
        self._start_time = time.monotonic()
        self._dispatcher: Optional[threading.Thread] = None

    def _describe_metrics(self) -> None:
        """``# HELP`` text for the serve metric families."""
        for base, text in (
            ("serve.submissions", "submissions offered (accepted or not)"),
            ("serve.accepted", "submissions admitted to the queue"),
            ("serve.completed", "submissions that reached a verdict"),
            ("serve.failed", "submissions that exhausted their retries"),
            ("serve.quota_denied", "submissions refused by tenant quota"),
            ("serve.queue_rejected", "submissions shed by the full queue"),
            ("serve.corrupt_rejected", "uploads failing the CRC walk"),
            ("serve.latency", "queue-to-verdict seconds"),
            ("serve.queue_depth", "submissions waiting for a worker"),
            ("cache.hit", "duplicate uploads verdict-served from cache"),
            ("cache.miss", "uploads analyzed fresh (not in the cache)"),
            ("serve.recovered", "submissions re-enqueued by crash recovery"),
            ("serve.restored", "terminal verdicts restored from the journal"),
            ("serve.lost_trace", "journaled submissions whose trace was lost"),
            ("serve.drain_rejected", "submissions refused while draining"),
        ):
            self.registry.describe(base, text)

    def _tinc(self, name: str, tenant: str, amount: int = 1) -> None:
        """Bump ``name`` twice: the flat fleet total and the per-tenant
        labeled series (handles cached — the label-set canonicalization
        happens once per (name, tenant), not per request)."""
        key = (name, tenant)
        handles = self._tenant_counters.get(key)
        if handles is None:
            handles = (
                self.registry.counter(name),
                self.registry.counter(name, labels={"tenant": tenant}),
            )
            self._tenant_counters[key] = handles
        handles[0].inc(amount)
        handles[1].inc(amount)

    def _observe_latency(self, tenant: str, latency: float) -> None:
        self.registry.observe("serve.latency", latency)
        histogram = self._tenant_latency.get(tenant)
        if histogram is None:
            histogram = self.registry.histogram(
                "serve.latency", bounds=LATENCY_BOUNDS,
                labels={"tenant": tenant},
            )
            self._tenant_latency[tenant] = histogram
        histogram.observe(latency)

    # -- lifecycle ----------------------------------------------------------

    def start(self, recover: bool = True) -> "RaceCheckService":
        """Start the pool and dispatcher, then replay the journal.

        ``recover=True`` (the default) runs crash recovery against the
        spool: terminal submissions are restored, unfinished ones
        re-enqueued, orphans reaped — see
        :meth:`~repro.service.store.SubmissionStore.recover`.
        """
        with self._lock:
            if self._started:
                return self
            self._started = True
        self.pool.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._dispatcher.start()
        if recover and self.store.journal is not None:
            self.recovery = self.store.recover()
            for name, key in (
                ("serve.restored", "restored"),
                ("serve.lost_trace", "lost"),
            ):
                if self.recovery[key]:
                    self.registry.inc(name, len(self.recovery[key]))
            if self.recovery["salvaged_bytes"]:
                self.registry.inc(
                    "journal.salvaged_bytes", self.recovery["salvaged_bytes"]
                )
            for sid in self.recovery["resumed"]:
                with self._lock:
                    self._inflight += 1
                self.registry.inc("serve.recovered")
                self._queue.put(sid)
        return self

    def begin_drain(self) -> None:
        """Stop admissions (503 + ``Retry-After``) but keep working:
        the first phase of a graceful shutdown."""
        self._draining = True

    def stop(self, timeout: float = 10.0, preserve_queued: bool = False) -> None:
        """Stop accepting, let in-flight analyses finish, tear down.

        ``preserve_queued=False`` (the default) settles whatever never
        ran as ``failed: ServiceStopped`` so no client polls a
        submission that cannot finish.  ``preserve_queued=True`` is the
        graceful path: unfinished submissions keep their ``accepted``
        journal records and the *next* boot re-enqueues them — nothing
        is failed, nothing is lost.
        """
        with self._lock:
            if not self._started or self._stopping:
                self._stopping = True
                return
            self._stopping = True
            self._preserve = preserve_queued
        self._resumed.set()
        try:
            self._queue.put_nowait(None)
        except queue.Full:
            pass
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=timeout)
        self.pool.stop(timeout=timeout)
        self.store.close()

    def __enter__(self) -> "RaceCheckService":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def pause(self) -> None:
        """Hold the dispatcher (queued work stays queued) — the ops/test
        lever that makes queue-full behaviour reproducible."""
        self._paused.set()
        self._resumed.clear()

    def resume(self) -> None:
        self._paused.clear()
        self._resumed.set()

    # -- admission ----------------------------------------------------------

    def submit(
        self,
        data: bytes,
        tenant: str = "default",
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Admit one uploaded trace; returns the ``202`` payload.

        Raises :class:`QuotaExceeded`, :class:`CorruptTrace`,
        :class:`QueueFull` or :class:`ServiceDraining` — each mapping
        to one structured HTTP refusal.  A token is only *kept* when
        the submission actually costs analysis work; refusals
        downstream of the quota — and dedup-cache hits, which cost the
        pool nothing — refund it.
        """
        if self._draining and not self._stopping:
            self._tinc("serve.submissions", tenant)
            self._tinc("serve.drain_rejected", tenant)
            raise ServiceDraining(self.retry_after_s)
        if self._stopping or not self._started:
            raise ServiceError("service is not accepting submissions")
        self._tinc("serve.submissions", tenant)
        if not self.quota.try_acquire(tenant):
            self._tinc("serve.quota_denied", tenant)
            raise QuotaExceeded(tenant, self.quota.retry_after_s())
        sha256 = hashlib.sha256(data).hexdigest()
        cached = self._cached_verdict(sha256)
        # A hit's bytes equal bytes verified before their verdict was
        # cached: it skips the CRC walk and reuses the verdict's event
        # count.  A miss is verified before anything is persisted.
        events = cached.get("events") if cached is not None else None
        if not isinstance(events, int):
            try:
                events = verify_trace_bytes(data, name=f"upload:{tenant}")
            except ValueError as exc:
                self.quota.refund(tenant)
                self._tinc("serve.corrupt_rejected", tenant)
                raise CorruptTrace(str(exc)) from None
        with self._lock:
            self._accepted += 1
            if request_id is None or not request_id.strip():
                request_id = f"r{self._accepted:06d}"
        submission = self.store.create(
            tenant, request_id, data, events, sha256=sha256,
            persist=cached is None,
        )
        if cached is not None:
            # Dedup hit: the verdict is already known — serve it
            # without queueing, refund the token, journal the whole
            # lifecycle so a restart still remembers the submission.
            submission.cached = True
            self.quota.refund(tenant)
            self._tinc("cache.hit", tenant)
            self._tinc("serve.accepted", tenant)
            self.store.commit(submission.id)
            with self._lock:
                self._inflight += 1
            self._settle(
                submission.id, result=cached, attempts=0, fold_counters=False
            )
            return {
                "id": submission.id,
                "request_id": request_id,
                "state": submission.state,
                "events": events,
                "cached": True,
            }
        try:
            self._queue.put_nowait(submission.id)
        except queue.Full:
            self.store.discard(submission.id)
            self.quota.refund(tenant)
            self._tinc("serve.queue_rejected", tenant)
            raise QueueFull(self.queue_size, self.retry_after_s) from None
        self.store.commit(submission.id)
        if self.dedup:
            self._tinc("cache.miss", tenant)
        with self._lock:
            self._inflight += 1
        self._tinc("serve.accepted", tenant)
        self.registry.set_gauge("serve.queue_depth", self._queue.qsize())
        if self.tracer is not None:
            span = self.tracer.start_span(
                "serve.submission",
                id=submission.id,
                tenant=tenant,
                request_id=request_id,
            )
            with self._lock:
                self._spans[submission.id] = span
        return {
            "id": submission.id,
            "request_id": request_id,
            "state": submission.state,
            "events": events,
        }

    # -- the verdict dedup cache --------------------------------------------

    def _cache_job(self, sha256: str) -> Job:
        """The synthetic job keying one trace-content + analysis-params
        combination in the verdict cache.  Never executed — only its
        content-hashed ``job_id`` matters, so a mode or hot-sites
        change can never serve a stale-shaped report."""
        return Job(
            fn="repro.service.jobs:analyze_submission",
            config={
                "sha256": sha256,
                "mode": self.mode,
                "hot_sites": self.hot_sites,
            },
            name=f"verdict:{sha256[:12]}",
            group="serve",
        )

    def _cached_verdict(self, sha256: str) -> Optional[Dict[str, Any]]:
        if self._verdicts is None:
            return None
        record = self._verdicts.load(self._cache_job(sha256))
        if record is None:
            return None
        value = record.get("value")
        return value if isinstance(value, dict) else None

    def _store_verdict(self, sha256: str, result: Dict[str, Any]) -> None:
        if self._verdicts is None or not sha256:
            return
        try:
            self._verdicts.store(self._cache_job(sha256), result)
        except OSError:
            # The cache is an optimization; a full disk must not fail
            # the verdict that was already computed.
            self.registry.inc("cache.store_errors")

    # -- dispatch -----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            self._resumed.wait()
            try:
                sid = self._queue.get(timeout=0.2)
            except queue.Empty:
                if self._stopping:
                    break
                continue
            if sid is None:
                break
            # Re-check the gate after the dequeue: a pause() issued while
            # we were blocked in get() must hold this submission too (it
            # is held here, un-launched, until resume), so "paused" means
            # no new analyses start — deterministically.
            self._resumed.wait()
            self.registry.set_gauge("serve.queue_depth", self._queue.qsize())
            self._slots.acquire()
            if self._stopping:
                self._slots.release()
                self._shutdown_settle(sid)
                continue
            self._launch(sid)
        # Shutdown: whatever is still queued gets a terminal state so no
        # client polls a submission that can never finish — unless the
        # stop is preserving, in which case the journal keeps owing it
        # to the next boot.
        while True:
            try:
                sid = self._queue.get_nowait()
            except queue.Empty:
                return
            if sid is not None:
                self._shutdown_settle(sid)

    def _shutdown_settle(self, sid: str) -> None:
        if self._preserve:
            # Graceful: leave the submission journaled as accepted; the
            # next boot's recovery re-enqueues it.
            with self._lock:
                span = self._spans.pop(sid, None)
                self._inflight -= 1
                self._idle.notify_all()
            if span is not None:
                span.set("state", "journaled")
                self.tracer.end_span(span)
            self.registry.inc("serve.preserved")
            return
        self._settle(sid, error="ServiceStopped: daemon shut down", attempts=0)

    def _launch(self, sid: str) -> None:
        submission = self.store.get(sid)
        if submission is None:
            self._slots.release()
            return
        self.store.mark_running(sid)
        config: Dict[str, Any] = {
            "trace": submission.trace_path,
            "mode": self.mode,
            "hot_sites": self.hot_sites,
        }
        if self.crash_every > 0:
            ordinal = int(sid[1:])
            if ordinal % self.crash_every == 0:
                scars = os.path.join(str(self.store.spool), "scars")
                os.makedirs(scars, exist_ok=True)
                config["inject_fault"] = {
                    "kind": "worker-crash",
                    "scar": os.path.join(scars, f"{sid}.scar"),
                }
                self.registry.inc("serve.chaos_armed")
        job = Job(
            fn="repro.service.jobs:analyze_submission",
            config=config,
            name=sid,
            group="serve",
        )
        self.pool.submit(job, callback=lambda result: self._on_result(
            sid, result
        ))

    def _on_result(self, sid: str, result: Any) -> None:
        self._slots.release()
        if result.ok:
            self._settle(sid, result=result.value, attempts=result.attempts)
        else:
            if self._preserve and "PoolStopped" in (result.error or ""):
                # Preserving stop: the analysis never ran — keep the
                # journaled accepted record for the next boot instead
                # of failing the submission.
                with self._lock:
                    span = self._spans.pop(sid, None)
                    self._inflight -= 1
                    self._idle.notify_all()
                if span is not None:
                    span.set("state", "journaled")
                    self.tracer.end_span(span)
                self.registry.inc("serve.preserved")
                return
            self._settle(sid, error=result.error, attempts=result.attempts)

    def _settle(
        self,
        sid: str,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
        attempts: int = 1,
        fold_counters: bool = True,
    ) -> None:
        if error is None and fold_counters:
            # Store the verdict BEFORE the state flips to terminal: a
            # client that polls /result, sees "done" and instantly
            # re-uploads the same bytes must hit the cache, not race
            # past it into the pool.
            before = self.store.get(sid)
            if before is not None:
                self._store_verdict(before.sha256, result or {})
        submission = self.store.finish(
            sid, result=result, error=error, attempts=attempts
        )
        tenant = submission.tenant
        latency = submission.latency_s()
        if latency is not None:
            self._observe_latency(tenant, latency)
        if error is None:
            self._tinc("serve.completed", tenant)
            verdict = (result or {}).get("verdict", "unknown")
            self._tinc(f"serve.verdict.{verdict}", tenant)
            if fold_counters:
                # Fleet-wide detector totals: every verdict's clean.*
                # counter trail accumulates into the shared registry, so
                # /metrics exposes the same counters a live detector
                # would.  Cache-served verdicts skip this — no detector
                # work actually happened.
                for name, value in (
                    (result or {}).get("counters") or {}
                ).items():
                    self.registry.inc(name, value)
        else:
            self._tinc("serve.failed", tenant)
        with self._lock:
            span = self._spans.pop(sid, None)
            self._inflight -= 1
            self._idle.notify_all()
        if span is not None:
            span.set("state", submission.state)
            span.set("attempts", attempts)
            if error is not None:
                span.set("error", error)
            self.tracer.end_span(span)

    # -- results ------------------------------------------------------------

    def result(self, sid: str) -> Dict[str, Any]:
        """The submission's current state (any lifecycle stage)."""
        payload = self.store.payload(sid)
        if payload is None:
            raise UnknownSubmission(sid)
        return payload

    def report(self, sid: str) -> Dict[str, Any]:
        """The full analysis report; 409 until the verdict is in."""
        submission = self.store.get(sid)
        if submission is None:
            raise UnknownSubmission(sid)
        if not submission.terminal:
            raise NotReady(sid, submission.state)
        return submission.to_payload(full=True)

    def drain(self, timeout: float = 30.0) -> bool:
        """Block until every accepted submission is terminal."""
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def status(self) -> Dict[str, Any]:
        """The ``/status`` document."""
        document = {
            "state": "stopping" if self._stopping else (
                "draining" if self._draining else (
                    "serving" if self._started else "idle"
                )
            ),
            "uptime_s": round(time.monotonic() - self._start_time, 3),
            "queue": {
                "depth": self._queue.qsize(),
                "capacity": self.queue_size,
                "paused": self._paused.is_set(),
            },
            "submissions": self.store.counts(),
            "pool": self.pool.status_snapshot(),
            "quota": self.quota.snapshot(),
            "durability": {
                "journal": (
                    str(self.store.journal.path)
                    if self.store.journal is not None
                    else None
                ),
                "dedup": self.dedup,
            },
        }
        if self.recovery:
            document["recovery"] = {
                "resumed": len(self.recovery.get("resumed", [])),
                "restored": len(self.recovery.get("restored", [])),
                "lost": len(self.recovery.get("lost", [])),
                "orphan_spools": self.recovery.get("orphan_spools", 0),
                "salvaged_bytes": self.recovery.get("salvaged_bytes", 0),
            }
        return document
