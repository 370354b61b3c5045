"""The fault-tolerant parallel job runner.

``JobRunner.run(jobs)`` returns one :class:`JobResult` per job **in
submission order**, no matter in which order workers finish — report
tables must not depend on scheduling noise.  Per job it provides:

* checkpointing — a job whose id is already in the
  :class:`~repro.exec.checkpoint.CheckpointStore` is served from disk
  (``cached=True``) without executing;
* isolation — with ``workers >= 2`` (or a timeout configured) each
  attempt runs in its own ``multiprocessing`` process, so a crashing or
  hanging job cannot take the sweep down;
* per-job timeouts — a worker past its deadline is terminated and the
  attempt counts as a (retryable) failure;
* bounded retry — up to ``retries`` re-attempts with exponential
  backoff (``backoff * 2**(attempt-1)`` seconds, capped at
  ``max_backoff``); optional *deterministic* jitter spreads retry
  storms without breaking reproducibility — the jitter factor is seeded
  from the job id and attempt number, so serial and parallel runs (and
  re-runs) compute identical delays;
* stuck-worker detection — with ``watchdog`` set, worker processes
  heartbeat over their result pipe; a worker silent for longer than the
  watchdog window is terminated and the attempt counts as a (retryable)
  failure, so a wedged child cannot stall the sweep forever;
* graceful degradation — a job that exhausts its retries yields a
  structured ``failed`` result (the sweep continues), and if worker
  processes cannot be started at all (restricted sandboxes) the runner
  falls back to in-process execution instead of dying;
* telemetry — one span per job on the :class:`~repro.obs.Tracer` and
  ``runner.*`` counters in the :class:`~repro.obs.MetricsRegistry`;
* cross-process telemetry — with ``job_telemetry`` on (the default)
  every attempt executes inside a fresh telemetry scope
  (:func:`~repro.exec.job.run_job_traced`) and ships its metrics
  snapshot, span records and optional hot-site profile back alongside
  the value; after the run the runner merges the per-job payloads **in
  submission order** into its own registry/tracer/:attr:`sites`, so a
  ``--jobs 4`` sweep aggregates exactly the totals of the serial one.
  Telemetry also rides in the checkpoint record, so cache-served jobs
  replay the telemetry of their original execution;
* live status — when :attr:`JobRunner.status` is set to a
  :class:`~repro.obs.StatusFile`, progress (totals, currently running
  jobs, ETA) is atomically republished as the sweep advances, and
  :meth:`JobRunner.status_snapshot` serves the same dict to the
  ``/status`` HTTP endpoint.

With ``workers <= 1`` and no timeout, jobs execute in-process (fast,
no pickling constraints beyond the job model itself).
"""

from __future__ import annotations

import multiprocessing
import random
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .checkpoint import CheckpointStore
from .job import Job, run_job, run_job_traced

__all__ = ["JobResult", "JobRunner", "PersistentPool", "PoolTicket"]


@dataclass
class JobResult:
    """Outcome of one job: value or structured failure, never an exception.

    ``telemetry`` is the job's cross-process telemetry payload (metrics
    snapshot + instrument kinds + span records + optional hot-site
    profile) when the runner collects it — see
    :func:`~repro.exec.job.run_job_traced` — else ``None``.
    """

    job: Job
    status: str  # "ok" | "failed"
    value: Any = None
    error: Optional[str] = None
    attempts: int = 0
    duration_s: float = 0.0
    cpu_s: float = 0.0
    cached: bool = False
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _worker_wedged() -> bool:
    """True when fault injection has wedged this worker (see repro.faults).

    Looked up dynamically so the runner keeps zero dependency on the
    fault-injection module in normal operation.
    """
    faults = sys.modules.get("repro.faults")
    return bool(faults is not None and faults.is_wedged())


def _worker_main(
    fn: str,
    config: Dict[str, Any],
    conn,
    telemetry: bool = True,
    sites: bool = False,
    sample_every: int = 1,
    timelines: bool = False,
    heartbeat: float = 0.0,
) -> None:
    """Child-process entry: run the job, ship (status, ...) back.

    Telemetry options arrive as extra process args — never through the
    job config, which is content-hashed into the job id.  With
    ``heartbeat`` > 0, a daemon thread sends ``("hb",)`` over the pipe
    every ``heartbeat`` seconds so the parent's watchdog can tell a
    slow worker from a wedged one.
    """
    send_lock = threading.Lock()
    stop_beat = threading.Event()
    if heartbeat > 0:

        def _beat() -> None:
            while not stop_beat.wait(heartbeat):
                if _worker_wedged():
                    # An injected hang swallows heartbeats too: the whole
                    # point is to look dead so the watchdog must act.
                    continue
                try:
                    with send_lock:
                        conn.send(("hb",))
                except OSError:
                    return

        threading.Thread(target=_beat, daemon=True).start()
    cpu0 = time.process_time()
    try:
        job = Job(fn=fn, config=config)
        if telemetry:
            value, telem = run_job_traced(
                job, sites=sites, sample_every=sample_every, timelines=timelines
            )
        else:
            value, telem = run_job(job), None
    except BaseException as exc:  # noqa: BLE001 - everything is a job failure
        stop_beat.set()
        try:
            with send_lock:
                conn.send(
                    (
                        "error",
                        f"{type(exc).__name__}: {exc}",
                        traceback.format_exc(),
                        time.process_time() - cpu0,
                    )
                )
        finally:
            conn.close()
        return
    stop_beat.set()
    try:
        with send_lock:
            conn.send(("ok", value, time.process_time() - cpu0, telem))
    finally:
        conn.close()


class _Active:
    """Book-keeping for one in-flight worker process."""

    __slots__ = (
        "index", "attempt", "process", "conn", "start", "deadline", "last_beat",
    )

    def __init__(self, index, attempt, process, conn, start, deadline):
        self.index = index
        self.attempt = attempt
        self.process = process
        self.conn = conn
        self.start = start
        self.deadline = deadline
        self.last_beat = start


@dataclass
class JobRunner:
    """Runs :class:`Job` batches with caching, retries and timeouts."""

    workers: int = 1
    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.25
    #: ceiling on any single backoff delay, jitter included
    max_backoff: float = 30.0
    #: relative jitter width (0 = none); deterministic per (job id, attempt)
    backoff_jitter: float = 0.0
    #: seconds a worker may stay silent (no heartbeat, no result) before
    #: the watchdog declares it stuck; ``None`` disables the watchdog
    watchdog: Optional[float] = None
    #: seconds between worker heartbeats when the watchdog is armed
    heartbeat_every: float = 0.0
    store: Optional[CheckpointStore] = None
    registry: Any = None  # MetricsRegistry-compatible (duck-typed)
    tracer: Any = None  # Tracer-compatible (duck-typed)
    mp_context: Optional[str] = None  # "fork"/"spawn"/None = platform pick
    #: collect per-job telemetry payloads and merge them post-run
    job_telemetry: bool = True
    #: attribute detector work to addresses/SFRs (fills :attr:`sites`)
    profile_sites: bool = False
    #: hot-site sampling period (1 = exact)
    sample_every: int = 1
    #: record per-run execution timelines in every job (fills
    #: :attr:`timelines`) — see :class:`~repro.obs.timeline.TimelineRecorder`
    record_timelines: bool = False
    #: StatusFile-compatible sink for live progress (duck-typed)
    status: Any = None
    #: minimum seconds between status-file rewrites
    status_interval: float = 0.5
    #: per-run tallies, reset by each :meth:`run` call
    stats: Dict[str, Any] = field(default_factory=dict)
    #: merged SiteProfiler after a run with ``profile_sites`` (else None)
    sites: Any = field(default=None, repr=False)
    #: after a run with ``record_timelines``: submission-ordered
    #: ``{"job": label, "timelines": [payload, ...]}`` entries
    timelines: List[Dict[str, Any]] = field(default_factory=list, repr=False)

    # -- public API ---------------------------------------------------------

    def run(self, jobs: Sequence[Job]) -> List[JobResult]:
        """Execute ``jobs``; results come back in submission order."""
        jobs = list(jobs)
        self.stats = {
            "submitted": len(jobs),
            "executed": 0,
            "cache_hits": 0,
            "retries": 0,
            "timeouts": 0,
            "stuck": 0,
            "failures": 0,
            "corrupt_checkpoints": 0,
            "wall_seconds": 0.0,
            "cpu_seconds": 0.0,
            "degraded": False,
        }
        self._run_start = time.perf_counter()
        self._running: Dict[int, str] = {}
        self._done = 0
        self._ok = 0
        self._last_status = 0.0
        self._total = len(jobs)
        self._publish_status(state="starting", force=True)
        if self.registry is not None:
            self.registry.inc("runner.submitted", len(jobs))
            self.registry.set_gauge("runner.workers", self.workers)
        results: List[Optional[JobResult]] = [None] * len(jobs)
        to_run: List[int] = []
        corrupt_before = (
            self.store.corrupt_records if self.store is not None else 0
        )
        for i, job in enumerate(jobs):
            record = self.store.load(job) if self.store is not None else None
            if record is not None:
                results[i] = JobResult(
                    job=job,
                    status="ok",
                    value=record["value"],
                    attempts=int(record.get("attempts", 1)),
                    duration_s=float(record.get("duration_s", 0.0)),
                    cpu_s=float(record.get("cpu_s", 0.0)),
                    cached=True,
                    telemetry=record.get("telemetry"),
                )
                self._tally("cache_hits")
                self._done += 1
                self._ok += 1
                if self.tracer is not None:
                    self.tracer.event(
                        "runner.job", job=job.label, id=job.job_id, cached=True
                    )
            else:
                to_run.append(i)
        if self.store is not None:
            hit = self.store.corrupt_records - corrupt_before
            if hit:
                # The store already moved the damaged records to its
                # quarantine directory and bumped ``checkpoint.corrupt``;
                # here we just surface the count in the run's stats.
                self.stats["corrupt_checkpoints"] = hit
        self._publish_status(state="running", force=True)
        if to_run:
            if self.workers <= 1 and self.timeout is None and not any(
                jobs[i].timeout for i in to_run
            ):
                self._run_inline(jobs, to_run, results)
            else:
                self._run_pool(jobs, to_run, results)
        assert all(r is not None for r in results)
        self._merge_telemetry(results)
        self._running = {}
        self._publish_status(state="done", force=True)
        return results  # type: ignore[return-value]

    def status_snapshot(self, state: Optional[str] = None) -> Dict[str, Any]:
        """The live progress dict (also what :attr:`status` publishes)."""
        if state is None:
            state = getattr(self, "_state", "idle")
        s = self.stats or {}
        total = getattr(self, "_total", 0)
        done = getattr(self, "_done", 0)
        elapsed = time.perf_counter() - getattr(
            self, "_run_start", time.perf_counter()
        )
        executed = s.get("executed", 0)
        remaining = max(0, total - done)
        eta_s: Optional[float] = None
        if executed > 0 and remaining and state != "done":
            # Cache hits are ~free; pace on executed jobs only.
            eta_s = s.get("wall_seconds", 0.0) / executed * remaining / max(
                1, min(self.workers, remaining)
            )
        return {
            "state": state,
            "total": total,
            "done": done,
            "ok": getattr(self, "_ok", 0),
            "failed": s.get("failures", 0),
            "cached": s.get("cache_hits", 0),
            "executed": executed,
            "retries": s.get("retries", 0),
            "timeouts": s.get("timeouts", 0),
            "stuck": s.get("stuck", 0),
            "corrupt_checkpoints": s.get("corrupt_checkpoints", 0),
            "workers": self.workers,
            "degraded": bool(s.get("degraded")),
            "running": sorted(getattr(self, "_running", {}).values()),
            "elapsed_s": round(elapsed, 3),
            "eta_s": round(eta_s, 3) if eta_s is not None else None,
        }

    def _publish_status(
        self, state: Optional[str] = None, force: bool = False
    ) -> None:
        if state is not None:
            self._state = state
        if self.status is None:
            return
        now = time.perf_counter()
        if not force and now - self._last_status < self.status_interval:
            return
        self._last_status = now
        self.status.write(self.status_snapshot(state=state))

    def _merge_telemetry(self, results: Sequence[Optional[JobResult]]) -> None:
        """Fold per-job payloads into registry/tracer/sites, submission order."""
        self.sites = None
        self.timelines = []
        if self.profile_sites:
            from ..obs.sites import SiteProfiler

            self.sites = SiteProfiler(sample_every=self.sample_every)
        # Worker span records are relative to the *worker* tracer's
        # origin (≈ attempt start); shifting each job's records by the
        # parent-side start of its ``runner.job`` span puts every
        # process on one ordered axis.
        offsets: Dict[str, float] = {}
        if self.tracer is not None:
            origin = getattr(self.tracer, "origin", 0.0)
            for span in getattr(self.tracer, "finished", []) or []:
                if span.name == "runner.job" and "id" in span.attrs:
                    offsets[span.attrs["id"]] = span.start - origin
        for result in results:
            if result is None or not result.telemetry:
                continue
            telem = result.telemetry
            if self.registry is not None and telem.get("metrics"):
                self.registry.merge_snapshot(
                    telem["metrics"], kinds=telem.get("kinds")
                )
            if self.tracer is not None and telem.get("spans"):
                self.tracer.ingest(
                    telem["spans"],
                    at=offsets.get(result.job.job_id),
                    job=result.job.label,
                )
            if self.sites is not None and telem.get("sites"):
                self.sites.merge_payload(telem["sites"])
            if telem.get("timelines"):
                self.timelines.append(
                    {"job": result.job.label, "timelines": telem["timelines"]}
                )

    # -- shared result plumbing --------------------------------------------

    def _tally(self, key: str, amount: float = 1) -> None:
        self.stats[key] += amount
        if self.registry is not None:
            self.registry.inc(f"runner.{key}", amount)

    def _job_timeout(self, job: Job) -> Optional[float]:
        return job.timeout if job.timeout is not None else self.timeout

    def _finish(
        self,
        results: List[Optional[JobResult]],
        index: int,
        result: JobResult,
        span=None,
    ) -> None:
        results[index] = result
        self._tally("executed")
        self._tally("wall_seconds", result.duration_s)
        self._tally("cpu_seconds", result.cpu_s)
        self._done += 1
        if result.ok:
            self._ok += 1
        else:
            self._tally("failures")
        self._running.pop(index, None)
        if self.store is not None and result.ok:
            extra: Dict[str, Any] = {}
            if result.telemetry is not None:
                extra["telemetry"] = result.telemetry
            self.store.store(
                result.job,
                result.value,
                attempts=result.attempts,
                duration_s=result.duration_s,
                cpu_s=result.cpu_s,
                **extra,
            )
        self._publish_status()
        if span is not None:
            span.set("status", result.status)
            span.set("attempts", result.attempts)
            if result.error:
                span.set("error", result.error)
            self.tracer.end_span(span)

    def _backoff_delay(self, attempt: int, job_id: str = "") -> float:
        """Delay before retry ``attempt + 1``: capped exponential, with
        optional jitter that is a pure function of (job id, attempt) —
        the same job retries after the same delay whether the sweep runs
        serially, in parallel, or is re-run tomorrow."""
        delay = min(self.max_backoff, self.backoff * (2 ** (attempt - 1)))
        if self.backoff_jitter:
            rng = random.Random(f"{job_id}:{attempt}")
            delay *= 1.0 + self.backoff_jitter * (rng.random() - 0.5)
        return max(0.0, min(self.max_backoff, delay))

    # -- in-process execution ----------------------------------------------

    def _run_inline(
        self,
        jobs: Sequence[Job],
        to_run: Sequence[int],
        results: List[Optional[JobResult]],
    ) -> None:
        for index in to_run:
            job = jobs[index]
            span = (
                self.tracer.start_span(
                    "runner.job", job=job.label, id=job.job_id, cached=False
                )
                if self.tracer is not None
                else None
            )
            self._running[index] = job.label
            self._publish_status()
            start = time.perf_counter()
            cpu0 = time.process_time()
            attempt = 0
            while True:
                attempt += 1
                try:
                    if self.job_telemetry:
                        value, telem = run_job_traced(
                            job,
                            sites=self.profile_sites,
                            sample_every=self.sample_every,
                            timelines=self.record_timelines,
                        )
                    else:
                        value, telem = run_job(job), None
                except BaseException as exc:  # noqa: BLE001
                    if attempt <= self.retries:
                        self._tally("retries")
                        time.sleep(self._backoff_delay(attempt, job.job_id))
                        continue
                    result = JobResult(
                        job=job,
                        status="failed",
                        error=f"{type(exc).__name__}: {exc}",
                        attempts=attempt,
                        duration_s=time.perf_counter() - start,
                        cpu_s=time.process_time() - cpu0,
                    )
                    break
                result = JobResult(
                    job=job,
                    status="ok",
                    value=value,
                    attempts=attempt,
                    duration_s=time.perf_counter() - start,
                    cpu_s=time.process_time() - cpu0,
                    telemetry=telem,
                )
                break
            self._finish(results, index, result, span)

    # -- multiprocessing execution -----------------------------------------

    def _context(self):
        if self.mp_context is not None:
            return multiprocessing.get_context(self.mp_context)
        methods = multiprocessing.get_all_start_methods()
        # fork skips re-import of the (already warm) library in every
        # worker; fall back to the platform default elsewhere.
        return multiprocessing.get_context("fork" if "fork" in methods else None)

    def _run_pool(
        self,
        jobs: Sequence[Job],
        to_run: Sequence[int],
        results: List[Optional[JobResult]],
    ) -> None:
        ctx = self._context()
        workers = max(1, self.workers)
        heartbeat = self.heartbeat_every
        if self.watchdog is not None and heartbeat <= 0:
            # Default: beat a few times per watchdog window.
            heartbeat = max(0.05, self.watchdog / 4.0)
        pending: List[int] = list(to_run)
        ready_at: Dict[int, float] = {i: 0.0 for i in pending}
        attempts: Dict[int, int] = {i: 0 for i in pending}
        started: Dict[int, float] = {}
        spans: Dict[int, Any] = {}
        active: List[_Active] = []
        degraded: List[int] = []

        def resolve_attempt(
            entry: _Active, error: Optional[str], value, cpu_s, telemetry=None
        ):
            """One attempt ended (ok, error, crash or timeout)."""
            index = entry.index
            duration = time.perf_counter() - started[index]
            if error is None:
                self._finish(
                    results,
                    index,
                    JobResult(
                        job=jobs[index],
                        status="ok",
                        value=value,
                        attempts=entry.attempt,
                        duration_s=duration,
                        cpu_s=cpu_s,
                        telemetry=telemetry,
                    ),
                    spans.pop(index, None),
                )
            elif entry.attempt <= self.retries:
                self._tally("retries")
                self._running.pop(index, None)
                ready_at[index] = time.perf_counter() + self._backoff_delay(
                    entry.attempt, jobs[index].job_id
                )
                pending.append(index)
            else:
                self._finish(
                    results,
                    index,
                    JobResult(
                        job=jobs[index],
                        status="failed",
                        error=error,
                        attempts=entry.attempt,
                        duration_s=duration,
                        cpu_s=cpu_s,
                    ),
                    spans.pop(index, None),
                )

        while pending or active:
            now = time.perf_counter()
            # -- launch ready jobs into free worker slots
            launchable = [i for i in pending if ready_at[i] <= now]
            while launchable and len(active) < workers:
                index = launchable.pop(0)
                pending.remove(index)
                job = jobs[index]
                attempts[index] += 1
                if attempts[index] == 1:
                    started[index] = time.perf_counter()
                    if self.tracer is not None:
                        spans[index] = self.tracer.start_span(
                            "runner.job",
                            job=job.label,
                            id=job.job_id,
                            cached=False,
                        )
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_worker_main,
                    args=(
                        job.fn,
                        job.config,
                        child_conn,
                        self.job_telemetry,
                        self.profile_sites,
                        self.sample_every,
                        self.record_timelines,
                        heartbeat if self.watchdog is not None else 0.0,
                    ),
                    daemon=True,
                )
                try:
                    process.start()
                except BaseException:  # noqa: BLE001 - sandboxed environments
                    parent_conn.close()
                    child_conn.close()
                    self.stats["degraded"] = True
                    if self.registry is not None:
                        self.registry.inc("runner.degraded")
                    attempts[index] -= 1
                    degraded.append(index)
                    continue
                child_conn.close()
                self._running[index] = job.label
                self._publish_status()
                timeout = self._job_timeout(job)
                attempt_start = time.perf_counter()
                active.append(
                    _Active(
                        index,
                        attempts[index],
                        process,
                        parent_conn,
                        attempt_start,
                        attempt_start + timeout if timeout else None,
                    )
                )
            if self.stats["degraded"] and not active:
                break  # drain remaining work in-process below
            if not active:
                # everything pending is in backoff: sleep to the earliest
                time.sleep(
                    max(0.0, min(ready_at[i] for i in pending) - now)
                )
                continue
            # -- wait for a result/heartbeat, the next deadline, the next
            # backoff, or the next watchdog expiry
            wait_for = [entry.conn for entry in active]
            deadlines = [e.deadline for e in active if e.deadline is not None]
            wake: List[float] = list(deadlines)
            if self.watchdog is not None:
                wake.extend(e.last_beat + self.watchdog for e in active)
            if pending and len(active) < workers:
                wake.append(min(ready_at[i] for i in pending))
            timeout = max(0.0, min(wake) - now) if wake else None
            ready = _wait_connections(wait_for, timeout)
            now = time.perf_counter()
            still_active: List[_Active] = []
            for entry in active:
                if entry.conn in ready:
                    try:
                        message = entry.conn.recv()
                    except (EOFError, OSError):
                        entry.process.join()
                        code = entry.process.exitcode
                        resolve_attempt(
                            entry,
                            f"WorkerCrash: worker exited with code {code} "
                            "before reporting a result",
                            None,
                            0.0,
                        )
                    else:
                        if message[0] == "hb":
                            entry.last_beat = now
                            still_active.append(entry)
                            continue
                        entry.process.join()
                        if message[0] == "ok":
                            _, value, cpu_s, telem = message
                            resolve_attempt(entry, None, value, cpu_s, telem)
                        else:
                            _, error, _tb, cpu_s = message
                            resolve_attempt(entry, error, None, cpu_s)
                    entry.conn.close()
                elif (
                    self.watchdog is not None
                    and now - entry.last_beat >= self.watchdog
                ):
                    entry.process.terminate()
                    entry.process.join()
                    entry.conn.close()
                    self._tally("stuck")
                    resolve_attempt(
                        entry,
                        f"Stuck: worker silent for {now - entry.last_beat:.1f}s "
                        f"(watchdog {self.watchdog:.1f}s, "
                        f"attempt {entry.attempt})",
                        None,
                        0.0,
                    )
                elif entry.deadline is not None and now >= entry.deadline:
                    entry.process.terminate()
                    entry.process.join()
                    entry.conn.close()
                    self._tally("timeouts")
                    limit = self._job_timeout(jobs[entry.index])
                    resolve_attempt(
                        entry,
                        f"Timeout: job exceeded {limit:.1f}s "
                        f"(attempt {entry.attempt})",
                        None,
                        0.0,
                    )
                else:
                    still_active.append(entry)
            active = still_active
        if self.stats["degraded"]:
            leftovers = sorted(
                set(degraded)
                | {i for i in to_run if results[i] is None}
            )
            for index in leftovers:
                span = spans.pop(index, None)
                if span is not None:
                    span.set("degraded", True)
                    self.tracer.end_span(span)
            self._run_inline(jobs, leftovers, results)

    # -- reporting ----------------------------------------------------------

    def summary(self) -> str:
        """One-line human summary of the last :meth:`run`."""
        s = self.stats or {}
        return (
            f"jobs={s.get('submitted', 0)} "
            f"executed={s.get('executed', 0)} "
            f"cached={s.get('cache_hits', 0)} "
            f"retries={s.get('retries', 0)} "
            f"timeouts={s.get('timeouts', 0)} "
            f"failed={s.get('failures', 0)} "
            f"job_seconds={s.get('wall_seconds', 0.0):.1f}"
            + (
                f" stuck={s['stuck']}" if s.get("stuck") else ""
            )
            + (
                f" corrupt_checkpoints={s['corrupt_checkpoints']}"
                if s.get("corrupt_checkpoints")
                else ""
            )
            + (" degraded=yes" if s.get("degraded") else "")
        )


# -- the persistent pool -------------------------------------------------------


def _pool_worker_main(
    conn,
    telemetry: bool = True,
    sites: bool = False,
    sample_every: int = 1,
) -> None:
    """Child-process entry for the persistent pool: serve jobs forever.

    Receives ``(seq, fn, config)`` tuples, replies ``("ok", seq, value,
    cpu_s, telem)`` or ``("error", seq, message, cpu_s)``.  A ``None``
    message (or EOF on the pipe) is the shutdown signal.  One worker
    runs many jobs over its lifetime — that is the point of the pool.
    So is the death of the pool's process: a forked worker inherits the
    pool's end of its own pipe, which therefore never reports EOF, so
    the worker also watches its parent's sentinel.
    """
    parent = multiprocessing.parent_process()
    watch = [conn] if parent is None else [conn, parent.sentinel]
    while True:
        try:
            if conn not in _wait_connections(watch):
                return  # the pool's process died
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            try:
                conn.close()
            except OSError:
                pass
            return
        seq, fn, config = message
        cpu0 = time.process_time()
        try:
            job = Job(fn=fn, config=config)
            if telemetry:
                value, telem = run_job_traced(
                    job, sites=sites, sample_every=sample_every
                )
            else:
                value, telem = run_job(job), None
        except BaseException as exc:  # noqa: BLE001 - job failures are data
            try:
                conn.send(
                    (
                        "error",
                        seq,
                        f"{type(exc).__name__}: {exc}",
                        time.process_time() - cpu0,
                    )
                )
            except OSError:
                return
            continue
        try:
            conn.send(("ok", seq, value, time.process_time() - cpu0, telem))
        except OSError:
            return


class PoolTicket:
    """Handle for one job submitted to a :class:`PersistentPool`."""

    __slots__ = ("seq", "job", "result", "_event")

    def __init__(self, seq: int, job: Job) -> None:
        self.seq = seq
        self.job = job
        self.result: Optional[JobResult] = None
        self._event = threading.Event()

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> Optional[JobResult]:
        """Block for the result; ``None`` if not done within ``timeout``."""
        if self._event.wait(timeout):
            return self.result
        return None

    def _deliver(self, result: JobResult) -> None:
        self.result = result
        self._event.set()


class _PoolWorker:
    """One persistent child process and its duplex pipe."""

    __slots__ = ("process", "conn", "inflight")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.inflight: Optional[int] = None  # seq of the job it is running


class _PoolEntry:
    """Parent-side book-keeping for one submitted job."""

    __slots__ = ("ticket", "callback", "attempt", "start", "deadline")

    def __init__(self, ticket: PoolTicket, callback) -> None:
        self.ticket = ticket
        self.callback = callback
        self.attempt = 0
        self.start = time.perf_counter()
        self.deadline: Optional[float] = None


@dataclass
class PersistentPool:
    """A worker pool that outlives a single batch — jobs stream in.

    Where :class:`JobRunner` forks one process per attempt and winds
    everything down when its batch completes, the pool keeps
    ``workers`` long-lived child processes and feeds them jobs as they
    arrive: the execution backend for the ``repro serve`` daemon, where
    submissions trickle in over hours and a fork per analysis would
    dominate latency.  :meth:`submit` returns a :class:`PoolTicket`
    immediately; jobs complete out of order; an optional ``callback``
    fires (on the dispatcher thread) with the finished
    :class:`JobResult`.

    The runner's resilience carries over:

    * a worker that **crashes** mid-job is respawned and the job
      retried, up to ``retries`` times, then failed structurally
      (``JobResult.status == "failed"`` — never an exception);
    * consecutive respawns back off exponentially
      (``respawn_backoff`` doubling per cycle, capped at 1s), and a
      **respawn storm** — ``respawn_limit`` cycles without any worker
      delivering a result — stops the forking altogether: the pool
      degrades to inline threads and increments ``pool.respawn_storm``
      rather than thrash forever against a poisoned environment;
    * a job past ``timeout`` seconds (``job.timeout`` overrides) has
      its worker terminated and respawned, same retry policy;
    * if child processes cannot be spawned at all (restricted
      sandboxes) the pool **degrades** to in-process threads —
      ``degraded`` flips in :meth:`status_snapshot` and timeouts
      become best-effort;
    * per-job telemetry payloads (metrics + spans) merge into
      ``registry``/``tracer`` as each job completes, and ``pool.*``
      counters track submissions, completions, failures, crashes,
      timeouts, retries and respawns.
    """

    workers: int = 2
    timeout: Optional[float] = None
    retries: int = 1
    job_telemetry: bool = True
    registry: Any = None  # MetricsRegistry-compatible (duck-typed)
    tracer: Any = None  # Tracer-compatible (duck-typed)
    mp_context: Optional[str] = None
    #: force in-process (threaded) execution — tests and sandboxes
    inline: bool = False
    #: consecutive crash→respawn cycles (with no worker delivering a
    #: single result in between) tolerated before the pool stops
    #: burning forks and degrades to inline threads
    respawn_limit: int = 8
    #: base of the exponential backoff between consecutive respawns
    #: (doubles per cycle, capped at one second)
    respawn_backoff: float = 0.05

    def __post_init__(self) -> None:
        self.workers = max(1, self.workers)
        self._lock = threading.Lock()
        self._started = False
        self._stopping = False
        self._degraded = False
        self._seq = 0
        self._queue: List[int] = []
        self._entries: Dict[int, _PoolEntry] = {}
        self._workers: List[_PoolWorker] = []
        self._inline_busy = 0
        self._thread: Optional[threading.Thread] = None
        self._wake_r = None
        self._wake_w = None
        self._wake_lock = threading.Lock()
        #: consecutive respawns since a worker last delivered a result
        self._respawn_streak = 0
        #: no worker slot is refilled before this perf_counter instant
        self._respawn_at: Optional[float] = None
        self._counts = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "retries": 0,
            "crashes": 0,
            "timeouts": 0,
            "respawns": 0,
            "respawn_storm": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "PersistentPool":
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._stopping = False
            ctx = (
                multiprocessing.get_context(self.mp_context)
                if self.mp_context is not None
                else multiprocessing.get_context(
                    "fork"
                    if "fork" in multiprocessing.get_all_start_methods()
                    else None
                )
            )
            self._ctx = ctx
            self._wake_r, self._wake_w = ctx.Pipe(duplex=False)
            if not self.inline:
                for _ in range(self.workers):
                    worker = self._spawn_worker()
                    if worker is None:
                        break
                    self._workers.append(worker)
                if not self._workers:
                    self._degraded = True
            if self.registry is not None:
                self.registry.set_gauge(
                    "pool.workers", len(self._workers) or self.workers
                )
            self._thread = threading.Thread(
                target=self._loop, name="repro-pool-dispatch", daemon=True
            )
            self._thread.start()
        return self

    def _spawn_worker(self) -> Optional[_PoolWorker]:
        """Fork one persistent worker; ``None`` on failure (sandbox)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, self.job_telemetry),
            daemon=True,
        )
        try:
            process.start()
        except BaseException:  # noqa: BLE001 - restricted sandboxes
            parent_conn.close()
            child_conn.close()
            self._degraded = True
            if self.registry is not None:
                self.registry.inc("pool.degraded")
            return None
        child_conn.close()
        return _PoolWorker(process, parent_conn)

    def stop(self, timeout: float = 10.0) -> None:
        """Drain nothing: fail queued jobs, let in-flight ones finish
        (up to ``timeout`` seconds), then tear the workers down.
        Idempotent."""
        with self._lock:
            if not self._started or self._stopping:
                thread = None
                if self._started and self._thread is not None:
                    thread = self._thread
            else:
                self._stopping = True
                thread = self._thread
        if thread is None:
            return
        self._notify()
        thread.join(timeout=timeout)
        leftovers: List[int] = []
        with self._lock:
            workers, self._workers = self._workers, []
            leftovers = [s for s in self._entries]
            self._queue = []
        for worker in workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        for worker in workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        for seq in leftovers:
            self._resolve(seq, error="PoolStopped: pool shut down", cpu_s=0.0,
                          retryable=False)

    def __enter__(self) -> "PersistentPool":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- submission ---------------------------------------------------------

    def submit(self, job: Job, callback=None) -> PoolTicket:
        """Enqueue ``job``; returns immediately with a ticket.

        ``callback(result)``, when given, runs on the dispatcher thread
        right after the ticket resolves — keep it quick and don't block
        in it.
        """
        with self._lock:
            if not self._started:
                raise RuntimeError("PersistentPool.submit before start()")
            if self._stopping:
                raise RuntimeError("PersistentPool.submit after stop()")
            self._seq += 1
            seq = self._seq
            ticket = PoolTicket(seq, job)
            self._entries[seq] = _PoolEntry(ticket, callback)
            self._queue.append(seq)
            self._counts["submitted"] += 1
        if self.registry is not None:
            self.registry.inc("pool.submitted")
            self.registry.set_gauge("pool.pending", self.pending())
        self._notify()
        return ticket

    def pending(self) -> int:
        """Jobs waiting for a worker slot (not yet dispatched)."""
        with self._lock:
            return len(self._queue)

    def busy(self) -> int:
        """Jobs currently executing (process workers + inline threads)."""
        with self._lock:
            return (
                sum(1 for w in self._workers if w.inflight is not None)
                + self._inline_busy
            )

    def status_snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = dict(self._counts)
            return {
                "workers": len(self._workers) or (
                    self.workers if (self.inline or self._degraded) else 0
                ),
                "busy": sum(
                    1 for w in self._workers if w.inflight is not None
                ) + self._inline_busy,
                "pending": len(self._queue),
                "inflight": len(self._entries) - len(self._queue),
                "degraded": self._degraded or self.inline,
                **counts,
            }

    # -- dispatcher ---------------------------------------------------------

    def _notify(self) -> None:
        with self._wake_lock:
            if self._wake_w is not None:
                try:
                    self._wake_w.send(None)
                except OSError:
                    pass

    def _loop(self) -> None:
        while True:
            with self._lock:
                self._assign_locked()
                conns = [
                    w.conn for w in self._workers if w.inflight is not None
                ]
                idle_conns = [
                    w.conn for w in self._workers if w.inflight is None
                ]
                wake = self._next_deadline_locked()
                finished = self._stopping and not self._entries
            if finished:
                return
            timeout = None
            if wake is not None:
                timeout = max(0.0, wake - time.perf_counter())
            # Idle workers' conns are watched too: a spontaneous child
            # death shows up as EOF and triggers a respawn.
            ready = _wait_connections(
                conns + idle_conns + [self._wake_r], timeout
            )
            if self._wake_r in ready:
                while self._wake_r.poll():
                    try:
                        self._wake_r.recv()
                    except (EOFError, OSError):
                        break
            for worker in list(self._workers):
                if worker.conn in ready:
                    self._drain_worker(worker)
            self._check_deadlines()

    def _assign_locked(self) -> None:
        """Hand queued jobs to idle workers (or inline threads). Caller
        holds the lock."""
        if self._stopping:
            return
        self._refill_workers_locked()
        for worker in self._workers:
            if not self._queue:
                break
            if worker.inflight is not None:
                continue
            seq = self._queue.pop(0)
            entry = self._entries[seq]
            entry.attempt += 1
            job = entry.ticket.job
            limit = job.timeout if job.timeout is not None else self.timeout
            entry.deadline = (
                time.perf_counter() + limit if limit else None
            )
            try:
                worker.conn.send((seq, job.fn, job.config))
            except (OSError, ValueError):
                # The child died between jobs; requeue and respawn.
                self._queue.insert(0, seq)
                entry.attempt -= 1
                self._replace_worker_locked(worker)
                continue
            worker.inflight = seq
        if (self.inline or self._degraded) and not self._workers:
            while self._queue and self._inline_busy < self.workers:
                seq = self._queue.pop(0)
                entry = self._entries[seq]
                entry.attempt += 1
                entry.deadline = None  # threads cannot be killed
                self._inline_busy += 1
                threading.Thread(
                    target=self._run_inline,
                    args=(seq,),
                    name=f"repro-pool-inline-{seq}",
                    daemon=True,
                ).start()
        if self.registry is not None:
            self.registry.set_gauge("pool.pending", len(self._queue))
            self.registry.set_gauge(
                "pool.busy",
                sum(1 for w in self._workers if w.inflight is not None)
                + self._inline_busy,
            )

    def _next_deadline_locked(self) -> Optional[float]:
        deadlines = [
            e.deadline
            for e in self._entries.values()
            if e.deadline is not None
        ]
        if (
            self._respawn_at is not None
            and not (self.inline or self._degraded or self._stopping)
            and len(self._workers) < self.workers
        ):
            deadlines.append(self._respawn_at)
        return min(deadlines) if deadlines else None

    def _replace_worker_locked(self, worker: _PoolWorker) -> None:
        """Retire a dead worker; the dispatcher refills the slot after
        the respawn backoff window passes. Caller holds the lock."""
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=2.0)
        if worker in self._workers:
            self._workers.remove(worker)
        if self._stopping:
            return
        self._counts["respawns"] += 1
        if self.registry is not None:
            self.registry.inc("pool.respawns")
        self._respawn_streak += 1
        if self._respawn_streak > self.respawn_limit:
            # Respawn storm: fresh workers keep dying before any of
            # them delivers a single result (poisoned job mix, broken
            # interpreter, hostile sandbox).  Stop burning forks; once
            # the last slot is gone the pool degrades to inline threads
            # so the service keeps answering instead of thrashing.
            if not self._workers and not self._degraded:
                self._degraded = True
                self._counts["respawn_storm"] += 1
                if self.registry is not None:
                    self.registry.inc("pool.respawn_storm")
                    self.registry.set_gauge("pool.workers", self.workers)
            return
        delay = min(
            self.respawn_backoff * (2 ** (self._respawn_streak - 1)), 1.0
        )
        self._respawn_at = time.perf_counter() + delay

    def _refill_workers_locked(self) -> None:
        """Top retired worker slots back up once the respawn backoff
        window has passed. Caller holds the lock."""
        if (
            self.inline
            or self._degraded
            or self._stopping
            or not self._started
        ):
            return
        missing = self.workers - len(self._workers)
        if missing <= 0:
            self._respawn_at = None
            return
        if (
            self._respawn_at is not None
            and time.perf_counter() < self._respawn_at
        ):
            return
        self._respawn_at = None
        for _ in range(missing):
            fresh = self._spawn_worker()
            if fresh is None:
                break
            self._workers.append(fresh)
        if self.registry is not None and self._workers:
            self.registry.set_gauge("pool.workers", len(self._workers))

    def _drain_worker(self, worker: _PoolWorker) -> None:
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            with self._lock:
                seq = worker.inflight
                worker.inflight = None
                self._replace_worker_locked(worker)
                if seq is not None:
                    self._counts["crashes"] += 1
            if seq is not None:
                if self.registry is not None:
                    self.registry.inc("pool.crashes")
                code = worker.process.exitcode
                self._resolve(
                    seq,
                    error=(
                        f"WorkerCrash: worker exited with code {code} "
                        "before reporting a result"
                    ),
                    cpu_s=0.0,
                )
            return
        kind = message[0]
        with self._lock:
            worker.inflight = None
            # Any delivered message — success or a clean job error —
            # proves workers can survive a job: the storm is over.
            self._respawn_streak = 0
        if kind == "ok":
            _, seq, value, cpu_s, telem = message
            self._resolve(seq, value=value, cpu_s=cpu_s, telemetry=telem)
        else:
            _, seq, error, cpu_s = message
            self._resolve(seq, error=error, cpu_s=cpu_s)

    def _check_deadlines(self) -> None:
        now = time.perf_counter()
        expired: List[Tuple[_PoolWorker, int]] = []
        with self._lock:
            for worker in list(self._workers):
                seq = worker.inflight
                if seq is None:
                    continue
                entry = self._entries.get(seq)
                if entry is None or entry.deadline is None:
                    continue
                if now >= entry.deadline:
                    worker.inflight = None
                    self._replace_worker_locked(worker)
                    self._counts["timeouts"] += 1
                    expired.append((worker, seq))
        for worker, seq in expired:
            if self.registry is not None:
                self.registry.inc("pool.timeouts")
            entry = self._entries.get(seq)
            limit = None
            if entry is not None:
                job = entry.ticket.job
                limit = job.timeout if job.timeout is not None else self.timeout
            self._resolve(
                seq,
                error=(
                    f"Timeout: job exceeded "
                    f"{limit if limit is not None else 0.0:.1f}s"
                ),
                cpu_s=0.0,
            )

    def _run_inline(self, seq: int) -> None:
        """Degraded path: one job on one parent-process thread."""
        with self._lock:
            entry = self._entries.get(seq)
        if entry is None:
            with self._lock:
                self._inline_busy -= 1
            return
        job = entry.ticket.job
        cpu0 = time.process_time()
        try:
            if self.job_telemetry:
                value, telem = run_job_traced(job)
            else:
                value, telem = run_job(job), None
        except BaseException as exc:  # noqa: BLE001
            with self._lock:
                self._inline_busy -= 1
            self._resolve(
                seq,
                error=f"{type(exc).__name__}: {exc}",
                cpu_s=time.process_time() - cpu0,
            )
            self._notify()
            return
        with self._lock:
            self._inline_busy -= 1
        self._resolve(
            seq, value=value, cpu_s=time.process_time() - cpu0, telemetry=telem
        )
        self._notify()

    # -- completion ---------------------------------------------------------

    def _resolve(
        self,
        seq: int,
        value: Any = None,
        error: Optional[str] = None,
        cpu_s: float = 0.0,
        telemetry: Optional[Dict[str, Any]] = None,
        retryable: bool = True,
    ) -> None:
        """One attempt ended; retry or deliver the final JobResult."""
        with self._lock:
            entry = self._entries.get(seq)
            if entry is None:
                return
            if (
                error is not None
                and retryable
                and entry.attempt <= self.retries
                and not self._stopping
            ):
                self._counts["retries"] += 1
                self._queue.append(seq)
                requeued = True
            else:
                del self._entries[seq]
                requeued = False
                result = JobResult(
                    job=entry.ticket.job,
                    status="ok" if error is None else "failed",
                    value=value,
                    error=error,
                    attempts=max(1, entry.attempt),
                    duration_s=time.perf_counter() - entry.start,
                    cpu_s=cpu_s,
                    telemetry=telemetry,
                )
                if error is None:
                    self._counts["completed"] += 1
                else:
                    self._counts["failed"] += 1
        if requeued:
            if self.registry is not None:
                self.registry.inc("pool.retries")
            self._notify()
            return
        if self.registry is not None:
            self.registry.inc(
                "pool.completed" if error is None else "pool.failed"
            )
        if telemetry:
            if self.registry is not None and telemetry.get("metrics"):
                self.registry.merge_snapshot(
                    telemetry["metrics"], kinds=telemetry.get("kinds")
                )
            if self.tracer is not None and telemetry.get("spans"):
                self.tracer.ingest(
                    telemetry["spans"], job=entry.ticket.job.label
                )
        if entry.callback is not None:
            try:
                entry.callback(result)
            except Exception:  # noqa: BLE001 - callbacks must not kill
                # the dispatcher; the ticket still resolves below.
                if self.registry is not None:
                    self.registry.inc("pool.callback_errors")
        entry.ticket._deliver(result)
