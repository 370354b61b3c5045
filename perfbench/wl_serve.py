"""``serve-ci``: the race-checking daemon under CI-style load.

An in-process :class:`~repro.service.ServeDaemon` with default settings
(journal on, dedup on, 2 pool workers) serves loopback HTTP, its spool
on the checkout's own filesystem.  Two closed-loop clients — CI jobs
that each wait on their verdict — take the next upload of a fixed,
seeded plan, ``POST /submit`` it and poll ``/result/<id>`` until the
verdict arrives, then fetch ``/report/<id>``.  The plan holds
:data:`UPLOADS` uploads: distinct ``simsmall`` traces of the 26 models
across seeds, and, at seeded positions, one in :data:`REUPLOAD_EVERY`
byte-identical re-uploads of an earlier, already answered upload, which
the verdict cache serves without the pool.  The window ends when the
plan is used up or ``--seconds`` have passed.

Set-up records the traces to fresh paths and keeps the upload bytes in
memory, flushes its writes, and starts the daemon and its worker pool.

Known answers: every upload is accepted and answered, its ``/report``
verdict is the expected one (its variant's label, or the
reference detector's where the two disagree; see ``oracle``), and every
re-upload is served from the cache.

``BENCHMARK.json`` does not list this workload: on a shared disk its
fsync-bound throughput spreads from run to run past any bound, so it is
run by hand, parent and change in pairs.

Traced runs alternate untraced and traced blocks of the plan; in a
traced block the service's admission, store, verdict cache, pool and
the process's ``os.fsync``/``os.unlink`` calls are wrapped in spans.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from common import Run, fsync_paths, now, record_peak_rss, timed_setup
from metrics import percentile, supported_percentile
from oracle import Answers

from repro.exec.checkpoint import CheckpointStore
from repro.exec.runner import PersistentPool
from repro.experiments.traces import record_trace
from repro.service import RaceCheckService, ServeDaemon
from repro.service import service as service_module
from repro.service.quota import QuotaManager
from repro.service.store import SubmissionStore
from repro.workloads.suite import RACE_FREE_VARIANTS, RACY_BENCHMARKS, get_benchmark

SCALE = "simsmall"
CLIENTS = 2
UPLOADS = 320
REUPLOAD_EVERY = 4
#: recording seeds per workload seed: 6 x 42 variants >= fresh uploads
TRACE_SEEDS = 6
SETUP_REPS = 2
POLL_S = 0.002
#: a single upload taking longer than this is a failed operation
UPLOAD_TIMEOUT_S = 60.0
#: traced runs split the plan into this many blocks, odd ones traced
BLOCKS = 4


@dataclass
class Upload:
    index: int
    name: str
    racy: bool
    trace_seed: int
    reupload_of: Optional[int] = None
    data: bytes = b""

    @property
    def rid(self) -> str:
        return f"u{self.index:05d}"


@dataclass
class Outcome:
    t_submit: float
    t_accepted: float = 0.0
    t_verdict: float = 0.0
    sid: str = ""
    cached: bool = False
    polls: int = 0
    state: str = ""
    #: ``/report``'s verdict and its analysis report's verdict
    verdict: Optional[str] = None
    report_verdict: Optional[str] = None


def plan_uploads(seed: int) -> List[Upload]:
    """The seeded upload plan (without bytes): which trace goes where,
    and which positions re-upload which earlier upload."""
    rng = random.Random(seed)
    variants = [(n, False) for n in RACE_FREE_VARIANTS]
    variants += [(n, True) for n in RACY_BENCHMARKS]
    reuploads = UPLOADS // REUPLOAD_EVERY
    candidates = [
        (name, racy, seed * TRACE_SEEDS + k)
        for k in range(TRACE_SEEDS) for name, racy in variants
    ]
    fresh = iter(rng.sample(candidates, UPLOADS - reuploads))
    positions = set(rng.sample(range(CLIENTS + 1, UPLOADS), reuploads))
    plan: List[Upload] = []
    for i in range(UPLOADS):
        if i in positions:
            source = plan[rng.choice([u.index for u in plan if u.reupload_of is None])]
            plan.append(Upload(i, source.name, source.racy, source.trace_seed,
                               reupload_of=source.index))
        else:
            name, racy, trace_seed = next(fresh)
            plan.append(Upload(i, name, racy, trace_seed))
    return plan


def _record(run: Run, rep: int) -> List[Upload]:
    plan = plan_uploads(run.seed)
    out = run.path(f"uploads-{rep}")
    os.makedirs(out)
    digests = set()
    for upload in plan:
        if upload.reupload_of is not None:
            upload.data = plan[upload.reupload_of].data
            continue
        path = os.path.join(out, f"{upload.rid}.trace")
        record_trace(get_benchmark(upload.name), scale=SCALE,
                     seed=upload.trace_seed, racy=upload.racy).save(path)
        with open(path, "rb") as fh:
            upload.data = fh.read()
        os.unlink(path)
        digest = hashlib.sha256(upload.data).hexdigest()
        if digest in digests:
            raise RuntimeError(f"upload {upload.rid} duplicates an earlier trace")
        digests.add(digest)
    fsync_paths([out])
    return plan


def _setup(run: Run, rep: int):
    plan = _record(run, rep)
    service = RaceCheckService(spool=run.path(f"spool-{rep}"))
    daemon = ServeDaemon(service)
    daemon.start()
    return plan, daemon


# -- the clients ---------------------------------------------------------------


def _http(port: int, method: str, path: str, body: bytes = None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _upload(run: Run, port: int, upload: Upload, traced: bool) -> Outcome:
    """Submit one upload and wait for its verdict; checks the answer."""
    root = run.recorder.root("upload", upload.rid) if traced else None
    out = Outcome(t_submit=now())
    status, body = _http(port, "POST", "/submit", upload.data,
                         {"X-Request-Id": upload.rid,
                          "Content-Type": "application/octet-stream"})
    out.t_accepted = now()
    if status != 202:
        return out
    payload = json.loads(body)
    out.sid = payload["id"]
    out.cached = bool(payload.get("cached"))
    state = payload["state"]
    while state not in ("done", "failed"):
        if now() - out.t_submit > UPLOAD_TIMEOUT_S:
            return out
        time.sleep(POLL_S)
        status, body = _http(port, "GET", f"/result/{out.sid}")
        out.polls += 1
        if status != 200:
            return out
        state = json.loads(body)["state"]
    out.t_verdict = now()
    if root is not None:
        run.recorder.end(root)
    out.state = state
    status, body = _http(port, "GET", f"/report/{out.sid}")
    if status == 200:
        report = json.loads(body)
        out.verdict = report.get("verdict")
        out.report_verdict = (report.get("report") or {}).get("verdict")
    return out


def _settle(run: Run, plan: List[Upload], outcomes: Dict[int, Outcome]) -> None:
    """Tally every upload against its known answer (see ``oracle``)."""
    answers = Answers(SCALE)
    for i in sorted(outcomes):
        upload, out = plan[i], outcomes[i]
        ok = out.state == "done" and out.verdict == out.report_verdict
        if ok:
            racy = out.verdict == "racy"
            ok = racy == answers.expected_racy(upload.name, upload.trace_seed,
                                               upload.racy, racy)
        ok = ok and (upload.reupload_of is None or out.cached)
        run.tally.check(ok, f"upload {upload.rid} ({upload.name}, "
                            f"racy={upload.racy}): state={out.state!r}, "
                            f"verdict={out.verdict}/{out.report_verdict}, "
                            f"cached={out.cached}")
    run.details["relabelled"] = answers.relabelled()


def _drive(run: Run, port: int, plan: List[Upload], lo: int, hi: int,
           deadline: float, outcomes: Dict[int, Outcome],
           answered: Dict[int, threading.Event], traced: bool) -> None:
    """Run the closed-loop clients over ``plan[lo:hi]`` until done or
    ``deadline``."""
    lock = threading.Lock()
    cursor = [lo]

    def client() -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= hi or now() >= deadline:
                    return
                cursor[0] += 1
            upload = plan[i]
            if upload.reupload_of is not None:
                answered[upload.reupload_of].wait(UPLOAD_TIMEOUT_S)
            try:
                outcomes[i] = _upload(run, port, upload, traced)
            except (OSError, http.client.HTTPException, ValueError, KeyError):
                outcomes[i] = Outcome(t_submit=now())  # counted as failed
            answered[i].set()

    threads = [threading.Thread(target=client, name=f"client-{k}")
               for k in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


# -- traced layers ---------------------------------------------------------------


def _install(run: Run, sid_rid: Dict[str, str], sha_rid: Dict[str, str]) -> None:
    rec = run.recorder

    def created(span, submission):
        sid_rid[submission.id] = span.rid
        sha_rid.setdefault(submission.sha256, span.rid)

    rec.wrap(RaceCheckService, "submit", "service.submit",
             rid=lambda self, data, tenant="default", request_id=None: request_id)
    rec.wrap(QuotaManager, "try_acquire", "quota.try_acquire")
    rec.wrap(service_module, "verify_trace_bytes", "trace.verify_trace_bytes")
    rec.wrap(SubmissionStore, "create", "store.create",
             attrs=lambda *a, **k: {"persist": k.get("persist", True)},
             done=created)
    rec.wrap(SubmissionStore, "commit", "store.commit")
    rec.wrap(SubmissionStore, "mark_running", "store.mark_running",
             rid=lambda self, sid: sid_rid.get(sid))
    rec.wrap(SubmissionStore, "finish", "store.finish",
             rid=lambda self, sid, *a, **k: sid_rid.get(sid))
    rec.wrap(CheckpointStore, "load", "cache.load")
    rec.wrap(CheckpointStore, "store", "cache.store",
             rid=lambda self, job, *a, **k: sha_rid.get(job.config.get("sha256")))
    rec.wrap(os, "fsync", "os.fsync")
    rec.wrap(os, "unlink", "os.unlink")

    original = PersistentPool.submit

    def submit(self, job, callback=None):
        span = rec.begin("pool.job", sid_rid.get(job.name), push=False)

        def delivered(result):
            span.attrs["cpu_s"] = result.cpu_s
            rec.end(span)
            if callback is not None:
                callback(result)

        return original(self, job, delivered)

    rec.patch(PersistentPool, "submit", submit)


def _p50_ms(values: List[float]) -> float:
    return percentile(values, 50) * 1000.0 if values else 0.0


def _layer_metrics(run: Run, service, plan: List[Upload],
                   outcomes: Dict[int, Outcome], traced_ids: List[int]) -> None:
    spans = run.recorder.spans
    by_rid: Dict[str, list] = {}
    for s in spans:
        by_rid.setdefault(s.rid, []).append(s)
    done = [i for i in traced_ids if i in outcomes and outcomes[i].t_verdict]
    verdicts = max(len(done), 1)
    fresh = {plan[i].rid for i in done if plan[i].reupload_of is None}
    submits = [s for s in spans if s.name == "service.submit"]
    admit, http_ms, journal, queue_wait = [], [], [], []
    for s in submits:
        create = [c for c in by_rid.get(s.rid, ()) if c.name == "store.create"]
        if create:
            admit.append(create[0].start - s.start)
        out = outcomes.get(int(s.rid[1:]))
        if out is not None:
            http_ms.append((out.t_accepted - out.t_submit) - s.duration)
    for rid in fresh:
        journal.append(sum(s.duration for s in by_rid.get(rid, ())
                           if s.name in ("store.commit", "store.mark_running")))
        submission = service.store.get(outcomes[int(rid[1:])].sid)
        if submission is not None and submission.started_at is not None:
            queue_wait.append(submission.started_at - submission.queued_at)

    def durations(name: str, only_fresh: bool = False) -> List[float]:
        return [s.duration for s in spans
                if s.name == name and (not only_fresh or s.rid in fresh)]

    pool = [s for s in spans if s.name == "pool.job"]
    m = run.metric
    m("trace.verify_ms_p50", _p50_ms(durations("trace.verify_trace_bytes")), "ms")
    m("serve.submit_ms_p50", _p50_ms([s.duration for s in submits]), "ms")
    m("serve.admit_ms_p50", _p50_ms(admit), "ms")
    m("serve.queue_wait_ms_p50", _p50_ms(queue_wait), "ms")
    m("serve.persist.spool_ms_p50",
      _p50_ms([s.duration for s in spans
               if s.name == "store.create" and s.attrs["persist"]]), "ms")
    m("serve.persist.journal_ms_p50", _p50_ms(journal), "ms")
    m("serve.complete.finish_ms_p50", _p50_ms(durations("store.finish", True)), "ms")
    m("serve.cache.store_ms_p50", _p50_ms(durations("cache.store")), "ms")
    m("serve.cache.load_ms_p50", _p50_ms(durations("cache.load")), "ms")
    m("serve.fsyncs_per_verdict", len(durations("os.fsync")) / verdicts, "count")
    m("serve.unlinks_per_verdict", len(durations("os.unlink")) / verdicts, "count")
    answered = [o for o in outcomes.values() if o.t_verdict]
    m("serve.cache_hit_share",
      sum(1 for o in answered if o.cached) / max(len(answered), 1), "ratio")
    m("serve.dispatch_ms_p50",
      _p50_ms([s.duration - s.attrs["cpu_s"] for s in pool]), "ms")
    m("serve.analysis_cpu_ms_p50", _p50_ms([s.attrs["cpu_s"] for s in pool]), "ms")
    m("serve.http_ms_p50", _p50_ms(http_ms), "ms")
    m("serve.polls_per_verdict",
      sum(outcomes[i].polls for i in done) / verdicts, "count")


# -- the workload ----------------------------------------------------------------


def run_workload(run: Run) -> None:
    plan, daemon = timed_setup(run, lambda rep: _setup(run, rep),
                               lambda result: result[1].stop(), SETUP_REPS)
    outcomes: Dict[int, Outcome] = {}
    answered = {u.index: threading.Event() for u in plan}
    sid_rid: Dict[str, str] = {}
    sha_rid: Dict[str, str] = {}
    blocks = BLOCKS if run.trace else 1
    bounds = [(b * UPLOADS // blocks, (b + 1) * UPLOADS // blocks)
              for b in range(blocks)]
    walls = {False: [0.0, 0], True: [0.0, 0]}  # seconds, verdicts
    traced_ids: List[int] = []
    try:
        start = now()
        deadline = start + run.seconds
        for b, (lo, hi) in enumerate(bounds):
            traced = run.trace and b % 2 == 1
            if traced:
                _install(run, sid_rid, sha_rid)
            t0 = now()
            try:
                _drive(run, daemon.port, plan, lo, hi, deadline, outcomes,
                       answered, traced)
            finally:
                run.recorder.restore()
            walls[traced][0] += now() - t0
            walls[traced][1] += sum(1 for i in range(lo, hi)
                                    if i in outcomes and outcomes[i].t_verdict)
            if traced:
                traced_ids.extend(range(lo, hi))
        _settle(run, plan, outcomes)
        if run.trace:
            _layer_metrics(run, daemon.service, plan, outcomes, traced_ids)
            run.metric(
                "trace_overhead_share",
                (walls[True][0] / max(walls[True][1], 1))
                / (walls[False][0] / max(walls[False][1], 1)),
                "ratio",
            )
    finally:
        daemon.stop()
    answered_ids = [i for i in outcomes if outcomes[i].t_verdict]
    fresh = [(outcomes[i].t_verdict - outcomes[i].t_submit) * 1000.0
             for i in answered_ids if plan[i].reupload_of is None]
    hits = [(outcomes[i].t_verdict - outcomes[i].t_submit) * 1000.0
            for i in answered_ids if plan[i].reupload_of is not None]
    last = max(outcomes[i].t_verdict for i in answered_ids)
    # A traced run reports these over all its uploads, half of them traced.
    run.metric("throughput_per_s", len(answered_ids) / (last - start), "1/s")
    run.metric("serve.latency_p50_ms", percentile(fresh, 50), "ms")
    run.metric("serve.latency_p95_ms", percentile(fresh, 95), "ms")
    run.metric("serve.hit_latency_p50_ms", percentile(hits, 50), "ms")
    run.details.update({
        "uploads": len(outcomes),
        "fresh_samples": len(fresh),
        "hit_samples": len(hits),
        "highest_supported_percentile": supported_percentile(len(fresh)),
    })
    if not run.trace:
        record_peak_rss(run)
