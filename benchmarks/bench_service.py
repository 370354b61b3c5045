"""Throughput and latency of the ``repro serve`` ingestion daemon.

An in-process :class:`~repro.service.ServeDaemon` (real HTTP over
loopback, real worker processes) under a closed-loop client fleet: each
of ``--clients`` threads repeatedly POSTs a recorded trace to
``/submit`` and polls ``/result/<id>`` until the verdict lands, for
``--seconds`` of wall time.  Half the clients submit the racy variant,
half the clean one, and every verdict is checked against the expected
answer — a fast wrong answer is no answer.

The JSON artifact records sustained throughput (verdicts/sec), the
client-observed submit-to-verdict latency distribution (p50/p90/p99),
the server-side ``serve.latency`` histogram's sample count, a
saturation probe (with the daemon paused and a tiny queue, a burst of
submissions must split into 202s and 429s — the backpressure contract
measured, not assumed), and a dedup probe: re-uploading a known trace
must be verdict-served from the content-hash cache at a fraction of
the cold-analysis latency, without touching the worker pool.

Clients honor ``Retry-After`` on 429/503 responses — jittered backoff,
never a hot retry loop — and the artifact reports how often they had
to.  The throughput and saturation services run with ``dedup=False``
(every client re-uploads the same bytes; a cache hit would measure the
cache, not the daemon).

Run it directly (CI's service-smoke job does)::

    PYTHONPATH=src python benchmarks/bench_service.py --out BENCH_service.json

``--check`` (release checklist) fails unless the daemon sustains
``--min-throughput`` verdicts/sec (default 10) with zero failed or
mismatched verdicts, and the dedup cache serves hits at most
``--max-hit-ratio`` (default 0.1) of the cold verdict latency.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import sys
import tempfile
import threading
import time
from typing import Dict, List

from repro.experiments.traces import record_trace
from repro.obs import MetricsRegistry
from repro.service import RaceCheckService, ServeDaemon
from repro.workloads.suite import get_benchmark

from gates import within

#: Workload the clients upload: the dedup model at test scale — small
#: enough that the daemon (not the detector) dominates, large enough to
#: exercise the real batch lane per submission.
BENCHMARK = "dedup"
SCALE = "test"
SEED = 1


def _record(racy: bool, seed: int = SEED, scale: str = SCALE) -> bytes:
    trace = record_trace(
        get_benchmark(BENCHMARK), scale=scale, seed=seed, racy=racy
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.trace")
        trace.save(path)
        with open(path, "rb") as fh:
            return fh.read()


def _post(port: int, path: str, body: bytes):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, body=body)
        resp = conn.getresponse()
        headers = {k.lower(): v for k, v in resp.getheaders()}
        return resp.status, json.loads(resp.read()), headers
    finally:
        conn.close()


def _get(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def _percentile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


class _Client(threading.Thread):
    """One closed-loop submitter: POST, poll to verdict, repeat."""

    def __init__(self, port: int, body: bytes, expected: str,
                 deadline: float) -> None:
        super().__init__(daemon=True)
        self.port = port
        self.body = body
        self.expected = expected
        self.deadline = deadline
        self.latencies: List[float] = []
        self.completed = 0
        self.mismatches = 0
        self.failures = 0
        self.rejected = 0
        self.retries_429 = 0
        self.retries_503 = 0
        self.backoff_s = 0.0

    def _backoff(self, headers: Dict[str, str]) -> None:
        """Honor Retry-After with jitter; never a hot retry loop."""
        try:
            base = float(headers.get("retry-after", ""))
        except ValueError:
            base = 0.05
        delay = min(base, 2.0) * (0.5 + random.random())
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return
        delay = min(delay, remaining)
        self.backoff_s += delay
        time.sleep(delay)

    def run(self) -> None:
        while time.monotonic() < self.deadline:
            start = time.monotonic()
            status, payload, headers = _post(self.port, "/submit", self.body)
            if status == 429:
                self.rejected += 1
                self.retries_429 += 1
                self._backoff(headers)
                continue
            if status == 503:
                self.retries_503 += 1
                self._backoff(headers)
                continue
            if status != 202:
                self.failures += 1
                continue
            sid = payload["id"]
            while True:
                _, result = _get(self.port, f"/result/{sid}")
                if result["state"] in ("done", "failed"):
                    break
                time.sleep(0.002)
            self.latencies.append(time.monotonic() - start)
            if result["state"] != "done":
                self.failures += 1
            elif result["verdict"] != self.expected:
                self.mismatches += 1
            else:
                self.completed += 1


def _measure_throughput(
    port: int, racy: bytes, clean: bytes, clients: int, seconds: float
) -> Dict[str, object]:
    deadline = time.monotonic() + seconds
    fleet = [
        _Client(
            port,
            racy if i % 2 == 0 else clean,
            "racy" if i % 2 == 0 else "clean",
            deadline,
        )
        for i in range(clients)
    ]
    start = time.monotonic()
    for c in fleet:
        c.start()
    for c in fleet:
        c.join()
    elapsed = time.monotonic() - start
    latencies = [s for c in fleet for s in c.latencies]
    completed = sum(c.completed for c in fleet)
    return {
        "clients": clients,
        "wall_seconds": round(elapsed, 3),
        "verdicts": completed,
        "verdicts_per_sec": completed / elapsed if elapsed else 0.0,
        "rejected_429": sum(c.rejected for c in fleet),
        "failed": sum(c.failures for c in fleet),
        "verdict_mismatches": sum(c.mismatches for c in fleet),
        "retries": {
            "after_429": sum(c.retries_429 for c in fleet),
            "after_503": sum(c.retries_503 for c in fleet),
            "backoff_s_total": round(sum(c.backoff_s for c in fleet), 3),
        },
        "latency_s": {
            "p50": round(_percentile(latencies, 0.50), 6),
            "p90": round(_percentile(latencies, 0.90), 6),
            "p99": round(_percentile(latencies, 0.99), 6),
            "max": round(max(latencies), 6) if latencies else 0.0,
            "samples": len(latencies),
        },
    }


def _measure_saturation(clean: bytes, spool: str) -> Dict[str, object]:
    """Pause a tiny-queue daemon and burst it: count 202 vs 429."""
    service = RaceCheckService(
        spool=spool, workers=1, queue_size=2, registry=MetricsRegistry(),
        dedup=False,
    )
    accepted = rejected = 0
    with ServeDaemon(service) as daemon:
        service.pause()
        for _ in range(12):
            status, _payload, _headers = _post(daemon.port, "/submit", clean)
            if status == 202:
                accepted += 1
            elif status == 429:
                rejected += 1
        service.resume()
        drained = service.drain(timeout=60)
    return {
        "burst": 12,
        "queue_size": 2,
        "accepted_202": accepted,
        "rejected_429": rejected,
        "drained_after_resume": drained,
    }


def _measure_dedup(spool: str, hits_per_trace: int = 10) -> Dict[str, object]:
    """Cold verdicts vs cache-served re-uploads of the same bytes.

    Three distinct traces: each is analyzed cold once, then re-uploaded
    ``hits_per_trace`` times.  Every re-upload must be flagged
    ``cached``, settle synchronously, and match the cold verdict; the
    headline number is the median hit-to-cold latency ratio.
    """
    registry = MetricsRegistry()
    service = RaceCheckService(spool=spool, workers=1, registry=registry)
    cold: List[float] = []
    hits: List[float] = []
    uncached_hits = 0
    mismatches = 0
    with ServeDaemon(service) as daemon:
        for seed in (11, 12, 13):
            # A heavier trace than the throughput workload — and a
            # clean one, so analysis walks the whole trace instead of
            # stopping at the first race: the cold verdict must cost
            # real analysis time for the hit-to-cold ratio to measure
            # the cache rather than HTTP overhead.
            body = _record(racy=False, seed=seed, scale="simlarge")
            start = time.monotonic()
            status, payload, _headers = _post(daemon.port, "/submit", body)
            assert status == 202, f"cold submit got {status}"
            sid = payload["id"]
            while True:
                _, result = _get(daemon.port, f"/result/{sid}")
                if result["state"] in ("done", "failed"):
                    break
                time.sleep(0.002)
            cold.append(time.monotonic() - start)
            expected = result.get("verdict")
            for _ in range(hits_per_trace):
                start = time.monotonic()
                status, payload, _headers = _post(
                    daemon.port, "/submit", body
                )
                _, result = _get(daemon.port, f"/result/{payload['id']}")
                while result["state"] not in ("done", "failed"):
                    time.sleep(0.002)
                    _, result = _get(daemon.port, f"/result/{payload['id']}")
                hits.append(time.monotonic() - start)
                if not payload.get("cached"):
                    uncached_hits += 1
                if (
                    result["state"] != "done"
                    or result.get("verdict") != expected
                ):
                    mismatches += 1
        snapshot = registry.snapshot()
        pool_submitted = service.pool.status_snapshot()["submitted"]
    cold_p50 = _percentile(cold, 0.50)
    hit_p50 = _percentile(hits, 0.50)
    return {
        "cold_submissions": len(cold),
        "hit_submissions": len(hits),
        "uncached_hits": uncached_hits,
        "verdict_mismatches": mismatches,
        "cache_hits": int(snapshot.get("cache.hit", 0)),
        "cache_misses": int(snapshot.get("cache.miss", 0)),
        "pool_jobs": int(pool_submitted),
        "cold_latency_s": {"p50": round(cold_p50, 6), "samples": len(cold)},
        "hit_latency_s": {"p50": round(hit_p50, 6), "samples": len(hits)},
        "hit_to_cold_ratio": (
            round(hit_p50 / cold_p50, 6) if cold_p50 else 0.0
        ),
    }


def run_benchmarks(clients: int, seconds: float,
                   workers: int) -> Dict[str, object]:
    racy = _record(racy=True)
    clean = _record(racy=False)
    with tempfile.TemporaryDirectory() as spool:
        registry = MetricsRegistry()
        # dedup off: every client re-uploads the same bytes, and the
        # point here is daemon throughput, not cache-hit throughput.
        service = RaceCheckService(
            spool=os.path.join(spool, "run"),
            workers=workers,
            queue_size=64,
            registry=registry,
            dedup=False,
        )
        with ServeDaemon(service) as daemon:
            throughput = _measure_throughput(
                daemon.port, racy, clean, clients, seconds
            )
            server_latency = registry.histogram("serve.latency")
            saturation = _measure_saturation(
                clean, os.path.join(spool, "saturation")
            )
            dedup = _measure_dedup(os.path.join(spool, "dedup"))
    return {
        "benchmark": "service_ingestion",
        "workload": {
            "model": BENCHMARK,
            "scale": SCALE,
            "racy_trace_bytes": len(racy),
            "clean_trace_bytes": len(clean),
        },
        "host": {"cpu_count": os.cpu_count() or 1, "workers": workers},
        "throughput": throughput,
        "server_latency_samples": server_latency.count,
        "saturation": saturation,
        "dedup": dedup,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent closed-loop submitter threads")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="measurement window")
    parser.add_argument("--workers", type=int, default=2,
                        help="daemon analysis worker processes")
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument("--min-throughput", type=float, default=10.0,
                        help="verdicts/sec floor for --check")
    parser.add_argument("--max-hit-ratio", type=float, default=0.1,
                        help="cache-hit / cold-verdict latency ceiling "
                             "for --check")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail below --min-throughput, on any failed/wrong verdict, "
             "or when cache hits run slower than --max-hit-ratio of cold",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(args.clients, args.seconds, args.workers)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    t = report["throughput"]
    lat = t["latency_s"]
    sat = report["saturation"]
    dedup = report["dedup"]
    print(
        f"throughput: {t['verdicts_per_sec']:.1f} verdicts/s "
        f"({t['verdicts']} verdicts, {t['clients']} clients, "
        f"{t['wall_seconds']}s)"
    )
    print(
        f"latency:    p50 {lat['p50'] * 1000:.1f}ms  "
        f"p90 {lat['p90'] * 1000:.1f}ms  p99 {lat['p99'] * 1000:.1f}ms  "
        f"({lat['samples']} samples)"
    )
    print(
        f"saturation: {sat['accepted_202']}x202 + {sat['rejected_429']}x429 "
        f"from a {sat['burst']}-deep burst into a "
        f"{sat['queue_size']}-slot queue"
    )
    print(
        f"retries:    {t['retries']['after_429']}x429 + "
        f"{t['retries']['after_503']}x503 honored "
        f"({t['retries']['backoff_s_total']}s total backoff)"
    )
    print(
        f"dedup:      hit p50 {dedup['hit_latency_s']['p50'] * 1000:.2f}ms "
        f"vs cold p50 {dedup['cold_latency_s']['p50'] * 1000:.1f}ms "
        f"(ratio {dedup['hit_to_cold_ratio']:.4f}, "
        f"{dedup['cache_hits']} hits, {dedup['pool_jobs']} pool jobs)"
    )
    print(f"wrote {args.out}")
    if args.check:
        problems = []
        if not within("verdicts/s", t["verdicts_per_sec"], ">=",
                      args.min_throughput):
            problems.append(
                f"throughput {t['verdicts_per_sec']:.1f}/s below "
                f"{args.min_throughput}/s floor"
            )
        if t["failed"] or t["verdict_mismatches"]:
            problems.append(
                f"{t['failed']} failed / {t['verdict_mismatches']} "
                f"mismatched verdicts"
            )
        if not sat["rejected_429"] or not sat["accepted_202"]:
            problems.append("saturation burst did not split into 202s + 429s")
        if not sat["drained_after_resume"]:
            problems.append("daemon did not drain after resume")
        if not within("dedup hit/cold", dedup["hit_to_cold_ratio"], "<=",
                      args.max_hit_ratio):
            problems.append(
                f"cache-hit latency ratio {dedup['hit_to_cold_ratio']:.4f} "
                f"above {args.max_hit_ratio} ceiling"
            )
        if dedup["uncached_hits"] or dedup["verdict_mismatches"]:
            problems.append(
                f"{dedup['uncached_hits']} re-uploads missed the cache / "
                f"{dedup['verdict_mismatches']} cached verdicts wrong"
            )
        if dedup["pool_jobs"] != dedup["cold_submissions"]:
            problems.append(
                f"cache hits dispatched to the pool "
                f"({dedup['pool_jobs']} jobs for "
                f"{dedup['cold_submissions']} cold submissions)"
            )
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        if problems:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
