"""``serve-mix``: the job server under a closed loop of two tenants.

``python -m repro serve --state-dir <fresh>`` runs as a child process
group with its default pool.  Two client threads keep one job outstanding
each: tenant ``clean`` submits ``197.parser`` jobs, tenant ``storm`` the
same jobs with seeded ``params.chaos`` conflicts on a few percent of
iterations.  After each job the client fetches its output, checks it
against the oracle and only then submits the next job.

The window is cut into segments, each on a fresh server: its launch ->
banner -> first job done is one ``setup_s`` sample, so the set-up samples
spread through the window.  Between segments, with no server running, the
benchmark times ``run_sequential`` and a one-shot ``ExecutionEngine.run``
(``repro exec``'s defaults) of the same spec.  The one-shot engine is the
reference of the jobs' ``speedup`` on either side of it: a wall against a
wall of the same engine code, so that it holds still when the host's
single-thread speed drifts.  The client itself runs no program code while
jobs are in flight.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

from common import NO_SPANS, ROOT, BenchError, Oracle, median, p90
from exec_bench import engine_layers, engine_stats, new_engine, useful_ratio

WORKLOAD = "197.parser"
TENANTS = ("clean", "storm")
#: Forced conflicts per storm job: ~3% of parser's 480 iterations.
STORM_CONFLICTS = 16
#: Segments of the window, each on a fresh server (one ``setup_s`` sample).
SEGMENTS = 5
#: ``run_sequential`` and one-shot engine samples at each segment boundary.
BOUNDARY_SAMPLES = 2
#: Client status-poll period while a job runs.
POLL_S = 0.02
HTTP_TIMEOUT_S = 30.0
BANNER = re.compile(r"serving on (http://[\d.]+:\d+)")
TERMINAL = ("done", "failed", "cancelled", "dead_letter")


def _request(method: str, url: str, body: Optional[dict] = None) -> Tuple[int, dict]:
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read() or b"{}")


class Server:
    """One ``repro serve`` child in its own process group."""

    def __init__(self, bench, state_dir: str) -> None:
        started = time.perf_counter()
        self.log = open(state_dir + ".log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--state-dir", state_dir],
            cwd=ROOT, env=bench.env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        bench.hygiene.watch_group(self.proc.pid)
        self.base = self._banner(deadline=started + 60.0)
        self.launch_s = time.perf_counter() - started

    def _banner(self, deadline: float) -> str:
        while True:
            left = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(left, 0))
            if not ready:
                self.kill()
                raise BenchError("server printed no banner within 60 s")
            line = self.proc.stdout.readline()
            if not line:
                self.kill()
                raise BenchError(f"server exited before its banner "
                                 f"(rc={self.proc.poll()})")
            match = BANNER.search(line)
            if match:
                return match.group(1)

    def stop(self) -> bool:
        """SIGTERM and a clean drain; False (and the group killed) if not."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        finally:
            self.log.close()
        return self.proc.returncode == 0 and "drained cleanly" in out

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.log.close()


def _params(tenant: str, rng, traced: bool) -> dict:
    params: dict = {}
    if tenant == "storm":
        params["chaos"] = {"conflicts": STORM_CONFLICTS,
                           "seed": rng.randrange(1 << 30)}
    if traced:
        params["trace"] = True
    return params


def _job(base: str, tenant: str, params: dict, oracle: Oracle, spans) -> dict:
    """One closed-loop job: submit, poll to a terminal state, then fetch
    and check the output."""
    sent_unix = time.time()
    unit_started = time.perf_counter()
    submit_started = time.perf_counter()
    with spans.span("service.submit"):
        status, body = _request("POST", f"{base}/jobs", {
            "tenant": tenant, "workload": WORKLOAD, "params": params,
        })
    submit_s = time.perf_counter() - submit_started
    if status != 202:
        return {"error": f"submit refused: {status} {body}"}
    job_id = body["id"]
    status_s = []
    while True:
        polled = time.perf_counter()
        with spans.span("service.status"):
            _code, record = _request("GET", f"{base}/jobs/{job_id}")
        status_s.append(time.perf_counter() - polled)
        if record.get("state") in TERMINAL:
            done_at = time.perf_counter()
            break
        with spans.span("client.poll_wait"):
            time.sleep(POLL_S)
    with spans.span("service.result"):
        code, result = _request("GET", f"{base}/jobs/{job_id}/result")
    with spans.span("oracle"):
        ok = oracle.check(result.get("output"),
                          ok=code == 200 and record["state"] == "done")
    if not ok:
        return {"error": f"job {job_id} ended {record.get('state')}, output "
                         "differs from run_sequential", "counted": True}
    return {
        "tenant": tenant,
        "traced": bool(params.get("trace")),
        "latency_s": record["finished_unix"] - sent_unix,
        "run_s": record["finished_unix"] - record["started_unix"],
        "queue_wait_s": record["queue_wait_s"],
        "submit_s": submit_s,
        "status_s": status_s,
        "unit_s": time.perf_counter() - unit_started,
        "done_at": done_at,
        "stats": engine_stats(record.get("metrics") or {}),
    }


def _boundary(spans, oracle: Oracle, fresh_spec) -> Tuple[List[float], List[float]]:
    """Seconds of ``run_sequential`` and of one-shot engine runs of fresh
    specs, timed with no server running; every output is checked."""
    from repro.exec import run_sequential

    sequential, engine = [], []
    for _ in range(BOUNDARY_SAMPLES):
        spec = fresh_spec()
        with spans.span("workloads.sequential"):
            started = time.perf_counter()
            output, _inner = run_sequential(spec)
            sequential.append(time.perf_counter() - started)
        with spans.span("oracle"):
            oracle.check(output)
        spec, runner = fresh_spec(), new_engine()
        with spans.span("exec.run"):
            started = time.perf_counter()
            result = runner.run(spec)
            engine.append(time.perf_counter() - started)
        with spans.span("oracle"):
            oracle.check(result.output, ok=not result.metrics.degraded_to_sequential)
    return sequential, engine


class _Run:
    """What the segments of one serve-mix run accumulate."""

    def __init__(self, bench, oracle: Oracle) -> None:
        self.bench = bench
        self.oracle = oracle
        self.setup: List[float] = []
        self.launches: List[float] = []
        self.loop_s = 0.0
        self.jobs: List[dict] = []
        self.errors: List[str] = []
        self.snapshot: dict = {}
        self.lock = threading.Lock()
        self.counters = {tenant: 0 for tenant in TENANTS}
        self.rngs = {tenant: random.Random(bench.rng.randrange(1 << 30))
                     for tenant in TENANTS}

    def fail(self, error: str, counted: bool = False) -> None:
        with self.lock:
            self.errors.append(error)
        if not counted:
            self.oracle.record(False)

    def segment(self, index: int, end: float) -> None:
        """A fresh server: launch, first job (one set-up sample), the
        closed loop until ``end``, drain."""
        bench, spans = self.bench, self.bench.spans
        started = time.perf_counter()
        with spans.span("setup.launch"):
            try:
                server = Server(bench, os.path.join(bench.run_dir, f"state-{index}"))
            except BenchError as error:
                self.fail(str(error))
                return
            try:
                first = _job(server.base, "clean", {}, self.oracle, NO_SPANS)
            except Exception as error:
                first = {"error": repr(error)}
        try:
            self.launches.append(server.launch_s)
            if "error" in first:
                self.fail(first["error"], first.get("counted", False))
            else:
                self.setup.append(first["done_at"] - started)
            self._closed_loop(server, index, end)
            try:
                _code, self.snapshot = _request("GET", f"{server.base}/snapshot")
            except OSError as error:
                self.fail(f"snapshot: {error!r}")
        finally:
            with spans.span("service.drain"):
                self.oracle.record(server.stop())

    def _closed_loop(self, server: "Server", index: int, end: float) -> None:
        bench, spans = self.bench, self.bench.spans
        with spans.span("serve.closed_loop") as loop_span:
            started = time.perf_counter()

            def client(tenant: str) -> None:
                with spans.span(f"client.{tenant}", parent=loop_span,
                                weight=1.0 / len(TENANTS)):
                    while True:
                        k = self.counters[tenant]
                        self.counters[tenant] += 1
                        # Traced run: params.trace alternates per job, and
                        # the benchmark's own spans every other pair of jobs.
                        job_traced = bench.trace and k % 2 == 1
                        detailed = not bench.trace or (k // 2) % 2 == 0
                        with spans.span("unit" if detailed else "bench.untraced_unit"):
                            try:
                                job = _job(
                                    server.base, tenant,
                                    _params(tenant, self.rngs[tenant], job_traced),
                                    self.oracle, spans if detailed else NO_SPANS,
                                )
                            except Exception as error:  # counted, not fatal
                                job = {"error": repr(error)}
                        if "error" in job:
                            self.fail(job["error"], job.get("counted", False))
                        else:
                            job["detailed"] = detailed
                            job["segment"] = index
                            with self.lock:
                                self.jobs.append(job)
                        if time.perf_counter() >= end:
                            return

            threads = [threading.Thread(target=client, args=(tenant,),
                                        name=f"client-{tenant}")
                       for tenant in TENANTS]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            self.loop_s += time.perf_counter() - started


def run(bench) -> dict:
    from repro.exec import run_sequential
    from repro.workloads.suite import SUITE

    spans = bench.spans
    with spans.span("workloads.build"):
        build_started = time.perf_counter()
        factory = SUITE[WORKLOAD]

        def fresh_spec():
            return factory().exec_spec()

        fresh_spec()
        build_s = time.perf_counter() - build_started
    with spans.span("workloads.sequential"):
        oracle = Oracle(run_sequential(fresh_spec())[0], bench.tally, bench.corrupt)

    state = _Run(bench, oracle)
    loop_started = time.perf_counter()
    window = bench.deadline - loop_started
    # boundaries[k] and boundaries[k + 1] are the samples on either side of
    # segment k.
    boundaries = [_boundary(spans, oracle, fresh_spec)]
    for index in range(SEGMENTS):
        state.segment(index, loop_started + (index + 1) * window / SEGMENTS)
        bench.witness.cal()
        boundaries.append(_boundary(spans, oracle, fresh_spec))
    if not state.jobs:
        raise BenchError(f"no job completed: {state.errors[:3]}")
    for job in state.jobs:
        around = boundaries[job["segment"]:job["segment"] + 2]
        job["seq_s"] = median([s for seq, _eng in around for s in seq])
        job["engine_s"] = median([s for _seq, eng in around for s in eng])
    outcome = _summarize(state, build_s, [s for seq, _eng in boundaries for s in seq])
    pool = state.snapshot.get("pool") or {}
    outcome["config"]["pool"] = {
        key: pool.get(key) for key in ("size", "slots", "transport", "spawned_total")
    }
    return outcome


def _summarize(state: _Run, build_s: float, seq_s: List[float]) -> dict:
    """End-to-end and per-layer figures.  Jobs run with ``params.trace``
    (traced run only) feed ``obs.job_trace_overhead`` and nothing else."""
    jobs = [j for j in state.jobs if not j["traced"]]
    latency = [j["latency_s"] for j in jobs]
    run_s = [j["run_s"] for j in jobs]
    by_tenant: Dict[str, List[dict]] = {t: [j for j in jobs if j["tenant"] == t]
                                        for t in TENANTS}
    e2e = {
        "setup_s": median(state.setup),
        "wall_s": median(run_s),
        "wall_p90_s": p90(run_s),
        "speedup": median([j["engine_s"] / j["run_s"] for j in jobs]),
        "jobs_per_s": len(state.jobs) / state.loop_s,
        "latency_p50_s": median(latency),
        "latency_p90_s": p90(latency),
    }
    layers = {
        "workloads.build_s": build_s,
        "workloads.sequential_s": median(seq_s),
        "exec.overhead_s": median([j["run_s"] - j["seq_s"] for j in jobs]),
        **engine_layers([j["stats"] for j in jobs]),
        "service.launch_s": median(state.launches),
        "service.submit_s": median([j["submit_s"] for j in jobs]),
        "service.status_s": median([s for j in jobs for s in j["status_s"]]),
        "service.queue_wait_s": median([j["queue_wait_s"] for j in jobs]),
        "service.run_s": median(run_s),
        "service.useful_ratio.storm": useful_ratio(
            [j["stats"] for j in by_tenant["storm"]]),
    }
    for tenant, tenant_jobs in by_tenant.items():
        if tenant_jobs:
            layers[f"service.latency_p50_s.{tenant}"] = median(
                [j["latency_s"] for j in tenant_jobs])
    traced = [j["run_s"] for j in state.jobs if j["traced"]]
    if traced:
        layers["obs.job_trace_overhead"] = median(traced) / median(run_s) - 1.0
    return {
        "e2e": e2e,
        "layers": layers,
        "config": {"server": "python -m repro serve --state-dir <fresh>",
                   "workload": WORKLOAD, "storm_conflicts": STORM_CONFLICTS,
                   "segments": SEGMENTS, "poll_s": POLL_S},
        "samples": {
            "jobs": len(state.jobs),
            "jobs_by_tenant": {t: sum(j["tenant"] == t for j in state.jobs)
                               for t in TENANTS},
            "errors": state.errors[:5],
            "setup_launches": len(state.setup),
        },
        "unit_wall": {
            True: [j["unit_s"] for j in state.jobs if j["detailed"]],
            False: [j["unit_s"] for j in state.jobs if not j["detailed"]],
        },
    }
