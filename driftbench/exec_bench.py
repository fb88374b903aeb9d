"""``exec-parser``: the multiprocess engine against the sequential
reference, pair by adjacent pair.

One unit is one ``ExecutionEngine.run`` of a fresh spec, with the
``run_sequential`` of another fresh spec of the same inputs next to it;
the order inside a pair alternates so neither side always runs on a
warmer host.  Every engine output and every sequential output must equal
the output of one ``run_sequential`` made before the loop (the oracle).
The fresh-launch set-up samples are spread evenly through the window,
between pairs, so their median spans the same stretch of host drift as
the pairs do.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import threading
import time
from typing import Callable, List, Optional

import table2
from common import (
    NO_SPANS,
    BenchError,
    Oracle,
    Spans,
    median,
    p90,
    spaced,
    timed_launch,
)

#: Fresh launches timed for ``setup_s``, spread through the window.
SETUP_LAUNCHES = 10
#: The suite analog the workload's inputs come from (its Table 2 path is
#: probed in the traced run).
ANALOG = "197.parser"
#: Items pushed through the wire probe.
WIRE_ITEMS = 4000


def build_workload(seed: int):
    from repro.workloads.parser_w import ParserWorkload

    return ParserWorkload(seed)


@functools.lru_cache(maxsize=None)
def engine_config() -> dict:
    """The engine settings ``repro exec`` runs with when given no options,
    read from its own argument parser so that the two cannot drift apart."""
    from repro.__main__ import _build_parser

    args = _build_parser().parse_args(["exec", ANALOG])
    return {key: getattr(args, key) for key in (
        "workers", "capacity", "batch_size", "flush_interval", "transport")}


def new_engine(**overrides):
    """An engine with ``repro exec``'s default settings, plus overrides."""
    from repro.exec import ExecutionEngine

    return ExecutionEngine(**{**engine_config(), **overrides})


def setup_launch(bench, oracle: Oracle, samples: List[float]) -> None:
    """Time one fresh launch into ``samples``; a launch that fails is a
    failed operation."""
    argv = [sys.executable, os.path.join("driftbench", "setup_child.py"),
            bench.workload, str(bench.seed)]
    with bench.spans.span("setup.launch"):
        try:
            samples.append(timed_launch(argv, bench.env, "ready"))
        except BenchError as error:
            print(f"driftbench: {error}", file=sys.stderr)
            oracle.record(False)
            return
    oracle.record(True)
    bench.witness.cal()


def wire_probe(spans: Spans, payload, items: int) -> float:
    """Items per second through one :class:`ProcessChannel` at the engine's
    capacity and batch size, with a live consumer thread."""
    from repro.exec import ProcessChannel

    channel = ProcessChannel(
        capacity=engine_config()["capacity"],
        batch_size=engine_config()["batch_size"],
        name="probe",
    )
    received = [0]
    failure = []

    def consume():
        try:
            while received[0] < items:
                received[0] += len(
                    channel.get_many(channel.batch_size, timeout=10.0)
                )
        except Exception as error:  # reported below, in the caller
            failure.append(error)

    consumer = threading.Thread(target=consume, daemon=True)
    with spans.span("exec.wire_probe"):
        started = time.perf_counter()
        consumer.start()
        for _ in range(items):
            channel.put(payload, timeout=10.0)
        channel.flush(timeout=10.0)
        consumer.join(timeout=30.0)
        elapsed = time.perf_counter() - started
    channel.close()
    if failure or received[0] != items:
        raise RuntimeError(f"wire probe lost items: {failure or received[0]}")
    return items / elapsed


def engine_stats(metrics: dict) -> dict:
    """The per-layer figures of one run, from ``EngineMetrics.to_json()``
    (an engine run's metrics, or a job record's)."""
    channels = (metrics.get("channels") or {}).values()
    flushes = sum(c.get("flushes", 0) for c in channels)
    hist = metrics.get("latency_histograms") or {}
    queue = hist.get("queue_wait") or {}
    stages = metrics.get("stage_seconds") or {}
    return {
        "exec.stage_a_busy_s": stages.get("A", 0.0),
        "exec.stage_b_busy_s": stages.get("B", 0.0),
        "exec.stage_c_busy_s": stages.get("C", 0.0),
        "exec.wire_serialize_s": sum(c.get("serialize_seconds", 0.0) for c in channels),
        "exec.wire_deserialize_s": sum(c.get("deserialize_seconds", 0.0) for c in channels),
        "exec.frame_items": (
            sum(c.get("mean_frame_items", 0.0) * c.get("flushes", 0)
                for c in channels) / flushes
            if flushes else 0.0
        ),
        "exec.queue_wait_s": queue.get("mean", 0.0) * queue.get("count", 0),
        "exec.commit_lag_p50_s": (hist.get("commit_lag") or {}).get("p50", 0.0),
        "commits": metrics.get("commits", 0),
        "reexec": metrics.get("serial_reexecutions", 0),
        "exec.conflicts": metrics.get("conflicts", 0),
        "exec.throttle_shrinks": metrics.get("throttle_shrinks", 0),
    }


def useful_ratio(stats: List[dict]) -> float:
    """Commits over commits plus serial re-executions (1.0: none wasted)."""
    commits = sum(s["commits"] for s in stats)
    wasted = sum(s["reexec"] for s in stats)
    return commits / (commits + wasted) if commits + wasted else 1.0


def engine_layers(stats: List[dict]) -> dict:
    """Per-layer metrics over many runs: medians of the per-run figures,
    per-run means of the counts, and the pooled useful ratio."""
    layers = {
        key: median([s[key] for s in stats])
        for key in stats[0] if key.startswith("exec.")
    }
    for key in ("exec.conflicts", "exec.throttle_shrinks"):
        layers[key] = sum(s[key] for s in stats) / len(stats)
    layers["exec.useful_ratio"] = useful_ratio(stats)
    return layers


def run(bench) -> dict:
    from repro.exec import run_sequential

    spans = bench.spans
    with spans.span("workloads.build"):
        started = time.perf_counter()
        workload = build_workload(bench.seed)
        build_s = time.perf_counter() - started
    with spans.span("workloads.sequential"):
        oracle = Oracle(run_sequential(workload.exec_spec())[0], bench.tally,
                        bench.corrupt)

    probes = _probes(bench, workload, oracle) if bench.trace else {}

    setup: List[float] = []
    launches_due = spaced(time.perf_counter(), bench.deadline,
                          SETUP_LAUNCHES)
    seq_s: List[float] = []
    engine_s: List[float] = []
    latency_s: List[float] = []
    ratios: List[float] = []
    overheads: List[float] = []
    engine_records: List[dict] = []
    errors: List[str] = []
    unit_wall = {True: [], False: []}
    metrics_json: dict = {}
    pair = 0
    while pair == 0 or time.perf_counter() < bench.deadline:
        while launches_due and time.perf_counter() >= launches_due[0]:
            launches_due.pop(0)
            setup_launch(bench, oracle, setup)
        # In the traced run, every other pair records no inner spans: the
        # difference in pair wall is the cost of the benchmark's tracing.
        # The order inside a pair alternates every two pairs, so traced and
        # untraced pairs see both orders equally.
        detailed = not bench.trace or pair % 2 == 0
        sequential_first = (pair // 2) % 2 == 0
        unit_started = time.perf_counter()
        try:
            with spans.span("unit" if detailed else "bench.untraced_unit"):
                inner = spans if detailed else NO_SPANS
                if sequential_first:
                    seq_time = _sequential(inner, workload, oracle)
                eng_time, latency, metrics = _engine_run(inner, workload, oracle)
                if not sequential_first:
                    seq_time = _sequential(inner, workload, oracle)
        except Exception as error:  # the program crashed: a failed operation
            oracle.record(False)
            errors.append(repr(error))
            print(f"driftbench: pair {pair} raised {error!r}", file=sys.stderr)
            pair += 1
            continue
        unit_wall[detailed].append(time.perf_counter() - unit_started)
        seq_s.append(seq_time)
        engine_s.append(eng_time)
        latency_s.append(latency)
        ratios.append(seq_time / eng_time)
        overheads.append(eng_time - seq_time)
        metrics_json = metrics.to_json()
        engine_records.append(engine_stats(metrics_json))
        bench.witness.cal()
        pair += 1
    for _due in launches_due:  # a window too short to reach them all
        setup_launch(bench, oracle, setup)

    e2e = {
        "setup_s": median(setup),
        "wall_s": median(engine_s),
        "wall_p90_s": p90(engine_s),
        "speedup": median(ratios),
        "jobs_per_s": len(latency_s) / sum(latency_s),
        "latency_p50_s": median(latency_s),
        "latency_p90_s": p90(latency_s),
    }

    layers = {
        "workloads.build_s": build_s,
        "workloads.sequential_s": median(seq_s),
        "exec.overhead_s": median(overheads),
        **engine_layers(engine_records),
        **probes,
    }
    return {
        "e2e": e2e,
        "layers": layers,
        "config": {
            "engine": engine_config(),
            "effective": {key: metrics_json.get(key) for key in (
                "workers", "capacity", "batch_size", "transport")},
        },
        "samples": {"pairs": len(engine_s), "setup_launches": len(setup),
                    "errors": errors[:5]},
        "unit_wall": unit_wall,
    }


def _sequential(spans: Spans, workload, oracle: Oracle) -> float:
    from repro.exec import run_sequential

    spec = workload.exec_spec()
    with spans.span("workloads.sequential"):
        started = time.perf_counter()
        output, _inner = run_sequential(spec)
        elapsed = time.perf_counter() - started
    with spans.span("oracle"):
        oracle.check(output)
    return elapsed


def _engine_run(spans: Spans, workload, oracle: Oracle,
                engine_factory: Optional[Callable] = None):
    """(engine wall, build + engine latency, metrics) of one fresh-spec run."""
    requested = time.perf_counter()
    with spans.span("workloads.spec"):
        spec = workload.exec_spec()
    engine = (engine_factory or new_engine)()
    with spans.span("exec.run"):
        started = time.perf_counter()
        result = engine.run(spec)
        ended = time.perf_counter()
    with spans.span("oracle"):
        oracle.check(result.output, ok=not result.metrics.degraded_to_sequential)
    return ended - started, ended - requested, result.metrics


def _probes(bench, workload, oracle: Oracle) -> dict:
    """Traced-run probes: the engine's fixed cost on a one-iteration spec,
    the wire at the workload's item size, and the engine's own tracing
    cost (traced and untraced runs alternating)."""
    from repro.exec import run_sequential
    from repro.obs.events import TraceConfig

    spans = bench.spans
    one_iteration = run_sequential(
        dataclasses.replace(workload.exec_spec(), iterations=1))[0]
    fixed = []
    for _ in range(3):
        spec = dataclasses.replace(workload.exec_spec(), iterations=1)
        engine = new_engine()
        with spans.span("exec.fixed_probe"):
            started = time.perf_counter()
            result = engine.run(spec)
            fixed.append(time.perf_counter() - started)
        oracle.check(result.output, expected=one_iteration)
    payload = workload.exec_spec().produce(0)
    items_per_s = wire_probe(spans, payload, WIRE_ITEMS)

    traced, untraced = [], []
    for k in range(4):
        with_trace = k % 2 == 1
        spool = os.path.join(bench.run_dir, f"engine-spool-{k}")
        config = TraceConfig(spool_dir=spool) if with_trace else None
        if with_trace:
            os.makedirs(spool)

        def factory(config=config):
            return new_engine(trace=config)

        with spans.span("obs.engine_trace_probe"):
            eng_time, _lat, _m = _engine_run(NO_SPANS, workload, oracle, factory)
        (traced if with_trace else untraced).append(eng_time)
    return {
        **table2.probe(ANALOG, spans, oracle),
        "exec.fixed_s": median(fixed),
        "exec.wire_items_per_s": items_per_s,
        "obs.engine_trace_overhead": median(traced) / median(untraced) - 1.0,
    }
