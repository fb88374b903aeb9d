"""The benchmark's command: one workload, one seed, one measured window.

    python3 driftbench/run.py --workload exec-parser --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced run, whose layer ledger is printed above it.
A ``record`` line before it carries the host witness and the engine or
server configuration.  The exit code is 0 only when every checked output
matched its oracle and nothing leaked, and 1 otherwise: a crash of the
program is a failed operation, and the result line is still printed.  It
is 2, with no result line, when the benchmark could not run at all.
See ``driftbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable, Dict, Optional  # noqa: E402

from common import (  # noqa: E402
    RUNS_DIR,
    BenchError,
    HostWitness,
    Hygiene,
    Spans,
    Tally,
    child_env,
    format_ledger,
    median,
    new_run_dir,
    peak_rss_mb,
    require_checkout,
)

WORKLOADS = ("exec-parser", "serve-mix")

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_p90_s": "s",
    "speedup": "x",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> (unit, value when the workload never enters
#: that layer).  Seconds and counts of a layer not entered are 0; a useful
#: ratio over no attempts is 1 (nothing was wasted).
PER_LAYER = {
    "host.cal_ms": ("ms", None),
    "host.parallelism": ("x", None),
    "workloads.build_s": ("s", 0.0),
    "workloads.sequential_s": ("s", 0.0),
    "exec.fixed_s": ("s", 0.0),
    "exec.overhead_s": ("s", 0.0),
    "exec.stage_a_busy_s": ("s", 0.0),
    "exec.stage_b_busy_s": ("s", 0.0),
    "exec.stage_c_busy_s": ("s", 0.0),
    "exec.wire_serialize_s": ("s", 0.0),
    "exec.wire_deserialize_s": ("s", 0.0),
    "exec.frame_items": ("items", 0.0),
    "exec.wire_items_per_s": ("items/s", 0.0),
    "exec.queue_wait_s": ("s", 0.0),
    "exec.commit_lag_p50_s": ("s", 0.0),
    "exec.useful_ratio": ("ratio", 1.0),
    "exec.conflicts": ("count", 0.0),
    "exec.throttle_shrinks": ("count", 0.0),
    "service.launch_s": ("s", 0.0),
    "service.submit_s": ("s", 0.0),
    "service.status_s": ("s", 0.0),
    "service.queue_wait_s": ("s", 0.0),
    "service.run_s": ("s", 0.0),
    "service.latency_p50_s.clean": ("s", 0.0),
    "service.latency_p50_s.storm": ("s", 0.0),
    "service.useful_ratio.storm": ("ratio", 1.0),
    "obs.engine_trace_overhead": ("ratio", 0.0),
    "obs.job_trace_overhead": ("ratio", 0.0),
    "profiling.trace_s": ("s", 0.0),
    "profiling.candidates_s": ("s", 0.0),
    "speculation.plan_s": ("s", 0.0),
    "core.graph_s": ("s", 0.0),
    "core.simulate_s": ("s", 0.0),
}


@dataclass
class Bench:
    """Everything one run shares with its workload module."""

    workload: str
    seed: int
    trace: bool
    run_dir: str
    env: Dict[str, str]
    spans: Spans
    witness: HostWitness
    hygiene: Hygiene
    rng: random.Random
    #: Every checked operation of the run, and how many failed.
    tally: Tally
    deadline: float = 0.0
    #: Applied to every checked output (the benchmark's own tests only).
    corrupt: Optional[Callable] = None


def _module(workload: str):
    if workload.startswith("exec-"):
        import exec_bench

        return exec_bench
    import serve_bench

    return serve_bench


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _overhead(unit_wall: dict) -> dict:
    traced, untraced = unit_wall.get(True, []), unit_wall.get(False, [])
    return {
        "traced_s": median(traced) if traced else 0.0,
        "untraced_s": median(untraced) if untraced else 0.0,
        "traced_units": len(traced),
        "untraced_units": len(untraced),
    }


def main(argv=None, corrupt: Optional[Callable] = None,
         started: Optional[float] = None) -> int:
    """Run one workload; ``started`` is when the measured wall began
    (default: now)."""
    started = time.perf_counter() if started is None else started
    args = _parse(argv)
    try:
        require_checkout()
    except BenchError as error:
        print(f"driftbench: {error}", file=sys.stderr)
        return 2
    run_dir = new_run_dir(args.workload, args.seed)
    spans = Spans(bool(args.trace))
    bench = Bench(
        workload=args.workload, seed=args.seed, trace=bool(args.trace),
        run_dir=run_dir, env=child_env(run_dir), spans=spans,
        witness=HostWitness(spans), hygiene=Hygiene(),
        rng=random.Random(args.seed), tally=Tally(), corrupt=corrupt,
    )
    saved_tmp = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = tempfile.tempdir = run_dir
    outcome = None
    try:
        with spans.span("bench"):
            bench.witness.probe_parallelism()
            bench.deadline = time.perf_counter() + args.seconds
            outcome = _module(args.workload).run(bench)
            bench.witness.probe_parallelism()
            with spans.span("hygiene"):
                bench.hygiene.check(run_dir)
    except Exception:
        # The program (or the benchmark) raised where no operation caught
        # it: count that as one failed operation and still report.
        traceback.print_exc()
        bench.tally.record(False)
        outcome = None
        bench.hygiene.check(run_dir)
        print(f"driftbench: {args.workload} aborted; leaks: "
              f"{bench.hygiene.leaks}", file=sys.stderr)
    finally:
        tempfile.tempdir = saved_tmp[1]
        if saved_tmp[0] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_tmp[0]
    wall_s = time.perf_counter() - started

    attempted = bench.tally.attempted + bench.hygiene.checks
    failed = bench.tally.failed + bench.hygiene.failed
    host = bench.witness.summary()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "leaks": bench.hygiene.leaks,
        "aborted": outcome is None,
    }
    if outcome is None:
        # No figures to report: every metric reads 0 and the run fails.
        catalogue = ({n: u for n, (u, _a) in PER_LAYER.items()} if args.trace
                     else END_TO_END)
        metrics = {name: {"value": 0.0, "unit": unit}
                   for name, unit in catalogue.items()}
    elif args.trace:
        record.update(config=outcome["config"], samples=outcome["samples"])
        values = dict(outcome["layers"])
        values["host.cal_ms"] = host["cal_ms"]
        values["host.parallelism"] = host["parallelism"]
        for name, (_unit, absent) in PER_LAYER.items():
            values.setdefault(name, absent)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _absent) in PER_LAYER.items()
        }
        ledger = spans.ledger(wall_s)
        overhead = _overhead(outcome["unit_wall"])
        record["ledger"] = ledger
        record["tracing_overhead"] = overhead
        print(format_ledger(args.workload, ledger, overhead))
        spans.dump(os.path.join(
            RUNS_DIR, f"spans-{args.workload}-{args.seed}.json"
        ))
    else:
        record.update(config=outcome["config"], samples=outcome["samples"])
        values = dict(outcome["e2e"])
        values["ok_ratio"] = (attempted - failed) / attempted
        values["peak_rss_mb"] = peak_rss_mb()
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    print("record " + json.dumps(record, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(started=_STARTED))
