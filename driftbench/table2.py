"""The Table 2 path of one analog, for the traced run of an exec workload.

``ParallelizationFramework().evaluate`` runs once on the analog's
committed inputs, then ``evaluate`` is rebuilt from its public calls under
the benchmark's spans (profiling, speculation planning, task graph,
simulation).  Both must reproduce the analog's committed Table 2 row in
``benchmarks/results.json`` (best speedup and the thread count it first
occurs at), and the rebuilt speedup curve must equal ``evaluate()``'s own.
"""

from __future__ import annotations

import json
import os
from typing import Dict

from common import ROOT, Oracle

RESULTS = os.path.join(ROOT, "benchmarks", "results.json")
#: Layers of the rebuilt path: span name -> per-layer metric.
PHASES = {
    "profiling.trace": "profiling.trace_s",
    "profiling.candidates": "profiling.candidates_s",
    "speculation.plan": "speculation.plan_s",
    "core.graph": "core.graph_s",
    "core.simulate": "core.simulate_s",
}


def committed_row(analog: str) -> tuple:
    with open(RESULTS) as handle:
        row = json.load(handle)["table2"]["rows"][analog]
    return row["threads"], row["speedup"]


def table_row(report) -> tuple:
    """A speedup report as its committed Table 2 row."""
    return report.best_threads, round(report.speedup_at_best, 3)


def rebuilt_curve(framework, workload, spans) -> Dict[int, float]:
    """``evaluate()``'s speedup curve, from its public calls, under spans."""
    from repro.core.simulator import PipelineSimulator
    from repro.core.tasks import TaskGraph
    from repro.profiling.branch_profile import BranchProfile
    from repro.profiling.memory_profile import MemoryProfile
    from repro.profiling.value_profile import ValueProfile
    from repro.speculation.manager import plan_from_profile
    from repro.speculation.misspec import analyze_misspeculation

    config = framework.config
    with spans.span("profiling.trace"):
        sequential, sequential_output = framework.profile_workload(
            workload, parallel_policy=False
        )
        if workload.uses_ybranch and config.engage_ybranch:
            parallel, parallel_output = framework.profile_workload(
                workload, parallel_policy=True
            )
        else:
            parallel, parallel_output = sequential, sequential_output
    with spans.span("speculation.plan"):
        profile = MemoryProfile(parallel, honor_commutative=config.enable_commutative)
        plan = plan_from_profile(
            profile,
            synchronize_rate_threshold=workload.synchronize_rate_threshold,
            forced_synchronized=workload.forced_synchronized(),
            forced_speculated=workload.forced_speculated(),
        )
        analyze_misspeculation(profile, plan)
    with spans.span("core.graph"):
        graph = TaskGraph.from_trace(parallel, profile, plan)
    curve = {}
    with spans.span("core.simulate"):
        for threads in config.thread_counts:
            result = PipelineSimulator(config.machine.with_cores(threads)).simulate(graph)
            curve[threads] = (
                sequential.total_cost / result.makespan if result.makespan else 1.0
            )
    with spans.span("profiling.candidates"):
        ValueProfile(parallel).speculation_candidates()
        [s for s in BranchProfile(parallel).speculation_candidates() if not s.is_ybranch]
    workload.compare_outputs(sequential_output, parallel_output)
    return curve


def probe(analog: str, spans, oracle: Oracle) -> dict:
    """Per-layer seconds of one rebuilt evaluation of ``analog``, checked
    against ``evaluate()`` and the committed Table 2 row."""
    from repro.core.framework import ParallelizationFramework
    from repro.core.report import SpeedupReport
    from repro.workloads.suite import SUITE

    expected = committed_row(analog)
    framework = ParallelizationFramework()
    with spans.span("table2.build"):
        workload = SUITE[analog]()
    with spans.span("table2.evaluate"):
        evaluation = framework.evaluate(workload)
    oracle.check(table_row(evaluation.report), expected=expected)
    with spans.span("table2.rebuilt"):
        curve = rebuilt_curve(framework, workload, spans)
    oracle.check(curve, expected=dict(evaluation.report.curve))
    oracle.check(table_row(SpeedupReport(name=analog, curve=curve)), expected=expected)
    return {metric: sum(spans.durations(name)) for name, metric in PHASES.items()}
