"""The benchmark's own tests: every workload at a tiny size, the ledger,
the oracle, hygiene, and the refusal to run outside a checkout.

Run from the root of a checkout: ``python3 -m pytest -q driftbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import common  # noqa: E402
import exec_bench  # noqa: E402
import run  # noqa: E402
import serve_bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.fixture
def tiny(monkeypatch):
    """One set-up launch per run, one server segment, and a short wire
    probe."""
    monkeypatch.setattr(exec_bench, "SETUP_LAUNCHES", 1)
    monkeypatch.setattr(exec_bench, "WIRE_ITEMS", 200)
    monkeypatch.setattr(serve_bench, "SEGMENTS", 1)
    monkeypatch.setattr(serve_bench, "BOUNDARY_SAMPLES", 1)


def _run(capsys, workload, trace, corrupt=None):
    code = run.main(
        ["--workload", workload, "--seed", "7", "--seconds", "0.1",
         "--trace", str(trace)],
        corrupt=corrupt,
    )
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    return code, json.loads(lines[-1]), out


def test_metric_catalogue_matches_benchmark_json():
    assert run.END_TO_END == END_TO_END
    assert {name: unit for name, (unit, _) in run.PER_LAYER.items()} == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(tiny, capsys, workload, trace):
    code, result, out = _run(capsys, workload, trace)
    assert code == 0, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name], name
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
        for name in END_TO_END:
            assert result["metrics"][name]["value"] > 0, name
    record = json.loads(
        next(line for line in out.splitlines() if line.startswith("record "))[7:]
    )
    host = record["host"]
    assert host["cpus"] and host["python"]
    assert host["cal_ms"] > 0 and host["parallelism"] > 0
    assert record["config"] and record["leaks"] == []
    assert not os.listdir(common.RUNS_DIR) or all(
        name.startswith("spans-") for name in os.listdir(common.RUNS_DIR)
    )


def test_ledger_states_its_residual(tiny, capsys):
    code, _result, out = _run(capsys, "exec-parser", 1)
    assert code == 0
    assert "residual (wall - sum)" in out and "tracing overhead" in out
    record = json.loads(
        next(line for line in out.splitlines() if line.startswith("record "))[7:]
    )
    ledger = record["ledger"]
    assert ledger["sum_s"] == pytest.approx(sum(ledger["layers"].values()))
    assert ledger["sum_s"] + ledger["residual_s"] == pytest.approx(ledger["wall_s"])
    assert 0 <= ledger["residual_s"] < 0.05 * ledger["wall_s"]
    assert "exec.run" in ledger["layers"] and "setup.launch" in ledger["layers"]


def test_ledger_weights_concurrent_client_threads():
    spans = common.Spans(enabled=True)
    with spans.span("loop") as loop:
        import threading

        def client():
            with spans.span("client", parent=loop, weight=0.5):
                with spans.span("work"):
                    time.sleep(0.05)

        threads = [threading.Thread(target=client) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    (loop_record,) = [r for r in spans.records if r["name"] == "loop"]
    wall = loop_record["t1"] - loop_record["t0"]
    ledger = spans.ledger(wall)
    assert ledger["sum_s"] == pytest.approx(wall)
    assert ledger["residual_s"] == pytest.approx(0.0, abs=1e-9)
    assert ledger["layers"]["work"] == pytest.approx(0.05, rel=0.5)


def test_oracle_trips_on_a_corrupted_output(tiny, capsys):
    def corrupt(output):
        return {"corrupted": output}

    code, result, _out = _run(capsys, "exec-parser", 0, corrupt=corrupt)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_oracle_counts_mismatches():
    tally = common.Tally()
    oracle = common.Oracle({"sum": 3}, tally)
    assert oracle.check({"sum": 3})
    assert not oracle.check({"sum": 4})
    assert not oracle.check({"sum": 3}, ok=False)
    assert oracle.check((1, 2.0), expected=(1, 2.0))
    assert not oracle.record(False)
    assert (tally.attempted, tally.failed) == (5, 3)


class _CrashingEngine:
    def run(self, spec):
        raise RuntimeError("engine crashed")


def test_a_crashing_engine_is_a_failed_operation(tiny, capsys, monkeypatch):
    monkeypatch.setattr(exec_bench, "new_engine", lambda **_: _CrashingEngine())
    code, result, _out = _run(capsys, "exec-parser", 0)
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] >= result["failed"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)


def test_a_crash_outside_any_operation_still_reports(tiny, capsys, monkeypatch):
    def broken(seed):
        raise RuntimeError("inputs could not be built")

    monkeypatch.setattr(exec_bench, "build_workload", broken)
    code, result, _out = _run(capsys, "exec-parser", 1)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert set(result["metrics"]) == set(PER_LAYER)


def test_engine_is_built_with_the_cli_defaults():
    common.require_checkout()
    from repro.__main__ import _build_parser
    from repro.exec import ExecutionEngine

    defaults = _build_parser().parse_args(["exec", "197.parser"])
    reference = ExecutionEngine(
        workers=defaults.workers, capacity=defaults.capacity,
        batch_size=defaults.batch_size, flush_interval=defaults.flush_interval,
        transport=defaults.transport,
    )
    engine = exec_bench.new_engine()
    for key in ("workers", "capacity", "batch_size", "flush_interval", "transport"):
        assert getattr(engine, key) == getattr(reference, key), key


def test_spaced_spreads_launches_through_the_window():
    assert common.spaced(10.0, 20.0, 4) == [11.25, 13.75, 16.25, 18.75]


def test_hygiene_counts_and_kills_a_leaked_child(tmp_path):
    hygiene = common.Hygiene()
    leaked = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        state = tmp_path / "state"
        state.mkdir()
        hygiene.check(str(state), settle_s=0.2)
        assert hygiene.failed == 1
        assert f"child process {leaked.pid}" in hygiene.leaks
        assert not state.exists()
        with pytest.raises(ProcessLookupError):
            os.kill(leaked.pid, 0)
    finally:
        if leaked.poll() is None:
            leaked.kill()
            leaked.wait()


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "driftbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "driftbench/run.py", "--workload", "exec-parser",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "not a checkout" in proc.stderr
    assert time.monotonic() - started < 30
