"""The A/B/C pipeline on the thread transport: interleavings, in-order
commit, and error propagation.

``ExecutionEngine(transport="thread")`` runs the producer and the
replicated workers as threads of the calling process; these tests check
that its outputs are bit-identical to the sequential loop for any worker
count and channel capacity, that phase C commits strictly in iteration
order, and that stage exceptions reach the caller.
"""

import threading
import time

import pytest

from repro.exec import ExecutionEngine, PipelineSpec


def run_sequentially(iterations, produce, work):
    out = []
    for i in range(iterations):
        out.append(work(i, produce(i)))
    return out


def run_threaded(iterations, produce, work, commit, **engine_options):
    """Run the pipeline on threads; ``commit(i, result)`` is phase C."""
    spec = PipelineSpec(
        iterations=iterations,
        produce=produce,
        work=work,
        commit=lambda i, result, acc: commit(i, result),
    )
    engine = ExecutionEngine(transport="thread", **engine_options)
    return engine.run(spec)


class TestPipelineRuntime:
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    @pytest.mark.parametrize("capacity", [1, 4, 32])
    def test_outputs_equal_sequential(self, workers, capacity):
        produce = lambda i: i * 3
        work = lambda i, v: (v * v + i) % 1009
        expected = run_sequentially(200, produce, work)

        committed = []
        run_threaded(
            200, produce, work, lambda i, r: committed.append((i, r)),
            workers=workers, capacity=capacity,
        )
        assert [r for _, r in committed] == expected
        # Phase C saw iterations strictly in order.
        assert [i for i, _ in committed] == list(range(200))

    def test_all_workers_participate(self):
        gate = threading.Barrier(4, timeout=10)

        def slowish(i, v):
            if i < 4:
                gate.wait()  # forces 4 concurrent workers at the start
            return v + 1

        committed = []
        # batch_size=1: each worker claims one item, so the first four
        # iterations land on four different workers.
        result = run_threaded(
            64, lambda i: i, slowish, lambda i, r: committed.append(r),
            workers=4, capacity=8, batch_size=1,
        )
        assert len(result.metrics.worker_iterations) == 4
        assert sum(result.metrics.worker_iterations.values()) == 64
        assert committed == [i + 1 for i in range(64)]

    def test_commit_order_despite_reordering(self):
        def jittery(i, v):
            if i % 7 == 0:
                time.sleep(0.001)  # let later iterations overtake
            return v

        committed = []
        run_threaded(
            100, lambda i: i, jittery, lambda i, r: committed.append(i),
            workers=4, capacity=16,
        )
        assert committed == list(range(100))

    def test_worker_exception_propagates(self):
        """A task that raises is a soft fault; its serial re-execution in
        the committer raises again, into the caller."""
        def explode(i, v):
            if i == 10:
                raise RuntimeError("boom at 10")
            return v

        with pytest.raises(RuntimeError, match="boom"):
            run_threaded(
                32, lambda i: i, explode, lambda i, r: None,
                workers=2, capacity=4,
            )

    def test_producer_exception_propagates(self):
        """A producer that raises kills phase A; the engine degrades to
        sequential, whose phase-A replay raises again, into the caller."""
        def bad_produce(i):
            if i == 5:
                raise ValueError("bad input")
            return i

        with pytest.raises(ValueError, match="bad input"):
            run_threaded(
                32, bad_produce, lambda i, v: v, lambda i, r: None,
                workers=2, capacity=4,
            )

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ExecutionEngine(workers=0, transport="thread")

    def test_commutative_side_effects_any_order(self):
        """A Commutative counter bumped from phase B: total is exact even
        though the order of bumps is nondeterministic."""
        lock = threading.Lock()
        counter = [0]

        def bump(i, v):
            with lock:  # the atomicity Commutative demands
                counter[0] += 1
            return v

        run_threaded(
            300, lambda i: i, bump, lambda i, r: None,
            workers=8, capacity=8,
        )
        assert counter[0] == 300
