"""Where the pipeline's stages run: the engine's runtime interface.

Where :mod:`repro.core.simulator` *predicts* the makespan of the paper's
A/B/C pipeline from abstract task costs, the engine *runs* it: one phase-A
producer, N replicated phase-B workers pulling from a bounded channel, and
an in-order committer (phase C) in the calling process.  The committer is
always :class:`~repro.exec.engine.ExecutionEngine`; *where* A and B run is
the runtime's business:

- :class:`LocalRuntime` forks this run's own stages — OS processes (real
  parallelism on real cores; the ``pipe`` and ``shm`` transports) or
  threads of the calling process (the ``thread`` transport: GIL-bound, but
  the same interleavings, crash accounting, and bit-identical output);
- :class:`repro.service.pool.LeaseRuntime` leases long-lived pool workers
  into a slot created once at pool start and reused across jobs.

The duck-typed contract every runtime satisfies:

- attributes ``work``/``done`` (:class:`ProcessChannel`), ``shutdown``
  (cleared event), ``watermark``/``window`` (shared ``Value("l")``),
  ``registry`` (:class:`MetricsRegistry` or None), and ``job_throttle``
  (a :class:`SpeculationThrottle`-shaped controller or None — per-tenant
  persistent in the service);
- ``start_producer(spec, start, batch_size, fault_plan)`` returning a
  process-like handle (``is_alive``/``exitcode``/``terminate``/``kill``/
  ``join``);
- ``workers(snapshot)`` returning ``{wid: handle}`` for the run's phase-B
  workers, seeded from ``snapshot`` (the committed store);
- ``respawn(snapshot)`` returning ``(wid, handle)`` for a replacement
  worker seeded from the committed store as of now (a lease re-sends the
  job's initial snapshot instead — see :mod:`repro.service.pool`);
- ``cancelled()`` polled by the committer loop;
- ``teardown(producer, processes, join_timeout)`` (cooperative),
  ``halt(producer, processes, join_timeout)`` (emergency), and
  ``close()`` (release the channels; a lease's outlive the job).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Dict, Optional, Tuple

from repro.exec.channels import ChannelChaos, ProcessChannel
from repro.exec.faults import FaultPlan
from repro.exec.rollback import Snapshot
from repro.exec.workers import (
    ShutdownGuard,
    ThreadStage,
    producer_main,
    raise_hard_exit,
    worker_main,
)
from repro.obs.events import TraceConfig
from repro.obs.registry import (
    MetricsRegistry,
    WRITER_PRODUCER,
    WRITER_WORKER0,
    writers_for,
)
from repro.resilience.throttle import (
    SpeculationThrottle,
    ThrottleConfig,
    max_window_for,
)


def done_capacity(capacity: int, workers: int, batch_size: int) -> int:
    """Worst-case in-flight done traffic: a claim and a result for every
    item in the transport plus every item held in a worker's chunk, plus
    one "stopped" per worker."""
    return 2 * (capacity + workers * batch_size) + workers + 8


class PipelineSkeleton:
    """The shared primitives a run's stages inherit: the work and done
    channels, the shutdown event, the watermark/window values, and (with
    ``registry_rows``) the live metrics registry.

    Shared primitives reach a child only through its spawn-time arguments,
    so a skeleton exists before any stage starts — per run for a
    :class:`LocalRuntime`, once per slot for the worker pool.
    """

    def __init__(
        self,
        ctx,
        capacity: int,
        workers: int,
        batch_size: int,
        flush_interval: float,
        transport: str,
        registry_rows: Optional[int] = None,
        channel_chaos: Optional[ChannelChaos] = None,
    ) -> None:
        self.work = ProcessChannel(
            capacity, name="work", ctx=ctx, chaos=channel_chaos,
            batch_size=batch_size, flush_interval=flush_interval,
            transport=transport,
        )
        self.done = ProcessChannel(
            done_capacity(capacity, workers, batch_size), name="done",
            ctx=ctx, batch_size=batch_size, flush_interval=flush_interval,
            transport=transport,
        )
        self.shutdown = ctx.Event()
        self.watermark = ctx.Value("l", 0)
        self.window = ctx.Value("l", 0)
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry.create(ctx, registry_rows)
            if registry_rows
            else None
        )


class LocalRuntime(PipelineSkeleton):
    """One run's own producer and workers: processes, or threads under the
    ``thread`` transport — the default runtime of every engine run.

    Process stages see the shutdown event through a
    :class:`ShutdownGuard`, so a SIGKILLed engine cannot strand orphans
    spinning on channel credit — and the last orphan's exit is what lets
    the resource tracker unlink any shm segments the run mapped.  Thread
    stages get per-caller channel views (send buffers never interleave),
    unwind injected crashes through :class:`~repro.exec.workers.HardExit`,
    and run behind :class:`ThreadStage` handles whose ``terminate`` is a
    no-op: a hung thread is abandoned, not killed.
    """

    def __init__(
        self,
        workers: int,
        capacity: int,
        batch_size: int,
        flush_interval: float = 0.005,
        transport: str = "pipe",
        channel_chaos: Optional[ChannelChaos] = None,
        start_method: Optional[str] = None,
        throttle: Optional[ThrottleConfig] = None,
        live: bool = False,
        max_respawns: int = 0,
        trace: Optional[TraceConfig] = None,
    ) -> None:
        ctx = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        super().__init__(
            ctx, capacity, workers, batch_size, flush_interval, transport,
            registry_rows=(
                writers_for(workers, max_respawns) if live else None
            ),
            channel_chaos=channel_chaos,
        )
        self._ctx = ctx
        self._count = workers
        self._threads = transport == "thread"
        self._trace = trace
        self._stage_shutdown = (
            self.shutdown if self._threads
            else ShutdownGuard(self.shutdown, os.getpid())
        )
        self.job_throttle = (
            SpeculationThrottle(
                throttle, max_window_for(workers, capacity, batch_size)
            )
            if throttle is not None and throttle.enabled
            else None
        )
        self._spec = None
        self._fault_plan: Optional[FaultPlan] = None
        self._max_chunk = batch_size
        self._next_wid = 0

    def _channel(self, channel: ProcessChannel) -> ProcessChannel:
        return channel.for_caller() if self._threads else channel

    def _launch(self, target, args: tuple, name: str):
        if self._threads:
            stage = ThreadStage(
                target, args, {"hard_exit": raise_hard_exit}, name=name
            )
        else:
            stage = self._ctx.Process(
                target=target, args=args, name=name, daemon=True
            )
        stage.start()
        return stage

    # -- lifecycle ------------------------------------------------------------

    def start_producer(self, spec, *, start: int, batch_size: int,
                       fault_plan: Optional[FaultPlan]):
        self._spec = spec
        self._fault_plan = fault_plan
        self._max_chunk = batch_size
        return self._launch(
            producer_main,
            (self._channel(self.work), spec.iterations, spec.produce,
             fault_plan, self._stage_shutdown, start, batch_size,
             self._trace, self.registry, WRITER_PRODUCER),
            name="exec-A",
        )

    def workers(self, snapshot: Snapshot) -> Dict[int, Any]:
        return dict(self.respawn(snapshot) for _ in range(self._count))

    def respawn(self, snapshot: Snapshot) -> Tuple[int, Any]:
        wid = self._next_wid
        self._next_wid += 1
        # Every worker that ever exists gets its own counter row; clamp
        # defensively so an overrun aliases the last row instead of
        # corrupting foreign memory.
        row = WRITER_WORKER0 + wid
        if self.registry is not None and row >= self.registry.writers:
            row = self.registry.writers - 1
        spec = self._spec
        return wid, self._launch(
            worker_main,
            (wid, self._channel(self.work), self._channel(self.done),
             spec.work, spec.speculative, snapshot, self._fault_plan,
             self._stage_shutdown, self.watermark, self.window,
             self._max_chunk, self._trace, self.registry, row),
            name=f"exec-B{wid}",
        )

    def cancelled(self) -> bool:
        return False

    def teardown(self, producer, processes, join_timeout: float) -> None:
        """Normal completion: let the stages observe shutdown and exit."""
        deadline = time.monotonic() + join_timeout
        stages = [producer] + [p for p in processes.values() if p is not None]
        while time.monotonic() < deadline:
            # Keep draining so a worker blocked on a full done channel can
            # finish its put and see the shutdown event.
            self.done.drain()
            if not any(stage.is_alive() for stage in stages):
                break
            time.sleep(0.01)
        self.halt(producer, processes, join_timeout)

    def halt(self, producer, processes, join_timeout: float) -> None:
        """Emergency stop: terminate and reap every stage, unconditionally.

        Cooperative shutdown is not enough here: with no consumer left a
        worker can be blocked mid-put (credit starvation polls forever), so
        stragglers are terminated, then killed if SIGTERM does not take —
        nothing may outlive the run and keep touching its shared state.
        """
        stages = [producer] + [p for p in processes.values() if p is not None]
        for stage in stages:
            if stage.is_alive():
                stage.terminate()
        for stage in stages:
            stage.join(join_timeout)
            if stage.is_alive():
                stage.kill()
                stage.join(join_timeout)

    def close(self) -> None:
        for channel in (self.work, self.done):
            channel.close()
