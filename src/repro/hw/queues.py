"""Core-to-core communication queues.

Two views of the same hardware:

- :class:`BoundedQueue` — an executable FIFO with capacity semantics, used
  by the runtime-correctness tests and the DSWP multithreaded-code-generation
  examples (a producer stage blocks on full, a consumer on empty — the
  "synchronization array" behaviour of Rangan et al. [26]);
- :class:`TimedQueueModel` — the performance-simulation view: given the
  *times* of produces and consumes it answers "when may the k-th produce
  complete?" under the capacity bound, which is exactly the full/empty
  condition the paper's simulator models on its 256 32-entry queues.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, List, Optional, TypeVar

T = TypeVar("T")


class QueueFullError(RuntimeError):
    """Non-blocking produce on a full queue."""


class QueueEmptyError(RuntimeError):
    """Non-blocking consume on an empty queue."""


class BoundedQueue(Generic[T]):
    """An executable bounded FIFO with occupancy statistics."""

    def __init__(self, capacity: int = 32, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._items: Deque[T] = deque()
        self.produces = 0
        self.consumes = 0
        self.full_rejections = 0
        self.empty_rejections = 0
        self.max_occupancy = 0

    def produce(self, item: T) -> None:
        if self.full:
            self.full_rejections += 1
            raise QueueFullError(f"queue {self.name or id(self)} full at {self.capacity}")
        self._items.append(item)
        self.produces += 1
        self.max_occupancy = max(self.max_occupancy, len(self._items))

    def try_produce(self, item: T) -> bool:
        if self.full:
            self.full_rejections += 1
            return False
        self._items.append(item)
        self.produces += 1
        self.max_occupancy = max(self.max_occupancy, len(self._items))
        return True

    def consume(self) -> T:
        if self.empty:
            self.empty_rejections += 1
            raise QueueEmptyError(f"queue {self.name or id(self)} empty")
        self.consumes += 1
        return self._items.popleft()

    def try_consume(self) -> Optional[T]:
        if self.empty:
            self.empty_rejections += 1
            return None
        self.consumes += 1
        return self._items.popleft()

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"BoundedQueue({self.name!r}, {len(self._items)}/{self.capacity})"


class TimedQueueModel:
    """Occupancy-over-time model of one bounded queue.

    The performance simulator records the time of each produce and each
    consume.  The capacity bound means produce *k* (0-based) may not complete
    before consume *k - capacity* has happened: the producer stalls on a full
    queue.  Symmetrically consume *k* may not happen before produce *k*.

    The model is intentionally order-strict (FIFO tokens); the DSWP execution
    plans produce and consume iteration tokens in order per queue.
    """

    def __init__(self, capacity: int = 32, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._produce_times: List[int] = []
        self._consume_times: List[int] = []
        self.stall_time = 0

    def earliest_produce_completion(self, ready_time: int) -> int:
        """When the next produce may complete, given it is ready at ``ready_time``."""
        k = len(self._produce_times)
        blocked_until = ready_time
        backlog_index = k - self.capacity
        if backlog_index >= 0:
            if backlog_index >= len(self._consume_times):
                raise QueueFullError(
                    f"queue {self.name}: produce {k} needs consume {backlog_index} "
                    "which has not been recorded — deadlocked schedule"
                )
            blocked_until = max(blocked_until, self._consume_times[backlog_index])
        return blocked_until

    def record_produce(self, ready_time: int) -> int:
        """Record a produce that became ready at ``ready_time``; return its completion time."""
        completion = self.earliest_produce_completion(ready_time)
        self.stall_time += completion - ready_time
        self._produce_times.append(completion)
        return completion

    def earliest_consume(self, ready_time: int) -> int:
        """When the next consume may happen, given the consumer is ready then."""
        k = len(self._consume_times)
        if k >= len(self._produce_times):
            raise QueueEmptyError(
                f"queue {self.name}: consume {k} precedes produce {k} — "
                "deadlocked schedule"
            )
        return max(ready_time, self._produce_times[k])

    def record_consume(self, ready_time: int) -> int:
        moment = self.earliest_consume(ready_time)
        self._consume_times.append(moment)
        return moment

    @property
    def produced(self) -> int:
        return len(self._produce_times)

    @property
    def consumed(self) -> int:
        return len(self._consume_times)

    def occupancy_at_end(self) -> int:
        return self.produced - self.consumed

    def __repr__(self) -> str:
        return (
            f"TimedQueueModel({self.name!r}, produced={self.produced}, "
            f"consumed={self.consumed}, capacity={self.capacity})"
        )
