"""The parent-process half of the sharded execution plane.

A :class:`ShardedPool` owns N forked workers (``repro.parallel.worker``),
one private task queue each plus one shared result queue.  Work arrives
as whole units — ``(target, kwargs)`` calls named by dotted path — and
comes back in unit order, so callers merge results exactly as a serial
loop would have produced them.

A unit that errors, times out, or dies with its worker comes back as a
:class:`CallError` in its slot while every other unit still answers;
the caller redoes just that unit.  Dead workers are respawned during
collection, so one crash never disables the pool.
"""

from __future__ import annotations

import multiprocessing
import queue as _queue
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.instrument import get_default
from repro.parallel.worker import worker_main


#: Seconds a :meth:`ShardedPool.run_calls` waits before every unit still
#: unanswered becomes a :class:`CallError`.
CALL_TIMEOUT = 120.0


class CallError:
    """One unit failed in its worker (the others are fine)."""

    __slots__ = ("message",)

    def __init__(self, message: str) -> None:
        self.message = message

    def __repr__(self) -> str:
        return f"CallError({self.message!r})"


class _Worker:
    """One slot in the pool: process and task queue."""

    __slots__ = ("index", "process", "tasks")

    def __init__(self, index: int, ctx: Any, results: Any) -> None:
        self.index = index
        self.tasks = ctx.Queue()
        self.process = ctx.Process(
            target=worker_main,
            args=(index, self.tasks, results),
            name=f"repro-parallel-{index}",
            daemon=True,
        )
        self.process.start()


class ShardedPool:
    """N forked workers executing whole units by dotted name."""

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError(f"a pool needs at least 2 workers, got {workers}")
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # non-POSIX hosts: picklable args make spawn fine
            self._ctx = multiprocessing.get_context("spawn")
        self._results = self._ctx.Queue()
        self._workers: List[_Worker] = [
            _Worker(index, self._ctx, self._results) for index in range(workers)
        ]
        self._task_counter = 0
        self._closed = False
        #: Optional callable fed every worker telemetry payload (the
        #: ``("obs", ...)`` messages streamed over the result queue by
        #: ``repro.obs.live``).  ``None`` — the default — drops them.
        self.telemetry_sink: Optional[Any] = None
        self.stats: Dict[str, int] = {
            "calls": 0,
            "worker_failures": 0,
            "telemetry_updates": 0,
        }

    @property
    def size(self) -> int:
        return len(self._workers)

    def alive(self) -> bool:
        return not self._closed and all(
            w.process.is_alive() for w in self._workers
        )

    # -- failure handling --------------------------------------------------

    def _record_failure(self, worker: _Worker, reason: str) -> None:
        self.stats["worker_failures"] += 1
        obs = get_default()
        if obs.enabled:
            obs.registry.counter(
                "parallel.worker_failures", reason=reason
            ).inc()

    def _respawn(self, slot: int) -> None:
        """Replace a dead worker; the replacement starts cold."""
        old = self._workers[slot]
        if old.process.is_alive():
            old.process.terminate()
        old.process.join(timeout=1.0)
        # The dead worker's queue may hold pickled units its feeder
        # thread can no longer flush; without cancel_join_thread the
        # feeder's exit-time join would hang the whole process.
        old.tasks.cancel_join_thread()
        old.tasks.close()
        self._workers[slot] = _Worker(slot, self._ctx, self._results)

    def inject_crash(self, slot: int) -> None:
        """Fault injection for tests: queue an ``os._exit`` in one worker."""
        self._workers[slot].tasks.put(("crash",))

    # -- calls -------------------------------------------------------------

    def run_calls(
        self, calls: Sequence[Tuple[str, Dict[str, Any]]]
    ) -> List[Any]:
        """Run ``(target, kwargs)`` units across workers, results in order.

        Unit *i* goes to worker ``i % size``.  A unit that fails (or dies
        with its worker, or outlives :data:`CALL_TIMEOUT`) comes back as
        a :class:`CallError` in its slot.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        task_id = self._next_task_id()
        pending: Dict[int, int] = {}
        for chunk, (target, kwargs) in enumerate(calls):
            worker = self._workers[chunk % len(self._workers)]
            worker.tasks.put(("call", task_id, chunk, target, kwargs))
            pending[chunk] = worker.index
        self.stats["calls"] += len(calls)
        replies = self._collect(task_id, pending)
        return [replies[chunk] for chunk in range(len(calls))]

    # -- telemetry ---------------------------------------------------------

    def _ingest_telemetry(self, payload: Any) -> None:
        sink = self.telemetry_sink
        if sink is None:
            return
        self.stats["telemetry_updates"] += 1
        try:
            sink(payload)
        except Exception:
            pass  # a live view must never take down the run it observes

    def drain_telemetry(self, timeout: float = 0.2) -> int:
        """Route queued telemetry with no task pending; returns count routed.

        ``_collect`` only reads the result queue while units are
        outstanding, so worker streamers' final flush ticks (sent when
        their last unit ends) would otherwise sit unread.  Callers that
        want a complete live view call this once after the last
        :meth:`run_calls`.
        """
        routed = 0
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                message = self._results.get(timeout=0.02)
            except _queue.Empty:
                continue
            if message[0] == "obs":
                self._ingest_telemetry(message[3])
                routed += 1
            # Non-obs messages here are stale replies from aborted
            # tasks; dropping them matches _collect's policy.
        return routed

    # -- collection --------------------------------------------------------

    def _next_task_id(self) -> int:
        self._task_counter += 1
        return self._task_counter

    def _collect(self, task_id: int, pending: Dict[int, int]) -> Dict[int, Any]:
        """Drain the result queue until every pending unit is answered.

        Errors, worker deaths and the :data:`CALL_TIMEOUT` deadline each
        turn the affected units into :class:`CallError` replies.
        """
        replies: Dict[int, Any] = {}
        deadline = time.monotonic() + CALL_TIMEOUT
        while pending:
            try:
                message = self._results.get(timeout=0.05)
            except _queue.Empty:
                dead = {
                    slot
                    for slot in set(pending.values())
                    if not self._workers[slot].process.is_alive()
                }
                for slot in dead:
                    self._record_failure(self._workers[slot], "crash")
                    self._respawn(slot)
                    lost = [c for c, s in pending.items() if s == slot]
                    for chunk in lost:
                        del pending[chunk]
                        replies[chunk] = CallError(
                            f"worker {slot} died holding chunk {chunk}"
                        )
                if time.monotonic() > deadline:
                    for chunk, slot in list(pending.items()):
                        replies[chunk] = CallError(
                            f"chunk {chunk} timed out on worker {slot}"
                        )
                    pending.clear()
                continue
            status, reply_task, chunk, payload = message
            if status == "obs":
                # Telemetry rides the result pipe: route to the live
                # aggregator (if one is attached) and keep collecting.
                self._ingest_telemetry(payload)
                continue
            if reply_task != task_id or chunk not in pending:
                continue  # stale reply from an aborted earlier task
            pending.pop(chunk)
            replies[chunk] = payload if status == "ok" else CallError(str(payload))
        return replies

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.tasks.put(("stop",))
            except (ValueError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            worker.tasks.cancel_join_thread()
            worker.tasks.close()
        self._results.cancel_join_thread()
        self._results.close()
