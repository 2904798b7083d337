"""Sharding megasim over the ``repro.parallel`` execution plane.

One epoch of one shard is one call of :func:`run_epoch`, a pure
function of its arguments: the run config, the shard's ``[lo, hi)``,
the epoch, its inbox, and the shard's state as the previous epoch left
it (the population's int16 ``state_ids`` and int64 ``values``; none at
epoch 0).  It builds a fresh
:class:`~repro.megasim.engine.ShardEngine`, loads that state, runs one
step, and returns the epoch's sums, its outbox and the new state.

The parent (:class:`ShardedRun`) keeps only each shard's current state
and next inbox.  With a :class:`~repro.parallel.pool.ShardedPool`, an
epoch is one :meth:`~repro.parallel.pool.ShardedPool.run_calls`; a call
that comes back as a :class:`~repro.parallel.pool.CallError` (its
worker raised, died or timed out) runs again in this process with the
same arguments, the rule :func:`repro.conformance.runner.run_all`
follows.  Without a pool every call runs in this process
(:func:`run_partitioned`), so the invariance tests at any shard count
run the code a worker runs.

Messages cross the barrier as ``(n, 3)`` int64 arrays of ``(dst, src,
kind)`` rows, pickled as they are; the parent concatenates the shards'
outboxes, and sorts and splits them once
(:func:`~repro.megasim.engine.route`), so every shard sees the same
inbox a serial run would have delivered.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.parallel.pool import CallError, ShardedPool

from repro.megasim.engine import (
    EpochResult,
    RunConfig,
    RunResult,
    ShardEngine,
    combine,
    route,
    run_epochs,
    shard_bounds,
)

_TARGET = "repro.megasim.shard:run_epoch"

#: A shard's state between epochs: its population's ``(state_ids, values)``.
State = Tuple[np.ndarray, np.ndarray]


def run_epoch(
    config: Dict[str, Any],
    lo: int,
    hi: int,
    epoch: int,
    inbox: Any,
    state: Optional[State] = None,
) -> Tuple[EpochResult, State]:
    """Advance machines ``[lo, hi)`` by one epoch: a pure function.

    ``state`` is what the previous epoch's call returned, or ``None`` at
    epoch 0, which starts from the workload's initial state.  Returns the
    epoch's result and the population's state after it.  The call never
    writes its arguments, so one that failed in a worker can run again
    anywhere with the same arguments.
    """
    engine = ShardEngine(RunConfig(**config), lo, hi)
    population = engine.population
    if state is not None:
        # In place: the population's miss-chain steps close over these arrays.
        population.state_ids[:], population.values[:] = state
    return engine.step(epoch, inbox), (population.state_ids, population.values)


class ShardedRun:
    """The parent half: one megasim run's shards, advanced epoch by epoch."""

    def __init__(
        self, config: RunConfig, shards: int, pool: Optional[ShardedPool] = None
    ) -> None:
        self.config = config
        self.pool = pool
        # Tiny populations clamp the shard count.
        self.bounds = shard_bounds(config.machines, shards)
        self._config_dict = config.to_dict()
        self.states: List[Optional[State]] = [None] * len(self.bounds)
        self.inboxes: List[Any] = [[] for _ in self.bounds]
        self.reruns = 0  # pooled calls that failed and ran again here

    def step(self, epoch: int) -> EpochResult:
        """Advance every shard one epoch; returns the global result."""
        calls = [
            (
                _TARGET,
                {
                    "config": self._config_dict,
                    "lo": lo,
                    "hi": hi,
                    "epoch": epoch,
                    "inbox": inbox,
                    "state": state,
                },
            )
            for (lo, hi), inbox, state in zip(self.bounds, self.inboxes, self.states)
        ]
        if self.pool is None:
            replies = [run_epoch(**kwargs) for _, kwargs in calls]
        else:
            replies = self.pool.run_calls(calls)
            for shard, reply in enumerate(replies):
                if isinstance(reply, CallError):
                    self.reruns += 1
                    replies[shard] = run_epoch(**calls[shard][1])
        self.states = [state for _, state in replies]
        result = combine([result for result, _ in replies])
        self.inboxes = route(result.outbox, self.bounds)
        return result


def run_partitioned(config: RunConfig, shards: int) -> RunResult:
    """Run ``shards`` shards in this process, each epoch the calls a pool runs."""
    started = time.perf_counter()
    return run_epochs(config, ShardedRun(config, shards).step, started)


def run_sharded(config: RunConfig, pool: ShardedPool) -> RunResult:
    """Run a full scenario over ``pool``; transcript matches the serial run."""
    started = time.perf_counter()
    return run_epochs(config, ShardedRun(config, pool.size, pool).step, started)
