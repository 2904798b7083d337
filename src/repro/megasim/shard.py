"""Sharding megasim over the ``repro.parallel`` execution plane.

The parent (:class:`ShardedRun`) drives one ``run_epoch`` conformance
call per shard per epoch through
:meth:`~repro.parallel.pool.ShardedPool.run_calls`.  Shard *i* always
rides chunk *i*, and the pool assigns chunk ``i`` to worker ``i %
size`` — so a shard lands on the same worker every epoch and its
:class:`~repro.megasim.engine.ShardEngine` lives in a worker-side cache
keyed by ``(run token, shard)``.

Workers are allowed to die (the pool respawns them cold) or to answer
an epoch for a shard they have never seen.  The protocol recovers
deterministically instead of approximately:

* every engine knows ``next_epoch``; a cache hit positioned at the
  wrong epoch is treated as a miss, never silently advanced;
* a miss at epoch > 0 answers ``{"status": "cold"}``; the parent — who
  keeps every shard's full inbox history — reissues the call with that
  history, and the worker rebuilds the shard by replaying epochs
  ``0..k-1`` from scratch (plans are pure hashes, so the replay is
  exact) before running epoch ``k``.

Messages cross the barrier as ``(n, 3)`` int64 arrays of ``(dst, src,
kind)`` rows, pickled as they are; the parent concatenates the shards'
outboxes, and sorts and splits them once
(:func:`~repro.megasim.engine.route`), so every shard sees the same
inbox a serial run would have delivered.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Any, Dict, List, Optional, Sequence

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
_tokens = itertools.count()

# Worker-side shard cache: (token, shard index) -> engine.
_SHARDS: Dict[Any, ShardEngine] = {}


def reset_cache() -> int:
    """Drop every cached shard engine (tests); returns how many."""
    count = len(_SHARDS)
    _SHARDS.clear()
    return count


def run_epoch(
    token: str,
    shard: int,
    shards: int,
    epoch: int,
    inbox: Any,
    config: Dict[str, Any],
    history: Optional[Sequence[Any]] = None,
) -> Dict[str, Any]:
    """The worker-side entry point: advance one shard by one epoch.

    Runs in a pool worker via the ``"call"`` task protocol, but is a
    plain function — the cold-rebuild tests drive it in-process too.
    """
    key = (token, shard)
    engine = _SHARDS.get(key)
    if engine is not None and engine.next_epoch != epoch:
        # This worker missed an epoch (a retry ran it elsewhere) or
        # holds a finished run's namesake.  Never guess: rebuild.
        engine = None
    if engine is None:
        if epoch > 0 and history is None:
            return {"status": "cold", "shard": shard}
        run_config = RunConfig(**config)
        lo, hi = shard_bounds(run_config.machines, shards)[shard]
        engine = ShardEngine(run_config, lo, hi)
        for past_epoch, past_inbox in enumerate(history or ()):
            engine.step(past_epoch, past_inbox)
        _SHARDS[key] = engine
    result = engine.step(epoch, inbox)
    return {
        "status": "ok",
        "shard": shard,
        "fired": result.fired,
        "emitted": result.emitted,
        "digest": result.digest,
        "outbox": result.outbox,
    }


class ShardedRun:
    """The parent half: one megasim run fanned over a worker pool."""

    def __init__(self, config: RunConfig, pool: ShardedPool) -> None:
        self.config = config
        self.pool = pool
        # One shard per worker; tiny populations clamp the count.
        self.bounds = shard_bounds(config.machines, pool.size)
        self.shards = len(self.bounds)
        self.token = f"megasim-{os.getpid()}-{next(_tokens)}"
        self._config_dict = config.to_dict()
        # Inbox history per shard, one entry per completed epoch — the
        # replay log a cold worker rebuilds from.
        self.history: List[List[Any]] = [[] for _ in range(self.shards)]
        self.inboxes: List[Any] = [[] for _ in range(self.shards)]
        self.rebuilds = 0

    def _calls(
        self, epoch: int, shard_list: Sequence[int], with_history: bool
    ) -> List[Any]:
        calls = []
        for shard in shard_list:
            kwargs: Dict[str, Any] = {
                "token": self.token,
                "shard": shard,
                "shards": self.shards,
                "epoch": epoch,
                "inbox": self.inboxes[shard],
                "config": self._config_dict,
            }
            if with_history:
                kwargs["history"] = self.history[shard]
            calls.append((_TARGET, kwargs))
        return calls

    def step(self, epoch: int) -> EpochResult:
        """Advance every shard one epoch; returns the global result."""
        replies = self.pool.run_calls(self._calls(epoch, range(self.shards), False))
        retry = [
            shard
            for shard, reply in enumerate(replies)
            if isinstance(reply, CallError)
            or (isinstance(reply, dict) and reply.get("status") != "ok")
        ]
        if retry:
            # Cold or crashed shards: reissue with the full inbox
            # history so the worker can replay the shard from epoch 0.
            self.rebuilds += len(retry)
            for shard, reply in zip(
                retry, self.pool.run_calls(self._calls(epoch, retry, True))
            ):
                replies[shard] = reply
        for shard, reply in enumerate(replies):
            if isinstance(reply, CallError) or not (
                isinstance(reply, dict) and reply.get("status") == "ok"
            ):
                raise RuntimeError(
                    f"megasim shard {shard} failed after rebuild: {reply!r}"
                )
        result = combine(
            [
                EpochResult(
                    fired=reply["fired"],
                    emitted=reply["emitted"],
                    delivered=len(inbox),
                    digest=reply["digest"],
                    outbox=reply["outbox"],
                )
                for reply, inbox in zip(replies, self.inboxes)
            ]
        )
        for shard in range(self.shards):
            self.history[shard].append(self.inboxes[shard])
        self.inboxes = route(result.outbox, self.bounds)
        return result


def run_sharded(config: RunConfig, pool: ShardedPool) -> RunResult:
    """Run a full scenario over ``pool``; transcript matches the serial run."""
    started = time.perf_counter()
    return run_epochs(config, ShardedRun(config, pool).step, started)
