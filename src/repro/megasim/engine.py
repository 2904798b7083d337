"""The megasim epoch engine: plan → deliver → cohorts → digest.

Time here is an integer epoch, not the simulator's float clock.  Every
epoch, each machine plans one local event from a hash of ``(seed,
epoch, global index)`` and may emit one message; messages are held at
the epoch barrier and delivered at the *start of the next epoch*.
Delivered and local events are batched into per-event cohorts and
dispatched through :class:`~repro.megasim.population.Population`.

Determinism across shard layouts rests on three facts, argued in
``DESIGN.md`` and pinned by ``tests/test_megasim.py``:

* plans hash global identity only — a machine plans the same event in
  any shard;
* a transition writes only its own machine's slot, and events of one
  machine are applied in fixed event-id order (all deliveries of one
  kind before any of the next), so cohort membership — not arrival
  order — determines the outcome;
* the transcript aggregates are sums (events fired, messages emitted,
  digest partials mod 2**64), which are partition- and order-invariant.

Observability is amortized: counters accumulate in locals during the
epoch and flush to the ``megasim.*`` registry counters once per epoch,
keeping the armed-instrumentation overhead inside the repo's ≤1.10x
gate even at millions of events per epoch.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.instrument import Instrumentation, get_default

from repro.megasim.population import Population
from repro.megasim.workloads import Workload, epoch_seed, get_workload

_MASK = (1 << 64) - 1

#: A message at the barrier: (destination, source, kind), global indices.
Message = Tuple[int, int, int]


class StaleShardError(RuntimeError):
    """A shard was asked to run an epoch it is not positioned at."""

    def __init__(self, expected: int, requested: int) -> None:
        super().__init__(
            f"shard is positioned at epoch {expected}, "
            f"cannot run epoch {requested}"
        )
        self.expected = expected
        self.requested = requested


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a megasim run's transcript."""

    workload: str
    machines: int
    epochs: int
    seed: int

    def __post_init__(self) -> None:
        if self.machines < 1:
            raise ValueError(f"need at least one machine, got {self.machines}")
        if self.epochs < 1:
            raise ValueError(f"need at least one epoch, got {self.epochs}")

    def header(self) -> str:
        # Deliberately no worker/shard count: the transcript must be
        # byte-identical however the run is partitioned.
        return (
            f"megasim workload={self.workload} machines={self.machines} "
            f"epochs={self.epochs} seed={self.seed}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class EpochResult:
    """One shard's answer for one epoch."""

    fired: int
    emitted: int
    delivered: int
    digest: int
    outbox: List[Message]


def combine(results: Sequence[EpochResult]) -> EpochResult:
    """One epoch's global result from every shard's: sums and one outbox."""
    return EpochResult(
        fired=sum(result.fired for result in results),
        emitted=sum(result.emitted for result in results),
        delivered=sum(result.delivered for result in results),
        digest=sum(result.digest for result in results) & _MASK,
        outbox=[message for result in results for message in result.outbox],
    )


@dataclass
class RunResult:
    """A finished run: the transcript plus headline numbers."""

    config: RunConfig
    lines: List[str]
    fired: int
    emitted: int
    elapsed: float

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    @property
    def events_per_second(self) -> float:
        return self.fired / self.elapsed if self.elapsed > 0 else 0.0


def shard_bounds(machines: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``range(machines)`` into contiguous balanced shard ranges."""
    shards = max(1, min(shards, machines))
    base, extra = divmod(machines, shards)
    bounds = []
    start = 0
    for index in range(shards):
        end = start + base + (1 if index < extra else 0)
        bounds.append((start, end))
        start = end
    return bounds


def route(
    messages: Sequence[Message], bounds: Sequence[Tuple[int, int]]
) -> List[List[Message]]:
    """Partition barrier messages by owning shard, each box sorted.

    Sorting by ``(dst, src, kind)`` fixes the delivery order regardless
    of which shard emitted what — the barrier half of the determinism
    argument.
    """
    starts = [lo for lo, _ in bounds]
    inboxes: List[List[Message]] = [[] for _ in bounds]
    for message in messages:
        inboxes[bisect_right(starts, message[0]) - 1].append(message)
    for box in inboxes:
        box.sort()
    return inboxes


class ShardEngine:
    """Machines ``[lo, hi)`` of a run, advancing one epoch at a time."""

    def __init__(
        self,
        config: RunConfig,
        lo: int,
        hi: int,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.config = config
        self.workload: Workload = get_workload(config.workload)
        self.population = Population(self.workload, lo, hi)
        self.lo = lo
        self.hi = hi
        self.next_epoch = 0
        self._obs = obs if obs is not None else get_default()
        self._rejected_flushed = 0

    def step(self, epoch: int, inbox: Sequence[Message]) -> EpochResult:
        """Run one epoch: plan local events, deliver ``inbox``, dispatch.

        ``inbox`` must hold only messages addressed to this shard's
        range, sorted by ``(dst, src, kind)`` (see :func:`route`).
        """
        if epoch != self.next_epoch:
            raise StaleShardError(self.next_epoch, epoch)
        workload = self.workload
        config = self.config
        cohorts: List[List[int]] = [[] for _ in workload.events]
        outbox: List[Message] = []
        workload.plan(
            epoch_seed(config.seed, epoch),
            self.lo,
            self.hi,
            config.machines,
            cohorts,
            outbox,
        )
        lo = self.lo
        message_event = workload.message_event
        for dst, _src, kind in inbox:
            cohorts[message_event[kind]].append(dst - lo)
        population = self.population
        fired = 0
        for event_id, indices in enumerate(cohorts):
            if indices:
                fired += population.apply(event_id, indices)
        digest = population.digest_partial()
        self.next_epoch = epoch + 1
        obs = self._obs
        if obs.enabled:
            # The amortized flush: one counter touch per metric per
            # epoch, however many million events the epoch dispatched.
            registry = obs.registry
            name = workload.name
            registry.counter("megasim.events", workload=name).inc(fired)
            registry.counter("megasim.messages_sent", workload=name).inc(
                len(outbox)
            )
            registry.counter("megasim.messages_delivered", workload=name).inc(
                len(inbox)
            )
            registry.counter("megasim.epochs", workload=name).inc()
            rejected = population.rejected - self._rejected_flushed
            if rejected:
                registry.counter("megasim.rejected", workload=name).inc(
                    rejected
                )
                self._rejected_flushed = population.rejected
        return EpochResult(
            fired=fired,
            emitted=len(outbox),
            delivered=len(inbox),
            digest=digest,
            outbox=outbox,
        )


def _transcript_line(epoch: int, fired: int, emitted: int, digest: int) -> str:
    return f"epoch={epoch} fired={fired} msgs={emitted} digest={digest:016x}"


def run_epochs(
    config: RunConfig, step: Callable[[int], EpochResult], started: float
) -> RunResult:
    """The epoch loop every run mode shares: transcript and totals.

    ``step(epoch)`` advances the whole population one epoch and returns
    the global result.  ``started`` is when the caller began building
    its engines, so ``elapsed`` counts the build as well as the epochs.
    """
    lines = [config.header()]
    fired = emitted = 0
    for epoch in range(config.epochs):
        result = step(epoch)
        lines.append(
            _transcript_line(epoch, result.fired, result.emitted, result.digest)
        )
        fired += result.fired
        emitted += result.emitted
    return RunResult(
        config=config,
        lines=lines,
        fired=fired,
        emitted=emitted,
        elapsed=time.perf_counter() - started,
    )


def run_serial(
    config: RunConfig, obs: Optional[Instrumentation] = None
) -> RunResult:
    """Run the whole population in one engine, in this process."""
    started = time.perf_counter()
    engine = ShardEngine(config, 0, config.machines, obs=obs)
    inbox: List[Message] = []

    def step(epoch: int) -> EpochResult:
        nonlocal inbox
        result = engine.step(epoch, inbox)
        inbox = sorted(result.outbox)  # the final epoch's outbox is dropped
        return result

    return run_epochs(config, step, started)


def run_partitioned(
    config: RunConfig, shards: int, obs: Optional[Instrumentation] = None
) -> RunResult:
    """Run ``shards`` engines in this process with barrier routing.

    The pure in-process form of the sharded plane — what
    ``repro.megasim.shard`` distributes over worker processes — used by
    the invariance tests to compare any shard count without forking.
    """
    started = time.perf_counter()
    bounds = shard_bounds(config.machines, shards)
    engines = [ShardEngine(config, lo, hi, obs=obs) for lo, hi in bounds]
    inboxes: List[List[Message]] = [[] for _ in engines]

    def step(epoch: int) -> EpochResult:
        nonlocal inboxes
        result = combine(
            [engine.step(epoch, inbox) for engine, inbox in zip(engines, inboxes)]
        )
        inboxes = route(result.outbox, bounds)
        return result

    return run_epochs(config, step, started)
