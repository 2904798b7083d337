"""Dense machine populations with cohort-batched compiled dispatch.

A :class:`Population` hosts machines ``[lo, hi)`` of a megasim run as
two parallel numpy arrays — an int16 state id and an int64 parameter
value per machine — instead of one :class:`~repro.core.machine.Machine`
object each.  Events are applied in *cohorts*: an array of the machines
receiving the same event, dispatched as a few array operations, so the
per-event interpreter overhead (instance allocation, pattern
unification, symbolic evaluation) is paid once per cohort, not once per
machine.

Two kernels, per transition:

1. the **cohort kernel** ``cohort_<T>`` of the spec's generated module
   (:func:`repro.core.compile.compile_machine`) — one gather, one hit
   mask for match and guard, and one scatter of the normalized target
   over a whole bucket of machines;
2. the **interpreted walk** — pattern unification, guard and target
   evaluation per machine — when the ``repro.fastpath`` policy is off,
   the spec is demoted, or the transition does not fuse.  It is the
   semantics oracle the differential tests compare the kernels against
   (under ``fastpath.use(mode="off")``).

:meth:`Population.apply` splits a cohort into *rounds* of distinct
machines (a machine listed ``k`` times is in ``k`` rounds), buckets each
round by the machines' current state, and runs the event group's
candidates down each bucket in declaration order, passing the misses of
one candidate to the next — the order in which a :class:`Machine` caller
probes ``try_exec`` down the group, once per occurrence.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.core.statemachine import StateInstance, TransitionSpec
from repro.core.symbolic import UnificationError
from repro.fastpath.cache import active_state

from repro.megasim.workloads import Workload, index_hashes

_DIGEST_SALT = 0xD1B54A32D192ED03
_ONE = np.uint64(1)
_SID_SHIFT = np.uint64(20)

# A miss-chain step: distinct indices in -> the indices that did not fire.
_Step = Callable[[np.ndarray], np.ndarray]


def _interpreted_step(
    transition: TransitionSpec,
    state_spec: Any,
    target_sid: int,
    values: np.ndarray,
    state_ids: np.ndarray,
) -> _Step:
    """The interpreted walk over a cohort, one machine at a time."""
    source, target = transition.source, transition.target
    arity = state_spec.arity
    same_state = target.state is state_spec

    def step(indices: np.ndarray) -> np.ndarray:
        misses: List[int] = []
        miss = misses.append
        for i, value in zip(indices.tolist(), values[indices].tolist()):
            inst = StateInstance(state_spec, (value,) if arity else ())
            try:
                bindings = source.match(inst)
            except UnificationError:
                miss(i)
                continue
            if not transition.guard_holds(bindings, None):
                miss(i)
                continue
            new = target.instantiate(bindings)
            if new.values:
                values[i] = new.values[0]
            if not same_state:
                state_ids[i] = target_sid
        return np.array(misses, dtype=np.int64)

    return step


def _rounds(indices: np.ndarray) -> Sequence[np.ndarray]:
    """Split a cohort into rounds of distinct indices.

    Round ``k`` holds every machine listed more than ``k`` times.  All
    of a machine's occurrences are the same event, so which occurrence
    lands in which round does not matter; the rounds run in order.
    """
    ordered = np.sort(indices)
    repeat = ordered[1:] == ordered[:-1]
    if not repeat.any():
        return (indices,)
    position = np.arange(len(ordered))
    first = np.concatenate(([True], ~repeat))
    rank = position - np.maximum.accumulate(np.where(first, position, 0))
    return [ordered[rank == k] for k in range(int(rank.max()) + 1)]


class Population:
    """Machines ``[lo, hi)`` of a run, stored as parallel dense arrays."""

    def __init__(self, workload: Workload, lo: int, hi: int) -> None:
        spec = workload.spec
        if not spec.sealed:
            raise ValueError(f"workload spec {spec.name!r} must be sealed")
        for state in spec.states.values():
            if state.arity > 1:
                raise NotImplementedError(
                    f"megasim populations host states with at most one "
                    f"parameter; {spec.name}.{state.name} has {state.arity}"
                )
        self.workload = workload
        self.lo = lo
        self.hi = hi
        self.size = hi - lo
        self._state_order = tuple(spec.states.values())
        sid_of = {state.name: sid for sid, state in enumerate(self._state_order)}
        initial = spec.initial_states[0]
        self.state_ids = np.full(self.size, sid_of[initial.name], dtype=np.int16)
        self.values = workload.initial_values(lo, hi)
        if initial.arity and self.size:
            # The kernels' int64 bounds assume every value lies in its
            # parameter's domain; normalization keeps it there afterwards.
            top = initial.params[0].bits
            low, high = int(self.values.min()), int(self.values.max())
            if low < 0 or (top is not None and high >> top):
                raise ValueError(
                    f"{workload.name}: initial values {low}..{high} fall "
                    f"outside {initial.params[0]!r}"
                )
        self.rejected = 0  # events no candidate accepted (workload bug tell)
        compiled = active_state(spec)
        kernels = compiled.codec.cohorts if compiled is not None else {}
        # chains[event_id][state_id] -> miss-chain of candidate steps, or
        # None when no candidate starts from that state.
        self._chains: List[List[Optional[List[_Step]]]] = []
        for group in workload.events:
            per_state: List[Optional[List[_Step]]] = []
            for sid, state in enumerate(self._state_order):
                chain: List[_Step] = []
                for name in group:
                    transition = spec.transition_named(name)
                    if transition.source.state is not state:
                        continue
                    target_sid = sid_of[transition.target.state.name]
                    kernel = kernels.get(name)
                    if kernel is not None:
                        chain.append(self._fused_step(kernel, target_sid))
                    else:
                        chain.append(
                            _interpreted_step(
                                transition,
                                state,
                                target_sid,
                                self.values,
                                self.state_ids,
                            )
                        )
                per_state.append(chain or None)
            self._chains.append(per_state)
        # Per-index digest multipliers: functions of *global* identity, so
        # digest partials sum to the same total under any partition.
        self._digest_pre = index_hashes(_DIGEST_SALT, lo, hi) | _ONE

    def _fused_step(self, cohort: Callable, target_sid: int) -> _Step:
        values, state_ids = self.values, self.state_ids

        def step(indices: np.ndarray) -> np.ndarray:
            return cohort(indices, values, state_ids, target_sid)

        return step

    # -- execution ---------------------------------------------------------

    def apply(self, event_id: int, indices: Any) -> int:
        """Apply one event to every local index; returns how many fired.

        ``indices`` is an int64 array (or a sequence of ints) and may list
        a machine more than once: each occurrence is one event.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if not len(indices):
            return 0
        chains = self._chains[event_id]
        states = len(self._state_order)
        fired = 0
        for batch in _rounds(indices):
            if states == 1:
                buckets = ((0, batch),)
            else:
                sids = self.state_ids[batch]
                buckets = tuple((sid, batch[sids == sid]) for sid in range(states))
            for sid, bucket in buckets:
                if not len(bucket):
                    continue
                chain = chains[sid]
                if chain is None:
                    self.rejected += len(bucket)
                    continue
                remaining = bucket
                for step in chain:
                    if not len(remaining):
                        break
                    remaining = step(remaining)
                fired += len(bucket) - len(remaining)
                self.rejected += len(remaining)
        return fired

    # -- inspection --------------------------------------------------------

    def digest_partial(self) -> int:
        """This shard's contribution to the run digest (mod 2**64).

        ``sum(pre[i] * (value[i] + (state_id[i] << 20) + 1)) mod 2**64``
        over the shard, in wrapping uint64 arithmetic: the multipliers
        ``pre`` depend only on global machine identity, and partials add
        modulo 2**64, so serial, partitioned, and pooled runs of the same
        scenario produce the same total in any shard arrangement.  Values
        are never negative, so their int64 bits read as the same uint64.
        """
        weights = self.values.view(np.uint64) + _ONE
        weights += self.state_ids.astype(np.uint64) << _SID_SHIFT
        return int((self._digest_pre * weights).sum(dtype=np.uint64))

    def state_of(self, local_index: int) -> StateInstance:
        """The machine's current state as a regular ``StateInstance``."""
        state = self._state_order[self.state_ids[local_index]]
        if state.arity:
            return state.instance(int(self.values[local_index]))
        return state.instance()
