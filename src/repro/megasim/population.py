"""Dense machine populations with cohort-batched compiled dispatch.

A :class:`Population` hosts machines ``[lo, hi)`` of a megasim run as
two parallel arrays — a dense state id and a single integer parameter
value per machine — instead of one :class:`~repro.core.machine.Machine`
object each.  Events are applied in *cohorts*: all machines receiving
the same event in the same state go through one Python-level loop, so
the per-event interpreter overhead (instance allocation, pattern
unification, symbolic evaluation) is paid once per cohort, not once per
machine.

Two kernels, per transition:

1. the **cohort kernel** ``cohort_<T>`` of the spec's generated module
   (:func:`repro.core.compile.compile_machine`) — match, guard, target
   and normalization in one generated loop over the slab;
2. the **interpreted walk** — pattern unification, guard and target
   evaluation per machine — when the ``repro.fastpath`` policy is off,
   the spec is demoted, or the transition does not fuse.  It is the
   semantics oracle the differential tests compare the kernels against
   (under ``fastpath.use(mode="off")``).

Both apply the candidates of an event group in declaration order and
pass guard-rejected indices to the next candidate, mirroring how a
:class:`Machine` caller would probe ``try_exec`` down the group.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.statemachine import StateInstance, TransitionSpec
from repro.core.symbolic import UnificationError
from repro.fastpath.cache import active_state

from repro.megasim.workloads import Workload, mix64

_MASK = (1 << 64) - 1
_DIGEST_SALT = 0xD1B54A32D192ED03

# A miss-chain step: indices in -> indices that did not fire.
_Step = Callable[[Sequence[int]], List[int]]


def _interpreted_step(
    transition: TransitionSpec,
    state_spec: Any,
    target_sid: int,
    values: array,
    state_ids: array,
) -> _Step:
    """The interpreted walk over a cohort, one machine at a time."""
    source, target = transition.source, transition.target
    arity = state_spec.arity
    same_state = target.state is state_spec

    def step(indices: Sequence[int]) -> List[int]:
        misses: List[int] = []
        miss = misses.append
        for i in indices:
            inst = StateInstance(state_spec, (values[i],) if arity else ())
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
        return misses

    return step


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
        self.state_ids = array("h", [sid_of[initial.name]]) * self.size
        self.values = array(
            "q", (workload.initial_value(i) for i in range(lo, hi))
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
        self._digest_pre = [
            mix64(index * 0x9E3779B97F4A7C15 + _DIGEST_SALT) | 1
            for index in range(lo, hi)
        ]

    def _fused_step(self, cohort: Callable, target_sid: int) -> _Step:
        values, state_ids = self.values, self.state_ids

        def step(indices: Sequence[int]) -> List[int]:
            return cohort(indices, values, state_ids, target_sid)

        return step

    # -- execution ---------------------------------------------------------

    def apply(self, event_id: int, indices: Sequence[int]) -> int:
        """Apply one event to every index; returns how many fired."""
        total = len(indices)
        if total == 0:
            return 0
        if len(self._state_order) == 1:
            buckets: Sequence[Tuple[int, Sequence[int]]] = ((0, indices),)
        else:
            per: List[List[int]] = [[] for _ in self._state_order]
            state_ids = self.state_ids
            for i in indices:
                per[state_ids[i]].append(i)
            buckets = tuple(
                (sid, idxs) for sid, idxs in enumerate(per) if idxs
            )
        fired = 0
        chains = self._chains[event_id]
        for sid, idxs in buckets:
            chain = chains[sid]
            if chain is None:
                self.rejected += len(idxs)
                continue
            remaining: Sequence[int] = idxs
            for step in chain:
                if not remaining:
                    break
                remaining = step(remaining)
            fired += len(idxs) - len(remaining)
            self.rejected += len(remaining)
        return fired

    # -- inspection --------------------------------------------------------

    def digest_partial(self) -> int:
        """This shard's contribution to the run digest (mod 2**64).

        A multiplier-weighted checksum over ``(state, value)`` pairs: the
        weights depend only on global machine identity, and partials add
        modulo 2**64, so serial, partitioned, and pooled runs of the same
        scenario produce the same total in any shard arrangement.
        """
        if len(self._state_order) == 1:
            total = sum(
                pre * (value + 1)
                for pre, value in zip(self._digest_pre, self.values)
            )
        else:
            total = sum(
                pre * (value + (sid << 20) + 1)
                for pre, value, sid in zip(
                    self._digest_pre, self.values, self.state_ids
                )
            )
        return total & _MASK

    def state_of(self, local_index: int) -> StateInstance:
        """The machine's current state as a regular ``StateInstance``."""
        state = self._state_order[self.state_ids[local_index]]
        if state.arity:
            return state.instance(self.values[local_index])
        return state.instance()
