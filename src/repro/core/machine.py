"""The machine runtime: ``exec_trans`` and friends.

A :class:`Machine` is a running instance of a sealed
:class:`~repro.core.statemachine.MachineSpec`.  Its only mutator is
:meth:`Machine.exec_trans` — the paper's

::

    execTrans : SendTrans s s' -> Machine s -> IO (Machine s')

Executing a transition performs, in order:

1. **dispatch** — unify the transition's source pattern against the
   current state (binding dependent parameters, e.g. ``seq``);
2. **evidence check** — if the transition ``requires`` a packet spec, the
   payload must be a ``Verified`` packet of that spec (an unverified
   packet, or a packet of another spec, is rejected — the runtime analogue
   of ``OK`` demanding a ``ChkPacket``);
3. **guard** — any additional predicate must hold;
4. **step** — the target state is *computed* from the bindings (never
   guessed), parameters are normalized into their domains, and the
   machine moves to it.  It keeps no history: a reader that audits a
   run records its steps with :meth:`Machine.record_steps`.

Any failure raises :class:`InvalidTransitionError` and leaves the machine
unchanged: invalid transitions cannot be executed, which is the paper's
soundness property enforced dynamically at the last line of defence (the
first line being the sealed spec).

The four phases have two implementations.  Under the ``repro.fastpath``
policy a spec compiles, like a packet spec, into one generated module
(:func:`repro.core.compile.compile_machine`), and ``exec_trans`` calls
its ``exec_<T>``, which runs all four phases in one function.  The
interpreted walk below is the other, and the oracle: it runs when the
policy is ``off`` or the spec is demoted; it supplies the canonical
error for every generated refusal except a guard's; and under
``verify`` it checks every generated result.  A walk that succeeds where
the generated function refused or raised, or that disagrees with it,
demotes the spec's module (``fastpath.divergences``) and its own result
is committed.  Enabled obs changes none of this: it times the same step
inside one ``exec_trans`` span.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.codec import _FALLBACK_ERRORS, _fp_demote, encode_verbatim
from repro.core.statemachine import (
    MachineSpec,
    MachineSpecError,
    StateInstance,
    TransitionSpec,
)
from repro.core.symbolic import UnificationError
from repro.core.verified import Verified
from repro.fastpath.cache import active_state as _fp_active
from repro.obs.instrument import NULL_OBS, Instrumentation, get_default
from repro.obs.trace import frame_digest


class InvalidTransitionError(RuntimeError):
    """Raised when a transition cannot legally execute from the current state.

    ``code`` is a low-cardinality rejection category (``unknown_transition``,
    ``dispatch``, ``inputs``, ``evidence``, ``payload``, ``guard``, ``state``)
    used to label the observability counters; ``reason`` stays free text.
    """

    def __init__(
        self,
        machine_name: str,
        transition_name: str,
        reason: str,
        code: str = "invalid",
    ) -> None:
        self.machine_name = machine_name
        self.transition_name = transition_name
        self.reason = reason
        self.code = code
        super().__init__(
            f"machine {machine_name!r}: cannot execute {transition_name!r}: {reason}"
        )


class UnverifiedPayloadError(InvalidTransitionError):
    """Raised when a transition demanding verified data receives raw data."""

    def __init__(
        self,
        machine_name: str,
        transition_name: str,
        reason: str,
        code: str = "evidence",
    ) -> None:
        super().__init__(machine_name, transition_name, reason, code=code)


@dataclass(frozen=True)
class TraceStep:
    """One executed transition, as a machine's observers receive it."""

    transition: str
    source: StateInstance
    target: StateInstance
    bindings: Tuple[Tuple[str, int], ...]

    def bindings_dict(self) -> Dict[str, int]:
        """Bindings as a dictionary."""
        return dict(self.bindings)


Observer = Callable[["Machine", TraceStep, Any], None]


class Machine:
    """A running protocol state machine.

    Parameters
    ----------
    spec:
        A **sealed** machine spec; unsealed specs are rejected, so no
        machine ever runs a definition that failed (or skipped) checking.
    initial:
        The concrete starting state; defaults to the spec's declared
        initial state with all parameters zero.
    obs:
        An :class:`~repro.obs.Instrumentation` context; defaults to the
        process-wide one (disabled unless ``repro.obs.enable()`` ran).
        When enabled, every execution runs the same tier as with obs off
        and records one ``exec_trans`` span around it, a latency
        histogram, and executed/rejected counters labeled by machine and
        reason.
    """

    def __init__(
        self,
        spec: MachineSpec,
        initial: Optional[StateInstance] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if not spec.sealed:
            raise MachineSpecError(
                f"machine spec {spec.name!r} must be sealed (checked) before "
                "instantiation"
            )
        self.spec = spec
        if initial is None:
            initial_specs = spec.initial_states
            initial = initial_specs[0].instance(*([0] * initial_specs[0].arity))
        if spec.states.get(initial.state.name) is not initial.state:
            raise MachineSpecError(
                f"initial state {initial!r} does not belong to machine "
                f"{spec.name!r}"
            )
        self._current = initial
        # A tuple, rebound on add: a machine nobody observes holds no list.
        self._observers: Tuple[Observer, ...] = ()
        self._obs = obs if obs is not None else get_default()

    # -- inspection ---------------------------------------------------------

    @property
    def current(self) -> StateInstance:
        """The current concrete state."""
        return self._current

    @property
    def is_finished(self) -> bool:
        """True when the machine sits in a final state."""
        return self._current.is_final

    def in_state(self, state_name: str) -> bool:
        """True when the current state's name is ``state_name``."""
        return self._current.state.name == state_name

    def available_transitions(self) -> List[TransitionSpec]:
        """Transitions whose source pattern matches the current state.

        Guards are *not* evaluated here (they may need payloads); this
        answers "which transitions are shape-valid now", which drivers and
        the completeness tests use.
        """
        current = self._current
        matching = []
        for transition in self.spec.transitions_from(current.state.name):
            try:
                transition.source.match(current)
            except UnificationError:
                continue
            matching.append(transition)
        return matching

    def expect_state(self, state_name: str, **params: int) -> None:
        """Assert the machine is in a given state (used by protocol code).

        Raises :class:`InvalidTransitionError` on mismatch so protocol
        drivers fail loudly rather than drifting.
        """
        if self._current.state.name != state_name:
            raise InvalidTransitionError(
                self.spec.name,
                "<expect_state>",
                f"expected state {state_name!r}, in {self._current!r}",
                code="state",
            )
        actual = self._current.bindings()
        for name, value in params.items():
            if actual.get(name) != value:
                raise InvalidTransitionError(
                    self.spec.name,
                    "<expect_state>",
                    f"expected {name}={value}, got {name}={actual.get(name)!r}",
                    code="state",
                )

    # -- observation ---------------------------------------------------------

    def add_observer(self, observer: Observer) -> None:
        """Register a callback invoked after every executed transition."""
        self._observers += (observer,)

    def record_steps(self) -> List[TraceStep]:
        """Record every transition executed from now on into the returned list."""
        steps: List[TraceStep] = []
        self.add_observer(lambda machine, step, payload: steps.append(step))
        return steps

    # -- execution ------------------------------------------------------------

    def exec_trans(
        self, transition_name: str, payload: Any = None, **inputs: int
    ) -> StateInstance:
        """Execute a named transition; returns the new state.

        ``inputs`` supply the transition's declared execution-time
        parameters (e.g. ``exec_trans("ACK", ack=5)``).

        Raises :class:`InvalidTransitionError` (machine unchanged) when the
        transition does not exist, does not match the current state, lacks
        required evidence or inputs, or fails its guard.

        With obs enabled, the same :meth:`_step` runs inside an
        ``exec_trans`` span, and an execution-latency histogram and
        executed/rejected counters (the rejection reason is the
        exception's ``code``) are recorded.  Their handles are cached per
        machine, transition and reason in the registry's ``"machine"``
        handle cache, as the codec caches its own.
        """
        obs = self._obs
        if not obs.enabled:
            return self._step(transition_name, payload, inputs)[0]
        registry = obs.registry
        cache = registry.handle_caches["machine"]
        name = self.spec.name
        start = time.perf_counter()
        try:
            with obs.tracer.span(
                "exec_trans", machine=name, transition=transition_name
            ) as span:
                if isinstance(payload, (bytes, bytearray)):
                    span.set_attr("payload_digest", frame_digest(payload))
                    span.set_attr("payload_len", len(payload))
                elif isinstance(payload, Verified):
                    span.set_attr("payload_spec", payload.certificate.spec_name)
                    value = payload.value
                    if hasattr(value, "spec") and hasattr(value, "_values"):
                        # Encoding is verbatim, so re-encoding recovers the
                        # exact wire frame this evidence was parsed from —
                        # the digest joins this span to capture records.
                        span.set_attr(
                            "payload_digest",
                            frame_digest(
                                encode_verbatim(value.spec, value._values, obs=NULL_OBS)
                            ),
                        )
                target, bindings = self._step(transition_name, payload, inputs)
                span.set_attr("bindings", dict(sorted(bindings.items())))
                span.set_attr("target", repr(target))
        except InvalidTransitionError as exc:
            key = (name, transition_name, exc.code)
            rejected = cache.get(key)
            if rejected is None:
                rejected = cache[key] = registry.counter(
                    "machine.transitions_rejected",
                    machine=name,
                    transition=transition_name,
                    reason=exc.code,
                )
            rejected.inc()
            raise
        key = (name, transition_name)
        handles = cache.get(key)
        if handles is None:
            handles = cache[key] = (
                registry.counter(
                    "machine.transitions_executed",
                    machine=name,
                    transition=transition_name,
                ),
                registry.histogram("machine.exec_seconds", machine=name),
            )
        executed, seconds = handles
        executed.inc()
        seconds.observe(time.perf_counter() - start)
        return target

    def try_exec(
        self, transition_name: str, payload: Any = None, **inputs: int
    ) -> Optional[StateInstance]:
        """Attempt a transition; ``None`` (machine unchanged) on rejection.

        The event-loop driver hook: a server demultiplexing frames wants
        "does this event apply here?" as a branch, not an exception —
        rejection is the *common* case when probing which of several
        transitions (RECV vs. DUP_ACK, say) a verified frame feeds.
        Rejections still land on the observability counters with their
        reason codes; only the control flow changes.
        """
        try:
            return self.exec_trans(transition_name, payload, **inputs)
        except InvalidTransitionError:
            return None

    def _step(
        self, transition_name: str, payload: Any, inputs: Dict[str, int]
    ) -> Tuple[StateInstance, Dict[str, int]]:
        """Run one transition, commit it, and return its ``(target, bindings)``.

        The spec's ``exec_<T>`` runs, and its own result is committed and
        returned, unless the policy is off or the spec runs interpreted;
        then the walk runs instead.  A generated refusal other than a
        guard's, an error, or any result under ``verify`` goes to
        :meth:`_oracle`.
        """
        state = _fp_active(self.spec)
        run = state.codec.execs.get(transition_name) if state is not None else None
        if run is None:
            result = self._walk(self._lookup(transition_name), payload, inputs)
        else:
            try:
                result = run(self._current, payload, inputs)
            except _FALLBACK_ERRORS:
                return self._oracle(state, transition_name, payload, inputs, None)
            if result is None or state.verify:
                return self._oracle(state, transition_name, payload, inputs, result)
            if result is False:
                raise InvalidTransitionError(
                    self.spec.name,
                    transition_name,
                    "guard predicate failed",
                    code="guard",
                )
        self._commit(transition_name, result[0], result[1], payload)
        return result

    def _lookup(self, transition_name: str) -> TransitionSpec:
        try:
            return self.spec.transition_named(transition_name)
        except KeyError:
            raise InvalidTransitionError(
                self.spec.name,
                transition_name,
                "no such transition",
                code="unknown_transition",
            ) from None

    def _oracle(
        self,
        state: Any,
        transition_name: str,
        payload: Any,
        inputs: Dict[str, int],
        result: Any,
    ) -> Tuple[StateInstance, Dict[str, int]]:
        """Run the interpreted walk on a generated result; commit and return its own.

        ``result`` is what ``exec_<T>`` returned — ``(target, bindings)``,
        or ``False`` for a guard refusal — or ``None`` when it refused
        otherwise or raised.  The walk's error propagates.  Wherever the
        walk disagrees with ``result`` (a generated refusal the walk
        shares is agreement), the spec's module is demoted.
        """
        try:
            walked = self._walk(self._lookup(transition_name), payload, inputs)
        except Exception as exc:
            guard_refused = (
                isinstance(exc, InvalidTransitionError) and exc.code == "guard"
            )
            if result is not None and not (result is False and guard_refused):
                self._demote(state, transition_name, "exec-mismatch")
            raise
        if result != walked:
            reason = "exec-error" if result is None else "exec-mismatch"
            self._demote(state, transition_name, reason)
        self._commit(transition_name, walked[0], walked[1], payload)
        return walked

    def _demote(self, state: Any, transition_name: str, reason: str) -> None:
        op = {"op": "exec", "transition": transition_name, "state": repr(self._current)}
        _fp_demote(self.spec, state, reason, op)

    # -- the interpreted walk (see module docstring) -----------------------

    def _walk(
        self, transition: TransitionSpec, payload: Any, inputs: Dict[str, int]
    ) -> Tuple[StateInstance, Dict[str, int]]:
        """Dispatch, evidence and guard, then the computed target."""
        bindings = self._dispatch(transition, inputs)
        self._check_payload(transition, payload)
        self._check_guard(transition, bindings, payload)
        return transition.target.instantiate(bindings), bindings

    def _dispatch(
        self, transition: TransitionSpec, inputs: Dict[str, int]
    ) -> Dict[str, int]:
        try:
            bindings = transition.source.match(self._current)
        except UnificationError as exc:
            raise InvalidTransitionError(
                self.spec.name,
                transition.name,
                f"current state {self._current!r} does not match source "
                f"pattern {transition.source!r} ({exc})",
                code="dispatch",
            ) from None
        if set(inputs) != set(transition.inputs):
            raise InvalidTransitionError(
                self.spec.name,
                transition.name,
                f"transition declares inputs {sorted(transition.inputs)}, "
                f"got {sorted(inputs)}",
                code="inputs",
            )
        for input_name, input_value in inputs.items():
            if not isinstance(input_value, int) or isinstance(input_value, bool):
                raise InvalidTransitionError(
                    self.spec.name,
                    transition.name,
                    f"input {input_name!r} must be an int, got {input_value!r}",
                    code="inputs",
                )
            bindings[input_name] = input_value
        return bindings

    def _check_guard(
        self, transition: TransitionSpec, bindings: Dict[str, int], payload: Any
    ) -> None:
        if not transition.guard_holds(bindings, payload):
            raise InvalidTransitionError(
                self.spec.name, transition.name, "guard predicate failed", code="guard"
            )

    def _commit(
        self,
        transition_name: str,
        target: StateInstance,
        bindings: Dict[str, int],
        payload: Any,
    ) -> None:
        """Move to ``target``; build the step only for observers, if any."""
        source, self._current = self._current, target
        if self._observers:
            step = TraceStep(
                transition_name, source, target, tuple(sorted(bindings.items()))
            )
            for observer in self._observers:
                observer(self, step, payload)

    def _check_payload(self, transition: TransitionSpec, payload: Any) -> None:
        requires = transition.requires
        if requires is None:
            if payload is not None:
                raise InvalidTransitionError(
                    self.spec.name,
                    transition.name,
                    "transition takes no payload but one was supplied",
                    code="payload",
                )
            return
        if requires == "bytes":
            if not isinstance(payload, (bytes, bytearray)):
                raise InvalidTransitionError(
                    self.spec.name,
                    transition.name,
                    f"transition requires a byte payload, got {type(payload).__name__}",
                    code="payload",
                )
            return
        # requires is a PacketSpec: demand verified evidence of that spec.
        if not isinstance(payload, Verified):
            raise UnverifiedPayloadError(
                self.spec.name,
                transition.name,
                f"transition requires a Verified[{requires.name}] packet; "
                f"got {type(payload).__name__} — validate with "
                f"{requires.name}.parse()/verify() first",
            )
        if payload.certificate.spec_name != requires.name:
            raise UnverifiedPayloadError(
                self.spec.name,
                transition.name,
                f"transition requires Verified[{requires.name}], got "
                f"Verified[{payload.certificate.spec_name}]",
            )

    def __repr__(self) -> str:
        return f"Machine({self.spec.name!r}, current={self._current!r})"


def replay_trace(
    spec: MachineSpec,
    initial: StateInstance,
    steps: Sequence[Any],
) -> Machine:
    """Replay recorded steps on a fresh machine.

    Each step is ``(transition, payload)`` or ``(transition, payload,
    inputs_dict)``.  Used by the trace verifier: a recorded trace is valid
    iff replaying it raises nothing and reproduces the same state sequence.
    """
    machine = Machine(spec, initial)
    for step in steps:
        if len(step) == 2:
            transition_name, payload = step
            inputs: Dict[str, int] = {}
        else:
            transition_name, payload, inputs = step
        machine.exec_trans(transition_name, payload, **inputs)
    return machine
