"""The typed state-machine DSL: parameterized states and indexed transitions.

This module renders the paper's Section 3.4 machinery in Python.  In the
paper, the sender's states are *indexed by the sequence number*::

    data SendSt = Ready Byte | Wait Byte | Timeout Byte | Sent Byte

and transitions are typed by the states they connect::

    OK : SendTrans (Wait seq) (Ready (seq+1))

Here, a :class:`MachineSpec` declares parameterized states and transitions
whose source/target are *state patterns* over symbolic parameters.  The
spec must be :meth:`~MachineSpec.seal`-ed before any runtime machine can be
created; sealing runs the definition-time checker
(:mod:`repro.core.checker`), which enforces the paper's soundness and
completeness properties.  An unsound or incomplete machine is rejected
before it can ever execute — the Python analogue of "it does not
typecheck".
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.symbolic import (
    Expr,
    ExprLike,
    Predicate,
    UnificationError,
    Var,
    as_expr,
    unify,
)


class MachineSpecError(ValueError):
    """Raised at definition/seal time for an ill-formed machine spec."""


class Param:
    """A dependent parameter of a state (e.g. the sequence number).

    ``bits`` gives the parameter a finite, wrapping domain: a ``Param("seq",
    bits=8)`` is the paper's ``Byte`` index, and target expressions such as
    ``seq + 1`` wrap modulo 256 — exactly the arithmetic the ARQ example
    relies on.  Without ``bits`` the domain is the unbounded naturals.
    """

    __slots__ = ("name", "bits")

    def __init__(self, name: str, bits: Optional[int] = None) -> None:
        if not name.isidentifier():
            raise MachineSpecError(f"param name must be an identifier, got {name!r}")
        if bits is not None and bits <= 0:
            raise MachineSpecError(f"param width must be positive, got {bits}")
        self.name = name
        self.bits = bits

    def normalize(self, value: int) -> int:
        """Clamp a computed value into the parameter's domain."""
        if value < 0 and self.bits is None:
            raise MachineSpecError(
                f"param {self.name!r} cannot take negative value {value}"
            )
        if self.bits is not None:
            return value % (1 << self.bits)
        return value

    def __repr__(self) -> str:
        if self.bits is not None:
            return f"Param({self.name!r}, bits={self.bits})"
        return f"Param({self.name!r})"


ParamLike = Union[Param, str]


def _as_param(value: ParamLike) -> Param:
    if isinstance(value, Param):
        return value
    return Param(value)


class StateSpec:
    """A declared, possibly parameterized state of a machine.

    Calling a state spec with expressions yields a :class:`StatePattern`
    for use in transitions (``Wait(Var("seq"))``), and calling it with
    plain integers yields a concrete pattern usable as an initial state.
    """

    def __init__(
        self,
        machine: "MachineSpec",
        name: str,
        params: Tuple[Param, ...],
        initial: bool,
        final: bool,
        doc: str,
    ) -> None:
        self.machine = machine
        self.name = name
        self.params = params
        self.initial = initial
        self.final = final
        self.doc = doc

    @property
    def arity(self) -> int:
        """Number of dependent parameters."""
        return len(self.params)

    def __call__(self, *args: ExprLike) -> "StatePattern":
        if len(args) != self.arity:
            raise MachineSpecError(
                f"state {self.name!r} takes {self.arity} parameter(s), "
                f"got {len(args)}"
            )
        return StatePattern(self, tuple(as_expr(a) for a in args))

    def instance(self, *values: int) -> "StateInstance":
        """A concrete instance of this state with given parameter values."""
        if len(values) != self.arity:
            raise MachineSpecError(
                f"state {self.name!r} takes {self.arity} parameter(s), "
                f"got {len(values)}"
            )
        normalized = tuple(
            param.normalize(value) for param, value in zip(self.params, values)
        )
        return StateInstance(self, normalized)

    def __repr__(self) -> str:
        return f"StateSpec({self.name!r}, arity={self.arity})"


class StatePattern:
    """A state with symbolic parameter expressions (used in transitions)."""

    __slots__ = ("state", "args")

    def __init__(self, state: StateSpec, args: Tuple[Expr, ...]) -> None:
        self.state = state
        self.args = args

    def free_variables(self) -> frozenset:
        names: frozenset = frozenset()
        for arg in self.args:
            names |= arg.free_variables()
        return names

    def match(self, instance: "StateInstance") -> Dict[str, int]:
        """Unify this pattern against a concrete state instance.

        Returns the variable bindings; raises
        :class:`~repro.core.symbolic.UnificationError` on mismatch.
        """
        if instance.state is not self.state:
            raise UnificationError(
                f"state {instance.state.name!r} does not match "
                f"pattern {self.state.name!r}"
            )
        bindings: Dict[str, int] = {}
        for pattern_arg, value in zip(self.args, instance.values):
            unify(pattern_arg, value, bindings)
        return bindings

    def instantiate(self, bindings: Mapping[str, int]) -> "StateInstance":
        """Evaluate the pattern's expressions to a concrete state."""
        values = tuple(arg.evaluate(bindings) for arg in self.args)
        return self.state.instance(*values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StatePattern)
            and other.state is self.state
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return hash((id(self.state), self.args))

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.state.name}({inner})"


class StateInstance:
    """A concrete machine state: a state spec plus parameter values."""

    __slots__ = ("state", "values")

    def __init__(self, state: StateSpec, values: Tuple[int, ...]) -> None:
        self.state = state
        self.values = values

    @property
    def name(self) -> str:
        """The underlying state's name."""
        return self.state.name

    @property
    def is_final(self) -> bool:
        """True when the underlying state is final."""
        return self.state.final

    def bindings(self) -> Dict[str, int]:
        """Parameter values keyed by declared parameter names."""
        return {
            param.name: value
            for param, value in zip(self.state.params, self.values)
        }

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StateInstance)
            and other.state is self.state
            and other.values == self.values
        )

    def __hash__(self) -> int:
        return hash((id(self.state), self.values))

    def __repr__(self) -> str:
        inner = ", ".join(str(v) for v in self.values)
        return f"{self.state.name}({inner})"


PayloadRequirement = Union[None, str, Any]  # None | "bytes" | PacketSpec


class TransitionSpec:
    """A typed transition: named, with source/target state patterns.

    Attributes
    ----------
    requires:
        What evidence the transition demands before it may execute:
        ``None`` (no payload), the string ``"bytes"`` (a raw byte payload,
        like the paper's ``SEND : List Byte -> ...``), or a
        :class:`~repro.core.packet.PacketSpec` — meaning a
        ``Verified`` packet of that spec (the paper's ``OK : ChkPacket ...
        -> ...``; unverified packets are rejected by the runtime).
    guard:
        Optional extra predicate over the matched bindings (symbolic) or
        over ``(bindings, payload)`` (callable); the transition is invalid
        unless it holds.
    event:
        Optional event label for completeness checking: states declare
        which events may occur in them, and the checker requires a
        transition for each.
    inputs:
        Names of extra integer parameters supplied at execution time
        (``machine.exec_trans("ACK", ack=5)``).  This mirrors the paper's
        dependent transition arguments (``RECV : (seq : Byte) -> ...``):
        target expressions may use them, and guards should constrain them
        against the matched source bindings.
    """

    def __init__(
        self,
        name: str,
        source: StatePattern,
        target: StatePattern,
        requires: PayloadRequirement = None,
        guard: Union[None, Predicate, Callable[..., bool]] = None,
        event: Optional[str] = None,
        inputs: Sequence[str] = (),
        doc: str = "",
    ) -> None:
        if not name.isidentifier():
            raise MachineSpecError(
                f"transition name must be an identifier, got {name!r}"
            )
        for input_name in inputs:
            if not input_name.isidentifier():
                raise MachineSpecError(
                    f"transition {name!r}: input {input_name!r} must be an "
                    "identifier"
                )
        if guard is not None and not (isinstance(guard, Predicate) or callable(guard)):
            # ``Var("n") == 5`` is structural equality, so it is a bool.
            raise MachineSpecError(
                f"transition {name!r}: guard must be None, a Predicate or a "
                f"callable, got {guard!r}; for (in)equality write n.eq(5) "
                "or n.ne(5), not n == 5 or n != 5"
            )
        self.name = name
        self.source = source
        self.target = target
        self.requires = requires
        self.guard = guard
        self.event = event
        self.inputs = tuple(inputs)
        self.doc = doc

    def guard_holds(self, bindings: Mapping[str, int], payload: Any) -> bool:
        """Evaluate the guard (vacuously true when absent)."""
        if self.guard is None:
            return True
        if isinstance(self.guard, Predicate):
            return self.guard.evaluate(bindings)
        return bool(self.guard(bindings, payload))

    def __repr__(self) -> str:
        return f"TransitionSpec({self.name!r}: {self.source!r} -> {self.target!r})"


class MachineSpec:
    """A protocol state machine specification (the DSL's ``SendTrans``).

    Build one by declaring states and transitions, then call
    :meth:`seal`.  Sealing runs every definition-time check and freezes
    the spec; only sealed specs can be instantiated into runtime machines
    (:class:`repro.core.machine.Machine`).

    Example
    -------
    >>> from repro.core.symbolic import Var
    >>> sm = MachineSpec("sender")
    >>> ready = sm.state("Ready", params=[Param("seq", bits=8)], initial=True)
    >>> wait = sm.state("Wait", params=[Param("seq", bits=8)])
    >>> sent = sm.state("Sent", params=[Param("seq", bits=8)], final=True)
    >>> n = Var("seq")
    >>> _ = sm.transition("SEND", ready(n), wait(n), requires="bytes")
    >>> _ = sm.transition("OK", wait(n), ready(n + 1))
    >>> _ = sm.transition("FINISH", ready(n), sent(n))
    >>> sm.seal()
    """

    def __init__(self, name: str, doc: str = "") -> None:
        if not name.isidentifier():
            raise MachineSpecError(f"machine name must be an identifier, got {name!r}")
        self.name = name
        self.doc = doc
        self.states: Dict[str, StateSpec] = {}
        self.transitions: List[TransitionSpec] = []
        self.expected_events: Dict[str, frozenset] = {}
        self._sealed = False
        # Dispatch indexes, built by seal(): name -> transition and
        # source-state name -> transitions, so the runtime's per-call
        # lookups are dict hits instead of linear scans.
        self._transition_index: Optional[Dict[str, TransitionSpec]] = None
        self._source_index: Optional[Dict[str, Tuple[TransitionSpec, ...]]] = None

    # -- declaration -------------------------------------------------------

    def state(
        self,
        name: str,
        params: Sequence[ParamLike] = (),
        initial: bool = False,
        final: bool = False,
        doc: str = "",
    ) -> StateSpec:
        """Declare a state; returns the spec for use in transitions."""
        self._require_unsealed()
        if not name.isidentifier():
            raise MachineSpecError(f"state name must be an identifier, got {name!r}")
        if name in self.states:
            raise MachineSpecError(
                f"machine {self.name!r}: duplicate state {name!r}"
            )
        param_objects = tuple(_as_param(p) for p in params)
        seen = set()
        for param in param_objects:
            if param.name in seen:
                raise MachineSpecError(
                    f"state {name!r}: duplicate parameter {param.name!r}"
                )
            seen.add(param.name)
        spec = StateSpec(self, name, param_objects, initial, final, doc)
        self.states[name] = spec
        return spec

    def transition(
        self,
        name: str,
        source: StatePattern,
        target: StatePattern,
        requires: PayloadRequirement = None,
        guard: Union[None, Predicate, Callable[..., bool]] = None,
        event: Optional[str] = None,
        inputs: Sequence[str] = (),
        doc: str = "",
    ) -> TransitionSpec:
        """Declare a transition; returns its spec."""
        self._require_unsealed()
        if any(t.name == name for t in self.transitions):
            raise MachineSpecError(
                f"machine {self.name!r}: duplicate transition {name!r}"
            )
        spec = TransitionSpec(
            name, source, target, requires, guard, event, inputs, doc
        )
        self.transitions.append(spec)
        return spec

    def expect_events(self, state: StateSpec, events: Sequence[str]) -> None:
        """Declare the events that may occur while in ``state``.

        The completeness checker then requires an outgoing transition
        labelled with each such event — the paper's "all valid transitions
        are handled".
        """
        self._require_unsealed()
        if state.name not in self.states:
            raise MachineSpecError(f"unknown state {state.name!r}")
        self.expected_events[state.name] = frozenset(events)

    # -- sealing -------------------------------------------------------------

    @property
    def sealed(self) -> bool:
        """True once the spec has passed definition-time checking."""
        return self._sealed

    def seal(self) -> "MachineSpec":
        """Run the definition-time checker and freeze the spec.

        Raises :class:`MachineSpecError` listing *all* problems found, so
        a protocol author fixes the spec in one round trip.
        """
        from repro.core.checker import check_machine  # deferred: avoids cycle

        report = check_machine(self)
        if report.errors:
            raise MachineSpecError(
                f"machine {self.name!r} failed definition-time checking:\n  "
                + "\n  ".join(report.errors)
            )
        self._transition_index = {t.name: t for t in self.transitions}
        source_index: Dict[str, List[TransitionSpec]] = {}
        for transition in self.transitions:
            source_index.setdefault(
                transition.source.state.name, []
            ).append(transition)
        self._source_index = {
            name: tuple(entries) for name, entries in source_index.items()
        }
        self._sealed = True
        return self

    def _require_unsealed(self) -> None:
        if self._sealed:
            raise MachineSpecError(
                f"machine {self.name!r} is sealed; specs are immutable "
                "after checking"
            )

    # -- queries ---------------------------------------------------------------

    @property
    def initial_states(self) -> List[StateSpec]:
        """States declared initial."""
        return [s for s in self.states.values() if s.initial]

    @property
    def final_states(self) -> List[StateSpec]:
        """States declared final."""
        return [s for s in self.states.values() if s.final]

    def transitions_from(self, state_name: str) -> List[TransitionSpec]:
        """Transitions whose source state is ``state_name``.

        Indexed (declaration order preserved) once the spec is sealed;
        the scan below serves the checker, which runs pre-seal.
        """
        if self._source_index is not None:
            return list(self._source_index.get(state_name, ()))
        return [t for t in self.transitions if t.source.state.name == state_name]

    def transition_named(self, name: str) -> TransitionSpec:
        """Look up a transition by name (indexed once sealed)."""
        if self._transition_index is not None:
            try:
                return self._transition_index[name]
            except KeyError:
                raise KeyError(
                    f"machine {self.name!r} has no transition {name!r}"
                ) from None
        for transition in self.transitions:
            if transition.name == name:
                return transition
        raise KeyError(f"machine {self.name!r} has no transition {name!r}")

    def __repr__(self) -> str:
        return (
            f"MachineSpec({self.name!r}, states={len(self.states)}, "
            f"transitions={len(self.transitions)}, sealed={self._sealed})"
        )
