"""Definition-time checking of machine specs: soundness and completeness.

The paper (Section 3.3) claims two compile-time guarantees for protocol
state machines written in the DSL:

1. **Soundness** — only valid transitions can be executed;
2. **Completeness** — all valid transitions are handled.

In this embedding, :func:`check_machine` is the "type checker".  It runs
when a spec is sealed, and a spec that fails it can never be instantiated.
The checks are purely structural — no state-space enumeration — which is
exactly the contrast with model checking that experiment E4 measures: the
checker's cost grows with the number of *declared* states and transitions,
not with the size of the (possibly astronomically larger) reachable
configuration space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Set

from repro.core.statemachine import MachineSpec, StatePattern, TransitionSpec
from repro.core.symbolic import Const, Var
from repro.obs.instrument import Instrumentation, get_default


@dataclass
class CheckReport:
    """Outcome of definition-time checking.

    ``errors`` are violations that make the spec unusable; ``warnings``
    are suspicious but legal constructions (e.g. an unreachable state in a
    machine the author may still be extending).
    """

    machine_name: str
    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no errors were found."""
        return not self.errors


def check_machine(
    spec: MachineSpec, obs: Optional[Instrumentation] = None
) -> CheckReport:
    """Run every definition-time check against ``spec``.

    ``obs`` (default: the process-wide instrumentation) records, when
    enabled, per-pass timing histograms (so E4-style "what does checking
    cost" questions can be answered per pass), checked/rejected machine
    counters, and error/warning counts.
    """
    if obs is None:
        obs = get_default()
    report = CheckReport(spec.name)
    if not obs.enabled:
        for _, run_pass in _PASSES:
            run_pass(spec, report)
        return report
    registry = obs.registry
    with obs.tracer.span("check_machine", machine=spec.name) as span:
        for pass_name, run_pass in _PASSES:
            start = time.perf_counter()
            run_pass(spec, report)
            registry.histogram("checker.pass_seconds", check=pass_name).observe(
                time.perf_counter() - start
            )
        span.set_attr("errors", len(report.errors))
        span.set_attr("warnings", len(report.warnings))
    registry.counter("checker.machines_checked").inc()
    if report.errors:
        registry.counter("checker.machines_rejected", machine=spec.name).inc()
        registry.counter("checker.errors").inc(len(report.errors))
    if report.warnings:
        registry.counter("checker.warnings").inc(len(report.warnings))
    return report


# -- soundness ---------------------------------------------------------------


def _check_initial_states(spec: MachineSpec, report: CheckReport) -> None:
    initial = spec.initial_states
    if not initial:
        report.errors.append("no initial state declared")
    elif len(initial) > 1:
        names = sorted(s.name for s in initial)
        report.errors.append(f"multiple initial states declared: {names}")


def _check_transitions(spec: MachineSpec, report: CheckReport) -> None:
    for transition in spec.transitions:
        _check_transition_soundness(spec, transition, report)


def _check_transition_soundness(
    spec: MachineSpec, transition: TransitionSpec, report: CheckReport
) -> None:
    prefix = f"transition {transition.name!r}:"
    for role, pattern in (("source", transition.source), ("target", transition.target)):
        state = pattern.state
        if spec.states.get(state.name) is not state:
            report.errors.append(
                f"{prefix} {role} state {state.name!r} is not declared "
                f"in machine {spec.name!r}"
            )
        if len(pattern.args) != state.arity:
            report.errors.append(
                f"{prefix} {role} pattern has {len(pattern.args)} argument(s) "
                f"but state {state.name!r} has arity {state.arity}"
            )
    _check_source_pattern_matchable(transition, report, prefix)
    _check_target_computable(transition, report, prefix)
    _check_payload_requirement(transition, report, prefix)
    if transition.guard is not None and hasattr(transition.guard, "free_variables"):
        bound = transition.source.free_variables() | set(transition.inputs)
        unknown = transition.guard.free_variables() - bound
        if unknown:
            report.errors.append(
                f"{prefix} guard references {sorted(unknown)} which neither "
                "the source pattern nor the declared inputs bind"
            )
    overlap = set(transition.inputs) & transition.source.free_variables()
    if overlap:
        report.errors.append(
            f"{prefix} inputs {sorted(overlap)} shadow source pattern "
            "variables"
        )


def _check_source_pattern_matchable(
    transition: TransitionSpec, report: CheckReport, prefix: str
) -> None:
    """Source patterns must be invertible so dispatch can bind parameters.

    Plain variables and constants always are; compound expressions are
    allowed only in the single-unknown forms the unifier can invert.
    """
    seen_vars: Set[str] = set()
    for arg in transition.source.args:
        if isinstance(arg, Var):
            if arg.name in seen_vars:
                # Non-linear patterns (same var twice) are fine: the
                # unifier checks consistency.  Record but allow.
                continue
            seen_vars.add(arg.name)
        elif isinstance(arg, Const):
            continue
        else:
            free = arg.free_variables()
            unknown = free - seen_vars
            if len(unknown) > 1:
                report.errors.append(
                    f"{prefix} source argument {arg} has multiple unbound "
                    f"variables {sorted(unknown)}; patterns must be "
                    "invertible for sound dispatch"
                )
            seen_vars |= free


def _check_target_computable(
    transition: TransitionSpec, report: CheckReport, prefix: str
) -> None:
    """Every variable in the target must be bound by the source pattern.

    This is the dependent-typing discipline of ``OK : SendTrans (Wait seq)
    (Ready (seq+1))`` — the post-state is a *function* of the matched
    pre-state, so executing a transition can never invent state.
    """
    bound = transition.source.free_variables() | set(transition.inputs)
    for arg in transition.target.args:
        unknown = arg.free_variables() - bound
        if unknown:
            report.errors.append(
                f"{prefix} target argument {arg} uses {sorted(unknown)} "
                "which neither the source pattern nor the declared "
                "inputs bind"
            )


def _check_payload_requirement(
    transition: TransitionSpec, report: CheckReport, prefix: str
) -> None:
    requires = transition.requires
    if requires is None or requires == "bytes":
        return
    # Anything else must look like a PacketSpec: named, with constraints.
    if not hasattr(requires, "constraint_names") or not hasattr(requires, "verify"):
        report.errors.append(
            f"{prefix} requires must be None, 'bytes', or a PacketSpec; "
            f"got {requires!r}"
        )


def _check_final_state_consistency(spec: MachineSpec, report: CheckReport) -> None:
    """Final states must be terminal (paper guarantee 4: consistent ends)."""
    for state in spec.final_states:
        outgoing = spec.transitions_from(state.name)
        if outgoing:
            names = sorted(t.name for t in outgoing)
            report.errors.append(
                f"final state {state.name!r} has outgoing transitions {names}; "
                "final states must be terminal"
            )


# -- completeness -------------------------------------------------------------


def _check_reachability(spec: MachineSpec, report: CheckReport) -> None:
    """Every declared state should be reachable from the initial state."""
    initial = spec.initial_states
    if not initial:
        return  # already an error
    reachable: Set[str] = {initial[0].name}
    frontier = [initial[0].name]
    while frontier:
        current = frontier.pop()
        for transition in spec.transitions_from(current):
            target = transition.target.state.name
            if target not in reachable:
                reachable.add(target)
                frontier.append(target)
    for name in spec.states:
        if name not in reachable:
            report.errors.append(
                f"state {name!r} is unreachable from the initial state"
            )


def _check_no_dead_states(spec: MachineSpec, report: CheckReport) -> None:
    """Non-final states must have a way out (no accidental deadlock)."""
    for name, state in spec.states.items():
        if state.final:
            continue
        if not spec.transitions_from(name):
            report.errors.append(
                f"non-final state {name!r} has no outgoing transitions "
                "(deadlock); declare it final or add transitions"
            )


def _check_event_completeness(spec: MachineSpec, report: CheckReport) -> None:
    """Each declared possible event in a state must have a handler.

    This is the strongest completeness property the DSL offers: the
    author declares, per state, which external events can occur there
    (ack arrival, timer expiry, ...), and the checker demands a labelled
    transition for every one of them.
    """
    for state_name, expected in spec.expected_events.items():
        handled = {
            t.event
            for t in spec.transitions_from(state_name)
            if t.event is not None
        }
        missing = expected - handled
        if missing:
            report.errors.append(
                f"state {state_name!r} does not handle declared event(s) "
                f"{sorted(missing)}; completeness requires a transition "
                "for each"
            )
        surplus = handled - expected
        if surplus:
            report.warnings.append(
                f"state {state_name!r} handles event(s) {sorted(surplus)} "
                "that are not declared as possible there"
            )


# -- the passes, in order, under their ``checker.pass_seconds`` labels --------

_PASSES = (
    ("initial_states", _check_initial_states),
    ("transition_soundness", _check_transitions),
    ("final_states", _check_final_state_consistency),
    ("reachability", _check_reachability),
    ("dead_states", _check_no_dead_states),
    ("event_completeness", _check_event_completeness),
)
