"""Validation of recorded machine traces.

A :class:`~repro.core.machine.Machine` keeps no history; these helpers
audit the :class:`~repro.core.machine.TraceStep` list that its
``record_steps`` fills, after the fact — the "inline testing" the
paper's abstract promises:

* :func:`validate_trace` checks chain consistency (each step starts where
  the previous ended), that every named transition exists in the spec,
  and that each step's source/target instantiate that transition's
  patterns under the recorded bindings;
* :func:`trace_summary` renders a human-readable transcript.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.machine import TraceStep
from repro.core.statemachine import MachineSpec, StateInstance
from repro.core.symbolic import UnificationError


class TraceValidationError(ValueError):
    """Raised when a recorded trace is inconsistent with its spec."""

    def __init__(self, step_index: int, message: str) -> None:
        self.step_index = step_index
        super().__init__(f"trace step {step_index}: {message}")


def validate_trace(
    spec: MachineSpec,
    initial: StateInstance,
    trace: Sequence[TraceStep],
) -> None:
    """Audit a recorded trace against its machine spec.

    Raises :class:`TraceValidationError` at the first inconsistency; a
    clean return certifies the trace is a genuine run of the spec.
    """
    current = initial
    for index, step in enumerate(trace):
        if step.source != current:
            raise TraceValidationError(
                index,
                f"starts at {step.source!r} but the machine was at {current!r}",
            )
        try:
            transition = spec.transition_named(step.transition)
        except KeyError:
            raise TraceValidationError(
                index, f"no transition named {step.transition!r} in spec"
            ) from None
        bindings = step.bindings_dict()
        try:
            matched = transition.source.match(step.source)
        except UnificationError as exc:
            raise TraceValidationError(
                index,
                f"source {step.source!r} does not match pattern "
                f"{transition.source!r}: {exc}",
            ) from None
        for name, value in matched.items():
            if bindings.get(name) != value:
                raise TraceValidationError(
                    index,
                    f"recorded binding {name}={bindings.get(name)!r} "
                    f"disagrees with matched value {value}",
                )
        expected_target = transition.target.instantiate(bindings)
        if expected_target != step.target:
            raise TraceValidationError(
                index,
                f"target {step.target!r} differs from the spec-computed "
                f"{expected_target!r}",
            )
        current = step.target


def trace_summary(trace: Sequence[TraceStep]) -> str:
    """A readable, line-per-step transcript of a machine run."""
    lines = []
    for index, step in enumerate(trace):
        bindings = ", ".join(f"{k}={v}" for k, v in step.bindings)
        lines.append(
            f"{index:4d}  {step.source!r} --{step.transition}"
            f"[{bindings}]--> {step.target!r}"
        )
    return "\n".join(lines)
