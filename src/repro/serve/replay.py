"""The differential oracle: replay a live exchange through the simulator.

Responder roles are deterministic functions of (inbound frame sequence,
seed): every free choice is drawn from the seed, every protocol step
from the DSL machine.  So a recorded live session replays exactly —
build the *same* role class with the *same* seed and params under
:class:`~repro.netsim.replay.ScriptedHost`, feed it the frames the live
session actually consumed at their recorded relative times, and the
oracle must emit byte-for-byte the frames the live session sent.  Any
divergence means a hosting bug: the serving plane dropped, duplicated,
reordered or mangled something the protocol logic never saw.

A second, independent check rides along: the replay records the
replayed machine's steps (:meth:`~repro.core.machine.Machine.record_steps`)
and dual-steps each against the one-step model semantics
(:func:`repro.modelcheck.explicit.successors_of` with the exact inputs
the runtime used), so the oracle run itself is validated against the
spec — the differential is only as trustworthy as its oracle, and the
oracle carries its own evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.machine import TraceStep
from repro.core.statemachine import MachineSpec
from repro.modelcheck.explicit import successors_of
from repro.netsim.capture import describe_frame
from repro.netsim.replay import ScriptedHost
from repro.protocols.role import Role
from repro.serve.apps import app_class
from repro.serve.record import ExchangeRecord


@dataclass
class ReplayResult:
    """One record's verdict under the simulator oracle."""

    record: ExchangeRecord
    live_out: List[bytes]
    oracle_out: List[bytes]
    divergences: List[str] = field(default_factory=list)
    model_notes: List[str] = field(default_factory=list)
    final_state: str = ""

    @property
    def ok(self) -> bool:
        """True when live and oracle agree and the trace checks out."""
        return not self.divergences and not self.model_notes

    def summary(self) -> Dict[str, Any]:
        return {
            "protocol": self.record.protocol,
            "peer": self.record.peer,
            "frames_in": len(self.record.inbound()),
            "frames_out": len(self.live_out),
            "oracle_out": len(self.oracle_out),
            "divergences": len(self.divergences),
            "model_notes": len(self.model_notes),
            "final_state": self.final_state,
            "ok": self.ok,
        }


def _diff_transcripts(
    live: Sequence[bytes], oracle: Sequence[bytes], specs: Sequence[Any]
) -> List[str]:
    """Frame-by-frame comparison, rendered for humans on mismatch."""
    divergences: List[str] = []
    for index in range(max(len(live), len(oracle))):
        have = live[index] if index < len(live) else None
        want = oracle[index] if index < len(oracle) else None
        if have == want:
            continue
        have_text = (
            describe_frame(have, specs)[1] if have is not None else "(nothing)"
        )
        want_text = (
            describe_frame(want, specs)[1] if want is not None else "(nothing)"
        )
        divergences.append(
            f"outbound[{index}]: live sent {have_text}, oracle sent {want_text}"
        )
    return divergences


def check_trace_against_model(
    spec: MachineSpec, steps: Sequence[TraceStep]
) -> List[str]:
    """Dual-step a machine's recorded steps against the model semantics.

    For every recorded :class:`~repro.core.machine.TraceStep` of a
    machine of ``spec``, ask the one-step model (singleton input domains
    built from the step's recorded bindings) which targets the transition
    admits from the step's source; the runtime's target must be among
    them.  Steps the model can only approximate (payload-dependent
    guards) are skipped — may-fire answers prove nothing either way.
    """
    notes: List[str] = []
    for step in steps:
        transition = spec.transition_named(step.transition)
        bindings = step.bindings_dict()
        inputs = {
            name: bindings[name]
            for name in transition.inputs
            if name in bindings
        }
        domains = (
            {transition.name: {k: (v,) for k, v in inputs.items()}}
            if inputs
            else None
        )
        targets, approximated = successors_of(
            spec, transition, step.source, domains
        )
        if approximated:
            continue
        target_keys = {(t.state.name, t.values) for t in targets}
        runtime_key = (step.target.state.name, step.target.values)
        if runtime_key not in target_keys:
            notes.append(
                f"{step.transition}: runtime stepped to {runtime_key}, "
                f"model admits only {sorted(target_keys)}"
            )
    return notes


def replay_record(
    record: ExchangeRecord, check_model: bool = True
) -> ReplayResult:
    """Replay one recorded session; returns the differential verdict."""
    app_cls = app_class(record.protocol)
    specs = list(app_cls.specs)
    host = ScriptedHost(specs=specs, seed=record.seed)
    # host() needs the handler and the app needs host()'s send callable;
    # the holder breaks the cycle (the closure resolves at delivery time,
    # after the app exists).
    holder: List[Role] = []
    send = host.host(lambda frame: holder[0].on_frame(frame))
    app = app_cls(send, seed=record.seed, **record.params)
    holder.append(app)
    steps = app.machine.record_steps()
    host.feed(record.inbound_script())
    oracle_out = host.run()
    live_out = [event.data for event in record.outbound()]
    result = ReplayResult(
        record=record,
        live_out=live_out,
        oracle_out=oracle_out,
        divergences=_diff_transcripts(live_out, oracle_out, specs),
        final_state=repr(app.machine.current),
    )
    if check_model:
        result.model_notes = check_trace_against_model(app.machine.spec, steps)
    return result


@dataclass
class DifferentialReport:
    """Aggregate verdict over a batch of records."""

    results: List[ReplayResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def divergent(self) -> List[ReplayResult]:
        return [result for result in self.results if not result.ok]

    def summary(self) -> Dict[str, Any]:
        return {
            "records": len(self.results),
            "ok": sum(1 for r in self.results if r.ok),
            "divergent": len(self.divergent),
            "frames_compared": sum(len(r.live_out) for r in self.results),
        }


def replay_records(
    records: Sequence[ExchangeRecord], check_model: bool = True
) -> DifferentialReport:
    """Replay every record; empty sessions (no events) are skipped."""
    report = DifferentialReport()
    for record in records:
        if not record.events:
            continue
        report.results.append(replay_record(record, check_model=check_model))
    return report
