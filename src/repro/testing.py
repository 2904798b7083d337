"""Inline testing: test cases generated from the protocol definition.

The paper's abstract promises "(b) inline testing", and §2.3 argues the
DSL approach "potentially allows automatic construction of (at least
some) behavioural test cases".  This module delivers that claim:

* :func:`random_packet` — build a random *valid* packet for any spec,
  resolving dependent shapes (a random IPv4 header gets options sized by
  its randomly chosen IHL, and a correct checksum);
* :func:`spec_self_test` — an automatically constructed structural test
  suite for a spec: round-trips, verification, corruption rejection, and
  (where stageable) generated-codec agreement — no hand-written cases;
* :func:`machine_self_test` — random valid walks over a sealed machine
  spec, with trace audit: the behavioural test cases of §2.3, derived
  from the transitions themselves;
* :func:`packets` — a :mod:`hypothesis` strategy over a spec, so
  downstream users write ``@given(packets(MY_SPEC))`` property tests.

Everything here is driven by explicit ``random.Random`` instances —
reproducible by seed, like the rest of the library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.codec import DecodeError
from repro.core.fields import (
    Bytes,
    ChecksumField,
    Flag,
    Reserved,
    Struct,
    Switch,
    UInt,
    UIntList,
)
from repro.core.machine import Machine
from repro.core.packet import Packet, PacketSpec, VerificationError
from repro.core.statemachine import MachineSpec
from repro.core.verified import Verified


class GenerationError(RuntimeError):
    """Raised when no valid packet could be generated for a spec."""


def _random_integer_value(field_obj: UInt, rng: random.Random) -> int:
    if field_obj.const is not None:
        return field_obj.const
    if field_obj.enum:
        return rng.choice(sorted(field_obj.enum))
    # Bias toward small values and boundaries: they exercise dependent
    # shapes harder than uniform noise does.
    choice = rng.random()
    if choice < 0.3:
        return rng.randrange(0, min(16, field_obj.max_value + 1))
    if choice < 0.4:
        return field_obj.max_value
    return rng.randrange(0, field_obj.max_value + 1)


def random_packet(
    spec: PacketSpec,
    rng: Union[int, random.Random, None] = None,
    max_attempts: int = 200,
    max_variable_bytes: int = 64,
) -> Packet:
    """Build a random packet that satisfies ``spec``'s shape constraints.

    Integer fields are drawn first; dependent byte/list fields are then
    sized by evaluating their shape expressions against the drawn values.
    Draws whose expressions come out negative (or that fail the spec's
    own semantic constraints beyond computed checksums) are retried.

    ``rng`` may be an ``int`` seed or a ``random.Random`` instance; the
    default is seed 0.  Generation is fully deterministic in the RNG
    state: the same seed (or an equally-advanced ``Random``) yields the
    same packet for the same spec, which is what makes fuzz findings and
    conformance runs replayable.  Pass a shared ``Random`` instance to
    draw *different* packets across successive calls.
    """
    if rng is None:
        rng = random.Random(0)
    elif isinstance(rng, int):
        rng = random.Random(rng)
    for _ in range(max_attempts):
        values: Dict[str, Any] = {}
        env: Dict[str, int] = {}
        ok = True
        for field_obj in spec.fields:
            if isinstance(field_obj, ChecksumField):
                continue  # computed by make()
            if isinstance(field_obj, Reserved):
                env[field_obj.name] = field_obj.value
                continue
            if isinstance(field_obj, UInt):
                value = _random_integer_value(field_obj, rng)
                values[field_obj.name] = value
                env[field_obj.name] = value
            elif isinstance(field_obj, Flag):
                value = rng.random() < 0.5
                values[field_obj.name] = value
                env[field_obj.name] = int(value)
            elif isinstance(field_obj, Bytes):
                if field_obj.is_greedy:
                    length = rng.randrange(0, max_variable_bytes)
                else:
                    try:
                        length = field_obj.length.evaluate(env)
                    except Exception:
                        ok = False
                        break
                    if length < 0 or length > 1 << 16:
                        ok = False
                        break
                values[field_obj.name] = bytes(
                    rng.randrange(256) for _ in range(length)
                )
            elif isinstance(field_obj, UIntList):
                try:
                    count = field_obj.count.evaluate(env)
                except Exception:
                    ok = False
                    break
                if count < 0 or count > 1 << 12:
                    ok = False
                    break
                limit = 1 << field_obj.element_bits
                values[field_obj.name] = [
                    rng.randrange(limit) for _ in range(count)
                ]
            elif isinstance(field_obj, Struct):
                values[field_obj.name] = random_packet(
                    field_obj.spec, rng, max_attempts, max_variable_bytes
                )
            elif isinstance(field_obj, Switch):
                try:
                    branch = field_obj._select(env)
                except Exception:
                    ok = False
                    break
                values[field_obj.name] = random_packet(
                    branch, rng, max_attempts, max_variable_bytes
                )
            else:  # pragma: no cover - exhaustive over field kinds
                raise GenerationError(f"cannot generate for field {field_obj!r}")
        if not ok:
            continue
        try:
            packet = spec.make(**values)
            spec.verify(packet)
        except (VerificationError, ValueError):
            continue  # a semantic constraint rejected this draw; redraw
        return packet
    raise GenerationError(
        f"could not generate a valid {spec.name!r} packet in "
        f"{max_attempts} attempts; its constraints may be unsatisfiable "
        "by independent random draws"
    )


@dataclass
class SelfTestReport:
    """Outcome of an automatically constructed test run."""

    subject: str
    cases: int
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every generated case passed."""
        return not self.failures

    def raise_on_failure(self) -> None:
        """Raise ``AssertionError`` describing the first failures."""
        if self.failures:
            shown = "\n  ".join(self.failures[:5])
            raise AssertionError(
                f"self-test of {self.subject} failed "
                f"{len(self.failures)}/{self.cases} cases:\n  {shown}"
            )


def spec_self_test(
    spec: PacketSpec,
    cases: int = 50,
    seed: int = 0,
    include_codegen: bool = True,
) -> SelfTestReport:
    """Automatically constructed structural tests for a packet spec.

    Per generated packet: encode/decode round-trip, re-verification,
    single-bit-corruption handling (clean failure or bit-exact
    re-acceptance — never a crash), and generated-codec agreement.
    """
    rng = random.Random(seed)
    report = SelfTestReport(subject=f"spec {spec.name!r}", cases=cases)
    compiled = None
    if include_codegen:
        try:
            from repro.core.compile import compile_spec

            compiled = compile_spec(spec)
        except Exception:
            compiled = None  # not stageable; skip that leg
    for case in range(cases):
        try:
            packet = random_packet(spec, rng)
        except GenerationError as exc:
            report.failures.append(f"case {case}: generation failed: {exc}")
            continue
        wire = spec.encode(packet)
        decoded = spec.decode(wire)
        if decoded != packet:
            report.failures.append(f"case {case}: round-trip mismatch")
            continue
        try:
            spec.verify(decoded)
        except VerificationError as exc:
            report.failures.append(f"case {case}: re-verification failed: {exc}")
            continue
        if wire:
            corrupted = bytearray(wire)
            position = rng.randrange(len(wire) * 8)
            corrupted[position // 8] ^= 1 << (7 - position % 8)
            try:
                result = spec.try_parse(bytes(corrupted))
            except Exception as exc:  # declared failure modes only
                report.failures.append(
                    f"case {case}: corruption crashed the parser: {exc!r}"
                )
                continue
            if result is not None and spec.encode(result.value) != bytes(corrupted):
                report.failures.append(
                    f"case {case}: corrupted bytes accepted non-verbatim"
                )
                continue
        if compiled is not None:
            if compiled.build(packet.values) != wire:
                report.failures.append(f"case {case}: generated build disagrees")
                continue
            if compiled.parse(wire) != packet.values:
                report.failures.append(f"case {case}: generated parse disagrees")
    return report


def machine_self_test(
    spec: MachineSpec,
    payload_factory: Callable[[Any, Machine], Any],
    walks: int = 20,
    max_steps: int = 60,
    seed: int = 0,
    initial_factory: Optional[Callable[[random.Random], Any]] = None,
) -> SelfTestReport:
    """Random valid walks over a machine spec, with trace auditing.

    ``payload_factory(transition, machine)`` supplies whatever evidence a
    chosen transition requires (bytes or ``Verified`` packets).  Every
    walk checks that states remain declared, parameters remain in domain,
    and the recorded trace replays cleanly — §2.3's automatically
    constructed behavioural test cases.
    """
    from repro.analysis import TraceValidationError, validate_trace

    rng = random.Random(seed)
    report = SelfTestReport(subject=f"machine {spec.name!r}", cases=walks)
    for walk in range(walks):
        initial = None
        if initial_factory is not None:
            initial = initial_factory(rng)
        machine = Machine(spec, initial=initial)
        start = machine.current
        steps = machine.record_steps()
        try:
            for _ in range(max_steps):
                available = machine.available_transitions()
                if not available:
                    if not machine.is_finished:
                        report.failures.append(
                            f"walk {walk}: stuck in non-final "
                            f"{machine.current!r}"
                        )
                    break
                transition = rng.choice(available)
                payload = payload_factory(transition, machine)
                machine.exec_trans(transition.name, payload)
                for param, value in zip(
                    machine.current.state.params, machine.current.values
                ):
                    if param.bits is not None and not 0 <= value < (1 << param.bits):
                        report.failures.append(
                            f"walk {walk}: parameter {param.name} out of "
                            f"domain: {value}"
                        )
            validate_trace(spec, start, steps)
        except TraceValidationError as exc:
            report.failures.append(f"walk {walk}: trace audit failed: {exc}")
        except Exception as exc:
            report.failures.append(f"walk {walk}: unexpected {exc!r}")
    return report


def packets(spec: PacketSpec, max_cases_seed: int = 1 << 30):
    """A :mod:`hypothesis` strategy producing valid packets of ``spec``.

    Usage::

        from repro.testing import packets

        @given(packets(MY_SPEC))
        def test_something(packet):
            ...
    """
    from hypothesis import strategies as st

    return st.integers(0, max_cases_seed).map(
        lambda seed: random_packet(spec, random.Random(seed))
    )
