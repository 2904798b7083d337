"""Packet specifications and packet values.

:class:`PacketSpec` is the DSL's description of an on-the-wire message: an
ordered list of fields (possibly with dependent shapes) plus semantic
constraints.  Specs are validated **at definition time** — the Python
analogue of the paper's type checking: an ill-formed spec (a forward field
reference, a greedy field in the middle, a checksum narrower than its
algorithm) never becomes a value you could accidentally use.

:class:`Packet` is an immutable record of decoded or constructed field
values, bound to its spec.  Verification turns a raw ``Packet`` into a
``Verified[Packet]`` carrying a certificate — see
:mod:`repro.core.verified`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core import codec
from repro.core.constraints import (
    Constraint,
    ConstraintViolation,
    checksum_constraint,
    const_field_constraint,
    enum_field_constraint,
)
from repro.core.fields import (
    Bytes,
    ChecksumField,
    Field,
    FieldValueError,
    Flag,
    Reserved,
    Struct,
    Switch,
    UInt,
    UIntList,
)
from repro.core.verified import Certificate, Verified, _issue


class SpecError(ValueError):
    """Raised at definition time for an ill-formed packet specification."""


class VerificationError(ValueError):
    """Raised when a packet fails verification; carries every violation."""

    def __init__(self, spec_name: str, violations: Sequence[ConstraintViolation]) -> None:
        self.spec_name = spec_name
        self.violations = list(violations)
        details = "; ".join(v.constraint_name for v in self.violations)
        super().__init__(
            f"packet of spec {spec_name!r} failed verification: {details}"
        )


class Packet:
    """An immutable record of field values for one spec.

    Field values are reachable by attribute (``packet.seq``) and by item
    (``packet["seq"]``).  Equality is by spec identity plus values, and
    packets are hashable when all their values are.
    """

    __slots__ = ("_spec", "_values")

    def __init__(self, spec: "PacketSpec", values: Mapping[str, Any]) -> None:
        object.__setattr__(self, "_spec", spec)
        object.__setattr__(self, "_values", dict(values))

    @property
    def spec(self) -> "PacketSpec":
        """The spec this packet instantiates."""
        return self._spec

    @property
    def values(self) -> Dict[str, Any]:
        """A copy of the field-value mapping."""
        return dict(self._values)

    def integer_environment(self) -> Dict[str, int]:
        """Integer-valued fields as an expression environment."""
        env: Dict[str, int] = {}
        for field in self._spec.fields:
            if field.is_integer_valued():
                env[field.name] = int(self._values[field.name])
        return env

    def replace(self, **changes: Any) -> "Packet":
        """A new packet with some fields changed (checksums NOT recomputed).

        Use :meth:`PacketSpec.make` when you want checksums refreshed; this
        method is deliberately literal so tests can build corrupted packets.
        """
        unknown = set(changes) - set(self._values)
        if unknown:
            raise KeyError(f"unknown fields: {sorted(unknown)}")
        merged = dict(self._values)
        merged.update(changes)
        return Packet(self._spec, merged)

    def __getattr__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(
                f"packet of spec {self._spec.name!r} has no field {name!r}"
            ) from None

    def __getitem__(self, name: str) -> Any:
        return self._values[name]

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._spec.field_names)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("packets are immutable; use replace() or spec.make()")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Packet)
            and other._spec is self._spec
            and other._values == self._values
        )

    def __hash__(self) -> int:
        return hash(
            (self._spec.name, tuple(sorted((k, _hashable(v)) for k, v in self._values.items())))
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={self._values[name]!r}" for name in self._spec.field_names)
        return f"{self._spec.name}({inner})"


def _hashable(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    return value


class PacketSpec:
    """A declarative, dependently-shaped packet format.

    Parameters
    ----------
    name:
        Spec name (an identifier); used in errors, certificates, codegen.
    fields:
        Ordered field descriptions; later fields may reference earlier
        integer-valued fields in their shape expressions.
    constraints:
        Extra semantic constraints beyond the auto-generated ones
        (checksum validity, const pins, enum domains, reserved-zero).
    doc:
        Prose description, used by documentation renderers.

    Raises
    ------
    SpecError
        At construction, for any structural ill-formedness — this is the
        DSL's definition-time ("compile-time") checking.
    """

    def __init__(
        self,
        name: str,
        fields: Sequence[Field],
        constraints: Iterable[Constraint] = (),
        doc: str = "",
    ) -> None:
        if not name.isidentifier():
            raise SpecError(f"spec name must be an identifier, got {name!r}")
        if not fields:
            raise SpecError(f"spec {name!r} must declare at least one field")
        self.name = name
        self.fields: Tuple[Field, ...] = tuple(fields)
        self.doc = doc
        self.field_map: Dict[str, Field] = {}
        self._validate_fields()
        self.constraints: Tuple[Constraint, ...] = tuple(
            self._auto_constraints()
        ) + tuple(constraints)
        self._validate_constraints()

    # -- definition-time validation -------------------------------------

    def _validate_fields(self) -> None:
        integer_fields: set = set()
        for index, field in enumerate(self.fields):
            if field.name in self.field_map:
                raise SpecError(
                    f"spec {self.name!r}: duplicate field name {field.name!r}"
                )
            if not isinstance(field, ChecksumField):
                # Shape refs must look backwards: a field's size can only
                # depend on already-decoded values.  Checksum *coverage*
                # refs are exempt — a checksum routinely covers fields
                # that follow it on the wire (validated below).
                refs = field.referenced_fields()
                missing = refs - set(self.field_map)
                if missing:
                    raise SpecError(
                        f"spec {self.name!r}: field {field.name!r} references "
                        f"{sorted(missing)} which are not defined earlier; "
                        "dependent shapes may only look backwards"
                    )
                non_integer = refs - integer_fields
                if non_integer:
                    raise SpecError(
                        f"spec {self.name!r}: field {field.name!r} references "
                        f"non-integer fields {sorted(non_integer)}"
                    )
            if self._is_greedy(field) and index != len(self.fields) - 1:
                raise SpecError(
                    f"spec {self.name!r}: greedy field {field.name!r} must be last"
                )
            self.field_map[field.name] = field
            if field.is_integer_valued():
                integer_fields.add(field.name)
        self._validate_checksums()
        self._validate_alignment()

    @staticmethod
    def _is_greedy(field: Field) -> bool:
        if isinstance(field, Bytes) and field.is_greedy:
            return True
        if isinstance(field, (Struct, Switch)) and field.fixed_bit_width() is None:
            return True
        return False

    def _validate_checksums(self) -> None:
        for field in self.fields:
            if not isinstance(field, ChecksumField):
                continue
            for covered in field.over or ():
                if covered == field.name:
                    raise SpecError(
                        f"spec {self.name!r}: checksum {field.name!r} cannot "
                        "cover itself; use over='*' for self-zeroed coverage"
                    )
                if covered not in self.field_map:
                    raise SpecError(
                        f"spec {self.name!r}: checksum {field.name!r} covers "
                        f"unknown field {covered!r}"
                    )

    def _validate_alignment(self) -> None:
        """Whole-packet checks that need static widths.

        Fixed-shape specs must be byte-aligned overall; checksum cover
        regions with static widths must span whole bytes.
        """
        width = self.fixed_bit_width()
        if width is not None and width % 8 != 0:
            raise SpecError(
                f"spec {self.name!r}: total width {width} bits is not "
                "byte-aligned; pad with Reserved bits"
            )
        for field in self.fields:
            if isinstance(field, ChecksumField) and field.over is not None:
                total = 0
                static = True
                for name in field.over:
                    covered_width = self.field_map[name].fixed_bit_width()
                    if covered_width is None:
                        static = False
                        break
                    total += covered_width
                if static and total % 8 != 0:
                    raise SpecError(
                        f"spec {self.name!r}: checksum {field.name!r} covers "
                        f"{total} bits, not a whole number of bytes"
                    )

    def _auto_constraints(self) -> List[Constraint]:
        generated: List[Constraint] = []
        for field in self.fields:
            if isinstance(field, ChecksumField):
                generated.append(checksum_constraint(self, field.name))
            elif isinstance(field, UInt):
                if field.const is not None:
                    generated.append(const_field_constraint(field.name, field.const))
                if field.enum is not None:
                    generated.append(
                        enum_field_constraint(field.name, tuple(field.enum))
                    )
            elif isinstance(field, Reserved):
                generated.append(const_field_constraint(field.name, field.value))
        return generated

    def _validate_constraints(self) -> None:
        seen: set = set()
        for constraint in self.constraints:
            if constraint.name in seen:
                raise SpecError(
                    f"spec {self.name!r}: duplicate constraint {constraint.name!r}"
                )
            seen.add(constraint.name)

    # -- structural queries ----------------------------------------------

    @property
    def field_names(self) -> Tuple[str, ...]:
        """Field names in wire order."""
        return tuple(field.name for field in self.fields)

    @property
    def constraint_names(self) -> Tuple[str, ...]:
        """All constraint names (auto-generated plus user-supplied)."""
        return tuple(constraint.name for constraint in self.constraints)

    def fixed_bit_width(self) -> Optional[int]:
        """Total width in bits when every field has static width."""
        total = 0
        for field in self.fields:
            width = field.fixed_bit_width()
            if width is None:
                return None
            total += width
        return total

    # -- construction ------------------------------------------------------

    def make(self, **values: Any) -> Packet:
        """Build a packet, filling defaults and computing checksums.

        ``const`` integer fields default to their constant, reserved fields
        to their fixed value, and checksum fields are always computed (a
        supplied checksum value is rejected — checksums are evidence, not
        input).
        """
        working: Dict[str, Any] = {}
        for field in self.fields:
            if isinstance(field, ChecksumField):
                if field.name in values:
                    raise FieldValueError(
                        field.name,
                        "checksum fields are computed, not supplied; "
                        "use replace() to forge one deliberately",
                    )
                working[field.name] = 0
            elif isinstance(field, Reserved):
                supplied = values.pop(field.name, field.value)
                working[field.name] = supplied
            elif field.name in values:
                working[field.name] = values.pop(field.name)
            elif isinstance(field, UInt) and field.const is not None:
                working[field.name] = field.const
            else:
                raise FieldValueError(field.name, "no value supplied and no default")
        unknown = set(values) - {f.name for f in self.fields}
        if unknown:
            raise SpecError(
                f"spec {self.name!r}: unknown fields {sorted(unknown)} in make()"
            )
        # Normalize to the canonical decoded representations so that
        # make -> encode -> decode is the identity on the value level.
        for field in self.fields:
            value = working[field.name]
            if isinstance(field, UIntList) and isinstance(value, list):
                working[field.name] = tuple(value)
            elif isinstance(field, Bytes) and isinstance(value, bytearray):
                working[field.name] = bytes(value)
        completed = codec.compute_checksums(self, working)
        packet = Packet(self, completed)
        # Shape-check everything now so a bad make() fails eagerly.
        env = packet.integer_environment()
        for field in self.fields:
            field.check_value(completed[field.name], env)
        return packet

    # -- wire I/O ---------------------------------------------------------

    def encode(self, packet: Packet) -> bytes:
        """Encode a packet verbatim (checksums as carried)."""
        if packet.spec is not self:
            raise SpecError(
                f"cannot encode a {packet.spec.name!r} packet with spec {self.name!r}"
            )
        return codec.encode_verbatim(self, packet._values)

    def decode(self, data: bytes) -> Packet:
        """Decode bytes into a raw (unverified) packet."""
        return Packet(self, codec.decode_packet(self, data))

    def compute_checksum(self, packet: Packet, field_name: str) -> int:
        """Recompute one checksum from the packet's carried values."""
        return codec.compute_one_checksum(self, packet._values, field_name)

    # -- verification -------------------------------------------------------

    def verify(self, packet: Packet) -> Verified[Packet]:
        """Check every constraint; return proof-carrying packet or raise.

        This is the only way (besides :meth:`parse`) to obtain a
        ``Verified[Packet]`` — the construction of the paper's
        ``ChkPacket``.
        """
        if packet.spec is not self:
            raise SpecError(
                f"cannot verify a {packet.spec.name!r} packet with spec {self.name!r}"
            )
        violations: List[ConstraintViolation] = []
        env = packet.integer_environment()
        for field in self.fields:
            try:
                field.check_value(packet[field.name], env)
            except FieldValueError as exc:
                violations.append(
                    ConstraintViolation(self.name, f"{field.name}_shape", str(exc))
                )
        for constraint in self.constraints:
            try:
                if not constraint.holds(packet, env):
                    violations.append(
                        ConstraintViolation(self.name, constraint.name, constraint.doc)
                    )
            except ConstraintViolation as exc:
                violations.append(exc)
        if violations:
            raise VerificationError(self.name, violations)
        certificate = Certificate(self.name, self.constraint_names)
        return _issue(packet, certificate)

    def parse(self, data: bytes) -> Verified[Packet]:
        """Decode *and* verify: the safe entry point for received bytes."""
        return self.verify(self.decode(data))

    def try_parse(self, data: bytes) -> Optional[Verified[Packet]]:
        """Like :meth:`parse` but returns ``None`` on any failure.

        Convenient in protocol receive loops where a bad packet is simply
        dropped (the paper's guarantee 2: no processing of unverified
        packets).
        """
        try:
            return self.parse(data)
        except (codec.DecodeError, VerificationError):
            return None

    def __repr__(self) -> str:
        return f"PacketSpec({self.name!r}, fields={list(self.field_names)})"
