"""Proof-carrying values: the Python analogue of the paper's ``ChkPacket``.

In the paper, ``ChkPacket p`` is a dependent type whose inhabitants can only
be built for packets with valid checksums; *the existence of the value is
the proof*.  Python cannot make construction statically impossible, but it
can make it **unforgeable at runtime**: :class:`Verified` instances can only
be created through a packet spec's validator, which passes a private
capability token.  Client code holding a ``Verified[Packet]`` therefore
holds evidence that every constraint of the spec was checked — and, as in
the paper, the value never needs re-validation downstream.

The :class:`Certificate` records *which* constraints were discharged, so a
pipeline stage can also demand specific evidence (e.g. "checksum_valid")
rather than trusting a bare flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Generic, Tuple, TypeVar

T = TypeVar("T")

# Private capability: not exported, not reachable via a public name.  Code
# that bypasses it (reaching for a _-prefixed module global) is the Python
# equivalent of unsafeCoerce, and is its own audit trail.
_CONSTRUCTION_TOKEN = object()


class ForgedProofError(TypeError):
    """Raised when client code tries to construct a Verified value directly."""


class MissingEvidenceError(ValueError):
    """Raised when a certificate lacks a demanded constraint name."""

    def __init__(self, constraint_name: str, available: FrozenSet[str]) -> None:
        self.constraint_name = constraint_name
        super().__init__(
            f"certificate does not include constraint {constraint_name!r}; "
            f"it certifies {sorted(available)}"
        )


@dataclass(frozen=True)
class Certificate:
    """A record of discharged constraints for one value.

    Attributes
    ----------
    spec_name:
        Name of the packet spec (or other validated domain) it certifies.
    constraints:
        Names of every constraint that was checked and held.
    """

    spec_name: str
    constraints: Tuple[str, ...]

    def certifies(self, constraint_name: str) -> bool:
        """True when ``constraint_name`` was checked."""
        return constraint_name in self.constraints

    def demand(self, constraint_name: str) -> None:
        """Raise :class:`MissingEvidenceError` unless the constraint is covered."""
        if not self.certifies(constraint_name):
            raise MissingEvidenceError(constraint_name, frozenset(self.constraints))


class Verified(Generic[T]):
    """An unforgeable wrapper around a validated value.

    Only a validator holding the private construction token can build one;
    call :meth:`repro.core.packet.PacketSpec.verify` or
    :meth:`repro.core.packet.PacketSpec.parse` to obtain instances.

    The wrapped value is the read-only attribute :attr:`value`; the
    evidence, :attr:`certificate`.  Instances are immutable and hashable
    when the wrapped value is.
    """

    __slots__ = ("value", "certificate")
    value: T
    certificate: Certificate

    def __init__(self, value: T, certificate: Certificate, _token: Any = None) -> None:
        if _token is not _CONSTRUCTION_TOKEN:
            raise ForgedProofError(
                "Verified values cannot be constructed directly; obtain them "
                "from a spec's verify()/parse() so the constraints are "
                "actually checked"
            )
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "certificate", certificate)

    def demand(self, constraint_name: str) -> "Verified[T]":
        """Assert specific evidence is present; returns self for chaining."""
        self.certificate.demand(constraint_name)
        return self

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Verified values are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Verified values are immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Verified)
            and other.value == self.value
            and other.certificate == self.certificate
        )

    def __hash__(self) -> int:
        return hash((self.value, self.certificate))

    def __repr__(self) -> str:
        return f"Verified({self.value!r}, certifies={list(self.certificate.constraints)})"


def _issue(value: T, certificate: Certificate) -> Verified[T]:
    """Internal factory used by validators; see module docstring."""
    return Verified(value, certificate, _token=_CONSTRUCTION_TOKEN)
