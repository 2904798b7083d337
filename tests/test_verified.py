"""The proof-carrying Verified wrapper: unforgeability and certificates."""

import pytest

from repro.core.fields import Bytes, ChecksumField, UInt
from repro.core.packet import PacketSpec, VerificationError
from repro.core.symbolic import this
from repro.core.verified import (
    Certificate,
    ForgedProofError,
    MissingEvidenceError,
    Verified,
)

ARQ = PacketSpec(
    "Arq",
    fields=[
        UInt("seq", bits=8),
        ChecksumField("chk", algorithm="xor8", over=("seq", "length", "payload")),
        UInt("length", bits=8),
        Bytes("payload", length=this.length),
    ],
)


class TestUnforgeability:
    def test_direct_construction_is_rejected(self):
        packet = ARQ.make(seq=1, length=0, payload=b"")
        certificate = Certificate("Arq", ("chk_valid",))
        with pytest.raises(ForgedProofError):
            Verified(packet, certificate)

    def test_token_guessing_with_none_fails(self):
        packet = ARQ.make(seq=1, length=0, payload=b"")
        with pytest.raises(ForgedProofError):
            Verified(packet, Certificate("Arq", ()), _token=object())

    def test_verify_is_the_constructor(self):
        packet = ARQ.make(seq=1, length=0, payload=b"")
        verified = ARQ.verify(packet)
        assert verified.value == packet
        assert verified.certificate.spec_name == "Arq"

    def test_verification_failure_never_yields_a_value(self):
        packet = ARQ.make(seq=1, length=3, payload=b"abc")
        assert packet.chk != 0  # guard against a vacuous forgery below
        packet = packet.replace(chk=0)
        with pytest.raises(VerificationError) as excinfo:
            ARQ.verify(packet)
        assert any(
            v.constraint_name == "chk_valid" for v in excinfo.value.violations
        )

    def test_verified_is_immutable(self):
        verified = ARQ.verify(ARQ.make(seq=1, length=0, payload=b""))
        with pytest.raises(AttributeError):
            verified.value = None
        with pytest.raises(AttributeError):
            verified._value = None
        with pytest.raises(AttributeError):
            del verified.value
        with pytest.raises(AttributeError):
            del verified.certificate


class TestCertificates:
    def test_certificate_lists_all_constraints(self):
        verified = ARQ.parse(ARQ.encode(ARQ.make(seq=1, length=2, payload=b"ab")))
        assert verified.certificate.certifies("chk_valid")

    def test_demand_present_evidence_chains(self):
        verified = ARQ.verify(ARQ.make(seq=1, length=0, payload=b""))
        assert verified.demand("chk_valid") is verified

    def test_demand_missing_evidence_raises(self):
        verified = ARQ.verify(ARQ.make(seq=1, length=0, payload=b""))
        with pytest.raises(MissingEvidenceError) as excinfo:
            verified.demand("nonexistent_constraint")
        assert excinfo.value.constraint_name == "nonexistent_constraint"

    def test_equality_and_hash(self):
        a = ARQ.verify(ARQ.make(seq=1, length=0, payload=b""))
        b = ARQ.verify(ARQ.make(seq=1, length=0, payload=b""))
        assert a == b
        assert hash(a) == hash(b)


class TestValidateOnce:
    def test_parse_equals_decode_plus_verify(self):
        packet = ARQ.make(seq=7, length=3, payload=b"abc")
        wire = ARQ.encode(packet)
        assert ARQ.parse(wire).value == ARQ.verify(ARQ.decode(wire)).value

    def test_try_parse_returns_none_on_corruption(self):
        wire = bytearray(ARQ.encode(ARQ.make(seq=7, length=3, payload=b"abc")))
        wire[3] ^= 0xFF
        assert ARQ.try_parse(bytes(wire)) is None

    def test_try_parse_returns_none_on_truncation(self):
        assert ARQ.try_parse(b"\x01") is None

    def test_try_parse_happy_path(self):
        wire = ARQ.encode(ARQ.make(seq=7, length=3, payload=b"abc"))
        verified = ARQ.try_parse(wire)
        assert verified is not None
        assert verified.value.payload == b"abc"
