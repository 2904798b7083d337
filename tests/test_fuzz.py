"""Fuzz and property tests: hostile inputs never produce undefined behaviour.

The paper's security motivation (§1.1) means decoders are attack surface:
whatever bytes arrive, the framework must either produce a verified value
or fail with its *declared* error types — never crash, never hang, never
hand out unvalidated data.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.abnf import AbnfMatchError, AbnfSyntaxError, Matcher, parse_grammar
from repro.asn1 import (
    Asn1Error,
    Boolean,
    Choice,
    IA5String,
    Integer,
    OctetString,
    Sequence,
    SequenceOf,
    der_decode,
    per_decode,
)
from repro.core.codec import DecodeError
from repro.core.packet import VerificationError
from repro.protocols.arq import ARQ_PACKET
from repro.protocols.dns import DNS_HEADER
from repro.protocols.handshake import HANDSHAKE_PACKET
from repro.protocols.headers import ICMP_ECHO, IPV4_HEADER, TCP_HEADER, UDP_HEADER
from repro.protocols.sliding import SLIDING_ACK, SLIDING_PACKET

ALL_SPECS = [
    ARQ_PACKET,
    IPV4_HEADER,
    UDP_HEADER,
    TCP_HEADER,
    ICMP_ECHO,
    DNS_HEADER,
    HANDSHAKE_PACKET,
    SLIDING_PACKET,
    SLIDING_ACK,
]


class TestDecoderFuzz:
    @given(data=st.binary(max_size=128))
    @settings(max_examples=300)
    def test_random_bytes_never_crash_any_decoder(self, data):
        for spec in ALL_SPECS:
            try:
                packet = spec.decode(data)
            except DecodeError:
                continue  # the declared failure mode
            # If raw decoding succeeded, verification must still gate it.
            try:
                verified = spec.verify(packet)
            except VerificationError:
                continue
            # Verified random bytes must round-trip bit-exactly.
            assert spec.encode(verified.value) == data

    @given(data=st.binary(max_size=64))
    @settings(max_examples=200)
    def test_try_parse_is_total(self, data):
        for spec in ALL_SPECS:
            result = spec.try_parse(data)
            if result is not None:
                assert spec.encode(result.value) == data

    @given(
        seed=st.integers(0, 2**32 - 1),
        flips=st.lists(st.integers(0, 8 * 10 - 1), min_size=1, max_size=8),
    )
    @settings(max_examples=150)
    def test_bitflip_storm_on_valid_packet(self, seed, flips):
        """Arbitrary multi-bit corruption of a valid ARQ packet either
        fails cleanly or (xor8 is weak to even flips per byte-column)
        yields a packet that still verifies — but NEVER a crash and NEVER
        silently different semantics with a valid certificate and
        mismatched bytes."""
        packet = ARQ_PACKET.make(seq=seed % 256, length=6, payload=b"fuzzme")
        wire = bytearray(ARQ_PACKET.encode(packet))
        for flip in flips:
            position = flip % (len(wire) * 8)
            wire[position // 8] ^= 1 << (7 - position % 8)
        result = ARQ_PACKET.try_parse(bytes(wire))
        if result is not None:
            assert ARQ_PACKET.encode(result.value) == bytes(wire)


class TestGeneratedCodecFuzz:
    @given(data=st.binary(max_size=64))
    @settings(max_examples=200)
    def test_generated_parser_agrees_on_rejection(self, data):
        """The staged parser accepts exactly what the interpreter accepts."""
        from repro.core.compile import compile_spec

        compiled = compile_spec(ARQ_PACKET)
        try:
            interpreted = ARQ_PACKET.decode(data).values
        except DecodeError:
            with pytest.raises(ValueError):
                compiled.parse(data)
            return
        assert compiled.parse(data) == interpreted


class TestAsn1Fuzz:
    SCHEMAS = [
        Integer(),
        Integer(0, 255),
        Boolean(),
        OctetString(),
        IA5String(),
        Sequence([("a", Integer()), ("b", Boolean())]),
        SequenceOf(Integer(0, 7)),
        Choice([("x", Integer()), ("y", OctetString())]),
    ]

    @given(data=st.binary(max_size=64))
    @settings(max_examples=200)
    def test_der_decoder_total(self, data):
        for schema in self.SCHEMAS:
            try:
                der_decode(schema, data)
            except Asn1Error:
                pass  # the declared failure mode

    @given(data=st.binary(max_size=64))
    @settings(max_examples=200)
    def test_per_decoder_total(self, data):
        for schema in self.SCHEMAS:
            try:
                per_decode(schema, data)
            except Asn1Error:
                pass


class TestAbnfFuzz:
    @given(text=st.text(max_size=80))
    @settings(max_examples=200)
    def test_grammar_parser_total(self, text):
        try:
            parse_grammar(text)
        except AbnfSyntaxError:
            pass

    @given(data=st.binary(max_size=32))
    @settings(max_examples=150)
    def test_matcher_total_on_binary(self, data):
        matcher = Matcher(
            parse_grammar('msg = 1*OCTET\nshort = 2OCTET / 3OCTET')
        )
        matcher.fullmatch("msg", data)
        matcher.fullmatch("short", data)


class TestMachineFuzz:
    @given(
        choices=st.lists(st.integers(0, 5), min_size=1, max_size=60),
        start_seq=st.integers(0, 255),
    )
    @settings(max_examples=150)
    def test_random_walks_keep_machines_consistent(self, choices, start_seq):
        """Drive the sender with random *valid* transitions: the state is
        always a declared state, the trace always replays, and sequence
        parameters always stay in the Byte domain."""
        from repro.core.machine import Machine
        from repro.protocols.arq import ACK_PACKET, build_sender_spec

        spec = build_sender_spec()
        machine = Machine(spec, initial=spec.states["Ready"].instance(start_seq))
        steps = machine.record_steps()
        executed = 0
        for choice in choices:
            available = machine.available_transitions()
            if not available:
                break  # reached Sent
            transition = available[choice % len(available)]
            if transition.requires == "bytes":
                payload = b"payload"
            elif transition.requires is not None:
                payload = ACK_PACKET.verify(
                    ACK_PACKET.make(seq=machine.current.values[0])
                )
            else:
                payload = None
            machine.exec_trans(transition.name, payload)
            executed += 1
            assert machine.current.state.name in spec.states
            assert 0 <= machine.current.values[0] <= 255
        # The recorded trace must replay cleanly from the start state.
        from repro.analysis import validate_trace

        assert executed >= 1 and len(steps) == executed
        validate_trace(spec, spec.states["Ready"].instance(start_seq), steps)
