"""The code generator: differential equivalence with the interpreted codec."""

import pytest
from hypothesis import given, strategies as st

from repro import fastpath
from repro.core import codec
from repro.core.compile import CodegenError, compile_spec, generate_codec_source
from repro.core.constraints import Constraint
from repro.core.fields import Bytes, ChecksumField, Flag, Reserved, UInt, UIntList
from repro.core.packet import PacketSpec, VerificationError
from repro.core.symbolic import SymbolicError, this
from repro.protocols.arq import ARQ_PACKET
from repro.protocols.headers import IPV4_HEADER, UDP_HEADER
from repro.protocols.sliding import SLIDING_ACK, SLIDING_PACKET
from repro.wire.checksums import CHECKSUM_ALGORITHMS, register_algorithm

SPECS = {
    "arq": ARQ_PACKET,
    "udp": UDP_HEADER,
    "ipv4": IPV4_HEADER,
}


def sample_packets():
    yield "arq", ARQ_PACKET.make(seq=7, length=5, payload=b"hello")
    yield "arq", ARQ_PACKET.make(seq=0, length=0, payload=b"")
    yield "udp", UDP_HEADER.make(
        source_port=53, destination_port=1234, length=8 + 4, payload=b"ping"
    )
    yield "ipv4", IPV4_HEADER.make(
        ihl=5, tos=0, total_length=20, identification=1, flags=0,
        fragment_offset=0, ttl=64, protocol=17,
        source=0xC0A80001, destination=0xC0A800C7, options=b"",
    )


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("name,packet", list(sample_packets()))
    def test_build_matches_interpreted_encode(self, name, packet):
        compiled = compile_spec(SPECS[name])
        assert compiled.build(packet.values) == SPECS[name].encode(packet)

    @pytest.mark.parametrize("name,packet", list(sample_packets()))
    def test_parse_matches_interpreted_decode(self, name, packet):
        spec = SPECS[name]
        compiled = compile_spec(spec)
        wire = spec.encode(packet)
        assert compiled.parse(wire) == spec.decode(wire).values

    @pytest.mark.parametrize("name,packet", list(sample_packets()))
    def test_finalize_matches_make_checksums(self, name, packet):
        """Generated make completes the checksums the interpreter computes."""
        spec = SPECS[name]
        compiled = compile_spec(spec)
        checksums = {f.name for f in spec.fields if isinstance(f, ChecksumField)}
        keywords = {k: v for k, v in packet.values.items() if k not in checksums}
        zeroed = dict(keywords, **dict.fromkeys(checksums, 0))
        assert compiled.make(keywords) == codec.compute_checksums(spec, zeroed)

    @given(seq=st.integers(0, 255), payload=st.binary(max_size=200))
    def test_arq_differential_property(self, seq, payload):
        compiled = compile_spec(ARQ_PACKET)
        packet = ARQ_PACKET.make(seq=seq, length=len(payload), payload=payload)
        wire = ARQ_PACKET.encode(packet)
        assert compiled.build(packet.values) == wire
        assert compiled.parse(wire) == packet.values
        assert compiled.verify(wire) == (packet.values, [])


def _violated(compiled, values):
    """The names generated ``verify`` reports for ``values`` on the wire."""
    wire = compiled.build(values)
    parsed, violated = compiled.verify(wire)
    assert parsed == compiled.parse(wire)
    return violated


class TestGeneratedValidation:
    def test_checksum_violation_detected(self):
        compiled = compile_spec(ARQ_PACKET)
        packet = ARQ_PACKET.make(seq=1, length=3, payload=b"abc")
        bad = dict(packet.values, chk=(packet.chk + 1) % 256)
        assert "chk_valid" in _violated(compiled, bad)

    def test_const_violation_detected(self):
        compiled = compile_spec(IPV4_HEADER)
        packet = next(p for n, p in sample_packets() if n == "ipv4")
        bad = dict(packet.values, version=6)
        assert "version_is_4" in _violated(compiled, bad)

    def test_symbolic_constraint_exported(self):
        compiled = compile_spec(IPV4_HEADER)
        packet = next(p for n, p in sample_packets() if n == "ipv4")
        bad = dict(packet.values, ihl=5, total_length=10)
        assert "total_length_covers_header" in _violated(compiled, bad)

    def test_enum_violation_detected(self):
        spec = PacketSpec(
            "E",
            fields=[
                UInt("kind", bits=8, enum={0: "a", 1: "b"}),
                Reserved("pad", bits=8),
            ],
        )
        compiled = compile_spec(spec)
        assert "kind_in_enum" in _violated(compiled, {"kind": 7, "pad": 0})


class TestGeneratedGate:
    COMPILED = {name: compile_spec(spec) for name, spec in SPECS.items()}

    @given(data=st.binary(max_size=40))
    def test_verify_raises_exactly_where_parse_raises(self, data):
        for compiled in self.COMPILED.values():
            try:
                parsed = compiled.parse(data)
            except ValueError:
                with pytest.raises(ValueError):
                    compiled.verify(data)
            else:
                assert compiled.verify(data)[0] == parsed

    def test_reserved_mismatch_reports_shape_and_constraint(self):
        spec = PacketSpec("ResProbe", fields=[UInt("a", bits=8), Reserved("pad", bits=8)])
        assert compile_spec(spec).verify(b"\x01\x05") == (
            {"a": 1, "pad": 5}, ["pad_shape", "pad_is_0"]
        )
        for mode in ("always", "off"):
            with fastpath.use(mode=mode):
                with pytest.raises(VerificationError) as err:
                    spec.parse(b"\x01\x05")
            names = {v.constraint_name for v in err.value.violations}
            assert names == {"pad_shape", "pad_is_0"}


def _residual_probe():
    """User constraints named like generated ones, which the gate cannot stage."""
    return PacketSpec(
        "ResidualProbe",
        fields=[UInt("n", bits=8), Bytes("payload", length=this.n)],
        constraints=[
            Constraint("payload_valid", lambda p: p.payload != b"bad"),
            Constraint("n_is_small", lambda p: p.n < 10),
            Constraint("n_positive", this.n >= 1),
        ],
    )


class TestResidualConstraints:
    def test_residuals_are_the_user_constraints_the_gate_cannot_stage(self):
        spec = _residual_probe()
        residual = "['payload_valid', 'n_is_small']"
        assert f"Residual (non-exportable) constraints: {residual}" in (
            generate_codec_source(spec)
        )
        assert compile_spec(spec).residual == ("payload_valid", "n_is_small")

    @pytest.mark.parametrize("mode", ["always", "off"])
    def test_residual_constraints_still_gate_received_frames(self, mode):
        spec = _residual_probe()
        with fastpath.use(mode=mode):
            for kw, failing in (
                ({"n": 3, "payload": b"bad"}, "payload_valid"),
                ({"n": 12, "payload": bytes(12)}, "n_is_small"),
                ({"n": 0, "payload": b""}, "n_positive"),
            ):
                wire = spec.encode(spec.make(**kw))
                assert spec.try_parse(wire) is None
                with pytest.raises(VerificationError) as err:
                    spec.parse(wire)
                assert [v.constraint_name for v in err.value.violations] == [failing]
            assert spec.try_parse(spec.encode(spec.make(n=3, payload=b"abc")))

    def test_a_predicate_that_can_raise_stays_residual(self):
        spec = PacketSpec(
            "DivProbe",
            fields=[UInt("a", bits=8), UInt("b", bits=8)],
            constraints=[Constraint("ratio", this.a // this.b >= 1)],
        )
        assert compile_spec(spec).residual == ("ratio",)
        for mode in ("always", "off"):
            with fastpath.use(mode=mode):
                assert spec.try_parse(b"\x04\x02") is not None
                assert spec.try_parse(b"\x01\x02") is None
                with pytest.raises(SymbolicError):
                    spec.parse(b"\x04\x00")


class TestGeneratedErrorPaths:
    def test_parse_rejects_truncation(self):
        compiled = compile_spec(ARQ_PACKET)
        with pytest.raises(ValueError):
            compiled.parse(b"\x01")

    def test_parse_rejects_trailing_data(self):
        spec = PacketSpec("Trail", fields=[UInt("a", bits=8)])
        compiled = compile_spec(spec)
        with pytest.raises(ValueError, match="trailing"):
            compiled.parse(b"\x01\x02")

    def test_build_rejects_oversized_values(self):
        spec = PacketSpec("Over", fields=[UInt("a", bits=8)])
        compiled = compile_spec(spec)
        with pytest.raises(ValueError, match="does not fit"):
            compiled.build({"a": 300})

    def test_build_rejects_length_mismatch(self):
        compiled = compile_spec(ARQ_PACKET)
        with pytest.raises(ValueError, match="length"):
            compiled.build({"seq": 1, "chk": 0, "length": 5, "payload": b"ab"})


class TestGeneratorLimits:
    def test_source_is_standalone(self):
        source = generate_codec_source(ARQ_PACKET)
        assert "import repro" not in source
        namespace = {}
        exec(compile(source, "<generated>", "exec"), namespace)
        assert callable(namespace["parse"])

    def test_source_mentions_generation(self):
        source = generate_codec_source(ARQ_PACKET)
        assert "Generated codec" in source
        assert "do not edit" in source

    def test_bit_fields_supported(self):
        spec = PacketSpec(
            "Bits",
            fields=[
                UInt("v", bits=4),
                UInt("h", bits=4),
                Flag("f"),
                Reserved("pad", bits=7),
                UIntList("xs", element_bits=8, count=this.v),
            ],
        )
        compiled = compile_spec(spec)
        packet = spec.make(v=2, h=5, f=True, xs=[9, 8])
        wire = spec.encode(packet)
        assert compiled.build(packet.values) == wire
        assert compiled.parse(wire) == packet.values

    def test_unaligned_checksum_cover_refused(self):
        # Legal spec (cover is a whole byte) but the covered field starts
        # mid-byte; the interpreter handles it, the generator refuses.
        spec = PacketSpec(
            "Unaligned",
            fields=[
                UInt("a", bits=4),
                UInt("b", bits=8),
                Reserved("pad", bits=4),
                ChecksumField("chk", algorithm="crc16-ccitt", over=("b",)),
            ],
        )
        with pytest.raises(CodegenError, match="byte-aligned"):
            generate_codec_source(spec)


BUILTIN_ALGORITHMS = ("xor8", "internet", "fletcher16", "crc16-ccitt", "crc32", "adler32")


def _checksummed_spec(algorithm, over):
    """seq | chk | length | payload, with ``chk`` computed by ``algorithm``."""
    return PacketSpec(
        f"Ck_{algorithm.replace('-', '_')}",
        fields=[
            UInt("seq", bits=16),
            ChecksumField("chk", algorithm=algorithm, over=over),
            UInt("length", bits=16),
            Bytes("payload", length=this.length),
        ],
    )


COVERS = (("seq", "length", "payload"), ("length", "payload"), "*")


class TestSharedChecksumKernels:
    @pytest.mark.parametrize("algorithm", BUILTIN_ALGORITHMS)
    def test_generated_module_embeds_the_interpreter_kernel(self, algorithm):
        kernel = CHECKSUM_ALGORITHMS[algorithm]
        compiled = compile_spec(_checksummed_spec(algorithm, COVERS[0]))
        assert kernel.source in compiled.source
        generated = getattr(compiled.module, kernel.compute.__name__)
        if hasattr(kernel.compute, "__code__"):
            assert generated.__code__.co_code == kernel.compute.__code__.co_code
        else:  # a C function of the standard library, bound by name
            assert generated is kernel.compute

    @pytest.mark.parametrize("over", COVERS, ids=("gap", "run", "whole"))
    @pytest.mark.parametrize("algorithm", BUILTIN_ALGORITHMS)
    @given(seq=st.integers(0, 0xFFFF), payload=st.binary(max_size=300))
    def test_finalize_and_validate_match_the_interpreter(
        self, algorithm, over, seq, payload
    ):
        """Generated make and verify agree with the interpreted checksums."""
        spec = _checksummed_spec(algorithm, over)
        compiled = compile_spec(spec)
        keywords = {"seq": seq, "length": len(payload), "payload": payload}
        expected = codec.compute_checksums(spec, dict(keywords, chk=0))
        assert compiled.make(keywords) == expected
        assert compiled.verify(compiled.build(expected)) == (expected, [])
        forged = dict(expected, chk=expected["chk"] ^ 1)
        assert compiled.verify(compiled.build(forged)) == (forged, ["chk_valid"])

    @given(seq=st.integers(0, 0xFFFF), payload=st.binary(max_size=64))
    def test_a_later_checksum_covers_an_earlier_one(self, seq, payload):
        spec = PacketSpec(
            "TwoChecksums",
            fields=[
                UInt("seq", bits=16),
                UInt("length", bits=16),
                ChecksumField("body", algorithm="crc16-ccitt", over=("length", "payload")),
                ChecksumField("whole", algorithm="internet", over="*"),
                Bytes("payload", length=this.length),
            ],
        )
        compiled = compile_spec(spec)
        keywords = {"seq": seq, "length": len(payload), "payload": payload}
        expected = codec.compute_checksums(spec, dict(keywords, body=0, whole=0))
        assert compiled.make(keywords) == expected
        assert compiled.verify(compiled.build(expected)) == (expected, [])

    def test_adjacent_covered_fields_are_sliced_once(self):
        ack = generate_codec_source(SLIDING_ACK)  # covers kind, seq: one run
        assert "b''.join" not in ack
        data = generate_codec_source(SLIDING_PACKET)  # seq | chk | length, payload
        cover = next(line for line in data.splitlines() if "cover = " in line)
        assert cover.count("_b[") == 2
        assert "spans['length'][0] // 8:spans['payload'][1] // 8" in cover

    def test_registered_algorithm_is_refused_and_stays_interpreted(self):
        name = "test-compile-sum8"
        if name not in CHECKSUM_ALGORITHMS:
            register_algorithm(name, 8, lambda data: sum(data) & 0xFF)
        spec = PacketSpec(
            "CustomSum",
            fields=[UInt("a", bits=8), ChecksumField("c", algorithm=name, over=("a",))],
        )
        with pytest.raises(CodegenError, match="no kernel source"):
            generate_codec_source(spec)
        with fastpath.use(mode="always"):
            packet = spec.make(a=3)
            assert packet.c == 3
            assert fastpath.state_of(spec).status == "interpreted"
