"""Checksum algorithms against published test vectors and basic laws.

Each built-in kernel is also checked against a per-byte reference written
from the algorithm's textbook definition, on every bytes-like input type
the codec tiers hand it.
"""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.wire.checksums import (
    CHECKSUM_ALGORITHMS,
    adler32,
    crc16_ccitt,
    crc32,
    fletcher16,
    internet_checksum,
    register_algorithm,
    xor8,
)


def _ref_xor8(data):
    value = 0
    for byte in data:
        value ^= byte
    return value


def _ref_internet(data):
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _ref_fletcher16(data):
    c0 = c1 = 0
    for byte in data:
        c0 = (c0 + byte) % 255
        c1 = (c1 + c0) % 255
    return (c1 << 8) | c0


def _ref_crc16_ccitt(data, initial=0xFFFF):
    crc = initial
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
    return crc


def _ref_crc32(data):
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


def _ref_adler32(data):
    a, b = 1, 0
    for byte in data:
        a = (a + byte) % 65521
        b = (b + a) % 65521
    return (b << 16) | a


REFERENCES = {
    "xor8": _ref_xor8,
    "internet": _ref_internet,
    "fletcher16": _ref_fletcher16,
    "crc16-ccitt": _ref_crc16_ccitt,
    "crc32": _ref_crc32,
    "adler32": _ref_adler32,
}

BYTES_LIKE = (bytes, bytearray, lambda data: memoryview(bytearray(data)))


class TestKernelsMatchReferences:
    @pytest.mark.parametrize("name", sorted(REFERENCES))
    @given(data=st.binary(max_size=600))
    def test_kernel_matches_reference_on_every_buffer_type(self, name, data):
        expected = REFERENCES[name](data)
        for wrap in BYTES_LIKE:
            assert CHECKSUM_ALGORITHMS[name].compute(wrap(data)) == expected

    @pytest.mark.parametrize("name", sorted(REFERENCES))
    def test_edge_inputs(self, name):
        # Empty, all-zero and all-ones inputs hit the special cases of the
        # whole-integer kernels (an Internet checksum of 0 vs 0xFFFF).
        for data in (b"", b"\x00", b"\xff", b"\x00" * 7, b"\xff" * 2,
                     b"\xff" * 6, b"\xff\xfe\x00\x01", bytes(range(256)) * 6):
            assert CHECKSUM_ALGORITHMS[name].compute(data) == REFERENCES[name](data)

    @pytest.mark.parametrize("name", sorted(REFERENCES))
    def test_kernel_source_is_standalone_and_identical(self, name):
        algorithm = CHECKSUM_ALGORITHMS[name]
        assert "repro" not in algorithm.source
        namespace = {}
        exec(compile(algorithm.source, "<kernel>", "exec"), namespace)
        function = namespace[algorithm.compute.__name__]
        data = bytes(range(256)) * 2 + b"odd"
        assert function(data) == algorithm.compute(data) == REFERENCES[name](data)

    def test_public_functions_are_the_registry_kernels(self):
        for name, function in (
            ("xor8", xor8),
            ("internet", internet_checksum),
            ("fletcher16", fletcher16),
            ("crc16-ccitt", crc16_ccitt),
            ("crc32", crc32),
            ("adler32", adler32),
        ):
            assert CHECKSUM_ALGORITHMS[name].compute is function

    def test_crcs_and_adler_run_in_the_standard_library(self):
        assert crc32 is zlib.crc32
        assert adler32 is zlib.adler32
        assert "crc_hqx" in CHECKSUM_ALGORITHMS["crc16-ccitt"].source


class TestXor8:
    def test_empty_is_zero(self):
        assert xor8(b"") == 0

    def test_single_byte_is_itself(self):
        assert xor8(b"\x5a") == 0x5A

    def test_self_inverse(self):
        assert xor8(b"\x12\x34\x12\x34") == 0

    @given(st.binary(max_size=64))
    def test_order_independent(self, data):
        assert xor8(data) == xor8(bytes(reversed(data)))


class TestInternetChecksum:
    def test_rfc1071_style_example(self):
        # Sum of 0x0001 and 0xf203 and 0xf4f5 and 0xf6f7 per RFC 1071 §3.
        data = bytes.fromhex("0001f203f4f5f6f7")
        total = (0x0001 + 0xF203 + 0xF4F5 + 0xF6F7)
        total = (total & 0xFFFF) + (total >> 16)
        assert internet_checksum(data) == (~total & 0xFFFF)

    def test_ipv4_wikipedia_example(self):
        # The widely used example header: checksum field zeroed.
        header = bytes.fromhex("45000073000040004011" + "0000" + "c0a80001c0a800c7")
        assert internet_checksum(header) == 0xB861

    def test_odd_length_padding(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_verification_property(self):
        # A packet with its correct checksum inserted sums to zero.
        data = b"hello protocol"
        checksum = internet_checksum(data)
        total = internet_checksum(data + checksum.to_bytes(2, "big"))
        assert total == 0


class TestFletcher16:
    def test_known_vector_abcde(self):
        # Classic test vector: "abcde" -> 0xC8F0.
        assert fletcher16(b"abcde") == 0xC8F0

    def test_known_vector_abcdef(self):
        assert fletcher16(b"abcdef") == 0x2057

    def test_detects_transposition(self):
        assert fletcher16(b"ab") != fletcher16(b"ba")


class TestCrc:
    def test_crc16_ccitt_check_value(self):
        # The standard check input "123456789" -> 0x29B1 for CCITT-FALSE.
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_crc16_initial_value_is_honoured(self):
        # Same polynomial from init 0: the CRC-16/XMODEM check value.
        assert crc16_ccitt(b"123456789", 0) == 0x31C3

    def test_crc32_matches_zlib(self):
        for data in (b"", b"a", b"123456789", b"the quick brown fox"):
            assert crc32(data) == zlib.crc32(data) & 0xFFFFFFFF

    def test_crc32_check_value(self):
        assert crc32(b"123456789") == 0xCBF43926


class TestAdler32:
    def test_matches_zlib(self):
        for data in (b"", b"Wikipedia", b"123456789", bytes(range(256))):
            assert adler32(data) == zlib.adler32(data) & 0xFFFFFFFF

    def test_check_value(self):
        assert adler32(b"Wikipedia") == 0x11E60398


class TestRegistry:
    def test_all_algorithms_present(self):
        assert {
            "xor8",
            "internet",
            "fletcher16",
            "crc16-ccitt",
            "crc32",
            "adler32",
        } <= set(CHECKSUM_ALGORITHMS)

    def test_declared_widths_bound_outputs(self):
        data = b"width check payload"
        for algorithm in CHECKSUM_ALGORITHMS.values():
            assert 0 <= algorithm.compute(data) < (1 << algorithm.bits)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("xor8", 8, xor8)

    def test_custom_registration(self):
        name = "test-sum8"
        if name not in CHECKSUM_ALGORITHMS:
            register_algorithm(name, 8, lambda data: sum(data) & 0xFF)
        assert CHECKSUM_ALGORITHMS[name].compute(b"\x01\x02") == 3
        assert CHECKSUM_ALGORITHMS[name].source is None
