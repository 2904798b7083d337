"""Checksum and integrity algorithms used by packet specifications.

Every algorithm maps ``bytes -> int`` and declares its output width so the
packet DSL can tie a checksum field's bit width to the algorithm computing
it (the dependent-typing move of the paper's ``check : Byte -> List Byte ->
Byte`` function).

One kernel per algorithm
------------------------
Each built-in algorithm is written exactly once, as the standalone Python
source in :data:`_KERNELS`.  This module executes that source to define
its public function, which the interpreted codec tier reaches through
``ChecksumField.compute``; the code generator (``repro.core.compile``)
pastes the very same source into every generated codec module that needs
the algorithm.  The two codec tiers therefore cannot drift apart in
either value or speed.

Where the standard library implements an algorithm in C, the kernel is
that implementation: ``binascii.crc_hqx`` for CRC-16/CCITT, and
``zlib.crc32`` and ``zlib.adler32``.  The Internet checksum and
Fletcher-16 reduce the whole input with a few big-integer or iterator
operations instead of a per-byte Python loop; XOR-8 keeps its loop.
Every kernel accepts any bytes-like object
(``bytes``, ``bytearray``, ``memoryview``) and is pinned to published
test vectors and to a per-byte reference in ``tests/test_wire_checksums.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional


class ChecksumAlgorithm(NamedTuple):
    """A named checksum algorithm with a declared output width.

    The packet DSL consults ``bits`` to validate that a checksum field is
    wide enough to hold the algorithm's output — a shape mismatch is a
    definition-time error, not a runtime surprise.  ``source`` is the
    standalone kernel that defines ``compute`` (under
    ``compute.__name__``); algorithms registered at run time have none,
    so the code generator refuses specs that use them and those specs
    stay on the interpreted tier.
    """

    name: str
    bits: int
    compute: Callable[[bytes], int]
    source: Optional[str] = None


#: ``(algorithm, bits, function, source)``: ``source`` binds ``function``.
_KERNELS = (
    ("xor8", 8, "xor8", '''
def xor8(data):
    """8-bit XOR (longitudinal redundancy) checksum.

    The simple ``check`` function of the paper's ARQ example: a one-byte
    digest of the sequence number and payload.  A plain byte loop:
    folding the input as one integer only wins past ~100 bytes, and
    ARQ acks and small data frames cover 1 to 20.
    """
    value = 0
    for byte in data:
        value ^= byte
    return value
'''),
    ("internet", 16, "internet_checksum", '''
def internet_checksum(data):
    """RFC 1071 Internet checksum (ones' complement of ones'-complement sum).

    Used by IPv4, ICMP, UDP and TCP.  Odd-length input is virtually padded
    with a zero byte, per the RFC.  Because 2**16 == 1 (mod 0xFFFF), the
    end-around-carry sum of the 16-bit words is the whole input read as
    one integer, reduced mod 0xFFFF into 1..0xFFFF (0 only for all zeros).
    """
    total = int.from_bytes(data, "big") << ((len(data) & 1) << 3)
    if not total:
        return 0xFFFF
    return 0xFFFF - (total % 0xFFFF or 0xFFFF)
'''),
    ("fletcher16", 16, "fletcher16", '''
from itertools import accumulate as _accumulate


def fletcher16(data):
    """Fletcher-16 checksum (RFC 1146 style), returned as ``(c1 << 8) | c0``.

    ``c0`` is the byte sum and ``c1`` the sum of its running totals, both
    mod 255; reducing once at the end gives the same residues as the
    textbook per-byte reduction.
    """
    return (sum(_accumulate(data)) % 255) << 8 | sum(data) % 255
'''),
    ("crc16-ccitt", 16, "crc16_ccitt", '''
from binascii import crc_hqx as _crc_hqx


def crc16_ccitt(data, initial=0xFFFF):
    """CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection)."""
    return _crc_hqx(data, initial)
'''),
    # zlib's own functions, unwrapped: IEEE 802.3 CRC-32 (Ethernet, gzip,
    # PNG) and RFC 1950 Adler-32, both already unsigned on Python 3.
    ("crc32", 32, "crc32", '''
from zlib import crc32
'''),
    ("adler32", 32, "adler32", '''
from zlib import adler32
'''),
)


def _load_kernel(name: str, bits: int, function: str, source: str) -> ChecksumAlgorithm:
    """Execute one kernel's source and bind its function to the algorithm."""
    source = source.lstrip("\n")
    namespace: Dict[str, Any] = {"__name__": __name__}
    exec(compile(source, f"<checksum kernel {name}>", "exec"), namespace)
    return ChecksumAlgorithm(name, bits, namespace[function], source)


CHECKSUM_ALGORITHMS: Dict[str, ChecksumAlgorithm] = {
    name: _load_kernel(name, bits, function, source)
    for name, bits, function, source in _KERNELS
}
"""Registry keyed by algorithm name; extend via :func:`register_algorithm`."""

xor8: Callable[[bytes], int] = CHECKSUM_ALGORITHMS["xor8"].compute
internet_checksum: Callable[[bytes], int] = CHECKSUM_ALGORITHMS["internet"].compute
fletcher16: Callable[[bytes], int] = CHECKSUM_ALGORITHMS["fletcher16"].compute
crc16_ccitt: Callable[..., int] = CHECKSUM_ALGORITHMS["crc16-ccitt"].compute
crc32: Callable[..., int] = CHECKSUM_ALGORITHMS["crc32"].compute
adler32: Callable[..., int] = CHECKSUM_ALGORITHMS["adler32"].compute


def register_algorithm(name: str, bits: int, compute: Callable[[bytes], int]) -> ChecksumAlgorithm:
    """Register a custom checksum algorithm for use in packet specs.

    Raises ``ValueError`` if the name is already taken, so a spec can never
    silently change meaning because two modules fought over a name.  A
    registered algorithm has no kernel source, so specs using it always
    run on the interpreted codec tier.
    """
    if name in CHECKSUM_ALGORITHMS:
        raise ValueError(f"checksum algorithm {name!r} is already registered")
    algorithm = ChecksumAlgorithm(name, bits, compute)
    CHECKSUM_ALGORITHMS[name] = algorithm
    return algorithm
