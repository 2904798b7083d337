"""E13 — "if an implementation is created from the DSL, then it must
operate correctly" (paper §5): the staged codec.

(a) Differential correctness: generated parse/build/verify agree with
the interpreted codec over a packet corpus.
(b) Performance: the generated code removes the per-field interpretive
dispatch.  Expected shape: generated wins by a constant factor, larger
for parse than for build.
(c) ``make`` per checksum algorithm: the generated ``make`` is the only
compiled code that computes checksums, and both tiers call the same
checksum kernel, so the compiled tier must not lose on any algorithm.
"""

import time
from functools import partial

from conftest import record_table

from repro import fastpath
from repro.core.compile import compile_spec
from repro.core.fields import Bytes, ChecksumField, UInt
from repro.core.packet import PacketSpec
from repro.core.symbolic import this
from repro.protocols.arq import ARQ_PACKET
from repro.protocols.headers import IPV4_HEADER, UDP_HEADER
from repro.wire.checksums import CHECKSUM_ALGORITHMS

REPEATS = 300


def corpus():
    packets = []
    for seq in (0, 1, 127, 255):
        for size in (0, 1, 32, 255):
            payload = bytes(range(size % 256))[:size]
            packets.append(
                ("arq", ARQ_PACKET, ARQ_PACKET.make(seq=seq, length=size, payload=payload))
            )
    packets.append(
        (
            "udp",
            UDP_HEADER,
            UDP_HEADER.make(
                source_port=53, destination_port=5353, length=8 + 16,
                payload=b"differential-ok!",
            ),
        )
    )
    packets.append(
        (
            "ipv4",
            IPV4_HEADER,
            IPV4_HEADER.make(
                ihl=6, tos=0, total_length=24, identification=9, flags=0,
                fragment_offset=0, ttl=64, protocol=6,
                source=0x0A000001, destination=0x0A000002,
                options=b"\x07\x04\x00\x00",
            ),
        )
    )
    return packets


def test_differential_equivalence(benchmark):
    compiled = {}
    agreements = 0
    for name, spec, packet in corpus():
        if name not in compiled:
            compiled[name] = compile_spec(spec)
        codec = compiled[name]
        wire = spec.encode(packet)
        assert codec.build(packet.values) == wire
        assert codec.parse(wire) == packet.values
        assert codec.verify(wire) == (packet.values, [])
        agreements += 3
    record_table(
        "E13",
        "generated vs interpreted codec: differential agreement",
        ["check", "count"],
        [("packet corpus size", len(corpus())), ("agreements", agreements), ("disagreements", 0)],
    )
    codec = compiled["arq"]
    packet = corpus()[5][2]
    benchmark(codec.parse, ARQ_PACKET.encode(packet))


def _time(func, *args):
    start = time.perf_counter()
    for _ in range(REPEATS):
        func(*args)
    return time.perf_counter() - start


def test_staging_speedup(benchmark):
    rows = []
    for name, spec in (("arq", ARQ_PACKET), ("udp", UDP_HEADER), ("ipv4", IPV4_HEADER)):
        packet = next(p for n, s, p in corpus() if n == name)
        codec = compile_spec(spec)
        wire = spec.encode(packet)
        # Pin the fast path off for the interpreted lane: under the
        # default policy these loops would run the compiled codec and
        # silently time generated code against itself.
        with fastpath.use(mode="off"):
            interp_parse = _time(spec.decode, wire)
            interp_build = _time(spec.encode, packet)
        gen_parse = _time(codec.parse, wire)
        gen_build = _time(codec.build, packet.values)
        rows.append(
            (
                name,
                f"{interp_parse / gen_parse:.2f}x",
                f"{interp_build / gen_build:.2f}x",
                f"{gen_parse / REPEATS * 1e6:.1f}",
                f"{gen_build / REPEATS * 1e6:.1f}",
            )
        )
        assert gen_parse < interp_parse  # staging must actually pay off
    record_table(
        "E13b",
        f"staging speedup ({REPEATS} ops per cell)",
        ["spec", "parse speedup", "build speedup", "gen parse us", "gen build us"],
        rows,
        notes="expected shape: constant-factor win, larger for parse",
    )
    codec = compile_spec(ARQ_PACKET)
    packet = next(p for n, s, p in corpus() if n == "arq")
    benchmark(codec.build, packet.values)


def test_make_per_checksum_algorithm(benchmark):
    rows = []
    makes = {}
    for algorithm in ("xor8", "internet", "fletcher16", "crc16-ccitt", "crc32", "adler32"):
        spec = PacketSpec(
            f"Make_{algorithm.replace('-', '_')}",
            fields=[
                UInt("seq", bits=16),
                ChecksumField("chk", algorithm=algorithm, over=("seq", "length", "payload")),
                UInt("length", bits=8),
                Bytes("payload", length=this.length),
            ],
        )
        make = makes[algorithm] = partial(spec.make, seq=1, length=255, payload=bytes(range(255)))
        with fastpath.use(mode="off"):
            interp = min(_time(make) for _ in range(3))
        with fastpath.use(mode="always"):
            compiled = min(_time(make) for _ in range(3))
        kernel = min(_time(CHECKSUM_ALGORITHMS[algorithm].compute, bytes(258)) for _ in range(3))
        rows.append(
            (
                algorithm,
                f"{interp / REPEATS * 1e6:.1f}",
                f"{compiled / REPEATS * 1e6:.1f}",
                f"{kernel / REPEATS * 1e6:.2f}",
                f"{interp / compiled:.2f}x",
            )
        )
        assert compiled < interp  # one shared kernel: compiling never loses
    record_table(
        "E13c",
        f"make() of a 255-byte payload frame per checksum algorithm ({REPEATS} ops per cell, best of 3)",
        ["algorithm", "interpreted us", "compiled us", "kernel us", "compiled speedup"],
        rows,
        notes="both tiers call the same kernel from repro.wire.checksums",
    )
    with fastpath.use(mode="always"):
        benchmark(makes["crc16-ccitt"])
