"""repro.fastpath — the transparent compiled codec tier.

Covers the policy (off / always, compile on first use), generation
invalidation, the per-spec codec cache (one compile per spec object,
reused across policy changes), transparency (compiled results
byte-identical to the interpreter across every registry spec), error
canonicalization, the divergence guard (fallback, verify, demotion, obs
counter), the generator's refusal of subclassed fields, and the compiled
receive gate and ``make`` (differential against the interpreter on
fuzzer mutants, arbitrary bytes and every ``make`` reject class; when a
carried verdict is trusted), and the one oracle contract every compiled
entry point shares under ``verify``.
"""

import gc
import os
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import repro
import repro.conformance.mutate as mutate_module
from repro import fastpath, obs
from repro.conformance.coverage import CoverageMap
from repro.conformance.mutate import MutationFuzzer
from repro.conformance.registry import all_spec_entries
from repro.core import codec
from repro.core.codec import DecodeError
from repro.core.fields import Bytes, ChecksumField, Flag, Reserved, UInt, UIntList
from repro.core.packet import PacketSpec, VerificationError
from repro.core.symbolic import this
from repro.protocols.arq import ARQ_PACKET
from repro.protocols.headers import TCP_HEADER


@pytest.fixture(autouse=True)
def _clean_fastpath():
    """Isolate cache, stats and policy; leave the process as found."""
    previous = fastpath.get_policy()
    fastpath.reset()
    yield
    fastpath.reset()
    fastpath.set_policy(previous)


def _sample(entry, count=6, seed=7):
    rng = random.Random(seed)
    packets = [entry.generate(rng) for _ in range(count)]
    values = [p._values for p in packets]
    with fastpath.use(mode="off"):
        wires = [entry.spec.encode(p) for p in packets]
    return values, wires


def _simple_spec(name="FpSimple"):
    return PacketSpec(
        name,
        fields=[UInt("kind", bits=8), UInt("count", bits=16)],
    )


# --- policy ---


def test_policy_rejects_bad_values():
    with pytest.raises(ValueError, match="mode"):
        fastpath.FastPath(mode="sometimes")
    with pytest.raises(TypeError):
        fastpath.set_policy("always")


def test_off_mode_never_compiles():
    spec = _simple_spec()
    values = {"kind": 1, "count": 2}
    with fastpath.use(mode="off"):
        for _ in range(200):
            codec.encode_verbatim(spec, values)
        assert fastpath.state_of(spec) is None
    assert fastpath.stats()["compiles"] == 0


def test_always_mode_compiles_on_first_use():
    spec = _simple_spec()
    with fastpath.use(mode="always"):
        codec.encode_verbatim(spec, {"kind": 1, "count": 2})
        assert fastpath.state_of(spec).status == "compiled"
    assert fastpath.stats()["compiles"] == 1


_DEFAULT_POLICY_SCRIPT = """
from repro import fastpath
from repro.core import codec
from repro.protocols.arq import ARQ_PACKET

codec.encode_verbatim(ARQ_PACKET, {"seq": 1, "chk": 0, "length": 2, "payload": b"hi"})
print(fastpath.state_of(ARQ_PACKET).status, fastpath.stats()["compiles"])
"""


def test_default_policy_compiles_on_the_first_encode():
    # A fresh interpreter with no REPRO_* variables: the process default.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _DEFAULT_POLICY_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.split() == ["compiled", "1"]


def test_policy_change_invalidates_cached_decisions():
    spec = _simple_spec()
    with fastpath.use(mode="always"):
        codec.encode_verbatim(spec, {"kind": 1, "count": 2})
        assert fastpath.state_of(spec) is not None
    # the surrounding policy restore bumped the generation
    assert fastpath.state_of(spec) is None


def test_use_restores_previous_policy():
    before = fastpath.get_policy()
    with fastpath.use(mode="always", verify=True) as active:
        assert active.mode == "always" and active.verify
        assert fastpath.get_policy() is active
    assert fastpath.get_policy() == before


# --- transparency ---


def test_compiled_tier_is_transparent_for_every_registry_spec():
    for entry in all_spec_entries():
        spec = entry.spec
        values_list, wires = _sample(entry)
        with fastpath.use(mode="off"):
            interp_enc = [codec.encode_verbatim(spec, v) for v in values_list]
            interp_dec = [codec.decode_packet(spec, w) for w in wires]
            interp_spans = [codec.field_spans(spec, v) for v in values_list]
        with fastpath.use(mode="always"):
            fast_enc = [codec.encode_verbatim(spec, v) for v in values_list]
            fast_dec = [codec.decode_packet(spec, w) for w in wires]
            fast_spans = [codec.field_spans(spec, v) for v in values_list]
            state = fastpath.state_of(spec)
            assert state is not None and state.status == "compiled", entry.name
        assert fast_enc == interp_enc, entry.name
        assert fast_dec == interp_dec, entry.name
        assert fast_spans == interp_spans, entry.name
    assert fastpath.stats()["demotions"] == 0


def test_encode_errors_are_canonical_under_the_fast_path():
    entry = next(e for e in all_spec_entries() if e.name == "ArqData")
    values_list, wires = _sample(entry)
    bad = dict(values_list[0])
    bad["seq"] = 1 << 20  # does not fit in 8 bits

    with fastpath.use(mode="off"):
        with pytest.raises(ValueError) as interp_err:
            codec.encode_verbatim(entry.spec, bad)
    with fastpath.use(mode="always"):
        with pytest.raises(ValueError) as fast_err:
            codec.encode_verbatim(entry.spec, bad)
        with pytest.raises(DecodeError):
            codec.decode_packet(entry.spec, wires[0][:1])
    assert str(fast_err.value) == str(interp_err.value)
    # both tiers rejected: agreement, not divergence
    assert fastpath.stats()["demotions"] == 0


# --- divergence guard ---


def test_compiled_error_falls_back_and_demotes():
    entry = next(e for e in all_spec_entries() if e.name == "ArqAck")
    values_list, _ = _sample(entry)
    instr = obs.enable()
    instr.reset()
    try:
        with fastpath.use(mode="always"):
            expected = codec.encode_verbatim(entry.spec, values_list[0])
            state = fastpath.state_of(entry.spec)
            assert state.status == "compiled"

            def boom(values, spans=None):
                raise ValueError("injected codegen bug")

            state.codec = state.codec._replace(build=boom)
            # the interpreter answers; the spec is demoted for this generation
            assert codec.encode_verbatim(entry.spec, values_list[0]) == expected
            assert state.status == "interpreted"
            assert state.reason == "encode-error"
            # and stays interpreted (closures no longer dispatched)
            assert codec.encode_verbatim(entry.spec, values_list[0]) == expected
        assert fastpath.stats()["demotions"] == 1
        divergences = instr.registry.counter(
            "fastpath.divergences", spec="ArqAck", reason="encode-error"
        )
        assert divergences.value == 1
    finally:
        obs.disable()


def test_verify_mode_catches_wrong_bytes():
    entry = next(e for e in all_spec_entries() if e.name == "ArqAck")
    values_list, _ = _sample(entry)
    with fastpath.use(mode="always", verify=True):
        expected = codec.encode_verbatim(entry.spec, values_list[0])
        state = fastpath.state_of(entry.spec)
        wrong = b"\x00" * len(expected)

        def lies(values, spans=None):
            return wrong

        state.codec = state.codec._replace(build=lies)
        assert codec.encode_verbatim(entry.spec, values_list[0]) == expected
        assert state.status == "interpreted"
        assert state.reason == "encode-mismatch"
    assert fastpath.stats()["demotions"] == 1


def test_verify_mode_catches_wrong_decode():
    entry = next(e for e in all_spec_entries() if e.name == "ArqAck")
    values_list, wires = _sample(entry)
    with fastpath.use(mode="always", verify=True):
        expected = codec.decode_packet(entry.spec, wires[0])
        state = fastpath.state_of(entry.spec)

        def lies(data):
            return {name: 0 for name in expected}

        state.codec = state.codec._replace(parse=lies)
        assert codec.decode_packet(entry.spec, wires[0]) == expected
        assert state.status == "interpreted"
        assert state.reason == "decode-mismatch"
    assert fastpath.stats()["demotions"] == 1


# --- the cache ---


def test_structurally_identical_specs_share_one_codec():
    """Each spec object compiles once, whatever its shape; a policy round
    trip re-reads both cached codecs."""
    first, second = _simple_spec("AlphaWire"), _simple_spec("BetaWire")
    values = {"kind": 1, "count": 2}
    with fastpath.use(mode="always"):
        codec.encode_verbatim(first, values)
        codec.encode_verbatim(second, values)
        codecs = (fastpath.state_of(first).codec, fastpath.state_of(second).codec)
    assert fastpath.stats()["compiles"] == 2
    # A policy round trip re-reads each spec's cached codec.
    with fastpath.use(mode="off"):
        codec.encode_verbatim(first, values)
    with fastpath.use(mode="always"):
        codec.encode_verbatim(first, values)
        codec.encode_verbatim(second, values)
        assert fastpath.state_of(first).codec is codecs[0]
        assert fastpath.state_of(second).codec is codecs[1]
    assert fastpath.stats()["compiles"] == 2


def test_subclassed_fields_are_refused_not_misread():
    class WideUInt(UInt):
        """A field whose overridden behaviour codegen cannot stage."""

        def encode(self, writer, value, context):  # pragma: no cover
            raise AssertionError("never staged")

    shadowed = PacketSpec(
        "FpShadowed",
        fields=[WideUInt("kind", bits=8), UInt("count", bits=16)],
    )
    plain = _simple_spec()
    with fastpath.use(mode="always"):
        assert fastpath.active_state(shadowed) is None
        state = fastpath.state_of(shadowed)
        assert state.status == "interpreted"
        assert state.reason.startswith("codegen:")
        # the same-shape spec with plain fields is unaffected
        codec.encode_verbatim(plain, {"kind": 1, "count": 2})
        assert fastpath.state_of(plain).status == "compiled"
    stats = fastpath.stats()
    assert stats["failures"] == 1
    assert stats["compiles"] == 1


def test_the_cache_does_not_keep_a_spec_alive():
    spec = _simple_spec()
    with fastpath.use(mode="always"):
        codec.encode_verbatim(spec, {"kind": 1, "count": 2})
        assert fastpath.state_of(spec).status == "compiled"
    collected = weakref.ref(spec)
    del spec
    gc.collect()
    assert collected() is None


def test_a_spec_the_cache_cannot_key_stays_interpreted():
    class UnhashableSpec(PacketSpec):
        __hash__ = None

    spec = UnhashableSpec(
        "FpUnhashable",
        fields=[UInt("kind", bits=8), UInt("count", bits=16)],
    )
    with fastpath.use(mode="always"):
        assert codec.encode_verbatim(spec, {"kind": 1, "count": 2}) == b"\x01\x00\x02"
        assert fastpath.state_of(spec).status == "interpreted"
    assert fastpath.stats()["compiles"] == 0


def test_refusal_and_demotion_are_terminal_until_reset():
    spec = _simple_spec()
    with fastpath.use(mode="always"):
        codec.encode_verbatim(spec, {"kind": 1, "count": 2})
        state = fastpath.state_of(spec)
        fastpath.demote(state, "test-demotion")
        assert fastpath.active_state(spec) is None
        assert fastpath.state_of(spec).status == "interpreted"
    fastpath.reset()
    with fastpath.use(mode="always"):
        codec.encode_verbatim(spec, {"kind": 1, "count": 2})
        assert fastpath.state_of(spec).status == "compiled"


def test_metrics_handle_caches_survive_reset_but_not_clear():
    instr = obs.enable()
    instr.reset()
    try:
        registry = instr.registry
        cache = registry.handle_caches["codec"]
        cache["probe"] = "handle"
        registry.reset()  # zeroes values, keeps handles
        assert registry.handle_caches["codec"]["probe"] == "handle"
        registry.clear()  # drops metrics, so handles must go too
        assert "probe" not in registry.handle_caches["codec"]
    finally:
        obs.disable()


# --- conformance under verify ---


@pytest.mark.slow
def test_conformance_fuzz_smoke_under_verify():
    from repro.conformance.runner import run_all

    with fastpath.use(mode="always", verify=True):
        report = run_all(seed=0, budget=150, engines=["fuzz"], specs=["ArqData"])
    assert report.ok
    assert fastpath.stats()["demotions"] == 0


# --- the compiled receive gate and make ---

ENTRIES = all_spec_entries()


def _outcome(spec, data):
    """What ``parse`` and ``try_parse`` make of ``data``, comparable across tiers."""
    try:
        verified = spec.parse(data)
    except VerificationError as exc:
        parsed = ("reject", sorted(v.constraint_name for v in exc.violations), str(exc))
    except Exception as exc:  # the exception type and message are the outcome
        parsed = ("raise", type(exc), str(exc))
    else:
        parsed = ("accept", verified.value.values, verified.certificate)
    try:
        tried = spec.try_parse(data)
    except Exception as exc:
        tried = ("raise", type(exc), str(exc))
    return parsed, tried


def _both_tiers(spec, inputs, outcome):
    """``outcome`` of every input interpreted, compiled, and compiled under
    ``verify`` (which demotes on any differing verdict); all must agree."""
    with fastpath.use(mode="off"):
        expected = [outcome(spec, item) for item in inputs]
    with fastpath.use(mode="always"):
        compiled = [outcome(spec, item) for item in inputs]
        assert fastpath.state_of(spec).status == "compiled", spec.name
    with fastpath.use(mode="always", verify=True):
        checked = [outcome(spec, item) for item in inputs]
    assert compiled == expected, spec.name
    assert checked == expected, spec.name
    assert fastpath.stats()["demotions"] == 0, fastpath.demoted()
    return expected


def _mutants(entry, budget, seed):
    """Every input the seeded mutation fuzzer feeds ``entry``'s spec."""
    seen = []
    real = mutate_module.classify

    def recording(spec, data):
        seen.append(data)
        return real(spec, data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mutate_module, "classify", recording)
        with fastpath.use(mode="off"):
            MutationFuzzer(entry, random.Random(seed), CoverageMap(), seed=seed).run(budget)
    return seen


def test_the_gate_agrees_with_the_interpreter_on_fuzzer_mutants():
    kinds = set()
    for entry in ENTRIES:
        outcomes = _both_tiers(entry.spec, _mutants(entry, 150, seed=17), _outcome)
        kinds.update(parsed[0] for parsed, _ in outcomes)
    assert kinds == {"accept", "reject", "raise"}


@settings(max_examples=150, deadline=None)
@given(
    index=st.integers(0, len(ENTRIES) - 1),
    seed=st.integers(0, 2**16),
    flips=st.lists(st.integers(0, 1 << 16), max_size=3),
    tail=st.binary(max_size=6),
    junk=st.booleans(),
)
def test_the_gate_agrees_with_the_interpreter_on_arbitrary_bytes(
    index, seed, flips, tail, junk
):
    entry = ENTRIES[index]
    with fastpath.use(mode="off"):
        wire = bytearray(entry.spec.encode(entry.generate(random.Random(seed))))
    for flip in flips:
        if wire:
            wire[flip // 8 % len(wire)] ^= 1 << flip % 8
    data = tail if junk else bytes(wire) + tail
    _both_tiers(entry.spec, [data], _outcome)


def _make_outcome(spec, kw):
    try:
        values = spec.make(**kw).values
    except Exception as exc:  # the exception type and message are the outcome
        return ("raise", type(exc), str(exc))
    return ("made", values, list(values))


#: Covers every field kind the generated make stages.
MAKE_PROBE = PacketSpec(
    "MakeProbe",
    fields=[
        UInt("version", bits=4, const=3),
        Flag("urgent"),
        Reserved("pad", bits=3),
        UInt("count", bits=8),
        UIntList("items", element_bits=8, count=this.count),
        ChecksumField("chk", algorithm="crc16-ccitt", over=("count", "items")),
        Bytes("tail"),
    ],
)


def test_generated_make_agrees_with_the_interpreter_on_valid_values():
    for entry in ENTRIES:
        rng = random.Random(5)
        keyword_sets = []
        for _ in range(8):
            packet = entry.generate(rng)
            keyword_sets.append({
                name: value
                for name, value in packet.values.items()
                if not isinstance(entry.spec.field_map[name], ChecksumField)
            })
        outcomes = _both_tiers(entry.spec, keyword_sets, _make_outcome)
        assert all(kind == "made" for kind, *_ in outcomes), entry.name


ARQ_OK = {"seq": 1, "length": 2, "payload": b"hi"}
PROBE_OK = {"urgent": True, "count": 2, "items": (1, 2), "tail": b"t"}

MAKE_CASES = [
    (ARQ_PACKET, ARQ_OK),
    (ARQ_PACKET, dict(ARQ_OK, payload=bytearray(b"hi"))),  # normalized to bytes
    (ARQ_PACKET, dict(ARQ_OK, chk=0)),  # a supplied checksum
    (ARQ_PACKET, {"seq": 1, "length": 2}),  # a missing value
    (ARQ_PACKET, dict(ARQ_OK, bogus=1)),  # an unknown field
    (ARQ_PACKET, dict(ARQ_OK, seq=True)),  # a bool UInt
    (ARQ_PACKET, dict(ARQ_OK, seq=256)),  # out of range
    (ARQ_PACKET, dict(ARQ_OK, seq=-1)),
    (ARQ_PACKET, dict(ARQ_OK, seq=1.0)),
    (ARQ_PACKET, dict(ARQ_OK, payload="hi")),  # Bytes that are not bytes
    (ARQ_PACKET, dict(ARQ_OK, payload=[104, 105])),
    (ARQ_PACKET, dict(ARQ_OK, payload=memoryview(b"hi"))),
    (ARQ_PACKET, dict(ARQ_OK, payload=b"h")),  # length mismatch
    (MAKE_PROBE, PROBE_OK),
    (MAKE_PROBE, dict(PROBE_OK, items=[1, 2])),  # normalized to a tuple
    (MAKE_PROBE, dict(PROBE_OK, version=5, pad=0, urgent=1)),
    (MAKE_PROBE, dict(PROBE_OK, pad=5)),  # Reserved other than its value
    (MAKE_PROBE, dict(PROBE_OK, pad=None)),
    (MAKE_PROBE, dict(PROBE_OK, pad=0.0)),
    (MAKE_PROBE, dict(PROBE_OK, pad=False)),
    (MAKE_PROBE, dict(PROBE_OK, urgent=2)),
    (MAKE_PROBE, dict(PROBE_OK, items=(1,))),
    (MAKE_PROBE, dict(PROBE_OK, items=(1, 256))),
    (MAKE_PROBE, dict(PROBE_OK, items=(1, -1))),
    (MAKE_PROBE, dict(PROBE_OK, items=(1, "a"))),
    (MAKE_PROBE, dict(PROBE_OK, items="ab")),
    (MAKE_PROBE, dict(PROBE_OK, tail=bytearray(b"t"))),
    (MAKE_PROBE, dict(PROBE_OK, tail=memoryview(b"t"))),
    (TCP_HEADER, {
        "source_port": 1, "destination_port": 2, "sequence": 3,
        "acknowledgment": 4, "data_offset": 5, "reserved": 1, "urg": 0,
        "ack": 0, "psh": 0, "rst": 0, "syn": 1, "fin": 0, "window": 9,
        "urgent_pointer": 0, "options": b"",
    }),
]


@pytest.mark.parametrize("spec,kw", MAKE_CASES)
def test_generated_make_agrees_with_the_interpreter_on_each_reject_class(spec, kw):
    _both_tiers(spec, [kw], _make_outcome)


def test_a_zero_divisor_in_a_shape_raises_the_interpreters_error_on_every_tier():
    divided = PacketSpec(
        "DividedLength",
        fields=[
            UInt("total", bits=8),
            UInt("unit", bits=8),
            Bytes("payload", length=this.total // this.unit),
        ],
    )
    outcomes = _both_tiers(divided, [b"\x04\x00", b"\x04\x02ab"], _outcome)
    assert outcomes[0][0][1].__name__ == "SymbolicError"
    outcomes = _both_tiers(divided, [{"total": 4, "unit": 0, "payload": b""}], _make_outcome)
    assert outcomes[0][1].__name__ == "SymbolicError"


def _lying_gate(spec):
    """Compile ``spec`` behind a gate that passes every frame it can parse."""
    state = fastpath.active_state(spec)
    parse = state.codec.parse
    state.codec = state.codec._replace(verify=lambda data: (parse(data), []))
    return state


def _corrupt_arq_frame():
    with fastpath.use(mode="off"):
        wire = bytearray(ARQ_PACKET.encode(ARQ_PACKET.make(**ARQ_OK)))
    wire[1] ^= 0xFF  # the checksum byte
    return bytes(wire)


def test_a_replaced_packet_is_walked_not_trusted():
    with fastpath.use(mode="always"):
        packet = ARQ_PACKET.decode(ARQ_PACKET.encode(ARQ_PACKET.make(**ARQ_OK)))
        assert ARQ_PACKET.verify(packet).value == packet
        with pytest.raises(VerificationError, match="chk_valid"):
            ARQ_PACKET.verify(packet.replace(chk=packet.chk ^ 1))


def test_a_carried_verdict_counts_only_on_the_tier_that_gave_it():
    bad = _corrupt_arq_frame()
    with fastpath.use(mode="always"):
        _lying_gate(ARQ_PACKET)
        # While the tier holds, the gate's verdict is what verify trusts.
        assert ARQ_PACKET.try_parse(bad) is not None
        packet = ARQ_PACKET.decode(bad)
        with fastpath.use(mode="off"):
            with pytest.raises(VerificationError, match="chk_valid"):
                ARQ_PACKET.verify(packet)
        with pytest.raises(VerificationError, match="chk_valid"):
            ARQ_PACKET.verify(packet)  # the policy change made a new tier state
    with fastpath.use(mode="always"):
        state = _lying_gate(ARQ_PACKET)
        packet = ARQ_PACKET.decode(bad)
        fastpath.demote(state, "test-demotion")
        with pytest.raises(VerificationError, match="chk_valid"):
            ARQ_PACKET.verify(packet)


def test_try_parse_records_decode_metrics_with_obs_enabled():
    with fastpath.use(mode="off"):
        wire = ARQ_PACKET.encode(ARQ_PACKET.make(**ARQ_OK))
    instr = obs.enable()
    instr.reset()
    try:
        with fastpath.use(mode="always"):
            assert ARQ_PACKET.try_parse(wire) is not None
            assert ARQ_PACKET.try_parse(wire[:1]) is None
        registry = instr.registry
        assert registry.value("codec.decoded_packets", spec="ArqData") == 1
        assert registry.value("codec.decoded_bytes", spec="ArqData") == len(wire)
        assert registry.get("codec.decode_seconds", spec="ArqData").count == 1
        assert registry.value(
            "codec.decode_errors", spec="ArqData", kind="DecodeError"
        ) == 1
    finally:
        obs.disable()


def test_a_raising_gate_falls_back_and_demotes():
    with fastpath.use(mode="off"):
        wire = ARQ_PACKET.encode(ARQ_PACKET.make(**ARQ_OK))
    with fastpath.use(mode="always"):
        state = fastpath.active_state(ARQ_PACKET)

        def boom(data):
            raise ValueError("injected gate bug")

        state.codec = state.codec._replace(verify=boom)
        assert ARQ_PACKET.parse(wire).value.payload == b"hi"
        assert (state.status, state.reason) == ("interpreted", "verify-error")


def test_verify_mode_catches_a_wrong_verdict():
    bad = _corrupt_arq_frame()
    with fastpath.use(mode="always", verify=True):
        state = _lying_gate(ARQ_PACKET)
        assert ARQ_PACKET.try_parse(bad) is None
        assert (state.status, state.reason) == ("interpreted", "verify-mismatch")
    assert fastpath.demoted() == []  # a policy change re-reads the honest codec


def test_a_raising_make_falls_back_and_demotes():
    with fastpath.use(mode="always"):
        state = fastpath.active_state(ARQ_PACKET)

        def boom(kw):
            raise ValueError("injected make bug")

        state.codec = state.codec._replace(make=boom)
        assert ARQ_PACKET.make(**ARQ_OK).payload == b"hi"
        assert (state.status, state.reason) == ("interpreted", "make-error")
        assert fastpath.demoted() == [("ArqData", "make-error")]


def test_verify_mode_catches_a_wrong_make():
    with fastpath.use(mode="off"):
        expected = ARQ_PACKET.make(**ARQ_OK)
    with fastpath.use(mode="always", verify=True):
        state = fastpath.active_state(ARQ_PACKET)
        make = state.codec.make
        state.codec = state.codec._replace(make=lambda kw: dict(make(kw), chk=0))
        assert ARQ_PACKET.make(**ARQ_OK) == expected
        assert (state.status, state.reason) == ("interpreted", "make-mismatch")


# --- one oracle for every compiled entry point ---

ARQ_BAD = {"seq": 1 << 20, "chk": 0, "length": 2, "payload": b"hi"}  # seq: 8 bits
ARQ_VALUES = {"seq": 1, "chk": 0, "length": 2, "payload": b"hi"}


def _accept_anything(values, spans=None):
    return b"\x00" * 5


#: op -> (the generated function, a stand-in that accepts what the
#: interpreter rejects, the call, the demotion reason).
LIARS = {
    "encode": (
        "build", _accept_anything,
        lambda: codec.encode_verbatim(ARQ_PACKET, ARQ_BAD), "encode-mismatch",
    ),
    "encode_with_spans": (
        "build", _accept_anything,
        lambda: codec.encode_with_spans(ARQ_PACKET, ARQ_BAD), "encode-mismatch",
    ),
    "decode": (
        "parse", lambda data: dict(ARQ_VALUES),
        lambda: codec.decode_packet(ARQ_PACKET, b"\x01"), "decode-mismatch",
    ),
    "verify": (
        "verify", lambda data: (dict(ARQ_VALUES), []),
        lambda: ARQ_PACKET.decode(b"\x01"), "verify-mismatch",
    ),
    "make": (
        "make", lambda kw: dict(ARQ_VALUES),
        lambda: ARQ_PACKET.make(**dict(ARQ_OK, seq=1 << 20)), "make-mismatch",
    ),
}


@pytest.mark.parametrize("op", sorted(LIARS))
def test_verify_mode_demotes_a_generated_function_that_accepts_too_much(op):
    attribute, liar, call, reason = LIARS[op]
    with fastpath.use(mode="off"):
        with pytest.raises(Exception) as interpreted:
            call()
    with fastpath.use(mode="always", verify=True):
        state = fastpath.active_state(ARQ_PACKET)
        state.codec = state.codec._replace(**{attribute: liar})
        with pytest.raises(Exception) as raised:
            call()
        assert (state.status, state.reason) == ("interpreted", reason)
    # The interpreter's error is the one that propagates.
    assert type(raised.value) is type(interpreted.value)
    assert str(raised.value) == str(interpreted.value)
    assert fastpath.stats()["demotions"] == 1


def test_verify_mode_catches_right_bytes_with_wrong_spans():
    with fastpath.use(mode="off"):
        expected = codec.encode_with_spans(ARQ_PACKET, ARQ_VALUES)
    with fastpath.use(mode="always", verify=True):
        state = fastpath.active_state(ARQ_PACKET)
        build = state.codec.build

        def wrong_spans(values, spans=None):
            encoded = build(values, spans)
            spans["seq"] = (0, 1)
            return encoded

        state.codec = state.codec._replace(build=wrong_spans)
        assert codec.encode_with_spans(ARQ_PACKET, ARQ_VALUES) == expected
        assert (state.status, state.reason) == ("interpreted", "encode-mismatch")
