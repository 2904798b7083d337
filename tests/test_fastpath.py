"""repro.fastpath — the transparent compiled codec tier.

Covers the policy (off / always, compile on first use), generation
invalidation, the per-spec codec cache (one compile per spec object,
reused across policy changes), transparency (compiled results
byte-identical to the interpreter across every registry spec), error
canonicalization, the divergence guard (fallback, verify, demotion, obs
counter), and the generator's refusal of subclassed fields.
"""

import gc
import os
import random
import subprocess
import sys
import weakref

import pytest

import repro
from repro import fastpath, obs
from repro.conformance.registry import all_spec_entries
from repro.core import codec
from repro.core.codec import DecodeError
from repro.core.fields import UInt
from repro.core.packet import PacketSpec


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
            interp_chk = [codec.compute_checksums(spec, v) for v in values_list]
            interp_spans = [codec.field_spans(spec, v) for v in values_list]
        with fastpath.use(mode="always"):
            fast_enc = [codec.encode_verbatim(spec, v) for v in values_list]
            fast_dec = [codec.decode_packet(spec, w) for w in wires]
            fast_chk = [codec.compute_checksums(spec, v) for v in values_list]
            fast_spans = [codec.field_spans(spec, v) for v in values_list]
            state = fastpath.state_of(spec)
            assert state is not None and state.status == "compiled", entry.name
        assert fast_enc == interp_enc, entry.name
        assert fast_dec == interp_dec, entry.name
        assert fast_chk == interp_chk, entry.name
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
        cache = registry.handle_cache("codec")
        cache["probe"] = "handle"
        registry.reset()  # zeroes values, keeps handles
        assert registry.handle_cache("codec")["probe"] == "handle"
        registry.clear()  # drops metrics, so handles must go too
        assert "probe" not in registry.handle_cache("codec")
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
