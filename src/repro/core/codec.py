"""The codec engine: interprets a packet spec to encode and decode bytes.

Encoding is split into two layers:

* :func:`encode_verbatim` — single-pass, writes exactly the values a packet
  carries (checksums included).  This makes ``decode(encode(p)) == p`` hold
  bit-exactly for *every* representable packet, valid or not — a property
  the round-trip test suite and the differential codegen tests rely on.
* :func:`compute_checksums` — the interpreted make's checksum pass:
  encodes with checksum placeholders, derives each checksum from the
  covered byte region, and returns the completed value environment.  On
  the compiled tier the generated ``make`` computes checksums itself.

Decoding (:func:`decode_packet`) walks fields in order, feeding previously
decoded integer values into the environment so dependent shapes (lengths,
switch discriminators) resolve — the operational reading of the paper's
dependent records.

``PacketSpec`` reaches the codec through two more entry points, each of
which runs one generated function per call on the compiled tier:
:func:`decode_checked` (the §3.4 receive gate: parse and verify in one
pass) and :func:`make_values` (``make``).  ``PacketSpec`` hands each its
interpreted walk as the oracle.

Every entry point consults ``repro.fastpath`` first: unless the
process-wide policy is ``off``, the first call on a spec compiles it
(see ``repro.fastpath.cache``) and one generated function runs instead
of the interpretive walk.  The interpreter stays the oracle, written
once in :func:`_rerun`: a generated function that raises is re-run
through the interpreter so callers always see the canonical exception,
and one that *diverges* (raises where the interpreter succeeds, or under
``verify`` succeeds where it raises or returns something else) demotes
its spec back to interpretation.
"""

from __future__ import annotations

import operator
import time
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.core.fields import ChecksumField
from repro.fastpath.cache import active_state as _fp_active
from repro.fastpath.cache import demote as _fp_cache_demote
from repro.obs import instrument as _instrument
from repro.obs.instrument import NULL_OBS, Instrumentation
from repro.wire.bits import BitReader, BitWriter


class DecodeError(ValueError):
    """Raised when bytes cannot be decoded under a spec."""

    def __init__(self, spec_name: str, message: str) -> None:
        self.spec_name = spec_name
        super().__init__(f"cannot decode {spec_name!r}: {message}")


class ExtraDataError(DecodeError):
    """Raised when decoding leaves unconsumed bits."""

    def __init__(self, spec_name: str, extra_bits: int) -> None:
        self.extra_bits = extra_bits
        super().__init__(spec_name, f"{extra_bits} unconsumed bits after packet")


Span = Tuple[int, int]  # (start_bit, end_bit), half-open


def _extract_bits(buffer: bytes, start_bit: int, end_bit: int) -> bytes:
    """Extract the half-open bit range as bytes (must be a whole byte count).

    Unaligned ranges are one bulk ``int.from_bytes`` over the touched
    bytes plus a shift — not a per-byte read loop.
    """
    width = end_bit - start_bit
    if width % 8 != 0:
        raise ValueError(
            f"bit range [{start_bit}, {end_bit}) spans {width} bits, "
            "which is not a whole number of bytes"
        )
    if end_bit > len(buffer) * 8:
        raise ValueError(
            f"bit range [{start_bit}, {end_bit}) runs past the end of a "
            f"{len(buffer)}-byte buffer"
        )
    if start_bit % 8 == 0:
        return buffer[start_bit // 8 : end_bit // 8]
    byte_end = (end_bit + 7) >> 3
    chunk = int.from_bytes(buffer[start_bit >> 3 : byte_end], "big")
    chunk >>= (byte_end << 3) - end_bit
    return (chunk & ((1 << width) - 1)).to_bytes(width >> 3, "big")


def _patch_bits(buffer: bytearray, start_bit: int, width: int, value: int) -> None:
    """Overwrite ``width`` bits of ``buffer`` at ``start_bit`` with ``value``.

    Bulk mask arithmetic over the touched byte span; no per-bit loop.
    """
    if width <= 0:
        return
    end = start_bit + width
    first = start_bit >> 3
    byte_end = (end + 7) >> 3
    shift = (byte_end << 3) - end
    mask = ((1 << width) - 1) << shift
    span = int.from_bytes(buffer[first:byte_end], "big")
    buffer[first:byte_end] = ((span & ~mask) | ((value << shift) & mask)).to_bytes(
        byte_end - first, "big"
    )


def _zeroed(buffer: bytes, span: Span) -> bytes:
    """Return a copy of ``buffer`` with the span's bits cleared."""
    patched = bytearray(buffer)
    _patch_bits(patched, span[0], span[1] - span[0], 0)
    return bytes(patched)


def _encode_fields(
    spec: Any,
    values: Mapping[str, Any],
) -> Tuple[bytes, Dict[str, Span]]:
    """Encode every field verbatim, recording each field's bit span."""
    writer = BitWriter()
    spans: Dict[str, Span] = {}
    env: Dict[str, int] = {}
    for field in spec.fields:
        start = writer.bit_length
        value = values[field.name]
        field.encode(writer, value, env)
        spans[field.name] = (start, writer.bit_length)
        if field.is_integer_valued():
            env[field.name] = int(value)
    return writer.getvalue(), spans


# Generated-function errors that send a call to the interpreter oracle.
# Anything a generated function can plausibly raise on bad input; the
# rerun either reproduces the canonical interpreted error (agreement) or
# succeeds, which is a divergence and demotes the spec.
_FALLBACK_ERRORS = (ValueError, TypeError, ArithmeticError, KeyError, IndexError)


def _fp_demote(
    spec: Any, state: Any, reason: str, payload: Dict[str, Any]
) -> None:
    """Demote a diverging spec and count the divergence in repro.obs.

    The count goes to the process-wide instrumentation, like the
    demotion itself.  ``payload`` carries the offending operation
    (``{"op": "decode" | "verify", "data": ...}``, ``{"op": "encode" |
    "make", "values": ...}`` or a machine's ``{"op": "exec", ...}``) to
    the flight recorder so ``--triage`` can re-run the exact divergence;
    demotion is the cold path, so the recorder hook costs nothing here.
    """
    _fp_cache_demote(state, reason)
    obs = _instrument._default
    if obs.enabled:
        obs.registry.counter(
            "fastpath.divergences", spec=spec.name, reason=reason
        ).inc()
    from repro.conformance.corpus import CorpusEntry
    from repro.obs.live.flightrec import record_crash

    meta = dict(payload)
    record_crash(
        CorpusEntry(
            engine="fastpath",
            subject=spec.name,
            outcome="demotion",
            data=meta.pop("data", b""),
            detail=reason,
            meta=meta,
        )
    )


def _rerun(
    spec: Any,
    state: Any,
    op: str,
    walk: Callable[[Any], Any],
    arg: Any,
    result: Any,
    same: Callable[[Any, Any], bool] = operator.eq,
) -> Any:
    """The interpreter oracle for one generated codec call; its result wins.

    ``result`` is what the generated function returned for ``arg``, or
    ``None`` when it raised.  ``walk(arg)`` runs and its error
    propagates.  The spec is demoted ``<op>-error`` when the generated
    function raised where the walk succeeds, and ``<op>-mismatch`` when
    it succeeded where the walk raises or its result is not ``same`` as
    the walk's.
    """
    try:
        expected = walk(arg)
    except Exception:
        if result is not None:
            _fp_demote(spec, state, f"{op}-mismatch", _op_payload(op, arg))
        raise
    if result is None or not same(result, expected):
        reason = f"{op}-error" if result is None else f"{op}-mismatch"
        _fp_demote(spec, state, reason, _op_payload(op, arg))
    return expected


def _op_payload(op: str, arg: Any) -> Dict[str, Any]:
    """What the flight recorder keeps of a diverging call: its bytes or values."""
    if isinstance(arg, Mapping):
        return {"op": op, "values": repr(dict(arg))}
    return {"op": op, "data": arg}


def encode_verbatim(
    spec: Any, values: Mapping[str, Any], obs: Optional[Instrumentation] = None
) -> bytes:
    """Encode a complete value environment exactly as given.

    Runs the spec's generated ``build`` unless the fast-path policy is
    off or the spec runs interpreted (``repro.fastpath``); semantics
    are unchanged.

    ``obs`` (default: the process-wide instrumentation) records, when
    enabled, an encode-latency histogram and bytes/packets counters
    labeled by spec.
    """
    if obs is None:
        obs = _instrument._default
    start = time.perf_counter() if obs.enabled else 0.0
    state = _fp_active(spec)
    if state is None:
        encoded = _encode_fields(spec, values)[0]
    else:
        try:
            encoded = state.codec.build(values)
        except _FALLBACK_ERRORS:
            encoded = None
        if encoded is None or state.verify:
            encoded = _rerun(
                spec, state, "encode",
                lambda values: _encode_fields(spec, values)[0], values, encoded,
            )
    if obs.enabled:
        _record_codec(obs, "encode", spec.name, len(encoded), time.perf_counter() - start)
    return encoded


def encode_with_spans(
    spec: Any, values: Mapping[str, Any], obs: Optional[Instrumentation] = None
) -> Tuple[bytes, Dict[str, Span]]:
    """Encode verbatim and return ``(encoded, spans)`` from one pass.

    Structure-aware tooling (the conformance fuzzer) needs both the wire
    bytes and each field's bit span; this produces them in a single
    encode instead of the encode-then-re-encode that ``encode`` +
    :func:`field_spans` would cost.  The oracle compares both.
    """
    if obs is None:
        obs = _instrument._default
    start = time.perf_counter() if obs.enabled else 0.0
    state = _fp_active(spec)
    if state is None:
        result = _encode_fields(spec, values)
    else:
        spans: Dict[str, Span] = {}
        try:
            result = (state.codec.build(values, spans), spans)
        except _FALLBACK_ERRORS:
            result = None
        if result is None or state.verify:
            result = _rerun(
                spec, state, "encode",
                lambda values: _encode_fields(spec, values), values, result,
            )
    if obs.enabled:
        _record_codec(obs, "encode", spec.name, len(result[0]), time.perf_counter() - start)
    return result


def field_spans(spec: Any, values: Mapping[str, Any]) -> Dict[str, Span]:
    """Each field's encoded bit span for a complete value environment.

    The spans index into the buffer :func:`encode_verbatim` would produce
    for the same values; structure-aware tooling (the conformance fuzzer)
    uses them to aim mutations at individual fields.  Callers that also
    need the bytes should use :func:`encode_with_spans` and pay one pass.
    """
    return encode_with_spans(spec, values, obs=NULL_OBS)[1]


def _record_codec(
    obs: Instrumentation, op: str, spec_name: str, size: int, elapsed: float
) -> None:
    """Shared metric updates for one successful encode/decode.

    Handles are cached per ``(op, spec)`` in the registry's handle cache
    — resolving a labeled metric costs a dict lookup plus label sorting,
    which at packet rates is real money.  ``registry.clear()`` empties
    the cache; ``reset()`` keeps it (instances survive).
    """
    registry = obs.registry
    cache = registry.handle_caches["codec"]
    key = (op, spec_name)
    handles = cache.get(key)
    if handles is None:
        handles = (
            registry.histogram(f"codec.{op}_seconds", spec=spec_name),
            registry.counter(f"codec.{op}d_packets", spec=spec_name),
            registry.counter(f"codec.{op}d_bytes", spec=spec_name),
        )
        cache[key] = handles
    histogram, packets, size_counter = handles
    histogram.observe(elapsed)
    packets.inc()
    size_counter.inc(size)


def checksum_cover(
    spec: Any,
    field: ChecksumField,
    buffer: bytes,
    spans: Mapping[str, Span],
) -> bytes:
    """The byte region a checksum field covers, given an encoded buffer.

    For ``over="*"`` the cover is the whole buffer with the checksum's own
    span zeroed (RFC 791 style); otherwise it is the concatenation of the
    named fields' encoded bytes.
    """
    if field.covers_whole_packet:
        return _zeroed(buffer, spans[field.name])
    pieces: List[bytes] = []
    for name in field.over or ():
        start, end = spans[name]
        pieces.append(_extract_bits(buffer, start, end))
    return b"".join(pieces)


def compute_checksums(spec: Any, values: Mapping[str, Any]) -> Dict[str, Any]:
    """Fill in every checksum field of a value environment (interpreted).

    Non-checksum values are passed through unchanged.  Checksums are
    computed in field order over a buffer in which *later* checksums are
    still zero — multi-checksum specs should therefore order dependent
    checksums after their inputs (the spec validator warns otherwise).
    This is the interpreted ``make``'s checksum pass; the generated
    ``make`` computes the same checksums with the same kernels.
    """
    working: Dict[str, Any] = dict(values)
    for field in spec.fields:
        if isinstance(field, ChecksumField):
            working[field.name] = 0
    buffer, spans = _encode_fields(spec, working)
    patched = bytearray(buffer)
    for field in spec.fields:
        if not isinstance(field, ChecksumField):
            continue
        cover = checksum_cover(spec, field, bytes(patched), spans)
        value = field.compute(cover)
        working[field.name] = value
        start, end = spans[field.name]
        _patch_bits(patched, start, end - start, value)
    return working


def compute_one_checksum(spec: Any, values: Mapping[str, Any], field_name: str) -> int:
    """Recompute a single checksum from a packet's own values.

    Used by verification: the other fields (including sibling checksums)
    keep their *carried* values, and only the target field is zeroed when
    it covers the whole packet.  The encode records no codec metrics.
    """
    field = spec.field_map[field_name]
    if not isinstance(field, ChecksumField):
        raise ValueError(f"{field_name!r} is not a checksum field")
    buffer, spans = encode_with_spans(spec, values, obs=NULL_OBS)
    return field.compute(checksum_cover(spec, field, buffer, spans))


def _count_decode_error(obs: Instrumentation, spec_name: str, exc: DecodeError) -> None:
    """Count one rejected frame in ``codec.decode_errors{spec, kind}``.

    The handle is cached per ``(spec, kind)`` in the registry's
    ``handle_caches["codec"]``, beside :func:`_record_codec`'s, so a
    rejected frame makes one call into the metrics module: ``inc``.
    """
    registry = obs.registry
    cache = registry.handle_caches["codec"]
    key = ("decode_errors", spec_name, type(exc).__name__)
    counter = cache.get(key)
    if counter is None:
        counter = cache[key] = registry.counter(
            "codec.decode_errors", spec=spec_name, kind=key[2]
        )
    counter.inc()


def decode_packet(
    spec: Any, data: bytes, obs: Optional[Instrumentation] = None
) -> Dict[str, Any]:
    """Decode bytes into a value environment under ``spec``.

    Raises :class:`DecodeError` on truncation and
    :class:`ExtraDataError` when trailing bits remain.

    ``obs`` (default: the process-wide instrumentation) records, when
    enabled, a decode-latency histogram, bytes/packets counters, and a
    :class:`DecodeError` counter labeled by spec and error kind.
    """
    if obs is None:
        obs = _instrument._default
    start = time.perf_counter() if obs.enabled else 0.0
    state = _fp_active(spec)
    try:
        if state is None:
            values = _decode_fields(spec, data)
        else:
            try:
                values = state.codec.parse(data)
            except _FALLBACK_ERRORS:
                values = None
            if values is None or state.verify:
                values = _rerun(
                    spec, state, "decode",
                    lambda data: _decode_fields(spec, data), data, values,
                )
    except DecodeError as exc:
        if obs.enabled:
            _count_decode_error(obs, spec.name, exc)
        raise
    if obs.enabled:
        _record_codec(obs, "decode", spec.name, len(data), time.perf_counter() - start)
    return values


def decode_checked(
    spec: Any,
    data: bytes,
    oracle: Callable[[Dict[str, Any], Tuple[str, ...]], FrozenSet[str]],
) -> Tuple[Dict[str, Any], Any]:
    """Decode bytes and, on the compiled tier, run the spec's receive gate.

    Returns ``(values, passed)``: ``passed`` is the spec's compiled-tier
    state when the gate found no violation, else ``None`` (interpreted
    tier, or a rejection).  ``PacketSpec.verify`` trusts ``passed`` only
    while the spec is still on that tier, so a state the oracle demoted
    is never trusted.  Raises :class:`DecodeError` where
    :func:`decode_packet` does, and records the same ``codec.decode_*``
    metrics when the process-wide instrumentation is enabled.

    The oracle's walk decodes ``data`` and asks ``oracle(values,
    residual)`` for the names of the constraints outside ``residual``
    that ``values`` violate; a generated verdict agrees with it when the
    values and the set of violated names are equal.
    """
    obs = _instrument._default
    start = time.perf_counter() if obs.enabled else 0.0
    state = _fp_active(spec)
    passed = None
    try:
        if state is None:
            values = _decode_fields(spec, data)
        else:
            try:
                result = state.codec.verify(data)
            except _FALLBACK_ERRORS:
                result = None
            if result is None or state.verify:

                def walk(data: bytes) -> Tuple[Dict[str, Any], FrozenSet[str]]:
                    walked = _decode_fields(spec, data)
                    return walked, oracle(walked, state.codec.residual)

                result = _rerun(
                    spec, state, "verify", walk, data, result, _same_verdict
                )
            values, violated = result
            if not violated:
                passed = state
    except DecodeError as exc:
        if obs.enabled:
            _count_decode_error(obs, spec.name, exc)
        raise
    if obs.enabled:
        _record_codec(obs, "decode", spec.name, len(data), time.perf_counter() - start)
    return values, passed


def _same_verdict(result: Tuple[Any, Any], expected: Tuple[Any, Any]) -> bool:
    """A generated ``(values, violated)`` verdict equals the walk's."""
    return result[0] == expected[0] and set(result[1]) == expected[1]


def make_values(
    spec: Any,
    values: Mapping[str, Any],
    walk: Callable[[Mapping[str, Any]], Dict[str, Any]],
) -> Dict[str, Any]:
    """The completed value environment of ``spec.make(**values)``.

    Runs the spec's generated ``make`` unless the tier is off or the
    spec runs interpreted.  ``walk`` is the interpreted make: the off
    tier, and the oracle.
    """
    state = _fp_active(spec)
    if state is None:
        return walk(values)
    try:
        completed = state.codec.make(values)
    except _FALLBACK_ERRORS:
        completed = None
    if completed is None or state.verify:
        completed = _rerun(spec, state, "make", walk, values, completed)
    return completed


def _decode_fields(spec: Any, data: bytes) -> Dict[str, Any]:
    reader = BitReader(data)
    values: Dict[str, Any] = {}
    env: Dict[str, int] = {}
    for field in spec.fields:
        try:
            value = field.decode(reader, env)
        except (ValueError, IndexError) as exc:
            raise DecodeError(spec.name, f"field {field.name!r}: {exc}") from exc
        values[field.name] = value
        if field.is_integer_valued():
            env[field.name] = int(value)
    if not reader.at_end:
        raise ExtraDataError(spec.name, reader.bits_remaining)
    return values
