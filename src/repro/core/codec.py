"""The codec engine: interprets a packet spec to encode and decode bytes.

Encoding is split into two layers:

* :func:`encode_verbatim` — single-pass, writes exactly the values a packet
  carries (checksums included).  This makes ``decode(encode(p)) == p`` hold
  bit-exactly for *every* representable packet, valid or not — a property
  the round-trip test suite and the differential codegen tests rely on.
* :func:`compute_checksums` — the two-pass "make" path: encodes with
  checksum placeholders, derives each checksum from the covered byte
  region, and returns the completed value environment.

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
(see ``repro.fastpath.cache``) and the generated closures run instead of
the interpretive walk, with the interpreter kept as the error oracle — a
compiled closure that raises is re-run through the interpreter so callers
always see the canonical exception, and a closure that *diverges* (errors
where the interpreter succeeds, or mismatches under ``verify``) demotes
its spec back to interpretation.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.core.fields import ChecksumField, Field, FieldValueError
from repro.fastpath.cache import active_state as _fp_active
from repro.fastpath.cache import demote as _fp_cache_demote
from repro.obs.instrument import NULL_OBS, Instrumentation, get_default
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
        try:
            field.encode(writer, value, env)
        except FieldValueError:
            raise
        spans[field.name] = (start, writer.bit_length)
        if field.is_integer_valued():
            env[field.name] = int(value)
    return writer.getvalue(), spans


# Compiled-closure errors that trigger the interpreter-as-oracle rerun.
# Anything a generated parse/build can plausibly raise on bad input; the
# rerun either reproduces the canonical interpreted error (agreement) or
# succeeds, which is a divergence and demotes the spec.
_FALLBACK_ERRORS = (ValueError, TypeError, ArithmeticError, KeyError, IndexError)


def _fp_demote(
    spec: Any,
    state: Any,
    reason: str,
    obs: Optional[Instrumentation],
    payload: Optional[Dict[str, Any]] = None,
) -> None:
    """Demote a diverging spec and count the divergence in repro.obs.

    ``payload`` carries the offending operation (``{"op": "decode" |
    "verify", "data": ...}``, or ``{"op": "encode" | "finalize" | "make",
    "values": ...}``) to the flight recorder so ``--triage`` can re-run the
    exact divergence; demotion is the cold path, so the recorder hook
    costs nothing here.
    """
    _fp_cache_demote(state, reason)
    if obs is None:
        obs = get_default()
    if obs.enabled:
        obs.registry.counter(
            "fastpath.divergences", spec=spec.name, reason=reason
        ).inc()
    from repro.conformance.corpus import CorpusEntry
    from repro.obs.live.flightrec import record_crash

    meta = dict(payload or {})
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


def _fast_encode(
    spec: Any,
    state: Any,
    values: Mapping[str, Any],
    obs: Optional[Instrumentation],
    spans: Optional[Dict[str, Span]] = None,
) -> bytes:
    """Encode via the compiled closure, interpreter as error oracle.

    ``spans``, when given, receives each field's bit span.
    """
    try:
        encoded = state.codec.build(values, spans)
    except _FALLBACK_ERRORS:
        encoded = None
    if encoded is not None and not state.verify:
        return encoded
    # If the interpreter also rejects, its (canonical) error propagates
    # and the two tiers agree; if it succeeds where the compiled closure
    # raised, or (under ``verify``) disagrees with it, that is a real
    # divergence.
    expected, expected_spans = _encode_fields(spec, values)
    if encoded == expected and (spans is None or spans == expected_spans):
        return encoded
    if spans is not None:
        spans.clear()
        spans.update(expected_spans)
    _fp_demote(
        spec, state, "encode-error" if encoded is None else "encode-mismatch", obs,
        {"op": "encode", "values": repr(dict(values))},
    )
    return expected


def _fast_decode(
    spec: Any, state: Any, data: bytes, obs: Optional[Instrumentation]
) -> Dict[str, Any]:
    """Decode via the compiled closure, interpreter as error oracle."""
    try:
        values = state.codec.parse(data)
    except _FALLBACK_ERRORS:
        # Interpreter rerun: canonical DecodeError on agreement,
        # divergence demotion when it succeeds where compiled raised.
        values = _decode_fields(spec, data)
        _fp_demote(
            spec, state, "decode-error", obs, {"op": "decode", "data": data}
        )
        return values
    if state.verify:
        try:
            expected = _decode_fields(spec, data)
        except DecodeError:
            _fp_demote(
                spec, state, "decode-mismatch", obs,
                {"op": "decode", "data": data},
            )
            raise
        if values != expected:
            _fp_demote(
                spec, state, "decode-mismatch", obs,
                {"op": "decode", "data": data},
            )
            return expected
    return values


def encode_verbatim(
    spec: Any, values: Mapping[str, Any], obs: Optional[Instrumentation] = None
) -> bytes:
    """Encode a complete value environment exactly as given.

    Dispatches to the spec's compiled codec unless the fast-path policy
    is off or the spec runs interpreted (``repro.fastpath``); semantics
    are unchanged.

    ``obs`` (default: the process-wide instrumentation) records, when
    enabled, an encode-latency histogram and bytes/packets counters
    labeled by spec.
    """
    if obs is None:
        obs = get_default()
    start = time.perf_counter() if obs.enabled else 0.0
    state = _fp_active(spec)
    if state is not None:
        encoded = _fast_encode(spec, state, values, obs)
    else:
        encoded, _ = _encode_fields(spec, values)
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
    :func:`field_spans` would cost.
    """
    if obs is None:
        obs = get_default()
    start = time.perf_counter() if obs.enabled else 0.0
    state = _fp_active(spec)
    if state is not None:
        spans: Dict[str, Span] = {}
        encoded = _fast_encode(spec, state, values, obs, spans)
    else:
        encoded, spans = _encode_fields(spec, values)
    if obs.enabled:
        _record_codec(obs, "encode", spec.name, len(encoded), time.perf_counter() - start)
    return encoded, spans


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
    cache = registry.handle_cache("codec")
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
    """Fill in every checksum field of a value environment.

    Non-checksum values are passed through unchanged.  Checksums are
    computed in field order over a buffer in which *later* checksums are
    still zero — multi-checksum specs should therefore order dependent
    checksums after their inputs (the spec validator warns otherwise).
    """
    state = _fp_active(spec)
    if state is not None:
        try:
            working = state.codec.finalize(values)
        except _FALLBACK_ERRORS:
            working = compute_checksums_interpreted(spec, values)
            _fp_demote(
                spec, state, "finalize-error", None,
                {"op": "finalize", "values": repr(dict(values))},
            )
            return working
        if state.verify:
            expected = compute_checksums_interpreted(spec, values)
            if working != expected:
                _fp_demote(
                    spec, state, "finalize-mismatch", None,
                    {"op": "finalize", "values": repr(dict(values))},
                )
                return expected
        return working
    return compute_checksums_interpreted(spec, values)


def compute_checksums_interpreted(
    spec: Any, values: Mapping[str, Any]
) -> Dict[str, Any]:
    """:func:`compute_checksums` on the interpreter alone (``make``'s walk)."""
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
    it covers the whole packet.
    """
    field = spec.field_map[field_name]
    if not isinstance(field, ChecksumField):
        raise ValueError(f"{field_name!r} is not a checksum field")
    state = _fp_active(spec)
    if state is not None:
        spans: Dict[str, Span] = {}
        buffer = _fast_encode(spec, state, values, None, spans)
    else:
        buffer, spans = _encode_fields(spec, values)
    cover = checksum_cover(spec, field, buffer, spans)
    return field.compute(cover)


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
        obs = get_default()
    start = time.perf_counter() if obs.enabled else 0.0
    state = _fp_active(spec)
    try:
        if state is not None:
            values = _fast_decode(spec, state, data, obs)
        else:
            values = _decode_fields(spec, data)
    except DecodeError as exc:
        if obs.enabled:
            obs.registry.counter(
                "codec.decode_errors", spec=spec.name, kind=type(exc).__name__
            ).inc()
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
    state when its generated ``verify`` found no violation, else ``None``
    (interpreted tier, a rejection, or the interpreter had to answer).
    Raises :class:`DecodeError` where :func:`decode_packet` does, and
    records the same ``codec.decode_*`` metrics when the process-wide
    instrumentation is enabled.

    A generated ``verify`` that raises is re-run through the interpreter:
    the canonical :class:`DecodeError` on agreement, a demotion when the
    interpreter succeeds.  Under ``verify=True`` each compiled verdict —
    the values, and the names of the violated constraints — is compared
    with the interpreter's: ``oracle(values, residual)`` names the
    constraints outside ``residual`` that ``values`` violate.
    """
    obs = get_default()
    start = time.perf_counter() if obs.enabled else 0.0
    state = _fp_active(spec)
    passed = None
    try:
        if state is None:
            values = _decode_fields(spec, data)
        else:
            try:
                values, violated = state.codec.verify(data)
            except _FALLBACK_ERRORS:
                values = _decode_fields(spec, data)
                _fp_demote(
                    spec, state, "verify-error", obs, {"op": "verify", "data": data}
                )
            else:
                if state.verify:
                    values, passed = _check_verdict(
                        spec, state, data, values, violated, oracle, obs
                    )
                elif not violated:
                    passed = state
    except DecodeError as exc:
        if obs.enabled:
            obs.registry.counter(
                "codec.decode_errors", spec=spec.name, kind=type(exc).__name__
            ).inc()
        raise
    if obs.enabled:
        _record_codec(obs, "decode", spec.name, len(data), time.perf_counter() - start)
    return values, passed


def _check_verdict(
    spec: Any,
    state: Any,
    data: bytes,
    values: Dict[str, Any],
    violated: List[str],
    oracle: Callable[[Dict[str, Any], Tuple[str, ...]], FrozenSet[str]],
    obs: Optional[Instrumentation],
) -> Tuple[Dict[str, Any], Any]:
    """Compare a compiled verdict with the interpreter's (``verify=True``)."""
    payload = {"op": "verify", "data": data}
    try:
        expected = _decode_fields(spec, data)
    except DecodeError:
        _fp_demote(spec, state, "verify-mismatch", obs, payload)
        raise
    if values != expected or set(violated) != oracle(expected, state.codec.residual):
        _fp_demote(spec, state, "verify-mismatch", obs, payload)
        return expected, None
    return values, None if violated else state


def make_values(
    spec: Any,
    values: Mapping[str, Any],
    walk: Callable[[Mapping[str, Any]], Dict[str, Any]],
) -> Dict[str, Any]:
    """The completed value environment of ``spec.make(**values)``.

    Runs the spec's generated ``make`` unless the tier is off or the
    spec runs interpreted.  ``walk`` is the interpreted make — the off
    tier, and the oracle: a generated ``make`` that raises is re-run
    through it, so callers always see its canonical error, and one that
    raises where ``walk`` succeeds demotes the spec.  Under
    ``verify=True`` every compiled result is compared with ``walk``'s.
    """
    state = _fp_active(spec)
    if state is None:
        return walk(values)
    try:
        completed = state.codec.make(values)
    except _FALLBACK_ERRORS:
        completed = walk(values)
        _fp_demote(
            spec, state, "make-error", None,
            {"op": "make", "values": repr(dict(values))},
        )
        return completed
    if state.verify:
        payload = {"op": "make", "values": repr(dict(values))}
        try:
            expected = walk(values)
        except Exception:
            # Whatever the interpreter raises, the compiled make accepted
            # it: a divergence.  The canonical error still propagates.
            _fp_demote(spec, state, "make-mismatch", None, payload)
            raise
        if completed != expected:
            _fp_demote(spec, state, "make-mismatch", None, payload)
            return expected
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
