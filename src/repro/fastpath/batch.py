"""Batch encode/decode: amortize per-call overhead over many packets.

``encode_verbatim``/``decode_packet`` pay a fixed toll per call — policy
lookup, obs snapshot, timer reads.  At header-sized packets that toll is
a meaningful fraction of the work.  :func:`encode_many` and
:func:`decode_many` pay it once per *batch*: the compiled tier is forced
up front (``active_state(force=True)``), closures and the output list's
``append`` are bound to locals, and observability records a single batch
histogram plus aggregate packet/byte counters instead of per-packet
samples.

Semantics are identical to calling the single-packet functions in a
loop: each item still gets the full fallback/verify treatment, and specs
the generator refuses simply run interpreted.  Errors propagate as-is,
so a bad item aborts the batch exactly where a loop over
``encode_verbatim`` would.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.core import codec as _codec
from repro.fastpath.cache import COMPILED, active_state
from repro.obs.instrument import Instrumentation, get_default


def _as_values(item: Any) -> Mapping[str, Any]:
    """Accept a plain mapping or anything packet-like carrying ``_values``."""
    if isinstance(item, Mapping):
        return item
    values = getattr(item, "_values", None)
    if isinstance(values, dict):
        return values
    raise TypeError(
        f"expected a field-value mapping or a Packet, got {item!r}"
    )


def _record_batch(
    obs: Instrumentation,
    op: str,
    spec_name: str,
    packets: int,
    size: int,
    elapsed: float,
) -> None:
    registry = obs.registry
    cache = registry.handle_cache("codec.batch")
    key = (op, spec_name)
    handles = cache.get(key)
    if handles is None:
        handles = (
            registry.histogram(f"codec.{op}_batch_seconds", spec=spec_name),
            registry.counter("codec.batches", op=op, spec=spec_name),
            registry.counter(f"codec.{op}d_packets", spec=spec_name),
            registry.counter(f"codec.{op}d_bytes", spec=spec_name),
        )
        cache[key] = handles
    histogram, batches, packet_counter, byte_counter = handles
    histogram.observe(elapsed)
    batches.inc()
    packet_counter.inc(packets)
    byte_counter.inc(size)


def encode_many(
    spec: Any,
    packets: Iterable[Any],
    obs: Optional[Instrumentation] = None,
) -> List[bytes]:
    """Encode an iterable of packets/value-mappings under one spec.

    Returns encodings in input order.  Byte totals and packet counts land
    in the same ``codec.encoded_*`` counters the single-packet path uses,
    so dashboards aggregate across call styles.
    """
    if obs is None:
        obs = get_default()
    enabled = obs.enabled
    start = time.perf_counter() if enabled else 0.0
    state = active_state(spec, force=True)
    out: List[bytes] = []
    append = out.append
    fast = _codec._fast_encode
    interp = _codec._encode_fields
    for item in packets:
        # Exact-type check first: ``isinstance(x, Mapping)`` is an ABC
        # walk costing as much as a small spec's entire compiled build.
        values = item if type(item) is dict else _as_values(item)
        # Re-check per item: a divergence can demote the spec mid-batch.
        if state is not None and state.status == COMPILED:
            append(fast(spec, state, values, obs))
        else:
            append(interp(spec, values)[0])
    if enabled:
        elapsed = time.perf_counter() - start
        _record_batch(
            obs, "encode", spec.name, len(out), sum(map(len, out)), elapsed
        )
    return out


def decode_many(
    spec: Any,
    blobs: Iterable[bytes],
    obs: Optional[Instrumentation] = None,
) -> List[Dict[str, Any]]:
    """Decode an iterable of wire buffers under one spec.

    Returns value dicts in input order.  A :class:`~repro.core.codec.DecodeError`
    aborts the batch at the offending buffer, exactly as a loop over
    ``decode_packet`` would.
    """
    if obs is None:
        obs = get_default()
    enabled = obs.enabled
    start = time.perf_counter() if enabled else 0.0
    state = active_state(spec, force=True)
    out: List[Dict[str, Any]] = []
    total = 0
    append = out.append
    fast = _codec._fast_decode
    interp = _codec._decode_fields
    for data in blobs:
        total += len(data)
        if state is not None and state.status == COMPILED:
            append(fast(spec, state, data, obs))
        else:
            append(interp(spec, data))
    if enabled:
        elapsed = time.perf_counter() - start
        _record_batch(obs, "decode", spec.name, len(out), total, elapsed)
    return out
