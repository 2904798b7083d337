"""The spec-compilation cache and per-spec tier state.

This is the machinery behind the transparent fast path: the first module
consulted by every ``encode_verbatim``/``decode_packet`` call.  Each
:class:`~repro.core.packet.PacketSpec` carries a small :class:`SpecState`
(stored as an attribute, rebuilt whenever the process-wide policy
changes) that tracks where the spec sits in the tier ladder:

``counting``
    Interpreted; under ``mode="auto"`` each call increments a counter
    until ``policy.AUTO_THRESHOLD`` triggers compilation.
``compiled``
    ``state.codec`` holds the :class:`~repro.core.compile.CompiledCodec`
    closures; the codec layer dispatches to them.
``interpreted``
    Terminal for this policy generation: the generator refused the spec
    (``CodegenError``), or a divergence demoted it (see
    :func:`demote`).  Changing the policy or calling :func:`reset`
    re-evaluates.

Compiled codecs are shared process-wide, keyed by the spec's *structural
fingerprint* (``repro.fastpath.fingerprint``): a thousand spec objects
with the same shape compile exactly once.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.fastpath import policy as _policy
from repro.fastpath.fingerprint import fingerprint_of

_STATE_ATTR = "_repro_fastpath_state"

COUNTING = "counting"
COMPILED = "compiled"
INTERPRETED = "interpreted"

_LOCK = threading.Lock()
_CODECS: Dict[str, Any] = {}  # fingerprint -> CompiledCodec
_FAILURES: Dict[str, str] = {}  # fingerprint -> CodegenError message
_STATS = {"compiles": 0, "shared": 0, "failures": 0, "demotions": 0}


class SpecState:
    """Per-spec, per-policy-generation fast-path bookkeeping."""

    __slots__ = (
        "generation",
        "status",
        "calls",
        "codec",
        "verify",
        "fingerprint",
        "reason",
        "spec_name",
    )

    def __init__(self, generation: int, verify: bool, spec_name: str) -> None:
        self.generation = generation
        self.status = COUNTING
        self.calls = 0
        self.codec = None
        self.verify = verify
        self.fingerprint: Optional[str] = None
        self.reason: Optional[str] = None
        self.spec_name = spec_name


def active_state(spec: Any, force: bool = False) -> Optional[SpecState]:
    """The spec's state iff the compiled tier should handle this call.

    Returns ``None`` when the interpreter should run instead — the tier
    is off, the spec is still warming up under ``auto``, the generator
    refused it, or it was demoted.  ``force=True`` (the batch APIs)
    compiles immediately regardless of warm-up, but never resurrects a
    refused or demoted spec.
    """
    policy, generation = _policy.state()
    if policy.mode == "off" and not force:
        return None
    state = getattr(spec, _STATE_ATTR, None)
    if state is None or state.generation != generation:
        state = SpecState(generation, policy.verify, getattr(spec, "name", "?"))
        try:
            setattr(spec, _STATE_ATTR, state)
        except AttributeError:  # exotic spec objects; just interpret
            return None
    status = state.status
    if status == COMPILED:
        return state
    if status == INTERPRETED:
        return None
    if not (force or policy.mode == "always"):
        state.calls += 1
        if state.calls < _policy.AUTO_THRESHOLD:
            return None
    _promote(spec, state)
    return state if state.status == COMPILED else None


def state_of(spec: Any) -> Optional[SpecState]:
    """The spec's current state without advancing warm-up counters."""
    state = getattr(spec, _STATE_ATTR, None)
    if state is None or state.generation != _policy.generation():
        return None
    return state


def _promote(spec: Any, state: SpecState) -> None:
    """Move a counting spec to ``compiled`` (or ``interpreted`` on refusal)."""
    fingerprint = state.fingerprint or fingerprint_of(spec)
    state.fingerprint = fingerprint
    with _LOCK:
        codec = _CODECS.get(fingerprint)
        if codec is None and fingerprint not in _FAILURES:
            # Lazy import: keeps this module import-light so core.codec
            # can import the fastpath package without a cycle.
            from repro.core.compile import CodegenError, compile_spec

            try:
                codec = compile_spec(spec)
            except CodegenError as exc:
                _FAILURES[fingerprint] = str(exc)
                _STATS["failures"] += 1
            else:
                _CODECS[fingerprint] = codec
                _STATS["compiles"] += 1
        elif codec is not None:
            _STATS["shared"] += 1
    if codec is None:
        state.status = INTERPRETED
        state.reason = f"codegen: {_FAILURES[fingerprint]}"
    else:
        state.codec = codec
        state.status = COMPILED


def demote(state: SpecState, reason: str) -> None:
    """Send a spec back to the interpreter for this policy generation.

    Called by the codec layer when a compiled closure diverges from the
    interpreter (error where the interpreter succeeds, or a byte-level
    mismatch under ``verify``).  The compiled closures stay referenced
    for post-mortem inspection but are no longer dispatched to.
    """
    state.status = INTERPRETED
    state.reason = reason
    with _LOCK:
        _STATS["demotions"] += 1


def stats() -> Dict[str, int]:
    """Cache counters: compiles, fingerprint shares, refusals, demotions."""
    with _LOCK:
        snapshot = dict(_STATS)
        snapshot["cached_codecs"] = len(_CODECS)
        snapshot["failed_fingerprints"] = len(_FAILURES)
    return snapshot


def reset() -> None:
    """Drop every compiled codec and invalidate per-spec state."""
    with _LOCK:
        _CODECS.clear()
        _FAILURES.clear()
        for key in _STATS:
            _STATS[key] = 0
    _policy.invalidate()
