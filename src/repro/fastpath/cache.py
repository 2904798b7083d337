"""The spec-compilation cache and per-spec tier state.

This is the machinery behind the transparent fast path: the first module
consulted by every ``encode_verbatim``/``decode_packet`` call and every
``Machine.exec_trans``.  Each :class:`~repro.core.packet.PacketSpec` and
each sealed :class:`~repro.core.statemachine.MachineSpec` carries a small
:class:`SpecState` (stored as an attribute, rebuilt whenever the
process-wide policy changes) that says which tier handles the spec:

``compiled``
    ``state.codec`` holds the generated functions: a
    :class:`~repro.core.compile.CompiledCodec` for a packet spec, a
    :class:`~repro.core.compile.CompiledMachine` for a machine spec.
``interpreted``
    Terminal for this policy generation: the generator refused the spec
    (``CodegenError``), or a divergence demoted it (see
    :func:`demote`).  Changing the policy or calling :func:`reset`
    re-evaluates.

The first call on a spec compiles it.  The compiled module, or the
generator's refusal, is cached against that spec object (weakly: the
cache never keeps a spec alive), so a policy change re-reads it instead
of compiling again.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Dict, List, Optional, Tuple

from repro.fastpath import policy as _policy

_STATE_ATTR = "_repro_fastpath_state"

COMPILED = "compiled"
INTERPRETED = "interpreted"

_LOCK = threading.Lock()
# spec -> CompiledCodec or CompiledMachine, or the refused spec's CodegenError message
_CODECS: "weakref.WeakKeyDictionary[Any, Any]" = weakref.WeakKeyDictionary()
_STATS = {"compiles": 0, "failures": 0, "demotions": 0}


class SpecState:
    """Per-spec, per-policy-generation fast-path bookkeeping."""

    __slots__ = ("generation", "status", "codec", "verify", "reason", "spec_name")

    def __init__(self, generation: int, verify: bool, spec_name: str) -> None:
        self.generation = generation
        self.status = INTERPRETED
        self.codec = None
        self.verify = verify
        self.reason: Optional[str] = None
        self.spec_name = spec_name


def active_state(spec: Any) -> Optional[SpecState]:
    """The spec's state iff the compiled tier should handle this call.

    Returns ``None`` when the interpreter should run instead — the tier
    is off, the generator refused the spec, or it was demoted.
    """
    policy, generation = _policy._state
    if policy.mode == "off":
        return None
    state = getattr(spec, _STATE_ATTR, None)
    if state is None or state.generation != generation:
        state = SpecState(generation, policy.verify, getattr(spec, "name", "?"))
        try:
            setattr(spec, _STATE_ATTR, state)
        except AttributeError:  # exotic spec objects; just interpret
            return None
        _load(spec, state)
    return state if state.status == COMPILED else None


def state_of(spec: Any) -> Optional[SpecState]:
    """The spec's current state, without compiling it."""
    state = getattr(spec, _STATE_ATTR, None)
    if state is None or state.generation != _policy.generation():
        return None
    return state


def _load(spec: Any, state: SpecState) -> None:
    """Point a fresh state at the spec's compiled module, compiling it on first use."""
    with _LOCK:
        try:
            codec = _CODECS.get(spec)
        except TypeError:  # unhashable or not weakly referenceable
            state.reason = "cache: spec cannot be a cache key"
            return
        if codec is None:
            # Lazy import: keeps this module import-light so core.codec
            # can import the fastpath package without a cycle.
            from repro.core.compile import (
                CodegenError,
                compile_machine,
                compile_spec,
            )
            from repro.core.statemachine import MachineSpec

            compiler = (
                compile_machine if isinstance(spec, MachineSpec) else compile_spec
            )
            try:
                codec = compiler(spec)
            except CodegenError as exc:
                codec = str(exc)
                _STATS["failures"] += 1
            else:
                _STATS["compiles"] += 1
            _CODECS[spec] = codec
    if isinstance(codec, str):
        state.reason = f"codegen: {codec}"
    else:
        state.codec = codec
        state.status = COMPILED


def demote(state: SpecState, reason: str) -> None:
    """Send a spec back to the interpreter for this policy generation.

    Called by the codec layer and the machine runtime when a generated
    function diverges from the interpreter (an error or refusal where
    the interpreter succeeds, or a mismatch under ``verify``).  The
    generated module stays referenced for post-mortem inspection but is
    no longer dispatched to.
    """
    state.status = INTERPRETED
    state.reason = reason
    with _LOCK:
        _STATS["demotions"] += 1


def demoted() -> List[Tuple[str, str]]:
    """``(spec name, reason)`` for each cached spec demoted under the current policy."""
    with _LOCK:
        specs = [spec for spec, codec in _CODECS.items() if not isinstance(codec, str)]
    states = [state_of(spec) for spec in specs]
    return sorted(
        (state.spec_name, state.reason or "")
        for state in states
        if state is not None and state.status == INTERPRETED
    )


def stats() -> Dict[str, int]:
    """Cache counters: compiles, refusals, demotions."""
    with _LOCK:
        return dict(_STATS)


def reset() -> None:
    """Drop every compiled codec and invalidate per-spec state."""
    with _LOCK:
        _CODECS.clear()
        for key in _STATS:
            _STATS[key] = 0
    _policy.invalidate()
