"""Process-wide policy for the compiled codec tier.

A :class:`FastPath` value decides *when* a spec graduates from the
interpreted codec to its compiled closures:

* ``mode="auto"`` (default) — compile a spec after
  :data:`AUTO_THRESHOLD` interpreted calls, so one-shot scripts never
  pay codegen latency while steady-state traffic always ends up on the
  fast tier;
* ``mode="always"`` — compile on first use;
* ``mode="off"`` — interpret everything (the compiled tier is inert).

``verify=True`` keeps the interpreter in the loop as an oracle: every
compiled result is cross-checked byte-for-byte and any divergence demotes
the spec back to the interpreter (see ``repro.fastpath.cache``).

The policy is process-wide and cheap to read; changing it bumps a
*generation* counter that invalidates every per-spec cached decision, so
``use(mode="off")`` in a test really does turn the tier off for specs
that were already compiled.

The environment variable ``REPRO_FASTPATH`` picks the starting policy:
``off``, ``auto``, ``always`` or ``verify`` (= ``always`` + oracle).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Tuple

_MODES = ("off", "auto", "always")

#: Interpreted calls before ``mode="auto"`` compiles a spec.  Codegen
#: costs milliseconds per spec; the ramp spares one-shot callers that.
AUTO_THRESHOLD = 64


@dataclass(frozen=True)
class FastPath:
    """When and how the compiled codec tier engages."""

    mode: str = "auto"
    verify: bool = False  # cross-check every compiled result vs the interpreter

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"fastpath mode must be one of {_MODES}, got {self.mode!r}"
            )


def _from_env() -> FastPath:
    raw = os.environ.get("REPRO_FASTPATH", "").strip().lower()
    if raw == "off":
        return FastPath(mode="off")
    if raw == "always":
        return FastPath(mode="always")
    if raw == "verify":
        return FastPath(mode="always", verify=True)
    return FastPath()


# The policy and its generation, bundled so hot paths read one global.
_state: Tuple[FastPath, int] = (_from_env(), 0)


def state() -> Tuple[FastPath, int]:
    """The current ``(policy, generation)`` pair (one global read)."""
    return _state


def get_policy() -> FastPath:
    """The current process-wide policy."""
    return _state[0]


def generation() -> int:
    """Bumped on every policy change; stale per-spec state checks this."""
    return _state[1]


def set_policy(policy: FastPath) -> FastPath:
    """Install ``policy`` process-wide, invalidating per-spec decisions."""
    if not isinstance(policy, FastPath):
        raise TypeError(f"expected a FastPath policy, got {policy!r}")
    global _state
    _state = (policy, _state[1] + 1)
    return policy


def configure(**changes: object) -> FastPath:
    """Install a copy of the current policy with ``changes`` applied."""
    return set_policy(replace(_state[0], **changes))


def invalidate() -> None:
    """Bump the generation without changing the policy.

    Used by ``cache.reset()`` so specs holding a cached compile decision
    re-evaluate against the emptied codec cache.
    """
    global _state
    _state = (_state[0], _state[1] + 1)


@contextmanager
def use(**changes: object) -> Iterator[FastPath]:
    """Temporarily apply policy ``changes`` (restores the old policy)."""
    previous = _state[0]
    try:
        yield configure(**changes)
    finally:
        set_policy(previous)
