"""Process-wide policy for the compiled codec and machine tier.

A :class:`FastPath` value decides whether packet and machine specs run
on their generated modules:

* ``mode="always"`` (default) — compile a spec on its first call;
* ``mode="off"`` — interpret every codec and machine (the compiled tier
  is inert).

``verify=True`` keeps the interpreter in the loop as an oracle: every
compiled result is cross-checked byte-for-byte and any divergence demotes
the spec back to the interpreter (see ``repro.fastpath.cache``).

The policy is process-wide and cheap to read; changing it bumps a
*generation* counter that invalidates every per-spec cached decision, so
``use(mode="off")`` in a test really does turn the tier off for specs
that were already compiled.  Every process starts on ``FastPath()``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Tuple

#: Every ``FastPath.mode``; the conformance CLI offers these plus ``verify``.
MODES = ("off", "always")


@dataclass(frozen=True)
class FastPath:
    """Whether and how the compiled codec and machine tier engages."""

    mode: str = "always"
    verify: bool = False  # cross-check every compiled result vs the interpreter

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"fastpath mode must be one of {MODES}, got {self.mode!r}"
            )


# The policy and its generation, bundled so hot paths read one global.
_state: Tuple[FastPath, int] = (FastPath(), 0)


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
