"""repro.fastpath — the transparent compiled codec tier.

The paper's §5 position is that implementations *generated from* the DSL
spec are correct by construction; ``core.compile`` builds those
generated codecs, and this package makes the runtime actually use them.
Every ``encode_verbatim``/``decode_packet``/``compute_checksums`` call
consults a process-wide :class:`FastPath` policy: the first call on a
spec compiles it once, and every later call runs at generated-code
speed — with the interpreter retained as the semantic oracle.  A
compiled closure that errors where the interpreter succeeds, or (under
``verify=True``) produces different bytes, *demotes* its spec back to the
interpreter and counts a ``fastpath.divergences`` metric.

Layout
------
``policy``
    The :class:`FastPath` dataclass and the process-wide current policy
    (``configure``/``use`` helpers).
``cache``
    Per-spec tier state, the per-spec codec cache, demotion.
"""

from __future__ import annotations

from repro.fastpath.cache import (
    SpecState,
    active_state,
    demote,
    reset,
    state_of,
    stats,
)
from repro.fastpath.policy import (
    FastPath,
    configure,
    get_policy,
    set_policy,
    use,
)

__all__ = [
    "FastPath",
    "get_policy",
    "set_policy",
    "configure",
    "use",
    "SpecState",
    "active_state",
    "state_of",
    "demote",
    "stats",
    "reset",
]
