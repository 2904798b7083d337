"""repro.fastpath — the transparent compiled tier for codecs and machines.

The paper's §5 position is that implementations *generated from* the DSL
spec are correct by construction; ``core.compile`` generates one module
per packet spec (its codec) and per sealed machine spec (its
transitions), and this package makes the runtime actually use them.
Every ``encode_verbatim``/``encode_with_spans``/``decode_packet`` call,
every ``PacketSpec.decode``/``verify``/``make`` and every
``Machine.exec_trans`` consults a process-wide :class:`FastPath` policy:
the first call on a spec compiles it once, and every later call runs at
generated-code speed — with the interpreter retained as the semantic
oracle (``core.codec._rerun`` for every codec entry point,
``Machine._oracle`` for transitions).  A generated function that errors
or refuses where the interpreter succeeds, or (under ``verify=True``)
succeeds where it fails or produces different bytes, spans, values,
verdicts or states, *demotes* its spec back to the interpreter and
counts a ``fastpath.divergences`` metric.

Layout
------
``policy``
    The :class:`FastPath` dataclass and the process-wide current policy
    (``configure``/``use`` helpers).
``cache``
    Per-spec tier state, the per-spec compile cache, demotion.
"""

from __future__ import annotations

from repro.fastpath.cache import (
    SpecState,
    active_state,
    demote,
    demoted,
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
    "demoted",
    "stats",
    "reset",
]
