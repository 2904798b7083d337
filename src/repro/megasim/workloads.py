"""Population-scale workloads distilled from the paper's §1.1 settings.

Each workload is a sealed :class:`~repro.core.statemachine.MachineSpec`
plus the *epoch plan*: a deterministic function of ``(seed, epoch,
machine index)`` deciding what every machine does this epoch — which
local event it executes and whether it emits a message to a neighbour.
Decisions are pure hashes of global identity, never of shard layout, so
a run partitioned over any number of shards plans exactly the same
events (the first half of the epoch-barrier determinism argument; see
``DESIGN.md``).  A plan is a handful of numpy operations over the whole
shard: :func:`mix64_array` hashes every machine's index at once, and
masks over the hashes pick each event's machines and the senders.

Two workloads ship:

``olsr``
    The OLSR-style beacon mesh from §1.1's wireless setting: every node
    keeps a 16-bit beacon sequence, fires a periodic ``HELLO`` (or a
    ``RETX`` after a simulated loss), and bumps its counter on a
    neighbour's beacon (``HEARD``).

``trust``
    The §1.1 trust mesh: every relay carries a saturating score;
    neighbours send good/bad verdicts, and guarded transition groups
    (``GOOD``/``GOOD_SAT``, ``BAD``/``BAD_FLOOR``) clamp the score to
    ``[0, CAP]`` — the same arithmetic ``repro.trust.mesh`` applies one
    object at a time.

Events are identified by small integers indexing ``Workload.events``,
each entry an ordered tuple of candidate transition names: the first
whose guard holds fires (the completeness checker guarantees the group
covers every value, so a fully-missed event means a workload bug).
Message kinds map into event ids through ``Workload.message_event``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.statemachine import MachineSpec, Param
from repro.core.symbolic import Var

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# The same constants as uint64 scalars: an array op with a uint64 scalar
# stays uint64 under numpy 1.x and 2.x alike, and wraps modulo 2**64.
_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U30, _U27, _U31, _U16 = (np.uint64(n) for n in (30, 27, 31, 16))


def mix64(z: int) -> int:
    """The splitmix64 finalizer: the run's only source of randomness."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` of every element of a ``uint64`` array.

    uint64 arithmetic wraps modulo 2**64, which is what ``& _MASK`` does
    to :func:`mix64`'s Python ints, so element ``k`` equals
    ``mix64(int(z[k]))``.
    """
    z = (z ^ (z >> _U30)) * _U_MIX1
    z = (z ^ (z >> _U27)) * _U_MIX2
    return z ^ (z >> _U31)


def epoch_seed(seed: int, epoch: int) -> int:
    """The per-epoch hash base; identical in every shard."""
    return mix64((seed + 1) * _GOLDEN + epoch * _MIX1)


def index_hashes(base: int, lo: int, hi: int) -> np.ndarray:
    """``mix64(base + i * _GOLDEN)`` for every index ``i`` in ``[lo, hi)``."""
    return mix64_array(np.uint64(base) + np.arange(lo, hi, dtype=np.uint64) * _U_GOLDEN)


def _messages(
    z: np.ndarray, sent: np.ndarray, lo: int, machines: int, kind: Any
) -> np.ndarray:
    """The outbox of the local machines ``sent``: each to a hashed neighbour.

    Machine ``i`` sends to ``(i + 1 + (z >> 16) % (machines - 1)) %
    machines``, never to itself.  The hop is below 2**48, so it converts
    to int64 before it meets the int64 indices.
    """
    src = sent + lo
    hop = ((z[sent] >> _U16) % np.uint64(machines - 1)).astype(np.int64)
    outbox = np.empty((len(sent), 3), dtype=np.int64)
    outbox[:, 0] = (src + 1 + hop) % machines
    outbox[:, 1] = src
    outbox[:, 2] = kind
    return outbox


def _no_messages() -> np.ndarray:
    return np.empty((0, 3), dtype=np.int64)


class Workload:
    """A sealed spec plus the epoch-planning rules that drive it."""

    #: Registry key and transcript label.
    name: str = ""
    #: Event id -> ordered candidate transition names.
    events: Tuple[Tuple[str, ...], ...] = ()
    #: Message kind -> event id applied at the receiver.
    message_event: Dict[int, int] = {}

    def __init__(self) -> None:
        self.spec = self._build_spec()

    def _build_spec(self) -> MachineSpec:
        raise NotImplementedError

    def initial_values(self, lo: int, hi: int) -> np.ndarray:
        """The starting parameter values of machines ``[lo, hi)``, as int64."""
        raise NotImplementedError

    def plan(
        self, eseed: int, lo: int, hi: int, machines: int
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Plan one epoch for machines ``[lo, hi)`` of ``machines`` total.

        Returns one array of shard-local indices (``global - lo``) per
        event id, and the ``(n, 3)`` outbox of ``(dst, src, kind)``
        messages in global indices.
        """
        raise NotImplementedError


class OlsrBeacons(Workload):
    """§1.1 wireless mesh: HELLO beacons, retransmits, neighbour churn."""

    name = "olsr"
    events = (("HELLO",), ("RETX",), ("HEARD",))
    message_event = {0: 2}  # a beacon on the air -> HEARD at the receiver

    def _build_spec(self) -> MachineSpec:
        sm = MachineSpec(
            "olsr_node",
            doc="An OLSR-style node's beacon counter, population-hosted.",
        )
        beacon = sm.state(
            "Beacon", params=[Param("seq", bits=16)], initial=True
        )
        n = Var("seq")
        sm.transition(
            "HELLO", beacon(n), beacon(n + 1), doc="periodic beacon sent"
        )
        sm.transition(
            "RETX", beacon(n), beacon(n + 1), doc="beacon resent after loss"
        )
        sm.transition(
            "HEARD", beacon(n), beacon(n + 3), doc="neighbour beacon received"
        )
        return sm.seal()

    def initial_values(self, lo, hi):
        return np.arange(lo, hi, dtype=np.int64) & 0xFFFF

    def plan(self, eseed, lo, hi, machines):
        z = index_hashes(eseed, lo, hi)
        # 3/4 of beacons go out on schedule; the rest were lost once
        # and retransmit.
        lost = (z & np.uint64(3)) == 0
        cohorts = [np.flatnonzero(~lost), np.flatnonzero(lost), np.empty(0, np.int64)]
        if machines == 1:
            return cohorts, _no_messages()
        # Half the beacons reach a neighbour.
        sent = np.flatnonzero(z & np.uint64(4))
        return cohorts, _messages(z, sent, lo, machines, 0)


class TrustMesh(Workload):
    """§1.1 trust mesh: saturating relay scores driven by peer verdicts."""

    name = "trust"
    events = (("PROBE",), ("GOOD", "GOOD_SAT"), ("BAD", "BAD_FLOOR"))
    message_event = {1: 1, 2: 2}

    #: Score ceiling; GOOD saturates here, matching ``repro.trust.mesh``.
    CAP = 64

    def _build_spec(self) -> MachineSpec:
        sm = MachineSpec(
            "trust_relay",
            doc="A relay's trust score with guarded saturation arithmetic.",
        )
        relay = sm.state(
            "Relay", params=[Param("score", bits=16)], initial=True
        )
        s = Var("score")
        sm.transition(
            "PROBE", relay(s), relay(s), doc="keep-alive probe, score unchanged"
        )
        sm.transition(
            "GOOD",
            relay(s),
            relay(s + 1),
            guard=(s < self.CAP),
            doc="good verdict below the cap",
        )
        sm.transition(
            "GOOD_SAT",
            relay(s),
            relay(s),
            guard=(s >= self.CAP),
            doc="good verdict at the cap: saturate",
        )
        sm.transition(
            "BAD",
            relay(s),
            relay(s - 1),
            guard=(s >= 1),
            doc="bad verdict above the floor",
        )
        sm.transition(
            "BAD_FLOOR",
            relay(s),
            relay(s),
            guard=(s < 1),
            doc="bad verdict at zero: stay floored",
        )
        return sm.seal()

    def initial_values(self, lo, hi):
        return (np.arange(lo, hi, dtype=np.int64) * 7) % self.CAP

    def plan(self, eseed, lo, hi, machines):
        cohorts = [np.arange(hi - lo), np.empty(0, np.int64), np.empty(0, np.int64)]
        if machines == 1:
            return cohorts, _no_messages()
        z = index_hashes(eseed, lo, hi)
        # Half the probes produce a verdict: 3/4 of verdicts are good,
        # 1/4 bad, so scores drift to the cap and the guarded saturation
        # branches actually run.
        sent = np.flatnonzero(z & np.uint64(1))
        kinds = np.where(z[sent] & np.uint64(6), 1, 2)
        return cohorts, _messages(z, sent, lo, machines, kinds)


_REGISTRY = {cls.name: cls for cls in (OlsrBeacons, TrustMesh)}
WORKLOADS = tuple(sorted(_REGISTRY))

_instances: Dict[str, Workload] = {}


def get_workload(name: str) -> Workload:
    """The (shared, stateless) workload instance for ``name``."""
    try:
        instance = _instances[name]
    except KeyError:
        try:
            cls = _REGISTRY[name]
        except KeyError:
            raise KeyError(
                f"unknown megasim workload {name!r}; "
                f"available: {', '.join(WORKLOADS)}"
            ) from None
        instance = _instances[name] = cls()
    return instance
