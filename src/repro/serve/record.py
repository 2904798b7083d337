"""Per-session exchange records: the serving plane's capture tap.

:class:`~repro.netsim.capture.Capture` taps a simulator channel at the
sender's NIC; :class:`ExchangeRecorder` is the same idea for a live
session — every frame the session *consumed* and every frame it *sent*
is stamped with a relative monotonic time and a direction.  The record
is the bridge between the planes: feeding its inbound side to
:class:`~repro.netsim.replay.ScriptedHost` re-runs the exchange under
the simulator oracle, and the oracle's responses are compared against
the recorded outbound side byte for byte.

Records serialize as ``exchange`` records (:mod:`repro.obs.records`,
hex frames) so a live server's exchanges can be shipped to an offline
differential run, and they render with
:func:`~repro.netsim.capture.describe_frame` so a serve transcript
reads exactly like a netsim capture transcript.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, TextIO, Tuple

from repro.netsim.capture import describe_frame
from repro.obs import records as obs_records

IN = "in"
OUT = "out"


@dataclass(frozen=True)
class ExchangeEvent:
    """One frame crossing the session boundary."""

    time: float  # seconds since the session opened (monotonic clock)
    direction: str  # IN (peer -> session) or OUT (session -> peer)
    data: bytes

    def to_dict(self) -> Dict[str, Any]:
        return {"t": round(self.time, 6), "dir": self.direction, "data": self.data.hex()}

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ExchangeEvent":
        return cls(float(raw["t"]), str(raw["dir"]), bytes.fromhex(raw["data"]))


@dataclass
class ExchangeRecord:
    """Everything needed to replay one session through the oracle.

    ``seed`` and ``params`` pin the session app's free choices (the
    handshake responder's nonce stream, a receiver's window) so the
    replayed instance makes the same ones.
    """

    protocol: str
    peer: str
    seed: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    events: List[ExchangeEvent] = field(default_factory=list)

    def inbound(self) -> List[ExchangeEvent]:
        """Frames the session consumed, in consumption order."""
        return [e for e in self.events if e.direction == IN]

    def outbound(self) -> List[ExchangeEvent]:
        """Frames the session transmitted, in transmission order."""
        return [e for e in self.events if e.direction == OUT]

    def inbound_script(self) -> List[Tuple[float, bytes]]:
        """The inbound side as ``(time, data)`` pairs for the replay host."""
        return [(e.time, e.data) for e in self.inbound()]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "peer": self.peer,
            "seed": self.seed,
            "params": dict(self.params),
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ExchangeRecord":
        return cls(
            protocol=str(raw["protocol"]),
            peer=str(raw["peer"]),
            seed=int(raw.get("seed", 0)),
            params=dict(raw.get("params", {})),
            events=[ExchangeEvent.from_dict(e) for e in raw.get("events", [])],
        )

    def transcript(self, specs: Sequence[Any] = ()) -> str:
        """Render the exchange, one line per frame, spec-decoded."""
        lines = []
        for event in self.events:
            _, description = describe_frame(event.data, specs)
            arrow = "->" if event.direction == IN else "<-"
            lines.append(f"{event.time:10.4f}  {arrow} {description}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)


class ExchangeRecorder:
    """Accumulates one session's :class:`ExchangeRecord`.

    ``clock`` is any monotonic float source (``loop.time`` live,
    a hand-advanced counter in tests); the recorder stores times
    relative to its construction so records are host-epoch free.
    """

    def __init__(
        self,
        protocol: str,
        peer: str,
        clock: Any,
        seed: int = 0,
        params: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._clock = clock
        self._start = clock()
        self.record = ExchangeRecord(
            protocol=protocol, peer=peer, seed=seed, params=dict(params or {})
        )

    def _stamp(self) -> float:
        return max(0.0, self._clock() - self._start)

    def frame_in(self, data: bytes) -> None:
        """The session consumed ``data``."""
        self.record.events.append(ExchangeEvent(self._stamp(), IN, bytes(data)))

    def frame_out(self, data: bytes) -> None:
        """The session transmitted ``data``."""
        self.record.events.append(ExchangeEvent(self._stamp(), OUT, bytes(data)))


def save_records(records: Sequence[ExchangeRecord], stream: TextIO) -> int:
    """Write records as ``exchange`` records; returns the count."""
    return obs_records.write(
        stream, [obs_records.Record("exchange", r.to_dict()) for r in records]
    )


def load_records(stream: TextIO) -> List[ExchangeRecord]:
    """The ``exchange`` records in a stream."""
    records = obs_records.read(stream)
    return [ExchangeRecord.from_dict(r.body) for r in records if r.kind == "exchange"]
