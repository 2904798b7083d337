"""Replay recorded wire exchanges through the simulator.

The simulator is this repo's oracle: every protocol behaviour in-tree is
specified against its deterministic delivery.  This module is the entry
point that lets *other* planes borrow that oracle — most importantly the
real-socket serving plane (``repro.serve``), whose loopback differential
mode records what a live endpoint received and re-runs the same frames,
at the same relative times, through a scripted simulator host.

The scripted host is intentionally minimal: a perfect (lossless,
zero-delay) link between a ``client`` node that plays back the recorded
inbound frames and a ``server`` node hosting the behaviour under test,
with a :class:`~repro.netsim.capture.Capture` tapped on the return
channel so the oracle's responses come out as a byte-exact transcript.
Loss, reordering and duplication need no modelling here — they already
happened on the real network, and their effects are present in the
recorded inbound sequence itself.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

from repro.netsim.capture import Capture
from repro.netsim.channel import ChannelConfig
from repro.netsim.node import DuplexLink, Node
from repro.netsim.simulator import Simulator

#: One recorded inbound frame: (relative time, wire bytes).
TimedFrame = Tuple[float, bytes]


class ScriptedHost:
    """A simulator hosting one endpoint fed from a recorded script.

    Parameters
    ----------
    specs:
        Packet specs used to render the response transcript.
    seed:
        Seed for the (perfect) link's RNG streams; kept for parity with
        live hosts, it cannot affect delivery on a lossless channel.
    """

    def __init__(self, specs: Sequence[Any] = (), seed: int = 0) -> None:
        self.sim = Simulator()
        self.client = Node(self.sim, "client")
        self.server = Node(self.sim, "server")
        # A perfect channel: the adversity already happened on the real
        # network; the oracle must add none of its own.
        self.link = DuplexLink(
            self.sim,
            self.client,
            self.server,
            ChannelConfig(delay=0.0),
            seed=seed,
        )
        self.capture = Capture(specs=list(specs))
        self.capture.tap(self.link.backward)  # server -> client responses

    def host(self, handler: Callable[[bytes], None]) -> Callable[[bytes], None]:
        """Install the server-side frame handler; returns its send function.

        The handler receives each delivered inbound frame; the returned
        callable transmits a response frame toward the client (and into
        the capture tap).
        """
        self.server.on_receive(lambda frame, sender: handler(frame))
        return lambda frame: self.server.send("client", frame)

    def feed(self, frames: Sequence[TimedFrame]) -> None:
        """Script the inbound side: each frame enters the wire at its time.

        Times are relative to the start of the exchange and must be
        non-decreasing (they come from a monotonic clock on the live
        side); equal times preserve recorded order, exactly as the
        simulator's tie-breaker guarantees.
        """
        last = 0.0
        for when, data in frames:
            if when < last:
                raise ValueError(
                    f"inbound script goes backwards: {when} after {last}"
                )
            last = when
            self.sim.at(when, lambda d=data: self.client.send("server", d))

    def run(self, time_limit: float = 1_000_000.0) -> List[bytes]:
        """Run the exchange to quiescence; returns the response transcript."""
        self.sim.run(until=None, max_events=10_000_000)
        if self.sim.now > time_limit:
            raise RuntimeError(
                f"scripted replay ran past {time_limit} virtual seconds"
            )
        return [frame.data for frame in self.capture.frames]

