"""Sliding-window protocols built with the DSL: Go-Back-N and Selective Repeat.

Section 5.1 of the paper promises that, with the DSL in place, new
protocols can be built "quickly and easily" from the same framework.  This
module makes that concrete: both sliding-window ARQ variants reuse the
packet DSL, the verified-evidence discipline and the typed machine runtime
of :mod:`repro.core`, differing from the paper's stop-and-wait example
only in their state indexing:

* the Go-Back-N sender's state is indexed by *two* dependent parameters
  ``(base, nxt)`` — the window edges — and its ``ACK`` transition takes an
  execution-time input (the cumulative acknowledgement number), bounded by
  a symbolic guard ``base <= ack < nxt``;
* Selective Repeat keeps the same indexed window but acknowledges
  individual packets; its receiver buffers verified out-of-order packets
  (buffering *raw* packets is impossible by construction — the buffer
  holds ``Verified`` values).

Sequence numbers here are 16-bit and the runs are finite, so window
arithmetic never wraps; the machines use unbounded parameters and the
specs' guards enforce the window discipline symbolically.

The four drivers are roles (:mod:`repro.protocols.role`): the Selective
Repeat pair is also what the serving plane runs on sockets (protocol
``sliding``); Go-Back-N runs on the simulator only.
:func:`run_sr_transfer` and :func:`run_gbn_transfer` host them on
simulator nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence

from repro.core.fields import Bytes, ChecksumField, UInt
from repro.core.machine import Machine
from repro.core.packet import PacketSpec
from repro.core.statemachine import MachineSpec, Param
from repro.core.symbolic import Var, this
from repro.netsim.channel import ChannelConfig
from repro.netsim.node import DuplexLink, Node
from repro.netsim.simulator import Simulator
from repro.protocols.role import Role, Send, on_node

SEQ_BITS = 16

#: Data packet for the sliding-window protocols: like the paper's ARQ
#: packet, with a 16-bit sequence space and a CRC-16 for integrity.
SLIDING_PACKET = PacketSpec(
    "SlidingData",
    fields=[
        UInt("seq", bits=SEQ_BITS, doc="sequence number"),
        ChecksumField(
            "chk",
            algorithm="crc16-ccitt",
            over=("seq", "length", "payload"),
            doc="CRC over sequence number and payload",
        ),
        UInt("length", bits=8, doc="payload length in bytes"),
        Bytes("payload", length=this.length, doc="payload"),
    ],
    doc="sliding-window data packet",
)

#: Acknowledgement: ``kind`` distinguishes cumulative (Go-Back-N) from
#: selective (Selective Repeat) acknowledgements.
SLIDING_ACK = PacketSpec(
    "SlidingAck",
    fields=[
        UInt("kind", bits=8, enum={0: "cumulative", 1: "selective"}, doc="ack kind"),
        UInt("seq", bits=SEQ_BITS, doc="acknowledged sequence number"),
        ChecksumField("chk", algorithm="crc16-ccitt", over=("kind", "seq")),
    ],
    doc="sliding-window acknowledgement",
)

KIND_CUMULATIVE = 0
KIND_SELECTIVE = 1


def build_gbn_sender_spec(window: int) -> MachineSpec:
    """Go-Back-N sender machine, indexed by the window edges.

    States: ``Active(base, nxt)`` (initial) and ``Done(base)`` (final).
    The symbolic guards carry the whole window discipline:

    * ``SEND``   : Active(b, n) -> Active(b, n+1)   when n - b < window
    * ``ACK``    : Active(b, n) -> Active(a+1, n)   input a, b <= a < n
    * ``ACK_OLD``: Active(b, n) -> Active(b, n)     input a, a < b
    * ``GO_BACK``: Active(b, n) -> Active(b, b)     timer expiry
    * ``FINISH`` : Active(b, n) -> Done(b)          when b == n
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    spec = MachineSpec("GbnSender", doc=f"Go-Back-N sender, window={window}")
    base = Param("base")
    nxt = Param("nxt")
    active = spec.state("Active", params=[base, nxt], initial=True)
    done = spec.state("Done", params=[Param("base")], final=True)
    b, n, a = Var("base"), Var("nxt"), Var("ack")
    spec.transition(
        "SEND", active(b, n), active(b, n + 1), requires="bytes", event="submit",
        guard=(n - b) < window,
        doc="transmit the next packet while the window has room",
    )
    spec.transition(
        "ACK", active(b, n), active(a + 1, n), inputs=("ack",), event="ack",
        requires=SLIDING_ACK,
        guard=(a >= b) & (a < n),
        doc="cumulative acknowledgement slides the window base",
    )
    spec.transition(
        "ACK_OLD", active(b, n), active(b, n), inputs=("ack",), event="old_ack",
        requires=SLIDING_ACK,
        guard=a < b,
        doc="stale acknowledgement: ignore but account",
    )
    spec.transition(
        "GO_BACK", active(b, n), active(b, b), event="timer",
        doc="timer expiry rewinds transmission to the window base",
    )
    spec.transition(
        "FINISH", active(b, n), done(b), event="drained",
        guard=b.eq(n),
        doc="window empty and queue drained: consistent end state",
    )
    spec.expect_events(active, ["submit", "ack", "old_ack", "timer", "drained"])
    return spec.seal()


def build_window_receiver_spec(name: str) -> MachineSpec:
    """Receiver machine shared by both sliding-window variants.

    ``ReadyFor(seq)`` is the paper's receiver state; ``RECV`` advances on
    the expected verified packet, ``OUT_OF_ORDER`` handles any other
    verified packet without advancing (Go-Back-N re-acks; Selective Repeat
    buffers and acks selectively — that policy lives in the driver, the
    machine only guarantees no unverified packet is ever processed).
    """
    spec = MachineSpec(name, doc="sliding-window receiver")
    seq = Param("seq")
    ready_for = spec.state("ReadyFor", params=[seq], initial=True)
    n = Var("seq")
    spec.transition(
        "RECV", ready_for(n), ready_for(n + 1), requires=SLIDING_PACKET, event="data",
        guard=lambda bindings, payload: payload.value.seq == bindings["seq"],
        doc="accept the expected verified packet and advance",
    )
    spec.transition(
        "OUT_OF_ORDER", ready_for(n), ready_for(n), requires=SLIDING_PACKET,
        event="other",
        guard=lambda bindings, payload: payload.value.seq != bindings["seq"],
        doc="verified but not the expected packet: do not advance",
    )
    spec.expect_events(ready_for, ["data", "other"])
    return spec.seal()


@dataclass
class SlidingTransferReport:
    """Outcome of a sliding-window transfer experiment."""

    protocol: str
    window: int
    success: bool
    messages: List[bytes]
    delivered: List[bytes]
    data_frames_sent: int
    ack_frames_sent: int
    retransmissions: int
    duration: float
    violations: List[str] = field(default_factory=list)

    @property
    def goodput(self) -> float:
        """Delivered payload bytes per virtual second."""
        if self.duration <= 0:
            return 0.0
        return sum(len(m) for m in self.delivered) / self.duration


def _delivery_violations(
    messages: Sequence[bytes], delivered: Sequence[bytes]
) -> List[str]:
    violations: List[str] = []
    for index, payload in enumerate(delivered):
        if index >= len(messages):
            violations.append("delivered more messages than were sent")
            break
        if payload != messages[index]:
            violations.append(
                f"message {index} delivered as {payload!r}, sent "
                f"{messages[index]!r}"
            )
    return violations


# One sealed spec per role and window, shared by every instance (see
# the note in :mod:`repro.protocols.arq`).
_window_sender_spec = lru_cache(maxsize=None)(build_gbn_sender_spec)
_window_receiver_spec = lru_cache(maxsize=None)(build_window_receiver_spec)


class _WindowSender(Role):
    """What both window senders share: the window machine and its edges.

    The control machine is the Go-Back-N window machine for both
    variants; how a lost packet is resent is each subclass's policy.
    """

    specs = (SLIDING_PACKET, SLIDING_ACK)

    def __init__(
        self,
        send: Send,
        *,
        messages: Sequence[bytes] = (),
        window: int = 8,
        rto: float = 0.5,
        max_retries: int = 50,
        **host: Any,
    ) -> None:
        super().__init__(send, **host)
        self.messages = list(messages)
        self.window = window
        self.machine = Machine(_window_sender_spec(window))
        self.rto = rto
        self.max_retries = max_retries
        self.retransmissions = 0
        self.failed = False

    @property
    def base(self) -> int:
        """Lower window edge (oldest unacknowledged sequence number)."""
        return self.machine.current.values[0]

    @property
    def nxt(self) -> int:
        """Next sequence number to transmit."""
        values = self.machine.current.values
        return values[1] if len(values) > 1 else self.base

    @property
    def done(self) -> bool:
        """True once the machine reached Done."""
        return self.machine.is_finished

    def start(self) -> None:
        """Begin the transfer."""
        self._fill_window()
        self._maybe_finish()

    def _fill_window(self) -> None:
        raise NotImplementedError

    def _transmit(self, seq: int, payload: bytes) -> None:
        packet = SLIDING_PACKET.make(seq=seq, length=len(payload), payload=payload)
        self.send(SLIDING_PACKET.encode(packet))

    def _maybe_finish(self) -> None:
        if (
            not self.machine.is_finished
            and self.base == self.nxt
            and self.base >= len(self.messages)
        ):
            self.machine.exec_trans("FINISH")
            self._on_done(True)

    def _give_up(self) -> None:
        self.failed = True
        self._on_done(False)


class GoBackNSender(_WindowSender):
    """Go-Back-N sender: one timer for the window base, cumulative acks."""

    def __init__(self, send: Send, **params: Any) -> None:
        super().__init__(send, **params)
        self.retries_used = 0
        self.timer = self._timer(self.rto, self._on_timeout, name="gbn-rto")

    def _fill_window(self) -> None:
        while (
            not self.machine.is_finished
            and self.nxt < len(self.messages)
            and self.nxt - self.base < self.window
        ):
            payload = self.messages[self.nxt]
            seq = self.nxt
            self.machine.exec_trans("SEND", payload)
            self._transmit(seq, payload)
        if self.base < self.nxt and not self.timer.running:
            self.timer.start(self.rto)

    def _maybe_finish(self) -> None:
        super()._maybe_finish()
        if self.machine.is_finished:
            self.timer.stop()

    def on_frame(self, data: bytes) -> None:
        self.frames_in += 1
        if self.machine.is_finished:
            return
        verified = SLIDING_ACK.try_parse(data)
        if verified is None or verified.value.kind != KIND_CUMULATIVE:
            return  # unverifiable acks are dropped; the timer recovers
        ack = verified.value.seq
        if self.base <= ack < self.nxt:
            self.machine.exec_trans("ACK", verified, ack=ack)
            self.retries_used = 0
            if self.base < self.nxt:
                self.timer.start(self.rto)
            else:
                self.timer.stop()
            self._fill_window()
            self._maybe_finish()
        elif ack < self.base:
            self.machine.exec_trans("ACK_OLD", verified, ack=ack)

    def _on_timeout(self) -> None:
        if self.machine.is_finished or self.base == self.nxt:
            return
        if self.retries_used >= self.max_retries:
            self._give_up()
            return
        self.retries_used += 1
        resend_from = self.base
        resend_to = self.nxt
        self.machine.exec_trans("GO_BACK")
        # Go back: retransmit every outstanding packet in order.
        for seq in range(resend_from, resend_to):
            payload = self.messages[seq]
            self.machine.exec_trans("SEND", payload)
            self._transmit(seq, payload)
            self.retransmissions += 1
        self.timer.start(self.rto)


class GoBackNReceiver(Role):
    """Go-Back-N receiver: accepts in order, cumulative acknowledgements."""

    specs = (SLIDING_PACKET, SLIDING_ACK)

    def __init__(self, send: Send, **host: Any) -> None:
        super().__init__(send, **host)
        self.machine = Machine(_window_receiver_spec("GbnReceiver"))
        self.delivered: List[bytes] = []

    @property
    def expected(self) -> int:
        """Next in-order sequence number."""
        return self.machine.current.values[0]

    def on_frame(self, data: bytes) -> None:
        self.frames_in += 1
        verified = SLIDING_PACKET.try_parse(data)
        if verified is None:
            self.rejected += 1
            return
        if verified.value.seq == self.expected:
            self.machine.exec_trans("RECV", verified)
            self.delivered.append(verified.value.payload)
            self._ack(self.expected - 1)
        else:
            self.machine.exec_trans("OUT_OF_ORDER", verified)
            if self.expected > 0:
                self._ack(self.expected - 1)

    def _ack(self, seq: int) -> None:
        ack = SLIDING_ACK.make(kind=KIND_CUMULATIVE, seq=seq)
        self.send(SLIDING_ACK.encode(ack))


class SelectiveRepeatSender(_WindowSender):
    """Selective Repeat sender: per-packet timers, selective acks.

    The base slides over *acked* packets; the per-packet resend policy
    lives here, keyed by the acked set.  Only numbers in the window have
    entries: the window check rejects a number the base slid past.
    """

    protocol = "sliding"

    def __init__(self, send: Send, **params: Any) -> None:
        super().__init__(send, **params)
        self.acked: Dict[int, bool] = {}
        self.timers: Dict[int, Any] = {}
        self.retries: Dict[int, int] = {}

    def _fill_window(self) -> None:
        while (
            not self.machine.is_finished
            and self.nxt < len(self.messages)
            and self.nxt - self.base < self.window
        ):
            seq = self.nxt
            payload = self.messages[seq]
            self.machine.exec_trans("SEND", payload)
            self._transmit(seq, payload)
            self._arm_timer(seq)

    def _arm_timer(self, seq: int) -> None:
        if seq not in self.timers:
            self.timers[seq] = self._timer(
                self.rto, lambda s=seq: self._on_timeout(s), name=f"sr-rto-{seq}"
            )
        self.timers[seq].start(self.rto)

    def on_frame(self, data: bytes) -> None:
        self.frames_in += 1
        if self.machine.is_finished:
            return
        verified = SLIDING_ACK.try_parse(data)
        if verified is None or verified.value.kind != KIND_SELECTIVE:
            return
        seq = verified.value.seq
        if not self.base <= seq < self.nxt or self.acked.get(seq):
            if seq < self.base:
                self.machine.exec_trans("ACK_OLD", verified, ack=seq)
            return
        self.acked[seq] = True
        if seq in self.timers:
            self.timers[seq].stop()
        # Slide the base over the contiguous acked prefix, dropping each
        # slid number's entries: each slide step is the machine's ACK
        # transition with the base packet's number.
        while self.base < self.nxt and self.acked.pop(self.base, False):
            self.timers.pop(self.base, None)
            self.retries.pop(self.base, None)
            self.machine.exec_trans("ACK", verified, ack=self.base)
        self._fill_window()
        self._maybe_finish()

    def _on_timeout(self, seq: int) -> None:
        if self.machine.is_finished or self.acked.get(seq):
            return
        if not self.base <= seq < self.nxt:
            return
        used = self.retries.get(seq, 0)
        if used >= self.max_retries:
            self._give_up()
            return
        self.retries[seq] = used + 1
        self._transmit(seq, self.messages[seq])
        self.retransmissions += 1
        self._arm_timer(seq)


class SelectiveRepeatReceiver(Role):
    """Selective Repeat receiver: buffers verified out-of-order packets.

    The buffer's type tells the story: it maps sequence numbers to
    ``Verified`` packets, so nothing unverified can be buffered, let alone
    delivered — paper §3.4 guarantee 2, extended to buffered operation.
    """

    protocol = "sliding"
    specs = (SLIDING_PACKET, SLIDING_ACK)
    initiator = SelectiveRepeatSender

    def __init__(self, send: Send, *, window: int = 8, **host: Any) -> None:
        super().__init__(send, **host)
        self.window = int(window)
        self.machine = Machine(_window_receiver_spec("SrReceiver"))
        self.buffer: Dict[int, Any] = {}  # seq -> Verified[SlidingData]
        self.delivered: List[bytes] = []

    @property
    def expected(self) -> int:
        """Next in-order sequence number."""
        return self.machine.current.values[0]

    def on_frame(self, data: bytes) -> None:
        self.frames_in += 1
        verified = SLIDING_PACKET.try_parse(data)
        if verified is None:
            self.rejected += 1
            return
        seq = verified.value.seq
        if self.machine.try_exec("RECV", verified) is not None:
            self.delivered.append(verified.value.payload)
            self._ack(seq)
            self._drain_buffer()
            return
        # Not the expected packet; OUT_OF_ORDER admits any other verified
        # frame without advancing — buffering/ack policy lives here.
        if self.machine.try_exec("OUT_OF_ORDER", verified) is None:
            self.rejected += 1
            return
        if self.expected < seq < self.expected + self.window:
            self.buffer[seq] = verified
            self._ack(seq)
        elif seq < self.expected:
            self._ack(seq)  # the earlier ack was probably lost: re-ack
        else:
            self.rejected += 1  # beyond the advertised window

    def _drain_buffer(self) -> None:
        while self.expected in self.buffer:
            verified = self.buffer.pop(self.expected)
            self.machine.exec_trans("RECV", verified)
            self.delivered.append(verified.value.payload)

    def _ack(self, seq: int) -> None:
        ack = SLIDING_ACK.make(kind=KIND_SELECTIVE, seq=seq)
        self.send(SLIDING_ACK.encode(ack))


def _run_sliding(
    protocol: str,
    messages: Sequence[bytes],
    config: Optional[ChannelConfig],
    window: int,
    seed: int,
    rto: float,
    max_retries: int,
    max_events: int,
) -> SlidingTransferReport:
    sim = Simulator()
    sender_node = Node(sim, "sender")
    receiver_node = Node(sim, "receiver")
    DuplexLink(sim, sender_node, receiver_node, config or ChannelConfig(), seed=seed)
    if protocol == "gbn":
        sender_role, receiver_role = GoBackNSender, GoBackNReceiver
    else:
        sender_role, receiver_role = SelectiveRepeatSender, SelectiveRepeatReceiver
    receiver = on_node(receiver_node, "sender", receiver_role, window=window)
    sender = on_node(
        sender_node, "receiver", sender_role, messages=messages,
        window=window, rto=rto, max_retries=max_retries,
    )
    sender.start()
    sim.run_until(lambda: sender.done or sender.failed, max_events=max_events)
    sim.run(until=sim.now + 2 * rto)
    delivered = list(receiver.delivered)
    return SlidingTransferReport(
        protocol=protocol,
        window=window,
        success=sender.done and delivered == list(messages),
        messages=list(messages),
        delivered=delivered,
        data_frames_sent=sender.frames_out,
        ack_frames_sent=receiver.frames_out,
        retransmissions=sender.retransmissions,
        duration=sim.now,
        violations=_delivery_violations(messages, delivered),
    )


def run_gbn_transfer(
    messages: Sequence[bytes],
    config: Optional[ChannelConfig] = None,
    window: int = 8,
    seed: int = 0,
    rto: float = 0.5,
    max_retries: int = 50,
    max_events: int = 1_000_000,
) -> SlidingTransferReport:
    """Run a Go-Back-N transfer over a faulty duplex link.

    Exhausting ``max_events`` with work still pending raises
    :class:`~repro.netsim.simulator.BudgetExhausted`.
    """
    return _run_sliding(
        "gbn", messages, config, window, seed, rto, max_retries, max_events
    )


def run_sr_transfer(
    messages: Sequence[bytes],
    config: Optional[ChannelConfig] = None,
    window: int = 8,
    seed: int = 0,
    rto: float = 0.5,
    max_retries: int = 50,
    max_events: int = 1_000_000,
) -> SlidingTransferReport:
    """Run a Selective Repeat transfer over a faulty duplex link.

    Exhausting ``max_events`` with work still pending raises
    :class:`~repro.netsim.simulator.BudgetExhausted`.
    """
    return _run_sliding(
        "sr", messages, config, window, seed, rto, max_retries, max_events
    )
