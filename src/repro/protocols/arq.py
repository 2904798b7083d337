"""The paper's worked example: a stop-and-wait ARQ transport (§3.4).

Everything in Section 3.4 of the paper appears here, renamed only as far
as Python requires:

* the packet — ``data Packet = Pkt Byte Byte (List Byte)`` — becomes
  :data:`ARQ_PACKET`, with the checksum tied to the sequence number and
  payload by a generated constraint (the ``ChkPacket`` evidence);
* the sender states — ``Ready | Wait | Timeout | Sent``, each indexed by
  the sequence number — become a :class:`~repro.core.MachineSpec` built by
  :func:`build_sender_spec`, with the transitions ``SEND``, ``OK``,
  ``FAIL``, ``TIMEOUT`` and ``FINISH`` typed exactly as in the paper
  (``OK : SendTrans (Wait seq) (Ready (seq+1))`` demands a verified
  packet);
* the receiver — ``RECV : ... RecvTrans (ReadyFor seq) (ReadyFor (seq+1))``
  — becomes :func:`build_receiver_spec`.

Two operational additions the paper's prose anticipates are marked in the
specs: ``RETRY`` (Timeout -> Ready: "the request timed out and the machine
is ready to try again") and the receiver's ``DUP_ACK`` (re-acknowledging a
duplicate of the previous packet, required for progress when the *ack*
direction loses frames).

:class:`ArqSender` / :class:`ArqReceiver` are the two roles that drive
the machines (:mod:`repro.protocols.role`): the same classes run on the
network simulator, on the serving plane's sessions and in its socket
client.  :func:`run_transfer` hosts them on simulator nodes for a full
experiment: deliver a list of messages across a faulty link and report
what happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, List, Optional, Sequence

from repro.core.fields import Bytes, ChecksumField, UInt
from repro.core.machine import Machine
from repro.core.packet import PacketSpec
from repro.core.statemachine import MachineSpec, Param
from repro.core.symbolic import Var, this
from repro.netsim.channel import ChannelConfig
from repro.netsim.node import DuplexLink, Node
from repro.netsim.simulator import Simulator
from repro.protocols.role import Role, Send, on_node

SEQ_BITS = 8  # the paper's sequence numbers are Bytes
MAX_PAYLOAD = 255

#: The paper's data packet: sequence number, checksum over (seq, payload),
#: and the payload itself.  ``length`` frames the payload on the wire (the
#: paper's List carries its length in its type; on the wire it must be
#: carried explicitly).
ARQ_PACKET = PacketSpec(
    "ArqData",
    fields=[
        UInt("seq", bits=SEQ_BITS, doc="sequence number"),
        ChecksumField(
            "chk",
            algorithm="xor8",
            over=("seq", "length", "payload"),
            doc="checksum over sequence number and payload",
        ),
        UInt("length", bits=8, doc="payload length in bytes"),
        Bytes("payload", length=this.length, doc="payload"),
    ],
    doc="stop-and-wait ARQ data packet (paper §3.4)",
)

#: The acknowledgement: the sequence number being acknowledged, protected
#: by its own checksum so a corrupted ack cannot be mistaken for a real
#: one (the sender's FAIL transition handles that case).
ACK_PACKET = PacketSpec(
    "ArqAck",
    fields=[
        UInt("seq", bits=SEQ_BITS, doc="acknowledged sequence number"),
        ChecksumField("chk", algorithm="xor8", over=("seq",), doc="checksum"),
    ],
    doc="stop-and-wait ARQ acknowledgement",
)


def build_sender_spec(max_seq_bits: int = SEQ_BITS) -> MachineSpec:
    """The sender machine of paper §3.4, sealed (checked) and ready to run.

    States: ``Ready seq | Wait seq | Timeout seq | Sent seq``.
    Transitions (paper names):

    ========  =============================  ==========================
    name      type                            evidence required
    ========  =============================  ==========================
    SEND      Ready seq -> Wait seq           a byte payload
    OK        Wait seq  -> Ready (seq+1)      a Verified[ArqAck]
    FAIL      Wait seq  -> Ready seq          none (bad/unverifiable ack)
    TIMEOUT   Wait seq  -> Timeout seq        none
    FINISH    Ready seq -> Sent seq           none
    RETRY     Timeout seq -> Ready seq        none (operational addition)
    ========  =============================  ==========================
    """
    spec = MachineSpec("ArqSender", doc="stop-and-wait sender (paper §3.4)")
    seq = Param("seq", bits=max_seq_bits)
    ready = spec.state("Ready", params=[seq], initial=True, doc="ready to send")
    wait = spec.state("Wait", params=[seq], doc="waiting for acknowledgement")
    timeout = spec.state("Timeout", params=[seq], doc="timed out")
    spec.state("Sent", params=[seq], final=True, doc="all data sent")
    sent = spec.states["Sent"]
    n = Var("seq")
    spec.transition(
        "SEND", ready(n), wait(n), requires="bytes", event="submit",
        doc="transmit the packet for the current sequence number",
    )
    spec.transition(
        "OK", wait(n), ready(n + 1), requires=ACK_PACKET, event="good_ack",
        guard=lambda bindings, payload: payload.value.seq == bindings["seq"],
        doc="verified acknowledgement for the outstanding packet",
    )
    spec.transition(
        "FAIL", wait(n), ready(n), event="bad_ack",
        doc="an acknowledgement arrived but could not be accepted",
    )
    spec.transition(
        "TIMEOUT", wait(n), timeout(n), event="timer",
        doc="retransmission timer expired",
    )
    spec.transition(
        "FINISH", ready(n), sent(n), event="drained",
        doc="no more data to send; end in the consistent Sent state",
    )
    spec.transition(
        "RETRY", timeout(n), ready(n), event="retry",
        doc="ready to try again after a timeout (paper §3.4 prose)",
    )
    # Completeness declarations: these are the events that can genuinely
    # occur in each state; the checker demands a handler for each.
    spec.expect_events(ready, ["submit", "drained"])
    spec.expect_events(wait, ["good_ack", "bad_ack", "timer"])
    spec.expect_events(timeout, ["retry"])
    return spec.seal()


def build_receiver_spec(max_seq_bits: int = SEQ_BITS) -> MachineSpec:
    """The receiver machine of paper §3.4.

    ``RECV : ReadyFor seq -> ReadyFor (seq+1)`` demands a verified data
    packet whose sequence number equals the state's index; ``DUP_ACK``
    re-acknowledges the immediately preceding packet without advancing.
    """
    spec = MachineSpec("ArqReceiver", doc="stop-and-wait receiver (paper §3.4)")
    seq = Param("seq", bits=max_seq_bits)
    ready_for = spec.state(
        "ReadyFor", params=[seq], initial=True, doc="expecting this sequence number"
    )
    n = Var("seq")
    spec.transition(
        "RECV", ready_for(n), ready_for(n + 1), requires=ARQ_PACKET, event="data",
        guard=lambda bindings, payload: payload.value.seq == bindings["seq"],
        doc="accept the expected, verified packet and advance",
    )
    spec.transition(
        "DUP_ACK", ready_for(n), ready_for(n), requires=ARQ_PACKET, event="dup",
        guard=lambda bindings, payload: (
            payload.value.seq == (bindings["seq"] - 1) % (1 << max_seq_bits)
        ),
        doc="duplicate of the previous packet: re-acknowledge, do not deliver",
    )
    spec.expect_events(ready_for, ["data", "dup"])
    return spec.seal()


# One sealed spec per role, shared by every instance: the compiled
# machine module and codec state key off the spec *object*, so a fresh
# spec per instance would recompile per session (it was ~75% of the
# serving plane's accept cost).
_sender_spec = lru_cache(maxsize=None)(build_sender_spec)
_receiver_spec = lru_cache(maxsize=None)(build_receiver_spec)


def send_packet_op(spec: MachineSpec) -> "ProtocolOp":
    """The paper's ``sendPacket`` contract as a first-class operation.

    ::

        sendPacket : (seq : Byte) -> List Byte ->
                     SendMachine (ReadyToSend seq) -> IO (NextSent seq)

    with ``NextSent seq = NextReady (Ready (seq+1)) | Failure (Timeout
    seq)``.  Any body run under this operation must leave the machine in
    ``Ready(seq + 1)`` (the packet was sent and acknowledged) or
    ``Timeout(seq)`` (the request timed out) — every other outcome raises.
    """
    from repro.core.ops import ProtocolOp
    from repro.core.symbolic import Var

    ready = spec.states["Ready"]
    timeout = spec.states["Timeout"]
    n = Var("seq")
    return ProtocolOp(
        "send_packet",
        start=ready(n),
        endings={"next_ready": ready(n + 1), "failure": timeout(n)},
    )


class ArqSender(Role):
    """The sender role: one outstanding packet, one retransmission timer.

    The machine's *context* is the outstanding send queue — the paper's
    ``sendMachine : List (List Byte) -> (s : SendSt) -> SendMachine s``.
    Host services (``timer``, ``clock``, ``on_done``) are described in
    :mod:`repro.protocols.role`.
    """

    protocol = "arq"
    specs = (ARQ_PACKET, ACK_PACKET)

    def __init__(
        self,
        send: Send,
        *,
        messages: Sequence[bytes] = (),
        rto: float = 0.5,
        max_retries: int = 25,
        adaptive_rto: bool = False,
        max_rto: float = 60.0,
        **host: Any,
    ) -> None:
        super().__init__(send, **host)
        for index, message in enumerate(messages):
            if len(message) > MAX_PAYLOAD:
                raise ValueError(
                    f"message {index} is {len(message)} bytes; stop-and-wait "
                    f"frames carry at most {MAX_PAYLOAD}"
                )
        self.spec = _sender_spec()
        self.machine = Machine(self.spec, context=list(messages))
        self.queue: List[bytes] = list(messages)
        self.rto = rto
        self.max_retries = max_retries
        self.retries_used = 0
        self.retransmissions = 0
        self.failed = False
        # The §1.1 "tuning protocol operation" hook: Jacobson/Karn RTT
        # estimation replaces the fixed timeout when requested.
        self.estimator = None
        self._send_time = 0.0
        self._sample_valid = False  # Karn: no samples from retransmissions
        if adaptive_rto:
            from repro.adapt.timers import RttEstimator

            # max_rto caps Karn backoff; on channels with heavy *random*
            # loss (not congestion) unbounded doubling is punitive, which
            # the E7c ablation measures.
            self.estimator = RttEstimator(initial_rto=rto, max_rto=max_rto)
        self.timer = self._timer(rto, self._on_timeout, name="arq-rto")

    # -- driving ---------------------------------------------------------

    def start(self) -> None:
        """Begin the transfer (or finish immediately on an empty queue)."""
        self._advance()

    @property
    def done(self) -> bool:
        """True when the machine reached its final state."""
        return self.machine.is_finished

    @property
    def current_seq(self) -> int:
        """The sequence number indexing the current state."""
        return self.machine.current.values[0]

    @property
    def current_rto(self) -> float:
        """The timeout in force (adaptive when an estimator is attached)."""
        if self.estimator is not None:
            return self.estimator.rto
        return self.rto

    def _advance(self) -> None:
        """In Ready: send the next message or FINISH."""
        if not self.queue:
            self.machine.exec_trans("FINISH")
            self.timer.stop()
            self._on_done(True)
            return
        payload = self.queue[0]
        self.machine.exec_trans("SEND", payload)
        self._transmit(payload)
        if self.estimator is not None:
            self._send_time = self._clock()
            self._sample_valid = True  # a fresh, unretransmitted exchange
        self.retries_used = 0
        self.timer.start(self.current_rto)

    def _retransmit(self) -> None:
        """In Ready after FAIL/RETRY: resend the outstanding message."""
        payload = self.queue[0]
        self.machine.exec_trans("SEND", payload)
        self._transmit(payload)
        self._sample_valid = False  # Karn: ambiguous RTT from now on
        self.retransmissions += 1
        self.timer.start(self.current_rto)

    def _transmit(self, payload: bytes) -> None:
        packet = ARQ_PACKET.make(
            seq=self.current_seq, length=len(payload), payload=payload
        )
        self.send(ARQ_PACKET.encode(packet))

    # -- events -----------------------------------------------------------

    def on_frame(self, data: bytes) -> None:
        self.frames_in += 1
        if not self.machine.in_state("Wait"):
            return  # stale ack after we already advanced (or finished)
        verified = ACK_PACKET.try_parse(data)
        if verified is not None and verified.value.seq != self.current_seq:
            # A verified but stale acknowledgement (a duplicate of the
            # previous exchange, reordered or re-acked).  Dropping it is
            # the right move: retransmitting here feeds a duplicate storm
            # (each dup data elicits a dup ack elicits a retransmit...).
            return
        if verified is None:
            # Unverifiable (corrupted) acknowledgement: the FAIL
            # transition returns to Ready(seq) and we retransmit.
            self.machine.exec_trans("FAIL")
            self._retransmit()
            return
        self.timer.stop()
        if self.estimator is not None and self._sample_valid:
            rtt = self._clock() - self._send_time
            if rtt > 0:
                self.estimator.sample(rtt)
        self.machine.exec_trans("OK", verified)
        self.queue.pop(0)
        self._advance()

    def _on_timeout(self) -> None:
        if not self.machine.in_state("Wait"):
            return  # stale timer
        if self.estimator is not None:
            self.estimator.on_retransmit()  # exponential backoff
        self.machine.exec_trans("TIMEOUT")
        if self.retries_used >= self.max_retries:
            # Consistent failure: the machine rests in Timeout(seq), which
            # is exactly the paper's "Failure" outcome of sendPacket.
            self.failed = True
            self._on_done(False)
            return
        self.retries_used += 1
        self.machine.exec_trans("RETRY")
        self._retransmit()


class ArqReceiver(Role):
    """The receiver role: deliver in order, acknowledge, re-ack duplicates."""

    protocol = "arq"
    specs = (ARQ_PACKET, ACK_PACKET)
    initiator = ArqSender

    def __init__(self, send: Send, **host: Any) -> None:
        super().__init__(send, **host)
        self.machine = Machine(_receiver_spec())
        self.delivered: List[bytes] = []

    def on_frame(self, data: bytes) -> None:
        self.frames_in += 1
        verified = ARQ_PACKET.try_parse(data)
        if verified is None:
            self.rejected += 1  # unverifiable bytes never reach the machine
            return
        # Probe the machine: RECV consumes the expected packet, DUP_ACK a
        # duplicate of the previous one; the guards decide, not the driver.
        if self.machine.try_exec("RECV", verified) is not None:
            self.delivered.append(verified.value.payload)
            self._ack(verified.value.seq)
        elif self.machine.try_exec("DUP_ACK", verified) is not None:
            self._ack(verified.value.seq)
        else:
            self.rejected += 1  # verified but outside the window discipline

    def _ack(self, seq: int) -> None:
        self.send(ACK_PACKET.encode(ACK_PACKET.make(seq=seq)))


@dataclass
class TransferReport:
    """Outcome of one simulated ARQ transfer."""

    success: bool
    messages: List[bytes]
    delivered: List[bytes]
    retransmissions: int
    data_frames_sent: int
    ack_frames_sent: int
    rejected_frames: int
    duration: float
    violations: List[str] = field(default_factory=list)

    @property
    def goodput(self) -> float:
        """Delivered payload bytes per virtual second."""
        if self.duration <= 0:
            return 0.0
        return sum(len(m) for m in self.delivered) / self.duration


def check_transfer_invariants(
    messages: Sequence[bytes], delivered: Sequence[bytes]
) -> List[str]:
    """The protocol invariants of a reliable in-order transfer.

    Returns human-readable violation descriptions; an empty list means the
    delivery is a faithful prefix (complete transfers must deliver all).
    """
    violations: List[str] = []
    for index, payload in enumerate(delivered):
        if index >= len(messages):
            violations.append(
                f"delivered {len(delivered)} messages but only "
                f"{len(messages)} were sent (duplication)"
            )
            break
        if payload != messages[index]:
            violations.append(
                f"message {index} delivered as {payload!r}, sent "
                f"{messages[index]!r} (corruption, loss, duplication or "
                "reordering reached the application)"
            )
    return violations


def run_transfer(
    messages: Sequence[bytes],
    config: Optional[ChannelConfig] = None,
    seed: int = 0,
    rto: float = 0.5,
    max_retries: int = 25,
    time_limit: float = 10_000.0,
    adaptive_rto: bool = False,
    max_rto: float = 60.0,
    max_events: int = 1_000_000,
) -> TransferReport:
    """Run a full stop-and-wait transfer over a faulty duplex link.

    ``max_events`` is the simulation budget; a transfer that exhausts it
    while events are still pending raises
    :class:`~repro.netsim.simulator.BudgetExhausted` rather than quietly
    reporting failure — a retry-capped stop-and-wait run ends (done or
    failed) orders of magnitude below the default.
    """
    sim = Simulator()
    sender_node = Node(sim, "sender")
    receiver_node = Node(sim, "receiver")
    link = DuplexLink(
        sim, sender_node, receiver_node, config or ChannelConfig(), seed=seed
    )
    receiver = on_node(receiver_node, "sender", ArqReceiver)
    sender = on_node(
        sender_node, "receiver", ArqSender, messages=messages, rto=rto,
        max_retries=max_retries, adaptive_rto=adaptive_rto, max_rto=max_rto,
    )
    sender.start()
    sim.run_until(lambda: sender.done or sender.failed, max_events=max_events)
    sim.run(until=min(sim.now + 2 * rto, time_limit))  # drain in-flight acks
    delivered = list(receiver.delivered)
    violations = check_transfer_invariants(messages, delivered)
    success = sender.done and delivered == list(messages)
    return TransferReport(
        success=success,
        messages=list(messages),
        delivered=delivered,
        retransmissions=sender.retransmissions,
        data_frames_sent=sender.frames_out,
        ack_frames_sent=receiver.frames_out,
        rejected_frames=receiver.rejected,
        duration=sim.now,
        violations=violations,
    )
