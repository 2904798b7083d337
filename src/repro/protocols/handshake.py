"""A three-way connection handshake in the DSL.

A compact demonstration that *control-plane* behaviour (the paper's §1.2
scope explicitly includes protocols with a control-plane element) fits the
same framework as data transfer: two machines — initiator and responder —
negotiate a connection with SYN / SYN-ACK / ACK messages carrying random
nonces, and the types guarantee that:

* no side processes an unverified handshake message;
* the initiator can only complete against the nonce it offered (the state
  is *indexed by the nonce*, so a stale or forged SYN-ACK cannot move the
  machine — the guard compares against the dependent state parameter);
* both machines end in a consistent state: ``Established`` or ``Failed``.

:class:`HandshakeInitiator` and :class:`HandshakeResponder` are roles
(:mod:`repro.protocols.role`), the same classes the serving plane runs on
sockets; :func:`run_handshake` hosts them on simulator nodes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Optional

from repro.core.fields import ChecksumField, UInt
from repro.core.machine import Machine
from repro.core.packet import PacketSpec
from repro.core.statemachine import MachineSpec, Param
from repro.core.symbolic import Var
from repro.netsim.channel import ChannelConfig
from repro.netsim.node import DuplexLink, Node
from repro.netsim.simulator import Simulator
from repro.netsim.timers import Timer
from repro.protocols.role import Role, Send, on_node

MSG_SYN = 1
MSG_SYN_ACK = 2
MSG_ACK = 3

#: Handshake message: a message type, the initiator's nonce and the
#: responder's nonce (zero until assigned), integrity-protected.
HANDSHAKE_PACKET = PacketSpec(
    "Handshake",
    fields=[
        UInt(
            "msg_type",
            bits=8,
            enum={MSG_SYN: "syn", MSG_SYN_ACK: "syn-ack", MSG_ACK: "ack"},
            doc="message type",
        ),
        UInt("initiator_nonce", bits=16, doc="initiator's nonce"),
        UInt("responder_nonce", bits=16, doc="responder's nonce"),
        ChecksumField(
            "chk",
            algorithm="crc16-ccitt",
            over=("msg_type", "initiator_nonce", "responder_nonce"),
        ),
    ],
    doc="three-way handshake message",
)


def build_initiator_spec() -> MachineSpec:
    """Initiator machine: Closed -> SynSent(nonce) -> Established / Failed."""
    spec = MachineSpec("HandshakeInitiator")
    closed = spec.state("Closed", initial=True)
    nonce = Param("nonce", bits=16)
    syn_sent = spec.state("SynSent", params=[nonce], doc="SYN sent, awaiting SYN-ACK")
    established = spec.state("Established", params=[nonce], final=True)
    failed = spec.state("Failed", final=True)
    n = Var("nonce")
    spec.transition(
        "CONNECT", closed(), syn_sent(n), inputs=("nonce",), event="connect",
        doc="send SYN carrying a fresh nonce; the state is indexed by it",
    )
    spec.transition(
        "SYNACK", syn_sent(n), established(n), requires=HANDSHAKE_PACKET,
        event="synack",
        guard=lambda bindings, payload: (
            payload.value.msg_type == MSG_SYN_ACK
            and payload.value.initiator_nonce == bindings["nonce"]
        ),
        doc="verified SYN-ACK echoing our nonce: established",
    )
    spec.transition(
        "GIVE_UP", syn_sent(n), failed(), event="timer",
        doc="handshake timer expired: consistent failure",
    )
    spec.expect_events(syn_sent, ["synack", "timer"])
    return spec.seal()


def build_responder_spec() -> MachineSpec:
    """Responder machine: Listen -> SynReceived(nonce) -> Established / Listen."""
    spec = MachineSpec("HandshakeResponder")
    listen = spec.state("Listen", initial=True)
    nonce = Param("nonce", bits=16)
    syn_received = spec.state("SynReceived", params=[nonce])
    established = spec.state("Established", params=[nonce], final=True)
    n = Var("nonce")
    spec.transition(
        "SYN", listen(), syn_received(n), requires=HANDSHAKE_PACKET,
        inputs=("nonce",), event="syn",
        guard=lambda bindings, payload: (
            payload.value.msg_type == MSG_SYN
            and payload.value.responder_nonce == 0  # not yet assigned
            and bindings["nonce"] != 0
        ),
        doc="verified SYN: adopt a fresh nonce and reply with SYN-ACK",
    )
    spec.transition(
        "ACK", syn_received(n), established(n), requires=HANDSHAKE_PACKET,
        event="ack",
        guard=lambda bindings, payload: (
            payload.value.msg_type == MSG_ACK
            and payload.value.responder_nonce == bindings["nonce"]
        ),
        doc="verified final ACK echoing our nonce: established",
    )
    spec.transition(
        "RESET", syn_received(n), listen(), event="timer",
        doc="handshake timer expired: return to listening",
    )
    spec.expect_events(syn_received, ["ack", "timer"])
    return spec.seal()


# One sealed spec per role, shared by every instance (see the note in
# :mod:`repro.protocols.arq`).
_initiator_spec = lru_cache(maxsize=None)(build_initiator_spec)
_responder_spec = lru_cache(maxsize=None)(build_responder_spec)


class HandshakeInitiator(Role):
    """The initiator role: SYN, retransmit the same SYN, ACK the SYN-ACK.

    ``max_retries`` SYN retransmissions are a driver policy (the machine
    stays in SynSent); the timer expiry after the last one is the
    machine's GIVE_UP.  ``max_retries=0`` gives up on the first expiry.
    """

    protocol = "handshake"
    specs = (HANDSHAKE_PACKET,)

    def __init__(
        self,
        send: Send,
        *,
        rng: Optional[random.Random] = None,
        rto: float = 0.25,
        max_retries: int = 8,
        **host: Any,
    ) -> None:
        super().__init__(send, **host)
        self.machine = Machine(_initiator_spec())
        self.rng = rng if rng is not None else random.Random(self.seed)
        self.rto = rto
        self.max_retries = max_retries
        self.retries_used = 0
        self.retransmissions = 0
        self._syn_frame = b""
        self.timer = self._timer(rto, self._on_timeout, name="hs-initiator")

    @property
    def established(self) -> bool:
        """True when the handshake completed."""
        return self.machine.in_state("Established")

    @property
    def failed(self) -> bool:
        """True when the handshake gave up."""
        return self.machine.in_state("Failed")

    def start(self) -> None:
        """Kick off the handshake with a fresh nonce."""
        nonce = self.rng.randrange(1, 1 << 16)
        self.machine.exec_trans("CONNECT", nonce=nonce)
        packet = HANDSHAKE_PACKET.make(
            msg_type=MSG_SYN, initiator_nonce=nonce, responder_nonce=0
        )
        self._syn_frame = HANDSHAKE_PACKET.encode(packet)
        self.send(self._syn_frame)
        self.timer.start(self.rto)

    def on_frame(self, data: bytes) -> None:
        self.frames_in += 1
        if not self.machine.in_state("SynSent"):
            return
        verified = HANDSHAKE_PACKET.try_parse(data)
        if verified is None or verified.value.msg_type != MSG_SYN_ACK:
            return
        if verified.value.initiator_nonce != self.machine.current.values[0]:
            return  # stale or forged SYN-ACK: the guard would reject it too
        self.machine.exec_trans("SYNACK", verified)
        self.timer.stop()
        reply = HANDSHAKE_PACKET.make(
            msg_type=MSG_ACK,
            initiator_nonce=verified.value.initiator_nonce,
            responder_nonce=verified.value.responder_nonce,
        )
        self.send(HANDSHAKE_PACKET.encode(reply))
        self._on_done(True)

    def _on_timeout(self) -> None:
        if not self.machine.in_state("SynSent"):
            return
        if self.retries_used >= self.max_retries:
            # The machine's GIVE_UP: a consistent, inspectable failure.
            self.machine.exec_trans("GIVE_UP")
            self._on_done(False)
            return
        # Resend the *same* SYN so the nonce doesn't fork.
        self.retries_used += 1
        self.retransmissions += 1
        self.send(self._syn_frame)
        self.timer.start(self.rto)


class HandshakeResponder(Role):
    """The responder role; its nonces flow from the host's seed or RNG.

    It owns no timer: the host calls :meth:`on_timer` when a half-open
    exchange should return to Listen, so the role stays a deterministic
    function of (inbound frames, seed) — what the replay oracle needs.
    """

    protocol = "handshake"
    specs = (HANDSHAKE_PACKET,)
    initiator = HandshakeInitiator

    def __init__(
        self, send: Send, *, rng: Optional[random.Random] = None, **host: Any
    ) -> None:
        super().__init__(send, **host)
        self.machine = Machine(_responder_spec())
        self.rng = rng if rng is not None else random.Random(self.seed)
        self._synack_frame = b""
        self._synack_for = -1  # initiator nonce the cached SYN-ACK answers

    @property
    def established(self) -> bool:
        """True when the handshake completed."""
        return self.machine.in_state("Established")

    def on_frame(self, data: bytes) -> None:
        self.frames_in += 1
        verified = HANDSHAKE_PACKET.try_parse(data)
        if verified is None:
            self.rejected += 1
            return
        message = verified.value
        if message.msg_type == MSG_SYN:
            nonce = self.rng.randrange(1, 1 << 16)
            if self.machine.try_exec("SYN", verified, nonce=nonce) is None:
                # The machine refuses a SYN outside Listen.  A *retransmit*
                # of the SYN we already answered means our SYN-ACK was
                # probably lost: resend the cached frame (driver policy —
                # the machine's nonce state must not fork).  Any other SYN
                # is noise.
                if (
                    self.machine.in_state("SynReceived")
                    and message.initiator_nonce == self._synack_for
                ):
                    self.send(self._synack_frame)
                else:
                    self.rejected += 1
                return
            reply = HANDSHAKE_PACKET.make(
                msg_type=MSG_SYN_ACK,
                initiator_nonce=message.initiator_nonce,
                responder_nonce=nonce,
            )
            self._synack_frame = HANDSHAKE_PACKET.encode(reply)
            self._synack_for = message.initiator_nonce
            self.send(self._synack_frame)
        elif message.msg_type == MSG_ACK:
            if self.machine.try_exec("ACK", verified) is None:
                self.rejected += 1
        else:
            self.rejected += 1  # a SYN-ACK aimed at a responder is noise

    def on_timer(self) -> None:
        # Half-open handshake expired: return to Listen (the machine's
        # RESET transition), so the session can serve a fresh attempt.
        self.machine.try_exec("RESET")


@dataclass
class HandshakeReport:
    """Outcome of a simulated handshake."""

    established: bool
    initiator_state: str
    responder_state: str
    frames_sent: int
    duration: float


def run_handshake(
    config: Optional[ChannelConfig] = None,
    seed: int = 0,
    timeout: float = 2.0,
) -> HandshakeReport:
    """Run one three-way handshake over a (possibly faulty) link.

    Both roles draw from one ``random.Random(seed)``.  The initiator
    gives up on its first timer expiry; the responder's half-open RESET
    is a simulator timer armed while its machine waits in SynReceived.
    """
    sim = Simulator()
    a = Node(sim, "initiator")
    b = Node(sim, "responder")
    DuplexLink(sim, a, b, config or ChannelConfig(), seed=seed)
    rng = random.Random(seed)
    initiator = on_node(
        a, "responder", HandshakeInitiator, rng=rng, rto=timeout, max_retries=0
    )
    responder = HandshakeResponder(partial(b.send, "initiator"), rng=rng)
    reset = Timer(sim, 2 * timeout, responder.on_timer, name="hs-responder")

    def deliver(frame: bytes, sender: str) -> None:
        responder.on_frame(frame)
        if not responder.machine.in_state("SynReceived"):
            reset.stop()
        elif not reset.running:
            reset.start()

    b.on_receive(deliver)
    initiator.start()
    sim.run()
    return HandshakeReport(
        established=initiator.established and responder.established,
        initiator_state=initiator.machine.current.name,
        responder_state=responder.machine.current.name,
        frames_sent=initiator.frames_out + responder.frames_out,
        duration=sim.now,
    )
