"""Protocols written in the DSL.

* :mod:`repro.protocols.headers` — classic wire formats: the RFC 791 IPv4
  header (the paper's Figure 1), UDP, the TCP header, ICMP echo.
* :mod:`repro.protocols.arq` — the paper's §3.4 stop-and-wait ARQ, both
  machines and their sender/receiver roles.
* :mod:`repro.protocols.sliding` — Go-Back-N and Selective Repeat, the
  "build new protocols quickly" extensions of §5.1.
* :mod:`repro.protocols.handshake` — a three-way connection handshake.
* :mod:`repro.protocols.role` — the host surface every role is written
  against; one role class runs on the simulator (:func:`on_node`), the
  serve session manager and the serve socket clients.
"""

from repro.protocols.headers import (
    ICMP_ECHO,
    IPV4_HEADER,
    TCP_HEADER,
    UDP_HEADER,
    ipv4_address,
    ipv4_address_string,
)
from repro.protocols.arq import (
    ACK_PACKET,
    ARQ_PACKET,
    ArqReceiver,
    ArqSender,
    TransferReport,
    build_receiver_spec,
    build_sender_spec,
    run_transfer,
)
from repro.protocols.sliding import (
    GoBackNReceiver,
    GoBackNSender,
    SlidingTransferReport,
    SelectiveRepeatReceiver,
    SelectiveRepeatSender,
    run_gbn_transfer,
    run_sr_transfer,
)
from repro.protocols.handshake import (
    HANDSHAKE_PACKET,
    HandshakeInitiator,
    HandshakeResponder,
    run_handshake,
)
from repro.protocols.role import Role, on_node

__all__ = [
    "IPV4_HEADER",
    "UDP_HEADER",
    "TCP_HEADER",
    "ICMP_ECHO",
    "ipv4_address",
    "ipv4_address_string",
    "ARQ_PACKET",
    "ACK_PACKET",
    "build_sender_spec",
    "build_receiver_spec",
    "ArqSender",
    "ArqReceiver",
    "run_transfer",
    "TransferReport",
    "GoBackNSender",
    "GoBackNReceiver",
    "SelectiveRepeatSender",
    "SelectiveRepeatReceiver",
    "run_gbn_transfer",
    "run_sr_transfer",
    "SlidingTransferReport",
    "HANDSHAKE_PACKET",
    "HandshakeInitiator",
    "HandshakeResponder",
    "run_handshake",
    "Role",
    "on_node",
]
