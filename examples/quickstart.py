#!/usr/bin/env python3
"""Quickstart: define a protocol — packets, behaviour, verification — in
one file, then watch the framework enforce it.

This walks the arc of the paper (Bhatti et al., ICDCS 2009) in miniature:

1. describe the packet format, with its semantic constraint (a checksum);
2. describe the state machine, with dependent states and typed transitions;
3. let the definition-time checker vet the machine;
4. run it — and see that unverified data simply cannot get in.

Run:  python examples/quickstart.py
"""

from repro.core import (
    Bytes,
    ChecksumField,
    InvalidTransitionError,
    Machine,
    MachineSpec,
    PacketSpec,
    Param,
    UInt,
    UnverifiedPayloadError,
    Var,
    render_header_diagram,
    this,
)

# ---------------------------------------------------------------------------
# 1. The packet format: sequence number, checksum, dependent-length payload.
# ---------------------------------------------------------------------------

PING = PacketSpec(
    "Ping",
    fields=[
        UInt("seq", bits=8, doc="sequence number"),
        ChecksumField("chk", algorithm="xor8", over=("seq", "length", "payload")),
        UInt("length", bits=8, doc="payload length"),
        Bytes("payload", length=this.length, doc="payload"),
    ],
    doc="a tiny ping message",
)

print("The wire format, generated from the spec (cf. the paper's Figure 1):")
print(render_header_diagram(PING, row_bits=8))
print()

# Build, encode, decode, verify.
packet = PING.make(seq=1, length=5, payload=b"hello")
wire = PING.encode(packet)
print(f"encoded: {wire.hex()}  (checksum {packet.chk:#04x} computed for us)")

verified = PING.parse(wire)  # decode + verify: the only road to Verified
print(f"parsed and verified: {verified}")

corrupted = bytearray(wire)
corrupted[4] ^= 0xFF
print(f"corrupted frame parses to: {PING.try_parse(bytes(corrupted))}")
print()

# ---------------------------------------------------------------------------
# 2. The behaviour: a dependent state machine (the paper's sender, §3.4).
# ---------------------------------------------------------------------------

sender = MachineSpec("QuickSender")
seq = Param("seq", bits=8)  # a Byte index, exactly as in the paper
ready = sender.state("Ready", params=[seq], initial=True)
wait = sender.state("Wait", params=[seq])
sent = sender.state("Sent", params=[seq], final=True)
n = Var("seq")

sender.transition("SEND", ready(n), wait(n), requires="bytes")
# OK : Wait seq -> Ready (seq+1), and it *requires* a verified Ping.
sender.transition(
    "OK", wait(n), ready(n + 1), requires=PING,
    guard=lambda bindings, payload: payload.value.seq == bindings["seq"],
)
sender.transition("FAIL", wait(n), ready(n))
sender.transition("FINISH", ready(n), sent(n))

# 3. Definition-time checking: unsound/incomplete machines never seal.
sender.seal()
print(f"machine sealed after checking: {sender}")

# ---------------------------------------------------------------------------
# 4. Execution: only valid transitions, only verified evidence.
# ---------------------------------------------------------------------------

machine = Machine(sender)
steps = machine.record_steps()  # a machine keeps no history unless recorded
machine.exec_trans("SEND", b"hello")
print(f"after SEND: {machine.current}")

raw = PING.decode(wire)  # decoded but NOT verified
try:
    machine.exec_trans("OK", raw)
except UnverifiedPayloadError as exc:
    print(f"raw packet rejected, as the types demand:\n  {exc}")

ack = PING.parse(PING.encode(PING.make(seq=0, length=0, payload=b"")))
machine.exec_trans("OK", ack)
print(f"after verified OK: {machine.current}  (sequence advanced: seq+1)")

try:
    machine.exec_trans("OK", ack)  # we are in Ready now: OK is invalid
except InvalidTransitionError as exc:
    print(f"invalid transition rejected:\n  {exc}")

machine.exec_trans("FINISH")
print(f"finished consistently: {machine.current}, {len(steps)} steps recorded")
