#!/usr/bin/env python3
"""The paper's §3.4 stop-and-wait ARQ, end to end over a hostile network.

Sweeps the fault level of a simulated duplex link and shows the property
the paper calls correctness-by-construction: however bad the network,
what arrives is *exactly* a prefix of what was sent — never corrupted,
duplicated or reordered data — because unverified packets cannot reach
protocol logic and invalid transitions cannot execute.

Run:  python examples/arq_over_lossy_net.py
"""

from repro.analysis import trace_summary
from repro.netsim import Capture, ChannelConfig, DuplexLink, Node, Simulator
from repro.protocols.arq import (
    ACK_PACKET,
    ARQ_PACKET,
    ArqReceiver,
    ArqSender,
    run_transfer,
)
from repro.protocols.role import on_node

MESSAGES = [f"message-{i:02d}".encode() for i in range(12)]

print("fault sweep over the same 12-message transfer")
print(f"{'loss':>6} {'corrupt':>8} {'dup':>5} | {'ok':>3} {'retx':>5} "
      f"{'frames':>7} {'violations':>10} {'virt time':>9}")
print("-" * 66)
for loss, corrupt, dup in [
    (0.0, 0.0, 0.0),
    (0.1, 0.0, 0.0),
    (0.2, 0.1, 0.0),
    (0.3, 0.15, 0.1),
    (0.45, 0.2, 0.15),
]:
    config = ChannelConfig(
        loss_rate=loss, corruption_rate=corrupt, duplication_rate=dup
    )
    report = run_transfer(MESSAGES, config, seed=7, max_retries=100)
    print(
        f"{loss:>6.2f} {corrupt:>8.2f} {dup:>5.2f} | "
        f"{'yes' if report.success else 'NO':>3} {report.retransmissions:>5} "
        f"{report.data_frames_sent:>7} {len(report.violations):>10} "
        f"{report.duration:>8.1f}s"
    )

print()
print("a close look at one lossy run: the sender machine's audited trace")
print("-" * 66)
sim = Simulator()
sender_node, receiver_node = Node(sim, "alice"), Node(sim, "bob")
link = DuplexLink(
    sim, sender_node, receiver_node,
    ChannelConfig(loss_rate=0.35), seed=11,
)
capture = Capture(specs=[ARQ_PACKET, ACK_PACKET])
capture.tap(link.forward)
capture.tap(link.backward)
# The same role classes the serving plane runs on real sockets, hosted
# on simulator nodes: sends go through the node, timers are simulator
# timers.
receiver = on_node(receiver_node, "alice", ArqReceiver)
sender = on_node(sender_node, "bob", ArqSender, messages=[b"alpha", b"beta"], rto=0.4)
steps = sender.machine.record_steps()
sender.start()
sim.run_until(lambda: sender.done or sender.failed, max_events=200_000)

print(trace_summary(steps))
print()
print(f"sender finished: {sender.done}   receiver got: {receiver.delivered}")
print("every step above was dispatched by unification against the typed")
print("transition table of paper §3.4 — SEND/OK/FAIL/TIMEOUT/RETRY/FINISH.")
print()
print("the same run, as the spec-decoding capture tap saw it on the wire:")
print("-" * 66)
print(capture.transcript())
