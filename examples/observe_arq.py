#!/usr/bin/env python3
"""Observability end to end: the ARQ pair over a lossy link, instrumented.

One ``repro.obs`` instrumentation context watches all four runtime layers
at once — the machine runtime (one ``exec_trans`` span per transition,
around the same generated code that runs with obs off), the codec
(encode/decode latency histograms), the simulator (event and timer
accounting), and the channels
(per-fate frame counters) — and the capture tap shares the same trace
timeline, so a frame on the wire correlates with the ``exec_trans`` span
that consumed it.

Run:  python examples/observe_arq.py
"""

from repro import obs
from repro.netsim import Capture, ChannelConfig, DuplexLink, Node, Simulator
from repro.protocols.arq import ACK_PACKET, ARQ_PACKET, ArqReceiver, ArqSender
from repro.protocols.role import on_node

# Switch the process-wide instrumentation on *before* building anything:
# every Machine, Simulator, Channel and Timer constructed afterwards
# reports into this context, with no other wiring.
instr = obs.enable()

sim = Simulator()  # attaches its virtual clock to the tracer
alice, bob = Node(sim, "alice"), Node(sim, "bob")
link = DuplexLink(
    sim, alice, bob,
    ChannelConfig(loss_rate=0.25, corruption_rate=0.1), seed=11,
)
capture = Capture(specs=[ARQ_PACKET, ACK_PACKET], tracer=instr.tracer)
capture.tap(link.forward)
capture.tap(link.backward)

# Host the ARQ roles on the two nodes (the serving plane hosts the same
# classes on sockets).
receiver = on_node(bob, "alice", ArqReceiver)
sender = on_node(
    alice, "bob", ArqSender,
    messages=[f"msg-{i}".encode() for i in range(6)],
    rto=0.4,
)
sender.start()
sim.run_until(lambda: sender.done or sender.failed, max_events=200_000)

print(f"transfer done={sender.done}  delivered={len(receiver.delivered)} "
      f"messages  retransmissions={sender.retransmissions}  "
      f"virtual time={sim.now:.2f}s")
print()

# The whole run, as one dashboard: counters for transitions, frames,
# timers and events; latency histograms for the codec and the machine
# runtime; and a trace excerpt with nested spans in virtual + wall time.
print(obs.render_dashboard(instr, title="ARQ over a lossy link"))
print()

# The two timelines join: each wire frame maps to the transition span
# that consumed its (verified) packet.
print("-- frame -> consuming transition (capture/machine correlation) " + "-" * 8)
for frame, span in capture.correlate():
    print(
        f"  frame#{frame.index:<2} {frame.channel_name:<13} sent@{frame.time:7.3f}v"
        f"  ->  {span.attrs['machine']}.{span.attrs['transition']:<8}"
        f" @{span.virt_start:7.3f}v  [digest {frame.digest}]"
    )
print()
print("structured export: instr.tracer.to_jsonl() / obs.export_json(instr)")
print(f"({len(instr.tracer.records())} trace records, "
      f"{len(instr.registry)} metrics in this run)")
