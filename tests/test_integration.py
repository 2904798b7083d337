"""Cross-module integration: the pieces compose as one system."""

import pytest

from repro.analysis import validate_trace
from repro.core.compile import compile_spec
from repro.modelcheck import check_invariant, explore
from repro.netsim import ChannelConfig, DuplexLink, Node, Simulator
from repro.protocols.arq import (
    ACK_PACKET,
    ARQ_PACKET,
    ArqReceiver,
    ArqSender,
    build_sender_spec,
    run_transfer,
)
from repro.protocols.role import on_node
from repro.baseline.sockets_arq import run_baseline_transfer


class TestDslAndBaselineInteroperate:
    """Same wire format: a DSL sender talks to the hand-coded receiver."""

    def test_dsl_sender_to_baseline_receiver(self):
        from repro.baseline.sockets_arq import SocketsStyleReceiver

        sim = Simulator()
        sender_node, receiver_node = Node(sim, "s"), Node(sim, "r")
        DuplexLink(sim, sender_node, receiver_node, ChannelConfig(), seed=0)
        receiver = SocketsStyleReceiver(sim, receiver_node, "s")
        messages = [b"alpha", b"beta", b"gamma"]
        sender = on_node(sender_node, "r", ArqSender, messages=messages)
        sender.start()
        sim.run_until(lambda: sender.done or sender.failed)
        assert sender.done
        assert receiver.delivered == messages

    def test_baseline_sender_to_dsl_receiver(self):
        from repro.baseline.sockets_arq import SocketsStyleSender

        sim = Simulator()
        sender_node, receiver_node = Node(sim, "s"), Node(sim, "r")
        DuplexLink(sim, sender_node, receiver_node, ChannelConfig(), seed=0)
        receiver = on_node(receiver_node, "s", ArqReceiver)
        messages = [b"alpha", b"beta", b"gamma"]
        sender = SocketsStyleSender(sim, sender_node, "r", messages)
        sender.start()
        sim.run_until(lambda: sender.done or sender.failed)
        assert sender.done
        assert receiver.delivered == messages


class TestGeneratedCodecInLiveTransfer:
    """The staged codec parses real traffic produced by the interpreter."""

    def test_generated_parse_agrees_on_live_frames(self):
        compiled = compile_spec(ARQ_PACKET)
        frames = []
        sim = Simulator()
        sender_node, receiver_node = Node(sim, "s"), Node(sim, "r")
        link = DuplexLink(sim, sender_node, receiver_node, ChannelConfig(), seed=0)
        original_send = link.forward.send

        def tap(frame):
            frames.append(frame)
            original_send(frame)

        link.forward.send = tap
        receiver = on_node(receiver_node, "s", ArqReceiver)
        sender = on_node(sender_node, "r", ArqSender, messages=[b"one", b"two"])
        sender.start()
        sim.run_until(lambda: sender.done)
        assert frames
        for frame in frames:
            assert compiled.parse(frame) == ARQ_PACKET.decode(frame).values
            assert compiled.validate(compiled.parse(frame)) == []


class TestTraceAuditOfRealRun:
    def test_live_sender_trace_validates_and_replays(self):
        sim = Simulator()
        sender_node, receiver_node = Node(sim, "s"), Node(sim, "r")
        DuplexLink(
            sim, sender_node, receiver_node,
            ChannelConfig(loss_rate=0.2), seed=3,
        )
        on_node(receiver_node, "s", ArqReceiver)
        sender = on_node(sender_node, "r", ArqSender, messages=[b"a", b"b", b"c"])
        sender.start()
        sim.run_until(lambda: sender.done or sender.failed)
        assert sender.done
        spec = sender.spec
        initial = spec.states["Ready"].instance(0)
        validate_trace(spec, initial, sender.machine.trace)
        # A lossy run includes recovery transitions.
        executed = {step.transition for step in sender.machine.trace}
        assert "SEND" in executed and "FINISH" in executed


class TestModelCheckerAgreesWithRuntime:
    def test_reachable_states_cover_observed_states(self):
        """Every state a live run visits is in the model's reachable set."""
        result = explore(build_sender_spec(max_seq_bits=8))
        reachable = set(
            (s.name, s.values) for s in result.reachable_states()
        )
        sim = Simulator()
        sender_node, receiver_node = Node(sim, "s"), Node(sim, "r")
        DuplexLink(
            sim, sender_node, receiver_node,
            ChannelConfig(loss_rate=0.3), seed=5,
        )
        on_node(receiver_node, "s", ArqReceiver)
        sender = on_node(sender_node, "r", ArqSender, messages=[b"x"] * 5)
        observed = set()
        sender.machine.add_observer(
            lambda m, step, payload: observed.add(
                (step.target.name, step.target.values)
            )
        )
        sender.start()
        sim.run_until(lambda: sender.done or sender.failed)
        assert observed <= reachable

    def test_model_invariant_matches_run_invariant(self):
        result = explore(build_sender_spec(max_seq_bits=4))
        assert check_invariant(result, lambda s: 0 <= s.values[0] < 16) == []


class TestSystemComparison:
    def test_dsl_and_clean_baseline_agree_under_faults(self):
        messages = [f"m{i}".encode() for i in range(15)]
        config = ChannelConfig(loss_rate=0.2, corruption_rate=0.1)
        dsl = run_transfer(messages, config, seed=8)
        base = run_baseline_transfer(messages, config, seed=8)
        assert dsl.success and base.success
        assert dsl.delivered == base.delivered == messages

    def test_verified_ack_cannot_cross_protocols(self):
        """Evidence is spec-scoped: an ARQ data packet's certificate does
        not satisfy a transition demanding an ACK."""
        from repro.core.machine import Machine, UnverifiedPayloadError

        machine = Machine(build_sender_spec())
        machine.exec_trans("SEND", b"x")
        data_packet = ARQ_PACKET.verify(
            ARQ_PACKET.make(seq=0, length=1, payload=b"x")
        )
        with pytest.raises(UnverifiedPayloadError):
            machine.exec_trans("OK", data_packet)
