"""The capture tool: taps, transcripts, spec-driven decoding."""

from repro.netsim import ChannelConfig, DuplexLink, Node, Simulator
from repro.netsim.capture import Capture
from repro.protocols.arq import ACK_PACKET, ARQ_PACKET, ArqReceiver, ArqSender
from repro.protocols.role import on_node


def run_captured_transfer(config=None, seed=0, messages=None):
    sim = Simulator()
    sender_node, receiver_node = Node(sim, "alice"), Node(sim, "bob")
    link = DuplexLink(
        sim, sender_node, receiver_node, config or ChannelConfig(), seed=seed
    )
    capture = Capture(specs=[ARQ_PACKET, ACK_PACKET])
    capture.tap(link.forward)
    capture.tap(link.backward)
    receiver = on_node(receiver_node, "alice", ArqReceiver)
    sender = on_node(
        sender_node, "bob", ArqSender, messages=messages or [b"one", b"two"],
        max_retries=50,
    )
    sender.start()
    sim.run_until(lambda: sender.done or sender.failed)
    return capture, sender, receiver


class TestCapture:
    def test_clean_transfer_frame_count(self):
        capture, sender, receiver = run_captured_transfer()
        # 2 data frames forward + 2 acks backward.
        assert len(capture) == 4
        directions = {frame.channel_name for frame in capture.frames}
        assert directions == {"alice->bob", "bob->alice"}

    def test_frames_decode_under_registered_specs(self):
        capture, _, _ = run_captured_transfer()
        parsed = capture.parsed_frames()
        assert len(parsed) == len(capture)
        spec_names = [v.certificate.spec_name for _, v in parsed]
        assert spec_names.count("ArqData") == 2
        assert spec_names.count("ArqAck") == 2

    def test_transcript_renders_one_line_per_frame(self):
        capture, _, _ = run_captured_transfer()
        transcript = capture.transcript()
        assert len(transcript.splitlines()) == 4
        assert "ArqData" in transcript and "ArqAck" in transcript
        assert "seq=0" in transcript

    def test_timestamps_are_monotone(self):
        capture, _, _ = run_captured_transfer(
            ChannelConfig(loss_rate=0.3), seed=5,
            messages=[bytes([i]) for i in range(6)],
        )
        times = [frame.time for frame in capture.frames]
        assert times == sorted(times)

    def test_retransmissions_visible_in_capture(self):
        capture, sender, _ = run_captured_transfer(
            ChannelConfig(loss_rate=0.4), seed=3,
            messages=[bytes([i]) for i in range(5)],
        )
        data_frames = [
            f for f in capture.frames if f.channel_name == "alice->bob"
        ]
        assert len(data_frames) == 5 + sender.retransmissions

    def test_unparseable_frames_shown_as_hex(self):
        capture = Capture(specs=[ARQ_PACKET])
        sim = Simulator()
        a, b = Node(sim, "a"), Node(sim, "b")
        link = DuplexLink(sim, a, b, ChannelConfig())
        capture.tap(link.forward)
        b.on_receive(lambda frame, sender: None)
        a.send("b", b"\xff")
        sim.run()
        transcript = capture.transcript()
        assert "UNPARSEABLE" in transcript
        assert "ff" in transcript

    def test_untap_restores_channel(self):
        sim = Simulator()
        a, b = Node(sim, "a"), Node(sim, "b")
        link = DuplexLink(sim, a, b, ChannelConfig())
        capture = Capture()
        capture.tap(link.forward)
        b.on_receive(lambda frame, sender: None)
        a.send("b", b"x")
        capture.untap_all()
        a.send("b", b"y")
        sim.run()
        assert len(capture) == 1  # only the pre-untap frame

    def test_sequence_chart_renders_arrows_both_ways(self):
        capture, _, _ = run_captured_transfer()
        chart = capture.sequence_chart()
        lines = chart.splitlines()
        assert "alice" in lines[0] and "bob" in lines[0]
        rightward = [l for l in lines[1:] if l.rstrip().endswith(">|")]
        leftward = [l for l in lines[1:] if "|<" in l]
        assert len(rightward) == 2  # two data frames
        assert len(leftward) == 2  # two acks

    def test_sequence_chart_falls_back_without_parties(self):
        capture = Capture()
        assert capture.sequence_chart() == capture.transcript()

    def test_capture_is_passive(self):
        """Tapping must not change what the receiver sees."""
        plain = run_captured_transfer(
            ChannelConfig(loss_rate=0.25), seed=9,
            messages=[bytes([i]) for i in range(8)],
        )[2].delivered
        # Without taps:
        sim = Simulator()
        s, r = Node(sim, "alice"), Node(sim, "bob")
        DuplexLink(sim, s, r, ChannelConfig(loss_rate=0.25), seed=9)
        receiver = on_node(r, "alice", ArqReceiver)
        sender = on_node(
            s, "bob", ArqSender, messages=[bytes([i]) for i in range(8)],
            max_retries=50,
        )
        sender.start()
        sim.run_until(lambda: sender.done or sender.failed)
        assert receiver.delivered == plain
