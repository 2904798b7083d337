"""The paper's §3.4 ARQ: machine guarantees and end-to-end transfers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.machine import InvalidTransitionError, Machine, UnverifiedPayloadError
from repro.netsim.channel import ChannelConfig
from repro.protocols.arq import (
    ACK_PACKET,
    ARQ_PACKET,
    build_receiver_spec,
    build_sender_spec,
    check_transfer_invariants,
    run_transfer,
)


def verified_ack(seq):
    return ACK_PACKET.verify(ACK_PACKET.make(seq=seq))


def verified_data(seq, payload=b"x"):
    return ARQ_PACKET.verify(
        ARQ_PACKET.make(seq=seq, length=len(payload), payload=payload)
    )


class TestPaperGuarantees:
    """The four §3.4 guarantees, each as an executable check."""

    def test_guarantee_1_packet_format_is_described(self):
        assert ARQ_PACKET.field_names == ("seq", "chk", "length", "payload")
        assert "chk_valid" in ARQ_PACKET.constraint_names

    def test_guarantee_2_no_processing_of_unverified_packets(self):
        machine = Machine(build_receiver_spec())
        raw = ARQ_PACKET.make(seq=0, length=1, payload=b"x")
        with pytest.raises(UnverifiedPayloadError):
            machine.exec_trans("RECV", raw)

    def test_guarantee_3_timeout_cannot_fire_after_ack(self):
        """'timeout cannot occur if an acknowledgement has been received
        and acted on' — after OK the machine is in Ready, where TIMEOUT
        does not exist."""
        machine = Machine(build_sender_spec())
        machine.exec_trans("SEND", b"data")
        machine.exec_trans("OK", verified_ack(0))
        with pytest.raises(InvalidTransitionError):
            machine.exec_trans("TIMEOUT")

    def test_guarantee_4_sending_ends_consistently(self):
        """Every run of the sender ends in Ready, Timeout or Sent — never
        stuck waiting."""
        from repro.modelcheck import explore

        spec = build_sender_spec(max_seq_bits=3)
        result = explore(spec, input_domains={})
        assert result.deadlock_free
        assert result.all_can_reach_final() == []


class TestSenderMachine:
    def test_ok_advances_sequence(self):
        machine = Machine(build_sender_spec())
        machine.exec_trans("SEND", b"one")
        machine.exec_trans("OK", verified_ack(0))
        assert machine.current.values == (1,)

    def test_ok_guard_rejects_wrong_seq_ack(self):
        machine = Machine(build_sender_spec())
        machine.exec_trans("SEND", b"one")
        with pytest.raises(InvalidTransitionError, match="guard"):
            machine.exec_trans("OK", verified_ack(5))

    def test_fail_returns_to_same_sequence(self):
        machine = Machine(build_sender_spec())
        machine.exec_trans("SEND", b"one")
        machine.exec_trans("FAIL")
        assert machine.current.name == "Ready"
        assert machine.current.values == (0,)

    def test_timeout_then_retry(self):
        machine = Machine(build_sender_spec())
        machine.exec_trans("SEND", b"one")
        machine.exec_trans("TIMEOUT")
        assert machine.in_state("Timeout")
        machine.exec_trans("RETRY")
        assert machine.in_state("Ready")

    def test_finish_is_terminal(self):
        machine = Machine(build_sender_spec())
        machine.exec_trans("FINISH")
        assert machine.is_finished


class TestReceiverMachine:
    def test_recv_advances_on_expected(self):
        machine = Machine(build_receiver_spec())
        machine.exec_trans("RECV", verified_data(0))
        assert machine.current.values == (1,)

    def test_recv_guard_rejects_wrong_seq(self):
        machine = Machine(build_receiver_spec())
        with pytest.raises(InvalidTransitionError, match="guard"):
            machine.exec_trans("RECV", verified_data(3))

    def test_dup_ack_stays_put(self):
        machine = Machine(build_receiver_spec())
        machine.exec_trans("RECV", verified_data(0))
        machine.exec_trans("DUP_ACK", verified_data(0))
        assert machine.current.values == (1,)

    def test_sequence_wraps_at_255(self):
        spec = build_receiver_spec()
        machine = Machine(spec, initial=spec.states["ReadyFor"].instance(255))
        machine.exec_trans("RECV", verified_data(255))
        assert machine.current.values == (0,)


class TestTransfers:
    MESSAGES = [f"message-{i:04d}".encode() for i in range(25)]

    def test_clean_channel(self):
        report = run_transfer(self.MESSAGES)
        assert report.success
        assert report.retransmissions == 0
        assert report.violations == []

    def test_lossy_channel_still_delivers(self):
        report = run_transfer(
            self.MESSAGES, ChannelConfig(loss_rate=0.3), seed=1
        )
        assert report.success
        assert report.retransmissions > 0
        assert report.violations == []

    def test_corrupting_channel_still_delivers(self):
        report = run_transfer(
            self.MESSAGES, ChannelConfig(corruption_rate=0.25), seed=2
        )
        assert report.success
        assert report.violations == []

    def test_duplicating_reordering_channel(self):
        config = ChannelConfig(
            duplication_rate=0.2, reorder_rate=0.3, jitter=0.02
        )
        report = run_transfer(self.MESSAGES, config, seed=3)
        assert report.success
        assert report.violations == []

    def test_hostile_channel_never_violates_invariants(self):
        """Even when the transfer fails, nothing wrong is ever delivered."""
        config = ChannelConfig(
            loss_rate=0.6, corruption_rate=0.3, duplication_rate=0.2
        )
        report = run_transfer(
            self.MESSAGES, config, seed=4, max_retries=3
        )
        assert report.violations == []  # delivered prefix is always faithful

    def test_empty_message_list_finishes_immediately(self):
        report = run_transfer([])
        assert report.success
        assert report.data_frames_sent == 0

    def test_oversized_message_rejected(self):
        from repro.protocols.arq import ArqSender
        from repro.protocols.role import on_node
        from repro.netsim import Node, Simulator

        sim = Simulator()
        with pytest.raises(ValueError, match="at most"):
            on_node(Node(sim, "s"), "r", ArqSender, messages=[b"x" * 300])

    def test_more_than_256_messages_wraps_sequence_space(self):
        messages = [bytes([i % 256]) for i in range(300)]
        report = run_transfer(messages, ChannelConfig(loss_rate=0.05), seed=5)
        assert report.success
        assert report.violations == []

    @settings(deadline=None, max_examples=15)
    @given(
        loss=st.floats(0.0, 0.45),
        corruption=st.floats(0.0, 0.25),
        seed=st.integers(0, 1000),
    )
    def test_invariants_hold_for_any_fault_pattern(self, loss, corruption, seed):
        """Property: whatever the channel does, the DSL ARQ never delivers
        wrong, duplicated or reordered data (the paper's correctness-by-
        construction claim, E1)."""
        messages = [f"m{i}".encode() for i in range(8)]
        config = ChannelConfig(loss_rate=loss, corruption_rate=corruption)
        report = run_transfer(messages, config, seed=seed, max_retries=60)
        assert report.violations == []


class TestAdaptiveRto:
    MESSAGES = [bytes([i]) * 8 for i in range(20)]

    def test_adaptive_learns_slow_path(self):
        """On a 2s-RTT path a 0.5s fixed RTO fires constantly; the
        estimator learns the real RTT and stops the spurious storms."""
        slow = ChannelConfig(delay=1.0)
        fixed = run_transfer(self.MESSAGES, slow, seed=1, rto=0.5, max_retries=300)
        adaptive = run_transfer(
            self.MESSAGES, slow, seed=1, rto=0.5, max_retries=300,
            adaptive_rto=True,
        )
        assert fixed.success and adaptive.success
        assert adaptive.retransmissions < fixed.retransmissions / 3

    def test_adaptive_still_correct_under_loss(self):
        report = run_transfer(
            self.MESSAGES, ChannelConfig(loss_rate=0.3), seed=2,
            max_retries=300, adaptive_rto=True, max_rto=1.0,
        )
        assert report.success
        assert report.violations == []

    def test_karn_rule_applied(self):
        """Samples are suppressed after retransmissions (no poisoned RTTs)."""
        from repro.netsim import DuplexLink, Node, Simulator
        from repro.protocols.arq import ArqReceiver, ArqSender
        from repro.protocols.role import on_node

        sim = Simulator()
        s, r = Node(sim, "s"), Node(sim, "r")
        DuplexLink(sim, s, r, ChannelConfig(loss_rate=0.4, delay=0.05), seed=4)
        on_node(r, "s", ArqReceiver)
        sender = on_node(
            s, "r", ArqSender, messages=self.MESSAGES, max_retries=300,
            adaptive_rto=True,
        )
        sender.start()
        sim.run_until(lambda: sender.done or sender.failed)
        assert sender.done
        # Some exchanges needed retransmission, so samples < messages.
        assert 0 < sender.estimator.samples_taken < len(self.MESSAGES)
        assert sender.estimator.backoffs > 0


class TestInvariantChecker:
    def test_faithful_prefix_passes(self):
        msgs = [b"a", b"b", b"c"]
        assert check_transfer_invariants(msgs, [b"a", b"b"]) == []
        assert check_transfer_invariants(msgs, msgs) == []

    def test_corruption_detected(self):
        violations = check_transfer_invariants([b"a", b"b"], [b"a", b"X"])
        assert len(violations) == 1

    def test_duplication_detected(self):
        violations = check_transfer_invariants([b"a"], [b"a", b"a"])
        assert violations

    def test_reordering_detected(self):
        violations = check_transfer_invariants([b"a", b"b"], [b"b", b"a"])
        assert violations
