"""The three-way handshake: nonce-indexed states, consistent endings."""

import random
import zlib

import pytest

from repro.core.machine import InvalidTransitionError, Machine
from repro.netsim.channel import ChannelConfig
from repro.protocols.handshake import (
    HANDSHAKE_PACKET,
    MSG_ACK,
    MSG_SYN,
    MSG_SYN_ACK,
    HandshakeResponder,
    build_initiator_spec,
    build_responder_spec,
    run_handshake,
)


def verified(msg_type, initiator_nonce, responder_nonce):
    return HANDSHAKE_PACKET.verify(
        HANDSHAKE_PACKET.make(
            msg_type=msg_type,
            initiator_nonce=initiator_nonce,
            responder_nonce=responder_nonce,
        )
    )


class TestInitiatorMachine:
    def test_happy_path(self):
        machine = Machine(build_initiator_spec())
        machine.exec_trans("CONNECT", nonce=42)
        machine.exec_trans("SYNACK", verified(MSG_SYN_ACK, 42, 7))
        assert machine.in_state("Established")
        assert machine.current.values == (42,)

    def test_synack_for_wrong_nonce_rejected(self):
        """The state is indexed by the offered nonce: a stale or forged
        SYN-ACK cannot complete the handshake."""
        machine = Machine(build_initiator_spec())
        machine.exec_trans("CONNECT", nonce=42)
        with pytest.raises(InvalidTransitionError, match="guard"):
            machine.exec_trans("SYNACK", verified(MSG_SYN_ACK, 999, 7))

    def test_wrong_message_type_rejected(self):
        machine = Machine(build_initiator_spec())
        machine.exec_trans("CONNECT", nonce=42)
        with pytest.raises(InvalidTransitionError, match="guard"):
            machine.exec_trans("SYNACK", verified(MSG_SYN, 42, 0))

    def test_give_up_is_consistent_failure(self):
        machine = Machine(build_initiator_spec())
        machine.exec_trans("CONNECT", nonce=42)
        machine.exec_trans("GIVE_UP")
        assert machine.in_state("Failed")
        assert machine.is_finished


class TestResponderMachine:
    def test_happy_path(self):
        machine = Machine(build_responder_spec())
        machine.exec_trans("SYN", verified(MSG_SYN, 42, 0), nonce=7)
        machine.exec_trans("ACK", verified(MSG_ACK, 42, 7))
        assert machine.in_state("Established")

    def test_ack_with_wrong_nonce_rejected(self):
        machine = Machine(build_responder_spec())
        machine.exec_trans("SYN", verified(MSG_SYN, 42, 0), nonce=7)
        with pytest.raises(InvalidTransitionError, match="guard"):
            machine.exec_trans("ACK", verified(MSG_ACK, 42, 999))

    def test_reset_returns_to_listen(self):
        machine = Machine(build_responder_spec())
        machine.exec_trans("SYN", verified(MSG_SYN, 42, 0), nonce=7)
        machine.exec_trans("RESET")
        assert machine.in_state("Listen")


class TestEndToEnd:
    def test_clean_link_establishes(self):
        report = run_handshake()
        assert report.established
        assert report.initiator_state == "Established"
        assert report.responder_state == "Established"
        assert report.frames_sent == 3

    def test_total_loss_ends_consistently(self):
        report = run_handshake(ChannelConfig(loss_rate=1.0), seed=1)
        assert not report.established
        assert report.initiator_state == "Failed"
        assert report.responder_state == "Listen"

    def test_heavy_corruption_never_establishes_wrongly(self):
        for seed in range(10):
            report = run_handshake(
                ChannelConfig(corruption_rate=0.8), seed=seed
            )
            # Whatever happened, both sides are in *consistent* states:
            assert report.initiator_state in ("Established", "Failed")
            assert report.responder_state in (
                "Established", "SynReceived", "Listen"
            )

    def test_many_seeds_clean_network(self):
        for seed in range(20):
            assert run_handshake(seed=seed).established


def frame(msg_type, initiator_nonce, responder_nonce):
    return HANDSHAKE_PACKET.encode(
        HANDSHAKE_PACKET.make(
            msg_type=msg_type,
            initiator_nonce=initiator_nonce,
            responder_nonce=responder_nonce,
        )
    )


def responder_nonce(synack):
    return HANDSHAKE_PACKET.try_parse(synack).value.responder_nonce


class TestSeededNonces:
    """With no ``rng``, a role's n-th nonce is drawn from (seed, n) alone."""

    def test_same_seed_answers_the_same_syns_identically(self):
        # A SYN, its duplicate, a half-open RESET, then a fresh SYN.
        syn, retry = frame(MSG_SYN, 7, 0), frame(MSG_SYN, 9, 0)
        script = [syn, syn, None, retry]
        transcripts = []
        for _ in range(2):
            sent = []
            responder = HandshakeResponder(sent.append, seed=1234)
            for data in script:
                if data is None:
                    responder.on_timer()
                else:
                    responder.on_frame(data)
            transcripts.append(sent)
        assert len(transcripts[0]) == 3
        assert transcripts[0] == transcripts[1]
        nonces = [responder_nonce(synack) for synack in transcripts[0]]
        assert nonces[0] == nonces[1] == 1 + zlib.crc32(b"1234:1") % 0xFFFF
        # The duplicate SYN drew too, so the fresh SYN gets the third nonce.
        assert nonces[2] == 1 + zlib.crc32(b"1234:3") % 0xFFFF

    def test_first_nonces_are_nonzero_and_spread(self):
        syn = frame(MSG_SYN, 7, 0)
        nonces = []
        for seed in range(10_000):
            sent = []
            HandshakeResponder(sent.append, seed=seed).on_frame(syn)
            nonces.append(responder_nonce(sent[0]))
        assert all(1 <= nonce <= 0xFFFF for nonce in nonces)
        # A uniform draw gives ~9,271 distinct values in 10,000.
        assert len(set(nonces)) > 9_000

    def test_duplicate_syn_gets_the_cached_synack_then_ack_establishes(self):
        sent = []
        responder = HandshakeResponder(sent.append, seed=5)
        responder.on_frame(frame(MSG_SYN, 7, 0))
        responder.on_frame(frame(MSG_SYN, 7, 0))
        assert len(sent) == 2 and sent[1] == sent[0]
        assert responder.machine.in_state("SynReceived")
        responder.on_frame(frame(MSG_SYN, 8, 0))  # another initiator's SYN
        assert len(sent) == 2 and responder.rejected == 1
        responder.on_frame(frame(MSG_ACK, 7, responder_nonce(sent[0])))
        assert responder.established
        assert responder.machine.current.values == (responder_nonce(sent[0]),)
