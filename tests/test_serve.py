"""The serving plane: real sockets, sessions, and the differential oracle.

Five layers of scrutiny, cheapest first:

1. unit tests for stream framing and exchange records (pure functions);
2. the session manager driven synchronously — demux, per-frame
   dispatch, oldest-idle shedding, idle reaping — with a hand-advanced
   clock and wheel, no sockets;
3. the loopback differential: DSL clients against a recording server on
   real 127.0.0.1 UDP, with seeded loss/duplication/reorder injected on
   both legs, every recorded exchange replayed through the netsim
   oracle (byte equivalence) and every machine trace dual-stepped
   against ``modelcheck.successors_of`` (final-state agreement);
4. interop: the hand-rolled baseline blocking client (``repro.baseline``)
   conversing with the DSL server over UDP and over TCP, where the
   length-prefix stream framing earns its keep;
5. the operational CLI: ``python -m repro.serve serve`` and ``client``
   as separate processes, the server's records replayed afterwards.

The 5000-session soak (shed threshold 4000) lives behind the ``slow``
marker with the other long lanes; the session-storage regression tests
(bounded bookkeeping, closed sessions that keep their state, stale
drains, sessions freed by reference counting) ride layer 2.
"""

import asyncio
import gc
import io
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
import weakref

import pytest

import repro
from repro import fastpath
from repro.baseline.sockets_arq import BlockingArqClient
from repro.core.machine import Machine
from repro.modelcheck.explicit import successors_of
from repro.protocols.arq import ARQ_PACKET, build_receiver_spec
from repro.serve.apps import APPS, ArqResponderApp, build_app
from repro.serve.framing import FramingError, StreamDeframer, encode_frame
from repro.serve.loopback import (
    LoopbackConfig,
    client_messages,
    run_loopback_sync,
)
from repro.serve.manager import SessionManager, session_seed
from repro.serve.record import (
    ExchangeRecord,
    ExchangeRecorder,
    load_records,
    save_records,
)
from repro.serve.replay import check_trace_against_model, replay_records
from repro.serve.transport import ServeConfig, Server
from repro.serve.wheel import TimerWheel


# ---------------------------------------------------------------------------
# Layer 1: framing and records
# ---------------------------------------------------------------------------


class TestStreamFraming:
    def test_roundtrip_across_arbitrary_chunking(self):
        frames = [b"a", b"hello world", bytes(range(256)), b"x" * 1000]
        wire = b"".join(encode_frame(f) for f in frames)
        for chunk_size in (1, 2, 3, 7, 64, len(wire)):
            deframer = StreamDeframer()
            out = []
            for start in range(0, len(wire), chunk_size):
                out.extend(deframer.feed(wire[start : start + chunk_size]))
            assert out == frames
            assert deframer.buffered == 0

    def test_zero_length_prefix_rejected(self):
        deframer = StreamDeframer()
        with pytest.raises(FramingError):
            deframer.feed(b"\x00\x00")

    def test_oversize_frame_rejected(self):
        deframer = StreamDeframer(max_frame=16)
        with pytest.raises(FramingError):
            deframer.feed(encode_frame(b"y" * 17))

    def test_empty_frame_cannot_be_encoded(self):
        with pytest.raises(FramingError):
            encode_frame(b"")


class TestExchangeRecords:
    def _record(self):
        clock_value = [10.0]
        recorder = ExchangeRecorder(
            "arq", "peer:1", clock=lambda: clock_value[0], seed=7,
            params={"window": 4},
        )
        recorder.frame_in(b"\x01\x02")
        clock_value[0] = 10.5
        recorder.frame_out(b"\x03")
        return recorder.record

    def test_roundtrip_through_jsonl(self):
        record = self._record()
        stream = io.StringIO()
        assert save_records([record], stream) == 1
        stream.seek(0)
        loaded = load_records(stream)
        assert len(loaded) == 1
        back = loaded[0]
        assert back.protocol == "arq"
        assert back.seed == 7
        assert back.params == {"window": 4}
        assert [e.data for e in back.inbound()] == [b"\x01\x02"]
        assert [e.data for e in back.outbound()] == [b"\x03"]

    def test_times_are_relative_and_monotonic(self):
        record = self._record()
        script = record.inbound_script()
        assert script == [(0.0, b"\x01\x02")]
        assert record.outbound()[0].time == pytest.approx(0.5)

    def test_transcript_renders_every_event(self):
        record = self._record()
        text = record.transcript(specs=[ARQ_PACKET])
        assert text.count("\n") == 1  # two events, one line each
        assert "->" in text and "<-" in text


# ---------------------------------------------------------------------------
# Layer 2: the session manager, synchronously
# ---------------------------------------------------------------------------


class _Harness:
    """Manager + hand clock + wheel + outbound capture, no sockets."""

    def __init__(self, **kwargs):
        self.now = 0.0
        self.wheel = TimerWheel(tick=0.01, now=0.0)
        self.sent = {}  # peer -> [frames]
        kwargs.setdefault("protocol", "arq")
        self.manager = SessionManager(
            wheel=self.wheel, clock=lambda: self.now, **kwargs
        )

    def offer(self, peer, data):
        return self.manager.frame_from(
            peer, data, self.sent.setdefault(peer, []).append
        )

    def tick(self, dt):
        self.now += dt
        self.wheel.advance(self.now)


def _data_frame(seq, payload=b"hi"):
    packet = ARQ_PACKET.make(seq=seq, length=len(payload), payload=payload)
    return ARQ_PACKET.encode(packet)


class TestSessionManager:
    def test_demux_by_peer_and_ack_flow(self):
        h = _Harness()
        h.offer("a", _data_frame(0, b"from-a"))
        h.offer("b", _data_frame(0, b"from-b"))
        assert len(h.manager.sessions) == 2
        assert len(h.sent["a"]) == 1 and len(h.sent["b"]) == 1
        apps = {p: s.app for p, s in h.manager.sessions.items()}
        assert apps["a"].delivered == [b"from-a"]
        assert apps["b"].delivered == [b"from-b"]

    def test_first_frame_compiles_every_responder_spec(self):
        # No accept-time warm-up: the session's own codec and machine
        # calls compile.
        fastpath.reset()
        with fastpath.use(mode="off"):
            frame = _data_frame(0)
        h = _Harness()
        h.offer("a", frame)
        app = h.manager.sessions["a"].app
        specs = [*app.specs, app.machine.spec]
        statuses = [getattr(fastpath.state_of(s), "status", None) for s in specs]
        assert statuses == ["compiled"] * 3
        assert fastpath.stats()["compiles"] == 3

    def test_per_peer_seed_is_deterministic_and_distinct(self):
        assert session_seed(1, "a") == session_seed(1, "a")
        assert session_seed(1, "a") != session_seed(1, "b")
        assert session_seed(1, "a") != session_seed(2, "a")

    def test_shed_oldest_idle_at_capacity(self):
        h = _Harness(max_sessions=3)
        for index, peer in enumerate(["a", "b", "c"]):
            h.tick(0.1)
            h.offer(peer, _data_frame(0))
        h.tick(0.1)
        h.offer("b", _data_frame(1))  # refresh b: now a is oldest-idle
        h.tick(0.1)
        h.offer("d", _data_frame(0))  # at capacity: someone must go
        assert set(h.manager.sessions) == {"b", "c", "d"}  # a was shed
        assert h.manager.shed_total == 1
        assert h.manager.stats()["shed"] == 1

    def test_idle_reaping_fires_protocol_timer_then_closes(self):
        h = _Harness(protocol="handshake", idle_timeout=1.0)
        # A half-open handshake: SYN consumed, ACK never arrives.
        from repro.protocols.handshake import HANDSHAKE_PACKET, MSG_SYN

        syn = HANDSHAKE_PACKET.make(
            msg_type=MSG_SYN, initiator_nonce=42, responder_nonce=0
        )
        h.offer("a", HANDSHAKE_PACKET.encode(syn))
        app = h.manager.sessions["a"].app
        assert app.machine.in_state("SynReceived")
        h.tick(1.05)
        assert "a" not in h.manager.sessions  # reaped
        assert app.machine.in_state("Listen")  # RESET ran before the close
        assert h.manager.stats()["closed"] == 1

    def test_activity_postpones_idle_reaping(self):
        h = _Harness(idle_timeout=1.0)
        h.offer("a", _data_frame(0))
        h.tick(0.8)
        h.offer("a", _data_frame(1))  # fresh activity
        h.tick(0.8)  # the original deadline passes; the session survives
        assert "a" in h.manager.sessions
        h.tick(1.0)
        assert "a" not in h.manager.sessions

    def test_records_collected_across_close(self):
        h = _Harness(record=True)
        h.offer("a", _data_frame(0))
        h.manager.close("a", reason="test")
        records = h.manager.collect_records()
        assert len(records) == 1
        assert len(records[0].inbound()) == 1
        assert len(records[0].outbound()) == 1  # the ack


class TestSlabStorage:
    """Session storage: density without observable change."""

    def test_slot_recycling_bounds_the_arena(self):
        # 200 peers churn through one-at-a-time; close() leaves no
        # per-peer residue (a per-peer _drain_scheduled dict once leaked
        # one entry per peer ever seen — this is its regression test).
        h = _Harness()
        for index in range(200):
            peer = f"peer:{index}"
            h.offer(peer, _data_frame(0))
            h.manager.close(peer)
        assert not hasattr(h.manager, "_drain_scheduled")
        assert h.wheel.pending == 0  # every close cancelled its idle timer
        assert h.manager.stats() == {
            "active": 0,
            "opened": 200,
            "closed": 200,
            "shed": 0,
        }

    def test_shed_heap_tombstones_are_compacted(self):
        # Normal closes leave lazy tombstones in the oldest-idle heap;
        # churning thousands of sessions must not accumulate them.
        h = _Harness()
        for index in range(2000):
            peer = f"peer:{index}"
            h.offer(peer, _data_frame(0))
            h.manager.close(peer)
        assert len(h.manager._idle_heap) <= 32  # live(0) + slack, not 2000

    def test_closed_view_is_frozen_against_slot_reuse(self):
        h = _Harness()
        h.offer("a", _data_frame(0, b"from-a"))
        view_a = h.manager.sessions["a"]
        h.manager.close("a")
        assert view_a.closed
        # A later session opens...
        h.offer("b", _data_frame(0, b"from-b"))
        view_b = h.manager.sessions["b"]
        # ...and the closed session still answers for itself.
        assert view_a.peer == "a"
        assert view_a.app.delivered == [b"from-a"]
        assert view_b.app.delivered == [b"from-b"]
        assert not view_b.closed

    def test_send_captured_at_open_only(self):
        # frame_from ignores `send` for existing sessions (documented:
        # transports pass one long-lived object, not per-frame closures).
        h = _Harness()
        first, second = [], []
        h.manager.frame_from("a", _data_frame(0), first.append)
        h.manager.frame_from("a", _data_frame(1), second.append)
        assert len(first) == 2  # both acks went out the open-time send
        assert second == []

    def test_send_factory_is_invoked_once_per_session(self):
        from repro.serve.manager import SendFactory

        built = []
        sent = []

        def build(peer):
            built.append(peer)
            return sent.append

        factory = SendFactory(build)
        h = _Harness()
        h.manager.frame_from("a", _data_frame(0), factory)
        h.manager.frame_from("a", _data_frame(1), factory)
        h.manager.frame_from("b", _data_frame(0), factory)
        assert built == ["a", "b"]  # once per open, never per frame
        assert len(sent) == 3  # every frame was acked

    def test_closed_session_is_freed_by_reference_counting(self):
        # Nothing the manager, the wheel or the shed heap keeps after a
        # close may refer to the session: with the cyclic collector off,
        # a session closed normally, shed, or reaped idle must be freed
        # as soon as the test drops its own references.
        h = _Harness(max_sessions=1, idle_timeout=1.0)

        def open_session(peer):
            admission = h.offer(peer, _data_frame(0))
            ref = weakref.ref(admission.session)
            admission.session = None  # the manager reuses this record
            return ref

        gc.disable()
        try:
            closed = open_session("a")
            h.manager.close("a")
            assert closed() is None
            shed = open_session("b")
            reaped = open_session("c")  # max_sessions=1: sheds b
            assert h.manager.shed_total == 1
            assert shed() is None
            h.tick(1.05)
            assert h.manager.stats()["active"] == 0
            assert reaped() is None
        finally:
            gc.enable()


class _RaisingReceiver(ArqResponderApp):
    """An ARQ responder that raises after delivering ``b"boom"``."""

    def on_frame(self, data):
        super().on_frame(data)
        if self.delivered and self.delivered[-1] == b"boom":
            raise RuntimeError("injected role failure")


class _RaisingTimer(ArqResponderApp):
    """An ARQ responder whose protocol timer raises once it delivered ``b"boom"``."""

    def on_timer(self):
        if self.delivered == [b"boom"]:
            raise RuntimeError("injected timer failure")


class TestSessionFaultDomain:
    """A raising role loses its own session, never anyone else's."""

    def test_raising_session_closes_and_others_are_served(self, monkeypatch):
        from repro.obs.instrument import Instrumentation

        monkeypatch.setitem(APPS, "arq", _RaisingReceiver)
        instr = Instrumentation()
        h = _Harness(obs=instr)
        h.offer("b", _data_frame(0, b"fine"))
        admission = h.offer("a", _data_frame(0, b"boom"))  # raises inside
        assert not admission.accepted
        view_a = admission.session
        assert view_a.closed and "a" not in h.manager.sessions
        assert view_a.app.delivered == [b"boom"]
        assert h.offer("b", _data_frame(1, b"still")).accepted
        assert h.manager.sessions["b"].app.delivered == [b"fine", b"still"]
        assert instr.registry.value(
            "serve.sessions_closed", protocol="arq", reason="app_error"
        ) == 1
        admission = h.offer("a", _data_frame(0, b"again"))  # a fresh session
        assert admission.accepted and admission.session is not view_a
        assert h.manager.sessions["a"].app.delivered == [b"again"]

    def test_raising_timer_closes_only_its_session(self, monkeypatch):
        # Both sessions fall idle in one advance; a's protocol timer
        # raises.  The exception must not escape the wheel, which has
        # already taken b's entry out of its bucket by then.
        monkeypatch.setitem(APPS, "arq", _RaisingTimer)
        h = _Harness(idle_timeout=1.0)
        reasons = {}
        close = h.manager.close

        def recording_close(peer, reason="peer"):
            reasons[peer] = reason
            return close(peer, reason=reason)

        h.manager.close = recording_close
        h.offer("a", _data_frame(0, b"boom"))
        h.offer("b", _data_frame(0, b"fine"))
        h.tick(1.05)
        assert reasons == {"a": "app_error", "b": "idle"}
        assert h.wheel.pending == 0

    def test_tcp_framing_error_closes_only_that_connection(self):
        from repro.obs.instrument import Instrumentation

        instr = Instrumentation()

        async def main():
            server = await Server.start(
                ServeConfig(protocol="arq", kind="tcp"), obs=instr
            )
            bad_reader, bad_writer = await asyncio.open_connection(
                "127.0.0.1", server.tcp_port
            )
            good_reader, good_writer = await asyncio.open_connection(
                "127.0.0.1", server.tcp_port
            )
            good = StreamDeframer()
            for reader, writer, deframer in (
                (bad_reader, bad_writer, StreamDeframer()),
                (good_reader, good_writer, good),
            ):
                writer.write(encode_frame(_data_frame(0)))
                await writer.drain()
                await _read_frames(reader, deframer, 1)
            opened = len(server.manager.sessions)
            bad_writer.write(b"\x00\x00")  # a zero-length prefix
            await bad_writer.drain()
            eof = await asyncio.wait_for(bad_reader.read(64), 5)
            good_writer.write(encode_frame(_data_frame(1)))
            await good_writer.drain()
            acks = await _read_frames(good_reader, good, 1)
            peers = list(server.manager.sessions)
            good_peer = good_writer.get_extra_info("sockname")
            bad_writer.close()
            good_writer.close()
            await server.close()
            return opened, eof, acks, peers, good_peer

        opened, eof, acks, peers, good_peer = asyncio.run(main())
        assert opened == 2
        assert eof == b""  # the server closed the desynchronized stream
        assert len(acks) == 1  # the other connection is still served
        assert peers == [good_peer]
        assert instr.registry.value(
            "serve.sessions_closed", protocol="arq", reason="framing"
        ) == 1

    def test_full_tcp_queue_resumes_after_an_app_error(self, monkeypatch):
        # One write carries a raising frame and the two behind it: the
        # app_error closes only that session, and the connection's next
        # frames are served by a fresh one, not dropped.
        monkeypatch.setitem(APPS, "arq", _RaisingReceiver)

        async def main():
            server = await Server.start(ServeConfig(protocol="arq", kind="tcp"))
            closed = []
            original_close = server.manager.close

            def keeping_close(peer, reason="peer"):
                session = original_close(peer, reason=reason)
                if session is not None:
                    closed.append((reason, session))
                return session

            server.manager.close = keeping_close
            connections = [
                await asyncio.open_connection("127.0.0.1", server.tcp_port)
                for _ in range(2)
            ]
            (reader, writer), (other_reader, other_writer) = connections
            other_writer.write(encode_frame(_data_frame(0, b"fine")))
            await _read_frames(other_reader, StreamDeframer(), 1)
            writer.write(
                b"".join(
                    encode_frame(_data_frame(seq, payload))
                    for seq, payload in ((0, b"boom"), (0, b"after"), (1, b"x"))
                )
            )
            await writer.drain()
            acks = await _read_frames(reader, StreamDeframer(), 3)
            delivered = {
                peer[1]: s.app.delivered for peer, s in server.manager.sessions.items()
            }
            ports = (
                writer.get_extra_info("sockname")[1],
                other_writer.get_extra_info("sockname")[1],
            )
            writer.close()
            other_writer.close()
            await server.close()
            return closed, acks, delivered, ports

        closed, acks, delivered, (port, other_port) = asyncio.run(main())
        assert len(acks) == 3  # the raising frame was acked before it raised
        reason, session = closed[0]
        assert reason == "app_error"
        assert session.app.delivered == [b"boom"]
        assert delivered == {port: [b"after", b"x"], other_port: [b"fine"]}

    def test_tcp_burst_is_delivered_whole(self):
        # One write of 100 in-order frames: the stream delivered them, so
        # the server must run every one (no receive queue to overflow).
        async def main():
            server = await Server.start(ServeConfig(protocol="arq", kind="tcp"))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.tcp_port
            )
            payloads = [b"m%03d" % seq for seq in range(100)]
            writer.write(
                b"".join(
                    encode_frame(_data_frame(seq, payload))
                    for seq, payload in enumerate(payloads)
                )
            )
            await writer.drain()
            acks = await _read_frames(reader, StreamDeframer(), 100)
            (session,) = server.manager.sessions.values()
            delivered = list(session.app.delivered)
            writer.close()
            await server.close()
            return payloads, acks, delivered

        payloads, acks, delivered = asyncio.run(main())
        assert delivered == payloads
        assert len(acks) == 100


async def _read_frames(reader, deframer, count):
    """Read until ``count`` frames have arrived (5 s per read)."""
    frames = []
    while len(frames) < count:
        chunk = await asyncio.wait_for(reader.read(4096), 5)
        assert chunk, f"stream closed after {len(frames)} of {count} frames"
        frames += deframer.feed(chunk)
    return frames


# ---------------------------------------------------------------------------
# Layer 3: the loopback differential
# ---------------------------------------------------------------------------

_CLEAN = dict(clients=3, messages=4, payload_size=16, rto=0.08)
_IMPAIRED = dict(
    clients=3,
    messages=4,
    payload_size=16,
    rto=0.08,
    loss_rate=0.15,
    duplication_rate=0.1,
    reorder_rate=0.1,
    client_timeout=30.0,
)


def _assert_differential_clean(report):
    assert report.clients_ok, report.clients
    assert report.differential is not None
    assert report.differential.results, "no exchanges were recorded"
    for result in report.differential.results:
        assert result.divergences == [], result.summary()
        assert result.model_notes == [], result.summary()
    assert report.ok


class TestLoopbackDifferential:
    @pytest.mark.parametrize("protocol", ["arq", "handshake", "sliding"])
    def test_clean_channel(self, protocol):
        report = run_loopback_sync(
            LoopbackConfig(protocol=protocol, seed=101, **_CLEAN)
        )
        _assert_differential_clean(report)

    @pytest.mark.parametrize("protocol", ["arq", "handshake", "sliding"])
    def test_lossy_reordering_channel(self, protocol):
        report = run_loopback_sync(
            LoopbackConfig(protocol=protocol, seed=202, **_IMPAIRED)
        )
        _assert_differential_clean(report)
        # Impairment must actually have happened for this to mean much:
        # retransmissions on at least one client across the batch.
        assert any(c["retransmissions"] > 0 for c in report.clients) or any(
            c["frames_sent"] > _IMPAIRED["messages"] for c in report.clients
        )

    def test_offline_replay_from_saved_records(self):
        report = run_loopback_sync(
            LoopbackConfig(protocol="arq", seed=303, **_CLEAN)
        )
        stream = io.StringIO()
        save_records(report.records, stream)
        stream.seek(0)
        differential = replay_records(load_records(stream))
        assert differential.ok
        assert differential.summary()["records"] == len(
            [r for r in report.records if r.events]
        )

    def test_divergence_is_detected_not_assumed(self):
        # Corrupt one recorded outbound frame: the oracle must notice.
        report = run_loopback_sync(
            LoopbackConfig(protocol="arq", seed=404, **_CLEAN)
        )
        record = next(r for r in report.records if r.outbound())
        victim = record.outbound()[0]
        mutated = ExchangeRecord(
            protocol=record.protocol,
            peer=record.peer,
            seed=record.seed,
            params=record.params,
            events=[
                type(e)(e.time, e.direction, b"\xff" + e.data[1:])
                if e is victim
                else e
                for e in record.events
            ],
        )
        differential = replay_records([mutated])
        assert not differential.ok
        assert differential.results[0].divergences


class TestModelDualStep:
    def test_replay_dual_steps_every_replayed_step(self, monkeypatch):
        # A machine keeps no history, so the replay must record the
        # replayed machine's steps itself: on a clean channel every
        # inbound ARQ data frame is one RECV or DUP_ACK step.
        report = run_loopback_sync(
            LoopbackConfig(protocol="arq", seed=505, **_CLEAN)
        )
        checked = []

        def check(spec, steps):
            checked.append(list(steps))
            return check_trace_against_model(spec, steps)

        monkeypatch.setattr(repro.serve.replay, "check_trace_against_model", check)
        records = [record for record in report.records if record.events]
        assert replay_records(records).ok
        assert [len(steps) for steps in checked] == [
            len(record.inbound()) for record in records
        ]
        assert all(checked)

    def test_executed_trace_agrees_with_successors_of(self):
        app = build_app("arq", send=lambda data: None, seed=0)
        steps = app.machine.record_steps()
        app.on_frame(_data_frame(0, b"one"))
        app.on_frame(_data_frame(0, b"one"))  # duplicate -> DUP_ACK
        app.on_frame(_data_frame(1, b"two"))
        assert app.delivered == [b"one", b"two"]
        assert [step.transition for step in steps] == ["RECV", "DUP_ACK", "RECV"]
        assert check_trace_against_model(app.machine.spec, steps) == []

    def test_successors_of_pins_the_exact_target(self):
        # Direct use of the model semantics: from Expect(0), RECV admits
        # exactly Expect(1) — the dual-step has no wiggle room.
        spec = build_receiver_spec()
        machine = Machine(spec)
        steps = machine.record_steps()
        verified = ARQ_PACKET.try_parse(_data_frame(0))
        machine.exec_trans("RECV", verified)
        assert len(steps) == 1
        step = steps[0]
        targets, approximated = successors_of(
            spec, spec.transition_named("RECV"), step.source
        )
        if not approximated:
            keys = {(t.state.name, t.values) for t in targets}
            assert (step.target.state.name, step.target.values) in keys

    def test_dual_step_flags_a_forged_trace(self):
        # CONNECT has no payload-dependent guard, so the model's answer
        # is exact (never approximated): from Closed with nonce=5 the
        # only admissible target is SynSent(5).  A forged step claiming
        # otherwise must be flagged.
        from repro.protocols.handshake import build_initiator_spec

        machine = Machine(build_initiator_spec())
        steps = machine.record_steps()
        machine.exec_trans("CONNECT", nonce=5)
        assert len(steps) == 1
        step = steps[0]
        assert check_trace_against_model(machine.spec, steps) == []  # honest trace
        forged = type(step)(
            transition=step.transition,
            source=step.source,
            target=step.source,  # claims CONNECT left the state unchanged
            bindings=step.bindings,
        )
        notes = check_trace_against_model(machine.spec, [forged])
        assert notes and "admits only" in notes[0]


# ---------------------------------------------------------------------------
# Layer 4: baseline interop over real sockets
# ---------------------------------------------------------------------------


class TestBaselineInterop:
    def _run(self, kind):
        async def main():
            server = await Server.start(
                ServeConfig(protocol="arq", kind=kind, idle_timeout=10.0)
            )
            port = server.udp_port if kind == "udp" else server.tcp_port
            payloads = [b"alpha", b"beta", b"gamma", b"delta"]
            box = {}
            # A TCP session closes with its connection (connection_lost),
            # so keep every closed session inspectable.
            closed = []
            original_close = server.manager.close

            def keeping_close(peer, reason="peer"):
                session = original_close(peer, reason=reason)
                if session is not None:
                    closed.append(session)
                return session

            server.manager.close = keeping_close

            def drive():
                client = BlockingArqClient(
                    "127.0.0.1", port, transport=kind, rto=0.3
                )
                box["result"] = client.send_messages(payloads)

            thread = threading.Thread(target=drive)
            thread.start()
            while thread.is_alive():
                await asyncio.sleep(0.01)
            thread.join()
            await asyncio.sleep(0.05)
            sessions = list(server.manager.sessions.values()) + closed
            delivered = [s.app.delivered for s in sessions]
            stats = server.manager.stats()
            await server.close()
            return box["result"], delivered, payloads, stats

        return asyncio.run(main())

    def test_udp_interop(self):
        result, delivered, payloads, stats = self._run("udp")
        assert result["ok"], result
        assert delivered == [payloads]
        assert stats["opened"] == 1

    def test_tcp_interop_with_stream_framing(self):
        # The load-bearing part: over a stream the baseline's bare wire
        # format is ambiguous; the hand-rolled length prefix restores
        # frame boundaries and both ends agree on them.
        result, delivered, payloads, stats = self._run("tcp")
        assert result["ok"], result
        assert delivered == [payloads]
        assert result["acks_seen"] == len(payloads)


# ---------------------------------------------------------------------------
# Layer 5: the operational CLI, process to process
# ---------------------------------------------------------------------------


def _cli_env():
    """The default environment: no REPRO_* variables, ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _read_line(proc, timeout):
    """One stdout line from ``proc``, failing the test after ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or proc.poll() is not None:
            pytest.fail(f"no line from {proc.args} (rc={proc.poll()})")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if ready:
            return proc.stdout.readline()


class TestServeCli:
    def test_serve_client_sigterm_and_replay(self, tmp_path):
        records = tmp_path / "records.jsonl"
        env = _cli_env()
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "serve", "arq",
             "--port", "0", "--record", str(records)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = _read_line(server, 30)
            match = re.search(r"udp:(\d+)", banner)
            assert match, banner
            client = subprocess.run(
                [sys.executable, "-m", "repro.serve", "client", "arq",
                 "--port", match.group(1), "--messages", "4"],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert client.returncode == 0, client.stdout + client.stderr
            server.send_signal(signal.SIGTERM)
            out, err = server.communicate(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0, err
        stats = json.loads(out.strip().splitlines()[-1])
        assert stats["opened"] == 1
        with open(records, encoding="utf-8") as handle:
            differential = replay_records(load_records(handle))
        assert differential.summary()["records"] == 1
        assert differential.divergent == []

    def test_serving_plane_does_not_import_numpy(self):
        # Only megasim and the Markov solve use numpy; a server never does.
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.serve, repro.conformance; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"],
            env=_cli_env(), capture_output=True, text=True, timeout=60,
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "[]"


class TestServerExport:
    def test_close_publishes_a_final_record_that_ends_top(
        self, tmp_path, monkeypatch
    ):
        from repro.obs import records
        from repro.obs.live.top import top_command

        export = tmp_path / "export.jsonl"
        monkeypatch.setenv("REPRO_OBS_EXPORT", str(export))

        async def main():
            server = await Server.start(ServeConfig(protocol="arq", port=0))
            await server.close()

        asyncio.run(main())
        exports = [r for r in records.read(str(export)) if r.kind == "export"]
        assert exports and exports[-1].body["phase"] == "final"
        # Following the stream stops at that record instead of waiting on.
        done = []
        follower = threading.Thread(
            target=lambda: done.append(
                top_command(str(export), interval=0.05, out=io.StringIO())
            ),
            daemon=True,
        )
        follower.start()
        follower.join(timeout=10)
        assert done == [0]


# ---------------------------------------------------------------------------
# The soak lane (slow)
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestSoak:
    def test_5000_sessions_shed_at_4000_oldest_idle_first(self):
        h = _Harness(max_sessions=4000, idle_timeout=300.0)
        # 5000 peers arrive in strict order, each stamped by arrival time
        # and carrying a payload naming its peer.
        for index in range(5000):
            h.tick(0.001)
            h.offer(f"peer:{index}", _data_frame(0, b"p%04d" % index))
        stats = h.manager.stats()
        assert stats["active"] == 4000
        assert stats["opened"] == 5000
        assert stats["shed"] == 1000
        assert stats["closed"] == 1000  # every close was a shed
        # Oldest-idle first: exactly the first 1000 arrivals lost their
        # slots (nobody refreshed, so arrival order is idleness order).
        survivors = {int(p.split(":")[1]) for p in h.manager.sessions}
        assert survivors == set(range(1000, 5000))

    def test_no_session_observes_anothers_frames(self):
        h = _Harness(max_sessions=4000, idle_timeout=300.0)
        peers = [f"peer:{i}" for i in range(5000)]
        for index, peer in enumerate(peers):
            h.tick(0.001)
            h.offer(peer, _data_frame(0, b"A%04d" % index))
        # Interleave a second frame to every survivor, reversed order.
        for index, peer in reversed(list(enumerate(peers))):
            if peer in h.manager.sessions:
                h.offer(peer, _data_frame(1, b"B%04d" % index))
        for peer, session in h.manager.sessions.items():
            index = int(peer.split(":")[1])
            assert session.app.delivered == [
                b"A%04d" % index,
                b"B%04d" % index,
            ], f"cross-session leakage at {peer}"
        # Ack streams stayed per-peer as well.
        for peer, frames in h.sent.items():
            if peer in h.manager.sessions:
                assert len(frames) == 2

    def test_refreshed_sessions_survive_the_flood(self):
        h = _Harness(max_sessions=4000, idle_timeout=300.0)
        keep = [f"keep:{i}" for i in range(50)]
        for peer in keep:
            h.tick(0.001)
            h.offer(peer, _data_frame(0))
        for index in range(4950):
            h.tick(0.001)
            if index % 10 == 0:  # steady traffic on the protected set
                for peer in keep:
                    h.offer(peer, _data_frame(1))
            h.offer(f"flood:{index}", _data_frame(0))
        assert all(peer in h.manager.sessions for peer in keep)
        assert h.manager.stats()["shed"] == 1000  # 5000 offered, 4000 fit

    def test_live_soak_concurrent_clients_over_udp(self):
        # A real-socket soak at a gentler scale: 60 concurrent DSL
        # clients against one recording server, then the differential.
        config = LoopbackConfig(
            protocol="arq",
            clients=60,
            messages=3,
            payload_size=12,
            seed=77,
            rto=0.15,
            client_timeout=30.0,
            check_model=False,  # byte differential only; keeps soak O(n)
        )
        report = run_loopback_sync(config)
        assert report.clients_ok
        assert report.server_stats["opened"] == 60
        assert report.differential is not None and report.differential.ok
