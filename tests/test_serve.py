"""The serving plane: real sockets, sessions, and the differential oracle.

Four layers of scrutiny, cheapest first:

1. unit tests for stream framing and exchange records (pure functions);
2. the session manager driven synchronously — demux, bounded queues,
   oldest-idle shedding, idle reaping — with a hand-advanced clock and
   wheel, no sockets;
3. the loopback differential: DSL clients against a recording server on
   real 127.0.0.1 UDP, with seeded loss/duplication/reorder injected on
   both legs, every recorded exchange replayed through the netsim
   oracle (byte equivalence) and every machine trace dual-stepped
   against ``modelcheck.successors_of`` (final-state agreement);
4. interop: the hand-rolled baseline blocking client (``repro.baseline``)
   conversing with the DSL server over UDP and over TCP, where the
   length-prefix stream framing earns its keep.

The 5000-session soak (shed threshold 4000) lives behind the ``slow``
marker with the other long lanes; the slab rewrite's regression tests
(slot recycling, frozen views, stale-drain fences, bounded bookkeeping)
ride layer 2.
"""

import asyncio
import io
import threading

import pytest

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

    def test_per_peer_seed_is_deterministic_and_distinct(self):
        assert session_seed(1, "a") == session_seed(1, "a")
        assert session_seed(1, "a") != session_seed(1, "b")
        assert session_seed(1, "a") != session_seed(2, "a")

    def test_bounded_queue_drops_and_counts(self):
        # Deferred drain: frames pile up in the queue until flushed.
        pending = []
        h = _Harness(max_queue=2, defer=pending.append)
        for seq in range(4):
            admission = h.offer("a", _data_frame(seq))
        assert not admission.accepted  # the queue filled at 2
        assert h.manager.drop_total == 2
        assert h.manager.sessions["a"].drops == 2
        for drain in pending:
            drain()
        # Only the queued frames were consumed.
        assert h.manager.sessions["a"].app.frames_in == 2

    def test_congestion_resume_fires_when_queue_drains(self):
        pending = []
        h = _Harness(max_queue=1, defer=pending.append)
        h.offer("a", _data_frame(0))
        admission = h.offer("a", _data_frame(1))
        assert admission.congested
        resumed = []
        admission.session.resume = lambda: resumed.append(True)
        for drain in pending:
            drain()
        assert resumed == [True]
        assert not h.manager.sessions["a"].congested

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
    """The slab rewrite's contract: density without observable change."""

    def test_slot_recycling_bounds_the_arena(self):
        # 200 peers churn through one-at-a-time; the slab never grows
        # past peak concurrency and close() leaves no per-peer residue
        # (the PR 7 _drain_scheduled dict leaked one entry per peer ever
        # seen — this is its regression test).
        h = _Harness()
        for index in range(200):
            peer = f"peer:{index}"
            h.offer(peer, _data_frame(0))
            h.manager.close(peer)
        assert h.manager.slab.capacity == 1  # one slot, recycled 200x
        assert len(h.manager._drain_tasks) == 1
        assert len(h.manager._idle_tasks) == 1
        assert not hasattr(h.manager, "_drain_scheduled")
        assert h.manager.stats() == {
            "active": 0,
            "opened": 200,
            "closed": 200,
            "shed": 0,
            "queue_drops": 0,
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
        slot_a = view_a.slot
        h.manager.close("a")
        assert view_a.closed
        # The slot is recycled by the next session...
        h.offer("b", _data_frame(0, b"from-b"))
        view_b = h.manager.sessions["b"]
        assert view_b.slot == slot_a
        # ...but the frozen view still answers for its own session.
        assert view_a.peer == "a"
        assert view_a.app.delivered == [b"from-a"]
        assert view_b.app.delivered == [b"from-b"]
        assert not view_b.closed

    def test_stale_drain_never_touches_a_retired_slot(self):
        # A drain deferred for session a fires after a was closed: the
        # generation fence must discard it (the slot's arrays are
        # cleared; touching them would be an AttributeError on None).
        pending = []
        h = _Harness(defer=pending.append)
        h.offer("a", _data_frame(0))
        h.manager.close("a")  # a's drain is still queued in `pending`
        (stale,) = pending
        stale()  # must be a silent no-op
        assert h.manager.stats()["active"] == 0

    def test_drain_across_slot_reuse_delivers_exactly_once(self):
        # The drain callback is slot-level and idempotent: when a's
        # stale drain fires after b recycled the slot, it runs b's
        # pending drain early — and the second firing is a no-op, so
        # delivery stays exactly-once in order.
        pending = []
        h = _Harness(defer=pending.append)
        h.offer("a", _data_frame(0))
        h.manager.close("a")
        h.offer("b", _data_frame(0, b"for-b"))
        assert h.manager.sessions["b"].slot == 0  # recycled slot
        for drain in pending:
            drain()
        assert h.manager.sessions["b"].app.delivered == [b"for-b"]
        assert h.manager.sessions["b"].app.frames_in == 1

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


class _RaisingReceiver(ArqResponderApp):
    """An ARQ responder that raises after delivering ``b"boom"``."""

    def on_frame(self, data):
        super().on_frame(data)
        if self.delivered and self.delivered[-1] == b"boom":
            raise RuntimeError("injected role failure")


class TestSessionFaultDomain:
    """A raising role loses its own session, never anyone else's."""

    def test_raising_session_closes_and_others_are_served(self, monkeypatch):
        from repro.obs.instrument import Instrumentation

        monkeypatch.setitem(APPS, "arq", _RaisingReceiver)
        instr = Instrumentation()
        pending = []
        h = _Harness(defer=pending.append, obs=instr)
        h.offer("a", _data_frame(0, b"boom"))
        h.offer("a", _data_frame(1, b"never"))
        h.offer("b", _data_frame(0, b"fine"))
        view_a = h.manager.sessions["a"]
        for drain in pending:
            drain()  # a's drain raises inside; b's must still run
        assert "a" not in h.manager.sessions
        assert view_a.app.delivered == [b"boom"]  # the rest was dropped
        assert h.manager.sessions["b"].app.delivered == [b"fine"]
        assert instr.registry.value(
            "serve.sessions_closed", protocol="arq", reason="app_error"
        ) == 1
        pending.clear()
        h.offer("a", _data_frame(0, b"again"))  # a fresh session serves a
        for drain in pending:
            drain()
        assert h.manager.sessions["a"].app.delivered == [b"again"]

    def test_full_tcp_queue_resumes_after_an_app_error(self, monkeypatch):
        monkeypatch.setitem(APPS, "arq", _RaisingReceiver)

        async def main():
            server = await Server.start(
                ServeConfig(protocol="arq", kind="tcp", max_queue=2)
            )
            closed = []
            original_close = server.manager.close

            def keeping_close(peer, reason="peer"):
                session = original_close(peer, reason=reason)
                if session is not None:
                    closed.append((reason, session))
                return session

            server.manager.close = keeping_close
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.tcp_port
            )
            # One write, one chunk: the queue (2) fills, the connection
            # pauses, the third frame is dropped; the first one raises.
            writer.write(
                b"".join(
                    encode_frame(_data_frame(seq, b"boom" if seq == 0 else b"x"))
                    for seq in range(3)
                )
            )
            await writer.drain()
            deframer = StreamDeframer()
            acks = []
            while not acks:
                acks += deframer.feed(await asyncio.wait_for(reader.read(64), 5))
            # The paused connection must have resumed: a new frame is read
            # and served by a fresh session.
            writer.write(encode_frame(_data_frame(0, b"after")))
            await writer.drain()
            while len(acks) < 2:
                acks += deframer.feed(await asyncio.wait_for(reader.read(64), 5))
            delivered = [s.app.delivered for s in server.manager.sessions.values()]
            writer.close()
            await server.close()
            return closed, delivered

        closed, delivered = asyncio.run(main())
        assert closed[0][0] == "app_error"
        assert closed[0][1].drops == 1  # the queue really was full
        assert closed[0][1].app.delivered == [b"boom"]
        assert delivered == [[b"after"]]


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
    def test_executed_trace_agrees_with_successors_of(self):
        app = build_app("arq", send=lambda data: None, seed=0)
        app.on_frame(_data_frame(0, b"one"))
        app.on_frame(_data_frame(0, b"one"))  # duplicate -> DUP_ACK
        app.on_frame(_data_frame(1, b"two"))
        assert app.delivered == [b"one", b"two"]
        assert app.machine.trace  # RECV, DUP_ACK, RECV
        assert check_trace_against_model(app.machine) == []

    def test_successors_of_pins_the_exact_target(self):
        # Direct use of the model semantics: from Expect(0), RECV admits
        # exactly Expect(1) — the dual-step has no wiggle room.
        spec = build_receiver_spec()
        machine = Machine(spec)
        verified = ARQ_PACKET.try_parse(_data_frame(0))
        machine.exec_trans("RECV", verified)
        step = machine.trace[0]
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
        machine.exec_trans("CONNECT", nonce=5)
        step = machine.trace[0]
        assert check_trace_against_model(machine) == []  # honest trace
        forged = type(step)(
            transition=step.transition,
            source=step.source,
            target=step.source,  # claims CONNECT left the state unchanged
            bindings=step.bindings,
        )

        class _Forged:
            spec = machine.spec
            trace = (forged,)

        notes = check_trace_against_model(_Forged())
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
        # Density bookkeeping: the slab arena equals peak concurrency,
        # not peers-ever-seen.
        assert h.manager.slab.capacity == 4000

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
