"""Call and retention budgets per frame on the compiled receive path (paper §3.4 gate).

Each call-budget test counts the Python ``call`` events into code under
``src/repro`` or a generated codec or machine module
(``repro_generated_*``) while a role or the session manager handles
steady-state frames, with obs off and with obs on, and holds the mean
per frame to a budget.  The retention tests count what a session
keeps: the GC-tracked objects steady-state frames leave alive, the bytes
an Established handshake session holds on the server, and the
per-packet state a selective-repeat sender holds after a long transfer.
Counts do not drift with host load the way timings do, so a structural
slip on the per-frame path — one more function call, or one more object
kept, on every frame — fails here on every push.

Comprehension frames (``<listcomp>``, ``<dictcomp>``, ``<setcomp>``) are
not counted: CPython 3.12 inlines them, so counting them would give the
3.10 and 3.12 CI jobs different numbers for the same code.
"""

import gc
import os
import sys
import tracemalloc
from collections import deque
from functools import partial

import pytest

import repro
from repro import fastpath, obs
from repro.protocols.arq import ARQ_PACKET, ArqReceiver
from repro.protocols.handshake import (
    MSG_ACK,
    MSG_SYN,
    HANDSHAKE_PACKET,
    HandshakeResponder,
)
from repro.protocols.sliding import (
    SLIDING_PACKET,
    SelectiveRepeatReceiver,
    SelectiveRepeatSender,
)
from repro.serve.manager import SessionManager
from repro.serve.wheel import TimerWheel, WheelTimer

#: Calls per frame with the generated receive gate, make and machine
#: transitions, as measured: one more call per frame on a path fails it.
BUDGETS = {
    "ArqReceiver.on_frame": 42,
    "SelectiveRepeatReceiver.on_frame": 45,
    "HandshakeResponder.on_frame": 43,
    "SessionManager.frame_from": 45,
}

#: The same paths with obs enabled, as measured: the same generated code
#: runs, inside one ``exec_trans`` span and the codec and machine metrics.
OBS_BUDGETS = {
    "ArqReceiver.on_frame": 85,
    "SelectiveRepeatReceiver.on_frame": 88,
    "HandshakeResponder.on_frame": 86,
    "SessionManager.frame_from": 103,
}

#: GC-tracked objects a steady-state data frame may leave alive, on
#: average: a machine keeps no history, and a delivered payload is bytes,
#: which the collector does not track.
RETAINED_PER_FRAME = 0.5

#: Bytes the server may keep per Established handshake session: its
#: ``Session``, responder, machine, cached SYN-ACK and table entries.
#: A per-role ``random.Random`` alone is ~2.9 KB.
SESSION_BYTES = 2048
SESSIONS = 512

PACKAGE = os.path.dirname(repro.__file__) + os.sep
INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})
WARMUP = 3
FRAMES = 64


def calls_per_frame(handle, frames):
    """Mean calls into repro or generated code per ``handle(frame)``."""
    for frame in frames[:WARMUP]:
        handle(frame)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            code = frame.f_code
            if code.co_name not in INLINED and (
                code.co_filename.startswith(PACKAGE)
                or code.co_filename.startswith("repro_generated_")
            ):
                count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for frame in frames[WARMUP:]:
            handle(frame)
    finally:
        sys.setprofile(previous)
    return count / (len(frames) - WARMUP)


def _data_frames(spec, size):
    return [
        spec.encode(spec.make(seq=seq % 256, length=size, payload=bytes(size)))
        for seq in range(WARMUP + FRAMES)
    ]


def _discard(data):
    pass


def arq_receiver():
    return ArqReceiver(_discard).on_frame, _data_frames(ARQ_PACKET, 16)


def selective_repeat_receiver():
    receiver = SelectiveRepeatReceiver(_discard, window=16)
    return receiver.on_frame, _data_frames(SLIDING_PACKET, 255)


def handshake_responder():
    """Each SYN opens a handshake on a fresh responder, as on a new session."""
    responders = iter(
        [HandshakeResponder(_discard, seed=seed) for seed in range(WARMUP + FRAMES)]
    )
    syn = HANDSHAKE_PACKET.encode(
        HANDSHAKE_PACKET.make(msg_type=MSG_SYN, initiator_nonce=7, responder_nonce=0)
    )
    return (lambda frame: next(responders).on_frame(frame)), [syn] * (WARMUP + FRAMES)


def session_manager():
    """An established ARQ session: the live server's per-frame path."""
    manager = SessionManager("arq", wheel=TimerWheel(), clock=lambda: 0.0)
    peer = ("127.0.0.1", 9)
    handle = lambda frame: manager.frame_from(peer, frame, _discard)  # noqa: E731
    return handle, _data_frames(ARQ_PACKET, 16)


PATHS = {
    "ArqReceiver.on_frame": arq_receiver,
    "SelectiveRepeatReceiver.on_frame": selective_repeat_receiver,
    "HandshakeResponder.on_frame": handshake_responder,
    "SessionManager.frame_from": session_manager,
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_calls_per_frame_stay_within_budget(path):
    assert not obs.get_default().enabled
    with fastpath.use(mode="always"):
        handle, frames = PATHS[path]()
        measured = calls_per_frame(handle, frames)
    assert measured <= BUDGETS[path], (
        f"{path}: {measured} calls per frame, budget {BUDGETS[path]}"
    )


@pytest.mark.parametrize("path", sorted(PATHS))
def test_calls_per_frame_with_obs_on_stay_within_budget(path):
    """Obs observes the generated path; it does not swap in another one."""
    obs.enable().reset()
    try:
        with fastpath.use(mode="always"):
            handle, frames = PATHS[path]()
            measured = calls_per_frame(handle, frames)
    finally:
        obs.disable()
    assert measured <= OBS_BUDGETS[path], (
        f"{path}: {measured} calls per frame with obs on, "
        f"budget {OBS_BUDGETS[path]}"
    )


def retained_per_frame(handle, frames):
    """Mean GC-tracked objects each ``handle(frame)`` leaves alive.

    The collector is off while the frames run, as between two of its
    passes, so an object counts even if a later pass would untrack it.
    """
    for frame in frames[:WARMUP]:
        handle(frame)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for frame in frames[WARMUP:]:
            handle(frame)
        after = len(gc.get_objects())
    finally:
        gc.enable()
    return (after - before) / (len(frames) - WARMUP)


@pytest.mark.parametrize(
    "path",
    [
        "ArqReceiver.on_frame",
        "SelectiveRepeatReceiver.on_frame",
        "SessionManager.frame_from",
    ],
)
def test_frames_leave_no_objects_behind(path):
    assert not obs.get_default().enabled
    with fastpath.use(mode="always"):
        handle, frames = PATHS[path]()
        measured = retained_per_frame(handle, frames)
    assert measured < RETAINED_PER_FRAME, (
        f"{path}: {measured} GC-tracked objects kept per frame, "
        f"budget {RETAINED_PER_FRAME}"
    )


def test_established_handshake_session_stays_small():
    """Bytes traced per session after a SYN and its ACK from each of 512 peers.

    Peers and the SYN are built before tracing starts; each ACK is built
    from the SYN-ACK it answers and freed before the count.
    """
    assert not obs.get_default().enabled
    peers = [
        ("127.1.%d.%d" % divmod(index, 256), 9) for index in range(WARMUP + SESSIONS)
    ]
    syn = HANDSHAKE_PACKET.encode(
        HANDSHAKE_PACKET.make(msg_type=MSG_SYN, initiator_nonce=7, responder_nonce=0)
    )
    synack = [b""]  # the last SYN-ACK, which its responder caches anyway

    def reply(data):
        synack[0] = data

    with fastpath.use(mode="always"):
        manager = SessionManager("handshake", wheel=TimerWheel(), clock=lambda: 0.0)

        def handshake(peer):
            manager.frame_from(peer, syn, reply)
            nonce = HANDSHAKE_PACKET.try_parse(synack[0]).value.responder_nonce
            ack = HANDSHAKE_PACKET.make(
                msg_type=MSG_ACK, initiator_nonce=7, responder_nonce=nonce
            )
            manager.frame_from(peer, HANDSHAKE_PACKET.encode(ack), reply)

        for peer in peers[:WARMUP]:
            handshake(peer)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for peer in peers[WARMUP:]:
                handshake(peer)
            measured = (tracemalloc.get_traced_memory()[0] - before) / SESSIONS
        finally:
            tracemalloc.stop()
    assert len(manager.sessions) == len(peers)
    assert all(session.app.established for session in manager.sessions.values())
    assert measured < SESSION_BYTES, (
        f"{measured:.0f} B kept per Established handshake session, "
        f"budget {SESSION_BYTES}"
    )


def test_selective_repeat_sender_keeps_only_window_state():
    """A 3,000-message transfer with losses, sender and receiver in-process.

    Every 10th data frame and every 13th ack is dropped, so timers fire
    and retries are counted.  At no point may the sender hold an acked
    flag, timer or retry count for more sequence numbers than its window.
    """
    window, count = 16, 3000
    wheel = TimerWheel()
    to_receiver, to_sender = deque(), deque()
    sent = {"data": 0, "acks": 0}

    def lossy(queue, kind, every):
        def send(frame):
            sent[kind] += 1
            if sent[kind] % every:
                queue.append(frame)
        return send

    messages = [bytes([index % 256]) * 8 for index in range(count)]
    sender = SelectiveRepeatSender(
        lossy(to_receiver, "data", 10),
        messages=messages,
        window=window,
        timer=partial(WheelTimer, wheel),
    )
    receiver = SelectiveRepeatReceiver(lossy(to_sender, "acks", 13), window=window)
    peak = {"timers": 0, "acked": 0, "retries": 0}
    sender.start()
    while not (sender.done or sender.failed):
        if not (to_receiver or to_sender):
            wheel.advance(wheel.now + sender.rto)
        while to_receiver:
            receiver.on_frame(to_receiver.popleft())
        while to_sender:
            sender.on_frame(to_sender.popleft())
            for name in peak:
                peak[name] = max(peak[name], len(getattr(sender, name)))
    assert sender.done and receiver.delivered == messages
    assert sender.retransmissions > 0 and peak["retries"] > 0
    assert all(0 < held <= window for held in peak.values()), peak
