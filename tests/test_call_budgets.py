"""Per-frame call budgets on the receive path (paper §3.4 gate, compiled).

Each test counts the Python ``call`` events into code under
``src/repro`` or a generated codec or machine module
(``repro_generated_*``) while a
role or the session manager handles steady-state frames, and holds the
mean per frame to a budget.  Counts do not drift with host load the way
timings do, so a structural slip on the per-frame path — one more
function call on every frame — fails here on every push.

Comprehension frames (``<listcomp>``, ``<dictcomp>``, ``<setcomp>``) are
not counted: CPython 3.12 inlines them, so counting them would give the
3.10 and 3.12 CI jobs different numbers for the same code.
"""

import os
import sys

import pytest

import repro
from repro import fastpath, obs
from repro.protocols.arq import ARQ_PACKET, ArqReceiver
from repro.protocols.handshake import MSG_SYN, HANDSHAKE_PACKET, HandshakeResponder
from repro.protocols.sliding import SLIDING_PACKET, SelectiveRepeatReceiver
from repro.serve.manager import SessionManager
from repro.serve.wheel import TimerWheel

#: Calls per frame with the generated receive gate, make and machine
#: transitions, as measured: one more call per frame on a path fails it.
BUDGETS = {
    "ArqReceiver.on_frame": 46,
    "SelectiveRepeatReceiver.on_frame": 49,
    "HandshakeResponder.on_frame": 47,
    "SessionManager.frame_from": 51,
}

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
    """An established ARQ session, its queue drained inline."""
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
