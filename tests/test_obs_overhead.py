"""The observability overhead guard (CI gate).

The contract of ``repro.obs`` is that *instrumented but disabled* code is
effectively free: the hot paths (``Machine.exec_trans``,
``codec.decode_packet``) pay roughly one attribute check when the
injected instrumentation is off.  These tests hold that contract to a
number: a disabled ``Instrumentation`` must run within 1.10x of the
no-op-instrumentation baseline (``NULL_OBS``, the permanently-off
singleton — the closest runtime stand-in for uninstrumented code, since
both take the identical fast path).

The estimate is the median of paired trial ratios (:func:`paired_ratio`).
On a loaded host a slowdown is not a rare spike but a phase lasting many
trials — a busy neighbour on the sibling core can double a trial's time
for tens of milliseconds — so the fastest trial of one side may come
from a phase the other side never saw.  Each subject trial is paired
with the baseline trial next to it, in alternating order: both see the
same phase, a pair split by a phase change is an outlier the median
ignores, and a real overhead moves every pair's ratio.
"""

import statistics
import time
from typing import Callable

from repro.core import codec
from repro.core.fields import Bytes, ChecksumField, UInt
from repro.core.machine import Machine
from repro.core.packet import PacketSpec
from repro.core.statemachine import MachineSpec, Param
from repro.core.symbolic import Var, this
from repro.obs import NULL_OBS, Instrumentation
from repro.protocols.arq import ARQ_PACKET
from repro.serve.manager import SessionManager
from repro.serve.wheel import TimerWheel

MAX_OVERHEAD = 1.10
PAIRS = 31  # odd, so the median is one measured pair
TRANSITIONS = 1500
DECODES = 3000
SERVE_PEERS = 64
SERVE_FRAMES = 500

PKT = PacketSpec(
    "OverheadPkt",
    fields=[
        UInt("seq", bits=8),
        ChecksumField("chk", algorithm="xor8", over=("seq", "length", "payload")),
        UInt("length", bits=8),
        Bytes("payload", length=this.length),
    ],
)


def _cycle_spec():
    spec = MachineSpec("overhead")
    seq = Param("seq", bits=8)
    ready = spec.state("Ready", params=[seq], initial=True)
    wait = spec.state("Wait", params=[seq])
    n = Var("seq")
    spec.transition("SEND", ready(n), wait(n), requires="bytes")
    spec.transition("FAIL", wait(n), ready(n))
    return spec.seal()


SPEC = _cycle_spec()
WIRE = PKT.encode(PKT.make(seq=3, length=4, payload=b"abcd"))


def _time_transitions(obs) -> float:
    machine = Machine(SPEC, obs=obs)
    exec_trans = machine.exec_trans
    start = time.perf_counter()
    for _ in range(TRANSITIONS):
        exec_trans("SEND", b"x")
        exec_trans("FAIL")
    return time.perf_counter() - start


def _time_decodes(obs) -> float:
    start = time.perf_counter()
    for _ in range(DECODES):
        codec.decode_packet(PKT, WIRE, obs=obs)
    return time.perf_counter() - start


_ARQ_WIRE = ARQ_PACKET.encode(ARQ_PACKET.make(seq=0, length=4, payload=b"ping"))


def _time_serve_datapath(obs) -> float:
    """The serve demux hot path: frame_from + inline drain, at density.

    Accepts run untimed (they include app construction); the timed
    region is the steady-state per-frame path the slab rewrite made
    allocation-free — one dict lookup, slab indexing, drain, app
    dispatch, ack out.
    """
    wheel = TimerWheel(tick=0.01, now=0.0)
    manager = SessionManager(
        "arq",
        wheel=wheel,
        clock=time.perf_counter,
        max_sessions=SERVE_PEERS * 2,
        idle_timeout=3600.0,
        obs=obs,
    )
    sink = []
    send = sink.append
    peers = [("overhead-peer", index) for index in range(SERVE_PEERS)]
    for peer in peers:
        manager.frame_from(peer, _ARQ_WIRE, send)
    frame_from = manager.frame_from
    start = time.perf_counter()
    for index in range(SERVE_FRAMES):
        frame_from(peers[index % SERVE_PEERS], _ARQ_WIRE, send)
    return time.perf_counter() - start


def paired_ratio(
    baseline: Callable[[], float], subject: Callable[[], float], pairs: int = PAIRS
) -> float:
    """Median over ``pairs`` adjacent trials of ``subject() / baseline()``.

    Each callable runs one trial and returns its duration.  Pairs
    alternate which side runs first, so neither side always inherits
    the other's garbage or cache state.
    """
    baseline()  # warm caches before the first timed trial
    subject()
    ratios = []
    for index in range(pairs):
        if index % 2:
            after = subject()
            ratios.append(after / baseline())
        else:
            before = baseline()
            ratios.append(subject() / before)
    return statistics.median(ratios)


def _disabled_ratio(measure) -> float:
    disabled = Instrumentation(enabled=False)
    assert disabled.enabled is False and NULL_OBS.enabled is False
    return paired_ratio(lambda: measure(NULL_OBS), lambda: measure(disabled))


def test_exec_trans_disabled_overhead_within_bound():
    ratio = _disabled_ratio(_time_transitions)
    assert ratio <= MAX_OVERHEAD, (
        f"instrumented-but-disabled exec_trans is {ratio:.3f}x the no-op "
        f"baseline (bound {MAX_OVERHEAD}x)"
    )


def test_decode_packet_disabled_overhead_within_bound():
    ratio = _disabled_ratio(_time_decodes)
    assert ratio <= MAX_OVERHEAD, (
        f"instrumented-but-disabled decode_packet is {ratio:.3f}x the no-op "
        f"baseline (bound {MAX_OVERHEAD}x)"
    )


def test_serve_datapath_disabled_overhead_within_bound():
    ratio = _disabled_ratio(_time_serve_datapath)
    assert ratio <= MAX_OVERHEAD, (
        f"instrumented-but-disabled serve datapath is {ratio:.3f}x the "
        f"no-op baseline (bound {MAX_OVERHEAD}x)"
    )


def test_disabled_export_plane_stays_within_bound(monkeypatch):
    """The live-export plane must cost nothing when not asked for.

    With ``REPRO_OBS_EXPORT`` unset (or an off token) no exporter is even
    constructed — so the hot paths run the exact disabled-instrumentation
    code measured above, and the same 1.10x gate must hold with the
    environment explicitly in the disabled state.
    """
    from repro.obs.live.expose import Exporter
    from repro.obs.live.flightrec import active_recorder, reset_env_cache

    monkeypatch.delenv("REPRO_OBS_EXPORT", raising=False)
    monkeypatch.delenv("REPRO_OBS_FLIGHTREC", raising=False)
    assert Exporter.from_env() is None
    assert Exporter.from_env({"REPRO_OBS_EXPORT": "off"}) is None
    reset_env_cache()
    assert active_recorder() is None

    ratio = _disabled_ratio(_time_decodes)
    assert ratio <= MAX_OVERHEAD, (
        f"decode_packet with the export plane disabled is {ratio:.3f}x the "
        f"no-op baseline (bound {MAX_OVERHEAD}x)"
    )
    reset_env_cache()
