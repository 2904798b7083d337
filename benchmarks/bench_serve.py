"""Serving-plane benchmark: sessions/sec and goodput over real sockets.

Four measurements, written to ``BENCH_serve.json``:

* ``manager_sessions_per_second`` — the session manager's accept path
  (demux, app build, wheel arm) driven synchronously, no sockets: the
  ceiling the transport can never beat.
* ``high_session`` — the density tier: ramp to 10k+ *concurrent*
  sessions in one manager, churn accepts through the oldest-idle shed
  path at full density, then measure the steady-state frame rate across
  the whole table, with peak RSS recorded as the memory envelope.
* ``handshake_sessions_per_second`` — concurrent three-way handshakes
  over real loopback UDP, client machines included: the end-to-end
  session-establishment rate.
* ``goodput`` — bytes of *delivered application payload* per second for
  a sliding-window transfer (and stop-and-wait ARQ as the contrast)
  over loopback UDP; protocol overhead, acks and retransmissions are
  excluded by construction because only receiver-delivered payload
  counts.

``--check`` compares against a committed baseline with generous bands
(loopback numbers ride the host's scheduler; only collapse, not jitter,
should fail CI).

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py              # write
    PYTHONPATH=src python benchmarks/bench_serve.py --check      # gate
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.protocols.arq import ARQ_PACKET
from repro.serve.client import WheelRunner, build_client
from repro.serve.loopback import LoopbackConfig, client_messages
from repro.serve.manager import SessionManager
from repro.serve.transport import ServeConfig, Server
from repro.serve.wheel import TimerWheel

SCHEMA = "repro.serve/bench/v2"

#: Relative floor versus the baseline before --check fails.  Loopback
#: throughput on shared CI runners swings hard; the gate is for
#: collapse (an accidental O(n^2), a lost fastpath), not for noise.
TOLERANCE = 0.25


def bench_manager_accept(sessions: int = 2000) -> Dict[str, Any]:
    """Synchronous accept-path throughput: frame_from with fresh peers."""
    wheel = TimerWheel(tick=0.005, now=0.0)
    manager = SessionManager(
        "arq",
        wheel=wheel,
        clock=time.perf_counter,
        max_sessions=sessions + 1,
        idle_timeout=3600.0,
    )
    packet = ARQ_PACKET.make(seq=0, length=4, payload=b"ping")
    frame = ARQ_PACKET.encode(packet)
    sink: List[bytes] = []
    start = time.perf_counter()
    for index in range(sessions):
        manager.frame_from(("127.0.0.1", 20000 + index), frame, sink.append)
    elapsed = time.perf_counter() - start
    assert manager.stats()["active"] == sessions
    assert len(sink) == sessions  # every session acked
    # Session and manager point at each other: closing frees the sessions
    # by reference counting now, instead of leaving cyclic garbage whose
    # collection would land inside a later, timed tier.
    manager.close_all()
    return {
        "sessions": sessions,
        "seconds": round(elapsed, 6),
        "sessions_per_second": round(sessions / elapsed, 1),
    }


def bench_high_session(
    sessions: int = 10000, churn: int = 2000, frames: int = 30000
) -> Dict[str, Any]:
    """The density tier: ramp, churn and serve at 10k+ concurrent.

    Three phases against one manager (synchronous, like the accept
    bench — this measures the datapath, not the socket):

    1. **ramp** — open ``sessions`` fresh peers; every one stays live
       (``max_sessions`` admits them all), so the table really holds
       that many concurrent sessions when phase 2 starts.
    2. **churn** — offer ``churn`` more fresh peers at full capacity;
       each admission sheds the oldest-idle session first, so this is
       the accept path *plus* the shed heap at density.
    3. **steady state** — one more frame to every live session (a
       duplicate, so the ARQ app re-acks it: parse, machine probe and
       send all run), measuring per-frame cost across the full table.

    Peak RSS is recorded as the memory envelope; ``concurrent_sessions``
    is asserted, not sampled.
    """
    import resource

    wheel = TimerWheel(tick=0.01, now=0.0)
    manager = SessionManager(
        "arq",
        wheel=wheel,
        clock=time.perf_counter,
        max_sessions=sessions,
        idle_timeout=3600.0,
    )
    packet = ARQ_PACKET.make(seq=0, length=4, payload=b"ping")
    frame = ARQ_PACKET.encode(packet)
    sink: List[bytes] = []
    send = sink.append

    start = time.perf_counter()
    for index in range(sessions):
        manager.frame_from(("10.0.0.1", index), frame, send)
    ramp_elapsed = time.perf_counter() - start
    assert manager.stats()["active"] == sessions
    assert manager.shed_total == 0

    start = time.perf_counter()
    for index in range(churn):
        manager.frame_from(("10.0.0.2", index), frame, send)
    churn_elapsed = time.perf_counter() - start
    assert manager.stats()["active"] == sessions
    assert manager.shed_total == churn  # every churn accept shed one

    peers = list(manager.sessions)
    count = len(peers)
    start = time.perf_counter()
    for index in range(frames):
        manager.frame_from(peers[index % count], frame, send)
    steady_elapsed = time.perf_counter() - start
    assert len(sink) == sessions + churn + frames  # every frame acked

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    concurrent = manager.stats()["active"]
    manager.close_all()  # as in bench_manager_accept: no cyclic garbage left
    return {
        "concurrent_sessions": concurrent,
        "ramp_seconds": round(ramp_elapsed, 6),
        "accepts_per_second": round(sessions / ramp_elapsed, 1),
        "churn_accepts": churn,
        "churn_seconds": round(churn_elapsed, 6),
        "churn_accepts_per_second": (
            round(churn / churn_elapsed, 1) if churn_elapsed else 0.0
        ),
        "steady_frames": frames,
        "steady_seconds": round(steady_elapsed, 6),
        "frames_per_second": (
            round(frames / steady_elapsed, 1) if steady_elapsed else 0.0
        ),
        "peak_rss_kb": peak_rss_kb,
    }


async def _bench_handshakes(clients: int, seed: int) -> Dict[str, Any]:
    server = await Server.start(
        ServeConfig(protocol="handshake", kind="udp", max_sessions=clients * 2)
    )
    runner = WheelRunner(asyncio.get_running_loop()).start()
    port = server.udp_port
    assert port is not None
    try:
        batch = [
            build_client("handshake", runner, seed=seed + index, rto=0.25)
            for index in range(clients)
        ]
        for client in batch:
            await client.connect("127.0.0.1", port)
        start = time.perf_counter()
        for client in batch:
            client.start()
        results = await asyncio.gather(*(c.wait(20.0) for c in batch))
        elapsed = time.perf_counter() - start
        ok = sum(1 for r in results if r)
        for client in batch:
            client.close()
    finally:
        await runner.close()
        await server.close()
    return {
        "clients": clients,
        "established": ok,
        "seconds": round(elapsed, 6),
        "sessions_per_second": round(ok / elapsed, 1) if elapsed else 0.0,
    }


async def _bench_goodput(
    protocol: str, messages: int, payload_size: int, window: int, seed: int
) -> Dict[str, Any]:
    app_params = {"window": window} if protocol == "sliding" else {}
    server = await Server.start(
        ServeConfig(protocol=protocol, kind="udp", app_params=app_params)
    )
    runner = WheelRunner(asyncio.get_running_loop()).start()
    port = server.udp_port
    assert port is not None
    payloads = client_messages(
        LoopbackConfig(
            messages=messages, payload_size=payload_size, seed=seed
        ),
        0,
    )
    try:
        client = build_client(
            protocol, runner, messages=payloads, rto=0.25, window=window
        )
        await client.connect("127.0.0.1", port)
        start = time.perf_counter()
        client.start()
        ok = await client.wait(60.0)
        elapsed = time.perf_counter() - start
        sessions = list(server.manager.sessions.values())
        delivered = sum(
            len(p) for s in sessions for p in getattr(s.app, "delivered", [])
        )
        client.close()
    finally:
        await runner.close()
        await server.close()
    payload_bytes = sum(len(p) for p in payloads)
    return {
        "protocol": protocol,
        "messages": messages,
        "payload_bytes": payload_bytes,
        "delivered_bytes": delivered,
        "ok": bool(ok and delivered == payload_bytes),
        "seconds": round(elapsed, 6),
        "goodput_bytes_per_second": (
            round(delivered / elapsed, 1) if elapsed else 0.0
        ),
        "frames_sent": client.frames_sent,
        "retransmissions": client.retransmissions,
    }


def run(seed: int = 0, scale: float = 1.0) -> Dict[str, Any]:
    """Run every measurement; ``scale`` shrinks budgets for smoke runs."""
    report: Dict[str, Any] = {
        "schema": SCHEMA,
        "seed": seed,
        "scale": scale,
    }
    report["manager_accept"] = bench_manager_accept(
        sessions=max(200, int(2000 * scale))
    )
    report["high_session"] = bench_high_session(
        sessions=max(1000, int(10000 * scale)),
        churn=max(200, int(2000 * scale)),
        frames=max(3000, int(30000 * scale)),
    )
    report["handshakes"] = asyncio.run(
        _bench_handshakes(clients=max(10, int(60 * scale)), seed=seed)
    )
    report["goodput_sliding"] = asyncio.run(
        _bench_goodput(
            "sliding",
            messages=max(50, int(400 * scale)),
            payload_size=200,
            window=16,
            seed=seed,
        )
    )
    report["goodput_arq"] = asyncio.run(
        _bench_goodput(
            "arq",
            messages=max(25, int(150 * scale)),
            payload_size=200,
            window=1,
            seed=seed,
        )
    )
    return report


_GATES = [
    ("manager_accept", "sessions_per_second"),
    ("high_session", "accepts_per_second"),
    ("high_session", "churn_accepts_per_second"),
    ("high_session", "frames_per_second"),
    ("handshakes", "sessions_per_second"),
    ("goodput_sliding", "goodput_bytes_per_second"),
    ("goodput_arq", "goodput_bytes_per_second"),
]


def check(report: Dict[str, Any], baseline: Optional[Dict[str, Any]]) -> List[str]:
    """Structural and (against a baseline) regression problems."""
    problems: List[str] = []
    hs = report["handshakes"]
    if hs["established"] != hs["clients"]:
        problems.append(
            f"handshakes: only {hs['established']}/{hs['clients']} established"
        )
    for key in ("goodput_sliding", "goodput_arq"):
        if not report[key]["ok"]:
            problems.append(f"{key}: transfer incomplete ({report[key]})")
    # No sliding-vs-arq ordering gate: on loopback the RTT is ~0, so
    # window pipelining buys nothing and per-packet timer bookkeeping
    # can put stop-and-wait ahead — window wins need real delay, which
    # the netsim benches (bench_windows.py) measure under control.
    if baseline is None:
        return problems
    if baseline.get("schema") != report["schema"]:
        problems.append(
            f"baseline schema {baseline.get('schema')!r} != {SCHEMA!r}; "
            "regenerate BENCH_serve.json"
        )
        return problems
    for section, metric in _GATES:
        base = baseline.get(section, {}).get(metric)
        new = report.get(section, {}).get(metric)
        if not base or not new:
            continue
        if new < base * TOLERANCE:
            problems.append(
                f"{section}/{metric}: {new:,.0f} < "
                f"{TOLERANCE:.0%} of baseline {base:,.0f}"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="budget multiplier; 0.2 gives a quick smoke run (default 1.0)",
    )
    parser.add_argument("--output", default="BENCH_serve.json", metavar="FILE")
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="baseline for --check (default: --output path, read first)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 on structural failure or collapse versus the baseline",
    )
    args = parser.parse_args(argv)

    baseline = None
    baseline_path = args.baseline or args.output
    if args.check and os.path.exists(baseline_path):
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)

    report = run(seed=args.seed, scale=args.scale)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for section, metric in _GATES:
        value = report[section][metric]
        print(f"{section:18s} {metric}: {value:,.1f}")
    print(f"wrote {args.output}")

    if args.check:
        problems = check(report, baseline)
        if problems:
            for problem in problems:
                print(f"CHECK FAILED: {problem}", file=sys.stderr)
            return 1
        print("check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
