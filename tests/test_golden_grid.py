"""Golden netsim grid: every simulator driver's wire log, pinned by digest.

Each cell runs one ``run_*`` host over one channel model and seed and
records a CRC32 of the wire log in each direction — every frame as it
entered its channel, with its virtual send time — plus the fields of
the run's report.  ``tests/golden_grid.json`` holds the digests taken
before the protocol roles were unified into one class each, so any
change to what a role sends, when it sends it, or what it reports shows
up here as a changed cell.

Every cell matches, except the handshake cells listed in
:data:`RESENT_SYNACK`: there a duplicated SYN reaches the responder while
it waits in SynReceived, and the unified responder — the serving
plane's — resends its cached SYN-ACK where the old simulator-only
responder stayed silent.  Those cells must differ by exactly those
resent frames and nothing else.

Regenerate the file (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_golden_grid.py > tests/golden_grid.json

A regenerated file records today's roles, resent SYN-ACKs included, so
empty :data:`RESENT_SYNACK` in the same change.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

import pytest

from repro.netsim.channel import Channel, ChannelConfig
from repro.protocols.arq import ArqReceiver, ArqSender, run_transfer
from repro.protocols.handshake import (
    HandshakeInitiator,
    HandshakeResponder,
    run_handshake,
)
from repro.protocols.role import Role
from repro.protocols.sliding import (
    SelectiveRepeatReceiver,
    SelectiveRepeatSender,
    run_gbn_transfer,
    run_sr_transfer,
)

GOLDEN = Path(__file__).with_name("golden_grid.json")

CHANNELS: Dict[str, ChannelConfig] = {
    "clean": ChannelConfig(),
    "loss": ChannelConfig(loss_rate=0.2),
    "corruption": ChannelConfig(corruption_rate=0.2),
    "duplication": ChannelConfig(duplication_rate=0.3),
    "reorder": ChannelConfig(reorder_rate=0.3),
    "mixed": ChannelConfig(
        loss_rate=0.1, corruption_rate=0.1, duplication_rate=0.1, reorder_rate=0.1
    ),
}

MESSAGES = [bytes([index]) * (index % 7 + 1) for index in range(12)]

#: host name -> (seeds, run(config, seed) -> report fields)
HOSTS: Dict[str, Tuple[range, Callable[[ChannelConfig, int], Dict[str, Any]]]] = {
    "arq": (
        range(8),
        lambda config, seed: vars(run_transfer(MESSAGES, config, seed=seed)),
    ),
    "arq_adaptive": (
        range(8),
        lambda config, seed: vars(
            run_transfer(MESSAGES, config, seed=seed, adaptive_rto=True, max_rto=2.0)
        ),
    ),
    "sr": (
        range(8),
        lambda config, seed: vars(
            run_sr_transfer(MESSAGES, config, window=4, seed=seed)
        ),
    ),
    "gbn": (
        range(8),
        lambda config, seed: vars(
            run_gbn_transfer(MESSAGES, config, window=4, seed=seed)
        ),
    ),
    "handshake": (
        range(40),
        lambda config, seed: vars(run_handshake(config, seed=seed)),
    ),
}


#: (host, channel, seed) -> cached SYN-ACKs the responder resends.  At 30%
#: duplication the SYN is duplicated in these seeds; both copies arrive
#: together, the first moves the responder to SynReceived and the second
#: draws the cached SYN-ACK.  Outcome, final states, the initiator's
#: frames and every other responder frame are unchanged.
RESENT_SYNACK: Dict[Tuple[str, str, int], int] = {
    ("handshake", "duplication", seed): 1 for seed in (2, 4, 5, 10, 13, 31, 37)
}


def _cells() -> Iterator[Tuple[str, str, int]]:
    for host, (seeds, _) in HOSTS.items():
        for channel in CHANNELS:
            for seed in seeds:
                yield host, channel, seed


def _digest(log: List[Tuple[float, bytes]]) -> int:
    crc = 0
    for when, frame in log:
        crc = zlib.crc32(struct.pack("<dH", when, len(frame)) + frame, crc)
    return crc


def _plain(value: Any) -> Any:
    """Report fields as JSON values; lists become ``[length, CRC32]``."""
    if isinstance(value, list):
        items = [v if isinstance(v, bytes) else str(v).encode() for v in value]
        return [len(items), zlib.crc32(b"\0".join(items))]
    return value


def run_cell(host: str, channel: str, seed: int) -> Tuple[Dict[str, Any], Dict]:
    """One cell: (digest record, raw wire logs keyed by channel name)."""
    logs: Dict[str, List[Tuple[float, bytes]]] = {}
    original = Channel.send

    def logged(self: Channel, frame: bytes) -> None:
        logs.setdefault(self.name, []).append((self.sim.now, bytes(frame)))
        original(self, frame)

    Channel.send = logged  # type: ignore[method-assign]
    try:
        report = HOSTS[host][1](CHANNELS[channel], seed)
    finally:
        Channel.send = original  # type: ignore[method-assign]
    record = {
        "wire": {name: _digest(log) for name, log in sorted(logs.items())},
        "report": {key: _plain(value) for key, value in sorted(report.items())},
    }
    return record, logs


def grid() -> Dict[str, Dict[str, Any]]:
    return {
        f"{host}/{channel}/{seed}": run_cell(host, channel, seed)[0]
        for host, channel, seed in _cells()
    }


# -- the checks --------------------------------------------------------------


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_the_grid(golden):
    assert sorted(golden) == sorted(f"{h}/{c}/{s}" for h, c, s in _cells())


def _without_resends(log: List[Tuple[float, bytes]]) -> Tuple[list, int]:
    """The log minus frames that repeat an earlier one; and how many."""
    seen = set()
    kept = []
    for when, frame in log:
        if frame not in seen:
            seen.add(frame)
            kept.append((when, frame))
    return kept, len(log) - len(kept)


@pytest.mark.parametrize("host", sorted(HOSTS))
@pytest.mark.parametrize("channel", sorted(CHANNELS))
def test_cells_match_golden(golden, host, channel):
    for seed in HOSTS[host][0]:
        key = f"{host}/{channel}/{seed}"
        record, logs = run_cell(host, channel, seed)
        resent = RESENT_SYNACK.get((host, channel, seed), 0)
        if not resent:
            assert record == golden[key], key
            continue
        want = golden[key]
        assert record["wire"]["initiator->responder"] == (
            want["wire"]["initiator->responder"]
        ), key
        kept, dropped = _without_resends(logs["responder->initiator"])
        assert dropped == resent, key
        assert _digest(kept) == want["wire"]["responder->initiator"], key
        report = dict(record["report"])
        report["frames_sent"] -= resent
        assert report == want["report"], key


def test_every_host_runs_the_same_role_classes(monkeypatch):
    """Netsim, the session manager and the socket clients share classes."""
    import asyncio

    from repro.serve.apps import APPS
    from repro.serve.client import (
        ArqClient,
        HandshakeClient,
        SlidingClient,
        WheelRunner,
        build_client,
    )
    from repro.serve.manager import SessionManager
    from repro.serve.wheel import TimerWheel

    built: List[type] = []
    original = Role.__init__

    def spy(self: Role, *args: Any, **kwargs: Any) -> None:
        built.append(type(self))
        original(self, *args, **kwargs)

    monkeypatch.setattr(Role, "__init__", spy)
    run_transfer(MESSAGES[:2])
    run_sr_transfer(MESSAGES[:2])
    run_handshake()
    roles = {
        "arq": (ArqSender, ArqReceiver),
        "sliding": (SelectiveRepeatSender, SelectiveRepeatReceiver),
        "handshake": (HandshakeInitiator, HandshakeResponder),
    }
    assert set(built) >= {cls for pair in roles.values() for cls in pair}
    assert sorted(APPS) == sorted(roles)
    loop = asyncio.new_event_loop()
    try:
        runner = WheelRunner(loop)
        for protocol, (initiator, responder) in roles.items():
            assert APPS[protocol] is responder
            assert responder.initiator is initiator
            client = build_client(protocol, runner, messages=[b"x"])
            assert type(client.role) is initiator
            manager = SessionManager(protocol, wheel=TimerWheel(), clock=lambda: 0.0)
            session = manager.frame_from("peer", b"", lambda data: None).session
            assert type(session.app) is responder
        assert type(ArqClient(runner, [b"x"]).role) is ArqSender
        assert type(SlidingClient(runner, [b"x"]).role) is SelectiveRepeatSender
        assert type(HandshakeClient(runner).role) is HandshakeInitiator
    finally:
        loop.close()


if __name__ == "__main__":
    lines = [
        f"{json.dumps(key)}: {json.dumps(record, sort_keys=True)}"
        for key, record in sorted(grid().items())
    ]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
