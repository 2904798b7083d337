"""Loopback differential mode: real sockets vs the simulator oracle.

One call stands up the whole experiment on 127.0.0.1:

1. a recording :class:`~repro.serve.transport.Server` on an ephemeral
   UDP port;
2. N concurrent clients hosting the initiator role
   (:mod:`repro.serve.client`), each with
   deterministically derived payloads and seeds, optionally speaking
   through seeded loss/duplication/reorder impairment in both
   directions (outbound via
   :class:`~repro.serve.transport.LossyDatagramTransport`, inbound via
   a seeded filter in front of the client's frame handler);
3. every exchange the server recorded replayed through the
   :class:`~repro.netsim.replay.ScriptedHost` oracle and compared
   byte-for-byte (:mod:`repro.serve.replay`).

The report answers the only question that matters: *did the serving
plane host the protocol exactly as the simulator specifies it?*  Loss
and reordering do not perturb the answer — they reshape the recorded
inbound sequence, and the oracle replays that reshaped sequence.
"""

from __future__ import annotations

import asyncio
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.serve.client import RoleClient, WheelRunner, build_client
from repro.serve.manager import session_seed
from repro.serve.record import ExchangeRecord
from repro.serve.replay import DifferentialReport, replay_records
from repro.serve.transport import LossyDatagramTransport, ServeConfig, Server


@dataclass(frozen=True)
class LoopbackConfig:
    """One loopback differential experiment."""

    protocol: str = "arq"
    clients: int = 4
    messages: int = 6
    payload_size: int = 24
    window: int = 8
    seed: int = 0
    rto: float = 0.08
    loss_rate: float = 0.0
    duplication_rate: float = 0.0
    reorder_rate: float = 0.0
    client_timeout: float = 15.0
    check_model: bool = True


@dataclass
class LoopbackReport:
    """What happened, on both planes."""

    config: LoopbackConfig
    clients: List[Dict[str, Any]] = field(default_factory=list)
    server_stats: Dict[str, int] = field(default_factory=dict)
    records: List[ExchangeRecord] = field(default_factory=list)
    differential: Optional[DifferentialReport] = None

    @property
    def clients_ok(self) -> bool:
        return all(c["ok"] for c in self.clients)

    @property
    def ok(self) -> bool:
        """Clients completed and zero differential divergences."""
        return self.clients_ok and (
            self.differential is None or self.differential.ok
        )

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "protocol": self.config.protocol,
            "clients": len(self.clients),
            "clients_ok": sum(1 for c in self.clients if c["ok"]),
            "server": dict(self.server_stats),
            "ok": self.ok,
        }
        if self.differential is not None:
            out["differential"] = self.differential.summary()
        return out


def _derive_rng(seed: int, key: str) -> random.Random:
    """A deterministic per-role RNG (CRC32, never randomized str hash)."""
    return random.Random(zlib.crc32(f"{seed}:{key}".encode()))


def client_messages(config: LoopbackConfig, index: int) -> List[bytes]:
    """The payloads client ``index`` sends — derivable by any checker."""
    rng = _derive_rng(config.seed, f"client:{index}")
    return [
        bytes(rng.randrange(256) for _ in range(config.payload_size))
        for _ in range(config.messages)
    ]


def _lossy_inbound(
    on_frame: Callable[[bytes], None], rng: random.Random, config: LoopbackConfig
) -> Callable[[bytes], None]:
    """Seeded server->client impairment: drop/duplicate before the client."""

    def filtered(data: bytes) -> None:
        if rng.random() < config.loss_rate:
            return
        on_frame(data)
        if rng.random() < config.duplication_rate:
            on_frame(data)

    return filtered


async def run_loopback(config: LoopbackConfig) -> LoopbackReport:
    """Run one differential experiment end to end."""
    loop = asyncio.get_running_loop()
    app_params: Dict[str, Any] = (
        {"window": config.window} if config.protocol == "sliding" else {}
    )
    server = await Server.start(
        ServeConfig(
            protocol=config.protocol,
            kind="udp",
            max_sessions=max(config.clients * 2, 8),
            idle_timeout=max(4.0, config.client_timeout),
            seed=config.seed,
            record=True,
            app_params=app_params,
        )
    )
    runner = WheelRunner(loop).start()
    report = LoopbackReport(config=config)
    clients: List[RoleClient] = []
    impaired = config.loss_rate or config.duplication_rate or config.reorder_rate
    try:
        port = server.udp_port
        assert port is not None
        for index in range(config.clients):
            client = build_client(
                config.protocol,
                runner,
                messages=client_messages(config, index),
                seed=session_seed(config.seed, f"initiator:{index}"),
                rto=config.rto,
                window=config.window,
            )
            if impaired:
                client._on_frame = _lossy_inbound(  # server -> client leg
                    client._on_frame,
                    _derive_rng(config.seed, f"down:{index}"),
                    config,
                )
            await client.connect("127.0.0.1", port)
            if impaired:  # client -> server leg
                client.transport = LossyDatagramTransport(
                    client.transport,
                    loop,
                    seed=zlib.crc32(f"{config.seed}:up:{index}".encode()),
                    loss_rate=config.loss_rate,
                    duplication_rate=config.duplication_rate,
                    reorder_rate=config.reorder_rate,
                )
            clients.append(client)
        for client in clients:
            client.start()
        await asyncio.gather(
            *(client.wait(config.client_timeout) for client in clients)
        )
        # Let in-flight final frames (last acks, dup retransmits) land so
        # the records are complete before sessions are finalized.
        await asyncio.sleep(max(0.05, config.rto))
        for client in clients:
            report.clients.append(client.summary())
        report.server_stats = server.manager.stats()
        server.manager.close_all(reason="experiment")
        report.records = server.manager.collect_records()
    finally:
        for client in clients:
            client.close()
        await runner.close()
        await server.close()
    report.differential = replay_records(
        report.records, check_model=config.check_model
    )
    return report


def run_loopback_sync(config: LoopbackConfig) -> LoopbackReport:
    """Blocking wrapper for tests and the CLI."""
    return asyncio.run(run_loopback(config))
