"""The asyncio transport layer: real sockets under the session manager.

Three pieces:

* :class:`UdpServeProtocol` — one datagram endpoint, sessions keyed by
  source address.
* :class:`TcpServeProtocol` — one connection per session, frames
  restored by :class:`~repro.serve.framing.StreamDeframer`.
* :class:`Server` — binds either (or both) listener kinds, owns the
  hashed timer wheel and its tick task, publishes obs snapshots to the
  ``REPRO_OBS_EXPORT`` plane while running and a ``final`` one on
  close, and tears everything down cleanly.

Both listeners hand each frame to the manager, which runs it through the
session's role before the transport callback returns.  Neither keeps a
queue: the kernel's socket buffers are the only one, so a UDP socket
drops on overflow and TCP flow control pushes back on the peer's send
buffer.

:class:`LossyDatagramTransport` is the test/demo impairment shim: a
``tc netem``-style wrapper over a real ``DatagramTransport`` that
drops, duplicates, reorders and delays outbound datagrams from a seeded
RNG — loss the differential oracle never needs to model, because its
effects are visible in what the endpoints actually received.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, Optional, Tuple

from repro.obs.instrument import Instrumentation, get_default
from repro.serve.framing import FramingError, StreamDeframer, encode_frame
from repro.serve.manager import SendFactory, SessionManager
from repro.serve.wheel import TimerWheel

#: The server's timer wheel: seconds per tick and slot count (a 2.56 s
#: horizon before deadlines wrap to a later lap).
WHEEL_TICK = 0.005
WHEEL_SLOTS = 512


@dataclass(frozen=True)
class ServeConfig:
    """Everything a listener needs; the CLI maps straight onto this."""

    protocol: str = "arq"
    host: str = "127.0.0.1"
    port: int = 0  # 0: let the kernel pick (tests)
    kind: str = "udp"  # "udp" | "tcp" | "both"
    max_sessions: int = 1024
    idle_timeout: float = 30.0
    seed: int = 0
    record: bool = False
    app_params: Dict[str, Any] = dataclass_field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("udp", "tcp", "both"):
            raise ValueError(f"kind must be udp|tcp|both, got {self.kind!r}")


class UdpServeProtocol(asyncio.DatagramProtocol):
    """Datagram listener: every source address is a session.

    The per-datagram path passes one long-lived :class:`SendFactory` to
    the manager; the per-peer send closure is built exactly once, when a
    session opens — a frame on an existing session allocates nothing
    here.
    """

    def __init__(self, manager: SessionManager) -> None:
        self.manager = manager
        self.transport: Optional[asyncio.DatagramTransport] = None
        self._send_factory: Optional[SendFactory] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        sendto = transport.sendto  # type: ignore[attr-defined]

        def build(addr: Tuple[str, int]) -> Any:
            def send(frame: bytes, _addr: Tuple[str, int] = addr) -> None:
                sendto(frame, _addr)

            return send

        self._send_factory = SendFactory(build)

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        if self.transport is None:
            return
        self.manager.frame_from(addr, data, self._send_factory)


class TcpServeProtocol(asyncio.Protocol):
    """Stream listener: one connection, one session, framed frames."""

    def __init__(self, manager: SessionManager) -> None:
        self.manager = manager
        self.transport: Optional[asyncio.Transport] = None
        self.deframer = StreamDeframer()
        self.peer: Any = None
        self._send: Any = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.peer = transport.get_extra_info("peername")
        write = transport.write  # type: ignore[attr-defined]

        # One send closure per connection (the manager captures it at
        # session open), not one per received chunk.
        def send(frame: bytes) -> None:
            write(encode_frame(frame))

        self._send = send

    def data_received(self, data: bytes) -> None:
        transport = self.transport
        if transport is None:
            return
        try:
            frames = self.deframer.feed(data)
        except FramingError:
            # A desynchronized stream cannot be re-synchronized; kill it.
            self.manager.close(self.peer, reason="framing")
            transport.close()
            return
        for frame in frames:
            self.manager.frame_from(self.peer, frame, self._send)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self.peer is not None:
            self.manager.close(self.peer, reason="peer")


class LossyDatagramTransport:
    """Seeded netem-style impairment over a real datagram transport.

    Wraps ``sendto``: each outbound datagram may be dropped, duplicated,
    or delayed (delay past a later frame = reordering on the wire).  All
    randomness flows from the seeded RNG, so a test's *impairment
    decisions* are reproducible even though socket timing is not — the
    differential harness depends only on the former.
    """

    def __init__(
        self,
        transport: asyncio.DatagramTransport,
        loop: asyncio.AbstractEventLoop,
        seed: int = 0,
        loss_rate: float = 0.0,
        duplication_rate: float = 0.0,
        reorder_rate: float = 0.0,
        reorder_delay: float = 0.02,
    ) -> None:
        self.transport = transport
        self.loop = loop
        self.rng = random.Random(seed)
        self.loss_rate = loss_rate
        self.duplication_rate = duplication_rate
        self.reorder_rate = reorder_rate
        self.reorder_delay = reorder_delay
        self.sent = 0
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0

    def sendto(self, data: bytes, addr: Any = None) -> None:
        self.sent += 1
        if self.rng.random() < self.loss_rate:
            self.dropped += 1
            return
        copies = 1
        if self.rng.random() < self.duplication_rate:
            copies = 2
            self.duplicated += 1
        for _ in range(copies):
            if self.rng.random() < self.reorder_rate:
                self.reordered += 1
                self.loop.call_later(
                    self.reorder_delay, self._send_now, data, addr
                )
            else:
                self._send_now(data, addr)

    def _send_now(self, data: bytes, addr: Any) -> None:
        if not self.transport.is_closing():
            self.transport.sendto(data, addr)

    def close(self) -> None:
        self.transport.close()

    def is_closing(self) -> bool:
        return self.transport.is_closing()

    def __getattr__(self, name: str) -> Any:
        return getattr(self.transport, name)


class Server:
    """A bound serving plane: listeners + wheel tick + telemetry export.

    One :class:`SessionManager` serves the UDP and/or TCP listener, and
    the server's one :class:`TimerWheel` tick task drives its timers.
    """

    def __init__(
        self,
        config: ServeConfig,
        loop: asyncio.AbstractEventLoop,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.config = config
        self.loop = loop
        self.obs = obs if obs is not None else get_default()
        self.wheel = TimerWheel(tick=WHEEL_TICK, slots=WHEEL_SLOTS, now=loop.time())
        self.manager = SessionManager(
            config.protocol,
            wheel=self.wheel,
            clock=loop.time,
            max_sessions=config.max_sessions,
            idle_timeout=config.idle_timeout,
            app_params=config.app_params,
            seed=config.seed,
            record=config.record,
            obs=self.obs,
        )
        self.udp_transport: Optional[asyncio.DatagramTransport] = None
        self.tcp_server: Optional[asyncio.AbstractServer] = None
        self._tick_task: Optional[asyncio.Task] = None
        self._exporter: Any = None
        self._export_every = 0.25
        self._last_export = 0.0

    @classmethod
    async def start(
        cls,
        config: ServeConfig,
        obs: Optional[Instrumentation] = None,
    ) -> "Server":
        """Bind the configured listeners and start ticking the wheel."""
        loop = asyncio.get_running_loop()
        server = cls(config, loop, obs=obs)
        if config.kind in ("udp", "both"):
            transport, _ = await loop.create_datagram_endpoint(
                lambda: UdpServeProtocol(server.manager),
                local_addr=(config.host, config.port),
            )
            server.udp_transport = transport
        if config.kind in ("tcp", "both"):
            tcp_port = config.port
            if config.kind == "both" and config.port == 0 and server.udp_transport:
                tcp_port = 0  # independent ephemeral ports
            server.tcp_server = await loop.create_server(
                lambda: TcpServeProtocol(server.manager),
                host=config.host,
                port=tcp_port,
            )
        # Telemetry export plane: same env contract as the conformance CLI.
        from repro.obs.live.expose import Exporter

        server._exporter = Exporter.from_env()
        server._tick_task = loop.create_task(server._tick_forever())
        return server

    @property
    def udp_port(self) -> Optional[int]:
        """The bound UDP port (None when not listening on UDP)."""
        if self.udp_transport is None:
            return None
        return self.udp_transport.get_extra_info("sockname")[1]

    @property
    def tcp_port(self) -> Optional[int]:
        """The bound TCP port (None when not listening on TCP)."""
        if self.tcp_server is None or not self.tcp_server.sockets:
            return None
        return self.tcp_server.sockets[0].getsockname()[1]

    async def _tick_forever(self) -> None:
        try:
            while True:
                await asyncio.sleep(WHEEL_TICK)
                now = self.loop.time()
                self.wheel.advance(now)
                exporter = self._exporter
                if (
                    exporter is not None
                    and self.obs.enabled
                    and now - self._last_export >= self._export_every
                ):
                    self._last_export = now
                    exporter.publish(self.obs.registry.snapshot())
        except asyncio.CancelledError:
            pass

    async def close(self) -> None:
        """Stop listeners, reap sessions, stop the wheel and exporter.

        The exporter's last record is a ``final`` snapshot, which ends a
        ``python -m repro.obs top`` following the stream.
        """
        if self._tick_task is not None:
            self._tick_task.cancel()
            try:
                await self._tick_task
            except asyncio.CancelledError:
                pass
            self._tick_task = None
        if self.udp_transport is not None:
            self.udp_transport.close()
            self.udp_transport = None
        if self.tcp_server is not None:
            self.tcp_server.close()
            await self.tcp_server.wait_closed()
            self.tcp_server = None
        self.manager.close_all(reason="shutdown")
        if self._exporter is not None:
            self._exporter.publish(self.obs.registry.snapshot(), phase="final")
            try:
                self._exporter.close()
            except Exception:
                pass
            self._exporter = None
