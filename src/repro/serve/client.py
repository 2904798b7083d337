"""Socket clients: the protocols' initiator roles hosted on real UDP.

A :class:`RoleClient` hosts one initiator role — the very class the
simulator runs (:class:`~repro.protocols.arq.ArqSender`,
:class:`~repro.protocols.sliding.SelectiveRepeatSender`,
:class:`~repro.protocols.handshake.HandshakeInitiator`) — and supplies
only the substrate: ``send`` is ``transport.sendto``, the timer factory
builds a :class:`~repro.serve.wheel.WheelTimer` on the shared wheel,
and completion resolves an :class:`asyncio.Future`.  The protocol
reasoning — which transition fires, what a verified frame proves — is
the role's alone: it doesn't know it moved from the simulator to a
socket.  :class:`ArqClient`, :class:`SlidingClient` and
:class:`HandshakeClient` fix the role and its parameters.

All clients share one :class:`WheelRunner` (one tick task advancing one
wheel off ``loop.time()``); 500 concurrent clients cost 500 wheel
entries, not 500 ``call_later`` handles churning the loop's heap.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Type

from repro.protocols.arq import ArqSender
from repro.protocols.handshake import HandshakeInitiator
from repro.protocols.role import Role
from repro.protocols.sliding import SelectiveRepeatSender
from repro.serve.apps import app_class
from repro.serve.wheel import TimerWheel, WheelTimer


class WheelRunner:
    """One ticking hashed wheel shared by any number of clients."""

    def __init__(
        self, loop: asyncio.AbstractEventLoop, tick: float = 0.005
    ) -> None:
        self.loop = loop
        self.wheel = TimerWheel(tick=tick, slots=512, now=loop.time())
        self._tick = tick
        self._task: Optional[asyncio.Task] = None

    def start(self) -> "WheelRunner":
        if self._task is None:
            self._task = self.loop.create_task(self._run())
        return self

    async def _run(self) -> None:
        try:
            while True:
                await asyncio.sleep(self._tick)
                self.wheel.advance(self.loop.time())
        except asyncio.CancelledError:
            pass

    async def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None


class _ClientProtocol(asyncio.DatagramProtocol):
    """Thin datagram shim: hand every inbound frame to the client."""

    def __init__(self, on_frame: Callable[[bytes], None]) -> None:
        self.on_frame = on_frame

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        self.on_frame(data)

    def error_received(self, exc: Exception) -> None:
        pass  # ICMP unreachable etc.; the retransmission timer covers it


class RoleClient:
    """One initiator role hosted on a datagram endpoint.

    The role (:mod:`repro.protocols.role`) sends through :meth:`_sendto`,
    its timers ride the runner's wheel, its clock is ``loop.time`` and
    its completion resolves :attr:`done`, an :class:`asyncio.Future`.
    ``params`` go to the role's constructor.
    """

    def __init__(self, runner: WheelRunner, role: Type[Role], **params: Any) -> None:
        self.runner = runner
        self.loop = runner.loop
        self.transport: Optional[asyncio.DatagramTransport] = None
        self.done: "asyncio.Future[bool]" = self.loop.create_future()
        self.frames_sent = 0
        self.failed = False
        self.role = role(
            self._sendto,
            timer=partial(WheelTimer, runner.wheel),
            clock=self.loop.time,
            on_done=self._finish,
            **params,
        )

    @property
    def retransmissions(self) -> int:
        return self.role.retransmissions

    async def connect(self, host: str, port: int) -> "RoleClient":
        transport, _ = await self.loop.create_datagram_endpoint(
            lambda: _ClientProtocol(self._on_frame),
            remote_addr=(host, port),
        )
        self.transport = transport
        return self

    def start(self) -> None:
        self.role.start()

    def _on_frame(self, data: bytes) -> None:
        self.role.on_frame(data)

    def _sendto(self, data: bytes) -> None:
        if self.transport is not None and not self.transport.is_closing():
            self.transport.sendto(data)
            self.frames_sent += 1

    def _finish(self, ok: bool) -> None:
        self.failed = not ok
        if not self.done.done():
            self.done.set_result(ok)

    async def wait(self, timeout: float = 10.0) -> bool:
        """Await completion; False on protocol failure or deadline."""
        try:
            return await asyncio.wait_for(asyncio.shield(self.done), timeout)
        except asyncio.TimeoutError:
            self.failed = True
            return False

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()
            self.transport = None

    def summary(self) -> Dict[str, Any]:
        return {
            "protocol": self.role.protocol,
            "ok": self.done.done() and not self.failed and self.done.result(),
            "frames_sent": self.frames_sent,
            "retransmissions": self.retransmissions,
        }


class ArqClient(RoleClient):
    """The stop-and-wait sender over a datagram endpoint."""

    def __init__(
        self,
        runner: WheelRunner,
        messages: Sequence[bytes],
        rto: float = 0.25,
        max_retries: int = 25,
    ) -> None:
        super().__init__(
            runner, ArqSender, messages=messages, rto=rto, max_retries=max_retries
        )


class HandshakeClient(RoleClient):
    """The three-way handshake initiator over a datagram endpoint."""

    def __init__(
        self,
        runner: WheelRunner,
        seed: int = 0,
        rto: float = 0.25,
        max_retries: int = 8,
    ) -> None:
        super().__init__(
            runner, HandshakeInitiator, seed=seed, rto=rto, max_retries=max_retries
        )

    @property
    def established(self) -> bool:
        return self.role.established


class SlidingClient(RoleClient):
    """The selective-repeat sender over a datagram endpoint."""

    def __init__(
        self,
        runner: WheelRunner,
        messages: Sequence[bytes],
        window: int = 8,
        rto: float = 0.25,
        max_retries: int = 50,
    ) -> None:
        super().__init__(
            runner,
            SelectiveRepeatSender,
            messages=messages,
            window=window,
            rto=rto,
            max_retries=max_retries,
        )


def build_client(
    protocol: str,
    runner: WheelRunner,
    *,
    messages: Sequence[bytes] = (),
    seed: int = 0,
    rto: float = 0.25,
    window: int = 8,
) -> RoleClient:
    """A client hosting the initiator role :data:`~repro.serve.apps.APPS` names."""
    return RoleClient(
        runner,
        app_class(protocol).initiator,
        messages=messages,
        seed=seed,
        rto=rto,
        window=window,
    )
