"""Protocol roles: each side of a protocol, written once, hosted anywhere.

A *role* is one side of a protocol — the ARQ sender, the handshake
responder — written against the narrowest host surface there is:

* ``send(bytes)``, a callable the host hands in;
* ``on_frame(bytes)``, called by the host for every inbound frame;
* ``on_timer()``, a host-driven protocol timer (the handshake
  responder's half-open RESET), a no-op by default;
* ``seed``, from which every free choice (a nonce) is drawn, so it is
  reproducible; ``rng`` overrides it where a host shares one generator.

Roles that retransmit — the senders and the handshake initiator — also
take a ``timer`` factory, called as ``timer(duration, callback,
name=...)`` and returning something with ``start``/``stop``/``running``
(``functools.partial(netsim.Timer, sim)`` or
``functools.partial(serve.WheelTimer, wheel)``), a ``clock`` for RTT
samples, and an ``on_done(ok)`` completion hook.

Nothing else: no sockets, no simulator, no event loop.  That is what
lets one class run on three hosts — a simulator :class:`Node`
(:func:`on_node`), the serving plane's
:class:`~repro.serve.manager.SessionManager` (one responder per
session) and its socket clients
(:class:`~repro.serve.client.RoleClient`) — so the loopback
differential compares two hostings of one behaviour, never two
implementations of one protocol.  The DSL machines do the protocol
reasoning; roles never touch an unverified byte beyond handing it to
``try_parse`` (the paper's §3.4 guarantee).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional, Tuple, Type, TypeVar

from repro.core.machine import Machine
from repro.netsim.node import Node
from repro.netsim.timers import Timer

Send = Callable[[bytes], None]
R = TypeVar("R", bound="Role")


def _no_completion(ok: bool) -> None:
    pass


class Role:
    """Base class: counters and plumbing shared by every role.

    Hosts hand every role of a protocol one keyword set (the CLI's
    options, a session's ``app_params``); a role ignores parameters its
    side does not use, so either side can be built from the same set.
    """

    #: Registry key; the wire name used in exchange records and the CLI.
    protocol: str = ""
    #: Packet specs this role speaks; used to render transcripts.
    specs: Tuple[Any, ...] = ()
    #: On a responder: the role that opens its sessions.
    initiator: Optional[Type["Role"]] = None

    machine: Machine

    def __init__(
        self,
        send: Send,
        *,
        seed: int = 0,
        timer: Optional[Callable[..., Any]] = None,
        clock: Optional[Callable[[], float]] = None,
        on_done: Callable[[bool], None] = _no_completion,
        **params: Any,
    ) -> None:
        self._send = send
        self.seed = seed
        self._timer = timer
        self._clock = clock
        self._on_done = on_done
        self.frames_in = 0
        self.frames_out = 0
        self.rejected = 0

    def on_frame(self, data: bytes) -> None:
        """One inbound frame; may call :meth:`send` any number of times."""
        raise NotImplementedError

    def on_timer(self) -> None:
        """The host's protocol timer fired (reset/housekeeping); optional."""

    def send(self, data: bytes) -> None:
        self.frames_out += 1
        self._send(data)


def on_node(node: Node, peer_name: str, role: Type[R], **params: Any) -> R:
    """Host ``role`` on a simulator node that talks to ``peer_name``.

    Frames go out through ``node.send``; every frame the node receives
    goes to the role; each timer is a simulator :class:`Timer` and the
    clock is virtual time.
    """
    sim = node.sim
    instance = role(
        partial(node.send, peer_name),
        timer=partial(Timer, sim),
        clock=lambda: sim.now,
        **params,
    )
    node.on_receive(lambda frame, sender: instance.on_frame(frame))
    return instance
