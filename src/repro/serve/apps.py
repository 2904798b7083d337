"""The serving plane's protocol registry.

:data:`APPS` maps each serve protocol name to its *responder* role — the
class a :class:`~repro.serve.manager.SessionManager` builds for every
session and :mod:`repro.serve.replay` rebuilds from a record — and each
responder names the role that opens its sessions (``initiator``), which
:mod:`repro.serve.client` hosts on a socket.  So the registry holds both
roles of every protocol.  The roles themselves live in
:mod:`repro.protocols` and run unchanged on the simulator too
(:mod:`repro.protocols.role`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Type

from repro.protocols.arq import ArqReceiver
from repro.protocols.handshake import HandshakeResponder
from repro.protocols.role import Role, Send
from repro.protocols.sliding import SelectiveRepeatReceiver

#: The serving plane's protocol registry: name -> responder role.
APPS: Dict[str, Type[Role]] = {
    role.protocol: role
    for role in (ArqReceiver, HandshakeResponder, SelectiveRepeatReceiver)
}

#: The ARQ responder under its serving-plane name, which code that
#: subclasses the registered responder (a fault-injecting server) uses.
ArqResponderApp = ArqReceiver


def app_class(protocol: str) -> Type[Role]:
    """Look up a protocol's responder role by name."""
    try:
        return APPS[protocol]
    except KeyError:
        raise ValueError(
            f"unknown serve protocol {protocol!r}; known: {sorted(APPS)}"
        ) from None


def build_app(
    protocol: str, send: Send, seed: int = 0, params: Optional[Dict[str, Any]] = None
) -> Role:
    """Instantiate a protocol's responder role for either plane."""
    return app_class(protocol)(send, seed=seed, **(params or {}))
