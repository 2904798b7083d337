"""A deterministic discrete-event network simulator.

The paper's protocols are meant to run over real, adverse networks —
wireless and mobile environments with loss, corruption and reordering
(§1.1, §2.2).  This package is the IO substrate substituted for real
sockets: a virtual clock, timers, and point-to-point channels with
configurable fault models.  Everything is driven by a seeded RNG, so each
experiment is exactly reproducible.
"""

from repro.netsim.simulator import BudgetExhausted, Event, Simulator
from repro.netsim.timers import Timer
from repro.netsim.channel import Channel, ChannelConfig, ChannelStats
from repro.netsim.node import DuplexLink, Node
from repro.netsim.capture import Capture, CapturedFrame, describe_frame
from repro.netsim.replay import ScriptedHost

__all__ = [
    "BudgetExhausted",
    "Simulator",
    "Event",
    "Timer",
    "Channel",
    "ChannelConfig",
    "ChannelStats",
    "Node",
    "DuplexLink",
    "Capture",
    "CapturedFrame",
    "describe_frame",
    "ScriptedHost",
]
