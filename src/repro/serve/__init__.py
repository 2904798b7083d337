"""repro.serve — the real-socket serving plane.

Everything below here exists to answer one question the simulator alone
cannot: *do the DSL machines behave identically when the substrate is a
real kernel socket instead of a discrete-event channel?*  The plane is
built so the question is decidable:

* the protocol roles (:mod:`repro.protocols.role`, registered in
  :mod:`~repro.serve.apps`) are written against
  ``send(bytes)``/``on_frame(bytes)`` only, so the same classes run
  live — responders under the session manager, initiators in the
  socket clients — and under the simulator;
* every live session can record its exchange
  (:mod:`~repro.serve.record`) in a form the simulator replays
  (:mod:`~repro.serve.replay`);
* :mod:`~repro.serve.loopback` runs both planes against each other and
  reports byte-level divergences (the answer should always be: none).

Operationally the plane carries the full serving feature set — session
demultiplexing with oldest-idle shedding (:mod:`~repro.serve.manager`),
bounded receive queues with UDP drop / TCP pause backpressure
(:mod:`~repro.serve.transport`), retransmission and idle reaping off a
hashed timer wheel (:mod:`~repro.serve.wheel`), and ``repro.obs``
instrumentation throughout (``python -m repro.obs top`` works against a
live server's export stream).

CLI: ``python -m repro.serve {serve,client,loopback}``.
"""

from repro.serve.apps import APPS, build_app
from repro.serve.client import (
    ArqClient,
    HandshakeClient,
    RoleClient,
    SlidingClient,
    WheelRunner,
    build_client,
)
from repro.serve.framing import FramingError, StreamDeframer, encode_frame
from repro.serve.loopback import (
    LoopbackConfig,
    LoopbackReport,
    run_loopback,
    run_loopback_sync,
)
from repro.serve.manager import Admission, SessionManager, session_seed
from repro.serve.record import (
    ExchangeEvent,
    ExchangeRecord,
    ExchangeRecorder,
    load_records,
    save_records,
)
from repro.serve.replay import (
    DifferentialReport,
    ReplayResult,
    check_trace_against_model,
    replay_record,
    replay_records,
)
from repro.serve.session import Session
from repro.serve.transport import (
    LossyDatagramTransport,
    ServeConfig,
    Server,
    TcpServeProtocol,
    UdpServeProtocol,
)
from repro.serve.wheel import TimerHandle, TimerWheel, WheelTimer

__all__ = [
    "APPS",
    "Admission",
    "ArqClient",
    "DifferentialReport",
    "ExchangeEvent",
    "ExchangeRecord",
    "ExchangeRecorder",
    "FramingError",
    "HandshakeClient",
    "LoopbackConfig",
    "LoopbackReport",
    "LossyDatagramTransport",
    "ReplayResult",
    "ServeConfig",
    "RoleClient",
    "Server",
    "Session",
    "SessionManager",
    "SlidingClient",
    "StreamDeframer",
    "TcpServeProtocol",
    "TimerHandle",
    "TimerWheel",
    "UdpServeProtocol",
    "WheelRunner",
    "WheelTimer",
    "build_app",
    "build_client",
    "check_trace_against_model",
    "encode_frame",
    "load_records",
    "replay_record",
    "replay_records",
    "run_loopback",
    "run_loopback_sync",
    "save_records",
    "session_seed",
]
