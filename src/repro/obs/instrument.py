"""The injection point of ``repro.obs``: the :class:`Instrumentation` context.

Instrumented code (the machine runtime, the codec, the simulator...) never
talks to a registry or tracer directly; it holds an ``Instrumentation``
object — injected by the caller or defaulting to the process-wide one —
and checks its ``enabled`` flag before doing any observability work.  When
the flag is False (the default for the process-wide instance), the cost of
being instrumented is approximately **one attribute check per hot call**.

Two ways to observe:

* *inject*: build ``Instrumentation()`` and pass it to ``Machine(...,
  obs=...)``, ``Simulator(obs=...)``, ``decode_packet(..., obs=...)`` —
  isolated, the right shape for tests;
* *global*: call :func:`enable` and everything constructed afterwards
  (and everything already holding the default) reports into the shared
  default instance — the right shape for examples and benchmarks.

:func:`profiled` is the decorator form: wrap any function and, when the
governing instrumentation is enabled, each call records a latency
histogram observation, a call counter, and a trace span.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, List, Optional, TypeVar

from repro.obs.metrics import MetricsRegistry
from repro.obs.records import Record
from repro.obs.trace import Tracer

F = TypeVar("F", bound=Callable[..., Any])


class Instrumentation:
    """A registry + tracer pair behind one ``enabled`` flag.

    Attributes are public and stable: hot code reads ``obs.enabled`` and,
    only when True, touches ``obs.registry`` / ``obs.tracer``.
    """

    __slots__ = ("registry", "tracer", "enabled")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        enabled: bool = True,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.enabled = enabled

    def reset(self) -> None:
        """Zero all metrics and drop all trace records."""
        self.registry.reset()
        self.tracer.reset()

    def to_records(self) -> List[Record]:
        """A ``metrics`` record, then the trace as ``span`` records."""
        metrics = Record("metrics", {"metrics": self.registry.snapshot()}, time.time())
        return [metrics, *self.tracer.to_records()]

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"Instrumentation({state}, {len(self.registry)} metrics, "
            f"{len(self.tracer)} trace records)"
        )


class _NullInstrumentation(Instrumentation):
    """Permanently disabled; the no-op baseline for overhead measurement."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "enabled" and value:
            raise ValueError("NULL_OBS cannot be enabled; build an Instrumentation()")
        super().__setattr__(name, value)


#: A shared, permanently-off instrumentation.  Pass it explicitly to opt a
#: component out of the process default (and to measure baseline overhead).
NULL_OBS = _NullInstrumentation()

# The process-wide default every instrumented constructor falls back to.
# It starts disabled, so an uninstrumented program pays only the flag
# checks; enable()/disable() toggle the flag *in place* because components
# capture the object (not the flag) at construction time.
_default = Instrumentation(enabled=False)


def get_default() -> Instrumentation:
    """The process-wide default instrumentation (disabled until enabled)."""
    return _default


def set_default(obs: Instrumentation) -> Instrumentation:
    """Replace the process-wide default; returns the previous one.

    Components built before the swap keep the instance they captured.
    """
    global _default
    previous = _default
    _default = obs
    return previous


def enable() -> Instrumentation:
    """Switch the process-wide default on and return it."""
    _default.enabled = True
    return _default


def disable() -> Instrumentation:
    """Switch the process-wide default off and return it."""
    _default.enabled = False
    return _default


def profiled(
    name_or_fn: Any = None,
    *,
    obs: Optional[Instrumentation] = None,
    trace: bool = True,
) -> Any:
    """Decorator: time every call of a function into the metrics registry.

    Usable bare (``@profiled``) or configured
    (``@profiled("codec.decode", obs=my_obs)``).  Per call, when the
    governing instrumentation is enabled, records:

    * histogram ``profile.seconds{fn=<name>}`` — call latency;
    * counter ``profile.calls{fn=<name>}`` — call count;
    * a trace span named ``<name>`` (suppress with ``trace=False``).

    With ``obs=None`` the *current* process default is consulted on every
    call, so enabling observability later still takes effect.
    """

    def decorate(fn: F, metric_name: Optional[str] = None) -> F:
        label = metric_name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            instr = obs if obs is not None else _default
            if not instr.enabled:
                return fn(*args, **kwargs)
            if trace:
                with instr.tracer.span(label):
                    start = time.perf_counter()
                    result = fn(*args, **kwargs)
                    elapsed = time.perf_counter() - start
            else:
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
            registry = instr.registry
            registry.histogram("profile.seconds", fn=label).observe(elapsed)
            registry.counter("profile.calls", fn=label).inc()
            return result

        return wrapper  # type: ignore[return-value]

    if callable(name_or_fn):
        return decorate(name_or_fn)
    if name_or_fn is None or isinstance(name_or_fn, str):
        return lambda fn: decorate(fn, name_or_fn)
    raise TypeError(f"profiled() takes a function or a name, got {name_or_fn!r}")
