"""The child-process half of the sharded execution plane.

:func:`worker_main` is the entry point each :class:`ShardedPool` worker
runs: a loop over a private task queue, answering on a shared result
queue.  One task shape does the work:

``("call", task_id, chunk, target, kwargs)``
    Resolve ``target`` (``"package.module:function"``), call it with
    ``kwargs``, ship back the picklable result.  The conformance runner
    executes one conformance unit per call, and megasim one shard
    epoch.  Only a dotted name and plain picklable arguments cross the
    process boundary — never closures or spec objects — so the plane is
    correct under ``fork`` and ``spawn`` alike.

Every reply is ``("ok", task_id, chunk, payload)`` or ``("err",
task_id, chunk, message)``.  A worker never retries: any exception is
reported to the parent, whose caller decides how to redo that unit.
Metrics travel inside the payload when the target puts them there.
"""

from __future__ import annotations

import importlib
import os
from typing import Any, Callable


def _resolve(target: str) -> Callable[..., Any]:
    module_name, _, attr = target.partition(":")
    if not module_name or not attr:
        raise ValueError(f"call target must be 'module:function', got {target!r}")
    return getattr(importlib.import_module(module_name), attr)


def crash(signum: int = 0) -> None:
    """Kill this worker without cleanup — the test's stand-in for a segfault.

    ``os._exit`` skips the result queue entirely, so the parent sees a
    dead process holding an unanswered chunk, exactly like a native
    crash would look.
    """
    os._exit(17)


def worker_main(tasks: Any, results: Any) -> None:
    """Serve tasks until a ``("stop",)`` message or queue breakdown."""
    while True:
        try:
            task = tasks.get()
        except (EOFError, OSError):
            break
        kind = task[0]
        if kind == "stop":
            break
        if kind == "crash":
            crash()
        task_id, chunk = task[1], task[2]
        try:
            if kind != "call":
                raise ValueError(f"unknown task kind {kind!r}")
            _, _, _, target, kwargs = task
            payload = _resolve(target)(**kwargs)
        except BaseException as exc:  # report, never die on a task error
            try:
                results.put(("err", task_id, chunk, f"{type(exc).__name__}: {exc}"))
            except (EOFError, OSError):
                break
            continue
        try:
            results.put(("ok", task_id, chunk, payload))
        except (EOFError, OSError):
            break
