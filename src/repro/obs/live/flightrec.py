"""The flight recorder: crash-time state, dumped replayably.

An undeclared failure — a fuzzer ``bug_*`` classification, or a
compiled codec demoted for diverging from the interpreter — is exactly
the moment the post-mortem tools need state that no longer exists by
the time a human looks.  A :class:`FlightRecorder` keeps the
cheap-to-maintain context (a ring of recent wire frames) and, on a
crash hook, dumps one *bundle*: a :mod:`repro.obs.records` file holding

* one ``entry`` record — the failure as a corpus entry
  (:class:`~repro.conformance.corpus.CorpusEntry`): engine (``fuzz`` or
  ``fastpath``), outcome, subject, seed, the offending input and its
  shrunk form, and ``meta`` (the fuzz strategy, or the demoted codec op);
* one ``frame`` record per frame in the recent wire-frame ring (netsim
  captures feed it);
* a ``metrics`` record: the governing instrumentation's registry;
* the trace ring buffer, one ``span`` record each.

Bundles replay: ``python -m repro.conformance --triage BUNDLE`` runs the
bundle's entry through the same per-engine replay as ``--replay`` runs
a corpus — a fuzz entry re-classifies the recorded bytes against its
spec, a demotion re-runs the compiled-vs-interpreted comparison under
``verify`` — and reports whether the recorded failure still reproduces.
``python -m repro.obs report BUNDLE`` renders its metrics and spans.

Opt-in: the module-level hooks (:func:`record_crash`,
:func:`record_frame`) are no-ops until a recorder is installed, either
programmatically (:func:`install_recorder`) or by pointing
``REPRO_OBS_FLIGHTREC`` at a directory.  The env path matters for the
sharded plane: workers inherit it, so a crash inside a forked worker
drops its bundle in the same directory the parent's would land in.
"""

from __future__ import annotations

import os
import re
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Optional, Tuple

from repro.obs import records as obs_records
from repro.obs.instrument import Instrumentation, get_default
from repro.obs.records import Record

if TYPE_CHECKING:  # conformance imports obs, not the other way round
    from repro.conformance.corpus import CorpusEntry

_SLUG_RE = re.compile(r"[^A-Za-z0-9_.\-]+")

_lock = threading.Lock()
_recorder: Optional["FlightRecorder"] = None
_env_checked = False


class FlightRecorder:
    """Crash-context keeper and bundle writer for one directory."""

    def __init__(
        self,
        directory: str,
        frame_capacity: int = 64,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if frame_capacity < 1:
            raise ValueError(
                f"frame capacity must be positive, got {frame_capacity}"
            )
        self.directory = directory
        self.obs = obs
        self._frames: "deque[Tuple[float, str, bytes]]" = deque(
            maxlen=frame_capacity
        )
        self._counter = 0
        self._lock = threading.Lock()

    def _governing(self) -> Instrumentation:
        return self.obs if self.obs is not None else get_default()

    def record_frame(self, data: bytes, context: str = "") -> None:
        """Remember one wire frame (cheap: a deque append)."""
        self._frames.append((time.time(), context, bytes(data)))

    def dump(self, entry: "CorpusEntry") -> str:
        """Write one bundle for ``entry``; returns its path.

        Bundle names carry engine, outcome, subject, pid and a
        per-recorder counter so concurrent workers dumping into one
        directory never collide.
        """
        with self._lock:
            self._counter += 1
            count = self._counter
        os.makedirs(self.directory, exist_ok=True)
        name = f"{entry.engine}_{entry.outcome}"
        if entry.subject:
            name = f"{name}-{entry.subject}"
        name = f"{_SLUG_RE.sub('-', name)}-{os.getpid()}-{count}.jsonl"
        path = os.path.join(self.directory, name)
        records = [Record("entry", entry.to_dict(), time.time())]
        records.extend(
            Record("frame", {"context": context, "data": frame.hex()}, ts)
            for ts, context, frame in list(self._frames)
        )
        records.extend(self._governing().to_records())
        obs_records.write(path, records)
        return path


# -- process-wide hooks ------------------------------------------------------


def install_recorder(recorder: Optional[FlightRecorder]) -> Optional[FlightRecorder]:
    """Install (or with ``None``, remove) the process-wide recorder."""
    global _recorder, _env_checked
    with _lock:
        previous = _recorder
        _recorder = recorder
        _env_checked = True  # an explicit install wins over the env
    return previous


def active_recorder() -> Optional[FlightRecorder]:
    """The installed recorder, building one from the env on first call.

    ``REPRO_OBS_FLIGHTREC=<directory>`` arms the recorder for the whole
    process tree (workers inherit the variable through fork/spawn).
    """
    global _recorder, _env_checked
    if _recorder is not None or _env_checked:
        return _recorder
    with _lock:
        if not _env_checked:
            directory = os.environ.get("REPRO_OBS_FLIGHTREC", "").strip()
            if directory:
                _recorder = FlightRecorder(directory)
            _env_checked = True
    return _recorder


def reset_env_cache() -> None:
    """Forget the cached env decision (tests flip the env at runtime)."""
    global _recorder, _env_checked
    with _lock:
        _recorder = None
        _env_checked = False


def record_frame(data: bytes, context: str = "") -> None:
    """Feed one wire frame into the recorder's ring (no-op when unarmed)."""
    recorder = active_recorder()
    if recorder is not None:
        recorder.record_frame(data, context)


def record_crash(entry: "CorpusEntry") -> Optional[str]:
    """Dump a bundle for an undeclared failure (no-op when unarmed).

    Never raises: the flight recorder observes failures, it must not
    cause new ones on the crash path.
    """
    recorder = active_recorder()
    if recorder is None:
        return None
    try:
        return recorder.dump(entry)
    except OSError:
        return None
