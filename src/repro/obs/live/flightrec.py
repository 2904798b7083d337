"""The flight recorder: crash-time state, dumped replayably.

An undeclared failure — a fuzzer ``bug_*`` classification, or a
compiled codec demoted for diverging from the interpreter — is exactly
the moment the post-mortem tools need state that no longer exists by
the time a human looks.  A :class:`FlightRecorder` keeps the cheap-to-maintain context (a
ring of recent wire frames) and, on a crash hook, dumps one JSONL
*bundle*:

* a header line — kind, subject, detail, run seed, schema;
* the offending input (and its shrunk form, when the caller has one);
* the recent wire-frame ring (netsim captures feed it);
* a full metrics snapshot of the governing instrumentation;
* the trace ring buffer, record per line.

Bundles replay: ``python -m repro.conformance --triage BUNDLE`` loads
one and re-executes it deterministically — a fuzz bundle re-classifies
the recorded bytes against its spec, a demotion bundle re-runs the
compiled-vs-interpreted comparison under ``verify`` — and reports
whether the recorded failure still reproduces.

Opt-in: the module-level hooks (:func:`record_crash`,
:func:`record_frame`) are no-ops until a recorder is installed, either
programmatically (:func:`install_recorder`) or by pointing
``REPRO_OBS_FLIGHTREC`` at a directory.  The env path matters for the
sharded plane: workers inherit it, so a crash inside a forked worker
drops its bundle in the same directory the parent's would land in.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.instrument import Instrumentation, get_default

BUNDLE_SCHEMA = "repro.obs/flightrec/v1"

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

    def dump(
        self,
        kind: str,
        subject: str = "",
        detail: str = "",
        seed: Optional[int] = None,
        data: Optional[bytes] = None,
        shrunk: Optional[bytes] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Write one bundle; returns its path.

        Bundle names carry kind, subject, pid and a per-recorder counter
        so concurrent workers dumping into one directory never collide.
        """
        with self._lock:
            self._counter += 1
            count = self._counter
        os.makedirs(self.directory, exist_ok=True)
        slug = _SLUG_RE.sub("-", f"{kind}-{subject}" if subject else kind)
        path = os.path.join(
            self.directory, f"{slug}-{os.getpid()}-{count}.jsonl"
        )
        obs = self._governing()
        header = {
            "schema": BUNDLE_SCHEMA,
            "kind": kind,
            "subject": subject,
            "detail": detail,
            "seed": seed,
            "pid": os.getpid(),
            "ts": time.time(),
            "data": data.hex() if data is not None else None,
            "shrunk": shrunk.hex() if shrunk is not None else None,
            "extra": extra or {},
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for ts, context, frame in list(self._frames):
                handle.write(
                    json.dumps(
                        {
                            "record": "frame",
                            "ts": ts,
                            "context": context,
                            "data": frame.hex(),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
            handle.write(
                json.dumps(
                    {"record": "metrics", "metrics": obs.registry.snapshot()},
                    sort_keys=True,
                )
                + "\n"
            )
            for record in obs.tracer.records():
                handle.write(
                    json.dumps(
                        {"record": "trace", "span": record.to_dict()},
                        sort_keys=True,
                    )
                    + "\n"
                )
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


def record_crash(
    kind: str,
    subject: str = "",
    detail: str = "",
    seed: Optional[int] = None,
    data: Optional[bytes] = None,
    shrunk: Optional[bytes] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Optional[str]:
    """Dump a bundle for an undeclared failure (no-op when unarmed).

    Never raises: the flight recorder observes failures, it must not
    cause new ones on the crash path.
    """
    recorder = active_recorder()
    if recorder is None:
        return None
    try:
        return recorder.dump(
            kind,
            subject=subject,
            detail=detail,
            seed=seed,
            data=data,
            shrunk=shrunk,
            extra=extra,
        )
    except OSError:
        return None


# -- bundles: load and replay ------------------------------------------------


@dataclass
class FlightBundle:
    """One loaded bundle: the header plus its attached context."""

    kind: str
    subject: str
    detail: str
    seed: Optional[int]
    data: Optional[bytes]
    shrunk: Optional[bytes]
    extra: Dict[str, Any]
    frames: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    trace: List[Dict[str, Any]] = field(default_factory=list)
    path: str = ""

    def reproducer(self) -> Optional[bytes]:
        """The bytes to replay: the shrunk form when one exists."""
        return self.shrunk if self.shrunk is not None else self.data


def load_bundle(path: str) -> FlightBundle:
    """Parse a bundle file back into a :class:`FlightBundle`."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"empty flight-recorder bundle: {path}")
    header = json.loads(lines[0])
    if header.get("schema") != BUNDLE_SCHEMA:
        raise ValueError(
            f"not a flight-recorder bundle (schema {header.get('schema')!r}): {path}"
        )
    bundle = FlightBundle(
        kind=header.get("kind", ""),
        subject=header.get("subject", ""),
        detail=header.get("detail", ""),
        seed=header.get("seed"),
        data=bytes.fromhex(header["data"]) if header.get("data") else None,
        shrunk=bytes.fromhex(header["shrunk"]) if header.get("shrunk") else None,
        extra=header.get("extra", {}),
        path=path,
    )
    for line in lines[1:]:
        record = json.loads(line)
        record_kind = record.get("record")
        if record_kind == "frame":
            bundle.frames.append(record)
        elif record_kind == "metrics":
            bundle.metrics = record.get("metrics", {})
        elif record_kind == "trace":
            bundle.trace.append(record.get("span", {}))
    return bundle


def replay_bundle(bundle: FlightBundle) -> Tuple[str, str]:
    """Re-execute a bundle; returns ``(status, detail)``.

    ``status`` is ``"reproduced"`` (the recorded failure recurs),
    ``"drifted"`` (it no longer does — the bug moved or was fixed), or
    ``"unreplayable"`` (the bundle has nothing to re-execute: a kind
    with no replay, or a spec that has left the registry).

    Imports the conformance/fastpath machinery lazily: loading a bundle
    is cheap, replaying one pulls in the full stack.
    """
    if bundle.kind.startswith("fuzz_"):
        return _replay_fuzz(bundle)
    if bundle.kind == "fastpath_demotion":
        return _replay_demotion(bundle)
    return (
        "unreplayable",
        f"bundle kind {bundle.kind!r} records operational context only",
    )


def _spec_for(subject: str) -> Optional[Any]:
    from repro.conformance.registry import all_spec_entries

    for entry in all_spec_entries():
        if entry.name == subject:
            return entry.spec
    return None


def _replay_fuzz(bundle: FlightBundle) -> Tuple[str, str]:
    from repro.conformance.mutate import classify

    spec = _spec_for(bundle.subject)
    if spec is None:
        return "unreplayable", f"spec {bundle.subject!r} is not in the registry"
    reproducer = bundle.reproducer()
    if reproducer is None:
        return "unreplayable", "bundle carries no input bytes"
    expected = bundle.kind[len("fuzz_"):]
    outcome, detail = classify(spec, reproducer)
    if outcome == expected:
        return "reproduced", detail or bundle.detail
    return (
        "drifted",
        f"recorded {expected!r}, replay produced {outcome!r} ({detail})",
    )


def _replay_demotion(bundle: FlightBundle) -> Tuple[str, str]:
    """Re-run the op under ``verify`` and see whether the spec demotes again."""
    import ast

    from repro import fastpath
    from repro.core import codec as core_codec
    from repro.fastpath import cache as fp_cache
    from repro.fastpath import policy as fp_policy

    spec = _spec_for(bundle.subject)
    if spec is None:
        return "unreplayable", f"spec {bundle.subject!r} is not in the registry"
    op = bundle.extra.get("op")
    values: Optional[Dict[str, Any]] = None
    if op == "encode":
        try:
            values = ast.literal_eval(bundle.extra.get("values", ""))
        except (ValueError, SyntaxError):
            return "unreplayable", "recorded encode values do not parse back"
    elif op != "decode" or bundle.data is None:
        return "unreplayable", f"demotion bundle has no replayable op ({op!r})"
    before = fp_cache.stats()["demotions"]
    with fastpath.use(mode="always", verify=True):
        fp_policy.invalidate()  # fresh per-spec state: demotion can recur
        try:
            if op == "decode":
                spec.decode(bundle.data)
            else:
                # encode_verbatim takes the raw value environment the
                # demoted call saw (make() would recompute checksums).
                core_codec.encode_verbatim(spec, values)
        except Exception as exc:
            # A declared error is fine — the question is whether the
            # compiled tier diverged, which the demotion counter answers.
            detail = f"replay raised {type(exc).__name__}: {exc}"
        else:
            detail = "replay completed"
    if fp_cache.stats()["demotions"] > before:
        return "reproduced", f"compiled tier demoted again ({detail})"
    return "drifted", f"no divergence on replay ({detail})"
