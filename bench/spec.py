"""Metric names, the per-run result, and ``BENCHMARK.json`` validation.

Every workload computes every metric below.  ``BENCHMARK.json`` decides
which of them a run reports: its ``end_to_end`` list with ``--trace 0``,
its ``per_layer`` list with ``--trace 1``.  Calibration may move a tail
percentile from the first list to the second (see ``bench/README.md``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from bench import ROOT

BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: End-to-end metrics: (name, unit, better).  One "operation" is a
#: delivered message (arq_small, sliding_bulk), an established handshake
#: (handshake_churn) or a fired machine event (megasim_olsr); latency is
#: the ack round trip, the SYN -> SYN-ACK time, or the epoch time.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p99_us", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Spans recorded on the server only, the client only, or both; each
#: yields ``<span>_us``, ``<span>_p50_us`` and ``<span>_calls`` (per
#: operation), with a ``.server``/``.client`` suffix when both sides
#: record the span.
SERVER_SPANS = (
    "serve.transport.recv",
    "serve.transport.send",
    "serve.manager.demux",
    "serve.manager.open",
    "serve.manager.close",
    "serve.manager.drain",
    "serve.apps.on_frame",
    "core.machine.try_exec",
)
CLIENT_SPANS = ("serve.client.on_frame", "serve.client.send")
SHARED_SPANS = (
    "core.packet.make",
    "core.packet.encode",
    "core.packet.decode",
    "core.packet.verify",
    "core.machine.exec",
    "serve.wheel.advance",
)

_SPAN_STATS = (("_us", "us"), ("_p50_us", "us"), ("_calls", "calls/op"))


#: The remaining per-layer metrics: (name, unit, better).
_OTHER_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("core.packet.bytes_per_frame", "B", "lower"),
    ("core.machine.try_exec_hit_ratio", "ratio", "higher"),
    ("serve.manager.queue_wait_us", "us", "lower"),
    ("serve.manager.queue_wait_p50_us", "us", "lower"),
    ("serve.manager.sheds", "1/op", "lower"),
    ("serve.wheel.busy_share.server", "ratio", "lower"),
    ("serve.wheel.busy_share.client", "ratio", "lower"),
    ("serve.client.retransmit_ratio", "ratio", "lower"),
    ("serve.frame_us", "us", "lower"),
    ("serve.residual_us", "us", "lower"),
    ("megasim.plan_ms", "ms", "lower"),
    ("megasim.apply_us_per_kevent", "us", "lower"),
    ("megasim.digest_ms", "ms", "lower"),
    ("megasim.barrier_ms", "ms", "lower"),
    ("megasim.residual_ms", "ms", "lower"),
    ("megasim.rejected_ratio", "ratio", "lower"),
    ("proc.server.cpu_busy", "ratio", "lower"),
    ("proc.client.cpu_busy", "ratio", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


def per_layer_metrics() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric a traced run computes: name -> (unit, better)."""
    metrics = {}
    for spans, sides in (
        (SERVER_SPANS, ("",)),
        (CLIENT_SPANS, ("",)),
        (SHARED_SPANS, (".server", ".client")),
    ):
        for span in spans:
            for side in sides:
                for stat, unit in _SPAN_STATS:
                    metrics[f"{span}{stat}{side}"] = (unit, "lower")
    for name, unit, better in _OTHER_LAYER_METRICS:
        metrics[name] = (unit, better)
    return metrics


def all_units() -> Dict[str, str]:
    units = {name: unit for name, unit, _ in END_TO_END}
    units.update({name: unit for name, (unit, _) in per_layer_metrics().items()})
    return units


@dataclass
class Run:
    """One workload run: per-trial samples, counts, checks, layer metrics."""

    workload: str
    samples: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    tables: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


# -- BENCHMARK.json -----------------------------------------------------------

COMMAND = ["python3", "-m", "bench"]
PATHS = ["bench"]
RUN_SECONDS = 20


def document(
    workloads: Dict[str, str], bounds: Dict[str, float], demoted: Sequence[str]
) -> Dict[str, Any]:
    """The whole ``BENCHMARK.json``: metrics from this module, bounds given.

    ``demoted`` end-to-end candidates are listed as per-layer metrics.
    """
    candidates = [(n, u, b) for n, u, b in END_TO_END]
    layered = [(n, u, b) for n, (u, b) in per_layer_metrics().items()]
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in workloads.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bounds[n]}
            for n, u, b in candidates
            if n not in demoted
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b in [c for c in candidates if c[0] in demoted] + layered
        ],
    }


def save(doc: Dict[str, Any], path: Path = BENCHMARK_JSON) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
MAX_BOUND = 0.25


def load(path: Path = BENCHMARK_JSON) -> Dict[str, Any]:
    data = json.loads(path.read_text(encoding="utf-8"))
    problems = validate(data)
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return data


def validate(data: Dict[str, Any]) -> List[str]:
    """Every way ``data`` breaks the benchmark file's grammar and limits."""
    problems: List[str] = []
    if set(data) != KEYS:
        return [f"keys must be exactly {sorted(KEYS)}, got {sorted(data)}"]
    command = data["command"]
    if not (1 <= len(command) <= 32) or not all(
        isinstance(arg, str) and len(arg) <= 200 for arg in command
    ):
        problems.append("command: 1-32 strings of at most 200 characters")
    paths = data["paths"]
    if not (1 <= len(paths) <= 16):
        problems.append("paths: 1-16 entries")
    for path in paths:
        if not PATH.match(path) or path.startswith("/") or ".." in path.split("/"):
            problems.append(f"paths: bad path {path!r}")
    seconds = data["run_seconds"]
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        problems.append("run_seconds: a whole number from 1 to 60")
    names: List[str] = []
    workloads = data["workloads"]
    if not (2 <= len(workloads) <= 8):
        problems.append("workloads: 2-8 entries")
    for entry in workloads:
        if set(entry) != {"name", "why"}:
            problems.append(f"workload {entry}: keys must be name, why")
            continue
        names.append(entry["name"])
        why = entry["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            problems.append(f"workload {entry['name']}: why must be one line <= 200")
    for section, keys, limit in (
        ("end_to_end", {"name", "unit", "better", "bound"}, 16),
        ("per_layer", {"name", "unit", "better"}, 128),
    ):
        metrics = data[section]
        if not (1 <= len(metrics) <= limit):
            problems.append(f"{section}: 1-{limit} metrics")
        for metric in metrics:
            if set(metric) != keys:
                problems.append(f"{section} {metric}: keys must be {sorted(keys)}")
                continue
            names.append(metric["name"])
            if not UNIT.match(str(metric["unit"])):
                problems.append(f"{section} {metric['name']}: bad unit")
            if metric["better"] not in ("higher", "lower"):
                problems.append(f"{section} {metric['name']}: better is higher|lower")
            if "bound" in metric and not (0 < metric["bound"] <= MAX_BOUND):
                problems.append(f"{section} {metric['name']}: bound in (0, {MAX_BOUND}]")
    for name in names:
        if not isinstance(name, str) or not NAME.match(name):
            problems.append(f"bad name {name!r}")
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        problems.append(f"names used more than once: {duplicates}")
    setup = [m for m in data["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end must hold setup_s in s, lower is better")
    if len(json.dumps(data)) > 64 * 1024:
        problems.append("file larger than 64 KiB")
    return problems
