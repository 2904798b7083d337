"""The workload registry, one run of one workload, and its output."""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List

from bench.spec import Run
from bench.stats import quartiles

#: name -> why it was chosen (one line, copied into ``BENCHMARK.json``).
WORKLOADS: Dict[str, str] = {
    "arq_small": (
        "1 stop-and-wait client, 16-byte payloads, one frame in flight: "
        "per-packet cost (demux, try_parse, try_exec probe, ack, sendto) dominates"
    ),
    "sliding_bulk": (
        "2 selective-repeat clients, window 16, 255-byte payloads: the largest "
        "frames, so per-byte CRC-16 codec work and one wheel timer per in-flight frame"
    ),
    "handshake_churn": (
        "2 handshake loops from never-reused 127/8 addresses against 8192 live "
        "sessions: every accept opens, builds an app and sheds the oldest-idle"
    ),
    "megasim_olsr": (
        "100k olsr machines x 8 epochs through fused cohort kernels: "
        "population dispatch with no socket, codec or per-instance try_exec"
    ),
}


def _runner(name: str) -> Callable[..., Run]:
    if name == "megasim_olsr":
        from bench.megasim_load import run_megasim

        return run_megasim
    from bench import serve_load

    if name == "handshake_churn":
        return lambda **kw: asyncio.run(serve_load.run_handshakes(**kw))
    # (clients and payload, then messages per client in a timed trial, the
    # warm-up and the traced trial): timed trials of about two seconds.
    shape = {
        "arq_small": (serve_load.Transfer("arq", clients=1, payload=16), 10_000, 500, 2000),
        "sliding_bulk": (serve_load.Transfer("sliding", clients=2, payload=255), 3000, 300, 600),
    }[name]
    transfer, messages, warmup, traced = shape

    def run(**kw: Any) -> Run:
        kw.setdefault("messages", messages)
        kw.setdefault("warmup", warmup)
        kw.setdefault("traced_messages", traced)
        return asyncio.run(serve_load.run_transfer(name, transfer, **kw))

    return run


def run_workload(name: str, *, seed: int, seconds: float, trace: bool, **sizes: Any) -> Run:
    """One run of one workload; ``sizes`` override the default trial sizes."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    return _runner(name)(seed=seed, seconds=seconds, trace=trace, **sizes)


def value(run: Run, name: str) -> float:
    """A metric's reported value: the median over trials, or the traced value.

    A per-layer metric of a layer this workload never calls reads 0.
    """
    samples = run.samples.get(name)
    if samples:
        return quartiles(samples)[1]
    return run.layers.get(name, 0.0)


def result(run: Run, trace: bool, doc: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON object a run prints last."""
    section = doc["per_layer"] if trace else doc["end_to_end"]
    return {
        "correct": run.correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": value(run, m["name"]), "unit": m["unit"]}
            for m in section
        },
    }


def render(run: Run, doc: Dict[str, Any], trace: bool) -> List[str]:
    """Human-readable summary lines (everything but the final JSON)."""
    lines = [f"workload {run.workload}: {run.attempted} attempted, {run.failed} failed"]
    lines.append(
        f"  {'metric':22s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>4s}  unit"
    )
    for metric in doc["end_to_end"] + doc["per_layer"]:
        samples = run.samples.get(metric["name"])
        if not samples:
            continue
        q1, q2, q3 = quartiles(samples)
        lines.append(
            f"  {metric['name']:22s} {q2:14.4f} {q1:14.4f} {q3:14.4f} "
            f"{len(samples):4d}  {metric['unit']}"
        )
    if trace:
        lines.extend(run.tables)
        for metric in doc["per_layer"]:
            name = metric["name"]
            if name in run.layers:
                lines.append(f"  {name:42s} {run.layers[name]:14.4f} {metric['unit']}")
    for problem in run.problems:
        lines.append(f"CHECK FAILED: {problem}")
    return lines
