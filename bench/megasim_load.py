"""The megasim workload: a ``ShardEngine`` over the olsr population.

One trial builds a fresh engine for all machines (the set-up sample),
then runs every epoch through plan, cohort dispatch, digest and the
barrier that sorts the next epoch's inbox -- the loop
:func:`repro.megasim.run_serial` runs, timed epoch by epoch.  The
untimed warm-up is one ``run_serial`` of the same configuration; its
transcript is the reference every trial must reproduce line for line.
"""

from __future__ import annotations

import resource
import time
from contextlib import ExitStack
from typing import Any, List, NamedTuple

from bench import OUT
from bench.spec import Run
from bench.stats import median, percentile
from bench.trace import (
    check_complete,
    new_tracer,
    reconcile,
    render_table,
    summarize,
    trace_megasim,
    write_jsonl,
)

MIN_TRIALS = 3
MAX_TRIALS = 200


class Trial(NamedTuple):
    lines: List[str]
    setup: float
    elapsed: float
    cpu: float
    fired: int
    epoch_times: List[float]
    rejected: int


def _trial(config: Any) -> Trial:
    """One engine build plus every epoch; times exclude the transcript check."""
    from repro.megasim import engine

    started = time.perf_counter()
    shard = engine.ShardEngine(config, 0, config.machines)
    setup = time.perf_counter() - started
    bounds = [(0, config.machines)]
    lines = [config.header()]
    epoch_times: List[float] = []
    inbox: List[Any] = []
    fired = 0
    cpu = time.thread_time()
    begin = time.perf_counter()
    for epoch in range(config.epochs):
        started = time.perf_counter()
        result = shard.step(epoch, inbox)
        inbox = engine.route(result.outbox, bounds)[0]
        epoch_times.append(time.perf_counter() - started)
        fired += result.fired
        lines.append(
            engine._transcript_line(epoch, result.fired, result.emitted, result.digest)
        )
    elapsed = time.perf_counter() - begin
    cpu = time.thread_time() - cpu
    return Trial(lines, setup, elapsed, cpu, fired, epoch_times, shard.population.rejected)


def run_megasim(
    *,
    seed: int,
    seconds: float,
    trace: bool,
    machines: int = 100_000,
    epochs: int = 8,
) -> Run:
    from repro import obs
    from repro.megasim.engine import RunConfig, run_serial
    from repro.megasim.workloads import get_workload

    run = Run("megasim_olsr")
    config = RunConfig(workload="olsr", machines=machines, epochs=epochs, seed=seed)
    reference = run_serial(config).lines

    def check(lines: List[str]) -> None:
        wrong = sum(a != b for a, b in zip(lines[1:], reference[1:]))
        run.attempted += epochs
        run.failed += wrong
        run.check(lines == reference, f"{wrong} epochs differ from the run_serial transcript")

    timed = 0.0
    cpu = time.process_time()
    wall = time.perf_counter()
    samples = run.samples
    while len(samples.get("ops_per_s", ())) < MIN_TRIALS or (
        timed < seconds and len(samples["ops_per_s"]) < MAX_TRIALS
    ):
        trial = _trial(config)
        check(trial.lines)
        timed += trial.setup + trial.elapsed
        ordered = sorted(trial.epoch_times)
        samples.setdefault("ops_per_s", []).append(trial.fired / trial.elapsed)
        samples.setdefault("latency_p50_us", []).append(percentile(ordered, 0.5) * 1e6)
        samples.setdefault("latency_p99_us", []).append(percentile(ordered, 0.99) * 1e6)
        samples.setdefault("setup_s", []).append(trial.setup)
    run.layers["proc.client.cpu_busy"] = (time.process_time() - cpu) / (
        time.perf_counter() - wall
    )
    run.samples["peak_rss_mb"] = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ]
    if not trace:
        return run

    OUT.mkdir(exist_ok=True)
    tracer = new_tracer()
    with ExitStack() as patches:
        trace_megasim(patches, tracer, get_workload(config.workload))
        trial = _trial(config)
    check_complete(tracer)
    check(trial.lines)
    run.check(not obs.get_default().enabled, "global repro.obs was enabled")
    write_jsonl(tracer, OUT / f"{run.workload}.jsonl")
    layers = summarize(tracer.records())
    per_epoch = {name: layer.self_total / epochs for name, layer in layers.items()}
    rows, residual, total = reconcile(layers, trial.cpu, epochs)
    run.layers.update(
        {
            "megasim.plan_ms": layers["megasim.plan"].self_mean() * 1e3,
            "megasim.apply_us_per_kevent": layers["megasim.apply"].self_total
            / (trial.fired / 1000)
            * 1e6,
            "megasim.digest_ms": layers["megasim.digest"].self_mean() * 1e3,
            "megasim.barrier_ms": per_epoch["megasim.barrier"] * 1e3,
            "megasim.residual_ms": residual * 1e3,
            "megasim.rejected_ratio": trial.rejected / (trial.fired + trial.rejected),
            "trace_overhead": median(samples["ops_per_s"]) / (trial.fired / trial.elapsed),
        }
    )
    run.tables.append(
        render_table(
            f"{run.workload}: CPU time per epoch ({machines} machines, "
            f"{len(tracer)} spans)",
            rows,
            residual,
            total,
            "epoch",
        )
    )
    return run
