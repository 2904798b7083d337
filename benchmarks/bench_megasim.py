"""Megasim benchmark: population events/sec versus the per-object loop.

Two measurements at the same machine count, written into the
``"megasim"`` key of ``BENCH_perf.json`` (the fast-path harness
preserves it when regenerating its own tiers):

* ``baseline`` — the per-object plane: one
  :class:`~repro.core.machine.Machine` per node, each driven by a
  rescheduling :class:`~repro.netsim.simulator.Simulator` timer, the
  way ``repro.adapt``/``repro.trust`` host their nodes today;
* ``megasim`` — the population plane: the same sealed spec in
  :mod:`repro.megasim`'s dense arrays, each epoch run as array
  operations with the spec's array cohort kernels, measured over a full
  serial scenario (planning, barrier routing and transcript digests
  included).

Each side runs in its own subprocess so the recorded ``peak_rss_kb`` is
that plane's high-water mark alone — the memory tier is the difference
between hosting 100k Machine objects and hosting two arrays.

``--check`` enforces a per-scale speedup floor — the ``>= 10x``
acceptance floor at the default 100k scale, where the per-object
baseline is a stable reading, and a ``>= 5x`` collapse floor at the
small CI scale, whose sub-second baseline run jitters 2-3x on shared
runners — plus a generous tolerance band against the committed entry
for the same scale; absolute collapse fails CI, scheduler jitter does
not.

Usage::

    PYTHONPATH=src python benchmarks/bench_megasim.py               # 100k
    PYTHONPATH=src python benchmarks/bench_megasim.py --scale small # CI
    PYTHONPATH=src python benchmarks/bench_megasim.py --check       # gate
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, _SRC)

SCHEMA = "repro.megasim/bench/v1"
#: The acceptance floor, enforced at the scale where the baseline is a
#: stable reading (100k machines: the per-object loop's heap depth and
#: object churn dominate).  The small CI smoke keeps a lower collapse
#: floor: its 15k-event baseline run is sub-second and its events/sec
#: swings 2-3x run to run on shared runners, so a 10x gate there would
#: flake on jitter rather than catch regressions.
SPEEDUP_FLOOR = 10.0
#: Relative events/sec floor versus the committed entry before --check
#: fails; single-core CI runners jitter, collapse is what we gate.
TOLERANCE = 0.4

SCALES = {
    "small": {
        "machines": 5_000,
        "epochs": 3,
        "baseline_events": 15_000,
        "speedup_floor": 5.0,
    },
    "default": {
        "machines": 100_000,
        "epochs": 3,
        "baseline_events": 100_000,
        "speedup_floor": SPEEDUP_FLOOR,
    },
}


def _peak_rss_kb() -> int:
    """This process's high-water RSS in KiB (Linux ru_maxrss unit)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _phase_baseline(machines: int, events: int, seed: int) -> Dict[str, Any]:
    """The per-object plane: Machines on rescheduling simulator timers."""
    from repro.core.machine import Machine
    from repro.megasim.workloads import get_workload
    from repro.netsim.simulator import Simulator

    workload = get_workload("olsr")
    initial = workload.spec.initial_states[0]
    sim = Simulator()
    hosted = [
        Machine(workload.spec, initial.instance(value))
        for value in workload.initial_values(0, machines).tolist()
    ]

    def beacon(machine: Machine, period: float) -> None:
        machine.exec_trans("HELLO")
        sim.schedule(period, lambda: beacon(machine, period))

    for index, machine in enumerate(hosted):
        period = 1.0 + (index % 97) * 0.01
        sim.schedule(
            period, lambda m=machine, p=period: beacon(m, p)
        )
    started = time.perf_counter()
    sim.run(max_events=events)
    elapsed = time.perf_counter() - started
    assert sim.events_processed == events
    return {
        "machines": machines,
        "events": events,
        "elapsed_seconds": elapsed,
        "events_per_second": events / elapsed,
        "peak_rss_kb": _peak_rss_kb(),
    }


def _phase_megasim(machines: int, epochs: int, seed: int) -> Dict[str, Any]:
    """The population plane: one full serial scenario, all-in timing."""
    from repro.megasim import RunConfig, run_serial

    result = run_serial(
        RunConfig(workload="olsr", machines=machines, epochs=epochs, seed=seed)
    )
    return {
        "machines": machines,
        "epochs": epochs,
        "events": result.fired,
        "messages": result.emitted,
        "elapsed_seconds": result.elapsed,
        "events_per_second": result.events_per_second,
        "final_digest": result.lines[-1].rsplit("digest=", 1)[1],
        "peak_rss_kb": _peak_rss_kb(),
    }


def _run_phase_subprocess(phase: str, **kwargs: Any) -> Dict[str, Any]:
    """Run one phase in a fresh interpreter for an isolated RSS reading."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, os.path.abspath(__file__), "--phase", phase]
    for key, value in kwargs.items():
        argv.extend([f"--{key.replace('_', '-')}", str(value)])
    completed = subprocess.run(
        argv, env=env, capture_output=True, text=True, check=False
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"bench phase {phase!r} failed:\n{completed.stderr}"
        )
    return json.loads(completed.stdout)


def run_scale(name: str, seed: int) -> Dict[str, Any]:
    params = SCALES[name]
    baseline = _run_phase_subprocess(
        "baseline",
        machines=params["machines"],
        events=params["baseline_events"],
        seed=seed,
    )
    megasim = _run_phase_subprocess(
        "megasim",
        machines=params["machines"],
        epochs=params["epochs"],
        seed=seed,
    )
    return {
        "baseline": baseline,
        "megasim": megasim,
        "speedup": megasim["events_per_second"] / baseline["events_per_second"],
    }


def check(
    entry: Dict[str, Any], committed: Optional[Dict[str, Any]], scale: str
) -> List[str]:
    problems = []
    speedup = entry["speedup"]
    floor = SCALES[scale]["speedup_floor"]
    if speedup < floor:
        problems.append(
            f"{scale}: megasim is only {speedup:.1f}x the per-object loop "
            f"(floor {floor}x)"
        )
    if committed is not None:
        for side in ("baseline", "megasim"):
            measured = entry[side]["events_per_second"]
            recorded = committed.get(side, {}).get("events_per_second")
            if recorded and measured < recorded * TOLERANCE:
                problems.append(
                    f"{scale}/{side}: {measured:,.0f} events/sec is below "
                    f"{TOLERANCE:.0%} of the committed {recorded:,.0f}"
                )
    return problems


def _render(scale: str, entry: Dict[str, Any]) -> str:
    baseline, megasim = entry["baseline"], entry["megasim"]
    return (
        f"{scale:>8}: per-object {baseline['events_per_second']:>10,.0f} ev/s "
        f"({baseline['peak_rss_kb'] / 1024:.0f} MiB) | "
        f"megasim {megasim['events_per_second']:>10,.0f} ev/s "
        f"({megasim['peak_rss_kb'] / 1024:.0f} MiB) | "
        f"speedup {entry['speedup']:.1f}x"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="default")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", default="BENCH_perf.json", metavar="FILE")
    parser.add_argument("--baseline", default=None, metavar="FILE")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on speedup below the floor or collapse versus baseline",
    )
    # Internal: run one measured side in this process and print JSON.
    parser.add_argument("--phase", choices=("baseline", "megasim"))
    parser.add_argument("--machines", type=int)
    parser.add_argument("--events", type=int)
    parser.add_argument("--epochs", type=int)
    args = parser.parse_args(argv)

    if args.phase == "baseline":
        json.dump(_phase_baseline(args.machines, args.events, args.seed), sys.stdout)
        return 0
    if args.phase == "megasim":
        json.dump(_phase_megasim(args.machines, args.epochs, args.seed), sys.stdout)
        return 0

    committed: Optional[Dict[str, Any]] = None
    baseline_path = Path(args.baseline or args.output)
    if baseline_path.exists():
        committed = (
            json.loads(baseline_path.read_text())
            .get("megasim", {})
            .get("scales", {})
            .get(args.scale)
        )

    entry = run_scale(args.scale, args.seed)
    print(_render(args.scale, entry))

    output_path = Path(args.output)
    report = (
        json.loads(output_path.read_text()) if output_path.exists() else {}
    )
    section = report.setdefault("megasim", {})
    section["schema"] = SCHEMA
    section["metric"] = (
        "events/sec: serial megasim epoch engine vs per-object "
        "Simulator+Machine timer loop (olsr workload)"
    )
    section["speedup_floor"] = SPEEDUP_FLOOR
    entry["speedup_floor"] = SCALES[args.scale]["speedup_floor"]
    section.setdefault("scales", {})[args.scale] = entry
    output_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output} (megasim/{args.scale})")

    if args.check:
        problems = check(entry, committed, args.scale)
        if problems:
            print("MEGASIM PERF REGRESSION:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(
            f"megasim check OK: speedup {entry['speedup']:.1f}x "
            f">= {SCALES[args.scale]['speedup_floor']}x floor"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
