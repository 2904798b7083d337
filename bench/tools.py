"""Running workloads in child processes, calibration and comparison.

Every recorded run is a fresh ``python -m bench --workload ...`` process,
exactly as the benchmark is run one workload at a time, so set-up time
and peak RSS are never shared between workloads.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench import OUT, ROOT
from bench.spec import END_TO_END, MAX_BOUND, document, save
from bench.stats import median, quartiles, spread

#: A workload run must end within this many seconds.
CHILD_TIMEOUT = 180
#: Lower limit of a calibrated bound.
FLOOR = 0.05
#: A tail percentile whose run-to-run spread exceeds this is demoted to
#: a per-layer metric instead of getting a wide bound.
TAIL_LIMIT = 0.10
TAILS = ("latency_p99_us",)
CALIBRATION = ROOT / "bench" / "calibration.json"


def run_child(
    workload: str, seed: int, seconds: float, trace: int, echo: bool
) -> Tuple[int, Optional[Dict[str, Any]]]:
    """One workload in a fresh process; ``(returncode, last JSON line or None)``."""
    argv = [sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(
        argv, cwd=str(ROOT), capture_output=True, text=True, timeout=CHILD_TIMEOUT
    )
    if echo:
        sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return done.returncode, None


def run_all(workloads: Sequence[str], seed: int, seconds: float, trace: int) -> int:
    """Every workload once, printing each one's summary; 1 if any check failed."""
    status = 0
    for workload in workloads:
        code, result = run_child(workload, seed, seconds, trace, echo=True)
        if code != 0 or result is None or not result["correct"]:
            print(f"{workload}: FAILED (exit {code})")
            status = 1
    return status


def record(
    workloads: Sequence[str], runs: int, seconds: float, out: Optional[str]
) -> Dict[str, Any]:
    """Run each workload ``runs`` times with seeds 1..runs; save and return."""
    recorded: Dict[str, Any] = {"seconds": seconds, "runs": {}}
    for workload in workloads:
        entries = recorded["runs"][workload] = []
        for seed in range(1, runs + 1):
            code, result = run_child(workload, seed, seconds, 0, echo=False)
            entry = {"seed": seed, "returncode": code}
            if result is not None:
                entry.update(result)
                entry["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
            entries.append(entry)
            values = " ".join(f"{k}={v:.6g}" for k, v in entry.get("metrics", {}).items())
            print(f"{workload} seed={seed} exit={code} {values}", flush=True)
    path = Path(out) if out else OUT / "record.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return recorded


def all_correct(recorded: Dict[str, Any]) -> bool:
    return all(
        entry["returncode"] == 0 and entry.get("correct")
        for entries in recorded["runs"].values()
        for entry in entries
    )


def _values(entries: List[Dict[str, Any]], metric: str) -> List[float]:
    return [e["metrics"][metric] for e in entries if metric in e.get("metrics", {})]


def bounds_from(
    recorded: Dict[str, Any], doc: Dict[str, Any]
) -> Tuple[Dict[str, float], List[str], Dict[str, Dict[str, float]]]:
    """``(bounds, demoted, spreads)`` for the end-to-end metrics.

    A bound is three times the widest interquartile spread (as a share of
    the median) any workload showed, rounded up to a whole percent, at
    least :data:`FLOOR` and at most ``MAX_BOUND``; ``setup_s`` gets the
    largest bound of all.  A tail percentile spreading more than
    :data:`TAIL_LIMIT` is demoted to the per-layer list, and stays there.
    """
    current = {m["name"] for m in doc["end_to_end"]}
    demoted = [name for name, _, _ in END_TO_END if name not in current]
    spreads: Dict[str, Dict[str, float]] = {}
    bounds: Dict[str, float] = {}
    for name, _, _ in END_TO_END:
        if name in demoted:
            continue
        spreads[name] = {
            workload: spread(_values(entries, name))
            for workload, entries in recorded["runs"].items()
            if _values(entries, name)
        }
        widest = max(spreads[name].values(), default=0.0)
        if name in TAILS and widest > TAIL_LIMIT:
            demoted.append(name)
            continue
        bounds[name] = min(MAX_BOUND, max(FLOOR, math.ceil(300 * widest) / 100))
    bounds["setup_s"] = max(bounds.values())
    return bounds, demoted, spreads


def calibrate(recorded: Dict[str, Any], doc: Dict[str, Any]) -> Dict[str, Any]:
    """Rewrite ``BENCHMARK.json`` with bounds from ``recorded`` runs.

    The spreads, bounds, demotions and per-workload medians behind them
    go to ``bench/calibration.json``.
    """
    from bench.run import WORKLOADS

    bounds, demoted, spreads = bounds_from(recorded, doc)
    new = document(WORKLOADS, bounds, demoted)
    save(new)
    CALIBRATION.write_text(
        json.dumps(
            {
                "runs_per_workload": {w: len(e) for w, e in recorded["runs"].items()},
                "seconds": recorded["seconds"],
                "spread_iqr_over_median": spreads,
                "bounds": bounds,
                "demoted": demoted,
                "medians": {
                    w: {n: median(_values(e, n)) for n in spreads if _values(e, n)}
                    for w, e in recorded["runs"].items()
                },
            },
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    for name, per in sorted(spreads.items()):
        cells = " ".join(f"{w}={s:.4f}" for w, s in sorted(per.items()))
        state = "demoted" if name in demoted else f"bound={bounds[name]:.2f}"
        print(f"{name:16s} {state:12s} spread {cells}")
    return new


def judge(parent: List[float], change: List[float], better: str, bound: float) -> str:
    """better / within bound / worse / unresolved for one (metric, workload).

    "better" needs the change to win nine tenths of all parent/change
    pairs and the medians to differ by more than the parent's
    interquartile distance.  "worse" needs the change's median to be
    worse by more than the bound.  A spread wider than the bound leaves
    the row unresolved, unless every change run beats every parent run,
    or the change is worse by more than the bound and every change run
    trails every parent run.
    """
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = median(parent), median(change)
    worse_by = sign * (c_med - p_med) / p_med
    pairs = [(p, c) for p in parent for c in change]
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    q1, _, q3 = quartiles(parent)
    if worse_by < 0 and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > q3 - q1:
        return "better"
    noisy = max(spread(parent), spread(change)) > bound
    if worse_by > bound and (not noisy or losses == len(pairs)):
        return "worse"
    if noisy and wins < len(pairs):
        return "unresolved"
    return "within bound"


def compare_files(path_a: str, path_b: str, doc: Dict[str, Any]) -> int:
    """Print one verdict row per (metric, workload).

    Returns 1 if any row is worse, else 2 if any row is unresolved (the
    runs cannot show that the change stayed within its bounds), else 0.
    """
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))["runs"]
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))["runs"]
    print(
        f"{'workload':16s} {'metric':16s} {'parent':>14s} {'change':>14s} "
        f"{'change %':>9s} {'bound %':>8s}  verdict"
    )
    verdicts = []
    for workload in [w for w in a if w in b]:
        for metric in doc["end_to_end"]:
            name = metric["name"]
            parent, change = _values(a[workload], name), _values(b[workload], name)
            if not parent or not change:
                continue
            verdict = judge(parent, change, metric["better"], metric["bound"])
            verdicts.append(verdict)
            p_med, c_med = median(parent), median(change)
            print(
                f"{workload:16s} {name:16s} {p_med:14.4f} {c_med:14.4f} "
                f"{100 * (c_med - p_med) / p_med:+9.2f} {100 * metric['bound']:8.1f}  {verdict}"
            )
    if "worse" in verdicts:
        return 1
    if "unresolved" in verdicts:
        print(
            f"{verdicts.count('unresolved')} row(s) unresolved: their runs spread wider "
            "than the bound; run more pairs before calling them unchanged"
        )
        return 2
    return 0
