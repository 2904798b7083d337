"""Shared infrastructure for the experiment benches.

Every bench regenerates one experiment from DESIGN.md (F1, E1–E13) and
registers its result table here; the tables are printed in the terminal
summary so that::

    pytest benchmarks/ --benchmark-only | tee bench_output.txt

captures both the timing numbers (pytest-benchmark's table) and the
experiment tables the paper-reproduction calls for.

Every bench also runs under the ``repro.obs`` instrumentation: an autouse
fixture enables the process default, snapshots the metrics registry after
each bench, and the session merges the per-bench snapshots into
``BENCH_obs.json`` at the repo root — the measurement substrate future
perf PRs diff against.  Running part of the suite replaces only the
entries of the benches that ran.

The committed file holds *compact* snapshots (histograms reduced to
count/mean/p50/p95/max via :func:`repro.obs.compact_snapshot`) so the
artifact diffs by the numbers that matter instead of hundreds of raw
bucket arrays.  Run with ``--obs-full`` to write raw bucket-level
snapshots locally when a perf investigation needs the distributions.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence

import pytest

_TABLES: List[str] = []
_OBS_SNAPSHOTS: Dict[str, dict] = {}

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OBS_OUTPUT_PATH = os.path.join(_REPO_ROOT, "BENCH_obs.json")
OBS_SCHEMA = "repro.obs/bench-snapshots/v2"


def pytest_addoption(parser):
    parser.addoption(
        "--obs-full",
        action="store_true",
        default=False,
        help=(
            "write raw bucket-level obs snapshots to BENCH_obs.json "
            "(default: compact summary stats, the committed form)"
        ),
    )


@pytest.fixture(autouse=True)
def _obs_per_benchmark(request):
    """Observe every bench; snapshot and reset the registry around it."""
    from repro import obs

    instr = obs.enable()
    instr.reset()
    yield
    snapshot = instr.registry.snapshot()
    if snapshot:
        if not request.config.getoption("--obs-full"):
            snapshot = obs.compact_snapshot(snapshot)
        _OBS_SNAPSHOTS[request.node.nodeid] = {
            "metrics": snapshot,
            "trace_records": len(instr.tracer.records()),
        }
    instr.reset()
    obs.disable()


def pytest_sessionfinish(session, exitstatus):
    if not _OBS_SNAPSHOTS:
        return
    full = session.config.getoption("--obs-full")
    merge_snapshots(OBS_OUTPUT_PATH, _OBS_SNAPSHOTS, compact=not full)


def merge_snapshots(path: str, snapshots: Dict[str, dict], compact: bool) -> None:
    """Write ``snapshots`` into the snapshot file at ``path``.

    Entries of benches that did not run are kept when the file has the
    same schema and ``compact`` flag; otherwise the file is replaced.
    """
    benchmarks: Dict[str, dict] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            previous = json.load(handle)
    except (OSError, ValueError):
        previous = None
    if (
        isinstance(previous, dict)
        and previous.get("schema") == OBS_SCHEMA
        and previous.get("compact") == compact
    ):
        benchmarks.update(previous.get("benchmarks", {}))
    benchmarks.update(snapshots)
    payload = {"schema": OBS_SCHEMA, "compact": compact, "benchmarks": benchmarks}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def record_table(
    experiment: str,
    title: str,
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: str = "",
) -> str:
    """Format and register an experiment table; returns the rendered text."""
    widths = [len(str(h)) for h in header]
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [f"== {experiment}: {title} =="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    if notes:
        lines.append(notes)
    text = "\n".join(lines)
    _TABLES.append(text)
    return text


def record_text(experiment: str, title: str, body: str) -> None:
    """Register a free-form experiment artifact (e.g. the Figure 1 diagram)."""
    _TABLES.append(f"== {experiment}: {title} ==\n{body}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_sep("=", "experiment tables (paper reproduction)")
    for table in _TABLES:
        terminalreporter.write_line("")
        for line in table.splitlines():
            terminalreporter.write_line(line)
