"""Shared infrastructure for the experiment benches.

Every bench regenerates one experiment from DESIGN.md (F1, E1–E13) and
registers its result table here; the tables are printed in the terminal
summary so that::

    pytest benchmarks/ --benchmark-only | tee bench_output.txt

captures both the timing numbers (pytest-benchmark's table) and the
experiment tables the paper-reproduction calls for.  Benches run with
``repro.obs`` disabled, as every process starts; a bench that reads obs
metrics enables obs itself.
"""

from __future__ import annotations

from typing import List, Sequence

_TABLES: List[str] = []


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
