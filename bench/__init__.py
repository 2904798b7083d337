"""End-to-end benchmark for the serving plane and megasim.

Run ``python -m bench --help`` from the root of a checkout.  The package
imports ``repro`` from the checkout's own ``src/`` directory (see
:func:`use_src`), so nothing needs installing and a checkout without
``src/`` fails loudly instead of measuring some other copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where runs leave span files and recorded results (git-ignored).
OUT = ROOT / ".bench_out"


def use_src() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Exits non-zero when the checkout has no ``src/repro``: the benchmark
    must never fall back to a ``repro`` found elsewhere.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: {SRC / 'repro'} not found; run from a full checkout")
    path = str(SRC)
    if sys.path[:1] != [path]:
        sys.path.insert(0, path)
