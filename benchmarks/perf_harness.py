"""Packets-per-second harness: interpreted and compiled codec tiers.

The ROADMAP's north star says generated implementations should run "as
fast as the hardware allows"; this harness turns that into a number and
a regression gate.  For every spec in the conformance registry (plus a
payload-heavy synthetic one) it measures round-trip throughput (one
encode + one decode per packet) across the tier ladder:

``interpreted``
    ``repro.fastpath`` pinned off — the field-by-field codec walk.
``compiled``
    ``mode="always"`` — the generated closures via the transparent
    fast path, per-call entry points.
``checksum_interpreted`` / ``checksum_compiled``
    for specs with checksum fields, ``compute_checksums`` (the ``make``
    path) per tier.  A round trip computes no checksum, so only these
    cells can see a slow checksum kernel in either tier.

Results go to ``BENCH_perf.json`` (schema ``repro.fastpath/perf/v2``),
the baseline every future perf PR is compared against.

Usage::

    PYTHONPATH=src python benchmarks/perf_harness.py --budget 0.05
    PYTHONPATH=src python benchmarks/perf_harness.py --check  # CI gate

``--check`` fails (exit 1) when any spec's compiled tier is slower than
its interpreted tier (round trip), or below ``CHECKSUM_FLOOR`` of it
(checksums), or when any tier drops below its tolerance band versus the
committed baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import fastpath
from repro.conformance.registry import all_spec_entries
from repro.core import codec
from repro.core.fields import Bytes, ChecksumField, UInt
from repro.core.packet import PacketSpec
from repro.core.symbolic import this

SCHEMA = "repro.fastpath/perf/v2"
CORPUS_SIZE = 64  # distinct packets per spec, round-robined each rep

#: Payload-heavy synthetic spec: a 8-byte header in front of kilobytes
#: of opaque payload, so throughput is memcpy-bound rather than
#: field-walk-bound — the case the memoryview/join codegen work targets.
BULK_STREAM = PacketSpec(
    "BulkStream",
    fields=[
        UInt("stream_id", bits=16, doc="flow identifier"),
        UInt("sequence", bits=32, doc="byte offset of this chunk"),
        UInt("length", bits=16, doc="payload length in bytes"),
        Bytes("payload", length=this.length, doc="opaque bulk data"),
    ],
    doc="synthetic bulk-transfer chunk (payload-dominated wire image)",
)


def _bulk_values(rng: random.Random) -> Dict[str, Any]:
    length = 2048 + rng.randrange(2048)
    return {
        "stream_id": rng.randrange(1 << 16),
        "sequence": rng.randrange(1 << 32),
        "length": length,
        "payload": rng.randbytes(length),
    }


def build_corpus(seed: int) -> Dict[str, Dict[str, Any]]:
    """Deterministic per-spec packet corpora from the registry generators."""
    corpus: Dict[str, Dict[str, Any]] = {}
    for entry in all_spec_entries():
        rng = random.Random(seed)
        packets = [entry.generate(rng) for _ in range(CORPUS_SIZE)]
        values = [p._values for p in packets]
        wires = [entry.spec.encode(p) for p in packets]
        corpus[entry.name] = {
            "spec": entry.spec,
            "values": values,
            "wires": wires,
            "bytes": sum(len(w) for w in wires),
        }
    rng = random.Random(seed)
    values = [_bulk_values(rng) for _ in range(CORPUS_SIZE)]
    with fastpath.use(mode="off"):
        wires = [codec.encode_verbatim(BULK_STREAM, v) for v in values]
    corpus[BULK_STREAM.name] = {
        "spec": BULK_STREAM,
        "values": values,
        "wires": wires,
        "bytes": sum(len(w) for w in wires),
    }
    return corpus


def _roundtrip_single(spec: Any, values: List[dict], wires: List[bytes]) -> None:
    # Retain every result — discarding each 33KB UdpDatagram blob
    # immediately would recycle one cache-hot allocator block and
    # flatter this tier by ~3x on large-payload corpora.
    encode = codec.encode_verbatim
    decode = codec.decode_packet
    encoded = [encode(spec, value_env) for value_env in values]
    decoded = [decode(spec, wire) for wire in wires]
    del encoded, decoded


def _checksums_single(spec: Any, values: List[dict], wires: List[bytes]) -> None:
    compute = codec.compute_checksums
    for value_env in values:
        compute(spec, value_env)


def measure(
    runner: Callable[[Any, List[dict], List[bytes]], None],
    spec: Any,
    values: List[dict],
    wires: List[bytes],
    budget_seconds: float,
) -> Dict[str, Any]:
    """Best-of-reps round-trip rate, spending ~``budget_seconds``."""
    runner(spec, values, wires)  # warm-up: compiles, caches, allocator
    reps = 0
    best = float("inf")
    spent = 0.0
    while reps < 3 or spent < budget_seconds:
        start = time.perf_counter()
        runner(spec, values, wires)
        elapsed = time.perf_counter() - start
        spent += elapsed
        best = min(best, elapsed)
        reps += 1
        if reps >= 1000:  # tiny specs on tiny budgets: enough is enough
            break
    packets = len(values)
    return {
        "reps": reps,
        "best_seconds": best,
        "packets_per_second": packets / best,
        "roundtrips": packets,
    }


TIERS = ("interpreted", "compiled")


def run(seed: int, budget_seconds: float) -> Dict[str, Any]:
    corpus = build_corpus(seed)
    results: Dict[str, Any] = {}
    for name, bundle in sorted(corpus.items()):
        spec, values, wires = bundle["spec"], bundle["values"], bundle["wires"]
        per_spec: Dict[str, Any] = {
            "wire_bytes": bundle["bytes"],
            "corpus_packets": len(values),
        }
        with fastpath.use(mode="off"):
            per_spec["interpreted"] = measure(
                _roundtrip_single, spec, values, wires, budget_seconds
            )
        with fastpath.use(mode="always"):
            per_spec["compiled"] = measure(
                _roundtrip_single, spec, values, wires, budget_seconds
            )
            state = fastpath.state_of(spec)
            per_spec["tier_used"] = state.status if state else "interpreted"
        if any(isinstance(field, ChecksumField) for field in spec.fields):
            for tier, mode in (("checksum_interpreted", "off"), ("checksum_compiled", "always")):
                with fastpath.use(mode=mode):
                    per_spec[tier] = measure(
                        _checksums_single, spec, values, wires, budget_seconds
                    )
            per_spec["checksum_speedup"] = (
                per_spec["checksum_compiled"]["packets_per_second"]
                / per_spec["checksum_interpreted"]["packets_per_second"]
            )
        interp = per_spec["interpreted"]["packets_per_second"]
        per_spec["compiled_speedup"] = (
            per_spec["compiled"]["packets_per_second"] / interp
        )
        results[name] = per_spec
    return {
        "schema": SCHEMA,
        "seed": seed,
        "budget_seconds": budget_seconds,
        "metric": "round-trip packets/sec (1 encode + 1 decode per packet)",
        "cpu_count": os.cpu_count() or 1,
        "specs": results,
        "fastpath_stats": fastpath.stats(),
    }


def render(report: Dict[str, Any]) -> str:
    lines = [
        f"cores={report['cpu_count']}",
        f"{'spec':<18} {'interp pps':>12} {'compiled pps':>13} "
        f"{'comp x':>7} {'cksum x':>8}  tier",
    ]
    for name, row in report["specs"].items():
        checksum = row.get("checksum_speedup")
        lines.append(
            f"{name:<18} "
            f"{row['interpreted']['packets_per_second']:>12.0f} "
            f"{row['compiled']['packets_per_second']:>13.0f} "
            f"{row['compiled_speedup']:>6.2f}x "
            f"{f'{checksum:.2f}x' if checksum else '--':>8}  {row['tier_used']}"
        )
    return "\n".join(lines)


# -- the regression gate -------------------------------------------------

#: Per-tier floor as a fraction of the committed baseline's
#: packets/sec.  Wide bands: CI machines differ from the machine that
#: wrote the baseline, and best-of-reps still jitters.  The gate exists
#: to catch tier collapses (a codegen path silently demoting to the
#: interpreter), not 10% noise.
TOLERANCE = {
    "interpreted": 0.35,
    "compiled": 0.40,
}

#: Least compiled/interpreted ratio for ``compute_checksums``.  Below
#: 1.0 because UdpDatagram's checksum covers up to 64 KiB, so both tiers
#: spend nearly all their time in the same kernel and sit at ~1.1x;
#: header-sized specs run 2-5x.
CHECKSUM_FLOOR = 0.8


def _tier_pps(row: Optional[Dict[str, Any]], tier: str) -> Optional[float]:
    if not row:
        return None
    cell = row.get(tier)
    if not cell:
        return None
    return cell.get("packets_per_second")


def check_report(
    report: Dict[str, Any], baseline: Optional[Dict[str, Any]]
) -> List[str]:
    """Every reason this run fails the perf gate (empty = pass)."""
    problems: List[str] = []
    for name, row in sorted(report["specs"].items()):
        if row["compiled_speedup"] < 1.0:
            problems.append(
                f"{name}: compiled tier slower than interpreted "
                f"({row['compiled_speedup']:.2f}x)"
            )
        checksum = row.get("checksum_speedup")
        if checksum is not None and checksum < CHECKSUM_FLOOR:
            problems.append(
                f"{name}: compiled checksums at {checksum:.2f}x the "
                f"interpreter's, below {CHECKSUM_FLOOR}x"
            )
    if baseline and baseline.get("schema") == report.get("schema"):
        for name, base_row in sorted(baseline.get("specs", {}).items()):
            row = report["specs"].get(name)
            if row is None:
                problems.append(f"{name}: in baseline but missing from this run")
                continue
            for tier, band in TOLERANCE.items():
                base_pps = _tier_pps(base_row, tier)
                new_pps = _tier_pps(row, tier)
                if base_pps is None or new_pps is None:
                    continue  # tier absent on either side
                if new_pps < base_pps * band:
                    problems.append(
                        f"{name}/{tier}: {new_pps:,.0f} pps < "
                        f"{band:.0%} of baseline {base_pps:,.0f} pps"
                    )
    elif baseline:
        problems.append(
            f"baseline schema {baseline.get('schema')!r} != {report['schema']!r}; "
            "regenerate BENCH_perf.json"
        )
    return problems


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--budget",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="measurement budget per spec per tier (default: 0.2)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_perf.json",
        metavar="FILE",
        help="where to write the JSON report (default: BENCH_perf.json)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "baseline report for --check (default: the --output path, "
            "read before it is overwritten)"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit 1 on a tier regression versus the baseline, or a "
            "compiled tier or checksum lane slower than its floor"
        ),
    )
    args = parser.parse_args(argv)
    baseline = None
    if args.check:
        baseline_path = Path(args.baseline or args.output)
        if baseline_path.exists():
            baseline = json.loads(baseline_path.read_text())
        else:
            print(f"no baseline at {baseline_path}; absolute checks only")
    report = run(args.seed, args.budget)
    output_path = Path(args.output)
    if output_path.exists():
        # Sibling harnesses (benchmarks/bench_megasim.py) keep their own
        # top-level keys in the same report file; preserve them.
        try:
            previous = json.loads(output_path.read_text())
        except (OSError, ValueError):
            previous = {}
        for key in ("megasim",):
            if key in previous and key not in report:
                report[key] = previous[key]
    output_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(render(report))
    print(f"\nwrote {args.output}")
    if args.check:
        problems = check_report(report, baseline)
        if problems:
            print("PERF REGRESSION:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print("perf check OK: all tiers within tolerance of the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
