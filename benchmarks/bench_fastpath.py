"""E15 — the transparent compiled tier under the perf harness (§5).

The paper's §5 claim is that implementations generated from the DSL can
"operate as fast as the hardware allows"; ``repro.fastpath`` makes the
runtime use those generated codecs transparently.  This bench runs the
packets-per-second harness (``benchmarks/perf_harness.py``) across every
registry spec at a small budget and asserts the structural guarantees
the full harness run (``BENCH_perf.json``) is trusted for:

* every spec report carries all three tiers plus speedup ratios,
* every spec actually reaches the compiled tier (no silent refusals),
* the compiled tier is never slower than the interpreter, and its
  checksum computation holds ``perf_harness.CHECKSUM_FLOOR``.
"""

import perf_harness
from conftest import record_table

from repro import fastpath
from repro.conformance.registry import all_spec_entries

BUDGET_SECONDS = 0.02  # per spec per tier; the committed artifact uses 0.2


def test_fastpath_tiers(benchmark):
    fastpath.reset()
    report = perf_harness.run(seed=0, budget_seconds=BUDGET_SECONDS)

    assert report["schema"] == perf_harness.SCHEMA
    specs = report["specs"]
    # The harness corpus may carry extra synthetic specs (e.g. the
    # payload-heavy BulkStream) beyond the registry set.
    assert set(specs) >= {entry.name for entry in all_spec_entries()}

    rows = []
    for name, row in specs.items():
        for tier in perf_harness.TIERS:
            assert row[tier]["packets_per_second"] > 0
        assert row["tier_used"] == "compiled", f"{name} never compiled"
        assert row["compiled_speedup"] >= 1.0, (
            f"{name}: compiled tier slower than the interpreter "
            f"({row['compiled_speedup']:.2f}x)"
        )
        checksum = row.get("checksum_speedup")
        assert checksum is None or checksum >= perf_harness.CHECKSUM_FLOOR, (
            f"{name}: compiled checksums at {checksum:.2f}x the interpreter's"
        )
        rows.append(
            (
                name,
                f"{row['interpreted']['packets_per_second']:,.0f}",
                f"{row['compiled']['packets_per_second']:,.0f}",
                f"{row['batch']['packets_per_second']:,.0f}",
                f"{row['compiled_speedup']:.2f}x",
                f"{row['batch_speedup']:.2f}x",
                f"{checksum:.2f}x" if checksum else "--",
            )
        )
    stats = report["fastpath_stats"]
    assert stats["demotions"] == 0  # generated codecs never diverged
    record_table(
        "E15",
        f"fast-path tiers, round-trip packets/sec ({BUDGET_SECONDS}s budget/cell)",
        ["spec", "interp pps", "compiled pps", "batch pps", "comp x", "batch x", "cksum x"],
        rows,
        notes=(
            "full-budget artifact: BENCH_perf.json "
            "(PYTHONPATH=src python benchmarks/perf_harness.py)"
        ),
    )

    corpus = perf_harness.build_corpus(0)
    bundle = corpus["ArqData"]
    with fastpath.use(mode="always"):
        fastpath.active_state(bundle["spec"], force=True)
        benchmark(fastpath.encode_many, bundle["spec"], bundle["values"])


def test_verify_mode_agrees(benchmark):
    """``verify=True`` cross-checks every call; zero divergences expected."""
    from repro.core import codec

    fastpath.reset()
    corpus = perf_harness.build_corpus(1)
    with fastpath.use(mode="always", verify=True):
        for name, bundle in sorted(corpus.items()):
            spec = bundle["spec"]
            for values, wire in zip(bundle["values"], bundle["wires"]):
                assert codec.encode_verbatim(spec, values) == wire
                assert codec.decode_packet(spec, wire) == values
            state = fastpath.state_of(spec)
            assert state is not None and state.status == "compiled", name
    assert fastpath.stats()["demotions"] == 0
    bundle = corpus["TcpHeader"]
    with fastpath.use(mode="always", verify=True):
        fastpath.active_state(bundle["spec"], force=True)
        benchmark(bundle["spec"].decode, bundle["wires"][0])
