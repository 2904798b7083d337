"""Parallel conformance: disjoint units across workers, one merged report.

The serial runner (:func:`repro.conformance.runner.run_all`) iterates
*units* — one fuzzer per packet spec, one differential engine, one
conformance driver per machine — against a shared coverage map and
corpus.  Those units are independent by construction: every coverage
counter is labeled by its subject, engines only *append* to the corpus,
and each unit derives its PRNG from ``derive_rng(seed, engine, name)``,
which is process-independent.  That makes the parallel decomposition
exact rather than approximate:

* each unit runs in a worker with a private coverage map and corpus;
* the parent merges unit results **in the serial unit order**, so the
  merged coverage, corpus file, findings list, and case counts are
  byte-identical to a serial run with the same seed and budget;
* a unit that fails in a worker (or dies with it) is re-run in-process,
  so worker crashes cost time, never findings.

Workers execute :func:`execute_unit` by dotted name over the
``ShardedPool`` call channel — plain picklable kwargs in, a plain
picklable result dict out; no engine objects cross the process
boundary.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.conformance.corpus import Corpus
from repro.conformance.coverage import CoverageMap
from repro.conformance.runner import (
    ConformanceReport,
    EngineReport,
    derive_rng,
    run_all,
)
from repro.obs.instrument import get_default
from repro.parallel.pool import CallError, ShardedPool

_EXECUTE = "repro.parallel.confrun:execute_unit"


def plan_units(
    budget: int,
    engines: Sequence[str],
    specs: Optional[Sequence[str]],
    machines: Optional[Sequence[str]],
    shrink_budget: int,
) -> List[Dict[str, Any]]:
    """The serial runner's unit list, with its exact budget splits."""
    from repro.conformance.registry import all_machine_entries, all_spec_entries

    units: List[Dict[str, Any]] = []
    if "fuzz" in engines:
        entries = [
            e for e in all_spec_entries() if specs is None or e.name in specs
        ]
        per_spec = max(1, budget // max(1, len(entries)))
        for entry in entries:
            units.append(
                {
                    "kind": "fuzz",
                    "name": entry.name,
                    "budget": per_spec,
                    "shrink_budget": shrink_budget,
                }
            )
    if "differential" in engines:
        units.append(
            {
                "kind": "differential",
                "name": "differential",
                "budget": budget,
                "shrink_budget": shrink_budget,
            }
        )
    if "machine" in engines:
        entries = [
            e
            for e in all_machine_entries()
            if machines is None or e.name in machines
        ]
        per_machine = max(1, budget // max(1, len(entries)))
        for entry in entries:
            units.append(
                {
                    "kind": "machine",
                    "name": entry.name,
                    "budget": per_machine,
                    "shrink_budget": max(100, shrink_budget // 2),
                }
            )
    return units


def execute_unit(
    kind: str, name: str, seed: int, budget: int, shrink_budget: int
) -> Dict[str, Any]:
    """Run one conformance unit with private state; return picklable data.

    This is the function workers resolve by dotted name.  It is also the
    in-process fallback for units whose worker failed, so its behaviour
    must not depend on which side of the fork it runs on: private
    coverage/corpus, a PRNG derived from ``(seed, engine, name)``, and a
    per-unit obs delta (the worker's process-default registry is reset at
    unit start so snapshots never double-count earlier units).
    """
    from repro.conformance.differential import DifferentialEngine
    from repro.conformance.machineconf import MachineConformance
    from repro.conformance.mutate import MutationFuzzer
    from repro.conformance.registry import all_machine_entries, all_spec_entries

    obs = get_default()
    if obs.enabled:
        obs.registry.reset()
    coverage = CoverageMap()
    corpus = Corpus()
    if kind == "fuzz":
        entry = next(e for e in all_spec_entries() if e.name == name)
        engine: Any = MutationFuzzer(
            entry,
            derive_rng(seed, "fuzz", name),
            coverage,
            corpus=corpus,
            seed=seed,
            shrink_budget=shrink_budget,
        )
    elif kind == "differential":
        engine = DifferentialEngine(
            derive_rng(seed, "differential"),
            coverage,
            corpus=corpus,
            seed=seed,
            shrink_budget=shrink_budget,
        )
    elif kind == "machine":
        entry = next(e for e in all_machine_entries() if e.name == name)
        engine = MachineConformance(
            entry,
            derive_rng(seed, "machine", name),
            coverage,
            corpus=corpus,
            seed=seed,
            shrink_budget=shrink_budget,
        )
    else:
        raise ValueError(f"unknown conformance unit kind {kind!r}")
    findings = engine.run(budget)
    return {
        "kind": kind,
        "name": name,
        "cases": engine.cases,
        "findings": findings,
        "corpus": list(corpus.entries),
        "coverage": coverage.export(),
        "obs": obs.registry.snapshot() if obs.enabled else None,
    }


def run_all_parallel(
    workers: int,
    seed: int = 0,
    budget: int = 2000,
    engines: Sequence[str] = ("fuzz", "differential", "machine"),
    specs: Optional[Sequence[str]] = None,
    machines: Optional[Sequence[str]] = None,
    corpus_path: Optional[str] = None,
    shrink_budget: int = 600,
    exporter: Optional[Any] = None,
) -> ConformanceReport:
    """Like ``run_all`` but with units sharded over ``workers`` processes.

    The run owns its :class:`ShardedPool` and closes it before
    returning.  With ``workers < 2`` (or nothing to run) it is the
    serial runner; individual unit failures re-run in-process.  The
    report — findings, case counts, coverage summary, corpus file — is
    byte-identical to the serial run's.

    ``exporter`` (a :class:`repro.obs.live.Exporter`) switches the live
    telemetry plane on: worker streamers' metric deltas are folded into
    a :class:`~repro.obs.live.stream.LiveAggregator` and republished as
    the run progresses, and the authoritative merged registry goes out
    as one ``final`` payload.  The live view is advisory — it never
    touches the process-default registry, so the end-of-run merge stays
    byte-identical to a serial run whether or not exports are on.
    """
    from repro.obs.live.stream import LiveAggregator

    units = plan_units(budget, engines, specs, machines, shrink_budget)
    if workers < 2 or not units:
        report = run_all(
            seed=seed,
            budget=budget,
            engines=engines,
            specs=specs,
            machines=machines,
            corpus_path=corpus_path,
            shrink_budget=shrink_budget,
        )
        if exporter is not None:
            serial_obs = get_default()
            exporter.publish(
                serial_obs.registry.snapshot() if serial_obs.enabled else {},
                kind="final",
            )
        return report
    aggregator = LiveAggregator(exporter) if exporter is not None else None
    calls = [
        (
            _EXECUTE,
            {
                "kind": unit["kind"],
                "name": unit["name"],
                "seed": seed,
                "budget": unit["budget"],
                "shrink_budget": unit["shrink_budget"],
            },
        )
        for unit in units
    ]
    pool = ShardedPool(workers)
    try:
        if aggregator is not None:
            pool.telemetry_sink = aggregator.ingest
        results = pool.run_calls(calls)
        if aggregator is not None:
            # Pick up the streamers' last periodic ticks before the
            # pool (and its result queue) go away.
            pool.drain_telemetry()
    finally:
        pool.close()
    merged: List[Dict[str, Any]] = []
    for unit, result in zip(units, results):
        if isinstance(result, CallError):
            # The unit died with its worker or errored remotely; the
            # in-process rerun is deterministic, so nothing is lost.
            result = execute_unit(
                kind=unit["kind"],
                name=unit["name"],
                seed=seed,
                budget=unit["budget"],
                shrink_budget=unit["shrink_budget"],
            )
        merged.append(result)

    coverage = CoverageMap()
    corpus = Corpus(corpus_path) if corpus_path else Corpus()
    obs = get_default()
    reports: List[EngineReport] = []
    for engine_name in ("fuzz", "differential", "machine"):
        if engine_name not in engines:
            continue
        report = EngineReport(engine_name, 0)
        for result in merged:
            if result["kind"] != engine_name:
                continue
            report.cases += result["cases"]
            report.findings.extend(result["findings"])
        reports.append(report)
    for result in merged:
        coverage.merge(result["coverage"])
        for entry in result["corpus"]:
            corpus.add(entry)
        if obs.enabled and result.get("obs"):
            obs.registry.merge_snapshot(result["obs"])
    saved_path = corpus.save() if corpus_path else None
    if exporter is not None:
        # One authoritative final payload: the *merged* registry (the
        # thing guaranteed byte-identical to serial), not the live view.
        view = aggregator.snapshot() if aggregator is not None else {}
        exporter.publish(
            obs.registry.snapshot()
            if obs.enabled
            else view.get("metrics", {}),
            kind="final",
            workers=view.get("workers", {}),
            dropped=view.get("dropped", 0),
            trace=view.get("trace", [])[-64:],
        )
    return ConformanceReport(
        seed=seed,
        budget=budget,
        engines=reports,
        coverage=coverage.summary(),
        corpus_path=saved_path,
    )
