"""The conformance runner: all engines, every subject, one report.

One :func:`run_all` call covers the tentpole's three engines — mutation
fuzzing over every packet spec, differential checks against the
independent oracles, and machine conformance against the model — under
a single deterministic seed.  A run is a list of *units* (one fuzzer per
packet spec, one differential engine, one conformance driver per
machine), each run with a private coverage map and corpus and merged in
unit order into one map, one corpus and one report.

The units are independent by construction: every coverage counter is
labeled by its subject, engines only *append* to the corpus, and each
unit derives its PRNG from ``derive_rng(seed, engine, name)``, which is
process-independent.  So it changes nothing in the report or the corpus
file whether a unit runs in this process or, under ``workers > 1``, in a
:class:`~repro.parallel.pool.ShardedPool` worker, and a unit that fails
in a worker simply runs again here.  The CLI
(:mod:`repro.conformance.__main__`) and the pytest/nightly gates are
thin wrappers over this module.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import fastpath
from repro.conformance.corpus import Corpus, load_entries
from repro.conformance.coverage import CoverageMap
from repro.conformance.differential import DifferentialEngine
from repro.conformance.machineconf import MachineConformance, replay_machine_entry
from repro.conformance.mutate import Finding, MutationFuzzer, replay_entry
from repro.conformance.registry import all_machine_entries, all_spec_entries
from repro.obs.instrument import enable, get_default
from repro.parallel.pool import CallError, ShardedPool

ENGINES = ("fuzz", "differential", "machine")

#: What a pool worker calls for one unit (see :func:`execute_unit_in_worker`).
_WORKER_TARGET = "repro.conformance.runner:execute_unit_in_worker"


def derive_rng(seed: int, *parts: str) -> random.Random:
    """A child PRNG stable across processes (unlike salted ``hash()``)."""
    digest = hashlib.sha256("|".join([str(seed), *parts]).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class EngineReport:
    """What one engine did: case count and surviving findings."""

    engine: str
    cases: int
    findings: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


@dataclass
class ConformanceReport:
    """The aggregated result of one conformance run."""

    seed: int
    budget: int
    engines: List[EngineReport]
    coverage: Dict[str, Dict[str, int]]
    corpus_path: Optional[str] = None
    #: ``(spec, reason)`` for each spec the compiled tier demoted, in
    #: this process or in any worker that ran a unit.
    demoted: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(engine.ok for engine in self.engines)

    @property
    def findings(self) -> List[Finding]:
        return [f for engine in self.engines for f in engine.findings]

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "budget": self.budget,
                "ok": self.ok,
                "engines": [
                    {
                        "engine": e.engine,
                        "cases": e.cases,
                        "findings": [str(f) for f in e.findings],
                    }
                    for e in self.engines
                ],
                "coverage": self.coverage,
                "corpus": self.corpus_path,
            },
            indent=2,
            sort_keys=True,
        )

    def render(self) -> str:
        """Human-readable summary for the CLI."""
        lines = [
            f"conformance run: seed={self.seed} budget={self.budget} "
            f"-> {'OK' if self.ok else 'FAIL'}"
        ]
        for engine in self.engines:
            lines.append(
                f"  {engine.engine:<12} {engine.cases:>6} cases  "
                f"{len(engine.findings)} finding(s)"
            )
            for finding in engine.findings:
                lines.append(f"    {finding}")
        for name, stats in sorted(self.coverage.items()):
            lines.append(
                f"  coverage {name}: {stats['points']} points, "
                f"{stats['hits']} hits"
            )
        if self.corpus_path:
            lines.append(f"  corpus: {self.corpus_path}")
        return "\n".join(lines)


def plan_units(
    budget: int,
    engines: Sequence[str],
    specs: Optional[Sequence[str]],
    machines: Optional[Sequence[str]],
    shrink_budget: int,
) -> List[Dict[str, Any]]:
    """The run's units in merge order, each with its share of the budget.

    ``budget`` is the case budget *per engine*: the fuzzer splits it
    across packet specs, the machine engine across machine entries, and
    the one differential unit splits it across its oracles.
    ``specs``/``machines`` filter subjects by name (default: everything
    in the registry).
    """
    units: List[Dict[str, Any]] = []
    if "fuzz" in engines:
        entries = [e for e in all_spec_entries() if specs is None or e.name in specs]
        per_spec = max(1, budget // max(1, len(entries)))
        units.extend(
            {
                "kind": "fuzz",
                "name": entry.name,
                "budget": per_spec,
                "shrink_budget": shrink_budget,
            }
            for entry in entries
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
            e for e in all_machine_entries() if machines is None or e.name in machines
        ]
        per_machine = max(1, budget // max(1, len(entries)))
        units.extend(
            {
                "kind": "machine",
                "name": entry.name,
                "budget": per_machine,
                "shrink_budget": max(100, shrink_budget // 2),
            }
            for entry in entries
        )
    return units


def execute_unit(
    kind: str, name: str, seed: int, budget: int, shrink_budget: int
) -> Dict[str, Any]:
    """Run one unit with a private coverage map and corpus.

    Returns plain picklable data: case count, findings, corpus entries
    and the exported coverage map.  Metrics go to this process's default
    registry, as they do for any code under ``repro.obs``.
    """
    coverage = CoverageMap()
    corpus = Corpus()
    engine: Any
    if kind == "fuzz":
        entry = next(e for e in all_spec_entries() if e.name == name)
        engine = MutationFuzzer(
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
        "cases": engine.cases,
        "findings": findings,
        "corpus": list(corpus.entries),
        "coverage": coverage.export(),
    }


def execute_unit_in_worker(record: bool, **unit: Any) -> Dict[str, Any]:
    """:func:`execute_unit` in a pool worker, with what the parent merges.

    ``record`` says whether the parent records metrics.  If it does, the
    worker records too (a worker started under ``spawn`` begins with
    recording off), zeroes its registry so the snapshot holds this unit
    alone, and ships that snapshot under ``"obs"``.  ``"demoted"`` lists
    the specs this worker's compiled tier has demoted so far.
    """
    obs = get_default()
    if record:
        enable()
        obs.registry.reset()
    result = execute_unit(**unit)
    result["obs"] = obs.registry.snapshot() if record else None
    result["demoted"] = fastpath.demoted()
    return result


def run_all(
    seed: int = 0,
    budget: int = 2000,
    engines: Sequence[str] = ENGINES,
    specs: Optional[Sequence[str]] = None,
    machines: Optional[Sequence[str]] = None,
    corpus_path: Optional[str] = None,
    shrink_budget: int = 600,
    workers: int = 1,
) -> ConformanceReport:
    """Run the selected engines over the selected subjects.

    See :func:`plan_units` for how ``budget`` splits and how ``specs``/
    ``machines`` filter.  With ``workers > 1`` the units run on a
    :class:`~repro.parallel.pool.ShardedPool` of that size, closed
    before this returns; each worker's metrics merge into this process's
    default registry as its reply arrives, and a unit that fails in a
    worker runs again in this process.  The same ``seed`` always
    reproduces the same report and corpus file, whatever ``workers`` is.
    """
    units = plan_units(budget, engines, specs, machines, shrink_budget)
    results: List[Optional[Dict[str, Any]]] = [None] * len(units)
    demoted: set = set()
    if workers > 1 and units:
        obs = get_default()
        record = obs.enabled
        calls = [
            (_WORKER_TARGET, dict(unit, seed=seed, record=record)) for unit in units
        ]
        pool = ShardedPool(workers)
        try:
            for index, reply in pool.iter_calls(calls):
                if isinstance(reply, CallError):
                    continue  # runs again in this process below
                if record:
                    obs.registry.merge_snapshot(reply["obs"])
                demoted.update(reply["demoted"])
                results[index] = reply
        finally:
            pool.close()
    coverage = CoverageMap()
    corpus = Corpus(corpus_path) if corpus_path else Corpus()
    reports = {name: EngineReport(name, 0) for name in ENGINES if name in engines}
    for unit, result in zip(units, results):
        if result is None:
            result = execute_unit(seed=seed, **unit)
        report = reports[unit["kind"]]
        report.cases += result["cases"]
        report.findings.extend(result["findings"])
        coverage.merge(result["coverage"])
        for entry in result["corpus"]:
            corpus.add(entry)
    demoted.update(fastpath.demoted())
    return ConformanceReport(
        seed=seed,
        budget=budget,
        engines=list(reports.values()),
        coverage=coverage.summary(),
        corpus_path=corpus.save() if corpus_path else None,
        demoted=sorted(demoted),
    )


def replay_corpus(path: str) -> Tuple[int, List[str]]:
    """Replay every entry in a corpus file.

    Returns ``(entries_checked, drift_messages)`` — an empty second
    element means every recorded behaviour still reproduces.
    """
    spec_entries = {e.name: e for e in all_spec_entries()}
    machine_entries = {e.name: e for e in all_machine_entries()}
    drifts: List[str] = []
    checked = 0
    for entry in load_entries(path):
        checked += 1
        if entry.engine == "fuzz":
            spec_entry = spec_entries.get(entry.subject)
            if spec_entry is None:
                drifts.append(f"unknown spec {entry.subject!r} in corpus")
                continue
            ok, detail = replay_entry(entry, spec_entry.spec)
        elif entry.engine == "machine":
            machine_entry = machine_entries.get(entry.subject)
            if machine_entry is None:
                drifts.append(f"unknown machine {entry.subject!r} in corpus")
                continue
            ok, detail = replay_machine_entry(entry, machine_entry)
        else:
            # Differential entries carry free-form reproducers; nothing
            # generic to recheck without the original oracle pairing.
            continue
        if not ok:
            drifts.append(f"{entry.engine}/{entry.subject}: {detail}")
    return checked, drifts
