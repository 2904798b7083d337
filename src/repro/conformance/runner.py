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

import ast
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import fastpath
from repro.conformance import registry
from repro.conformance.corpus import Corpus, CorpusEntry, load_entries
from repro.conformance.coverage import CoverageMap
from repro.conformance.differential import DifferentialEngine
from repro.conformance.machineconf import MachineConformance, replay_machine_entry
from repro.conformance.mutate import Finding, MutationFuzzer, replay_entry
from repro.core import codec as core_codec
from repro.fastpath import policy as fp_policy
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
        entries = [
            e for e in registry.all_spec_entries() if specs is None or e.name in specs
        ]
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
            e
            for e in registry.all_machine_entries()
            if machines is None or e.name in machines
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
        entry = next(e for e in registry.all_spec_entries() if e.name == name)
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
        entry = next(e for e in registry.all_machine_entries() if e.name == name)
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
    corpus = Corpus()
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
        corpus_path=corpus.save(corpus_path) if corpus_path else None,
        demoted=sorted(demoted),
    )


def replay(entry: CorpusEntry) -> Tuple[str, str]:
    """Re-execute one corpus or flight-bundle entry: ``(status, detail)``.

    ``status`` is ``"reproduced"`` (the recorded outcome recurs),
    ``"drifted"`` (it no longer does: the bug moved or was fixed) or
    ``"unreplayable"`` (the engine has no replay, the subject has left
    the registry, or the entry holds nothing to re-run).  Registry
    entries are looked up at call time.
    """
    # A machine spec's demotion (op "exec") names a machine, not a spec.
    machine_op = entry.engine == "fastpath" and entry.meta.get("op") == "exec"
    if entry.engine == "machine" or machine_op:
        subjects = registry.all_machine_entries()
    elif entry.engine in ("fuzz", "fastpath"):
        subjects = registry.all_spec_entries()
    else:
        return "unreplayable", f"{entry.engine!r} entries record context only"
    subject = next((s for s in subjects if s.name == entry.subject), None)
    if subject is None:
        return "unreplayable", f"{entry.subject!r} is not in the registry"
    if machine_op:
        return "unreplayable", "machine demotion entries record no payload"
    if entry.engine == "fastpath":
        return _replay_demotion(entry, subject.spec)
    if entry.engine == "fuzz":
        ok, detail = replay_entry(entry, subject.spec)
    else:
        ok, detail = replay_machine_entry(entry, subject)
    return ("reproduced" if ok else "drifted"), detail or entry.detail


def _replay_demotion(entry: CorpusEntry, spec: Any) -> Tuple[str, str]:
    """Re-run the demoted op under ``verify``; does the spec demote again?"""
    op = entry.meta.get("op")
    values: Optional[Dict[str, Any]] = None
    if op in ("encode", "finalize", "make"):
        try:
            values = ast.literal_eval(entry.meta.get("values", ""))
        except (ValueError, SyntaxError):
            return "unreplayable", f"recorded {op} values do not parse back"
    elif op not in ("decode", "verify") or not entry.data:
        return "unreplayable", f"demotion entry has no replayable op ({op!r})"
    before = fastpath.stats()["demotions"]
    with fastpath.use(mode="always", verify=True):
        fp_policy.invalidate()  # fresh per-spec state: demotion can recur
        try:
            if op == "decode":
                core_codec.decode_packet(spec, entry.data)
            elif op == "verify":
                spec.decode(entry.data)  # the receive gate, cross-checked
            elif op == "finalize":
                core_codec.compute_checksums(spec, values)
            elif op == "make":
                spec.make(**values)
            else:
                # encode_verbatim takes the raw value environment the
                # demoted call saw (make() would recompute checksums).
                core_codec.encode_verbatim(spec, values)
        except Exception as exc:
            # A declared error is fine — the question is whether the
            # compiled tier diverged, which the demotion counter answers.
            detail = f"replay raised {type(exc).__name__}: {exc}"
        else:
            detail = "replay completed"
    if fastpath.stats()["demotions"] > before:
        return "reproduced", f"compiled tier demoted again ({detail})"
    return "drifted", f"no divergence on replay ({detail})"


def replay_corpus(path: str) -> Tuple[int, List[str]]:
    """Replay every entry in a corpus file or flight bundle.

    Returns ``(entries_checked, drift_messages)`` — an empty second
    element means every recorded behaviour still reproduces.
    Differential entries carry free-form reproducers with nothing
    generic to recheck, so they count as checked but cannot drift.
    """
    entries = load_entries(path)
    drifts: List[str] = []
    for entry in entries:
        status, detail = replay(entry)
        if status != "reproduced" and entry.engine != "differential":
            drifts.append(f"{entry.engine}/{entry.subject}: {detail}")
    return len(entries), drifts
