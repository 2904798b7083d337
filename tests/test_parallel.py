"""``repro.parallel``: sharded conformance, crash recovery, pool lifetime.

The contract under test everywhere here is *transparency*: sharding a
run over workers (or having a worker die mid-run) may change timing,
but never results — conformance findings, coverage, corpus files and
the metrics the run leaves in the process registry must be identical
to the serial run's.
"""

import multiprocessing

import pytest

from repro import obs
from repro.conformance import runner
from repro.conformance.runner import (
    execute_unit,
    execute_unit_in_worker,
    plan_units,
    run_all,
)
from repro.parallel.pool import CallError, ShardedPool


@pytest.fixture
def pool():
    pool = ShardedPool(2)
    yield pool
    pool.close()


def _live_children():
    return {child.pid for child in multiprocessing.active_children()}


def _counters():
    return {
        (name, tuple(sorted(entry["labels"].items()))): entry["value"]
        for name, entries in obs.get_default().registry.snapshot().items()
        for entry in entries
        if entry["kind"] == "counter" and entry["value"]
    }


def _run_counted(**run):
    """A run's report and the counters it leaves in a fresh registry."""
    instr = obs.enable()
    try:
        instr.registry.reset()
        return run_all(**run), _counters()
    finally:
        obs.disable()


class TestCrashRecovery:
    def test_worker_crash_falls_back_then_recovers(self, pool):
        calls = [
            ("repro.conformance.runner:derive_rng", {"seed": seed})
            for seed in range(4)
        ]
        instr = obs.enable()
        instr.registry.reset()
        try:
            pool.inject_crash(0)
            crashed = pool.run_calls(calls)
            # Slot 0's worker died before its first unit: that unit (and
            # any other it held) comes back as a CallError, the rest answer.
            assert isinstance(crashed[0], CallError)
            assert not isinstance(crashed[1], CallError)
            assert pool.stats["worker_failures"] >= 1
            assert instr.registry.value(
                "parallel.worker_failures", reason="crash"
            ) >= 1
            # The pool respawned the dead slot: the next run answers
            # every unit instead of limping along one worker short.
            again = pool.run_calls(calls)
            assert not any(isinstance(reply, CallError) for reply in again)
            assert pool.alive()
        finally:
            obs.disable()

    def test_call_errors_are_lenient(self, pool):
        results = pool.run_calls(
            [
                ("repro.conformance.runner:derive_rng", {"seed": 1}),
                ("repro.no_such_module:missing", {}),
            ]
        )
        assert not isinstance(results[0], CallError)
        assert isinstance(results[1], CallError)
        assert "no_such_module" in results[1].message


class TestPoolLifetime:
    def test_one_worker_pool_rejected(self):
        with pytest.raises(ValueError, match="at least 2 workers"):
            ShardedPool(1)

    def test_parallel_run_leaves_no_live_workers(self):
        before = _live_children()
        run_all(workers=2, seed=3, budget=40, engines=("machine",))
        assert _live_children() - before == set()


class TestParallelConformance:
    def test_plan_matches_serial_budget_split(self):
        units = plan_units(400, ("fuzz", "machine"), None, None, 600)
        kinds = {u["kind"] for u in units}
        assert kinds == {"fuzz", "machine"}
        fuzz = [u for u in units if u["kind"] == "fuzz"]
        assert all(u["budget"] == max(1, 400 // len(fuzz)) for u in fuzz)
        machine = [u for u in units if u["kind"] == "machine"]
        assert all(u["shrink_budget"] == 300 for u in machine)

    def test_findings_identical_to_serial(self, tmp_path):
        serial_corpus = tmp_path / "serial.jsonl"
        parallel_corpus = tmp_path / "parallel.jsonl"
        serial = run_all(seed=5, budget=120, corpus_path=str(serial_corpus))
        report = run_all(
            workers=2, seed=5, budget=120, corpus_path=str(parallel_corpus)
        )
        assert [e.engine for e in report.engines] == [
            e.engine for e in serial.engines
        ]
        for mine, theirs in zip(report.engines, serial.engines):
            assert mine.cases == theirs.cases
            assert mine.findings == theirs.findings
        assert report.coverage == serial.coverage
        assert parallel_corpus.read_bytes() == serial_corpus.read_bytes()

    def test_merged_obs_counters_match_serial(self):
        run = dict(seed=9, budget=80, engines=("fuzz",))
        assert _run_counted(workers=2, **run)[1] == _run_counted(**run)[1]

    def test_failed_unit_reruns_in_process(self, monkeypatch):
        # Break every remote call; the parent must quietly redo each unit
        # itself and still produce the serial report and metrics.
        run = dict(seed=2, budget=60, engines=("machine",))
        serial, serial_counters = _run_counted(**run)
        monkeypatch.setattr(runner, "_WORKER_TARGET", "repro.no_such_module:missing")
        report, counters = _run_counted(workers=2, **run)
        assert report.engines[0].cases == serial.engines[0].cases
        assert report.engines[0].findings == serial.engines[0].findings
        assert report.coverage == serial.coverage
        assert counters == serial_counters

    def test_worker_records_when_told_to_even_if_it_starts_disabled(self):
        # A worker started under spawn has recording off; the unit call
        # says the parent records, so the reply must carry this unit's
        # metrics and nothing recorded before it.
        unit = plan_units(10, ("machine",), None, None, 600)[0]
        registry = obs.get_default().registry
        registry.reset()
        registry.counter("earlier.unit").inc(5)
        assert not obs.get_default().enabled
        try:
            reply = execute_unit_in_worker(record=True, seed=0, **unit)
        finally:
            obs.disable()
            registry.reset()
        assert reply["obs"]["checker.machines_checked"][0]["value"] > 0
        assert reply["obs"]["earlier.unit"][0]["value"] == 0
        assert reply["demoted"] == []

    def test_execute_unit_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown conformance unit"):
            execute_unit("quantum", "x", 0, 1, 1)
