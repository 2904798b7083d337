"""``repro.parallel``: parallel conformance, crash recovery, pool lifetime.

The contract under test everywhere here is *transparency*: sharding a
run over workers (or having a worker die mid-run) may change timing,
but never results — conformance findings, coverage, and corpus files
must be byte-identical to the serial run.  The codec batch APIs never
leave the process.
"""

import multiprocessing
import os
import random
import subprocess
import sys

import pytest

import repro
from repro import fastpath, obs
from repro.conformance.registry import all_spec_entries
from repro.conformance.runner import run_all
from repro.parallel.confrun import execute_unit, plan_units, run_all_parallel
from repro.parallel.pool import CallError, ShardedPool


@pytest.fixture
def pool():
    pool = ShardedPool(2)
    yield pool
    pool.close()


def _live_children():
    return {child.pid for child in multiprocessing.active_children()}


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


_BATCH_SCRIPT = """
import multiprocessing, random
from repro import fastpath
from repro.conformance.registry import all_spec_entries

entry = next(e for e in all_spec_entries() if e.name == "ArqAck")
rng = random.Random(5)
values = [entry.generate(rng)._values for _ in range(64)] * 64
with fastpath.use(mode="always"):
    print(len(fastpath.encode_many(entry.spec, values)))
print(len(multiprocessing.active_children()))
"""


class TestPoolLifetime:
    def test_one_worker_pool_rejected(self):
        with pytest.raises(ValueError, match="at least 2 workers"):
            ShardedPool(1)

    def test_parallel_run_leaves_no_live_workers(self):
        before = _live_children()
        run_all_parallel(workers=2, seed=3, budget=40, engines=("machine",))
        assert _live_children() - before == set()

    def test_batch_apis_start_no_process(self):
        # A fresh interpreter with no REPRO_* variables: the default
        # environment, and no pool left over from another test.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _BATCH_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert out.stdout.split() == ["4096", "0"]


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
        report = run_all_parallel(
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
        def counters():
            return {
                (name, tuple(sorted(entry["labels"].items()))): entry["value"]
                for name, entries in obs.get_default().registry.snapshot().items()
                for entry in entries
                if entry["kind"] == "counter" and entry["value"]
            }

        instr = obs.enable()
        try:
            instr.registry.reset()
            run_all(seed=9, budget=80, engines=("fuzz",))
            serial = counters()
            instr.registry.reset()
            run_all_parallel(workers=2, seed=9, budget=80, engines=("fuzz",))
            merged = counters()
        finally:
            obs.disable()
        assert merged == serial

    def test_failed_unit_reruns_in_process(self, monkeypatch):
        # Break every remote call; the parent must quietly redo each unit
        # itself and still produce the serial report.
        from repro.parallel import confrun

        monkeypatch.setattr(confrun, "_EXECUTE", "repro.no_such_module:missing")
        serial = run_all(seed=2, budget=60, engines=("machine",))
        report = run_all_parallel(workers=2, seed=2, budget=60, engines=("machine",))
        assert report.engines[0].cases == serial.engines[0].cases
        assert report.engines[0].findings == serial.engines[0].findings
        assert report.coverage == serial.coverage

    def test_execute_unit_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown conformance unit"):
            execute_unit("quantum", "x", 0, 1, 1)
