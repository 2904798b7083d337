"""Tests for ``repro.megasim``: population-scale simulation.

Four properties carry the subsystem:

* **fidelity** — a population run is step-for-step equivalent to
  driving one :class:`~repro.core.machine.Machine` object per node
  through the same planned events (the per-object runtime is the
  semantics oracle);
* **determinism** — same config, same transcript, every time;
* **partition invariance** — serial, in-process partitioned, and
  pooled runs produce byte-identical transcripts at any shard count,
  through worker crashes and cold rebuilds;
* **amortized observability** — running with instrumentation *armed*
  stays within the repo's 1.10x overhead gate, because counters flush
  once per epoch, not once per event.
"""

import time

import pytest

from repro.core import dispatch
from repro.core.machine import Machine
from repro.megasim import (
    Population,
    RunConfig,
    ShardEngine,
    StaleShardError,
    get_workload,
    run_partitioned,
    run_serial,
)
from repro.megasim.engine import route, shard_bounds
from repro.megasim.shard import ShardedRun, reset_cache, run_epoch, run_sharded
from repro.megasim.workloads import WORKLOADS, epoch_seed
from repro.obs import NULL_OBS, Instrumentation
from tests.test_obs_overhead import paired_ratio

SMALL = RunConfig(workload="olsr", machines=400, epochs=4, seed=21)
SMALL_TRUST = RunConfig(workload="trust", machines=400, epochs=4, seed=21)


def _replay_with_machines(config):
    """The oracle: one Machine per node, probed down each event group."""
    workload = get_workload(config.workload)
    initial = workload.spec.initial_states[0]
    machines = [
        Machine(workload.spec, initial.instance(workload.initial_value(i)))
        for i in range(config.machines)
    ]
    inbox = []
    for epoch in range(config.epochs):
        cohorts = [[] for _ in workload.events]
        outbox = []
        workload.plan(
            epoch_seed(config.seed, epoch),
            0,
            config.machines,
            config.machines,
            cohorts,
            outbox,
        )
        for dst, _src, kind in sorted(inbox):
            cohorts[workload.message_event[kind]].append(dst)
        for event_id, indices in enumerate(cohorts):
            group = workload.events[event_id]
            for i in indices:
                for name in group:
                    if machines[i].try_exec(name) is not None:
                        break
                else:
                    pytest.fail(
                        f"machine {i} accepted no transition of {group}"
                    )
        inbox = outbox
    return machines


class TestWorkloads:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_specs_seal_and_stage_fully(self, name):
        workload = get_workload(name)
        assert workload.spec.sealed
        table = dispatch.staged_table(workload.spec)
        for group in workload.events:
            for transition_name in group:
                staged = table.by_name[transition_name]
                # Every workload transition gets the fused cohort tier.
                assert staged.cohort is not None, transition_name
        for kind, event_id in workload.message_event.items():
            assert 0 <= event_id < len(workload.events)

    def test_plans_hash_global_identity_only(self):
        workload = get_workload("olsr")
        eseed = epoch_seed(5, 2)
        whole, whole_out = [[] for _ in workload.events], []
        workload.plan(eseed, 0, 100, 100, whole, whole_out)
        left, left_out = [[] for _ in workload.events], []
        right, right_out = [[] for _ in workload.events], []
        workload.plan(eseed, 0, 37, 100, left, left_out)
        workload.plan(eseed, 37, 100, 100, right, right_out)
        for event_id in range(len(workload.events)):
            merged = left[event_id] + [i + 37 for i in right[event_id]]
            assert merged == whole[event_id]
        assert sorted(left_out + right_out) == sorted(whole_out)


class TestFidelity:
    """Cohort kernels agree with the per-object Machine runtime."""

    @pytest.mark.parametrize("config", [SMALL, SMALL_TRUST], ids=["olsr", "trust"])
    def test_population_matches_machine_replay(self, config):
        machines = _replay_with_machines(config)
        engine = ShardEngine(config, 0, config.machines)
        inbox = []
        for epoch in range(config.epochs):
            result = engine.step(epoch, inbox)
            inbox = sorted(result.outbox)
        assert engine.population.rejected == 0
        for i, machine in enumerate(machines):
            assert engine.population.state_of(i) == machine.current, i

    @pytest.mark.parametrize("config", [SMALL_TRUST], ids=["trust"])
    def test_interpreted_tier_matches_staged(self, config):
        staged_run = run_serial(config)
        dispatch.set_enabled(False)
        try:
            # Drop the cached engines' staged tables from view: a fresh
            # population built now uses the interpreted kernels.
            interpreted_run = run_serial(config)
        finally:
            dispatch.set_enabled(True)
        assert interpreted_run.text() == staged_run.text()


class TestDeterminismAndInvariance:
    def test_serial_runs_are_identical(self):
        assert run_serial(SMALL).text() == run_serial(SMALL).text()

    def test_seed_changes_the_transcript(self):
        other = RunConfig(
            workload=SMALL.workload,
            machines=SMALL.machines,
            epochs=SMALL.epochs,
            seed=SMALL.seed + 1,
        )
        assert run_serial(other).text() != run_serial(SMALL).text()

    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    @pytest.mark.parametrize("config", [SMALL, SMALL_TRUST], ids=["olsr", "trust"])
    def test_partitioned_matches_serial(self, config, shards):
        assert run_partitioned(config, shards).text() == run_serial(config).text()

    def test_header_never_names_the_partitioning(self):
        # Byte-identity across worker counts requires the transcript to
        # be silent about how it was produced.
        text = run_serial(SMALL).text()
        assert "worker" not in text and "shard" not in text

    def test_shard_bounds_cover_and_balance(self):
        bounds = shard_bounds(10_007, 4)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10_007
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_route_sorts_each_box(self):
        bounds = [(0, 5), (5, 10)]
        boxes = route([(7, 2, 0), (1, 9, 1), (7, 1, 0), (1, 0, 0)], bounds)
        assert boxes[0] == [(1, 0, 0), (1, 9, 1)]
        assert boxes[1] == [(7, 1, 0), (7, 2, 0)]


class TestShardProtocol:
    """The worker-side cache, cold handshake, and stale detection."""

    def test_cold_shard_mid_run_asks_for_history(self):
        reset_cache()
        config = SMALL.to_dict()
        assert run_epoch("t1", 0, 1, 1, [], config)["status"] == "cold"

    def test_rebuild_from_history_matches_warm_path(self):
        reset_cache()
        config = SMALL.to_dict()
        warm = [run_epoch("warm", 0, 1, epoch, [], config) for epoch in range(3)]
        reset_cache()
        rebuilt = run_epoch("cold", 0, 1, 2, [], config, history=[[], []])
        assert rebuilt["digest"] == warm[2]["digest"]
        assert rebuilt["fired"] == warm[2]["fired"]

    def test_stale_engine_is_rebuilt_not_advanced(self):
        reset_cache()
        config = SMALL.to_dict()
        run_epoch("t2", 0, 1, 0, [], config)
        # Epoch 1 ran "elsewhere"; asking for epoch 2 here must not
        # silently run 1-then-2 — it needs history to replay.
        assert run_epoch("t2", 0, 1, 2, [], config)["status"] == "cold"
        replayed = run_epoch("t2", 0, 1, 2, [], config, history=[[], []])
        assert replayed["status"] == "ok"

    def test_engine_refuses_out_of_order_epochs(self):
        engine = ShardEngine(SMALL, 0, SMALL.machines)
        engine.step(0, [])
        with pytest.raises(StaleShardError):
            engine.step(2, [])


@pytest.fixture(scope="module")
def pool():
    from repro.parallel.pool import ShardedPool

    pool = ShardedPool(workers=2)
    yield pool
    pool.close()


class TestPooledInvariance:
    def test_pooled_transcript_matches_serial(self, pool):
        config = RunConfig(workload="trust", machines=1500, epochs=3, seed=5)
        assert run_sharded(config, pool).text() == run_serial(config).text()

    def test_worker_crash_rebuilds_deterministically(self, pool):
        config = RunConfig(workload="olsr", machines=1200, epochs=5, seed=13)
        serial = run_serial(config)
        run = ShardedRun(config, pool)
        lines = [config.header()]
        for epoch in range(config.epochs):
            if epoch == 2:
                pool.inject_crash(0)
            totals = run.step(epoch)
            lines.append(
                f"epoch={epoch} fired={totals.fired} "
                f"msgs={totals.emitted} digest={totals.digest:016x}"
            )
        assert run.rebuilds >= 1
        assert "\n".join(lines) + "\n" == serial.text()


class TestAmortizedObservability:
    def test_counters_flush_per_epoch_totals(self):
        obs = Instrumentation()
        engine = ShardEngine(SMALL, 0, SMALL.machines, obs=obs)
        inbox = []
        fired = emitted = 0
        for epoch in range(SMALL.epochs):
            result = engine.step(epoch, inbox)
            fired += result.fired
            emitted += result.emitted
            inbox = sorted(result.outbox)
        snapshot = obs.registry.snapshot()
        named = {
            name: entries[0]["value"]
            for name, entries in snapshot.items()
            if entries[0]["labels"].get("workload") == "olsr"
        }
        assert named["megasim.events"] == fired
        assert named["megasim.messages_sent"] == emitted
        assert named["megasim.epochs"] == SMALL.epochs
        assert "megasim.rejected" not in named

    def test_armed_instrumentation_within_overhead_gate(self):
        """Armed — not merely disabled — obs stays under the 1.10x gate."""
        config = RunConfig(workload="olsr", machines=2500, epochs=4, seed=3)

        def measure(obs):
            engine = ShardEngine(config, 0, config.machines, obs=obs)
            inbox = []
            start = time.perf_counter()
            for epoch in range(config.epochs):
                result = engine.step(epoch, inbox)
                inbox = sorted(result.outbox)
            return time.perf_counter() - start

        ratio = paired_ratio(
            lambda: measure(NULL_OBS), lambda: measure(Instrumentation())
        )
        assert ratio <= 1.10, (
            f"armed megasim instrumentation is {ratio:.3f}x the no-op "
            f"baseline (bound 1.10x; flushes must stay per-epoch)"
        )


class TestCohortKernels:
    def test_guard_misses_fall_through_the_group(self):
        workload = get_workload("trust")
        population = Population(workload, 0, 10)
        # Score CAP everywhere: GOOD must miss, GOOD_SAT must absorb.
        for i in range(10):
            population.values[i] = workload.CAP
        fired = population.apply(1, list(range(10)))
        assert fired == 10
        assert list(population.values) == [workload.CAP] * 10
        # Score 0 everywhere: BAD misses, BAD_FLOOR absorbs.
        for i in range(10):
            population.values[i] = 0
        assert population.apply(2, list(range(10))) == 10
        assert list(population.values) == [0] * 10
        assert population.rejected == 0

    def test_values_wrap_like_machine_params(self):
        workload = get_workload("olsr")
        population = Population(workload, 0, 3)
        for i in range(3):
            population.values[i] = 0xFFFF
        population.apply(0, [0, 1, 2])  # HELLO: seq + 1 wraps at 16 bits
        assert list(population.values) == [0, 0, 0]

    def test_large_population_smoke(self):
        # A scaled-down stand-in for the 1M CLI acceptance run: the
        # dense layout must build and step well past toy sizes.
        config = RunConfig(workload="olsr", machines=50_000, epochs=2, seed=1)
        result = run_serial(config)
        assert result.fired >= config.machines * config.epochs
        assert len(result.lines) == config.epochs + 1
