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

``megasim_transcripts.json`` pins the exact ``run_serial`` transcripts
of both workloads at configurations up to 100k machines x 8 epochs, so
a change to the plan hash or the digest that every path shares still
fails a test.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from repro import fastpath
from repro.core.machine import Machine
from repro.core.statemachine import MachineSpec, Param
from repro.core.symbolic import Var
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
from repro.megasim.workloads import WORKLOADS, Workload, epoch_seed
from repro.obs import NULL_OBS, Instrumentation
from tests.test_obs_overhead import paired_ratio

SMALL = RunConfig(workload="olsr", machines=400, epochs=4, seed=21)
SMALL_TRUST = RunConfig(workload="trust", machines=400, epochs=4, seed=21)
TRANSCRIPTS = Path(__file__).with_name("megasim_transcripts.json")


def _machines(workload, count):
    initial = workload.spec.initial_states[0]
    return [
        Machine(workload.spec, initial.instance(value))
        for value in workload.initial_values(0, count).tolist()
    ]


def _probe(machine, group):
    """One event, the way a caller drives a Machine: try each candidate."""
    for name in group:
        if machine.try_exec(name) is not None:
            return
    pytest.fail(f"machine {machine.current} accepted no transition of {group}")


def _replay_with_machines(config):
    """The oracle: one Machine per node, probed down each event group."""
    workload = get_workload(config.workload)
    machines = _machines(workload, config.machines)
    inbox = []
    for epoch in range(config.epochs):
        cohorts, outbox = workload.plan(
            epoch_seed(config.seed, epoch), 0, config.machines, config.machines
        )
        cohorts = [indices.tolist() for indices in cohorts]
        for dst, _src, kind in sorted(inbox):
            cohorts[workload.message_event[kind]].append(dst)
        for event_id, indices in enumerate(cohorts):
            for i in indices:
                _probe(machines[i], workload.events[event_id])
        inbox = [tuple(message) for message in outbox.tolist()]
    return machines


def _serial_inbox(config, result):
    return route(result.outbox, [(0, config.machines)])[0]


class _TwoStates(Workload):
    """``GO: A(n) -> B(n+1)`` and ``BACK: B(n) -> A(n+1)``, one event group."""

    name = "two_states"
    events = (("GO", "BACK"),)

    def _build_spec(self):
        spec = MachineSpec("two_states")
        n = Var("n")
        a = spec.state("A", params=[Param("n", bits=8)], initial=True)
        b = spec.state("B", params=[Param("n", bits=8)])
        spec.transition("GO", a(n), b(n + 1))
        spec.transition("BACK", b(n), a(n + 1))
        return spec.seal()

    def initial_values(self, lo, hi):
        return np.zeros(hi - lo, dtype=np.int64)


class _Shapes(Workload):
    """Three states and every kernel shape: a constant source, a guard
    with ``&``, ``|`` and ``~``, a parameterless state on either end, and
    targets that wrap below zero and past ``bits``."""

    name = "shapes"
    events = (("RESET", "BUMP"), ("HOP", "BACK", "IDLE"), ("WRAP",))

    def _build_spec(self):
        spec = MachineSpec("shapes")
        n = Var("n")
        a = spec.state("A", params=[Param("n", bits=4)], initial=True)
        b = spec.state("B")
        c = spec.state("C", params=[Param("n", bits=3)])
        spec.transition("RESET", a(5), a(0))
        spec.transition(
            "BUMP", a(n), a((n * 3 - 7) // 2), guard=(n.ne(5) & ~(n > 12)) | n.eq(15)
        )
        spec.transition("HOP", a(n), b())
        spec.transition("BACK", b(), c(6))
        spec.transition("IDLE", c(n), c(n - 9 % 4))
        spec.transition("WRAP", c(n), a(n * n - 20))
        return spec.seal()

    def initial_values(self, lo, hi):
        return np.arange(lo, hi, dtype=np.int64) % 16


class _OneTransition(Workload):
    """One state ``A(n)`` and one transition ``STEP: A(n) -> A(target)``."""

    name = "one_transition"
    events = (("STEP",),)

    def __init__(self, bits, target, start):
        self.bits, self.target, self.start = bits, target, start
        super().__init__()

    def _build_spec(self):
        spec = MachineSpec(f"one_transition_{self.bits}")
        n = Var("n")
        a = spec.state("A", params=[Param("n", bits=self.bits)], initial=True)
        spec.transition("STEP", a(n), a(self.target(n)))
        return spec.seal()

    def initial_values(self, lo, hi):
        return np.arange(lo, hi, dtype=np.int64) + self.start


class TestWorkloads:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_specs_seal_and_stage_fully(self, name):
        workload = get_workload(name)
        assert workload.spec.sealed
        with fastpath.use(mode="always"):
            compiled = fastpath.active_state(workload.spec)
        assert compiled is not None
        for group in workload.events:
            for transition_name in group:
                # Every workload transition gets a generated cohort kernel.
                assert transition_name in compiled.codec.cohorts, transition_name
        for kind, event_id in workload.message_event.items():
            assert 0 <= event_id < len(workload.events)

    def test_plans_hash_global_identity_only(self):
        eseed = epoch_seed(5, 2)
        for name in WORKLOADS:
            workload = get_workload(name)
            whole, whole_out = workload.plan(eseed, 0, 100, 100)
            left, left_out = workload.plan(eseed, 0, 37, 100)
            right, right_out = workload.plan(eseed, 37, 100, 100)
            for event_id in range(len(workload.events)):
                merged = left[event_id].tolist() + (right[event_id] + 37).tolist()
                assert merged == whole[event_id].tolist(), (name, event_id)
            split = left_out.tolist() + right_out.tolist()
            assert sorted(split) == sorted(whole_out.tolist()), name
            assert whole_out.dtype == np.int64 and whole_out.shape[1] == 3


class TestFidelity:
    """Cohort kernels agree with the per-object Machine runtime."""

    @pytest.mark.parametrize("config", [SMALL, SMALL_TRUST], ids=["olsr", "trust"])
    def test_population_matches_machine_replay(self, config):
        machines = _replay_with_machines(config)
        engine = ShardEngine(config, 0, config.machines)
        inbox = []
        for epoch in range(config.epochs):
            result = engine.step(epoch, inbox)
            inbox = _serial_inbox(config, result)
        assert engine.population.rejected == 0
        for i, machine in enumerate(machines):
            assert engine.population.state_of(i) == machine.current, i

    @pytest.mark.parametrize("config", [SMALL, SMALL_TRUST], ids=["olsr", "trust"])
    def test_interpreted_tier_matches_staged(self, config):
        with fastpath.use(mode="always"):
            compiled_run = run_serial(config)
        # Policy off: a fresh population built now runs the interpreted walk.
        with fastpath.use(mode="off"):
            interpreted_run = run_serial(config)
        assert interpreted_run.text() == compiled_run.text()

    @pytest.mark.parametrize("mode", ["always", "off"])
    def test_machine_listed_twice_follows_the_machine_oracle(self, mode):
        # The first GO moves machine 0 to B, so its second event runs
        # B's chain (BACK), exactly as a Machine probing the group twice.
        workload = _TwoStates()
        with fastpath.use(mode=mode):
            population = Population(workload, 0, 2)
            assert population.apply(0, [0, 0, 1]) == 3
        machines = _machines(workload, 2)
        for i in (0, 0, 1):
            _probe(machines[i], workload.events[0])
        assert machines[0].current == workload.spec.states["A"].instance(2)
        for i, machine in enumerate(machines):
            assert population.state_of(i) == machine.current, i

    def test_trust_kernels_match_the_walk_on_repeated_cohorts(self):
        workload = get_workload("trust")
        cap = workload.CAP
        rng = random.Random(29)
        for trial in range(40):
            size = rng.randint(1, 12)
            start = [rng.choice((0, 1, 2, cap - 1, cap, cap + 1)) for _ in range(size)]
            populations = []
            for mode in ("always", "off"):
                with fastpath.use(mode=mode):
                    population = Population(workload, 0, size)
                population.values[:] = start
                populations.append(population)
            relay = workload.spec.initial_states[0]
            machines = [Machine(workload.spec, relay.instance(v)) for v in start]
            for _ in range(6):
                event_id = rng.randrange(len(workload.events))
                cohort = [rng.randrange(size) for _ in range(rng.randint(1, 3 * size))]
                fired = [population.apply(event_id, cohort) for population in populations]
                assert fired[0] == fired[1] == len(cohort), (trial, cohort)
                for i in cohort:
                    _probe(machines[i], workload.events[event_id])
                expected = [machine.current.values[0] for machine in machines]
                for population in populations:
                    assert population.values.tolist() == expected, (trial, cohort)
            assert [population.rejected for population in populations] == [0, 0]

    @pytest.mark.parametrize(
        "bits, target, start",
        [
            # Divides by the parameter: numpy would not raise on a zero divisor.
            (8, lambda n: n + 1000 // (n + 1), 0),
            # n * n leaves int64 for a 40-bit n; Python's ints do not wrap.
            (40, lambda n: n * n // 1000, (1 << 40) - 300),
        ],
        ids=["divides_by_param", "leaves_int64"],
    )
    def test_unprovable_transitions_run_the_walk(self, bits, target, start):
        workload = _OneTransition(bits, target, start)
        with fastpath.use(mode="always"):
            compiled = fastpath.active_state(workload.spec)
            assert compiled is not None
            assert "STEP" in compiled.codec.execs
            assert "STEP" not in compiled.codec.cohorts
            population = Population(workload, 0, 256)
            cohort = list(range(256)) + list(range(0, 256, 3))
            assert population.apply(0, cohort) == len(cohort)
        machines = _machines(workload, 256)
        for i in cohort:
            _probe(machines[i], workload.events[0])
        for i, machine in enumerate(machines):
            assert population.state_of(i) == machine.current, i

    @pytest.mark.parametrize(
        "case", json.loads(TRANSCRIPTS.read_text()), ids=lambda case: (
            f"{case['workload']}-{case['machines']}x{case['epochs']}-{case['seed']}"
        )
    )
    def test_serial_transcript_is_pinned(self, case):
        config = RunConfig(
            workload=case["workload"],
            machines=case["machines"],
            epochs=case["epochs"],
            seed=case["seed"],
        )
        assert run_serial(config).lines == case["lines"]


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
        messages = np.array([(7, 2, 0), (1, 9, 1), (7, 1, 0), (1, 0, 0)])
        boxes = route(messages, bounds)
        assert boxes[0].tolist() == [[1, 0, 0], [1, 9, 1]]
        assert boxes[1].tolist() == [[7, 1, 0], [7, 2, 0]]
        assert [box.tolist() for box in route([], bounds)] == [[], []]

    def test_route_orders_wide_indices_like_sorted(self):
        # 2**40 machines leave no room for a packed int64 key.
        wide = 1 << 40
        rng = random.Random(3)
        messages = [
            (rng.randrange(wide), rng.randrange(wide), rng.randrange(3))
            for _ in range(200)
        ]
        messages += [(7, 9, 2), (7, 9, 1), (7, 3, 2), (wide - 1, 0, 0)]
        bounds = [(0, wide // 2), (wide // 2, wide)]
        boxes = route(messages, bounds)
        merged = [tuple(row) for box in boxes for row in box.tolist()]
        assert merged == sorted(messages)
        assert all(row[0] < wide // 2 for row in boxes[0].tolist())


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
            inbox = _serial_inbox(SMALL, result)
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
                inbox = _serial_inbox(config, result)
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

    @pytest.mark.parametrize("mode", ["always", "off"])
    def test_kernel_shapes_match_the_machine_oracle(self, mode):
        workload = _Shapes()
        with fastpath.use(mode=mode):
            population = Population(workload, 0, 16)
            if mode == "always":
                kernels = fastpath.active_state(workload.spec).codec.cohorts
                assert sorted(kernels) == sorted(t.name for t in workload.spec.transitions)
        machines = _machines(workload, 16)
        rng = random.Random(11)
        for _ in range(200):
            event_id = rng.randrange(len(workload.events))
            cohort = [rng.randrange(16) for _ in range(rng.randint(1, 30))]
            fired = 0
            for i in cohort:
                for name in workload.events[event_id]:
                    if machines[i].try_exec(name) is not None:
                        fired += 1
                        break
            assert population.apply(event_id, cohort) == fired
            for i, machine in enumerate(machines):
                assert population.state_of(i) == machine.current, i

    def test_large_population_smoke(self):
        # A scaled-down stand-in for the 1M CLI acceptance run: the
        # dense layout must build and step well past toy sizes.
        config = RunConfig(workload="olsr", machines=50_000, epochs=2, seed=1)
        result = run_serial(config)
        assert result.fired >= config.machines * config.epochs
        assert len(result.lines) == config.epochs + 1
