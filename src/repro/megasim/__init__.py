"""Population-scale protocol simulation: a million machines, one process.

The paper's §1.1 settings — wireless OLSR meshes, trust overlays — are
*population* problems: the interesting behaviour emerges from how many
nodes interact, not from any one node's trace.  Hosting each node as a
:class:`~repro.core.machine.Machine` object driven by simulator timers
tops out around 10⁵ events per second; ``repro.megasim`` hosts the same
sealed :class:`~repro.core.statemachine.MachineSpec` definitions as
dense numpy arrays and runs each epoch as a fixed number of array
operations over the population: the plan hashes every machine at once,
the barrier is one sort, the digest one wrapping sum, and events are
dispatched in *cohorts* through the array kernels ``cohort_<T>`` of the
spec's compiled module (``repro.core.compile.compile_machine``) — two
orders of magnitude more.

Time is an integer epoch with a message barrier: every machine plans
its epoch from a hash of ``(seed, epoch, global index)``, messages are
delivered sorted at the next barrier, and the per-epoch transcript
digests are partition-invariant sums — so a run split into any number
of shards is byte-identical to the serial one at the same seed.  Each
shard epoch is one pure call (:func:`repro.megasim.shard.run_epoch`),
run in this process (:func:`run_partitioned`) or on a
``repro.parallel`` pool (:func:`run_sharded`).  The serial run is the
fast one; the pooled run is the check that determinism holds through
real process boundaries (``--verify-sharding``).

Quickstart::

    python -m repro.megasim --machines 1000000 --workload olsr --epochs 3
    python -m repro.megasim --machines 50000 --workload trust --verify-sharding

See ``DESIGN.md`` ("Megascale simulation") for the layout and the
determinism argument, and ``benchmarks/bench_megasim.py`` for the
events/sec tier against the per-object baseline.
"""

from repro.megasim.engine import (
    EpochResult,
    RunConfig,
    RunResult,
    ShardEngine,
    route,
    run_serial,
    shard_bounds,
)
from repro.megasim.population import Population
from repro.megasim.shard import ShardedRun, run_partitioned, run_sharded
from repro.megasim.workloads import WORKLOADS, Workload, get_workload

__all__ = [
    "EpochResult",
    "Population",
    "RunConfig",
    "RunResult",
    "ShardEngine",
    "ShardedRun",
    "WORKLOADS",
    "Workload",
    "get_workload",
    "route",
    "run_partitioned",
    "run_serial",
    "run_sharded",
    "shard_bounds",
]
