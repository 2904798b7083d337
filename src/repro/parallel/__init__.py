"""``repro.parallel`` — whole units of work across forked workers.

A :class:`~repro.parallel.pool.ShardedPool` runs calls named by dotted
path (``"package.module:function"``) with picklable keyword arguments in
worker processes, and hands back each result as it arrives or all of
them in unit order.  Two callers size a pool for one run and close it
afterwards: ``python -m repro.conformance --workers N`` runs one fuzz,
differential or machine unit per call
(:func:`repro.conformance.runner.run_all`), and
``python -m repro.megasim --verify-sharding`` runs one shard epoch per
call (:mod:`repro.megasim.shard`).  A unit that fails comes back as a
:class:`~repro.parallel.pool.CallError`, and both callers rerun it
in-process with the same arguments, so both produce the serial run's
output byte for byte.  See DESIGN.md.
"""

from __future__ import annotations

from repro.parallel.pool import CallError, ShardedPool

__all__ = ["CallError", "ShardedPool"]
