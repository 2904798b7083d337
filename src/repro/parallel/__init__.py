"""``repro.parallel`` — whole units of work across forked workers.

A :class:`~repro.parallel.pool.ShardedPool` runs calls named by dotted
path (``"package.module:function"``) with picklable keyword arguments in
worker processes and returns their results in unit order.  Two callers
size a pool for one run and close it afterwards:
``python -m repro.conformance --workers N`` runs one fuzz, differential
or machine unit per call (:mod:`repro.parallel.confrun`), and
``python -m repro.megasim --workers N`` runs one shard epoch per call
(:mod:`repro.megasim.shard`).  A unit that fails comes back as a
:class:`~repro.parallel.pool.CallError`; conformance reruns it
in-process and megasim rebuilds the shard from its inbox history, so
both produce the serial run's output byte for byte.  See DESIGN.md.
"""

from __future__ import annotations

from repro.parallel.pool import CallError, ShardedPool

__all__ = ["CallError", "ShardedPool"]
