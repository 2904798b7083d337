"""Staged machine dispatch: per-transition closures built at seal time.

The interpreted transition path unifies the source pattern, evaluates the
guard predicate tree, and re-evaluates the target expressions — symbolic
recursion on every ``exec_trans`` call.  This module stages that work
once per :class:`~repro.core.statemachine.MachineSpec`, mirroring what
``repro.core.compile`` does for codecs:

* a **matcher** closure per transition when every source-pattern argument
  is a plain ``Var`` or ``Const`` — returns the bindings dict, or ``None``
  on a non-match (``None``, not ``{}``: an empty dict is the legitimate
  match of a zero-parameter pattern);
* a **guard** closure for symbolic predicates, via the same
  ``_predicate_code`` translation the codec generator uses;
* a **target** closure evaluating the target expressions and the
  parameter normalization (modular wrap for ``bits``-bounded params)
  without touching the symbolic tree;
* a **cohort** closure for population-scale execution
  (:mod:`repro.megasim`): one generated Python loop applying the whole
  transition — match, guard, target, normalization fused — to every
  machine index in a dense value slab, returning the indices the guard
  rejected so a caller can fall through to the next transition of an
  event group.  Cohorts exist only for payload-free, input-free
  transitions over states with at most one parameter; anything else
  stays ``None`` and population code uses the per-instance closures.

Anything the stager cannot express is left ``None`` and the machine
runtime uses the interpreted path for that piece.  The interpreted path
also stays on as the **error oracle**: a staged miss or exception is
re-run interpreted, which either produces the canonical error (the tiers
agree) or succeeds — a divergence, which demotes that closure for the
rest of the process and increments ``machine.staged_divergences``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.compile import CodegenError, _expr_code, _predicate_code
from repro.core.statemachine import (
    StateInstance,
    StatePattern,
    TransitionSpec,
)
from repro.core.symbolic import Const, Predicate, Var

_TABLE_ATTR = "_repro_staged_table"

_stats = {
    "tables": 0,
    "matchers": 0,
    "guards": 0,
    "targets": 0,
    "cohorts": 0,
    "demotions": 0,
}


def _compile_matcher(
    pattern: StatePattern,
) -> Optional[Callable[[StateInstance], Optional[Dict[str, int]]]]:
    """A closure unifying ``pattern`` against a concrete state.

    Stageable patterns bind each argument position to a fresh variable,
    check it against a constant, or check it against an earlier binding
    of the same variable — exactly the cases ``unify`` handles without
    expression inversion.  Everything else returns ``None`` (not staged).
    """
    lines = [
        "def _match(instance):",
        "    if instance.state is not _state:",
        "        return None",
    ]
    if pattern.args:
        lines.append("    _v = instance.values")
    first_binding: Dict[str, int] = {}
    checks: List[str] = []
    for index, arg in enumerate(pattern.args):
        if isinstance(arg, Var):
            if arg.name in first_binding:
                checks.append(
                    f"    if _v[{index}] != _v[{first_binding[arg.name]}]:"
                )
                checks.append("        return None")
            else:
                first_binding[arg.name] = index
        elif isinstance(arg, Const):
            checks.append(f"    if _v[{index}] != {arg.value!r}:")
            checks.append("        return None")
        else:
            return None
    lines.extend(checks)
    items = ", ".join(
        f"{name!r}: _v[{index}]" for name, index in first_binding.items()
    )
    lines.append(f"    return {{{items}}}")
    namespace: Dict[str, Any] = {"_state": pattern.state}
    exec(compile("\n".join(lines), "<staged-matcher>", "exec"), namespace)
    _stats["matchers"] += 1
    return namespace["_match"]


def _compile_guard(
    transition: TransitionSpec,
) -> Optional[Callable[[Dict[str, int], Any], bool]]:
    """A closure for a symbolic guard; callable/absent guards stay interpreted."""
    if not isinstance(transition.guard, Predicate):
        return None
    try:
        code = _predicate_code(transition.guard)
    except CodegenError:
        return None
    namespace: Dict[str, Any] = {}
    source = f"def _guard(values, payload):\n    return {code}"
    exec(compile(source, "<staged-guard>", "exec"), namespace)
    _stats["guards"] += 1
    return namespace["_guard"]


def _compile_target(
    pattern: StatePattern,
) -> Optional[Callable[[Dict[str, int]], StateInstance]]:
    """A closure computing the concrete target state from bindings.

    Inlines ``Param.normalize``: bounded params wrap modulo ``2**bits``;
    unbounded params reject negatives (the oracle rerun supplies the
    canonical error message when that trips).
    """
    lines = ["def _target(values):"]
    names: List[str] = []
    for index, (param, arg) in enumerate(zip(pattern.state.params, pattern.args)):
        try:
            code = _expr_code(arg)
        except CodegenError:
            return None
        name = f"_v{index}"
        names.append(name)
        if param.bits is not None:
            lines.append(f"    {name} = ({code}) % {1 << param.bits}")
        else:
            lines.append(f"    {name} = {code}")
            lines.append(f"    if {name} < 0:")
            lines.append(
                f"        raise ValueError('negative value for param "
                f"{param.name}')"
            )
    tuple_code = f"({', '.join(names)},)" if names else "()"
    lines.append(f"    return _instance(_state, {tuple_code})")
    namespace: Dict[str, Any] = {
        "_instance": StateInstance,
        "_state": pattern.state,
    }
    exec(compile("\n".join(lines), "<staged-target>", "exec"), namespace)
    _stats["targets"] += 1
    return namespace["_target"]


def _compile_cohort(
    transition: TransitionSpec,
) -> Optional[Callable[[Any, Any, Any, int], List[int]]]:
    """A fused batch closure: the whole transition over a slab of machines.

    ``_cohort(indices, slab, states, target_sid)`` applies the transition
    to every machine index in ``indices``, reading and writing the single
    parameter value in ``slab`` (an array indexed by machine) and the
    dense state id in ``states`` when the transition changes state.  It
    returns the indices that did *not* fire (pattern or guard miss), so a
    population can fall through to the next transition of an event group.

    Only transitions with no payload requirement, no execution-time
    inputs, arity ≤ 1 on both ends, a ``Var``/``Const`` source argument
    and codegen-able guard/target expressions are fused; the rest return
    ``None`` and run through the per-instance closures.
    """
    if transition.requires is not None or transition.inputs:
        return None
    source, target = transition.source, transition.target
    if len(source.args) > 1 or len(target.args) > 1:
        return None
    lines = [
        "def _cohort(indices, slab, states, target_sid):",
        "    misses = []",
        "    _miss = misses.append",
        "    for _i in indices:",
    ]
    bound: Optional[str] = None
    if source.args:
        arg = source.args[0]
        if isinstance(arg, Var):
            bound = arg.name
        elif isinstance(arg, Const):
            lines.append(f"        if slab[_i] != {arg.value!r}:")
            lines.append("            _miss(_i)")
            lines.append("            continue")
        else:
            return None
    guard_code: Optional[str] = None
    if transition.guard is not None:
        if not isinstance(transition.guard, Predicate):
            return None
        try:
            guard_code = _predicate_code(transition.guard)
        except CodegenError:
            return None
    body: List[str] = []
    if guard_code is not None:
        body.append(f"        if not {guard_code}:")
        body.append("            _miss(_i)")
        body.append("            continue")
    if target.args:
        param = target.state.params[0]
        try:
            code = _expr_code(target.args[0])
        except CodegenError:
            return None
        if param.bits is not None:
            body.append(f"        slab[_i] = ({code}) % {1 << param.bits}")
        else:
            body.append(f"        _t = {code}")
            body.append("        if _t < 0:")
            body.append(
                f"            raise ValueError('negative value for param "
                f"{param.name}')"
            )
            body.append("        slab[_i] = _t")
    if target.state is not source.state:
        body.append("        states[_i] = target_sid")
    # Bind the source parameter only when the guard or target reads it.
    needs_binding = any("values[" in line for line in body)
    if needs_binding:
        if bound is None:
            return None
        lines.append(f"        values = {{{bound!r}: slab[_i]}}")
    lines.extend(body if body else ["        pass"])
    lines.append("    return misses")
    namespace: Dict[str, Any] = {}
    exec(compile("\n".join(lines), "<staged-cohort>", "exec"), namespace)
    _stats["cohorts"] += 1
    return namespace["_cohort"]


class StagedTransition:
    """One transition's staged closures (each ``None`` when not staged)."""

    __slots__ = ("transition", "match", "guard", "target", "cohort")

    def __init__(self, transition: TransitionSpec) -> None:
        self.transition = transition
        self.match = _compile_matcher(transition.source)
        self.guard = _compile_guard(transition)
        self.target = _compile_target(transition.target)
        self.cohort = _compile_cohort(transition)

    def __repr__(self) -> str:
        staged = [
            name
            for name in ("match", "guard", "target")
            if getattr(self, name) is not None
        ]
        return f"StagedTransition({self.transition.name!r}, staged={staged})"


class StagedTable:
    """Per-spec dispatch structure: staged transitions by name and source."""

    __slots__ = ("by_name", "by_source")

    def __init__(self, spec: Any) -> None:
        self.by_name: Dict[str, StagedTransition] = {}
        by_source: Dict[str, List[StagedTransition]] = {}
        for transition in spec.transitions:
            staged = StagedTransition(transition)
            self.by_name[transition.name] = staged
            by_source.setdefault(transition.source.state.name, []).append(staged)
        self.by_source: Dict[str, Tuple[StagedTransition, ...]] = {
            name: tuple(entries) for name, entries in by_source.items()
        }


def staged_table(spec: Any) -> StagedTable:
    """The (cached) staged table for a sealed spec."""
    table = getattr(spec, _TABLE_ATTR, None)
    if table is None:
        table = StagedTable(spec)
        try:
            setattr(spec, _TABLE_ATTR, table)
        except AttributeError:
            return table  # exotic specs: rebuild per machine, still correct
        _stats["tables"] += 1
    return table


def demote(staged: StagedTransition, phase: str) -> None:
    """Retire one diverging closure; the other phases stay staged."""
    setattr(staged, phase, None)
    _stats["demotions"] += 1


def stats() -> Dict[str, int]:
    """Staging counters: tables built, closures staged, demotions."""
    return dict(_stats)
