"""Discrete-time Markov chain analysis (the paper's §4.3 PRISM remark).

The paper notes probabilistic model checking "constrains the problem-space
to specific Markov processes" — but for stop-and-wait over a memoryless
lossy channel, that constraint is *met exactly*, and the analytic answers
make a sharp cross-check for the simulator: expected retransmissions and
delivery times computed here must match the netsim measurements within
sampling error (bench E11d does that comparison).

:class:`MarkovChain` is a small general DTMC with absorption analysis
(fundamental-matrix method, solved with :mod:`numpy`);
:func:`stop_and_wait_chain` builds the protocol-specific chain.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

State = Hashable


class MarkovError(ValueError):
    """Raised for ill-formed chains or impossible queries."""


class MarkovChain:
    """A finite DTMC given as per-state outgoing probability lists.

    Parameters
    ----------
    transitions:
        ``{state: [(probability, next_state), ...]}``.  Each state's
        probabilities must sum to 1 (within 1e-9).  States appearing only
        as targets are absorbing.
    """

    def __init__(
        self, transitions: Mapping[State, Sequence[Tuple[float, State]]]
    ) -> None:
        if not transitions:
            raise MarkovError("chain needs at least one state")
        self.transitions: Dict[State, List[Tuple[float, State]]] = {}
        states = set(transitions)
        for state, edges in transitions.items():
            total = 0.0
            for probability, target in edges:
                if probability < 0:
                    raise MarkovError(
                        f"negative probability {probability} from {state!r}"
                    )
                total += probability
                states.add(target)
            if edges and abs(total - 1.0) > 1e-9:
                raise MarkovError(
                    f"probabilities from {state!r} sum to {total}, not 1"
                )
            self.transitions[state] = list(edges)
        # States never given outgoing edges are absorbing.
        self.states: List[State] = sorted(states, key=repr)
        for state in self.states:
            self.transitions.setdefault(state, [])
        self.absorbing = frozenset(
            s for s in self.states if not self.transitions[s]
        )
        if not self.absorbing:
            raise MarkovError("chain has no absorbing states to analyse")
        self._index = {state: i for i, state in enumerate(self.states)}

    def _partition(self):
        transient = [s for s in self.states if s not in self.absorbing]
        absorbing = [s for s in self.states if s in self.absorbing]
        return transient, absorbing

    def _fundamental(self):
        """The fundamental matrix N = (I - Q)^-1 of the transient part."""
        # Imported here so the serving plane, which imports this package
        # but never solves a chain, does not load numpy.
        import numpy as np

        transient, absorbing = self._partition()
        t_index = {s: i for i, s in enumerate(transient)}
        a_index = {s: i for i, s in enumerate(absorbing)}
        q = np.zeros((len(transient), len(transient)))
        r = np.zeros((len(transient), len(absorbing)))
        for state in transient:
            for probability, target in self.transitions[state]:
                if target in t_index:
                    q[t_index[state], t_index[target]] += probability
                else:
                    r[t_index[state], a_index[target]] += probability
        identity = np.eye(len(transient))
        try:
            fundamental = np.linalg.inv(identity - q)
        except np.linalg.LinAlgError:
            raise MarkovError(
                "I - Q is singular: some transient state never reaches "
                "absorption"
            ) from None
        return transient, absorbing, fundamental, r

    def expected_steps_to_absorption(self, start: State) -> float:
        """Expected number of steps from ``start`` until absorption."""
        if start in self.absorbing:
            return 0.0
        transient, _, fundamental, _ = self._fundamental()
        index = transient.index(start)
        return float(fundamental[index].sum())

    def absorption_probabilities(self, start: State) -> Dict[State, float]:
        """Probability of ending in each absorbing state from ``start``."""
        if start in self.absorbing:
            return {s: float(s == start) for s in self.absorbing}
        transient, absorbing, fundamental, r = self._fundamental()
        index = transient.index(start)
        b = fundamental @ r
        return {state: float(b[index, j]) for j, state in enumerate(absorbing)}

    def expected_visits(self, start: State, state: State) -> float:
        """Expected number of visits to a transient ``state`` from ``start``."""
        if state in self.absorbing:
            raise MarkovError(f"{state!r} is absorbing; visits are 0 or 1")
        transient, _, fundamental, _ = self._fundamental()
        return float(fundamental[transient.index(start), transient.index(state)])


def stop_and_wait_chain(
    loss_data: float,
    loss_ack: float,
    messages: int,
    max_retries: int = None,
) -> MarkovChain:
    """The stop-and-wait send process as a DTMC.

    One step = one transmission round (send + wait for ack/timeout).  A
    round succeeds with probability ``(1-loss_data) * (1-loss_ack)``;
    corruption can be folded into the loss terms, as a corrupted frame is
    rejected just like a lost one.

    States: ``("sending", k)`` — k messages fully acknowledged so far —
    plus absorbing ``("done",)`` and, with bounded retries,
    ``("failed",)``.  Without a retry bound the chain always absorbs in
    ``("done",)`` and its expected steps are ``messages / p_round``.
    """
    for name, p in (("loss_data", loss_data), ("loss_ack", loss_ack)):
        if not 0.0 <= p < 1.0:
            raise MarkovError(f"{name} must be in [0, 1), got {p}")
    if messages < 1:
        raise MarkovError("need at least one message")
    p_round = (1.0 - loss_data) * (1.0 - loss_ack)
    transitions: Dict[State, List[Tuple[float, State]]] = {}
    if max_retries is None:
        for k in range(messages):
            advance = ("done",) if k + 1 == messages else ("sending", k + 1)
            transitions[("sending", k)] = [
                (p_round, advance),
                (1.0 - p_round, ("sending", k)),
            ]
    else:
        for k in range(messages):
            for attempt in range(max_retries + 1):
                advance = (
                    ("done",) if k + 1 == messages else ("sending", k + 1, 0)
                )
                fail = (
                    ("failed",)
                    if attempt == max_retries
                    else ("sending", k, attempt + 1)
                )
                transitions[("sending", k, attempt)] = [
                    (p_round, ("done",) if k + 1 == messages else ("sending", k + 1, 0)),
                    (1.0 - p_round, fail),
                ]
    return MarkovChain(transitions)


def stop_and_wait_start(max_retries: int = None) -> State:
    """The start state matching :func:`stop_and_wait_chain`'s layout."""
    return ("sending", 0) if max_retries is None else ("sending", 0, 0)


def expected_transmissions_per_message(loss_data: float, loss_ack: float) -> float:
    """Closed form: a geometric mean of rounds, 1 / p_round."""
    p_round = (1.0 - loss_data) * (1.0 - loss_ack)
    if p_round <= 0:
        raise MarkovError("success probability is zero; never delivers")
    return 1.0 / p_round
