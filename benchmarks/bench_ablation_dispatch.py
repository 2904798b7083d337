"""Ablation — what does unification-based transition dispatch cost?

DESIGN.md lists this ablation: the DSL machine dispatches `exec_trans` by
*unifying* the transition's source pattern against the current state
(which is what makes dependent parameters and soundness checks possible).
The ablated alternative is a bare dict-based FSM: string states, a
transition table, no parameters, no evidence checking, no trace.  A
machine keeps no history of its own, so the audit trace is measured as
what it is, an opt-in recorder (``Machine.record_steps``): ABL-1b prices
it per transition and in retained memory.

Expected shape: the bare FSM is several times faster per transition —
that factor is the runtime price of the paper's guarantees in an
interpreted embedding (the staged-codec result E13 shows how the same
price is bought back where it matters).
"""

import gc
import statistics
import time
import tracemalloc

from conftest import record_table

from repro.core.machine import Machine
from repro.protocols.arq import ACK_PACKET, build_sender_spec

STEPS = 2_000


class BareFsm:
    """The ablation: a minimal, guarantee-free state machine."""

    TABLE = {
        ("Ready", "SEND"): "Wait",
        ("Wait", "OK"): "Ready",
        ("Wait", "FAIL"): "Ready",
        ("Wait", "TIMEOUT"): "Timeout",
        ("Timeout", "RETRY"): "Ready",
        ("Ready", "FINISH"): "Sent",
    }

    def __init__(self):
        self.state = "Ready"
        self.seq = 0

    def exec_trans(self, name, payload=None):
        self.state = self.TABLE[(self.state, name)]
        if name == "OK":
            self.seq = (self.seq + 1) % 256


#: One spec for every run, so that only the first run compiles it.
SPEC = build_sender_spec()


def drive_dsl(steps, record=False):
    machine = Machine(SPEC)
    recorded = machine.record_steps() if record else None
    ack_cache = {
        seq: ACK_PACKET.verify(ACK_PACKET.make(seq=seq)) for seq in range(256)
    }
    for _ in range(steps):
        machine.exec_trans("SEND", b"x")
        machine.exec_trans("OK", ack_cache[machine.current.values[0]])
    if record:
        assert len(recorded) == 2 * steps
    return machine


def drive_bare(steps):
    machine = BareFsm()
    for _ in range(steps):
        machine.exec_trans("SEND", b"x")
        machine.exec_trans("OK")
    return machine


def timed(drive, *args):
    """``drive(*args)``'s result, and its time per transition of ``2 * STEPS``."""
    start = time.perf_counter()
    result = drive(*args)
    return result, (time.perf_counter() - start) / (2 * STEPS) * 1e6


def test_dispatch_ablation(benchmark):
    drive_dsl(10)  # compile the spec's module outside the timed runs
    dsl_machine, per_transition_dsl = timed(drive_dsl, STEPS)
    _, per_transition_recorded = timed(drive_dsl, STEPS, True)
    bare_machine, per_transition_bare = timed(drive_bare, STEPS)
    assert dsl_machine.current.values[0] == bare_machine.seq  # same protocol
    rows = [
        (
            "DSL machine (unification + evidence + guard)",
            f"{per_transition_dsl:.2f}",
            "soundness, completeness, evidence",
        ),
        (
            "DSL machine + step recorder",
            f"{per_transition_recorded:.2f}",
            "the above, plus an audit trace",
        ),
        (
            "bare dict FSM (ablated)",
            f"{per_transition_bare:.2f}",
            "none",
        ),
        ("cost factor", f"{per_transition_dsl / per_transition_bare:.1f}x", "-"),
    ]
    record_table(
        "ABL-1",
        f"transition dispatch cost ({2 * STEPS} transitions each)",
        ["implementation", "us / transition", "guarantees carried"],
        rows,
        notes=(
            "expected shape: a constant factor; the guarantees column is "
            "what the factor buys"
        ),
    )
    benchmark.pedantic(lambda: drive_dsl(200), rounds=3, iterations=1)


def run_fail_loop(record):
    """SEND/FAIL ``STEPS`` times; returns the machine and its recorded steps."""
    machine = Machine(SPEC)
    steps = machine.record_steps() if record else None
    for _ in range(STEPS):
        machine.exec_trans("SEND", b"x")
        machine.exec_trans("FAIL")
    return machine, steps


def retained(record):
    """Bytes and GC-tracked objects a run keeps alive, per transition.

    The collector is off while the run is counted, as between two of its
    passes, so a tuple it would later untrack still counts.
    """
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        objects = len(gc.get_objects())
        before = tracemalloc.get_traced_memory()[0]
        kept = run_fail_loop(record)
        after = tracemalloc.get_traced_memory()[0]
        objects = len(gc.get_objects()) - objects
    finally:
        tracemalloc.stop()
        gc.enable()
    del kept
    return (after - before) / (2 * STEPS), objects / (2 * STEPS)


def test_trace_cost_component(benchmark):
    """What recording a machine's steps costs, per transition and in memory."""
    run_fail_loop(False)  # compile the spec's module outside the timed runs
    times = {False: [], True: []}
    for _ in range(5):  # alternate, so host drift falls on both sides
        for record in (False, True):
            (_, steps), per_transition = timed(run_fail_loop, record)
            times[record].append(per_transition)
    assert len(steps) == 2 * STEPS
    rows = []
    for record in (False, True):
        kept_bytes, kept_objects = retained(record)
        rows.append(
            (
                "with recorder" if record else "no recorder",
                f"{statistics.median(times[record]):.2f}",
                f"{kept_bytes:.0f}",
                f"{kept_objects:.1f}",
            )
        )
    record_table(
        "ABL-1b",
        f"audit-trace recorder cost per transition ({2 * STEPS} SEND/FAIL)",
        ["machine", "us (median of 5)", "retained B", "retained GC objects"],
        rows,
    )
    benchmark.pedantic(lambda: run_fail_loop(True), rounds=3, iterations=1)
