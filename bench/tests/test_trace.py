"""Self-time arithmetic on synthetic spans, and exact wrapper restoration."""

from contextlib import ExitStack

import pytest
from repro.obs.trace import Tracer

from bench import trace


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _synthetic():
    """root(10) -> [a(3) -> [c(1)], b(2)], then root again (4, no children)."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("root"):
        clock.advance(1)
        with tracer.span("a"):
            clock.advance(1)
            with tracer.span("c"):
                clock.advance(1)
            clock.advance(1)
        with tracer.span("b"):
            clock.advance(2)
        tracer.event("not-a-span")
        clock.advance(4)
    with tracer.span("root"):
        clock.advance(4)
    return tracer


def test_self_time_is_duration_minus_direct_children():
    layers = trace.summarize(_synthetic().records())
    assert layers["root"].calls == 2
    assert layers["root"].self_total == pytest.approx((10 - 3 - 2) + 4)
    assert layers["root"].inclusive == pytest.approx(14)
    assert layers["a"].self_total == pytest.approx(2)  # 3 minus c's 1
    assert layers["b"].self_total == pytest.approx(2)
    assert layers["c"].self_total == pytest.approx(1)
    assert "not-a-span" not in layers
    assert layers["root"].self_p50 == pytest.approx(4.5)


def test_self_times_and_residual_add_up_to_the_measured_total():
    layers = trace.summarize(_synthetic().records())
    rows, residual, total = trace.reconcile(layers, measured_total=20.0, ops=2)
    assert total == pytest.approx(10.0)
    assert sum(row[4] for row in rows) == pytest.approx(14 / 2)
    assert sum(row[4] for row in rows) + residual == pytest.approx(total)
    assert [row[0] for row in rows][0] == "root"  # largest self time first
    table = trace.render_table("t", rows, residual, total, "op")
    assert "residual" in table and "10000000.00" in table


def test_reconcile_refuses_zero_operations():
    with pytest.raises(ValueError):
        trace.reconcile({}, 1.0, 0)


def test_check_complete_detects_a_full_buffer():
    tracer = Tracer(capacity=2)
    tracer.event("x")
    trace.check_complete(tracer)
    tracer.event("y")
    with pytest.raises(RuntimeError):
        trace.check_complete(tracer)


def _snapshot(classes):
    return {cls: dict(vars(cls)) for cls in classes}


def test_layer_wrappers_are_all_restored():
    from repro.core.machine import Machine
    from repro.core.packet import PacketSpec
    from repro.megasim import engine
    from repro.megasim.population import Population
    from repro.megasim.workloads import get_workload
    from repro.serve.apps import APPS
    from repro.serve.manager import SendFactory, SessionManager
    from repro.serve.transport import UdpServeProtocol
    from repro.serve.wheel import TimerWheel

    workload = get_workload("olsr")
    classes = [
        Machine,
        PacketSpec,
        TimerWheel,
        SessionManager,
        SendFactory,
        UdpServeProtocol,
        Population,
        engine.ShardEngine,
        type(workload),
        *APPS.values(),
    ]
    before = _snapshot(classes)
    route = engine.route
    tracer = trace.new_tracer()
    with ExitStack() as patches:
        trace.trace_server(patches, tracer)
        trace.trace_megasim(patches, tracer, workload)
        assert Machine.exec_trans is not before[Machine]["exec_trans"]
        assert engine.route is not route
    assert _snapshot(classes) == before
    assert engine.route is route


def test_traced_calls_record_spans_and_results():
    from repro.core.machine import Machine
    from repro.protocols.arq import ARQ_PACKET, build_receiver_spec

    tracer = trace.new_tracer()
    frame = ARQ_PACKET.encode(ARQ_PACKET.make(seq=0, length=2, payload=b"hi"))
    with ExitStack() as patches:
        trace.trace_core(patches, tracer)
        machine = Machine(build_receiver_spec())
        verified = ARQ_PACKET.try_parse(frame)
        assert machine.try_exec("RECV", verified) is not None
        assert machine.try_exec("RECV", verified) is None
    names = [r.name for r in tracer.records()]
    assert names.count("core.packet.decode") == 1
    assert names.count("core.packet.verify") == 1
    assert names.count("core.machine.try_exec") == 2
    assert trace.attr_values(tracer.records(), "hit") == [True, False]
    layers = trace.summarize(tracer.records())
    # try_exec's child exec_trans spans are not part of its self time.
    assert layers["core.machine.try_exec"].inclusive >= layers["core.machine.exec"].inclusive
