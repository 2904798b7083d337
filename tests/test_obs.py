"""repro.obs: registry semantics, histograms, spans, JSONL, wiring."""

import json

import pytest

from repro import obs
from repro.core import codec
from repro.core.checker import check_machine
from repro.core.codec import DecodeError
from repro.core.fields import Bytes, ChecksumField, UInt
from repro.core.machine import InvalidTransitionError, Machine
from repro.core.packet import PacketSpec
from repro.core.statemachine import MachineSpec, Param
from repro.core.symbolic import Var, this
from repro.netsim import Capture, ChannelConfig, DuplexLink, Node, Simulator, Timer
from repro.obs import (
    NULL_OBS,
    Instrumentation,
    MetricsRegistry,
    Tracer,
    log_buckets,
    profiled,
    render_dashboard,
)
from repro.obs import records
from repro.obs.trace import frame_digest

PKT = PacketSpec(
    "ObsPkt",
    fields=[
        UInt("seq", bits=8),
        ChecksumField("chk", algorithm="xor8", over=("seq", "length", "payload")),
        UInt("length", bits=8),
        Bytes("payload", length=this.length),
    ],
)


def machine_spec():
    spec = MachineSpec("obs_m")
    seq = Param("seq", bits=8)
    ready = spec.state("Ready", params=[seq], initial=True)
    wait = spec.state("Wait", params=[seq])
    sent = spec.state("Sent", params=[seq], final=True)
    n = Var("seq")
    spec.transition("SEND", ready(n), wait(n), requires="bytes")
    spec.transition(
        "OK", wait(n), ready(n + 1), requires=PKT,
        guard=lambda bindings, payload: payload.value.seq == bindings["seq"],
    )
    spec.transition("FINISH", ready(n), sent(n))
    return spec.seal()


# -- registry -----------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a", x=1) is registry.counter("a", x=1)

    def test_labels_distinguish_metrics(self):
        registry = MetricsRegistry()
        registry.counter("a", x=1).inc()
        registry.counter("a", x=2).inc(5)
        assert registry.value("a", x=1) == 1
        assert registry.value("a", x=2) == 5

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("a", x=1, y=2).inc()
        assert registry.value("a", y=2, x=1) == 1

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError, match="counter"):
            registry.gauge("a")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("a").inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7

    def test_reset_zeroes_but_keeps_handles(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        counter.inc(9)
        registry.reset()
        assert counter.value == 0
        counter.inc()
        assert registry.value("a") == 1

    def test_value_of_missing_metric_is_zero(self):
        assert MetricsRegistry().value("nope") == 0

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("c", k="v").inc(3)
        registry.histogram("h").observe(0.25)
        snapshot = registry.snapshot()
        assert snapshot["c"][0] == {"labels": {"k": "v"}, "kind": "counter", "value": 3}
        json.dumps(snapshot)  # must not raise


class TestHistogram:
    def test_log_buckets_geometric(self):
        assert log_buckets(1e-6, 4, 3) == (1e-6, 4e-6, 1.6e-5)

    def test_bucketing_places_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1, 1]  # one per bucket + overflow

    def test_boundary_lands_in_lower_bucket(self):
        hist = MetricsRegistry().histogram("h", bounds=(1.0, 10.0))
        hist.observe(1.0)
        assert hist.counts == [1, 0, 0]

    def test_stats_and_quantiles(self):
        hist = MetricsRegistry().histogram("h", bounds=(1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 1.5, 3.0, 6.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.mean == pytest.approx(2.75)
        assert hist.min == 0.5
        assert hist.max == 6.0
        assert hist.quantile(0.5) == 2.0
        assert hist.quantile(1.0) == 6.0  # overflow clamped to observed max

    def test_empty_quantile_is_zero(self):
        assert MetricsRegistry().histogram("h").quantile(0.95) == 0.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            MetricsRegistry().histogram("h", bounds=(2.0, 1.0))


# -- tracer -------------------------------------------------------------------


class TestTracer:
    def test_span_nesting_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("leaf")
        outer, inner, leaf = tracer.records()
        assert outer.parent_id is None and outer.depth == 0
        assert inner.parent_id == outer.span_id and inner.depth == 1
        assert leaf.parent_id == inner.span_id and leaf.depth == 2
        assert outer.wall_duration >= inner.wall_duration >= 0

    def test_jsonl_round_trip(self):
        tracer = Tracer()
        with tracer.span("s", machine="m"):
            tracer.event("e", k=1)
        restored = Tracer.from_jsonl(tracer.to_jsonl())
        assert [(r.name, r.kind, r.parent_id, r.attrs) for r in restored] == [
            (r.name, r.kind, r.parent_id, r.attrs) for r in tracer.records()
        ]

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=3)
        for index in range(5):
            tracer.event(f"e{index}")
        assert [r.name for r in tracer.records()] == ["e2", "e3", "e4"]

    def test_virtual_clock_stamps_records(self):
        tracer = Tracer()
        tracer.virtual_clock = lambda: 42.5
        with tracer.span("s"):
            pass
        record = tracer.records()[0]
        assert record.virt_start == 42.5 and record.virt_end == 42.5

    def test_explicit_virt_overrides_clock(self):
        tracer = Tracer()
        tracer.virtual_clock = lambda: 1.0
        assert tracer.event("e", virt=9.0).virt_start == 9.0

    def test_exception_closes_span_and_marks_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("s"):
                raise RuntimeError("boom")
        record = tracer.records()[0]
        assert record.attrs["error"] == "RuntimeError"
        assert record.wall_duration is not None
        tracer.event("after")  # stack is clean: lands at depth 0
        assert tracer.records()[-1].depth == 0

    def test_frame_digest_is_stable(self):
        assert frame_digest(b"abc") == frame_digest(bytearray(b"abc"))
        assert frame_digest(b"abc") != frame_digest(b"abd")


# -- instrumentation context --------------------------------------------------


class TestInstrumentation:
    def test_default_starts_disabled(self):
        assert obs.get_default().enabled is False

    def test_enable_disable_toggle_in_place(self):
        captured = obs.get_default()
        try:
            assert obs.enable() is captured and captured.enabled
        finally:
            obs.disable()
        assert captured.enabled is False

    def test_null_obs_cannot_be_enabled(self):
        with pytest.raises(ValueError):
            NULL_OBS.enabled = True

    def test_set_default_swaps_and_returns_previous(self):
        replacement = Instrumentation(enabled=False)
        previous = obs.set_default(replacement)
        try:
            assert obs.get_default() is replacement
        finally:
            obs.set_default(previous)

    def test_profiled_records_when_enabled(self):
        instr = Instrumentation()

        @profiled("my.fn", obs=instr)
        def double(x):
            return x * 2

        assert double(4) == 8
        assert instr.registry.value("profile.calls", fn="my.fn") == 1
        assert instr.registry.get("profile.seconds", fn="my.fn").count == 1
        assert [r.name for r in instr.tracer.records()] == ["my.fn"]

    def test_profiled_disabled_is_passthrough(self):
        instr = Instrumentation(enabled=False)

        @profiled(obs=instr)
        def triple(x):
            return x * 3

        assert triple(3) == 9
        assert len(instr.registry) == 0 and len(instr.tracer) == 0


# -- machine runtime wiring ---------------------------------------------------


class TestMachineWiring:
    def test_executed_counter_and_exec_trans_span(self):
        instr = Instrumentation()
        machine = Machine(machine_spec(), obs=instr)
        machine.exec_trans("SEND", b"data")
        assert instr.registry.value(
            "machine.transitions_executed", machine="obs_m", transition="SEND"
        ) == 1
        (span,) = instr.tracer.records()  # no phase spans under it
        assert span.name == "exec_trans"
        assert span.attrs == {
            "machine": "obs_m",
            "transition": "SEND",
            "payload_digest": frame_digest(b"data"),
            "payload_len": 4,
            "bindings": {"seq": 0},
            "target": repr(machine.current),
        }
        assert instr.registry.get("machine.exec_seconds", machine="obs_m").count == 1

    def test_rejection_reasons_label_counter(self):
        instr = Instrumentation()
        machine = Machine(machine_spec(), obs=instr)

        def rejected(reason, *args, **kwargs):
            with pytest.raises(InvalidTransitionError):
                machine.exec_trans(*args, **kwargs)
            return instr.registry.value(
                "machine.transitions_rejected",
                machine="obs_m", transition=args[0], reason=reason,
            )

        assert rejected("unknown_transition", "NOPE") == 1
        assert rejected("dispatch", "OK", PKT.parse(PKT.encode(
            PKT.make(seq=0, length=1, payload=b"x")))) == 1  # Ready, not Wait
        machine.exec_trans("SEND", b"x")
        assert rejected("evidence", "OK", b"raw-bytes") == 1
        wrong_seq = PKT.parse(PKT.encode(PKT.make(seq=9, length=1, payload=b"x")))
        assert rejected("guard", "OK", wrong_seq) == 1

    def test_a_cleared_registry_gets_fresh_machine_metrics(self):
        # The machine caches its metric handles; clear() must drop them.
        instr = Instrumentation()
        registry = instr.registry
        for _ in range(2):
            machine = Machine(machine_spec(), obs=instr)
            machine.exec_trans("SEND", b"data")
            with pytest.raises(InvalidTransitionError):
                machine.exec_trans("NOPE")
            assert registry.value(
                "machine.transitions_executed", machine="obs_m", transition="SEND"
            ) == 1
            assert registry.value(
                "machine.transitions_rejected",
                machine="obs_m", transition="NOPE", reason="unknown_transition",
            ) == 1
            assert registry.get("machine.exec_seconds", machine="obs_m").count == 1
            registry.clear()

    def test_verified_payload_digest_matches_wire_frame(self):
        instr = Instrumentation()
        machine = Machine(machine_spec(), obs=instr)
        machine.exec_trans("SEND", b"x")
        wire = PKT.encode(PKT.make(seq=0, length=2, payload=b"ok"))
        machine.exec_trans("OK", PKT.parse(wire))
        span = instr.tracer.find("exec_trans")[-1]
        assert span.attrs["payload_spec"] == "ObsPkt"
        assert span.attrs["payload_digest"] == frame_digest(wire)

    def test_disabled_obs_records_nothing(self):
        instr = Instrumentation(enabled=False)
        machine = Machine(machine_spec(), obs=instr)
        machine.exec_trans("SEND", b"data")
        assert len(instr.registry) == 0 and len(instr.tracer) == 0


# -- codec wiring -------------------------------------------------------------


class TestCodecWiring:
    def test_decode_metrics(self):
        instr = Instrumentation()
        wire = PKT.encode(PKT.make(seq=1, length=2, payload=b"hi"))
        codec.decode_packet(PKT, wire, obs=instr)
        assert instr.registry.value("codec.decoded_packets", spec="ObsPkt") == 1
        assert instr.registry.value("codec.decoded_bytes", spec="ObsPkt") == len(wire)
        assert instr.registry.get("codec.decode_seconds", spec="ObsPkt").count == 1

    def test_decode_error_counter_labeled_by_kind(self):
        instr = Instrumentation()
        with pytest.raises(DecodeError):
            codec.decode_packet(PKT, b"\x01", obs=instr)
        assert instr.registry.value(
            "codec.decode_errors", spec="ObsPkt", kind="DecodeError"
        ) == 1

    def test_encode_metrics(self):
        instr = Instrumentation()
        packet = PKT.make(seq=1, length=2, payload=b"hi")
        wire = codec.encode_verbatim(PKT, packet, obs=instr)
        assert instr.registry.value("codec.encoded_packets", spec="ObsPkt") == 1
        assert instr.registry.value("codec.encoded_bytes", spec="ObsPkt") == len(wire)


# -- checker wiring -----------------------------------------------------------


class TestCheckerWiring:
    def test_pass_timings_and_counters(self):
        instr = Instrumentation()
        spec = MachineSpec("checked")
        spec.state("A", initial=True, final=True)
        report = check_machine(spec, obs=instr)
        assert report.ok
        assert instr.registry.value("checker.machines_checked") == 1
        for check in ("initial_states", "transition_soundness", "reachability"):
            assert instr.registry.get("checker.pass_seconds", check=check).count == 1

    def test_rejection_counted(self):
        instr = Instrumentation()
        spec = MachineSpec("broken")  # no initial state: one error
        report = check_machine(spec, obs=instr)
        assert not report.ok
        assert instr.registry.value("checker.machines_rejected", machine="broken") == 1
        assert instr.registry.value("checker.errors") == len(report.errors)


# -- simulator wiring ---------------------------------------------------------


class TestSimulatorWiring:
    def test_cancelled_events_skipped_not_processed(self):
        sim = Simulator(obs=Instrumentation())
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        doomed = sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(3.0, lambda: fired.append("c"))
        doomed.cancel()
        sim.run()
        assert fired == ["a", "c"]
        assert sim.events_processed == 2
        registry = sim.obs.registry
        assert registry.value("sim.events_scheduled") == 3
        assert registry.value("sim.events_fired") == 2
        assert registry.value("sim.events_cancelled") == 1
        assert registry.value("sim.events_skipped") == 1

    def test_events_pending_excludes_cancelled(self):
        sim = Simulator(obs=Instrumentation())
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.events_pending == 2
        first.cancel()
        assert sim.events_pending == 1
        assert sim.pending == 2  # tombstone still physically in the heap
        assert sim.obs.registry.value("sim.events_pending") == 1
        sim.run()
        assert sim.events_pending == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator(obs=Instrumentation())
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.events_pending == 0
        assert sim.obs.registry.value("sim.events_cancelled") == 1

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator(obs=Instrumentation())
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()
        assert sim.events_pending == 0
        assert sim.obs.registry.value("sim.events_cancelled") == 0

    def test_max_events_budget_ignores_cancelled(self):
        sim = Simulator()
        fired = []
        for index in range(3):
            sim.schedule(float(index + 1), lambda i=index: fired.append(i)).cancel()
        sim.schedule(10.0, lambda: fired.append("live"))
        sim.run(max_events=1)
        assert fired == ["live"]

    def test_simulator_attaches_virtual_clock(self):
        instr = Instrumentation()
        sim = Simulator(obs=instr)
        sim.schedule(2.5, lambda: instr.tracer.event("tick"))
        sim.run()
        assert instr.tracer.records()[0].virt_start == 2.5


# -- channel / timer / capture wiring -----------------------------------------


class TestNetsimWiring:
    def test_channel_fate_counters(self):
        instr = Instrumentation()
        sim = Simulator(obs=instr)
        a, b = Node(sim, "a"), Node(sim, "b")
        DuplexLink(sim, a, b, ChannelConfig(loss_rate=1.0), seed=1)
        a.send("b", b"doomed")
        registry = instr.registry
        assert registry.value("channel.frames", channel="a->b", fate="sent") == 1
        assert registry.value("channel.frames", channel="a->b", fate="dropped") == 1
        assert registry.value("channel.bytes", channel="a->b", fate="sent") == 6
        assert registry.value("channel.frames", channel="a->b", fate="delivered") == 0

    def test_timer_counters(self):
        instr = Instrumentation()
        sim = Simulator(obs=instr)
        timer = Timer(sim, 1.0, lambda: None, name="t")
        timer.start()
        timer.stop()
        timer.start()
        sim.run()
        assert timer.cancels == 1
        registry = instr.registry
        assert registry.value("timer.started", timer="t") == 2
        assert registry.value("timer.cancelled", timer="t") == 1
        assert registry.value("timer.fired", timer="t") == 1

    def test_capture_events_share_tracer_timeline(self):
        instr = Instrumentation()
        sim = Simulator(obs=instr)
        a, b = Node(sim, "a"), Node(sim, "b")
        link = DuplexLink(sim, a, b, ChannelConfig(), seed=1)
        capture = Capture(tracer=instr.tracer)
        capture.tap(link.forward)
        a.send("b", b"hello")
        events = instr.tracer.find("capture.frame")
        assert len(events) == 1
        assert events[0].attrs["digest"] == frame_digest(b"hello")
        assert events[0].virt_start == 0.0

    def test_correlate_joins_frames_to_consuming_spans(self):
        instr = Instrumentation()
        sim = Simulator(obs=instr)
        a, b = Node(sim, "a"), Node(sim, "b")
        link = DuplexLink(sim, a, b, ChannelConfig(), seed=1)
        capture = Capture(specs=[PKT], tracer=instr.tracer)
        capture.tap(link.forward)
        machine = Machine(machine_spec(), obs=instr)
        machine.exec_trans("SEND", b"go")

        def on_receive(frame, sender):
            machine.exec_trans("OK", PKT.parse(frame))

        b.on_receive(on_receive)
        a.send("b", PKT.encode(PKT.make(seq=0, length=2, payload=b"ok")))
        sim.run()
        pairs = capture.correlate()
        assert len(pairs) == 1
        frame, span = pairs[0]
        assert frame.index == 0
        assert span.attrs["transition"] == "OK"
        assert span.virt_start >= frame.time

    def test_correlate_without_tracer_raises(self):
        with pytest.raises(ValueError, match="tracer"):
            Capture().correlate()


# -- report -------------------------------------------------------------------


class TestReport:
    def test_dashboard_renders_all_sections(self):
        instr = Instrumentation()
        machine = Machine(machine_spec(), obs=instr)
        machine.exec_trans("SEND", b"data")
        text = render_dashboard(instr)
        assert "counters" in text and "histograms" in text and "trace" in text
        assert "machine.transitions_executed" in text
        assert "machine.exec_seconds" in text
        # One exec_trans span, with no phase spans under it.
        assert "trace (last 1 of 1;" in text and "exec_trans" in text
        assert "transition=SEND" in text and "target=Wait(0)" in text

    def test_export_json_round_trips(self, tmp_path):
        instr = Instrumentation()
        instr.registry.counter("c").inc()
        with instr.tracer.span("s"):
            pass
        path = tmp_path / "obs.jsonl"
        data = obs.export_json(instr, path=str(path))
        loaded = records.read(str(path))
        assert loaded == data
        assert [r.kind for r in loaded] == ["metrics", "span"]
        assert loaded[0].body["metrics"]["c"][0]["value"] == 1
        assert loaded[1].body["name"] == "s"
