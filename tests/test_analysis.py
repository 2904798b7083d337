"""Code metrics and trace validation."""

import pytest

from repro.analysis import (
    TraceValidationError,
    measure_module,
    measure_source,
    trace_summary,
    validate_trace,
)
from repro.core.machine import Machine, TraceStep
from repro.protocols.arq import ACK_PACKET, build_sender_spec


class TestCodeMetrics:
    def test_plain_logic_is_not_error_handling(self):
        metrics = measure_source(
            """
            def add(a, b):
                total = a + b
                return total
            """
        )
        assert metrics.error_handling_lines == 0
        assert metrics.code_lines == 3

    def test_raise_and_assert_counted(self):
        metrics = measure_source(
            """
            def f(x):
                assert x > 0
                if x > 10:
                    raise ValueError(x)
                return x
            """
        )
        assert metrics.error_handling_lines >= 3

    def test_guard_clause_counted(self):
        metrics = measure_source(
            """
            def parse(frame):
                if len(frame) < 3:
                    return -1
                if frame[0] != 0x45:
                    return None
                return frame[1]
            """
        )
        assert metrics.error_handling_lines >= 4

    def test_if_with_real_work_not_counted(self):
        metrics = measure_source(
            """
            def f(x):
                if x > 0:
                    y = x * 2
                    send(y)
                return x
            """
        )
        assert metrics.error_handling_lines == 0

    def test_except_bodies_counted(self):
        metrics = measure_source(
            """
            def f():
                try:
                    risky()
                    more_work()
                except ValueError as exc:
                    log(exc)
                    recover()
            """
        )
        # try line + the two handler body lines; the try body itself
        # (risky/more_work) is protocol logic and must NOT be counted.
        # code lines: def, try, risky, more_work, log, recover.
        assert metrics.error_handling_lines == 3
        assert metrics.code_lines == 6

    def test_docstrings_excluded_from_code_lines(self):
        metrics = measure_source(
            '''
            def f():
                """This long docstring
                spans lines."""
                return 1
            '''
        )
        assert metrics.code_lines == 2  # def + return

    def test_validation_calls_counted(self):
        metrics = measure_source(
            """
            def f(pkt):
                validate_header(pkt)
                deliver(pkt)
            """
        )
        assert metrics.error_handling_lines == 1

    def test_fraction_computation(self):
        metrics = measure_source("x = 1")
        assert metrics.error_fraction == 0.0

    def test_baseline_denser_than_dsl_protocol_definitions(self):
        """The E5 headline: sockets-style code interleaves error handling
        everywhere, while the DSL *protocol definition* — the packet spec
        and machine builders, where the paper says this logic should live —
        contains none at all (it is carried by the framework)."""
        import inspect

        import repro.baseline.sockets_arq as baseline
        from repro.protocols import arq

        baseline_metrics = measure_module(baseline)
        definition_source = inspect.getsource(
            arq.build_sender_spec
        ) + inspect.getsource(arq.build_receiver_spec)
        dsl_metrics = measure_source(definition_source, name="arq-definitions")
        assert baseline_metrics.error_fraction > 0.2
        assert dsl_metrics.error_fraction == 0.0


class TestTraceValidation:
    def make_run(self):
        spec = build_sender_spec()
        machine = Machine(spec)
        steps = machine.record_steps()
        machine.exec_trans("SEND", b"one")
        machine.exec_trans("OK", ACK_PACKET.verify(ACK_PACKET.make(seq=0)))
        machine.exec_trans("FINISH")
        assert [step.transition for step in steps] == ["SEND", "OK", "FINISH"]
        return spec, steps

    def test_genuine_trace_validates(self):
        spec, steps = self.make_run()
        initial = spec.states["Ready"].instance(0)
        validate_trace(spec, initial, steps)

    def test_broken_chain_detected(self):
        spec, steps = self.make_run()
        initial = spec.states["Ready"].instance(0)
        broken = list(steps)
        broken[1], broken[2] = broken[2], broken[1]
        with pytest.raises(TraceValidationError, match="machine was at"):
            validate_trace(spec, initial, broken)

    def test_forged_target_detected(self):
        spec, steps = self.make_run()
        initial = spec.states["Ready"].instance(0)
        step = steps[0]
        forged = TraceStep(
            transition=step.transition,
            source=step.source,
            target=spec.states["Wait"].instance(9),  # wrong parameter
            bindings=step.bindings,
        )
        with pytest.raises(TraceValidationError, match="differs from"):
            validate_trace(spec, initial, [forged])

    def test_unknown_transition_detected(self):
        spec, steps = self.make_run()
        initial = spec.states["Ready"].instance(0)
        step = steps[0]
        forged = TraceStep(
            transition="TELEPORT",
            source=step.source,
            target=step.target,
            bindings=step.bindings,
        )
        with pytest.raises(TraceValidationError, match="no transition"):
            validate_trace(spec, initial, [forged])

    def test_summary_renders_each_step(self):
        spec, steps = self.make_run()
        text = trace_summary(steps)
        assert "SEND" in text and "OK" in text and "FINISH" in text
        assert len(text.splitlines()) == 3
