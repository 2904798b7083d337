"""The machine runtime: exec_trans soundness, evidence demands, traces."""

import gc
import sys
import weakref

import pytest

from repro import fastpath, obs
from repro.core.fields import Bytes, ChecksumField, UInt
from repro.core.machine import (
    InvalidTransitionError,
    Machine,
    UnverifiedPayloadError,
    replay_trace,
)
from repro.core.packet import PacketSpec
from repro.core.statemachine import MachineSpec, MachineSpecError, Param
from repro.core.symbolic import Var, this
from repro.obs import NULL_OBS

ARQ = PacketSpec(
    "ArqT",
    fields=[
        UInt("seq", bits=8),
        ChecksumField("chk", algorithm="xor8", over=("seq", "length", "payload")),
        UInt("length", bits=8),
        Bytes("payload", length=this.length),
    ],
)

OTHER = PacketSpec("OtherT", fields=[UInt("x", bits=8)])


def sender_spec():
    spec = MachineSpec("sender")
    seq = Param("seq", bits=8)
    ready = spec.state("Ready", params=[seq], initial=True)
    wait = spec.state("Wait", params=[seq])
    sent = spec.state("Sent", params=[seq], final=True)
    n = Var("seq")
    spec.transition("SEND", ready(n), wait(n), requires="bytes")
    spec.transition("OK", wait(n), ready(n + 1), requires=ARQ)
    spec.transition("FAIL", wait(n), ready(n))
    spec.transition("FINISH", ready(n), sent(n))
    return spec.seal()


def verified_packet(seq=0):
    return ARQ.verify(ARQ.make(seq=seq, length=2, payload=b"ok"))


class TestInstantiation:
    def test_unsealed_spec_rejected(self):
        spec = MachineSpec("raw")
        spec.state("A", initial=True, final=True)
        with pytest.raises(MachineSpecError, match="sealed"):
            Machine(spec)

    def test_default_initial_state_is_zeroed(self):
        machine = Machine(sender_spec())
        assert machine.current.name == "Ready"
        assert machine.current.values == (0,)

    def test_explicit_initial_state(self):
        spec = sender_spec()
        machine = Machine(spec, initial=spec.states["Ready"].instance(7))
        assert machine.current.values == (7,)

    def test_foreign_initial_state_rejected(self):
        spec = sender_spec()
        other = sender_spec()
        with pytest.raises(MachineSpecError, match="does not belong"):
            Machine(spec, initial=other.states["Ready"].instance(0))


class TestSoundExecution:
    def test_valid_sequence(self):
        machine = Machine(sender_spec())
        machine.exec_trans("SEND", b"data")
        machine.exec_trans("OK", verified_packet())
        assert machine.current.values == (1,)

    def test_sequence_wraps_at_byte(self):
        spec = sender_spec()
        machine = Machine(spec, initial=spec.states["Wait"].instance(255))
        machine.exec_trans("OK", verified_packet())
        assert machine.current.values == (0,)

    def test_invalid_source_state_rejected(self):
        machine = Machine(sender_spec())
        with pytest.raises(InvalidTransitionError, match="does not match"):
            machine.exec_trans("OK", verified_packet())

    def test_unknown_transition_rejected(self):
        machine = Machine(sender_spec())
        with pytest.raises(InvalidTransitionError, match="no such transition"):
            machine.exec_trans("TELEPORT")

    def test_failed_transition_leaves_machine_unchanged(self):
        machine = Machine(sender_spec())
        before = machine.current
        with pytest.raises(InvalidTransitionError):
            machine.exec_trans("OK", verified_packet())
        assert machine.current == before
        assert machine.trace == ()

    def test_finished_machine_accepts_nothing(self):
        machine = Machine(sender_spec())
        machine.exec_trans("FINISH")
        assert machine.is_finished
        with pytest.raises(InvalidTransitionError):
            machine.exec_trans("SEND", b"x")


class TestEvidenceDemands:
    def test_bytes_requirement(self):
        machine = Machine(sender_spec())
        with pytest.raises(InvalidTransitionError, match="byte payload"):
            machine.exec_trans("SEND", "not bytes")

    def test_no_payload_transition_rejects_payload(self):
        machine = Machine(sender_spec())
        machine.exec_trans("SEND", b"x")
        with pytest.raises(InvalidTransitionError, match="no payload"):
            machine.exec_trans("FAIL", b"unexpected")

    def test_raw_packet_rejected_where_verified_demanded(self):
        machine = Machine(sender_spec())
        machine.exec_trans("SEND", b"x")
        raw = ARQ.make(seq=0, length=0, payload=b"")
        with pytest.raises(UnverifiedPayloadError, match="Verified"):
            machine.exec_trans("OK", raw)

    def test_verified_of_wrong_spec_rejected(self):
        machine = Machine(sender_spec())
        machine.exec_trans("SEND", b"x")
        wrong = OTHER.verify(OTHER.make(x=1))
        with pytest.raises(UnverifiedPayloadError, match="OtherT"):
            machine.exec_trans("OK", wrong)

    def test_verified_of_right_spec_accepted(self):
        machine = Machine(sender_spec())
        machine.exec_trans("SEND", b"x")
        machine.exec_trans("OK", verified_packet())
        assert machine.current.name == "Ready"


class TestInputs:
    def build(self):
        spec = MachineSpec("windowed")
        base = Param("base")
        active = spec.state("Active", params=[base], initial=True)
        done = spec.state("Done", params=[base], final=True)
        b, a = Var("base"), Var("ack")
        spec.transition(
            "ACK", active(b), active(a + 1), inputs=("ack",), guard=a >= b
        )
        spec.transition("STOP", active(b), done(b))
        return spec.seal()

    def test_input_drives_target(self):
        machine = Machine(self.build())
        machine.exec_trans("ACK", ack=4)
        assert machine.current.values == (5,)

    def test_guard_constrains_input(self):
        machine = Machine(self.build())
        machine.exec_trans("ACK", ack=3)
        with pytest.raises(InvalidTransitionError, match="guard"):
            machine.exec_trans("ACK", ack=1)

    def test_missing_input_rejected(self):
        machine = Machine(self.build())
        with pytest.raises(InvalidTransitionError, match="declares inputs"):
            machine.exec_trans("ACK")

    def test_unexpected_input_rejected(self):
        machine = Machine(self.build())
        with pytest.raises(InvalidTransitionError, match="declares inputs"):
            machine.exec_trans("STOP", ack=1)

    def test_non_integer_input_rejected(self):
        machine = Machine(self.build())
        with pytest.raises(InvalidTransitionError, match="must be an int"):
            machine.exec_trans("ACK", ack="five")


class TestIntrospection:
    def test_available_transitions(self):
        machine = Machine(sender_spec())
        names = {t.name for t in machine.available_transitions()}
        assert names == {"SEND", "FINISH"}
        machine.exec_trans("SEND", b"x")
        names = {t.name for t in machine.available_transitions()}
        assert names == {"OK", "FAIL"}

    def test_expect_state(self):
        machine = Machine(sender_spec())
        machine.expect_state("Ready", seq=0)
        with pytest.raises(InvalidTransitionError, match="expected state"):
            machine.expect_state("Wait")
        with pytest.raises(InvalidTransitionError, match="seq=3"):
            machine.expect_state("Ready", seq=3)

    def test_in_state(self):
        machine = Machine(sender_spec())
        assert machine.in_state("Ready")
        assert not machine.in_state("Wait")


class TestTraceAndObservers:
    def test_trace_records_steps(self):
        machine = Machine(sender_spec())
        machine.exec_trans("SEND", b"x")
        machine.exec_trans("OK", verified_packet())
        assert [s.transition for s in machine.trace] == ["SEND", "OK"]
        assert machine.trace[1].bindings_dict() == {"seq": 0}
        assert machine.trace[1].target.values == (1,)

    def test_observers_fire_after_each_step(self):
        machine = Machine(sender_spec())
        seen = []
        machine.add_observer(lambda m, step, payload: seen.append(step.transition))
        machine.exec_trans("SEND", b"x")
        machine.exec_trans("FAIL")
        assert seen == ["SEND", "FAIL"]

    def test_replay_trace_reproduces_run(self):
        spec = sender_spec()
        machine = Machine(spec)
        machine.exec_trans("SEND", b"x")
        machine.exec_trans("OK", verified_packet())
        machine.exec_trans("FINISH")
        replayed = replay_trace(
            spec,
            spec.states["Ready"].instance(0),
            [("SEND", b"x"), ("OK", verified_packet()), ("FINISH", None)],
        )
        assert replayed.current == machine.current

    def test_replay_with_inputs(self):
        spec = MachineSpec("w")
        base = Param("base")
        active = spec.state("Active", params=[base], initial=True)
        done = spec.state("Done", params=[base], final=True)
        b, a = Var("base"), Var("ack")
        spec.transition("ACK", active(b), active(a + 1), inputs=("ack",))
        spec.transition("STOP", active(b), done(b))
        spec.seal()
        machine = replay_trace(
            spec,
            active.instance(0),
            [("ACK", None, {"ack": 4}), ("STOP", None, {})],
        )
        assert machine.current == done.instance(5)


class TestRejectionCounters:
    """Rejected transitions land in the right labeled obs counter."""

    def _machine(self):
        from repro.obs import Instrumentation

        instr = Instrumentation()
        return Machine(sender_spec(), obs=instr), instr

    def _rejected(self, instr, transition, reason):
        return instr.registry.value(
            "machine.transitions_rejected",
            machine="sender", transition=transition, reason=reason,
        )

    def test_unknown_transition_labeled(self):
        machine, instr = self._machine()
        with pytest.raises(InvalidTransitionError):
            machine.exec_trans("NO_SUCH")
        assert self._rejected(instr, "NO_SUCH", "unknown_transition") == 1

    def test_dispatch_mismatch_labeled(self):
        machine, instr = self._machine()
        with pytest.raises(InvalidTransitionError):
            machine.exec_trans("OK", verified_packet())  # in Ready, not Wait
        assert self._rejected(instr, "OK", "dispatch") == 1

    def test_missing_evidence_labeled(self):
        machine, instr = self._machine()
        machine.exec_trans("SEND", b"x")
        with pytest.raises(UnverifiedPayloadError):
            machine.exec_trans("OK", b"raw")
        assert self._rejected(instr, "OK", "evidence") == 1

    def test_wrong_spec_evidence_labeled(self):
        machine, instr = self._machine()
        machine.exec_trans("SEND", b"x")
        with pytest.raises(UnverifiedPayloadError):
            machine.exec_trans("OK", OTHER.verify(OTHER.make(x=1)))
        assert self._rejected(instr, "OK", "evidence") == 1

    def test_executions_counted_alongside(self):
        machine, instr = self._machine()
        machine.exec_trans("SEND", b"x")
        machine.exec_trans("FAIL")
        assert instr.registry.value(
            "machine.transitions_executed", machine="sender", transition="SEND"
        ) == 1
        assert instr.registry.value(
            "machine.transitions_executed", machine="sender", transition="FAIL"
        ) == 1
        assert machine.current.name == "Ready"


class TestStagedDispatch:
    """The compiled dispatch tier changes speed, never behaviour."""

    def _guarded_spec(self):
        spec = MachineSpec("windowed")
        base = Param("base")
        active = spec.state("Active", params=[base], initial=True)
        done = spec.state("Done", params=[base], final=True)
        b, a = Var("base"), Var("ack")
        spec.transition(
            "ACK", active(b), active(a + 1), inputs=("ack",), guard=a >= b
        )
        spec.transition("STOP", active(b), done(b))
        return spec.seal()

    def _transcript(self, spec, steps):
        """Run a script of (name, payload, inputs); log every observable."""
        machine = Machine(spec)
        log = []
        for name, payload, inputs in steps:
            try:
                if payload is None:
                    machine.exec_trans(name, **inputs)
                else:
                    machine.exec_trans(name, payload, **inputs)
                log.append(("ok", machine.current.name, machine.current.values))
            except InvalidTransitionError as exc:
                log.append(("err", name, str(exc)))
            log.append(
                ("avail", tuple(t.name for t in machine.available_transitions()))
            )
        log.append(("trace", tuple(s.transition for s in machine.trace)))
        return log

    def _compare_modes(self, build, steps):
        with fastpath.use(mode="always"):
            spec = build()
            compiled = self._transcript(spec, steps)
            # Never demoted: no generated refusal was one the walk accepts.
            assert fastpath.state_of(spec).status == "compiled"
        with fastpath.use(mode="off"):
            interpreted = self._transcript(build(), steps)
        assert compiled == interpreted

    def test_sender_behaviour_identical_staged_or_not(self):
        self._compare_modes(
            sender_spec,
            [
                ("SEND", b"x", {}),
                ("OK", verified_packet(), {}),
                ("SEND", b"y", {}),
                ("FAIL", None, {}),
                ("OK", verified_packet(1), {}),  # invalid: in Ready, not Wait
                ("FINISH", None, {}),
                ("SEND", b"z", {}),  # invalid: machine finished
            ],
        )

    def test_guarded_behaviour_identical_staged_or_not(self):
        self._compare_modes(
            self._guarded_spec,
            [
                ("ACK", None, {"ack": 4}),
                ("ACK", None, {"ack": 1}),  # guard rejects: 1 < 5
                ("ACK", None, {"ack": 9}),
                ("STOP", None, {}),
            ],
        )

    def test_sealed_spec_carries_dispatch_indexes(self):
        # Satellite to the staged tier: the precomputed (state,
        # transition) indexes land at seal time, independent of the
        # staged closures, and answer exactly like the linear scans
        # they replace.
        spec = sender_spec()
        assert spec._transition_index is not None
        assert spec._source_index is not None
        for name, transition in spec._transition_index.items():
            assert spec.transition_named(name) is transition
        for state_name in spec.states:
            indexed = [t.name for t in spec.transitions_from(state_name)]
            scanned = [
                t.name
                for t in spec.transitions
                if t.source.state.name == state_name
            ]
            assert indexed == scanned

    def test_compiled_module_covers_sender(self):
        spec = sender_spec()
        with fastpath.use(mode="always"):
            machine = Machine(spec)
            machine.exec_trans("SEND", b"x")
            machine.exec_trans("OK", verified_packet())
            state = fastpath.state_of(spec)
            assert state.status == "compiled"
            assert set(state.codec.execs) == {"SEND", "OK", "FAIL", "FINISH"}
            assert state.codec.module.__name__ == "repro_generated_machine_sender"
            # Only the payload-free, input-free transitions fuse.
            assert set(state.codec.cohorts) == {"FAIL", "FINISH"}
            assert fastpath.demoted() == []

    def test_compiled_module_does_not_keep_its_spec_alive(self):
        spec = sender_spec()
        with fastpath.use(mode="always"):
            Machine(spec).exec_trans("SEND", b"x")
            assert fastpath.state_of(spec).status == "compiled"
        ref = weakref.ref(spec)
        del spec
        gc.collect()
        assert ref() is None

    def test_divergence_counter_absent_on_clean_run(self):
        instr = obs.enable()
        instr.reset()
        try:
            with fastpath.use(mode="always", verify=True):
                # Obs off for the machine itself, or it walks interpreted.
                machine = Machine(sender_spec(), obs=NULL_OBS)
                machine.exec_trans("SEND", b"x")
                machine.exec_trans("FAIL")
                assert fastpath.state_of(machine.spec).status == "compiled"
        finally:
            obs.disable()
        for reason in ("exec-error", "exec-mismatch"):
            assert instr.registry.value(
                "fastpath.divergences", spec="sender", reason=reason
            ) == 0

    @staticmethod
    def _replace_exec(spec, name, run):
        """Swap one generated ``exec_<T>`` of ``spec``'s current module."""
        state = fastpath.active_state(spec)
        execs = dict(state.codec.execs, **{name: run})
        state.codec = state.codec._replace(execs=execs)
        return state

    def test_verify_demotes_a_wrong_generated_target(self):
        spec = sender_spec()
        instr = obs.enable()
        instr.reset()
        try:
            with fastpath.use(mode="always", verify=True):
                machine = Machine(spec, obs=NULL_OBS)
                machine.exec_trans("SEND", b"x")
                ok = fastpath.active_state(spec).codec.execs["OK"]

                def lies(current, payload, inputs):
                    target, bindings = ok(current, payload, inputs)
                    return target.state.instance(target.values[0] + 1), bindings

                self._replace_exec(spec, "OK", lies)
                ready = spec.states["Ready"].instance(1)
                assert machine.exec_trans("OK", verified_packet()) == ready
                assert machine.current == ready
                assert fastpath.demoted() == [("sender", "exec-mismatch")]
        finally:
            obs.disable()
        assert instr.registry.value(
            "fastpath.divergences", spec="sender", reason="exec-mismatch"
        ) == 1

    def test_always_demotes_a_refusal_the_walk_accepts(self):
        spec = sender_spec()
        with fastpath.use(mode="always"):
            machine = Machine(spec)
            self._replace_exec(spec, "SEND", lambda current, payload, inputs: None)
            wait = spec.states["Wait"].instance(0)
            assert machine.exec_trans("SEND", b"x") == wait
            assert [step.transition for step in machine.trace] == ["SEND"]
            assert fastpath.demoted() == [("sender", "exec-error")]
            # Demoted: the walk runs from now on.
            assert machine.exec_trans("FAIL").name == "Ready"

    def test_a_refusal_the_walk_shares_keeps_the_module(self):
        spec = sender_spec()
        with fastpath.use(mode="always"):
            machine = Machine(spec)
            with pytest.raises(InvalidTransitionError) as excinfo:
                machine.exec_trans("OK", verified_packet())  # in Ready, not Wait
            assert excinfo.value.code == "dispatch"
            assert fastpath.state_of(spec).status == "compiled"

    @staticmethod
    def _generated_calls(mode):
        """Names of the generated machine functions a short run calls."""
        calls = []

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(
                "repro_generated_machine_"
            ):
                calls.append(code.co_name)

        packet = verified_packet()
        with fastpath.use(mode=mode):
            machine = Machine(sender_spec())
            fastpath.active_state(machine.spec)  # compile outside the count
            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                machine.exec_trans("SEND", b"x")
                machine.exec_trans("OK", packet)
            finally:
                sys.setprofile(previous)
        return calls

    def test_off_runs_no_generated_machine_function(self):
        assert self._generated_calls("always") == ["exec_SEND", "exec_OK"]
        assert self._generated_calls("off") == []
