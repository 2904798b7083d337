"""State-machine DSL declarations: states, patterns, transitions."""

import pytest

from repro.core.statemachine import (
    MachineSpec,
    MachineSpecError,
    Param,
    StateInstance,
)
from repro.core.symbolic import UnificationError, Var


def minimal_machine():
    spec = MachineSpec("m")
    seq = Param("seq", bits=8)
    ready = spec.state("Ready", params=[seq], initial=True)
    done = spec.state("Done", params=[seq], final=True)
    n = Var("seq")
    spec.transition("GO", ready(n), done(n))
    return spec, ready, done


class TestParam:
    def test_wrapping_domain(self):
        param = Param("seq", bits=8)
        assert param.normalize(256) == 0
        assert param.normalize(257) == 1
        assert param.normalize(-1) == 255

    def test_unbounded_rejects_negative(self):
        with pytest.raises(MachineSpecError, match="negative"):
            Param("n").normalize(-1)

    def test_invalid_names_rejected(self):
        with pytest.raises(MachineSpecError):
            Param("not a name")
        with pytest.raises(MachineSpecError):
            Param("w", bits=0)


class TestStateDeclaration:
    def test_duplicate_state_rejected(self):
        spec = MachineSpec("m")
        spec.state("S")
        with pytest.raises(MachineSpecError, match="duplicate state"):
            spec.state("S")

    def test_duplicate_param_rejected(self):
        spec = MachineSpec("m")
        with pytest.raises(MachineSpecError, match="duplicate parameter"):
            spec.state("S", params=["a", "a"])

    def test_arity_enforced_on_patterns(self):
        spec = MachineSpec("m")
        s = spec.state("S", params=["a"])
        with pytest.raises(MachineSpecError, match="parameter"):
            s(Var("x"), Var("y"))

    def test_arity_enforced_on_instances(self):
        spec = MachineSpec("m")
        s = spec.state("S", params=["a", "b"])
        with pytest.raises(MachineSpecError):
            s.instance(1)

    def test_instance_normalizes_params(self):
        spec = MachineSpec("m")
        s = spec.state("S", params=[Param("seq", bits=4)])
        assert s.instance(17).values == (1,)

    def test_string_params_coerced(self):
        spec = MachineSpec("m")
        s = spec.state("S", params=["a"])
        assert s.params[0].name == "a"
        assert s.params[0].bits is None


class TestPatternMatching:
    def test_variable_pattern_binds(self):
        spec = MachineSpec("m")
        s = spec.state("S", params=["a"])
        bindings = s(Var("a")).match(s.instance(5))
        assert bindings == {"a": 5}

    def test_constant_pattern_filters(self):
        spec = MachineSpec("m")
        s = spec.state("S", params=["a"])
        pattern = s(0)
        assert pattern.match(s.instance(0)) == {}
        with pytest.raises(UnificationError):
            pattern.match(s.instance(1))

    def test_wrong_state_rejected(self):
        spec = MachineSpec("m")
        s = spec.state("S", params=["a"])
        t = spec.state("T", params=["a"])
        with pytest.raises(UnificationError, match="does not match"):
            s(Var("a")).match(t.instance(1))

    def test_nonlinear_pattern_consistency(self):
        spec = MachineSpec("m")
        s = spec.state("S", params=["a", "b"])
        pattern = s(Var("x"), Var("x"))
        assert pattern.match(s.instance(3, 3)) == {"x": 3}
        with pytest.raises(UnificationError):
            pattern.match(s.instance(3, 4))

    def test_instantiate_evaluates_and_wraps(self):
        spec = MachineSpec("m")
        s = spec.state("S", params=[Param("seq", bits=8)])
        target = s(Var("n") + 1).instantiate({"n": 255})
        assert target == s.instance(0)


class TestTransitionDeclaration:
    def test_duplicate_transition_rejected(self):
        spec, ready, done = minimal_machine()
        with pytest.raises(MachineSpecError, match="duplicate transition"):
            spec.transition("GO", ready(Var("seq")), done(Var("seq")))

    def test_invalid_input_name_rejected(self):
        spec, ready, done = minimal_machine()
        with pytest.raises(MachineSpecError, match="identifier"):
            spec.transition(
                "X", ready(Var("seq")), done(Var("seq")), inputs=("1bad",)
            )

    @pytest.mark.parametrize("op", ["==", "!="])
    def test_bool_guard_rejected(self, op):
        # Var's == and != are structural, so these guards are plain bools.
        spec, ready, done = minimal_machine()
        n = Var("seq")
        guard = (n == 5) if op == "==" else (n != 5)
        assert isinstance(guard, bool)
        with pytest.raises(MachineSpecError, match=r"'X'.*n\.eq\(5\) or n\.ne\(5\)"):
            spec.transition("X", ready(n), done(n), guard=guard)
        assert [t.name for t in spec.transitions] == ["GO"]

    def test_transitions_from_query(self):
        spec, ready, done = minimal_machine()
        assert [t.name for t in spec.transitions_from("Ready")] == ["GO"]
        assert spec.transitions_from("Done") == []

    def test_transition_named_lookup(self):
        spec, _, _ = minimal_machine()
        assert spec.transition_named("GO").name == "GO"
        with pytest.raises(KeyError):
            spec.transition_named("NOPE")


class TestSealing:
    def test_seal_freezes_spec(self):
        spec, ready, done = minimal_machine()
        spec.seal()
        assert spec.sealed
        with pytest.raises(MachineSpecError, match="sealed"):
            spec.state("New")
        with pytest.raises(MachineSpecError, match="sealed"):
            spec.transition("T2", ready(Var("seq")), done(Var("seq")))

    def test_seal_reports_all_errors_at_once(self):
        spec = MachineSpec("broken")
        a = spec.state("A", params=["x"])  # no initial state
        b = spec.state("B", params=["x"], final=True)
        spec.transition("T", a(Var("x")), b(Var("y")))  # unbound target var
        with pytest.raises(MachineSpecError) as excinfo:
            spec.seal()
        message = str(excinfo.value)
        assert "no initial state" in message
        assert "inputs bind" in message


class TestStateInstance:
    def test_bindings_dict(self):
        spec = MachineSpec("m")
        s = spec.state("S", params=["a", "b"])
        instance = s.instance(1, 2)
        assert instance.bindings() == {"a": 1, "b": 2}

    def test_equality_and_hash(self):
        spec = MachineSpec("m")
        s = spec.state("S", params=["a"])
        assert s.instance(1) == s.instance(1)
        assert hash(s.instance(1)) == hash(s.instance(1))
        assert s.instance(1) != s.instance(2)

    def test_is_final_reflects_state(self):
        spec = MachineSpec("m")
        final_state = spec.state("F", final=True)
        assert final_state.instance().is_final
