import pytest

from betacover import (
    IVFuzzySet,
    NotACoveringError,
    SoftMapping,
    SoftSpace,
    Universe,
    UnknownParameterError,
    build_space,
    is_full_covering,
    validate_beta_covering,
)
from betacover.intervals import leq_bool
from betacover.space import parse_policy

from conftest import iv


U = Universe(("x", "y", "z"))


def mapping(table):
    return SoftMapping.from_dict(
        U, {p: {o: iv(t) for o, t in row.items()} for p, row in table.items()}
    )


GOOD = {
    "e1": {"x": "[0.6,0.7]", "y": "[0.5,0.6]", "z": "[0.3,0.6]"},
    "e2": {"x": "[0.5,0.8]", "y": "[0.4,0.9]", "z": "[0.7,0.8]"},
}

# At z neither grade dominates [0.5,0.6] alone, but their join [0.5,0.6] does.
GAP = {
    "e1": {"x": "[0.6,0.7]", "y": "[0.4,0.5]", "z": "[0.3,0.6]"},
    "e2": {"x": "[0.4,0.9]", "y": "[0.5,0.6]", "z": "[0.5,0.55]"},
}

BAD = {
    "e1": {"x": "[0.6,0.7]", "y": "[0.5,0.6]", "z": "[0.3,0.5]"},
    "e2": {"x": "[0.5,0.8]", "y": "[0.4,0.9]", "z": "[0.2,0.4]"},
}


class TestSoftMapping:
    def test_parameter_order_preserved(self):
        m = mapping(GOOD)
        assert m.parameters == ("e1", "e2")

    def test_unknown_parameter(self):
        with pytest.raises(UnknownParameterError):
            mapping(GOOD).set_for("e9")

    def test_join_at(self):
        assert mapping(GOOD).join_at("z") == iv("[0.7,0.8]")

    def test_mixed_universes_rejected(self):
        other = IVFuzzySet.top(Universe(("a",)))
        with pytest.raises(ValueError):
            SoftMapping(U, ("e1",), (other,))


class TestCoveringValidation:
    def test_valid_covering(self):
        report = validate_beta_covering(mapping(GOOD), iv("[0.5,0.6]"))
        assert report.ok and report.failures == ()

    def test_join_can_dominate_when_no_single_grade_does(self):
        m = mapping(GAP)
        beta = iv("[0.5,0.6]")
        assert validate_beta_covering(m, beta).ok
        assert not any(leq_bool(beta, fs.grade("z")) for fs in m.assignment)

    def test_failures_name_objects_with_attained_join(self):
        report = validate_beta_covering(mapping(BAD), iv("[0.5,0.6]"))
        assert not report.ok
        assert report.failures == (("z", iv("[0.3,0.5]")),)

    def test_monotone_in_beta(self):
        m = mapping(GOOD)
        assert validate_beta_covering(m, iv("[0.5,0.6]")).ok
        # anything below a valid threshold also validates
        assert validate_beta_covering(m, iv("[0.2,0.6]")).ok
        assert validate_beta_covering(m, iv("[0,0]")).ok

    def test_is_full_covering(self):
        assert not is_full_covering(mapping(GOOD))
        full = {
            "e1": {"x": "[1,1]", "y": "[0,0]", "z": "[1,1]"},
            "e2": {"x": "[0,1]", "y": "[1,1]", "z": "[0.5,1]"},
        }
        assert is_full_covering(mapping(full))


class TestSoftSpace:
    def test_construction_enforces_covering(self):
        with pytest.raises(NotACoveringError) as exc:
            SoftSpace(mapping(BAD), iv("[0.5,0.6]"))
        assert exc.value.report is not None
        assert [obj for obj, _ in exc.value.report.failures] == ["z"]

    def test_accessors(self):
        space = SoftSpace(mapping(GOOD), iv("[0.5,0.6]"))
        assert space.universe is U
        assert space.parameters == ("e1", "e2")


class TestPolicies:
    def test_parse_policy_forms(self):
        assert parse_policy("strict") == ("strict", "")
        assert parse_policy("repair:e2") == ("repair", "e2")
        assert parse_policy(("repair", "e2")) == ("repair", "e2")
        with pytest.raises(ValueError):
            parse_policy("mend")

    def test_strict_raises(self):
        with pytest.raises(NotACoveringError):
            build_space(mapping(BAD), iv("[0.5,0.6]"), "strict")

    def test_repair_touches_only_failing_objects(self):
        beta = iv("[0.5,0.6]")
        space = build_space(mapping(BAD), beta, "repair:e1")
        fixed = space.mapping.set_for("e1")
        original = mapping(BAD).set_for("e1")
        assert fixed.grade("z") == original.grade("z").join(beta)
        assert fixed.grade("x") == original.grade("x")
        assert fixed.grade("y") == original.grade("y")
        assert space.mapping.set_for("e2") == mapping(BAD).set_for("e2")
        assert validate_beta_covering(space.mapping, beta).ok

    def test_repair_unknown_parameter(self):
        with pytest.raises(UnknownParameterError):
            build_space(mapping(BAD), iv("[0.5,0.6]"), "repair:e9")

    def test_repair_noop_on_valid_covering(self):
        m = mapping(GOOD)
        space = build_space(m, iv("[0.5,0.6]"), "repair:e1")
        assert space.mapping is m
