import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings

from betacover import (
    IVFuzzySet,
    NotACoveringError,
    SoftMapping,
    SoftSpace,
    Universe,
    UnknownParameterError,
    build_space,
    validate_beta_covering,
)
from betacover.intervals import TOP, family_join, join, leq_bool
from betacover.space import parse_policy

from conftest import hostile_interval, iv, mixed_spaces


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
        m = mapping(GOOD)
        assert m.joins[m.universe.index("z")] == iv("[0.7,0.8]")

    def test_joins_hold_every_object_and_are_read_only(self):
        m = mapping(GAP)
        assert m.joins == (iv("[0.6,0.9]"), iv("[0.5,0.6]"), iv("[0.5,0.6]"))
        with pytest.raises(FrozenInstanceError):
            m.joins = ()

    def test_the_code_table_numbers_every_grade_and_is_read_only(self):
        m = mapping(GAP)
        for fs, (lows, highs) in zip(m.assignment, m.set_codes):
            assert m.codes.decode(lows, highs) == fs.grades
        for name in ("codes", "set_codes"):
            with pytest.raises(FrozenInstanceError):
                setattr(m, name, None)

    @settings(max_examples=200, deadline=1000)
    @given(mixed_spaces())
    def test_joins_equal_the_family_join_fold(self, space):
        m = space.mapping
        assert m.joins == tuple(map(family_join, zip(*(fs.grades for fs in m.assignment))))

    def test_one_parameter_joins_are_its_grades(self):
        # A lone set is passed to max twice; its join is itself.
        m = mapping({"e1": GOOD["e1"]})
        assert m.joins == m.assignment[0].grades

    def test_joins_with_200_bit_denominators(self):
        rng = random.Random("joins-200-bit")
        for params in (1, 2, 5):
            table = {f"e{j}": {o: hostile_interval(rng) for o in U} for j in range(params)}
            m = SoftMapping.from_dict(U, table)
            expected = tuple(map(family_join, zip(*(fs.grades for fs in m.assignment))))
            assert m.joins == expected
            assert all(type(x) is Fraction for v in m.joins for x in (v.lo, v.hi))

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
        assert not validate_beta_covering(mapping(GOOD), TOP).ok
        full = {
            "e1": {"x": "[1,1]", "y": "[0,0]", "z": "[1,1]"},
            "e2": {"x": "[0,1]", "y": "[1,1]", "z": "[0.5,1]"},
        }
        assert validate_beta_covering(mapping(full), TOP).ok


class TestSoftSpace:
    def test_construction_enforces_covering(self):
        with pytest.raises(NotACoveringError) as exc:
            SoftSpace(mapping(BAD), iv("[0.5,0.6]"))
        assert exc.value.report is not None
        assert [obj for obj, _ in exc.value.report.failures] == ["z"]

    def test_covering_message_names_short_objects_whole(self):
        with pytest.raises(NotACoveringError) as exc:
            SoftSpace(mapping(BAD), iv("[0.5,0.6]"))
        assert str(exc.value) == "beta-covering condition fails at z:[0.3,0.5]"

    def test_covering_message_cuts_long_names_and_counts_past_five(self):
        universe = Universe(("o" * 100,) + tuple(f"x{i}" for i in range(8)))
        zeros = IVFuzzySet.constant(universe, iv("[0,0]"))
        with pytest.raises(NotACoveringError) as exc:
            SoftSpace(SoftMapping(universe, ("e1",), (zeros,)), iv("[0.5,0.5]"))
        assert len(exc.value.report.failures) == 9
        assert str(exc.value) == (
            f"beta-covering condition fails at {'o' * 40!r}... (100 characters):[0,0], "
            "x0:[0,0], x1:[0,0], x2:[0,0], x3:[0,0], and 4 more"
        )

    def test_accessors(self):
        space = SoftSpace(mapping(GOOD), iv("[0.5,0.6]"))
        assert space.universe is U
        assert space.parameters == ("e1", "e2")


class TestPolicies:
    def test_parse_policy_forms(self):
        assert parse_policy("strict") == ("strict", "")
        assert parse_policy("repair:e2") == ("repair", "e2")
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
        assert fixed.grade("z") == join(original.grade("z"), beta)
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


class TestCoveringCheckedOnce:
    """SoftSpace is the one place a valid covering is checked."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import betacover.space

        seen = []
        real = betacover.space.validate_beta_covering

        def counting(mapping, beta):
            seen.append(beta)
            return real(mapping, beta)

        monkeypatch.setattr(betacover.space, "validate_beta_covering", counting)
        return seen

    def test_parse_space_strict(self, calls):
        from betacover import parse_space
        from betacover.serialize import serialize_space

        text = serialize_space(SoftSpace(mapping(GOOD), iv("[0.5,0.6]")))
        calls.clear()
        space = parse_space(text, policy="strict")
        assert calls == [space.beta]

    def test_gen_space_on_a_covering_draw(self, calls):
        from betacover import GenConfig, gen_space

        # A draw that needed repair would be checked again after the repair.
        space = gen_space(GenConfig(universe_size=4, parameter_count=3, seed=3))
        assert calls == [space.beta]
