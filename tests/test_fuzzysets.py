import pytest
from hypothesis import given
from hypothesis import strategies as st

from betacover import (
    CrispSubset,
    IVFuzzySet,
    Universe,
    UniverseMismatchError,
    UnknownObjectError,
)

from conftest import fuzzy, intervals, iv


def fuzzy_sets(universe):
    return st.builds(
        lambda grades: IVFuzzySet(universe, tuple(grades)),
        st.lists(intervals(), min_size=len(universe), max_size=len(universe)),
    )


U3 = Universe(("x", "y", "z"))


class TestUniverse:
    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            Universe(("x", "x"))
        with pytest.raises(ValueError):
            Universe(())

    def test_index_and_membership(self):
        assert U3.index("y") == 1
        assert "z" in U3 and "w" not in U3
        with pytest.raises(UnknownObjectError):
            U3.index("w")

    def test_iteration_order_is_construction_order(self):
        assert list(Universe(("b", "a", "c"))) == ["b", "a", "c"]


class TestIVFuzzySet:
    def test_from_dict_checks_key_set(self):
        with pytest.raises(UnknownObjectError):
            IVFuzzySet.from_dict(U3, {"x": iv("[0,1]")})
        with pytest.raises(UnknownObjectError):
            fuzzy(U3, x="[0,1]", y="[0,1]", z="[0,1]", w="[0,1]")

    def test_grade_lookup(self):
        f = fuzzy(U3, x="[0.1,0.2]", y="[0.3,0.4]", z="[0.5,0.6]")
        assert f.grade("y") == iv("[0.3,0.4]")
        assert f.at(2) == iv("[0.5,0.6]")

    def test_pointwise_ops_worked_example(self):
        f = fuzzy(U3, x="[0.2,0.8]", y="[0.3,0.6]", z="[0,1]")
        g = fuzzy(U3, x="[0.4,0.5]", y="[0.3,0.6]", z="[1,1]")
        assert f.intersect(g) == fuzzy(U3, x="[0.2,0.5]", y="[0.3,0.6]", z="[0,1]")
        assert f.union(g) == fuzzy(U3, x="[0.4,0.8]", y="[0.3,0.6]", z="[1,1]")
        assert f.complement() == fuzzy(U3, x="[0.2,0.8]", y="[0.4,0.7]", z="[0,1]")

    @given(fuzzy_sets(U3), fuzzy_sets(U3))
    def test_de_morgan(self, f, g):
        assert f.intersect(g).complement() == f.complement().union(g.complement())
        assert f.union(g).complement() == f.complement().intersect(g.complement())

    @given(fuzzy_sets(U3), fuzzy_sets(U3), fuzzy_sets(U3))
    def test_distributivity(self, f, g, h):
        assert f.intersect(g.union(h)) == f.intersect(g).union(f.intersect(h))

    @given(fuzzy_sets(U3), fuzzy_sets(U3))
    def test_subset_is_pointwise(self, f, g):
        assert f.is_subset(g) == all(
            f.grade(o).lo <= g.grade(o).lo and f.grade(o).hi <= g.grade(o).hi for o in U3
        )

    def test_subset_is_a_partial_order(self):
        f = fuzzy(U3, x="[0.2,0.8]", y="[0,0]", z="[0,0]")
        g = fuzzy(U3, x="[0.4,0.5]", y="[0,0]", z="[0,0]")
        assert not f.is_subset(g) and not g.is_subset(f)

    def test_top_bottom(self):
        assert IVFuzzySet.bottom(U3).is_subset(IVFuzzySet.top(U3))
        assert IVFuzzySet.top(U3).complement() == IVFuzzySet.bottom(U3)

    def test_cross_universe_operations_fail(self):
        other = IVFuzzySet.top(Universe(("a", "b", "c")))
        with pytest.raises(UniverseMismatchError):
            IVFuzzySet.top(U3).intersect(other)
        with pytest.raises(UniverseMismatchError):
            IVFuzzySet.top(U3).is_subset(other)

    def test_json_round_trip(self):
        f = fuzzy(U3, x="[0.1,1/3]", y="[0.3,0.4]", z="[0,1]")
        assert IVFuzzySet.from_json(f.to_json()) == f


class TestCrispSubset:
    def test_membership_validation(self):
        with pytest.raises(UnknownObjectError):
            CrispSubset.of(U3, ["w"])

    def test_set_algebra(self):
        a = CrispSubset.of(U3, ["x", "y"])
        b = CrispSubset.of(U3, ["y", "z"])
        assert a.union(b) == CrispSubset.full(U3)
        assert a.intersect(b) == CrispSubset.of(U3, ["y"])
        assert a.complement() == CrispSubset.of(U3, ["z"])
        assert CrispSubset.empty(U3).is_subset(a)
        assert a.sorted_members() == ("x", "y")

    def test_characteristic_embedding_commutes_with_algebra(self):
        a = CrispSubset.of(U3, ["x", "y"])
        b = CrispSubset.of(U3, ["y", "z"])
        assert a.union(b).to_fuzzy() == a.to_fuzzy().union(b.to_fuzzy())
        assert a.intersect(b).to_fuzzy() == a.to_fuzzy().intersect(b.to_fuzzy())
        assert a.complement().to_fuzzy() == a.to_fuzzy().complement()
        assert a.is_subset(b) == a.to_fuzzy().is_subset(b.to_fuzzy())

    def test_len_and_contains(self):
        a = CrispSubset.of(U3, ["x"])
        assert len(a) == 1 and "x" in a and "y" not in a
