import random

import pytest

from betacover import (
    CrispSubset,
    GenConfig,
    IVFuzzySet,
    Kind,
    NeighborhoodSystem,
    Universe,
    UniverseMismatchError,
    approximate,
    crisp_lower,
    crisp_upper,
    fuzzy_lower,
    fuzzy_upper,
    gen_space,
    is_definable,
)
from betacover.generate import sample_crisp_subset, sample_fuzzy_set
from betacover.oracle import (
    oracle_crisp_lower,
    oracle_crisp_upper,
    oracle_fuzzy_lower,
    oracle_fuzzy_upper,
)

from conftest import fuzzy, iv


@pytest.fixture
def target(xyz):
    return fuzzy(xyz, x="[0.5,0.5]", y="[0.2,0.3]", z="[0.6,0.8]")


class TestKindPlumbing:
    def test_kind_coercion(self):
        assert Kind.of(3) is Kind.K3
        assert Kind.of("2") is Kind.K2
        assert Kind.of(Kind.K1) is Kind.K1
        with pytest.raises(ValueError):
            Kind.of(5)

    def test_universe_mismatch(self, derived_space):
        other = IVFuzzySet.top(Universe(("a", "b")))
        with pytest.raises(UniverseMismatchError):
            fuzzy_lower(derived_space, 1, other)
        with pytest.raises(UniverseMismatchError):
            crisp_upper(derived_space, 1, CrispSubset.full(Universe(("a", "b"))))


class TestFrozenFuzzyValues:
    """Oracle-computed values on the derived space, frozen before optimizing."""

    def test_kind1(self, derived_space, xyz, target):
        assert fuzzy_lower(derived_space, 1, target) == fuzzy(
            xyz, x="[0.4,0.5]", y="[0.4,0.5]", z="[0.2,0.5]"
        )
        assert fuzzy_upper(derived_space, 1, target) == fuzzy(
            xyz, x="[0.5,0.6]", y="[0.3,0.55]", z="[0.6,0.8]"
        )

    def test_kind2(self, derived_space, xyz, target):
        assert fuzzy_lower(derived_space, 2, target) == fuzzy(
            xyz, x="[0.5,0.5]", y="[0.4,0.5]", z="[0.45,0.7]"
        )
        assert fuzzy_upper(derived_space, 2, target) == fuzzy(
            xyz, x="[0.5,0.8]", y="[0.4,0.8]", z="[0.6,0.8]"
        )

    def test_kind3(self, derived_space, xyz, target):
        assert fuzzy_lower(derived_space, 3, target) == fuzzy(
            xyz, x="[0.5,0.5]", y="[0.4,0.5]", z="[0.45,0.7]"
        )
        assert fuzzy_upper(derived_space, 3, target) == fuzzy(
            xyz, x="[0.5,0.6]", y="[0.3,0.55]", z="[0.6,0.8]"
        )

    def test_kind4(self, derived_space, xyz, target):
        assert fuzzy_lower(derived_space, 4, target) == fuzzy(
            xyz, x="[0.4,0.5]", y="[0.4,0.5]", z="[0.2,0.5]"
        )
        assert fuzzy_upper(derived_space, 4, target) == fuzzy(
            xyz, x="[0.5,0.8]", y="[0.4,0.8]", z="[0.6,0.8]"
        )


class TestFrozenCrispValues:
    @pytest.mark.parametrize("members", [("x", "z"), ("y",)])
    @pytest.mark.parametrize("kind", [1, 2, 3, 4])
    def test_singleton_neighborhoods_make_targets_definable(
        self, derived_space, xyz, members, kind
    ):
        target = CrispSubset.of(xyz, members)
        assert crisp_lower(derived_space, kind, target) == target
        assert crisp_upper(derived_space, kind, target) == target
        assert is_definable(derived_space, kind, target)


class TestKind4Precedence:
    """The join-style kernels parenthesize so these identities are exact."""

    def test_on_derived_space(self, derived_space, target):
        l1 = fuzzy_lower(derived_space, 1, target)
        l2 = fuzzy_lower(derived_space, 2, target)
        u1 = fuzzy_upper(derived_space, 1, target)
        u2 = fuzzy_upper(derived_space, 2, target)
        assert fuzzy_lower(derived_space, 4, target) == l1.intersect(l2)
        assert fuzzy_upper(derived_space, 4, target) == u1.union(u2)

    def test_on_random_spaces(self):
        rng = random.Random("kind4-precedence")
        for seed in range(40):
            space = gen_space(GenConfig(universe_size=4, parameter_count=3, seed=seed))
            x = sample_fuzzy_set(space.universe, rng, 10)
            l1 = fuzzy_lower(space, 1, x)
            l2 = fuzzy_lower(space, 2, x)
            assert fuzzy_lower(space, 4, x) == l1.intersect(l2)
            u1 = fuzzy_upper(space, 1, x)
            u2 = fuzzy_upper(space, 2, x)
            assert fuzzy_upper(space, 4, x) == u1.union(u2)


class TestKind3Composition:
    """Only the containment half of the kind-3 composition claims is a law.

    The equalities lower3 = lower1 union lower2 and
    upper3 = upper1 intersect upper2 fail on concrete spaces; the
    kind3_gap_space fixture is a minimal refutation.
    """

    def test_containments_always_hold(self, kind3_gap_space, derived_space):
        for space in (kind3_gap_space, derived_space):
            u = space.universe
            x = sample_fuzzy_set(u, random.Random("k3"), 10)
            l1, l2, l3 = (fuzzy_lower(space, k, x) for k in (1, 2, 3))
            assert l1.union(l2).is_subset(l3)
            u1, u2, u3 = (fuzzy_upper(space, k, x) for k in (1, 2, 3))
            assert u3.is_subset(u1.intersect(u2))

    def test_equality_fails_on_the_gap_space(self, kind3_gap_space, xyz):
        x = fuzzy(xyz, x="[1,1]", y="[0,0]", z="[0,0]")
        l1 = fuzzy_lower(kind3_gap_space, 1, x)
        l2 = fuzzy_lower(kind3_gap_space, 2, x)
        l3 = fuzzy_lower(kind3_gap_space, 3, x)
        assert l1.grade("x") == iv("[0,0]")
        assert l2.grade("x") == iv("[0,0]")
        assert l3.grade("x") == iv("[1,1]")
        assert l3 != l1.union(l2)
        xc = x.complement()
        u1 = fuzzy_upper(kind3_gap_space, 1, xc)
        u2 = fuzzy_upper(kind3_gap_space, 2, xc)
        u3 = fuzzy_upper(kind3_gap_space, 3, xc)
        assert u3 != u1.intersect(u2)

    def test_crisp_composition_identities_hold(self, kind3_gap_space):
        # Unlike the fuzzy case, the crisp comprehensions compose exactly.
        u = kind3_gap_space.universe
        for members in (("x",), ("x", "y"), ("z",), ()):
            x = CrispSubset.of(u, members)
            l1, l2, l3 = (crisp_lower(kind3_gap_space, k, x) for k in (1, 2, 3))
            assert l3 == l1.union(l2)
            u1, u2, u3 = (crisp_upper(kind3_gap_space, k, x) for k in (1, 2, 3))
            assert u3 == u1.intersect(u2)


class TestAgainstOracle:
    def test_random_spaces_match_definition_literal_path(self):
        rng = random.Random("approx-oracle")
        for seed in range(25):
            space = gen_space(GenConfig(universe_size=4, parameter_count=3, seed=seed))
            ns = NeighborhoodSystem(space)
            fx = sample_fuzzy_set(space.universe, rng, 10)
            cx = sample_crisp_subset(space.universe, rng)
            for kind in (1, 2, 3, 4):
                assert fuzzy_lower(space, kind, fx, ns) == oracle_fuzzy_lower(space, kind, fx)
                assert fuzzy_upper(space, kind, fx, ns) == oracle_fuzzy_upper(space, kind, fx)
                assert crisp_lower(space, kind, cx, ns) == oracle_crisp_lower(space, kind, cx)
                assert crisp_upper(space, kind, cx, ns) == oracle_crisp_upper(space, kind, cx)


class TestApproximatePair:
    def test_fuzzy_pair(self, derived_space, target):
        pair = approximate(derived_space, 3, target)
        assert pair.mode == "fuzzy" and pair.kind is Kind.K3
        assert pair.lower == fuzzy_lower(derived_space, 3, target)
        assert pair.upper == fuzzy_upper(derived_space, 3, target)
        assert pair.definable == (pair.lower == pair.upper)
        assert not pair.definable

    def test_crisp_pair_and_definability(self, derived_space, xyz):
        full = CrispSubset.full(xyz)
        pair = approximate(derived_space, 1, full)
        assert pair.mode == "crisp"
        assert pair.lower == full and pair.upper == full and pair.definable

    def test_shared_system_reuse(self, derived_space, target):
        ns = NeighborhoodSystem(derived_space)
        assert approximate(derived_space, 2, target, ns).lower == fuzzy_lower(
            derived_space, 2, target
        )
