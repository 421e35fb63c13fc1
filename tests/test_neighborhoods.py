import pytest

from betacover import (
    IVFuzzySet,
    Kind,
    NeighborhoodSystem,
    SoftSpace,
    Universe,
    UnknownObjectError,
    crisp_of,
)
from betacover.intervals import leq_bool
from betacover.oracle import (
    oracle_complementary_crisp_neighborhood,
    oracle_complementary_fuzzy_neighborhood,
    oracle_crisp_neighborhood,
    oracle_fuzzy_neighborhood,
)

from conftest import fuzzy, iv


class TestDerivedSpace:
    """Frozen values, computed by the definition-literal oracle first."""

    def test_fuzzy_neighborhoods(self, derived_space, xyz):
        ns = NeighborhoodSystem(derived_space)
        assert ns.fuzzy_neighborhood("x") == fuzzy(
            xyz, x="[0.5,0.7]", y="[0.4,0.6]", z="[0.3,0.6]"
        )
        assert ns.fuzzy_neighborhood("y") == fuzzy(
            xyz, x="[0.2,0.3]", y="[0.5,0.6]", z="[0.3,0.55]"
        )
        assert ns.fuzzy_neighborhood("z") == fuzzy(
            xyz, x="[0.5,0.8]", y="[0.4,0.9]", z="[0.7,0.8]"
        )
        assert ns.empty_index_objects == frozenset()

    def test_crisp_neighborhoods(self, derived_space):
        ns = NeighborhoodSystem(derived_space)
        assert ns.crisp_neighborhood("x").sorted_members() == ("x",)
        assert ns.crisp_neighborhood("y").sorted_members() == ("y",)
        assert ns.crisp_neighborhood("z").sorted_members() == ("x", "z")

    def test_complementary_fuzzy_is_the_transpose(self, derived_space, xyz):
        ns = NeighborhoodSystem(derived_space)
        assert ns.complementary_fuzzy_neighborhood("x") == fuzzy(
            xyz, x="[0.5,0.7]", y="[0.2,0.3]", z="[0.5,0.8]"
        )
        for a in xyz:
            for b in xyz:
                assert ns.complementary_fuzzy_neighborhood(a).grade(b) == (
                    ns.fuzzy_neighborhood(b).grade(a)
                )

    def test_complementary_crisp_matches_transposed_relation(self, derived_space, xyz):
        ns = NeighborhoodSystem(derived_space)
        assert ns.complementary_crisp_neighborhood("x").sorted_members() == ("x", "z")
        assert ns.complementary_crisp_neighborhood("y").sorted_members() == ("y",)
        assert ns.complementary_crisp_neighborhood("z").sorted_members() == ("z",)
        for a in xyz:
            for b in xyz:
                assert (b in ns.complementary_crisp_neighborhood(a)) == (
                    a in ns.crisp_neighborhood(b)
                )

    def test_agrees_with_oracle(self, derived_space, xyz):
        ns = NeighborhoodSystem(derived_space)
        for o in xyz:
            assert ns.fuzzy_neighborhood(o) == oracle_fuzzy_neighborhood(derived_space, o)
            assert ns.crisp_neighborhood(o) == oracle_crisp_neighborhood(derived_space, o)
            assert ns.complementary_fuzzy_neighborhood(
                o
            ) == oracle_complementary_fuzzy_neighborhood(derived_space, o)
            assert ns.complementary_crisp_neighborhood(
                o
            ) == oracle_complementary_crisp_neighborhood(derived_space, o)

    def test_reflexivity_and_diagonal(self, derived_space, xyz):
        ns = NeighborhoodSystem(derived_space)
        for o in xyz:
            assert leq_bool(derived_space.beta, ns.fuzzy_neighborhood(o).grade(o))
            assert o in ns.crisp_neighborhood(o)
            assert o in ns.complementary_crisp_neighborhood(o)


class TestMatrices:
    def test_matrix_and_crisp_sets_match_the_named_forms(self, derived_space, xyz):
        ns = NeighborhoodSystem(derived_space)
        for i, o in enumerate(xyz.objects):
            assert ns.matrix[i] == ns.fuzzy_neighborhood(o).grades
            crisp = {xyz.objects[j] for j in ns.crisp_sets[i]}
            assert crisp == ns.crisp_neighborhood(o).members
            co = {xyz.objects[j] for j in ns.complementary_crisp_sets[i]}
            assert co == ns.complementary_crisp_neighborhood(o).members

    def test_kernels_by_kind_or_number(self, derived_space):
        ns = NeighborhoodSystem(derived_space)
        n, m = ns.kernel(1), ns.kernel(2)
        assert n == ns.matrix
        assert m == tuple(zip(*n))
        meet = tuple(tuple(a.meet(b) for a, b in zip(r1, r2)) for r1, r2 in zip(n, m))
        join = tuple(tuple(a.join(b) for a, b in zip(r1, r2)) for r1, r2 in zip(n, m))
        assert ns.kernel(3) == meet and ns.kernel(4) == join
        for kind in Kind:
            assert ns.kernel(kind) is ns.kernel(kind.value)

    @pytest.mark.parametrize("kind", [0, 5, "3", None])
    def test_kernel_rejects_other_keys(self, derived_space, kind):
        with pytest.raises(ValueError):
            NeighborhoodSystem(derived_space).kernel(kind)


class TestEmptyIndexConvention:
    def test_convention_row_is_top_and_flagged(self, gap_space, xyz):
        ns = NeighborhoodSystem(gap_space)
        assert ns.empty_index_objects == frozenset({"z"})
        assert ns.fuzzy_neighborhood("z") == IVFuzzySet.top(xyz)
        assert ns.crisp_neighborhood("z").sorted_members() == ("x", "y", "z")

    def test_named_example_grades(self, gap_space, xyz):
        ns = NeighborhoodSystem(gap_space)
        nx, ny = ns.fuzzy_neighborhood("x"), ns.fuzzy_neighborhood("y")
        assert nx.grade("z") == iv("[0.3,0.6]")
        assert ny.grade("z") == iv("[0.5,0.55]")
        assert nx.union(ny).grade("z") == iv("[0.5,0.6]")

    def test_crisp_union_strictly_below_cut_of_fuzzy_union(self, gap_space, xyz):
        beta = gap_space.beta
        ns = NeighborhoodSystem(gap_space)
        nx, ny = ns.fuzzy_neighborhood("x"), ns.fuzzy_neighborhood("y")
        lhs = ns.crisp_neighborhood("x").union(ns.crisp_neighborhood("y"))
        rhs = crisp_of(nx.union(ny), beta)
        assert lhs.sorted_members() == ("x", "y")
        assert rhs.sorted_members() == ("x", "y", "z")
        assert lhs.is_subset(rhs) and lhs != rhs

    def test_theorems_survive_the_convention(self, gap_space, xyz):
        ns = NeighborhoodSystem(gap_space)
        beta = gap_space.beta
        for a in xyz:
            assert leq_bool(beta, ns.fuzzy_neighborhood(a).grade(a))
            for b in xyz:
                member = leq_bool(beta, ns.fuzzy_neighborhood(a).grade(b))
                contained = ns.fuzzy_neighborhood(b).is_subset(ns.fuzzy_neighborhood(a))
                assert member == contained


class TestCrispOf:
    def test_cut_of_arbitrary_set(self, xyz):
        g = fuzzy(xyz, x="[0.6,0.6]", y="[0.5,0.55]", z="[0,1]")
        assert crisp_of(g, iv("[0.5,0.6]")).sorted_members() == ("x",)
        assert crisp_of(g, iv("[0,0]")).sorted_members() == ("x", "y", "z")

    def test_unknown_object_lookup(self, derived_space):
        ns = NeighborhoodSystem(derived_space)
        with pytest.raises(UnknownObjectError):
            ns.fuzzy_neighborhood("w")


class TestIntersectionLattice:
    def test_crisp_intersection_equals_cut_of_fuzzy_intersection(self, derived_space, xyz):
        ns = NeighborhoodSystem(derived_space)
        beta = derived_space.beta
        for a in xyz:
            for b in xyz:
                lhs = ns.crisp_neighborhood(a).intersect(ns.crisp_neighborhood(b))
                rhs = crisp_of(
                    ns.fuzzy_neighborhood(a).intersect(ns.fuzzy_neighborhood(b)), beta
                )
                assert lhs == rhs
