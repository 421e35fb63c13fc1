import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betacover import (
    CrispSubset,
    GenConfig,
    IntervalValue,
    IVFuzzySet,
    Kind,
    NeighborhoodSystem,
    SoftMapping,
    Universe,
    UniverseMismatchError,
    approximate,
    build_space,
    crisp_lower,
    crisp_upper,
    fuzzy_lower,
    fuzzy_upper,
    gen_space,
)
from betacover.approximations import fuzzy_on_codes
from betacover.generate import (
    exhaustive_spaces,
    grid_intervals,
    sample_crisp_subset,
    sample_fuzzy_set,
)
from betacover.oracle import (
    oracle_crisp_lower,
    oracle_crisp_tables,
    oracle_crisp_upper,
    oracle_fuzzy_lower,
    oracle_fuzzy_tables,
    oracle_fuzzy_upper,
)

from conftest import (
    endpoints,
    fuzzy,
    hostile_interval,
    iv,
    kernels,
    make_space,
    mixed_intervals,
    mixed_spaces,
)


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

    def test_kind_takes_only_a_kind_a_plain_int_or_its_string(self):
        numbers = (1, 2, 3, 4)
        assert list(map(Kind.of, numbers)) == list(map(Kind.of, map(str, numbers))) == list(Kind)
        # True hashes as 1 and 2.0 as 2; neither is a kind, nor is 1.5 truncated to one.
        for value in (1.5, 2.0, 1.0, True, False, 0, 5, "1.5", " 1", "K1", None):
            with pytest.raises(ValueError):
                Kind.of(value)

    def test_universe_mismatch(self, derived_space):
        other = IVFuzzySet.top(Universe(("a", "b")))
        with pytest.raises(UniverseMismatchError):
            fuzzy_lower(derived_space, 1, other)
        with pytest.raises(UniverseMismatchError):
            crisp_upper(derived_space, 1, CrispSubset.full(Universe(("a", "b"))))
        for operator in (oracle_fuzzy_lower, oracle_fuzzy_upper):
            with pytest.raises(UniverseMismatchError):
                operator(derived_space, 1, other)
        for operator in (oracle_crisp_lower, oracle_crisp_upper):
            with pytest.raises(UniverseMismatchError):
                operator(derived_space, 1, CrispSubset.full(Universe(("a", "b"))))


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
        assert approximate(derived_space, kind, target).definable


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

    @settings(max_examples=100, deadline=1000)
    @given(mixed_spaces(), st.data())
    def test_mixed_denominators_match_definition_literal_path(self, space, data):
        u = space.universe
        fx = IVFuzzySet(u, tuple(data.draw(mixed_intervals()) for _ in u))
        cx = CrispSubset.of(u, data.draw(st.sets(st.sampled_from(u.objects))))
        ns = NeighborhoodSystem(space)
        fuzzy_tables, crisp_tables = oracle_fuzzy_tables(space), oracle_crisp_tables(space)
        for kind in (1, 2, 3, 4):
            assert fuzzy_lower(space, kind, fx, ns) == oracle_fuzzy_lower(
                space, kind, fx, fuzzy_tables)
            assert fuzzy_upper(space, kind, fx, ns) == oracle_fuzzy_upper(
                space, kind, fx, fuzzy_tables)
            assert crisp_lower(space, kind, cx, ns) == oracle_crisp_lower(
                space, kind, cx, crisp_tables)
            assert crisp_upper(space, kind, cx, ns) == oracle_crisp_upper(
                space, kind, cx, crisp_tables)

    def test_the_oracle_rejects_tables_of_another_space(self):
        def space(seed):
            return gen_space(
                GenConfig(universe_size=3, parameter_count=2, grid_denominator=4, seed=seed)
            )

        own, other, twin = space(1), space(6), space(1)
        assert twin is not own
        x = IVFuzzySet(own.universe, (iv("[1/4,3/4]"),) * 3)
        # With the tables of seed 6, the kind-1 upper approximation read [1/4,1/2] everywhere.
        assert oracle_fuzzy_upper(own, 1, x).grades == (iv("[1/4,3/4]"),) * 3
        for operator in (oracle_fuzzy_lower, oracle_fuzzy_upper):
            with pytest.raises(ValueError, match="different space"):
                operator(own, 1, x, oracle_fuzzy_tables(other))
            # An equal space that is another object is the same space.
            assert operator(own, 1, x, oracle_fuzzy_tables(twin)) == operator(own, 1, x)
        with pytest.raises(ValueError, match="different space"):
            fuzzy_upper(own, 1, x, NeighborhoodSystem(other))
        # The crisp tables carry their space too.  With the tables of seed 4,
        # the kind-1 lower approximation of {x3} on seed 1 read {x3}.
        a, b = gen_space(GenConfig(3, 2, seed=1)), gen_space(GenConfig(3, 2, seed=4))
        x3 = CrispSubset.of(a.universe, ["x3"])
        assert oracle_crisp_lower(a, 1, x3).members == frozenset()
        for operator in (oracle_crisp_lower, oracle_crisp_upper):
            with pytest.raises(ValueError, match="different space"):
                operator(a, 1, x3, oracle_crisp_tables(b))
            twin = oracle_crisp_tables(gen_space(GenConfig(3, 2, seed=1)))
            assert operator(a, 1, x3, twin) == operator(a, 1, x3)
            # Tables that carry no space, such as a plain tuple, are taken as given.
            assert operator(a, 1, x3, tuple(twin)) == operator(a, 1, x3)


def assert_matches_oracle(space, ns, fx, cx):
    """The system's matrices and cuts, and all 16 operator results, equal the oracle's."""
    u = space.universe
    fuzzy_tables, crisp_tables = oracle_fuzzy_tables(space), oracle_crisp_tables(space)
    n = ns.matrix
    for kernel, table in zip((n, tuple(zip(*n))), fuzzy_tables):
        assert kernel == tuple(table[x].grades for x in u)
    for x in u:
        assert ns.crisp_neighborhood(x) == crisp_tables[0][x]
        assert ns.complementary_crisp_neighborhood(x) == crisp_tables[1][x]
    for kind in Kind:
        assert fuzzy_lower(space, kind, fx, ns) == oracle_fuzzy_lower(space, kind, fx, fuzzy_tables)
        assert fuzzy_upper(space, kind, fx, ns) == oracle_fuzzy_upper(space, kind, fx, fuzzy_tables)
        assert crisp_lower(space, kind, cx, ns) == oracle_crisp_lower(space, kind, cx, crisp_tables)
        assert crisp_upper(space, kind, cx, ns) == oracle_crisp_upper(space, kind, cx, crisp_tables)


def kernel_upper(ns: NeighborhoodSystem, codes, kind, target, lower: bool):
    """The operator by its definition on codes: per object, the join over y of K(x, y) meet X(y).

    The kernel is built from N's code rows (``conftest.kernels``), carried
    to ``codes`` (the space's or a widening of them) point by point; the
    lower operator is the complement of the upper one on the complement.
    """
    index = {p: k for k, p in enumerate(codes.points)}
    remap = [index[p] for p in ns.codes.points]
    kernel = kernels(ns.code_rows)[kind.value]
    kernel = [[[remap[c] for c in row] for row in half] for half in kernel]
    x = codes.complement(*target) if lower else target
    upper = tuple(tuple(max(map(min, row, t)) for row in half) for half, t in zip(kernel, x))
    return codes.complement(*upper) if lower else upper


def assert_level_cuts_match_the_kernel(space, targets):
    ns = NeighborhoodSystem(space)
    for target in targets:
        cuts, x = ns.target_codes(target)
        for kind in Kind:
            for lower in (False, True):
                expected = kernel_upper(ns, cuts.codes, kind, x, lower)
                assert fuzzy_on_codes(cuts, kind, x, lower) == expected, (kind, lower)


class TestLevelCutsMatchTheKernel:
    """The binary search on level cuts gives the join of the kernel meet the target."""

    def test_every_small_space(self):
        grid = grid_intervals(2)
        samples = {1: [(g,) for g in grid], 2: list(itertools.product(grid, repeat=2))[::9]}
        for space in exhaustive_spaces(2, 2, 2):
            u = space.universe
            assert_level_cuts_match_the_kernel(
                space, [IVFuzzySet(u, grades) for grades in samples[len(u)]]
            )

    def test_large_spaces(self):
        rng = random.Random("level-cuts-large")
        for seed in range(3):
            space = gen_space(GenConfig(60, 10, 20, seed=seed))
            targets = [sample_fuzzy_set(space.universe, rng, 20) for _ in range(2)]
            assert_level_cuts_match_the_kernel(space, targets)

    def test_an_empty_index_set(self, gap_space, xyz, target):
        assert NeighborhoodSystem(gap_space).empty_index_objects == {"z"}
        tops = fuzzy(xyz, x="[1,1]", y="[0,1]", z="[0.3,0.6]")
        assert_level_cuts_match_the_kernel(gap_space, [target, tops])

    def test_targets_that_widen_the_codes(self):
        rng = random.Random("level-cuts-widened")
        for seed in range(10):
            space = gen_space(GenConfig(8, 4, 10, seed=seed))
            targets = [sample_fuzzy_set(space.universe, rng, d) for d in (7, 40)]
            ns = NeighborhoodSystem(space)
            assert all(ns.target_codes(t)[0].codes is not ns.codes for t in targets)
            assert_level_cuts_match_the_kernel(space, targets)

    def test_hostile_grades(self):
        rng = random.Random("level-cuts-hostile")
        u = Universe(tuple(f"x{i}" for i in range(12)))
        table = {f"e{j}": {o: hostile_interval(rng) for o in u} for j in range(4)}
        space = build_space(SoftMapping.from_dict(u, table), iv("[1/4,1/2]"), "repair:e0")
        own = IVFuzzySet(u, tuple(space.mapping.assignment[1].grades[::-1]))
        fresh = IVFuzzySet(u, tuple(hostile_interval(rng) for _ in u))
        assert_level_cuts_match_the_kernel(space, [own, fresh])


class TestTargetMemos:
    """A system and oracle tables keep their last target, and serve it to no other target."""

    @settings(max_examples=100, deadline=None)
    @given(mixed_spaces(), st.data())
    def test_a_kept_target_is_never_served_for_another(self, space, data):
        u = space.universe
        x = IVFuzzySet(u, tuple(data.draw(mixed_intervals()) for _ in u))
        # No denominator of mixed_spaces is a multiple of 17, so an endpoint
        # k/17 is neither among the space's codes nor over its denominator.
        odd = Fraction(data.draw(st.integers(1, 16)), 17)
        y = IVFuzzySet(u, (
            IntervalValue(*sorted((odd, data.draw(endpoints)))),
            *(data.draw(mixed_intervals()) for _ in u.objects[1:]),
        ))
        twin = IVFuzzySet(u, x.grades)
        assert twin == x and twin is not x
        ns, tables = NeighborhoodSystem(space), oracle_fuzzy_tables(space)
        for target in (x, y, x, twin):
            fresh_ns, fresh_tables = NeighborhoodSystem(space), oracle_fuzzy_tables(space)
            for kind in Kind:
                for fast, oracle in (
                    (fuzzy_lower, oracle_fuzzy_lower), (fuzzy_upper, oracle_fuzzy_upper)
                ):
                    expected = fast(space, kind, target, fresh_ns)
                    assert fast(space, kind, target, ns) == expected
                    assert oracle(space, kind, target, fresh_tables) == expected
                    assert oracle(space, kind, target, tables) == expected
            if target is y:
                assert ns.target_codes(y)[0].codes is not ns.codes  # y widened the codes
                assert tables.scaled(y).d != tables.scale.d  # and a fold of its own

    def test_each_scale_keeps_its_own_results(self, xyz):
        # Over the space's D = 2 the int pair (1, 1) is [1/2,1/2]; over 6, on
        # which a target on sixths folds the rows again, it is [1/6,1/6].
        space = make_space(xyz.objects, {"e1": {o: "[1/2,1]" for o in xyz}}, "[1/2,1/2]")
        tables = oracle_fuzzy_tables(space)
        for text in ("[1/2,1/2]", "[1/6,1/6]", "[1/2,1/2]"):
            x = IVFuzzySet(xyz, (iv(text),) * 3)
            assert oracle_fuzzy_upper(space, 1, x, tables) == x


class TestEndpointCodes:
    def test_a_target_on_a_finer_grid_widens_the_codes(self, xyz):
        space = make_space(
            xyz.objects,
            {
                "e1": {"x": "[1/2,1]", "y": "[0,1/2]", "z": "[1/2,1/2]"},
                "e2": {"x": "[0,1/2]", "y": "[1/2,1]", "z": "[1,1]"},
                "e3": {"x": "[1/2,1/2]", "y": "[1/2,1/2]", "z": "[0,1/2]"},
            },
            "[1/2,1/2]",
        )
        ns = NeighborhoodSystem(space)
        assert ns.codes.points == (0, Fraction(1, 2), 1)
        fx = fuzzy(xyz, x="[1/3,2/3]", y="[0,1/3]", z="[2/3,1]")
        assert_matches_oracle(space, ns, fx, CrispSubset.of(xyz, ["x", "z"]))
        assert fuzzy_upper(space, 1, fx, ns).grade("x") == iv("[1/3,1/2]")

    def test_hostile_denominators_stay_exact_and_bounded(self):
        # One distinct odd 200-bit denominator per grade.  Scaling every
        # endpoint to a common denominator would carry 400 such factors in
        # each entry; codes stay small ints whatever the denominators.
        rng = random.Random("hostile-denominators")

        def grade():
            d = rng.getrandbits(200) | 1 << 199 | 1
            lo, hi = sorted((rng.randrange(d + 1), rng.randrange(d + 1)))
            return IntervalValue(Fraction(lo, d), Fraction(hi, d))

        u = Universe(tuple(f"x{i}" for i in range(40)))
        table = {f"e{j}": {o: grade() for o in u} for j in range(10)}
        space = build_space(SoftMapping.from_dict(u, table), iv("[1/4,1/2]"), "repair:e0")
        fx = IVFuzzySet(u, tuple(grade() for _ in u))
        cx = CrispSubset.of(u, [o for o in u if rng.random() < 0.5])
        start = time.perf_counter()
        ns = NeighborhoodSystem(space)
        for kind in Kind:
            fuzzy_lower(space, kind, fx, ns)
            fuzzy_upper(space, kind, fx, ns)
            crisp_lower(space, kind, cx, ns)
            crisp_upper(space, kind, cx, ns)
        assert time.perf_counter() - start < 5
        start = time.perf_counter()
        assert_matches_oracle(space, ns, fx, cx)
        assert time.perf_counter() - start < 5


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
