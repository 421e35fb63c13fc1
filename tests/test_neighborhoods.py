import random

import pytest
from hypothesis import given, settings

from betacover import (
    CrispSubset,
    IVFuzzySet,
    Kind,
    NeighborhoodSystem,
    NotACoveringError,
    SoftMapping,
    SoftSpace,
    Universe,
    UnknownObjectError,
    approximate,
    build_space,
    crisp_of,
    fuzzy_lower,
    fuzzy_upper,
    neighborhoods,
)
from betacover.cli import run_cli
from betacover.generate import GenConfig, exhaustive_spaces, gen_space, grid_intervals, object_names
from betacover.intervals import join, leq_bool, meet
from betacover.neighborhoods import code_rows
from betacover.serialize import dumps, set_to_doc, space_to_doc
from betacover.oracle import (
    oracle_crisp_tables,
    oracle_fuzzy_tables,
)

from conftest import fuzzy, hostile_interval, iv, kernels, mixed_spaces


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
        fuzzy, crisp = oracle_fuzzy_tables(derived_space), oracle_crisp_tables(derived_space)
        for o in xyz:
            assert ns.fuzzy_neighborhood(o) == fuzzy[0][o]
            assert ns.crisp_neighborhood(o) == crisp[0][o]
            assert ns.complementary_fuzzy_neighborhood(o) == fuzzy[1][o]
            assert ns.complementary_crisp_neighborhood(o) == crisp[1][o]

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
            crisp = {y for j, y in enumerate(xyz.objects) if ns.crisp_sets[i] >> j & 1}
            assert crisp == ns.crisp_neighborhood(o).members
            co = {y for j, y in enumerate(xyz.objects) if ns.complementary_crisp_sets[i] >> j & 1}
            assert co == ns.complementary_crisp_neighborhood(o).members

    def test_kernels_by_kind_from_the_rows(self, derived_space, xyz):
        ns = NeighborhoodSystem(derived_space)
        n = ns.matrix
        m = tuple(ns.complementary_fuzzy_neighborhood(o).grades for o in xyz.objects)
        assert m == tuple(zip(*n))
        met = tuple(tuple(map(meet, r1, r2)) for r1, r2 in zip(n, m))
        joined = tuple(tuple(map(join, r1, r2)) for r1, r2 in zip(n, m))
        decoded = {
            kind: tuple(map(ns.codes.decode, *rows)) for kind, rows in kernels(ns.code_rows).items()
        }
        assert decoded == {1: n, 2: m, 3: met, 4: joined}

    # The operators pick a system's kernel by the kind they are given.
    def test_kernels_by_kind_or_number(self, derived_space, xyz):
        ns = NeighborhoodSystem(derived_space)
        targets = (
            fuzzy(xyz, x="[0.5,0.5]", y="[0.2,0.3]", z="[0.6,0.8]"),
            CrispSubset.of(xyz, ["x", "z"]),
        )
        for kind in Kind:
            for target in targets:
                pair = approximate(derived_space, kind, target, ns)
                assert pair.kind is kind
                assert pair == approximate(derived_space, kind.value, target, ns)

    @pytest.mark.parametrize("kind", [0, 5, "K3", None])
    def test_kernel_rejects_other_keys(self, derived_space, xyz, kind):
        ns = NeighborhoodSystem(derived_space)
        with pytest.raises(ValueError):
            approximate(derived_space, kind, CrispSubset.of(xyz, ["x"]), ns)

    @pytest.mark.parametrize("kind", [1.0, True, 2.0, 4.0])
    def test_kernels_reject_what_only_hashes_like_a_number(self, derived_space, xyz, kind):
        ns = NeighborhoodSystem(derived_space)
        with pytest.raises(ValueError):
            approximate(derived_space, kind, CrispSubset.of(xyz, ["x"]), ns)
        target = fuzzy(xyz, x="[0.5,0.5]", y="[0.2,0.3]", z="[0.6,0.8]")
        with pytest.raises(ValueError):
            approximate(derived_space, kind, target, ns)


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

    @settings(max_examples=100, deadline=1000)
    @given(mixed_spaces())
    def test_the_oracle_cut_equals_crisp_of_each_oracle_row(self, space):
        # The oracle cuts its scaled ints; crisp_of cuts the decoded rows.
        fuzzy_tables = oracle_fuzzy_tables(space)
        assert oracle_crisp_tables(space) == tuple(
            {x: crisp_of(table[x], space.beta) for x in space.universe} for table in fuzzy_tables
        )

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


def hostile_space(objects: int, parameters: int, seed: str) -> SoftSpace:
    """A space with one distinct odd 200-bit denominator per grade."""
    rng = random.Random(seed)
    u = Universe(tuple(f"x{i}" for i in range(objects)))
    table = {f"e{j}": {o: hostile_interval(rng) for o in u} for j in range(parameters)}
    return build_space(SoftMapping.from_dict(u, table), iv("[1/4,1/2]"), "repair:e0")


def assert_cuts_match_the_definition(space: SoftSpace):
    """The bitmasks from the per-parameter cuts against crisp_of and the oracle."""
    ns, u, beta = NeighborhoodSystem(space), space.universe, space.beta
    n = tuple(map(space.mapping.codes.decode, *code_rows(space.mapping, beta)))
    crisp, co = oracle_crisp_tables(space)
    sets = [CrispSubset.from_mask(u, mask) for mask in ns.crisp_sets]
    co_sets = [CrispSubset.from_mask(u, mask) for mask in ns.complementary_crisp_sets]
    assert sets == [crisp_of(IVFuzzySet(u, row), beta) for row in n] == [crisp[x] for x in u]
    assert co_sets == [crisp_of(IVFuzzySet(u, col), beta) for col in zip(*n)] == [co[x] for x in u]
    assert ns.empty_index_objects == {
        x for x in u if not any(leq_bool(beta, fs.grade(x)) for fs in space.mapping.assignment)
    }


class TestCutIdentity:
    """A beta-cut of a meet is the intersection of the cuts.

    The crisp bitmasks are built from one cut per parameter, never from the
    fuzzy rows; these check them against the cuts of the rows and columns
    and against the definition-literal oracle.
    """

    def test_on_every_small_space(self):
        count = 0
        for space in exhaustive_spaces(2, 2, 2):
            assert_cuts_match_the_definition(space)
            count += 1
        assert count == 4846

    @pytest.mark.parametrize("seed", range(40))
    def test_on_random_spaces(self, seed):
        size = (1 + seed % 7, 1 + seed % 5)
        assert_cuts_match_the_definition(
            gen_space(GenConfig(*size, grid_denominator=(4, 10, 20)[seed % 3], seed=seed))
        )

    def test_on_hostile_denominators(self):
        assert_cuts_match_the_definition(hostile_space(12, 4, "cut-identity"))

    def test_on_a_beta_the_table_does_not_number(self):
        # Thirds on grid-20 spaces: beta is placed among the mapping's codes,
        # never added to them.
        thirds = grid_intervals(3)
        off_table = 0
        for seed in range(12):
            mapping = gen_space(GenConfig(6, 5, grid_denominator=20, seed=seed)).mapping
            for beta in thirds:
                try:
                    space = SoftSpace(mapping, beta)
                except NotACoveringError:
                    continue
                off_table += not {beta.lo, beta.hi} <= set(mapping.codes.points)
                assert_cuts_match_the_definition(space)
                fuzzy_tables = oracle_fuzzy_tables(space)
                expected = tuple(fuzzy_tables[0][x].grades for x in space.universe)
                n = tuple(map(mapping.codes.decode, *code_rows(mapping, beta)))
                assert n == expected == NeighborhoodSystem(space).matrix
        assert off_table >= 20


class TestFuzzyRowsOnDemand:
    """The fuzzy rows are built once, for the matrix readers; no operator builds them.

    The operators read level cuts instead, built once per code table.
    """

    @pytest.fixture
    def row_builds(self, monkeypatch):
        calls = []
        real = neighborhoods.code_rows

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(neighborhoods, "code_rows", counted)
        return calls

    def test_library_requests(self, derived_space, xyz, row_builds):
        crisp_target = CrispSubset.of(xyz, ["x", "z"])
        for kind in Kind:
            approximate(derived_space, kind, crisp_target)
        assert len(row_builds) == 0
        ns = NeighborhoodSystem(derived_space)
        for kind in Kind:
            approximate(derived_space, kind, crisp_target, ns)
            ns.crisp_neighborhood("x"), ns.complementary_crisp_neighborhood("y")
        assert len(row_builds) == 0
        fuzzy_target = fuzzy(xyz, x="[0.5,0.5]", y="[0.2,0.3]", z="[0.6,0.8]")
        for kind in Kind:
            approximate(derived_space, kind, fuzzy_target, ns)
            kernels(ns.code_rows)[kind.value]
        ns.matrix, ns.fuzzy_neighborhood("x"), ns.complementary_fuzzy_neighborhood("z")
        assert len(row_builds) == 1
        approximate(derived_space, 3, fuzzy_target)
        assert len(row_builds) == 1

    @pytest.mark.parametrize("kind", ["1", "3", "4"])
    def test_cli_requests(self, tmp_path, row_builds, kind):
        space = tmp_path / "space.json"
        space.write_text(dumps(space_to_doc(gen_space(GenConfig(8, 4, 20, seed=5)))))
        crisp_set, fuzzy_set = tmp_path / "crisp.json", tmp_path / "fuzzy.json"
        crisp_set.write_text('{"mode":"crisp","members":["x1","x4","x5"]}')
        fuzzy_set.write_text(dumps(set_to_doc(IVFuzzySet.top(Universe(tuple(object_names(8)))))))
        argv = ["approximate", str(space), "--kind", kind, "--mode"]
        assert run_cli([*argv, "crisp", "--set", str(crisp_set)]) == 0
        assert len(row_builds) == 0
        assert run_cli([*argv, "fuzzy", "--set", str(fuzzy_set)]) == 0
        assert len(row_builds) == 0

    @pytest.fixture
    def table_builds(self, monkeypatch):
        calls = []

        class Counted(neighborhoods.LevelCuts):
            def __init__(self, *args):
                calls.append(args)
                super().__init__(*args)

        monkeypatch.setattr(neighborhoods, "LevelCuts", Counted)
        return calls

    def test_one_level_table_per_code_table(self, derived_space, xyz, row_builds, table_builds):
        ns = NeighborhoodSystem(derived_space)
        for kind in Kind:
            approximate(derived_space, kind, CrispSubset.of(xyz, ["x", "z"]), ns)
        assert len(table_builds) == 0
        own = fuzzy(xyz, x="[0.5,0.5]", y="[0.2,0.3]", z="[0.6,0.8]")
        # 1/7 is no endpoint of the space, so this target widens the codes.
        finer = fuzzy(xyz, x="[1/7,1/2]", y="[0.2,0.3]", z="[0.6,6/7]")
        for target, builds in ((own, 1), (finer, 2)):
            for kind in Kind:
                fuzzy_lower(derived_space, kind, target, ns)
                fuzzy_upper(derived_space, kind, target, ns)
            assert len(table_builds) == builds
        assert ns.target_codes(finer)[0].codes is not ns.codes
        # Back on the space's codes, the first table serves again.
        fuzzy_upper(derived_space, 2, own, ns)
        assert len(table_builds) == 2 and ns.target_codes(own)[0] is ns.encode(own.grades)[0]
        assert len(row_builds) == 0
