"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line.  Everything is exact arithmetic;
there are no tolerances anywhere.
"""

import random
from fractions import Fraction

from betacover import (
    GenConfig,
    IVFuzzySet,
    IntervalValue,
    NeighborhoodSystem,
    crisp_lower,
    crisp_of,
    crisp_upper,
    fuzzy_lower,
    fuzzy_upper,
    gen_space,
    exhaustive_spaces,
    replay,
    run_audit,
)
from betacover.audit import FAIL
from betacover.cli import run_cli
from betacover.generate import sample_crisp_subset, sample_fuzzy_set
from betacover.oracle import (
    oracle_crisp_lower,
    oracle_crisp_tables,
    oracle_crisp_upper,
    oracle_fuzzy_lower,
    oracle_fuzzy_tables,
    oracle_fuzzy_upper,
    scalar_crisp_lower1,
    scalar_crisp_upper1,
    scalar_fuzzy_neighborhood,
    scalar_lower1,
    scalar_upper1,
)
from betacover.serialize import parse_space, serialize_space, space_to_doc

from conftest import iv


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_worked_example_reproduction(gap_space):
    ns = NeighborhoodSystem(gap_space)
    nx = ns.fuzzy_neighborhood("x")
    ny = ns.fuzzy_neighborhood("y")
    ok = (
        gap_space.beta == iv("[0.5,0.6]")
        and nx.grade("z") == iv("[0.3,0.6]")
        and ny.grade("z") == iv("[0.5,0.55]")
        and nx.union(ny).grade("z") == iv("[0.5,0.6]")
        and "z" not in ns.crisp_neighborhood("x")
        and "z" not in ns.crisp_neighborhood("y")
        and "z" in crisp_of(nx.union(ny), gap_space.beta)
    )
    report(1, "worked neighborhood example reproduced exactly", ok)


def test_criterion_2_full_registry_audit():
    configs = [
        GenConfig(universe_size=4, parameter_count=3, grid_denominator=10, seed=101),
        GenConfig(universe_size=6, parameter_count=5, grid_denominator=20, seed=202),
    ]
    total_failures = {}
    skips = {}
    wall = 0.0
    trials = 0
    for cfg in configs:
        rep = run_audit(cfg, trials=500)
        wall += rep.wall_time
        trials += rep.trials
        for tid, s in rep.stats.items():
            if s.status != "law":
                continue
            if s.failures:
                total_failures[tid] = total_failures.get(tid, 0) + s.failures
            if s.skips:
                skips[tid] = skips.get(tid, 0) + s.skips
    detail = (
        f"{trials} trials, {wall:.1f}s, skips on {sorted(skips)}; "
        f"law failures: {total_failures or 'none'}"
    )
    ok = not total_failures and wall < 60
    report(2, "full-registry audit has zero law failures in under 60s", ok, detail)


def _dual_route_check(space, rng, grid):
    ns = NeighborhoodSystem(space)
    ftab = oracle_fuzzy_tables(space)
    ctab = ftab.crisp()
    for o in space.universe:
        assert ns.fuzzy_neighborhood(o) == ftab[0][o]
        assert ns.complementary_fuzzy_neighborhood(o) == ftab[1][o]
        assert ns.crisp_neighborhood(o) == ctab[0][o]
        assert ns.complementary_crisp_neighborhood(o) == ctab[1][o]
    fx = sample_fuzzy_set(space.universe, rng, grid)
    cx = sample_crisp_subset(space.universe, rng)
    for kind in (1, 2, 3, 4):
        assert fuzzy_lower(space, kind, fx, ns) == oracle_fuzzy_lower(
            space, kind, fx, tables=ftab
        )
        assert fuzzy_upper(space, kind, fx, ns) == oracle_fuzzy_upper(
            space, kind, fx, tables=ftab
        )
        assert crisp_lower(space, kind, cx, ns) == oracle_crisp_lower(
            space, kind, cx, tables=ctab
        )
        assert crisp_upper(space, kind, cx, ns) == oracle_crisp_upper(
            space, kind, cx, tables=ctab
        )


def test_criterion_3_oracle_equivalence_exhaustive_and_random():
    rng = random.Random("acceptance-oracle")
    count = 0
    for space in exhaustive_spaces(3, 2, 2):
        _dual_route_check(space, rng, 2)
        count += 1
    random_count = 0
    for seed in range(500):
        size = 4 + seed % 3  # universes of 4, 5, 6 objects
        space = gen_space(
            GenConfig(universe_size=size, parameter_count=3, grid_denominator=10, seed=seed)
        )
        _dual_route_check(space, rng, 10)
        random_count += 1
    report(
        3,
        "optimized path equals definition-literal oracle",
        count > 100_000 and random_count == 500,
        f"{count} exhaustive spaces + {random_count} random instances",
    )


def test_criterion_4_strictness_witnesses_found():
    cfg = GenConfig(universe_size=3, parameter_count=3, grid_denominator=20, seed=77)
    rep = run_audit(cfg, theorems=["W-UNION-STRICT", "W-LOWER-STRICT"], trials=1000)
    union_hits = rep.stats["W-UNION-STRICT"].passes
    lower_hits = rep.stats["W-LOWER-STRICT"].passes
    report(
        4,
        "strict-inclusion witnesses found within 1000 trials",
        union_hits >= 1 and lower_hits >= 1,
        f"crisp-union witnesses: {union_hits}, fuzzy-lower witnesses: {lower_hits}",
    )


def test_criterion_5_degenerate_interval_reduction():
    from betacover import SoftMapping, SoftSpace, Universe
    from betacover.space import build_space

    rng = random.Random("degenerate-reduction")
    checked = 0
    attempts = 0
    while checked < 200 and attempts < 2000:
        attempts += 1
        n = rng.randrange(2, 5)
        m = rng.randrange(2, 4)
        d = 10
        universe = Universe(tuple(f"x{i}" for i in range(1, n + 1)))
        params = [f"e{j}" for j in range(1, m + 1)]
        scalars = {
            p: {o: Fraction(rng.randrange(d + 1), d) for o in universe.objects}
            for p in params
        }
        beta_scalar = Fraction(rng.randrange(d + 1), d)
        table = {
            p: {o: IntervalValue.of(v, v) for o, v in row.items()}
            for p, row in scalars.items()
        }
        mapping = SoftMapping.from_dict(universe, table)
        beta = IntervalValue.of(beta_scalar, beta_scalar)
        try:
            space = build_space(mapping, beta, "strict")
        except Exception:
            continue
        ns = NeighborhoodSystem(space)
        for o in universe:
            expected = scalar_fuzzy_neighborhood(scalars, beta_scalar, o)
            got = ns.fuzzy_neighborhood(o)
            assert all(
                got.grade(y) == IntervalValue.of(expected[y], expected[y]) for y in universe
            ), "fuzzy neighborhood does not reduce to the scalar case"
        target_scalar = {o: Fraction(rng.randrange(d + 1), d) for o in universe.objects}
        target = IVFuzzySet.from_dict(
            universe, {o: IntervalValue.of(v, v) for o, v in target_scalar.items()}
        )
        low = fuzzy_lower(space, 1, target, ns)
        up = fuzzy_upper(space, 1, target, ns)
        slow = scalar_lower1(scalars, beta_scalar, target_scalar)
        sup = scalar_upper1(scalars, beta_scalar, target_scalar)
        assert all(low.grade(o) == IntervalValue.of(slow[o], slow[o]) for o in universe)
        assert all(up.grade(o) == IntervalValue.of(sup[o], sup[o]) for o in universe)
        members = {o for o in universe.objects if rng.random() < 0.5}
        from betacover import CrispSubset

        cx = CrispSubset.of(universe, members)
        assert crisp_lower(space, 1, cx, ns).members == frozenset(
            scalar_crisp_lower1(scalars, beta_scalar, members)
        )
        assert crisp_upper(space, 1, cx, ns).members == frozenset(
            scalar_crisp_upper1(scalars, beta_scalar, members)
        )
        checked += 1
    report(
        5,
        "degenerate intervals reduce to the scalar implementation",
        checked >= 200,
        f"{checked} instances",
    )


def test_criterion_6_determinism_and_round_trip(capsys):
    args = ["gen-random", "--size", "4,3", "--grid", "10", "--seed", "12345"]
    assert run_cli(args) == 0
    first = capsys.readouterr().out
    assert run_cli(args) == 0
    second = capsys.readouterr().out
    byte_identical = first == second

    round_trips = True
    for seed in range(25):
        space = gen_space(GenConfig(universe_size=4, parameter_count=3, seed=seed))
        text = serialize_space(space)
        if serialize_space(parse_space(text)) != text:
            round_trips = False
            break

    rep = run_audit(
        GenConfig(universe_size=4, parameter_count=3, seed=1),
        theorems=["REL-F1"],
        trials=60,
    )
    ce = rep.stats["REL-F1"].first_counterexample
    replays = ce is not None and replay(ce).outcome == FAIL

    report(
        6,
        "seeded generation is byte-identical; parse/serialize and replay are exact",
        byte_identical and round_trips and replays,
    )


def test_criterion_7_join_style_kernel_identities():
    rep = run_audit(
        GenConfig(universe_size=5, parameter_count=4, grid_denominator=10, seed=303),
        theorems=["REL-F3", "REL-F4", "REL-C3", "REL-C4"],
        trials=500,
    )
    failures = {t: s.failures for t, s in rep.stats.items() if s.failures}
    report(
        7,
        "kind-4 lower/upper equal the meet/join of kinds 1 and 2 on every trial",
        not failures,
        f"failures: {failures or 'none'}",
    )
