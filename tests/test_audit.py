import random
import re
from dataclasses import replace
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest

from betacover import (
    GenConfig,
    IntervalValue,
    IVFuzzySet,
    NeighborhoodSystem,
    UnknownTheoremError,
    all_theorem_ids,
    check,
    gen_space,
    replay,
    run_audit,
    sample_inputs,
    shrink_counterexample,
)
from betacover.audit import (
    _SHRINK_BUDGET,
    FAIL,
    PASS,
    REGISTRY,
    SKIP,
    CheckResult,
    TheoremSpec,
    TrialContext,
    _pass,
    _register,
    _shrink_candidates,
    inputs_from_doc,
    inputs_to_doc,
)
from betacover.serialize import parse_space_doc, space_to_doc
from betacover.space import SoftSpace

from conftest import iv, make_space


def make_inputs(space, seed="t", grid=10):
    return sample_inputs(NeighborhoodSystem(space), random.Random(seed), grid)


class TestRegistry:
    def test_registry_is_closed(self, derived_space):
        with pytest.raises(UnknownTheoremError):
            check("NO-SUCH-THEOREM", derived_space, make_inputs(derived_space))
        with pytest.raises(UnknownTheoremError):
            run_audit(GenConfig(seed=1), theorems=["NO-SUCH-THEOREM"], trials=1)

    def test_expected_id_families_present(self):
        ids = set(all_theorem_ids())
        assert {"L-FAM-1", "L-FAM-2", "L-FAM-3"} <= ids
        assert {"N-REFL", "N-TRANS", "N-MONO", "N-CONTAIN", "N-EQ"} <= ids
        assert {"CN-REFL", "CN-MEMB", "CN-TRANS", "CN-EQ"} <= ids
        assert {f"CN-LATTICE-{i}" for i in (1, 2, 3, 4)} <= ids
        assert {f"A{k}-P{p}" for k in (1, 2, 3, 4) for p in range(1, 9)} <= ids
        assert {f"CA{k}-P{p}" for k in (1, 2, 3, 4) for p in range(1, 8)} <= ids
        assert {f"REL-F{i}" for i in range(1, 9)} <= ids
        assert {f"REL-C{i}" for i in range(1, 9)} <= ids
        assert {"SANDWICH", "TWO-SPACE", "W-UNION-STRICT", "W-LOWER-STRICT"} <= ids
        assert len(ids) >= 40

    def test_statuses(self):
        assert REGISTRY["N-REFL"].status == "law"
        assert REGISTRY["CA1-P5"].status == "law"
        assert REGISTRY["CA3-P5"].status == "conjecture"
        assert REGISTRY["W-UNION-STRICT"].status == "witness"

    def test_unknown_status_is_rejected(self):
        # A statement passed where the status belongs fails loudly.
        with pytest.raises(ValueError):
            _register("NO-SUCH-LAW", "a statement", lambda ctx: _pass(), "x <= y")
        assert "NO-SUCH-LAW" not in REGISTRY


class TestCheck:
    def test_laws_pass_on_derived_space(self, derived_space):
        inputs = make_inputs(derived_space)
        for tid in ("N-REFL", "N-TRANS", "CN-MEMB", "CN-LATTICE-2", "A1-P2", "REL-C1"):
            assert check(tid, derived_space, inputs).outcome == PASS

    def test_kind3_fuzzy_composition_fails_where_predicted(self, kind3_gap_space, xyz):
        from conftest import fuzzy

        inputs = make_inputs(kind3_gap_space)
        from dataclasses import replace

        bad_x = fuzzy(xyz, x="[1,1]", y="[0,0]", z="[0,0]")
        inputs = replace(inputs, fuzzy_x=bad_x)
        assert check("REL-F1", kind3_gap_space, inputs).outcome == FAIL
        inputs_c = replace(inputs, fuzzy_x=bad_x.complement())
        assert check("REL-F2", kind3_gap_space, inputs_c).outcome == FAIL
        # the crisp analogues and the containment chains still hold here
        for tid in ("REL-C1", "REL-C2", "REL-F5", "REL-F6", "REL-F7", "REL-F8"):
            assert check(tid, kind3_gap_space, inputs).outcome == PASS

    def test_hypothesis_infeasible_skips(self, gap_space):
        # at x the diagonal is [0.6,0.7] -> feasible; force an unsatisfied target
        from dataclasses import replace

        from betacover import IVFuzzySet

        inputs = make_inputs(gap_space)
        bottom = IVFuzzySet.bottom(gap_space.universe)
        for tid in ("A1-P6", "A1-P7", "SANDWICH"):
            result = check(tid, gap_space, replace(inputs, hypothesis_x=bottom))
            assert result.outcome == SKIP
            assert "hypothesis" in result.reason

    def test_witness_found_on_gap_space(self, gap_space):
        inputs = make_inputs(gap_space)
        assert check("W-UNION-STRICT", gap_space, inputs).outcome == PASS


# Stand-in neighborhood systems over x, y, z with beta [0.5,0.5], each
# broken so that the named law fails: I and M reach beta, O does not.
I, M, O = iv("[1,1]"), iv("[0.6,0.6]"), iv("[0,0]")
FULL = 0b111
TOP_ROWS = ((I, I, I),) * 3
BROKEN_SYSTEMS = {
    # id: (fuzzy matrix, crisp bitmasks with bit j for object j, the objects the failure names)
    "N-REFL": (((I, I, I), (I, O, I), (I, I, I)), (FULL,) * 3, {"object": "y"}),
    "N-TRANS": (((I, I, O), (I, I, I), (I, I, I)), (FULL,) * 3, {"x": "x", "y": "y", "z": "z"}),
    # below the matrix the real space has at beta_low = beta, which is all [1,1]
    "N-MONO": (((I, I, I), (I, I, O), (I, I, I)), (FULL,) * 3, {"x": "y", "y": "z"}),
    "N-CONTAIN": (((I, I, M), (I, I, I), (I, I, I)), (FULL,) * 3, {"x": "x", "y": "y"}),
    "N-EQ": (((I, I, I), (O, I, I), (O, I, M)), (FULL,) * 3, {"x": "y", "y": "z"}),
    "CN-REFL": (TOP_ROWS, (FULL, 0b101, FULL), {"object": "y"}),
    "CN-MEMB": (TOP_ROWS, (0b011, FULL, FULL), {"x": "x", "y": "y"}),
    "CN-TRANS": (TOP_ROWS, (0b001, 0b110, 0b101), {"x": "y", "y": "z", "z": "x"}),
    "CN-EQ": (((I, I, I), (I, I, I), (I, I, M)), (FULL,) * 3, {"x": "x", "y": "z"}),
}


class TestEveryNeighborhoodLawCanFail:
    @pytest.fixture
    def space(self, xyz):
        return make_space(xyz.objects, {"e1": {o: "[1,1]" for o in xyz}}, "[0.5,0.5]")

    @pytest.mark.parametrize("theorem", sorted(BROKEN_SYSTEMS))
    def test_broken_system_fails_and_names_its_objects(self, theorem, space):
        matrix, crisp, names = BROKEN_SYSTEMS[theorem]
        stand_in = SimpleNamespace(
            space=space, matrix=matrix, crisp_sets=crisp, complementary_crisp_sets=crisp
        )
        inputs = replace(make_inputs(space), beta_low=space.beta)
        result = REGISTRY[theorem].checker(TrialContext(stand_in, inputs))
        assert result.outcome == FAIL
        assert result.detail == names

    def test_the_real_system_passes_every_law(self, space):
        inputs = replace(make_inputs(space), beta_low=space.beta)
        for theorem in BROKEN_SYSTEMS:
            assert check(theorem, space, inputs).outcome == PASS


class TestRunAudit:
    CFG = GenConfig(universe_size=3, parameter_count=3, grid_denominator=10, seed=11)

    def test_report_is_deterministic(self):
        ids = ["N-REFL", "A1-P3", "REL-C4", "CA2-P6"]
        doc1 = run_audit(self.CFG, theorems=ids, trials=40).to_doc()
        doc2 = run_audit(self.CFG, theorems=ids, trials=40).to_doc()
        doc1.pop("wall_time_seconds")
        doc2.pop("wall_time_seconds")
        assert doc1 == doc2

    def test_trial_counts_add_up(self):
        report = run_audit(self.CFG, theorems=["A1-P6"], trials=30)
        s = report.stats["A1-P6"]
        assert s.trials == 30
        assert s.passes + s.failures + s.skips == 30
        assert s.failures == 0

    def test_law_failure_produces_replayable_counterexample(self):
        report = run_audit(self.CFG, theorems=["REL-F1"], trials=60)
        stats = report.stats["REL-F1"]
        assert stats.failures > 0, "expected the kind-3 equality to fail somewhere"
        assert not report.ok and report.law_failures == ["REL-F1"]
        ce = stats.first_counterexample
        assert ce is not None
        assert replay(ce).outcome == FAIL

    def test_conjecture_failures_do_not_poison_ok(self):
        report = run_audit(
            GenConfig(universe_size=4, parameter_count=3, seed=5),
            theorems=["CA3-P5"],
            trials=200,
        )
        assert report.ok  # conjecture status: failures reported, not fatal
        assert report.stats["CA3-P5"].trials == 200

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            run_audit(self.CFG, trials=0)

    def test_a_repeated_id_is_checked_once(self):
        once = run_audit(GenConfig(seed=1), theorems=["N-REFL"], trials=5)
        twice = run_audit(GenConfig(seed=1), theorems=["N-REFL", "N-REFL"], trials=5)
        assert twice.to_doc()["theorems"] == once.to_doc()["theorems"]
        assert twice.stats["N-REFL"].trials == 5

    def test_an_empty_selection_is_refused(self):
        with pytest.raises(ValueError, match="no theorem selected"):
            run_audit(self.CFG, theorems=[], trials=3)


class TestTrialCosts:
    """What a trial must not spend: Fraction hashes, and detail text for a passing check."""

    def test_trials_hash_no_fraction(self, monkeypatch):
        calls = 0
        original = Fraction.__hash__

        def counting(value):
            nonlocal calls
            calls += 1
            return original(value)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        cfg = GenConfig(universe_size=6, parameter_count=5, grid_denominator=20, seed=202)
        report = run_audit(cfg, trials=20)
        assert report.stats["A1-P2"].trials == 20
        assert calls == 0
        hash(Fraction(1, 3))
        assert calls == 1  # the wrapper is the hash Python calls

    def test_trials_hash_no_interval_and_passing_checks_build_no_fuzzy_set(self, monkeypatch):
        counts = {"hash": 0, "built": 0}

        def counting(method, key):
            def wrapped(value):
                counts[key] += 1
                return method(value)

            return wrapped

        monkeypatch.setattr(IntervalValue, "__hash__", counting(IntervalValue.__hash__, "hash"))
        monkeypatch.setattr(
            IVFuzzySet, "__post_init__", counting(IVFuzzySet.__post_init__, "built")
        )
        in_passing = []

        def watched(checker, ctx):
            before = counts["built"]
            result = checker(ctx)
            if result.outcome == PASS:
                in_passing.append(counts["built"] - before)
            return result

        for theorem, spec in list(REGISTRY.items()):
            checker = partial(watched, spec.checker)
            monkeypatch.setitem(REGISTRY, theorem, replace(spec, checker=checker))
        cfg = GenConfig(universe_size=6, parameter_count=5, grid_denominator=20, seed=202)
        run_audit(cfg, trials=20)
        assert counts["hash"] == 0
        assert len(in_passing) > 1000 and sum(in_passing) == 0
        hash(IntervalValue.of(0, 0))
        assert counts["hash"] == 1  # the wrapper is the hash Python calls

    def test_memo_calls_and_hits_are_pinned(self, monkeypatch):
        # 100 trials of each criterion-2 config; a hit adds no memo entry.
        counts = {"calls": 0, "hits": 0}

        def counting(method):
            def wrapped(ctx, *args):
                before = len(ctx._memo)
                result = method(ctx, *args)
                counts["calls"] += 1
                counts["hits"] += len(ctx._memo) == before
                return result

            return wrapped

        for name in ("fl", "fu", "cl", "cu"):
            monkeypatch.setattr(TrialContext, name, counting(getattr(TrialContext, name)))
        run_audit(GenConfig(universe_size=4, parameter_count=3, grid_denominator=10, seed=101),
                  trials=100)
        run_audit(GenConfig(universe_size=6, parameter_count=5, grid_denominator=20, seed=202),
                  trials=100)
        assert counts == {"calls": 58897, "hits": 37402}

    def test_passing_set_checks_render_no_detail(self, monkeypatch, derived_space):
        ids = [t for t in all_theorem_ids() if re.match(r"(C?A\d-P|REL-)", t)]
        cases = [(derived_space, make_inputs(derived_space))]
        for seed in range(3):
            space = gen_space(GenConfig(universe_size=6, parameter_count=5, seed=seed))
            cases.append((space, make_inputs(space, seed=seed)))
        passing = [(t, *case) for case in cases for t in ids if check(t, *case).outcome == PASS]
        assert len(passing) > 3 * len(ids)

        def refuse(*args):
            raise AssertionError("a passing check rendered a detail")

        monkeypatch.setattr("betacover.audit.set_to_doc", refuse)
        monkeypatch.setattr(IntervalValue, "text", refuse)
        for theorem, space, inputs in passing:
            assert check(theorem, space, inputs).outcome == PASS


class TestInputsSerialization:
    def test_round_trip(self, derived_space):
        inputs = make_inputs(derived_space)
        doc = inputs_to_doc(inputs)
        back = inputs_from_doc(doc, derived_space.universe)
        assert inputs_to_doc(back) == doc
        assert back.fuzzy_x == inputs.fuzzy_x
        assert back.crisp_y == inputs.crisp_y
        assert back.beta_low == inputs.beta_low


class TestNeighborhoodMonotonicity:
    def test_skips_when_beta_low_is_not_below_beta(self, derived_space):
        from dataclasses import replace

        from betacover import TOP

        inputs = replace(make_inputs(derived_space), beta_low=TOP)
        assert check("N-MONO", derived_space, inputs).outcome == SKIP


class TestShrinking:
    def test_shrunk_instance_still_fails_and_is_no_larger(self, kind3_gap_space, xyz):
        from dataclasses import replace

        from conftest import fuzzy

        inputs = replace(
            make_inputs(kind3_gap_space),
            fuzzy_x=fuzzy(xyz, x="[1,1]", y="[0,0]", z="[0,0]"),
        )
        assert check("REL-F1", kind3_gap_space, inputs).outcome == FAIL
        space2, inputs2 = shrink_counterexample("REL-F1", kind3_gap_space, inputs)
        assert check("REL-F1", space2, inputs2).outcome == FAIL
        assert len(space2.universe) <= len(kind3_gap_space.universe)
        assert len(space2.parameters) <= len(kind3_gap_space.parameters)

    def test_a_long_first_pass_stops_at_the_budget(self, monkeypatch):
        space = gen_space(GenConfig(universe_size=14, parameter_count=10, seed=5))
        inputs = make_inputs(space)
        assert sum(1 for _ in _shrink_candidates(space, inputs)) > _SHRINK_BUDGET
        calls = 0

        def only_the_original_fails(ctx):
            nonlocal calls
            calls += 1
            original = ctx.space is space and ctx.inputs is inputs
            return CheckResult(FAIL) if original else _pass()

        stand_in = TheoremSpec("STAND-IN", "fails on one instance", "law", only_the_original_fails)
        monkeypatch.setitem(REGISTRY, "STAND-IN", stand_in)
        assert shrink_counterexample("STAND-IN", space, inputs) == (space, inputs)
        assert 0 < calls <= _SHRINK_BUDGET

    def test_shrunk_space_is_still_a_valid_covering(self):
        cfg = GenConfig(universe_size=5, parameter_count=4, seed=23)
        report = run_audit(cfg, theorems=["REL-F1"], trials=40)
        ce = report.stats["REL-F1"].first_counterexample
        assert ce is not None
        mapping, beta = parse_space_doc(ce["space"])
        SoftSpace(mapping, beta)  # would raise if the shrinker broke the covering


class TestGeneration:
    def test_same_seed_same_space(self):
        cfg = GenConfig(universe_size=4, parameter_count=3, seed=99)
        assert space_to_doc(gen_space(cfg)) == space_to_doc(gen_space(cfg))

    def test_unit_grid(self):
        space = gen_space(GenConfig(universe_size=3, parameter_count=2, grid_denominator=1, seed=4))
        texts = {
            space.mapping.set_for(p).grade(o).text()
            for p in space.parameters
            for o in space.universe
        }
        assert texts <= {"[0,0]", "[0,1]", "[1,1]"}

    def test_generated_spaces_always_cover(self):
        from betacover import validate_beta_covering

        for seed in range(20):
            space = gen_space(GenConfig(universe_size=4, parameter_count=2, seed=seed))
            assert validate_beta_covering(space.mapping, space.beta).ok
