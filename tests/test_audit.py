import random

import pytest

from betacover import (
    GenConfig,
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
    FAIL,
    PASS,
    REGISTRY,
    SKIP,
    _pass,
    _register,
    inputs_from_doc,
    inputs_to_doc,
)
from betacover.serialize import parse_space_doc, space_to_doc
from betacover.space import SoftSpace


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


class TestInputsSerialization:
    def test_round_trip(self, derived_space):
        inputs = make_inputs(derived_space)
        doc = inputs_to_doc(inputs)
        back = inputs_from_doc(doc, derived_space.universe)
        assert inputs_to_doc(back) == doc
        assert back.fuzzy_x == inputs.fuzzy_x
        assert back.crisp_y == inputs.crisp_y
        assert back.beta_low == inputs.beta_low


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
