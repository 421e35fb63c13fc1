"""Self-tests for the benchmark.  Run with:  python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _workload(name, seed, tmp_path):
    return wl.WORKLOADS[name](wl.import_betacover(SRC), seed, tmp_path)


def _swapped_fuzzy_upper(mods):
    """fuzzy_upper with the first grade of every result changed."""
    real = mods["betacover.approximations"].fuzzy_upper
    bc = mods["betacover"]

    def fuzzy_upper(space, kind, target, system=None):
        out = real(space, kind, target, system)
        first = bc.BOTTOM if out.grades[0] != bc.BOTTOM else bc.TOP
        return bc.IVFuzzySet(out.universe, (first,) + out.grades[1:])

    return fuzzy_upper


@pytest.mark.parametrize("name", ["oracle_xcheck", "cli_approximate"])
def test_swapped_operator_raises_failed_share(name, tmp_path, monkeypatch):
    workload = _workload(name, 3, tmp_path)
    control = workload.run(1.0)
    workload.check(control)
    assert control.attempted > 0 and control.failed == 0, control.problems

    approximations = workload.m["betacover.approximations"]
    monkeypatch.setattr(approximations, "fuzzy_upper", _swapped_fuzzy_upper(workload.m))
    swapped = workload.run(1.0)
    monkeypatch.undo()
    workload.check(swapped)
    assert swapped.failed > 0
    assert swapped.failed / swapped.attempted > control.failed / control.attempted


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    first = [_workload(name, 5, tmp_path).input_bytes(i) for i in range(4)]
    again = [_workload(name, 5, tmp_path).input_bytes(i) for i in range(4)]
    other = [_workload(name, 6, tmp_path).input_bytes(i) for i in range(4)]
    assert first == again
    assert first != other


# sha256 of the first eight operations' inputs at seed 5.  The inputs must
# not change from one commit to the next unless the benchmark itself is
# changed on purpose, and then this digest with it.
INPUT_DIGESTS = {
    "audit": "b44d96da820d29e53753f1a28cb1bd1e087496eef7cac2a6e177f68e5b014216",
    "cli_approximate": "2ff401f8afc62c94457962fd18bcf3574c6aa4c08b7aa14f0c26baff6210be43",
    "oracle_xcheck": "30b069c781878b92a1859d074fe87f1f873d6f2d1fcf6155832d154c0f0b4823",
}


def _digest(workload):
    h = hashlib.sha256()
    for i in range(8):
        h.update(workload.input_bytes(i))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_are_pinned(name, tmp_path):
    assert _digest(_workload(name, 5, tmp_path)) == INPUT_DIGESTS[name]


@pytest.mark.parametrize("name", ["oracle_xcheck", "cli_approximate"])
def test_inputs_do_not_use_betacover_generate_or_serialize(name, tmp_path, monkeypatch):
    workload = _workload(name, 5, tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("the benchmark drew its inputs with betacover's own code")

    for module in ("betacover.generate", "betacover.serialize"):
        for attr, value in vars(workload.m[module]).items():
            if callable(value) and getattr(value, "__module__", None) == module:
                monkeypatch.setattr(workload.m[module], attr, refuse)
    assert _digest(workload) == INPUT_DIGESTS[name]
    workload.make(0)


@pytest.mark.parametrize("name,seconds", [("audit", 8.0), ("cli_approximate", 2.0)])
def test_span_self_times_fit_in_the_traced_wall(name, seconds):
    # Each half of the run must reach both operation classes.
    result, _, tracer, phases = bench.run(name, 7, seconds, 1, SRC)
    assert result["correct"], result
    selfs = tracing.self_times(tracer.spans)
    assert tracer.spans
    # Children lie inside their parent; allow only float rounding below 0.
    assert min(selfs) >= -1e-9
    assert sum(selfs) <= phases[-1].wall


def test_untraced_run_reports_every_end_to_end_metric():
    spec = bench.json.loads((HERE.parent / "BENCHMARK.json").read_text())
    result, _, _, _ = bench.run("oracle_xcheck", 1, 1.0, 0, SRC)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
