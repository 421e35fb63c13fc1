import contextlib
import csv
import io
import json
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betacover import (
    CrispSubset,
    DocumentError,
    IncompleteTableError,
    IntervalValue,
    IVFuzzySet,
    SoftMapping,
    SoftSpace,
    SpaceSyntaxError,
    Universe,
    parse_set,
    parse_space,
    serialize_set,
    serialize_space,
    serialize_space_csv,
)
from betacover import cli, intervals
from betacover.cli import run_cli
from betacover.intervals import MAX_DIGITS, MAX_EXPONENT
from betacover.serialize import (
    dumps,
    parse_set_doc,
    parse_space_csv,
    parse_space_doc,
    set_to_doc,
    space_to_doc,
)

from conftest import fuzzy, iv, mixed_intervals, mixed_spaces

SPACE_JSON = """{
  "universe": ["x", "y", "z"],
  "parameters": ["e1", "e2"],
  "beta": "[0.5,0.6]",
  "membership": {
    "e1": {"x": "[0.6,0.7]", "y": "[0.4,0.5]", "z": "[0.3,0.6]"},
    "e2": {"x": "[0.4,0.9]", "y": "[0.5,0.6]", "z": "[0.5,0.55]"}
  }
}"""


class TestSpaceDocuments:
    def test_parse_then_serialize_round_trip(self):
        space = parse_space(SPACE_JSON)
        again = parse_space(serialize_space(space))
        assert space_to_doc(again) == space_to_doc(space)

    def test_serialization_is_canonical(self):
        space = parse_space(SPACE_JSON)
        assert serialize_space(space) == serialize_space(parse_space(serialize_space(space)))

    def test_missing_cell_names_parameter_and_object(self):
        doc = json.loads(SPACE_JSON)
        del doc["membership"]["e2"]["z"]
        with pytest.raises(IncompleteTableError) as exc:
            parse_space_doc(doc)
        assert exc.value.parameter == "e2" and exc.value.object == "z"

    def test_bad_interval_literal_is_located(self):
        doc = json.loads(SPACE_JSON)
        doc["membership"]["e1"]["y"] = "[0.7,0.3]"
        with pytest.raises(SpaceSyntaxError) as exc:
            parse_space_doc(doc)
        assert "membership.e1.y" in str(exc.value)

    def test_each_distinct_literal_is_parsed_once_per_document(self, monkeypatch):
        doc = json.loads(SPACE_JSON)
        doc["membership"]["e2"] = dict(doc["membership"]["e1"])
        doc["beta"] = "[0.6,0.7]"
        texts = []
        parse = IntervalValue.parse

        def counted(text, endpoints=None):
            texts.append(text)
            return parse(text, endpoints)

        monkeypatch.setattr(IntervalValue, "parse", counted)
        mapping, beta = parse_space_doc(doc)
        assert sorted(texts) == ["[0.3,0.6]", "[0.4,0.5]", "[0.6,0.7]"]
        e1, e2 = mapping.assignment
        assert all(a is b for a, b in zip(e1.grades, e2.grades))
        assert beta is e1.grade("x")
        # the memo lives for one document: a second parse reads every literal again
        assert parse_space_doc(doc)[1] is not beta
        assert len(texts) == 6

        # and each distinct endpoint text goes once through parse_endpoint
        endpoints = []
        parse_endpoint = intervals.parse_endpoint

        def counted_endpoint(text):
            endpoints.append(text)
            return parse_endpoint(text)

        monkeypatch.setattr(intervals, "parse_endpoint", counted_endpoint)
        parse_space_doc(doc)
        assert sorted(endpoints) == ["0.3", "0.4", "0.5", "0.6", "0.7"]
        doc["membership"]["e1"] = {"x": "[0.5,1]", "y": "[1/2,1]", "z": "[5e-1,1/2]"}
        doc["beta"] = "[0.5,5e-1]"
        endpoints.clear()
        mapping, beta = parse_space_doc(doc)
        assert sorted(endpoints) == ["0.3", "0.4", "0.5", "0.6", "0.7", "1", "1/2", "5e-1"]
        e1 = mapping.assignment[0]
        assert e1.grade("x").lo == e1.grade("y").lo == e1.grade("z").lo == beta.hi
        csv_text = serialize_space_csv(parse_space(SPACE_JSON))
        endpoints.clear()
        parse_space_csv(csv_text)
        assert sorted(endpoints) == ["0.3", "0.4", "0.5", "0.55", "0.6", "0.7", "0.9"]
        endpoints.clear()
        set_doc = {"mode": "fuzzy", "grades": {"x": "[0.5,1]", "y": "[1/2,0.5]", "z": "[5e-1,1]"}}
        grades = parse_set_doc(set_doc, mapping.universe)
        assert sorted(endpoints) == ["0.5", "1", "1/2", "5e-1"]
        assert grades.grade("x").lo == grades.grade("y").hi == grades.grade("z").lo
        # a second document reads every endpoint again
        parse_set_doc(set_doc, mapping.universe)
        assert len(endpoints) == 8

    def test_unknown_keys_rejected(self):
        doc = json.loads(SPACE_JSON)
        doc["extra"] = 1
        with pytest.raises(SpaceSyntaxError):
            parse_space_doc(doc)

    def test_bad_beta_strict_policy(self):
        space = parse_space(SPACE_JSON, policy="strict")
        assert space.beta == iv("[0.5,0.6]")
        doc = json.loads(SPACE_JSON)
        doc["beta"] = "[0.9,0.9]"
        with pytest.raises(Exception) as exc:
            parse_space(json.dumps(doc), policy="strict")
        assert "beta-covering" in str(exc.value)

    def test_repair_policy_through_parse(self):
        doc = json.loads(SPACE_JSON)
        doc["beta"] = "[0.8,0.9]"
        space = parse_space(json.dumps(doc), policy="repair:e1")
        assert space.beta == iv("[0.8,0.9]")


class TestCsv:
    def test_round_trip_with_out_of_band_beta(self):
        space = parse_space(SPACE_JSON)
        text = serialize_space_csv(space)
        again = parse_space(text, fmt="csv", beta="[0.5,0.6]")
        assert space_to_doc(again) == space_to_doc(space)

    def test_csv_requires_beta(self):
        text = serialize_space_csv(parse_space(SPACE_JSON))
        with pytest.raises(SpaceSyntaxError):
            parse_space(text, fmt="csv")

    def test_header_validation(self):
        with pytest.raises(SpaceSyntaxError):
            parse_space_csv("thing,e1\nx,[0,1]\n")
        with pytest.raises(SpaceSyntaxError):
            parse_space_csv("object\nx\n")

    def test_oversized_field_rejected(self):
        with pytest.raises(SpaceSyntaxError):
            parse_space_csv('object,e1\nx,"' + "0" * 200000 + '"\n')

    def test_duplicate_parameters_rejected(self):
        with pytest.raises(SpaceSyntaxError) as exc:
            parse_space_csv('object,e1,e1\nx,"[0,1]","[1,1]"\n')
        assert str(exc.value) == "parameters must be nonempty and unique (at row 1)"

    def test_ragged_row_rejected(self):
        with pytest.raises(IncompleteTableError):
            parse_space_csv('object,e1,e2\nx,"[0,1]"\n')


class TestSetDocuments:
    def test_fuzzy_round_trip(self, xyz):
        f = fuzzy(xyz, x="[0.2,0.3]", y="[1/3,0.5]", z="[0,1]")
        assert parse_set(serialize_set(f), xyz) == f

    def test_crisp_round_trip(self, xyz):
        space = parse_space(SPACE_JSON)
        c = parse_set('{"mode":"crisp","members":["z","x"]}', space.universe)
        assert c.sorted_members() == ("x", "z")
        assert parse_set(serialize_set(c), space.universe) == c

    def test_unknown_member_rejected(self, xyz):
        with pytest.raises(SpaceSyntaxError):
            parse_set('{"mode":"crisp","members":["w"]}', xyz)

    def test_unknown_mode_rejected(self, xyz):
        with pytest.raises(SpaceSyntaxError):
            parse_set('{"mode":"rough","members":[]}', xyz)


def _space_with(**fields) -> str:
    doc = json.loads(SPACE_JSON)
    doc.update(fields)
    return json.dumps(doc)


# name: (document role, text, fragment the error message must carry)
HOSTILE_DOCUMENTS = {
    "universe-string": ("space", _space_with(universe="xyz"), "(at universe)"),
    "universe-nested": ("space", _space_with(universe=[["x"], "y", "z"]), "(at universe)"),
    "parameters-string": ("space", _space_with(parameters="e1"), "(at parameters)"),
    "parameters-nested": ("space", _space_with(parameters=[["e1"], "e2"]), "(at parameters)"),
    "cells-list": (
        "space",
        _space_with(membership={"e1": ["x", "y", "z"], "e2": {}}),
        "(at membership.e1)",
    ),
    "cell-value-list": (
        "space",
        _space_with(membership={"e1": {"x": ["[0,1]"], "y": "[1,1]", "z": "[1,1]"}, "e2": {}}),
        "(at membership.e1.x)",
    ),
    "repeated-bad-literal": (
        "space",
        _space_with(
            beta="[0.7,0.3]",
            membership={p: {o: "[0.7,0.3]" for o in "xyz"} for p in ("e1", "e2")},
        ),
        "(at membership.e1.x)",
    ),
    # both endpoints of e1.y are endpoint-memo hits; lo <= hi must still be checked
    "inverted-known-endpoints": (
        "space",
        _space_with(membership={"e1": {"x": "[0.3,0.7]", "y": "[0.7,0.3]", "z": "[1,1]"},
                                "e2": {o: "[1,1]" for o in "xyz"}}),
        "(at membership.e1.y)",
    ),
    "huge-exponent-beside-known-endpoint": (
        "space",
        _space_with(membership={"e1": {"x": "[0.2,0.5]", "y": "[0.2,1e-99999999]", "z": "[1,1]"},
                                "e2": {o: "[1,1]" for o in "xyz"}}),
        "(at membership.e1.y)",
    ),
    "huge-exponent": ("space", _space_with(beta="[1e-99999999,0.5]"), "(at beta)"),
    "underscored-exponent": ("space", _space_with(beta="[1e-99_999_999,0.5]"), "(at beta)"),
    "space-deep-nesting": ("space", "[" * 200000, "nested too deeply"),
    "space-deep-object": ("space", '{"a":' * 100000, "nested too deeply"),
    "space-huge-integer": ("space", '{"universe": ' + "1" * 5000 + "}", "4300 digits"),
    "grades-list": ("set", '{"mode":"fuzzy","grades":["x","y","z"]}', "(at grades)"),
    "grade-value-dict": (
        "set",
        '{"mode":"fuzzy","grades":{"x":{"lo":"0"},"y":"[0,1]","z":"[0,1]"}}',
        "(at grades.x)",
    ),
    "set-inverted-known-endpoints": (
        "set",
        '{"mode":"fuzzy","grades":{"x":"[0.2,0.5]","y":"[0.5,0.2]","z":"[0,1]"}}',
        "(at grades.y)",
    ),
    "members-string": ("set", '{"mode":"crisp","members":"xz"}', "(at members)"),
    "members-nested": ("set", '{"mode":"crisp","members":[["x"]]}', "(at members)"),
    "set-deep-nesting": ("set", "[" * 200000, "nested too deeply"),
    "set-deep-object": ("set", '{"a":' * 100000, "nested too deeply"),
    "set-huge-integer": ("set", '{"grades": ' + "1" * 5000 + "}", "4300 digits"),
}


class TestHostileDocuments:
    @pytest.mark.parametrize("name", sorted(HOSTILE_DOCUMENTS))
    def test_hostile_document_exits_2(self, name, space_file, tmp_path, capsys):
        role, text, fragment = HOSTILE_DOCUMENTS[name]
        path = tmp_path / "hostile.json"
        path.write_text(text)
        if role == "space":
            argv = ["validate", str(path)]
        else:
            argv = ["approximate", space_file, "--kind", "1", "--mode", "crisp",
                    "--set", str(path)]
        start = time.perf_counter()
        assert run_cli(argv) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err


# Literals far past any sane length: the error must quote a bounded excerpt
# and must not pass on Python's advice to raise its int-string limit.
LONG_LITERAL_DOCUMENTS = {
    "letters": _space_with(beta="[" + "z" * 5000 + ",1]"),
    "zero-padded-exponent": _space_with(beta="[1e-" + "0" * 5000 + "5,1]"),
    "long-decimal": _space_with(beta="[0." + "1" * 5000 + ",1]"),
    "huge-integer": '{"universe": ' + "1" * 5000 + "}",
    "long-parameter-bad-cell": _space_with(
        parameters=["p" * 100_000],
        membership={"p" * 100_000: {"x": "[0.6,0.7]", "y": "[0.9,0.1]", "z": "[1,1]"}},
    ),
    "long-parameter-missing-cell": _space_with(
        parameters=["p" * 100_000],
        membership={"p" * 100_000: {"x": "[0.6,0.7]", "y": "[1,1]"}},
    ),
    "long-object-bad-cell": _space_with(
        universe=["o" * 100_000],
        parameters=["e1"],
        membership={"e1": {"o" * 100_000: "[1,0]"}},
    ),
    "long-object-not-covering": _space_with(
        universe=["o" * 100_000],
        parameters=["e1"],
        beta="[0.5,0.5]",
        membership={"e1": {"o" * 100_000: "[0,0]"}},
    ),
    "long-join-not-covering": _space_with(
        universe=["x"],
        parameters=["e1"],
        beta="[0.5,0.5]",
        membership={"e1": {"x": "[0." + "1" * 4000 + ",0." + "1" * 4000 + "]"}},
    ),
    "many-objects-not-covering": _space_with(
        universe=[f"x{i}" for i in range(2000)],
        parameters=["e1"],
        beta="[0.5,0.5]",
        membership={"e1": {f"x{i}": "[0,0]" for i in range(2000)}},
    ),
}


@pytest.mark.parametrize("name", sorted(LONG_LITERAL_DOCUMENTS))
def test_long_literal_errors_are_bounded(name, tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(LONG_LITERAL_DOCUMENTS[name])
    # neighborhood, not validate: validate reports a failed covering on stdout
    assert run_cli(["neighborhood", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert max(len(line) for line in err.splitlines()) <= 300
    assert "set_int_max_str_digits" not in err


LONG_NAME = "o" * 100_000


@pytest.mark.parametrize(
    "parse",
    [
        lambda: parse_space_csv(f'object,{LONG_NAME}\nx,"[1,0]"\n'),
        lambda: parse_set_doc(
            {"mode": "fuzzy", "grades": {LONG_NAME: "[1,0]"}}, Universe((LONG_NAME,))
        ),
    ],
    ids=["csv-column", "set-grades"],
)
def test_long_names_in_error_locations_are_cut(parse):
    with pytest.raises(SpaceSyntaxError) as info:
        parse()
    assert len(str(info.value)) <= 300


_NAMES = st.sampled_from(["x", "y", "z", "w"])


class TestRoundTripProperties:
    @settings(max_examples=200, deadline=1000)
    @given(mixed_spaces())
    def test_space_round_trip_is_exact_and_byte_stable(self, space):
        text = serialize_space(space)
        again = parse_space(text)
        assert again == space
        assert serialize_space(again) == text

    @settings(max_examples=200, deadline=1000)
    @given(st.data())
    def test_set_documents_round_trip(self, data):
        u = Universe(tuple(data.draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))))
        fuzzy_set = IVFuzzySet(u, tuple(data.draw(mixed_intervals()) for _ in u))
        crisp_set = CrispSubset.of(u, data.draw(st.sets(st.sampled_from(u.objects))))
        for target in (fuzzy_set, crisp_set):
            text = serialize_set(target)
            assert parse_set(text, u) == target
            assert serialize_set(parse_set(text, u)) == text


_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from(["x", "y", "z", "e1", "e2", "[0,1]", "[0.5,0.6]", "[1e-9,1]"])
    | st.text(max_size=4)
)
_KEYS = st.sampled_from(["x", "y", "z", "e1", "e2"]) | st.text(max_size=3)
JSON_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_KEYS, kids, max_size=4),
    max_leaves=12,
)
SPACE_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {"universe": JSON_VALUES, "parameters": JSON_VALUES, "beta": JSON_VALUES,
     "membership": JSON_VALUES}
)
_MODES = st.sampled_from(["fuzzy", "crisp"]) | JSON_VALUES
SET_DOCS = (
    JSON_VALUES
    | st.fixed_dictionaries({"mode": _MODES, "grades": JSON_VALUES})
    | st.fixed_dictionaries({"mode": _MODES, "members": JSON_VALUES})
)


@settings(max_examples=300, deadline=500)
@given(SPACE_DOCS)
def test_any_json_value_is_a_space_or_a_document_error(doc):
    try:
        parse_space_doc(doc)
    except DocumentError:
        pass


@settings(max_examples=300, deadline=500)
@given(SET_DOCS)
def test_any_json_value_is_a_set_or_a_document_error(doc):
    try:
        parse_set_doc(doc, Universe(("x", "y", "z")))
    except DocumentError:
        pass


# Endpoint texts at and just past each bound parse_endpoint enforces.
HOSTILE_ENDPOINTS = (
    "0." + "1" * MAX_DIGITS,
    "0." + "1" * (MAX_DIGITS + 1),
    "1/1" + "0" * (MAX_DIGITS - 1),
    "1/1" + "0" * MAX_DIGITS,
    f"1e-{MAX_EXPONENT}",
    f"1e-{MAX_EXPONENT + 1}",
    f"1e+{MAX_EXPONENT}",
    f"1e{MAX_EXPONENT + 1}",
    "1e-1_001",
    "0.5_5",
    "1_0/2_0",
    "1__0/20",
    "1/0",
    "0/0",
)


def _nodes(doc, path=()):
    """(path, node) for every node of a decoded document, the root included."""
    yield path, doc
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def hostile_literals(draw, known):
    """A hostile endpoint alone or in an interval, or two of ``known`` inverted."""
    endpoint = draw(st.sampled_from(HOSTILE_ENDPOINTS))
    choices = [endpoint, f"[{endpoint},1]", f"[0,{endpoint}]", f"[{endpoint},{endpoint}]"]
    if known:
        lo, hi = sorted(draw(st.lists(st.sampled_from(known), min_size=2, max_size=2)),
                        key=Fraction)
        choices.append(f"[{hi},{lo}]")
    return draw(st.sampled_from(choices))


@st.composite
def mutated_documents(draw):
    """(role, document, universe): a valid space, CSV or set document with one node replaced.

    The replacement is a random JSON value (a random text in a CSV cell) or a
    hostile literal, so that cells, beta and grades are reached as often as
    the structure around them.
    """
    space = draw(mixed_spaces())
    universe = space.universe
    role = draw(st.sampled_from(["space", "csv", "set"]))
    if role == "space":
        doc = space_to_doc(space)
    elif role == "csv":
        doc = list(csv.reader(io.StringIO(serialize_space_csv(space))))
    else:
        fuzzy_set = IVFuzzySet(universe, tuple(draw(mixed_intervals()) for _ in universe))
        crisp_set = CrispSubset.of(universe, draw(st.sets(st.sampled_from(universe.objects))))
        doc = set_to_doc(draw(st.sampled_from([fuzzy_set, crisp_set])))
    nodes = list(_nodes(doc))
    known = [text for _, node in nodes if isinstance(node, str) and node.startswith("[")
             for text in node[1:-1].split(",")]
    path = draw(st.sampled_from([path for path, _ in nodes if role != "csv" or len(path) == 2]))
    other = st.text(max_size=6) if role == "csv" else JSON_VALUES
    doc = _replaced(doc, path, draw(other | hostile_literals(known)))
    if role == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(doc)
        doc = buf.getvalue()
    return role, doc, universe


@settings(max_examples=300, deadline=500)
@given(mutated_documents())
def test_a_document_with_one_node_replaced_parses_or_is_a_document_error(case):
    role, doc, universe = case
    try:
        if role == "space":
            parse_space_doc(doc)
        elif role == "csv":
            parse_space_csv(doc)
        else:
            parse_set_doc(doc, universe)
    except DocumentError:
        pass


def _cli_exit(argv) -> int:
    """``run_cli``'s exit code, its stdout and stderr swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run_cli(argv)


@settings(max_examples=150, deadline=None)
@given(mutated_documents(), st.sampled_from(["1", "2", "3", "4"]))
def test_a_document_with_one_node_replaced_exits_0_or_2_through_the_cli(case, kind):
    # Parsing builds the mapping's code table, so validate reaches it too.
    role, doc, universe = case
    with tempfile.TemporaryDirectory() as tmp:
        space = Path(tmp, "space")
        targets = {mode: Path(tmp, f"{mode}.json") for mode in ("fuzzy", "crisp")}
        flags = ["--format", "csv", "--beta", "[0,0]"] if role == "csv" else []
        if role == "set":
            mapping = SoftMapping.from_dict(universe, {"e1": {o: iv("[1,1]") for o in universe}})
            space.write_text(dumps(space_to_doc(SoftSpace(mapping, iv("[0,1]")))))
            for path in targets.values():
                path.write_text(json.dumps(doc))
        else:
            space.write_text(doc if role == "csv" else json.dumps(doc))
            targets["fuzzy"].write_text(dumps(set_to_doc(IVFuzzySet.top(universe))))
            targets["crisp"].write_text(dumps(set_to_doc(CrispSubset.of(universe, universe))))
        runs = [["validate", *flags, str(space)]]
        runs += [["approximate", *flags, str(space), "--kind", kind, "--mode", mode,
                  "--set", str(path)] for mode, path in targets.items()]
        for argv in runs:
            start = time.perf_counter()
            assert _cli_exit(argv) in (0, 2)
            assert time.perf_counter() - start < 5


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(SPACE_JSON)
    return str(path)


class TestCli:
    def test_validate_ok(self, space_file, capsys):
        assert run_cli(["validate", space_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["schema_version"] == 1 and "version" in doc

    def test_validate_failure_exits_2(self, tmp_path, capsys):
        doc = json.loads(SPACE_JSON)
        doc["beta"] = "[0.9,1]"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["validate", str(bad)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is False
        assert {f["object"] for f in out["failures"]} == {"x", "y", "z"}

    def test_validate_malformed_document_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["validate", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_validate_csv_duplicate_parameters_exits_2(self, tmp_path, capsys):
        path = tmp_path / "space.csv"
        path.write_text('object,e1,e1\nx,"[0,1]","[1,1]"\n')
        assert run_cli(["validate", "--format", "csv", "--beta", "[0,1]", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: parameters must be nonempty and unique (at row 1)\n"
        )

    def test_bad_policy_exits_2(self, space_file, capsys):
        assert run_cli(["validate", "--policy", "mend", space_file]) == 2

    def test_neighborhood_output(self, space_file, capsys):
        assert run_cli(["neighborhood", space_file, "--object", "z", "--matrix"]) == 0
        doc = json.loads(capsys.readouterr().out)
        entry = doc["neighborhoods"][0]
        assert entry["object"] == "z"
        assert entry["empty_index_set"] is True
        assert entry["fuzzy"] == {"x": "[1,1]", "y": "[1,1]", "z": "[1,1]"}
        assert doc["matrix"]["x"]["z"] == "[0.3,0.6]"

    def test_approximate_fuzzy(self, space_file, tmp_path, capsys):
        target = tmp_path / "x.json"
        target.write_text(
            '{"mode":"fuzzy","grades":{"x":"[0.5,0.5]","y":"[0.2,0.3]","z":"[0.6,0.8]"}}'
        )
        code = run_cli(
            ["approximate", space_file, "--kind", "3", "--mode", "fuzzy", "--set", str(target)]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"lower", "upper", "definable", "kind", "mode"}
        assert doc["lower"]["mode"] == "fuzzy"

    def test_approximate_mode_mismatch_exits_2(self, space_file, tmp_path, capsys):
        target = tmp_path / "x.json"
        target.write_text('{"mode":"crisp","members":["x"]}')
        code = run_cli(
            ["approximate", space_file, "--kind", "1", "--mode", "fuzzy", "--set", str(target)]
        )
        assert code == 2

    def test_gen_random_is_byte_identical(self, capsys):
        args = ["gen-random", "--size", "3,3", "--grid", "10", "--seed", "7"]
        assert run_cli(args) == 0
        first = capsys.readouterr().out
        assert run_cli(args) == 0
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert doc["schema_version"] == 1

    def test_gen_random_output_is_ingestible(self, capsys, tmp_path):
        assert run_cli(["gen-random", "--seed", "3"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "gen.json"
        path.write_text(text)
        assert run_cli(["validate", str(path)]) == 0

    def test_audit_all_pass_exit_zero(self, capsys):
        code = run_cli(
            ["audit", "--trials", "10", "--seed", "2", "--size", "3,2",
             "--theorems", "N-REFL,CN-TRANS,A2-P4"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["theorems"]["N-REFL"]["failures"] == 0

    def test_audit_counts_a_repeated_id_once(self, capsys):
        assert run_cli(["audit", "--trials", "3", "--theorems", "N-REFL,N-REFL"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["theorems"]) == ["N-REFL"]
        assert doc["theorems"]["N-REFL"]["trials"] == doc["trials"] == 3

    def test_audit_with_no_theorem_selected_exits_2(self, capsys):
        assert run_cli(["audit", "--trials", "3", "--theorems", ",,"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no theorem selected")

    def test_audit_law_failure_exit_one(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            ["audit", "--trials", "60", "--seed", "1", "--size", "4,3",
             "--theorems", "REL-F1", "--out", str(out)]
        )
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["ok"] is False and doc["law_failures"] == ["REL-F1"]

    def test_internal_error_exits_3(self, space_file, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "validate", broken)
        assert run_cli(["validate", space_file]) == 3
        assert capsys.readouterr().err == "error: internal: RuntimeError: boom\n"

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["no-such-command"])
        assert exc.value.code == 2


def test_pyproject_version_is_the_package_version():
    from pathlib import Path

    import betacover

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "betacover.__version__"}
    assert betacover.__version__ == "1.0.0"
