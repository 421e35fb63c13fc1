"""Document formats: canonical JSON and CSV ingestion/serialization.

Serialization is canonical: fixed key order, lowest-terms endpoint
literals, stable whitespace.  Equal values therefore produce identical
bytes, and parse(serialize(x)) == x exactly.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Tuple, Union

from .errors import IncompleteTableError, SpaceSyntaxError, cut_name, excerpt
from .fuzzysets import CrispSubset, IVFuzzySet, Universe
from .intervals import IntervalValue
from .space import SoftMapping, SoftSpace, build_space

SCHEMA_VERSION = 1

_SPACE_KEYS = {"universe", "parameters", "beta", "membership"}
_OPTIONAL_KEYS = {"schema_version", "version"}


def dumps(doc) -> str:
    """Canonical JSON text (stable key order is the caller's duty)."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _loads(text: str):
    """Decode JSON text; text json cannot decode is a SpaceSyntaxError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpaceSyntaxError(exc.msg, f"line {exc.lineno}, column {exc.colno}") from None
    except RecursionError:
        raise SpaceSyntaxError("JSON nested too deeply") from None
    except ValueError as exc:  # an integer beyond Python's digit limit
        # keep the digit counts, drop the advice after ';' to raise the limit
        raise SpaceSyntaxError(str(exc).partition(";")[0]) from None


def _strings(value, location: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SpaceSyntaxError("expected a list of strings", location)
    return value


def _object(value, location: str) -> dict:
    if not isinstance(value, dict):
        raise SpaceSyntaxError("expected a JSON object", location)
    return value


def _parse_interval(text, location: str, endpoints=None) -> IntervalValue:
    if not isinstance(text, str):
        raise SpaceSyntaxError(f"interval literal must be a string, got {excerpt(text)}", location)
    try:
        return IntervalValue.parse(text, endpoints)
    except ValueError as exc:
        raise SpaceSyntaxError(str(exc), location) from None


def _interval_reader():
    """A reader of one document's interval literals, parsing each distinct text once.

    Repeats of a literal get the same (immutable) ``IntervalValue``, so the
    digit and exponent checks run once per distinct literal, still before
    ``Fraction`` reads it.  A second memo does the same for endpoint texts:
    each distinct one goes once through ``parse_endpoint``, while every
    distinct literal is still built by the checked constructor.  Only ``str``
    values are memo keys: any other JSON value goes to ``_parse_interval`` and
    fails there with its location.  A reader is made for one document and
    dropped with it, so its memos hold at most one entry per distinct literal
    and endpoint of that document.
    """
    seen = {}
    endpoints = {}

    def read(cell, location: str) -> IntervalValue:
        if type(cell) is not str:
            return _parse_interval(cell, location)
        value = seen.get(cell)
        if value is None:
            value = seen[cell] = _parse_interval(cell, location, endpoints)
        return value

    return read


def space_to_doc(space: SoftSpace) -> dict:
    universe = space.universe
    return {
        "schema_version": SCHEMA_VERSION,
        "universe": list(universe.objects),
        "parameters": list(space.parameters),
        "beta": space.beta.text(),
        "membership": {
            p: {o: fs.grade(o).text() for o in universe.objects}
            for p, fs in zip(space.parameters, space.mapping.assignment)
        },
    }


def serialize_space(space: SoftSpace) -> str:
    return dumps(space_to_doc(space))


def parse_space_doc(doc: dict) -> Tuple[SoftMapping, IntervalValue]:
    """Validate a decoded space document into (mapping, beta)."""
    if not isinstance(doc, dict):
        raise SpaceSyntaxError("space document must be a JSON object")
    keys = set(doc)
    missing = _SPACE_KEYS - keys
    extra = keys - _SPACE_KEYS - _OPTIONAL_KEYS
    if missing:
        raise SpaceSyntaxError(f"missing keys {sorted(missing)}")
    if extra:
        raise SpaceSyntaxError(f"unexpected keys {excerpt(sorted(extra))}")
    try:
        universe = Universe(tuple(_strings(doc["universe"], "universe")))
    except ValueError as exc:
        raise SpaceSyntaxError(str(exc), "universe") from None
    parameters = _strings(doc["parameters"], "parameters")
    if not parameters or len(set(parameters)) != len(parameters):
        raise SpaceSyntaxError("parameters must be nonempty and unique", "parameters")
    membership = _object(doc["membership"], "membership")
    extra_params = set(membership) - set(parameters)
    if extra_params:
        raise SpaceSyntaxError(
            f"membership for unknown parameters {excerpt(sorted(extra_params))}"
        )
    read = _interval_reader()
    table = {}
    for p in parameters:
        if p not in membership:
            raise IncompleteTableError(p, "*")
        cells = _object(membership[p], f"membership.{cut_name(p)}")
        extra_objs = set(cells) - set(universe.objects)
        if extra_objs:
            raise SpaceSyntaxError(
                f"membership cells for unknown objects {excerpt(sorted(extra_objs))}",
                f"membership.{cut_name(p)}",
            )
        row = {}
        for o in universe.objects:
            if o not in cells:
                raise IncompleteTableError(p, o)
            row[o] = read(cells[o], f"membership.{cut_name(p)}.{cut_name(o)}")
        table[p] = row
    mapping = SoftMapping.from_dict(universe, table)
    beta = read(doc["beta"], "beta")
    return mapping, beta


def serialize_space_csv(space: SoftSpace) -> str:
    """Membership table only; beta travels out-of-band."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["object", *space.parameters])
    for o in space.universe.objects:
        writer.writerow([o, *(space.mapping.set_for(p).grade(o).text() for p in space.parameters)])
    return buf.getvalue()


def parse_space_csv(text: str) -> SoftMapping:
    try:
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
    except csv.Error as exc:  # e.g. a field past the csv module's size limit
        raise SpaceSyntaxError(str(exc)) from None
    if not rows:
        raise SpaceSyntaxError("empty CSV document")
    header = rows[0]
    if header[0] != "object":
        raise SpaceSyntaxError("CSV header must start with 'object'", "row 1")
    parameters = header[1:]
    if not parameters:
        raise SpaceSyntaxError("CSV header names no parameters", "row 1")
    if len(set(parameters)) != len(parameters):
        raise SpaceSyntaxError("parameters must be nonempty and unique", "row 1")
    read = _interval_reader()
    objects = []
    cells = {p: {} for p in parameters}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise IncompleteTableError("*", row[0])
        obj = row[0]
        objects.append(obj)
        for p, cell in zip(parameters, row[1:]):
            cells[p][obj] = read(cell, f"row {lineno}, column {cut_name(p)}")
    try:
        universe = Universe(tuple(objects))
    except ValueError as exc:
        raise SpaceSyntaxError(str(exc)) from None
    table = {p: cells[p] for p in parameters}
    return SoftMapping.from_dict(universe, table)


def parse_space(
    text: str,
    fmt: str = "json",
    policy="strict",
    beta: Union[IntervalValue, str, None] = None,
) -> SoftSpace:
    """Parse a document and construct a space under the given policy.

    JSON documents carry beta inline; CSV documents require it via the
    ``beta`` argument.
    """
    if fmt == "json":
        mapping, doc_beta = parse_space_doc(_loads(text))
        if beta is None:
            beta = doc_beta
    elif fmt == "csv":
        mapping = parse_space_csv(text)
        if beta is None:
            raise SpaceSyntaxError("CSV input requires beta out-of-band")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(beta, str):
        beta = _parse_interval(beta, "beta")
    return build_space(mapping, beta, policy)


# -- target-set documents ---------------------------------------------------


def set_to_doc(target) -> dict:
    if isinstance(target, IVFuzzySet):
        return {
            "mode": "fuzzy",
            "grades": {o: target.grade(o).text() for o in target.universe.objects},
        }
    return {"mode": "crisp", "members": list(target.sorted_members())}


def serialize_set(target) -> str:
    return dumps(set_to_doc(target))


def parse_set_doc(doc: dict, universe: Universe):
    if not isinstance(doc, dict) or "mode" not in doc:
        raise SpaceSyntaxError("set document must be an object with a 'mode' key")
    mode = doc["mode"]
    if mode == "fuzzy":
        if set(doc) != {"mode", "grades"}:
            raise SpaceSyntaxError("fuzzy set document needs exactly 'mode' and 'grades'")
        grades = _object(doc["grades"], "grades")
        if set(grades) != set(universe.objects):
            raise SpaceSyntaxError("grade keys must match the universe exactly", "grades")
        read = _interval_reader()
        return IVFuzzySet.from_dict(
            universe, {o: read(grades[o], f"grades.{cut_name(o)}") for o in universe.objects}
        )
    if mode == "crisp":
        if set(doc) != {"mode", "members"}:
            raise SpaceSyntaxError("crisp set document needs exactly 'mode' and 'members'")
        members = _strings(doc["members"], "members")
        unknown = [m for m in members if m not in universe]
        if unknown:
            raise SpaceSyntaxError(f"members not in universe: {excerpt(unknown)}", "members")
        return CrispSubset.of(universe, members)
    raise SpaceSyntaxError(f"unknown mode {excerpt(mode)}", "mode")


def parse_set(text: str, universe: Universe):
    return parse_set_doc(_loads(text), universe)
