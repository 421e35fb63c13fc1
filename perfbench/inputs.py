"""The benchmark's own input generator and document writer.

Spaces, target sets and the documents the CLI reads are drawn and written
here, from the seed alone, and never by betacover's ``generate`` or
``serialize``: a change to those modules must not change what the
benchmark measures.  Inputs are plain data (grades as integer numerators
over a grid denominator ``d``) and become betacover objects only through
the public constructors (``to_space``, ``to_fuzzy``, ``CrispSubset.of``).
The CLI's answers are read back with this module's own parser.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Space:
    """A beta-covering: ``rows[p][o]`` is the grade (a, b) = [a/d, b/d]."""

    d: int
    objects: tuple
    parameters: tuple
    rows: tuple
    beta: tuple


def names(prefix, count):
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def grid_intervals(d):
    """Every (a, b) with 0 <= a <= b <= d."""
    return [(a, b) for a in range(d + 1) for b in range(a, d + 1)]


def draw_interval(rng, d):
    a, b = rng.randrange(d + 1), rng.randrange(d + 1)
    return (a, b) if a <= b else (b, a)


def joins(rows):
    """Per object, the componentwise maximum of its grades over the parameters."""
    return [(max(g[0] for g in col), max(g[1] for g in col)) for col in zip(*rows)]


def covers(rows, beta):
    return all(beta[0] <= a and beta[1] <= b for a, b in joins(rows))


def draw_space(rng, n, m, d, beta=None):
    """Random grades and beta; where beta is not covered, the first
    parameter's grade is joined with beta so that it is."""
    rows = [[draw_interval(rng, d) for _ in range(n)] for _ in range(m)]
    if beta is None:
        beta = draw_interval(rng, d)
    for o, (a, b) in enumerate(joins(rows)):
        if not (beta[0] <= a and beta[1] <= b):
            g = rows[0][o]
            rows[0][o] = (max(g[0], beta[0]), max(g[1], beta[1]))
    return Space(d, names("x", n), names("e", m), tuple(map(tuple, rows)), beta)


def draw_covering_space(rng, n, m, d, choices):
    """Grades and beta uniform on ``choices``, redrawn until they cover."""
    while True:
        rows = [[rng.choice(choices) for _ in range(n)] for _ in range(m)]
        beta = rng.choice(choices)
        if covers(rows, beta):
            return Space(d, names("x", n), names("e", m), tuple(map(tuple, rows)), beta)


def draw_fuzzy(rng, n, d):
    return tuple(draw_interval(rng, d) for _ in range(n))


def draw_crisp(rng, objects):
    return tuple(o for o in objects if rng.random() < 0.5)


# -- documents -------------------------------------------------------------


def interval_text(g, d):
    return f"[{Fraction(g[0], d)},{Fraction(g[1], d)}]"


def space_text(s):
    doc = {
        "schema_version": 1,
        "universe": list(s.objects),
        "parameters": list(s.parameters),
        "beta": interval_text(s.beta, s.d),
        "membership": {
            p: {o: interval_text(g, s.d) for o, g in zip(s.objects, row)}
            for p, row in zip(s.parameters, s.rows)
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def fuzzy_text(objects, grades, d):
    doc = {"mode": "fuzzy", "grades": {o: interval_text(g, d) for o, g in zip(objects, grades)}}
    return json.dumps(doc, indent=2) + "\n"


def crisp_text(members):
    return json.dumps({"mode": "crisp", "members": list(members)}, indent=2) + "\n"


_INTERVAL = re.compile(r"^\[\s*([^,\s]+)\s*,\s*([^\]\s]+)\s*\]$")


def parse_interval(text):
    """'[lo,hi]' with decimal or rational endpoints, as a pair of Fractions."""
    match = _INTERVAL.match(text)
    if match is None:
        raise ValueError(f"bad interval literal {text!r}")
    return Fraction(match.group(1)), Fraction(match.group(2))


def read_set_doc(doc):
    """A set document of the CLI's answer, as plain data: a dict of grades
    (fuzzy) or a frozenset of members (crisp)."""
    if doc["mode"] == "fuzzy":
        return {o: parse_interval(t) for o, t in doc["grades"].items()}
    return frozenset(doc["members"])


# -- betacover objects ----------------------------------------------------------


def _interval(bc, g, d):
    return bc.IntervalValue(Fraction(g[0], d), Fraction(g[1], d))


def to_space(bc, s):
    universe = bc.Universe(s.objects)
    table = {p: {o: _interval(bc, g, s.d) for o, g in zip(s.objects, row)}
             for p, row in zip(s.parameters, s.rows)}
    return bc.SoftSpace(bc.SoftMapping.from_dict(universe, table), _interval(bc, s.beta, s.d))


def to_fuzzy(bc, universe, grades, d):
    return bc.IVFuzzySet(universe, tuple(_interval(bc, g, d) for g in grades))


def plain(result):
    """An operator result (IVFuzzySet or CrispSubset) as read_set_doc gives it."""
    if hasattr(result, "grades"):
        return {o: (g.lo, g.hi) for o, g in zip(result.universe.objects, result.grades)}
    return frozenset(o for o in result.universe.objects if o in result)
