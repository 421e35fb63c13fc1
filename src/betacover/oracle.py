"""Definition-literal slow path and the scalar degenerate-case oracle.

Everything here transcribes the defining formulas directly, composing
the interval algebra one step at a time and recomputing neighborhoods
from the raw parameter sets.  It shares no code with the matrix-based
fast path in ``approximations``, so exact agreement between the two is
a meaningful check rather than a tautology.

The scalar functions implement an ordinary (non-interval) fuzzy
beta-covering with plain rational grades.  When every grade and beta is
a degenerate interval [a,a], the interval operators must agree with the
scalar ones pointwise; acceptance tests drive that comparison.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping

from .approximations import Kind
from .fuzzysets import CrispSubset, IVFuzzySet
from .intervals import IntervalValue, complement, family_join, family_meet, join, leq_bool, meet
from .neighborhoods import crisp_of
from .space import SoftSpace


def oracle_fuzzy_neighborhood(space: SoftSpace, obj: str) -> IVFuzzySet:
    """Literal fold: intersect every F(e) with beta <= F(e)(obj)."""
    selected = [
        fs for fs in space.mapping.assignment if leq_bool(space.beta, fs.grade(obj))
    ]
    if not selected:
        return IVFuzzySet.top(space.universe)
    result = selected[0]
    for fs in selected[1:]:
        result = result.intersect(fs)
    return result


def oracle_crisp_neighborhood(space: SoftSpace, obj: str) -> CrispSubset:
    return crisp_of(oracle_fuzzy_neighborhood(space, obj), space.beta)


def oracle_complementary_fuzzy_neighborhood(space: SoftSpace, obj: str) -> IVFuzzySet:
    rows = {y: oracle_fuzzy_neighborhood(space, y) for y in space.universe}
    return IVFuzzySet.from_dict(
        space.universe, {y: rows[y].grade(obj) for y in space.universe}
    )


def oracle_complementary_crisp_neighborhood(space: SoftSpace, obj: str) -> CrispSubset:
    return crisp_of(oracle_complementary_fuzzy_neighborhood(space, obj), space.beta)


def oracle_fuzzy_tables(space: SoftSpace):
    """Both fuzzy neighborhood tables, computed the definition-literal way.

    Callers doing many operator evaluations on one space can pass the
    result through ``tables=`` to skip recomputation.
    """
    n = {x: oracle_fuzzy_neighborhood(space, x) for x in space.universe}
    m = {
        x: IVFuzzySet.from_dict(space.universe, {y: n[y].grade(x) for y in space.universe})
        for x in space.universe
    }
    return n, m


def oracle_crisp_tables(space: SoftSpace):
    """Both crisp neighborhood tables (beta-cuts of the fuzzy tables)."""
    n, m = oracle_fuzzy_tables(space)
    sn = {x: crisp_of(n[x], space.beta) for x in space.universe}
    sm = {x: crisp_of(m[x], space.beta) for x in space.universe}
    return sn, sm


def oracle_fuzzy_lower(space: SoftSpace, kind, target: IVFuzzySet, tables=None) -> IVFuzzySet:
    kind = Kind.of(kind)
    n, m = tables if tables is not None else oracle_fuzzy_tables(space)
    grades: Dict[str, IntervalValue] = {}
    for x in space.universe:
        terms = []
        for y in space.universe:
            if kind is Kind.K1:
                base = complement(n[x].grade(y))
            elif kind is Kind.K2:
                base = complement(m[x].grade(y))
            elif kind is Kind.K3:
                base = join(complement(n[x].grade(y)), complement(m[x].grade(y)))
            else:
                base = meet(complement(n[x].grade(y)), complement(m[x].grade(y)))
            terms.append(join(base, target.grade(y)))
        grades[x] = family_meet(terms)
    return IVFuzzySet.from_dict(space.universe, grades)


def oracle_fuzzy_upper(space: SoftSpace, kind, target: IVFuzzySet, tables=None) -> IVFuzzySet:
    kind = Kind.of(kind)
    n, m = tables if tables is not None else oracle_fuzzy_tables(space)
    grades: Dict[str, IntervalValue] = {}
    for x in space.universe:
        terms = []
        for y in space.universe:
            if kind is Kind.K1:
                base = n[x].grade(y)
            elif kind is Kind.K2:
                base = m[x].grade(y)
            elif kind is Kind.K3:
                base = meet(n[x].grade(y), m[x].grade(y))
            else:
                base = join(n[x].grade(y), m[x].grade(y))
            terms.append(meet(base, target.grade(y)))
        grades[x] = family_join(terms)
    return IVFuzzySet.from_dict(space.universe, grades)


def oracle_crisp_lower(space: SoftSpace, kind, target: CrispSubset, tables=None) -> CrispSubset:
    kind = Kind.of(kind)
    sn, sm = tables if tables is not None else oracle_crisp_tables(space)
    members = set()
    for x in space.universe:
        n_in = sn[x].members <= target.members
        m_in = sm[x].members <= target.members
        if kind is Kind.K1:
            keep = n_in
        elif kind is Kind.K2:
            keep = m_in
        elif kind is Kind.K3:
            keep = n_in or m_in
        else:
            keep = n_in and m_in
        if keep:
            members.add(x)
    return CrispSubset(space.universe, frozenset(members))


def oracle_crisp_upper(space: SoftSpace, kind, target: CrispSubset, tables=None) -> CrispSubset:
    kind = Kind.of(kind)
    sn, sm = tables if tables is not None else oracle_crisp_tables(space)
    members = set()
    for x in space.universe:
        n_hits = bool(sn[x].members & target.members)
        m_hits = bool(sm[x].members & target.members)
        if kind is Kind.K1:
            keep = n_hits
        elif kind is Kind.K2:
            keep = m_hits
        elif kind is Kind.K3:
            keep = n_hits and m_hits
        else:
            keep = n_hits or m_hits
        if keep:
            members.add(x)
    return CrispSubset(space.universe, frozenset(members))


# -- scalar fuzzy beta-covering (degenerate-case oracle) -------------------


def scalar_fuzzy_neighborhood(
    grades: Mapping[str, Mapping[str, Fraction]], beta: Fraction, obj: str
) -> Dict[str, Fraction]:
    """min over {C : C(obj) >= beta} of C, or the constant 1 when none qualifies.

    ``grades`` maps parameter -> object -> scalar grade.
    """
    selected = [table for table in grades.values() if table[obj] >= beta]
    objects = next(iter(grades.values())).keys()
    if not selected:
        return {y: Fraction(1) for y in objects}
    return {y: min(table[y] for table in selected) for y in objects}


def scalar_neighborhood_tables(grades, beta):
    objects = list(next(iter(grades.values())).keys())
    n = {x: scalar_fuzzy_neighborhood(grades, beta, x) for x in objects}
    m = {x: {y: n[y][x] for y in objects} for x in objects}
    crisp_n = {x: {y for y in objects if n[x][y] >= beta} for x in objects}
    crisp_m = {x: {y for y in objects if m[x][y] >= beta} for x in objects}
    return n, m, crisp_n, crisp_m


def scalar_lower1(grades, beta, target: Mapping[str, Fraction]) -> Dict[str, Fraction]:
    n, _, _, _ = scalar_neighborhood_tables(grades, beta)
    objects = list(target.keys())
    return {
        x: min(max(1 - n[x][y], target[y]) for y in objects) for x in objects
    }


def scalar_upper1(grades, beta, target: Mapping[str, Fraction]) -> Dict[str, Fraction]:
    n, _, _, _ = scalar_neighborhood_tables(grades, beta)
    objects = list(target.keys())
    return {
        x: max(min(n[x][y], target[y]) for y in objects) for x in objects
    }


def scalar_crisp_lower1(grades, beta, members: set) -> set:
    _, _, crisp_n, _ = scalar_neighborhood_tables(grades, beta)
    return {x for x, nbhd in crisp_n.items() if nbhd <= members}


def scalar_crisp_upper1(grades, beta, members: set) -> set:
    _, _, crisp_n, _ = scalar_neighborhood_tables(grades, beta)
    return {x for x, nbhd in crisp_n.items() if nbhd & members}
