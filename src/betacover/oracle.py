"""Definition-literal slow path and the scalar degenerate-case oracle.

The interval operators are computed here from their defining formulas, on
exact ints.  ``_Scale.of`` puts beta, every parameter-set endpoint and a
target's endpoints over their least common denominator D
(``scaled_endpoints``), so an endpoint p/q is the int p*D/q: endpoints order
as their ints do, the complement [1-hi, 1-lo] is [D-hi, D-lo], and meet and
join are int ``min`` and ``max``.  It then recomputes the neighborhoods from
the raw parameter sets by the literal fold, the meet of every F(e) with
beta <= F(e)(x), or [1,1] everywhere when no set qualifies.  The tables fold
once per space and keep the last target's scale: a target whose
denominators divide D shares their rows, and any other is folded again with
the space.  Each lower operator is evaluated from its own formula, not as
the dual of an upper one, and results come back as checked
``IntervalValue`` instances, each distinct result interval built and
checked once per scale.

None of this uses the interval algebra (``meet``, ``join``, ``complement``,
``leq_bool``) or the endpoint codes that the matrix-based fast path in
``approximations`` encodes from and decodes to, so exact agreement between
the two routes is a meaningful check rather than a tautology.

The scalar functions implement an ordinary (non-interval) fuzzy
beta-covering with plain rational grades.  When every grade and beta is
a degenerate interval [a,a], the interval operators must agree with the
scalar ones pointwise; acceptance tests drive that comparison.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from .approximations import Kind
from .errors import UniverseMismatchError
from .fuzzysets import CrispSubset, IVFuzzySet
from .intervals import IntervalValue, scaled_endpoints
from .space import SoftSpace

# A fuzzy set over the space's universe as two rows of scaled ints: its
# low endpoints and its high endpoints, in universe order.
Row = Tuple[Sequence[int], Sequence[int]]


def _transpose(n: List[Row]) -> List[Row]:
    """The complementary rows: ``m[x](y)`` is ``n[y](x)``."""
    return list(zip(zip(*(lows for lows, _ in n)), zip(*(highs for _, highs in n))))


class _Scale(NamedTuple):
    """A space's neighborhood rows, and a target's row, as ints over the denominator ``d``.

    ``n[i]`` is the i-th object's fuzzy neighborhood, ``m[i]`` its
    complementary one and ``x`` the target's row (empty when there is no
    target).  ``points`` maps ints over ``d`` to the ``Fraction`` they stand
    for, and ``results`` maps each ``(lo, hi)`` int pair an operator has
    returned to the checked ``IntervalValue`` [lo/d, hi/d] built from it.
    """

    d: int
    beta: Tuple[int, int]
    n: List[Row]
    m: List[Row]
    x: Row
    points: Dict[int, Fraction]
    results: Dict[Tuple[int, int], IntervalValue]

    @classmethod
    def of(cls, space: SoftSpace, target: Sequence[IntervalValue] = ()) -> "_Scale":
        """Beta, every grade and the target's grades over one denominator, and the literal fold."""
        size, t = len(space.universe), len(target)
        d, lows, highs, points = scaled_endpoints(
            chain((space.beta,), target, *(fs.grades for fs in space.mapping.assignment))
        )
        (b_lo, *lows), (b_hi, *highs) = lows, highs
        sets = [(lows[i : i + size], highs[i : i + size]) for i in range(t, len(lows), size)]
        n = []
        for x in range(size):
            selected = [s for s in sets if b_lo <= s[0][x] and b_hi <= s[1][x]]
            if selected:
                n.append(tuple([min(column) for column in zip(*half)] for half in zip(*selected)))
            else:
                n.append(([d] * size, [d] * size))
        points[d] = Fraction(1)  # the endpoint of a row that selects no set
        return cls(d, (b_lo, b_hi), n, _transpose(n), (lows[:t], highs[:t]), points, {})

    def value(self, k: int) -> Fraction:
        """The endpoint k/d, kept in ``points`` once built."""
        x = self.points.get(k)
        if x is None:
            x = self.points[k] = Fraction(k, self.d)
        return x


class FuzzyTables(tuple):
    """``(n, m)``: each object's fuzzy neighborhood and its complementary one, by name.

    Both are dicts from object to ``IVFuzzySet``.  The tables also carry
    their space and its ``_Scale``, which ``crisp`` cuts at beta; pass them
    through ``tables=`` to evaluate many operators on one space.
    """

    def __new__(cls, space: SoftSpace):
        u = space.universe
        scale = _Scale.of(space)
        points = scale.points
        grades = [[IntervalValue(points[a], points[b]) for a, b in zip(*row)] for row in scale.n]
        self = super().__new__(cls, (
            {x: IVFuzzySet(u, grades[i]) for i, x in enumerate(u)},
            {x: IVFuzzySet(u, [row[i] for row in grades]) for i, x in enumerate(u)},
        ))
        self.space, self.scale = space, scale
        self._target = self._scaled = None
        return self

    def crisp(self):
        """Both crisp neighborhood tables: the beta-cut {y : beta <= row(y)} of each fuzzy row."""
        u, scale = self.space.universe, self.scale
        b_lo, b_hi = scale.beta

        def cut(lows, highs) -> CrispSubset:
            return CrispSubset(u, frozenset(
                y for y, lo, hi in zip(u.objects, lows, highs) if b_lo <= lo and b_hi <= hi
            ))

        tables = CrispTables({x: cut(*r) for x, r in zip(u, rows)} for rows in (scale.n, scale.m))
        tables.space = self.space
        return tables

    def scaled(self, target: IVFuzzySet) -> _Scale:
        """The rows with the target's row, over one denominator; the last target's is kept.

        A target whose denominators divide the tables' shares their rows;
        any other is folded again with the space.  The target is kept by
        reference and known again by identity: an ``IVFuzzySet`` never changes.
        """
        if target is not self._target:
            s = self.scale
            d, lows, highs, points = scaled_endpoints(target.grades, s.d)
            if d == s.d:
                s.points.update(points)
                scaled = _Scale(d, s.beta, s.n, s.m, (lows, highs), s.points, s.results)
            else:
                scaled = _Scale.of(self.space, target.grades)
            self._target, self._scaled = target, scaled
        return self._scaled


class CrispTables(tuple):
    """``(n, m)``: crisp neighborhood tables by object name, and the ``space`` they belong to."""


def oracle_fuzzy_tables(space: SoftSpace) -> FuzzyTables:
    """Both fuzzy neighborhood tables, computed the definition-literal way."""
    return FuzzyTables(space)


def oracle_crisp_tables(space: SoftSpace) -> CrispTables:
    """Both crisp neighborhood tables, cut from the definition-literal fuzzy ones."""
    return oracle_fuzzy_tables(space).crisp()


# -- the lattice on rows of scaled ints -------------------------------------


def _complement(row: Row, d: int) -> Row:
    """[1 - hi, 1 - lo] at every object."""
    lows, highs = row
    return [d - k for k in highs], [d - k for k in lows]


def _meet(a: Row, b: Row) -> Row:
    return list(map(min, a[0], b[0])), list(map(min, a[1], b[1]))


def _join(a: Row, b: Row) -> Row:
    return list(map(max, a[0], b[0])), list(map(max, a[1], b[1]))


def _check_universe(space: SoftSpace, target) -> None:
    if target.universe != space.universe:
        raise UniverseMismatchError("target set is over a different universe")


def _scaled_target(space: SoftSpace, target: IVFuzzySet, tables) -> _Scale:
    """The space's rows and the target's, over one denominator."""
    _check_universe(space, target)
    if tables is None:
        return _Scale.of(space, target.grades)
    return _check_space(space, tables).scaled(target)


def _check_space(space: SoftSpace, tables):
    """The tables; ValueError if they carry another space (tables that carry none pass)."""
    other = getattr(tables, "space", space)
    if other is not space and other != space:
        raise ValueError("oracle tables belong to a different space")
    return tables


def _fuzzy_result(space: SoftSpace, scale: _Scale, grades) -> IVFuzzySet:
    """The fuzzy set of the result int pairs; each distinct pair is built and checked once."""
    results = scale.results
    values = []
    for pair in grades:
        value = results.get(pair)
        if value is None:
            lo, hi = pair
            value = results[pair] = IntervalValue(scale.value(lo), scale.value(hi))
        values.append(value)
    return IVFuzzySet(space.universe, values)


def oracle_fuzzy_lower(space: SoftSpace, kind, target: IVFuzzySet, tables=None) -> IVFuzzySet:
    """lower(X)(x) = meet over y of (the complement of the kind's neighborhoods at y) join X(y)."""
    kind = Kind.of(kind)
    scale = _scaled_target(space, target, tables)
    d = scale.d
    grades = []
    for n, m in zip(scale.n, scale.m):
        if kind is Kind.K1:
            base = _complement(n, d)
        elif kind is Kind.K2:
            base = _complement(m, d)
        elif kind is Kind.K3:
            base = _join(_complement(n, d), _complement(m, d))
        else:
            base = _meet(_complement(n, d), _complement(m, d))
        lows, highs = _join(base, scale.x)
        grades.append((min(lows), min(highs)))
    return _fuzzy_result(space, scale, grades)


def oracle_fuzzy_upper(space: SoftSpace, kind, target: IVFuzzySet, tables=None) -> IVFuzzySet:
    """upper(X)(x) = join over y of (the kind's neighborhoods at y) meet X(y)."""
    kind = Kind.of(kind)
    scale = _scaled_target(space, target, tables)
    grades = []
    for n, m in zip(scale.n, scale.m):
        if kind is Kind.K1:
            base = n
        elif kind is Kind.K2:
            base = m
        elif kind is Kind.K3:
            base = _meet(n, m)
        else:
            base = _join(n, m)
        lows, highs = _meet(base, scale.x)
        grades.append((max(lows), max(highs)))
    return _fuzzy_result(space, scale, grades)


def oracle_crisp_lower(space: SoftSpace, kind, target: CrispSubset, tables=None) -> CrispSubset:
    kind = Kind.of(kind)
    _check_universe(space, target)
    sn, sm = oracle_crisp_tables(space) if tables is None else _check_space(space, tables)
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
    _check_universe(space, target)
    sn, sm = oracle_crisp_tables(space) if tables is None else _check_space(space, tables)
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


def _scalar_crisp_neighborhoods(grades, beta):
    """Object -> the beta-cut of its scalar fuzzy neighborhood."""
    objects = next(iter(grades.values())).keys()
    return {
        x: {y for y, g in scalar_fuzzy_neighborhood(grades, beta, x).items() if g >= beta}
        for x in objects
    }


def scalar_lower1(grades, beta, target: Mapping[str, Fraction]) -> Dict[str, Fraction]:
    return {
        x: min(max(1 - g, target[y]) for y, g in scalar_fuzzy_neighborhood(grades, beta, x).items())
        for x in target
    }


def scalar_upper1(grades, beta, target: Mapping[str, Fraction]) -> Dict[str, Fraction]:
    return {
        x: max(min(g, target[y]) for y, g in scalar_fuzzy_neighborhood(grades, beta, x).items())
        for x in target
    }


def scalar_crisp_lower1(grades, beta, members: set) -> set:
    return {x for x, nbhd in _scalar_crisp_neighborhoods(grades, beta).items() if nbhd <= members}


def scalar_crisp_upper1(grades, beta, members: set) -> set:
    return {x for x, nbhd in _scalar_crisp_neighborhoods(grades, beta).items() if nbhd & members}
