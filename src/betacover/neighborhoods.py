"""Fuzzy and crisp beta-neighborhood systems.

For each object x the fuzzy neighborhood is the pointwise meet of all
parameter sets whose grade at x dominates beta.  Because the product
order is partial, the selecting index set can be empty even in a valid
covering (the join may dominate beta while no single grade does); the
empty intersection is taken to be the top set [1,1]^U, and the affected
objects are surfaced as metadata.

The complementary neighborhood is the transpose of the fuzzy
neighborhood matrix.  Crisp neighborhoods threshold the fuzzy grades at
beta; the crisp complementary neighborhood is defined by the same
thresholding applied to the transpose.  Every neighborhood is read
from a ``NeighborhoodSystem``, built once per space; ``fuzzy_matrix``
gives the fuzzy matrix alone, for any mapping and beta.  No complemented
grades are stored: the lower operators are derived from the upper ones
by duality.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .fuzzysets import CrispSubset, IVFuzzySet
from .intervals import TOP, IntervalValue, family_meet, join, leq_bool, meet
from .space import SoftMapping, SoftSpace


def crisp_of(g: IVFuzzySet, beta: IntervalValue) -> CrispSubset:
    """{y : beta <= g(y)} - the beta-cut of an arbitrary fuzzy set."""
    return CrispSubset(
        g.universe,
        frozenset(o for o, v in zip(g.universe.objects, g.grades) if leq_bool(beta, v)),
    )


Matrix = Tuple[Tuple[IntervalValue, ...], ...]


def _selected(mapping: SoftMapping, beta: IntervalValue, i: int) -> List[IVFuzzySet]:
    """The parameter sets whose grade at object index i dominates beta."""
    return [fs for fs in mapping.assignment if leq_bool(beta, fs.grades[i])]


def fuzzy_matrix(mapping: SoftMapping, beta: IntervalValue) -> Matrix:
    """The fuzzy neighborhood matrix of any mapping and beta, covering or not.

    Row i is the meet of the sets selected at object i, or the top row
    [1,1]^U when none is.
    """
    n = len(mapping.universe)
    rows = []
    for i in range(n):
        selected = _selected(mapping, beta, i)
        if not selected:
            rows.append(tuple(TOP for _ in range(n)))
            continue
        rows.append(tuple(map(family_meet, zip(*(fs.grades for fs in selected)))))
    return tuple(rows)


def _cuts(matrix: Matrix, beta: IntervalValue) -> Tuple[frozenset, ...]:
    """Index set of the beta-cut of each row."""
    return tuple(frozenset(j for j, g in enumerate(row) if leq_bool(beta, g)) for row in matrix)


# Entry-wise combination of N and M giving the kind-3 and kind-4 kernels.
_COMBINE = {3: meet, 4: join}


class NeighborhoodSystem:
    """Eagerly computed neighborhood matrices for one space.

    Rows, their transposes and both crisp index sets are computed once at
    construction; the per-kind kernels of the upper operators are built
    on first use and kept.
    """

    def __init__(self, space: SoftSpace):
        self.space = space
        mapping, beta = space.mapping, space.beta
        self._n = fuzzy_matrix(mapping, beta)
        self._m = tuple(zip(*self._n))
        self._crisp = _cuts(self._n, beta)
        self._crisp_co = _cuts(self._m, beta)
        self.empty_index_objects = frozenset(
            obj for i, obj in enumerate(space.universe.objects) if not _selected(mapping, beta, i)
        )
        self._kernels = {1: self._n, 2: self._m}

    # -- fuzzy accessors -------------------------------------------------

    @property
    def matrix(self) -> Matrix:
        """The fuzzy neighborhood matrix: row i is N of the i-th object."""
        return self._n

    def kernel(self, kind) -> Matrix:
        """Upper-operator kernel matrix of a kind: N, its transpose M, N meet M, N join M.

        ``kind`` is a ``Kind`` or its number 1..4; anything else is rejected.
        """
        kind = getattr(kind, "value", kind)
        if kind not in self._kernels:
            if kind not in _COMBINE:
                raise ValueError(f"kind must be 1, 2, 3 or 4, got {kind!r}")
            self._kernels[kind] = tuple(
                tuple(map(_COMBINE[kind], r1, r2)) for r1, r2 in zip(self._n, self._m)
            )
        return self._kernels[kind]

    def fuzzy_neighborhood(self, obj: str) -> IVFuzzySet:
        return IVFuzzySet(self.space.universe, self._n[self.space.universe.index(obj)])

    def complementary_fuzzy_neighborhood(self, obj: str) -> IVFuzzySet:
        return IVFuzzySet(self.space.universe, self._m[self.space.universe.index(obj)])

    # -- crisp accessors -------------------------------------------------

    @property
    def crisp_sets(self) -> Tuple[frozenset, ...]:
        """Index set of each object's crisp neighborhood."""
        return self._crisp

    @property
    def complementary_crisp_sets(self) -> Tuple[frozenset, ...]:
        """Index set of each object's crisp complementary neighborhood."""
        return self._crisp_co

    def crisp_neighborhood(self, obj: str) -> CrispSubset:
        u = self.space.universe
        return CrispSubset(u, frozenset(u.objects[j] for j in self._crisp[u.index(obj)]))

    def complementary_crisp_neighborhood(self, obj: str) -> CrispSubset:
        u = self.space.universe
        return CrispSubset(u, frozenset(u.objects[j] for j in self._crisp_co[u.index(obj)]))

    def matrix_json(self) -> Dict[str, Dict[str, str]]:
        """Full fuzzy grade matrix as nested text literals."""
        u = self.space.universe.objects
        return {
            x: {y: self._n[i][j].text() for j, y in enumerate(u)}
            for i, x in enumerate(u)
        }
