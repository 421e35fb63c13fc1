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
thresholding applied to the transpose.  Every neighborhood is read from
a ``NeighborhoodSystem``, built once per space on its mapping's endpoint
code table (``SoftMapping.codes``), with beta placed among the codes by
``Codes.at_least``: a row is the int ``min`` of the selected sets' codes
and a crisp set a bitmask with bit j for object j.  A beta-cut of a meet
is the intersection of the beta-cuts, so the crisp sets follow from one
cut per parameter and the fuzzy rows are built only when first read;
the ``IntervalValue`` matrices are decoded when first read too.
``fuzzy_matrix`` gives the fuzzy matrix alone, for any mapping and beta.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Dict, List, Optional, Sequence, Tuple

from .fuzzysets import CrispSubset, IVFuzzySet
from .intervals import Codes, IntervalValue, leq_bool
from .space import SoftMapping, SoftSpace


def crisp_of(g: IVFuzzySet, beta: IntervalValue) -> CrispSubset:
    """{y : beta <= g(y)} - the beta-cut of an arbitrary fuzzy set."""
    return CrispSubset(
        g.universe,
        frozenset(o for o, v in zip(g.universe.objects, g.grades) if leq_bool(beta, v)),
    )


Matrix = Tuple[Tuple[IntervalValue, ...], ...]
_CodeMatrix = Tuple[Tuple[int, ...], ...]


def _code_rows(mapping: SoftMapping, beta: Tuple[int, int]) -> Tuple[_CodeMatrix, _CodeMatrix]:
    """The low and high code rows, under ``mapping.codes``, for beta's ``Codes.at_least`` codes.

    Row i is the meet of the sets whose grade at object i dominates beta,
    or the top row [1,1]^U when no set does.
    """
    b_lo, b_hi = beta
    sets = mapping.set_codes
    top_row = (mapping.codes.top,) * len(mapping.universe)
    lows, highs = [], []
    for i in range(len(mapping.universe)):
        selected = [s for s in sets if s[0][i] >= b_lo and s[1][i] >= b_hi]
        if not selected:
            selected = [(top_row, top_row)]
        # The first set is passed twice, so that a lone set still gives min two arguments.
        lows.append(tuple(map(min, selected[0][0], *(lo for lo, _ in selected))))
        highs.append(tuple(map(min, selected[0][1], *(hi for _, hi in selected))))
    return tuple(lows), tuple(highs)


def fuzzy_matrix(mapping: SoftMapping, beta: IntervalValue) -> Matrix:
    """The fuzzy neighborhood matrix of any mapping and beta, covering or not."""
    return tuple(map(mapping.codes.decode, *_code_rows(mapping, mapping.codes.at_least(beta))))


# Entry-wise combination of N and M giving the kind-3 and kind-4 kernels.
_COMBINE = {3: min, 4: max}


def _kind_number(kind) -> int:
    """The number 1..4 of a ``Kind`` or of a plain int; ValueError for anything else."""
    number = getattr(kind, "value", kind)
    # Checked by type: True and 1.0 would otherwise hash their way to kind 1.
    if type(number) is not int or not 1 <= number <= 4:
        raise ValueError(f"kind must be 1, 2, 3 or 4, got {kind!r}")
    return number


class NeighborhoodSystem:
    """Neighborhood matrices of one space, on its mapping's endpoint codes.

    The crisp sets come from the per-parameter beta-cuts ``c_s``, bitmasks
    built at construction: a beta-cut of a meet is the intersection of the
    cuts, so x's crisp neighborhood is the intersection of the ``c_s`` that
    hold x, its crisp complementary neighborhood the intersection of the
    complements of those that do not, and x has an empty index set when no
    ``c_s`` holds it.  The fuzzy code rows and their transposes are built on
    the first ``kernel_codes`` call, so a crisp-only caller never builds
    them; the kind-3 and kind-4 kernels and the decoded matrices on first
    use too.  The codes of the last fuzzy target are kept (``target_codes``).
    """

    def __init__(self, space: SoftSpace):
        self.space = space
        self._codes = space.mapping.codes
        self._beta = self._codes.at_least(space.beta)
        n, cuts = len(space.universe), [self.cut(*s) for s in space.mapping.set_codes]
        full = (1 << n) - 1
        self._crisp = tuple(reduce(and_, (c for c in cuts if c >> i & 1), full) for i in range(n))
        self._crisp_co = tuple(
            reduce(and_, (full ^ c for c in cuts if not c >> i & 1), full) for i in range(n)
        )
        covered = reduce(or_, cuts)
        self.empty_index_objects = frozenset(
            o for i, o in enumerate(space.universe.objects) if not covered >> i & 1
        )
        self._kernel_codes = {}
        self._kernels = {}
        self._target = self._target_codes = None

    @property
    def codes(self) -> Codes:
        """The endpoint codes of the space's grades: its mapping's ``codes``."""
        return self._codes

    def cut(self, lows: Tuple[int, ...], highs: Tuple[int, ...]) -> int:
        """Bitmask of the entries of a code row that dominate beta."""
        b_lo, b_hi = self._beta
        return sum(1 << j for j, (a, b) in enumerate(zip(lows, highs)) if a >= b_lo and b >= b_hi)

    def target_codes(
        self, target: IVFuzzySet
    ) -> Tuple[Codes, Optional[List[int]], Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """``(codes, remap, (lows, highs))``: a code table for the target, and the target's codes.

        ``codes`` is the space's own table and ``remap`` None when that table
        numbers every endpoint of the target; otherwise both come from
        ``codes.widen``.  The last target is kept, by reference, and known
        again by identity: an ``IVFuzzySet`` never changes.
        """
        if target is not self._target:
            codes, remap = self._codes, None
            try:
                x = codes.encode(target.grades)
            except KeyError:  # an endpoint the space's codes do not number
                codes, remap = codes.widen(target.grades)
                x = codes.encode(target.grades)
            self._target, self._target_codes = target, (codes, remap, x)
        return self._target_codes

    def kernel_codes(
        self, kind, remap: Optional[Sequence[int]] = None
    ) -> Tuple[_CodeMatrix, _CodeMatrix]:
        """Low and high codes of a kind's kernel: N, its transpose M, N meet M, N join M.

        ``kind`` is a ``Kind`` or its number 1..4 as an int; anything else is
        rejected.  Given the ``remap`` of a widening of ``codes``
        (``Codes.widen``), the codes are those of the wider table.
        """
        kind = _kind_number(kind)
        if not self._kernel_codes:
            n = _code_rows(self.space.mapping, self._beta)
            self._kernel_codes = {1: n, 2: tuple(tuple(zip(*half)) for half in n)}
        if kind not in self._kernel_codes:
            self._kernel_codes[kind] = tuple(
                tuple(tuple(map(_COMBINE[kind], r1, r2)) for r1, r2 in zip(n, m))
                for n, m in zip(self._kernel_codes[1], self._kernel_codes[2])
            )
        kernel = self._kernel_codes[kind]
        if remap is None:
            return kernel
        return tuple(tuple(tuple(map(remap.__getitem__, row)) for row in half) for half in kernel)

    def kernel(self, kind) -> Matrix:
        """The ``IntervalValue`` matrix of ``kernel_codes(kind)``."""
        kind = _kind_number(kind)
        if kind not in self._kernels:
            self._kernels[kind] = tuple(map(self._codes.decode, *self.kernel_codes(kind)))
        return self._kernels[kind]

    @property
    def matrix(self) -> Matrix:
        """The fuzzy neighborhood matrix: row i is N of the i-th object."""
        return self.kernel(1)

    def fuzzy_neighborhood(self, obj: str) -> IVFuzzySet:
        return IVFuzzySet(self.space.universe, self.kernel(1)[self.space.universe.index(obj)])

    def complementary_fuzzy_neighborhood(self, obj: str) -> IVFuzzySet:
        return IVFuzzySet(self.space.universe, self.kernel(2)[self.space.universe.index(obj)])

    @property
    def crisp_sets(self) -> Tuple[int, ...]:
        """Bitmask of each object's crisp neighborhood: bit j for the j-th object."""
        return self._crisp

    @property
    def complementary_crisp_sets(self) -> Tuple[int, ...]:
        """Bitmask of each object's crisp complementary neighborhood."""
        return self._crisp_co

    def crisp_neighborhood(self, obj: str) -> CrispSubset:
        u = self.space.universe
        return CrispSubset.from_mask(u, self._crisp[u.index(obj)])

    def complementary_crisp_neighborhood(self, obj: str) -> CrispSubset:
        u = self.space.universe
        return CrispSubset.from_mask(u, self._crisp_co[u.index(obj)])

    def matrix_json(self) -> Dict[str, Dict[str, str]]:
        """Full fuzzy grade matrix as nested text literals."""
        u, n = self.space.universe.objects, self.matrix
        return {x: {y: n[i][j].text() for j, y in enumerate(u)} for i, x in enumerate(u)}
