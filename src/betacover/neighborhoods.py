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
cut per parameter.  The same holds at every level t (the resolution
identity of fuzzy sets).

Each reader has one view of the fuzzy neighborhoods.  The operators read
``LevelCuts``: for each object, the objects whose kernel grade is >= t,
as bitmasks built from per-parameter t-cuts at the levels a search
reads, and never the n x n kernel.  The audit's laws and the hypothesis
sampler read N's code rows (``code_rows``, kept by the system under the
same name).  The documents that print grades read them decoded
(``matrix`` and the per-object neighborhoods).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, reduce
from itertools import accumulate, compress
from operator import and_, or_
from typing import Callable, Dict, List, Sequence, Tuple

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


def code_rows(mapping: SoftMapping, beta: IntervalValue) -> Tuple[_CodeMatrix, _CodeMatrix]:
    """N's low and high code rows under ``mapping.codes``, for any mapping and beta.

    Row i is the meet of the sets whose grade at object i dominates beta,
    or the top row [1,1]^U when no set does; the mapping need not cover beta.
    """
    b_lo, b_hi = mapping.codes.at_least(beta)
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


def _at_least(row: Sequence[int]) -> Tuple[List[int], List[int]]:
    """``(levels, above)`` of a code row: its distinct codes in ascending order, and
    ``above[k]`` the bitmask of its entries >= ``levels[k]`` (``above[-1]`` is 0), so
    that the entries >= t are ``above[bisect_left(levels, t)]``.
    """
    at: Dict[int, int] = {}
    for j, c in enumerate(row):
        at[c] = at.get(c, 0) | 1 << j
    levels = sorted(at)
    above = list(accumulate(map(at.__getitem__, reversed(levels)), or_, initial=0))
    above.reverse()
    return levels, above


class _Lazy(dict):
    """Values by key, each built by ``build(key)`` when first read, and kept."""

    __slots__ = ("_build",)

    def __init__(self, build: Callable):
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


# A trial of the audit reads at most 37 distinct target rows per code table,
# each about five times (measured on 300 trials of each criterion-2
# configuration); the eight operators of ``approximate`` read four.
_TARGETS_KEPT = 64


class LevelCuts:
    """The level cuts of a system's four kernels under one code table.

    Built by ``NeighborhoodSystem.encode`` only.  ``masks(half)[t * n + i]``
    holds, for kinds 1..4 in order, the bitmask of the y with K(x_i, y) >=
    t, on the low (half 0) or the high (half 1) codes, K being the kind's
    kernel and n the number of objects.  A t-cut of a meet is the
    intersection of the t-cuts, so the kind-1 mask is the intersection of
    the t-cuts of the parameters selected at x_i, or every object when none
    is.  M(x, y) is N(y, x), so the kind-2 mask is the complement of the
    union of the beta-cuts of the parameters whose grade at x_i is below t.
    The kind-3 mask is the intersection of the two, the kind-4 mask their
    union.  A parameter's t-cut is read by bisection from its ``_at_least``
    table.  The parameters' cuts at a level and the masks at a (level,
    object) are computed when a search first reads them, and kept, so the
    memory held is O(m n) masks per half, plus m masks per level read and
    four per (level, object) read; a target's table is O(n) masks.
    """

    def __init__(
        self, codes: Codes, sets: Sequence[Tuple[Tuple[int, ...], ...]], cuts: Tuple[int, ...]
    ):
        """Level cuts under ``codes`` of the parameter code rows ``sets``, beta-cut as ``cuts``."""
        self.codes = codes
        self._halves = tuple(zip(*sets))  # per half, each parameter's code row
        self._cuts = cuts
        n = self.n = len(sets[0][0])
        self._full = (1 << n) - 1
        # Per object, the parameters whose beta-cut holds it: its index set.
        self._selected = tuple(
            tuple(e for e, c in enumerate(cuts) if c >> i & 1) for i in range(n)
        )
        self._masks: Dict[int, _Lazy] = {}
        self._diagonals: Dict[int, Tuple[int, ...]] = {}
        self._targets: Dict[Tuple[int, ...], Tuple[List[int], List[int]]] = {}

    def masks(self, half: int) -> Dict[int, Tuple[int, int, int, int]]:
        """The four kinds' masks on a half, keyed by ``t * n + i``, each built when first read."""
        masks = self._masks.get(half)
        if masks is None:
            masks = self._masks[half] = _Lazy(self._builder(half))
        return masks

    def diagonal(self, half: int) -> Tuple[int, ...]:
        """N(x_i, x_i) per object on a half, which M, N meet M and N join M share."""
        diagonal = self._diagonals.get(half)
        if diagonal is None:
            top, columns = self.codes.top, zip(*self._halves[half])
            diagonal = self._diagonals[half] = tuple(
                min(map(grades.__getitem__, selected), default=top)
                for grades, selected in zip(columns, self._selected)
            )
        return diagonal

    def target_cuts(self, row: Tuple[int, ...]) -> Tuple[List[int], List[int]]:
        """The ``_at_least`` table of a target's code row, kept for the last ``_TARGETS_KEPT``."""
        table = self._targets.get(row)
        if table is None:
            if len(self._targets) == _TARGETS_KEPT:
                del self._targets[next(iter(self._targets))]
            table = self._targets[row] = _at_least(row)
        return table

    def _builder(self, half: int) -> Callable[[int], Tuple[int, int, int, int]]:
        n, full, cuts, selected = self.n, self._full, self._cuts, self._selected
        tables = [_at_least(p) for p in self._halves[half]]
        at = _Lazy(lambda t: [above[bisect_left(levels, t)] for levels, above in tables])
        columns = tuple(zip(*self._halves[half]))

        def build(key: int) -> Tuple[int, int, int, int]:
            t, i = divmod(key, n)
            meet = reduce(and_, map(at[t].__getitem__, selected[i]), full)
            co = full ^ reduce(or_, compress(cuts, map(t.__gt__, columns[i])), 0)
            return meet, co, meet & co, meet | co

        return build


class NeighborhoodSystem:
    """The neighborhoods of one space, on its mapping's endpoint codes.

    The crisp sets come from the per-parameter beta-cuts ``c_s``, bitmasks
    built at construction: a beta-cut of a meet is the intersection of the
    cuts, so x's crisp neighborhood is the intersection of the ``c_s`` that
    hold x, its crisp complementary neighborhood the intersection of the
    complements of those that do not, and x has an empty index set when no
    ``c_s`` holds it.  The fuzzy neighborhoods have one view per reader,
    each built on first use and kept: the level cuts of ``encode`` for the
    operators, with the last fuzzy target kept with its codes and their
    level cuts (``target_codes``); N's ``code_rows`` for the audit's laws
    and the hypothesis sampler; and ``matrix``, decoded from the rows, for
    the documents that print grades.  No operator reads the rows.
    """

    def __init__(self, space: SoftSpace):
        self.space = space
        self._codes = space.mapping.codes
        self._beta = self._codes.at_least(space.beta)
        n = len(space.universe)
        self._sets = space.mapping.set_codes
        cuts = self._cuts = tuple(self.cut(*s) for s in self._sets)
        full = (1 << n) - 1
        self._crisp = tuple(reduce(and_, (c for c in cuts if c >> i & 1), full) for i in range(n))
        self._crisp_co = tuple(
            reduce(and_, (full ^ c for c in cuts if not c >> i & 1), full) for i in range(n)
        )
        covered = reduce(or_, cuts)
        self.empty_index_objects = frozenset(
            o for i, o in enumerate(space.universe.objects) if not covered >> i & 1
        )
        self._level_cuts = self._target = self._target_codes = None

    @property
    def codes(self) -> Codes:
        """The endpoint codes of the space's grades: its mapping's ``codes``."""
        return self._codes

    def cut(self, lows: Tuple[int, ...], highs: Tuple[int, ...]) -> int:
        """Bitmask of the entries of a code row that dominate beta."""
        b_lo, b_hi = self._beta
        return sum(1 << j for j, (a, b) in enumerate(zip(lows, highs)) if a >= b_lo and b >= b_hi)

    def encode(
        self, grades: Sequence[IntervalValue]
    ) -> Tuple[LevelCuts, Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """``(cuts, (lows, highs))``: level cuts under codes numbering the grades, and their codes.

        The table is the space's own when it numbers every endpoint of the
        grades, with its level cuts built on the first call and kept;
        otherwise it is ``codes.widen``'s, with level cuts of its own.
        """
        try:
            x = self._codes.encode(grades)
        except KeyError:  # an endpoint the space's codes do not number
            codes, remap = self._codes.widen(grades)
            sets = [tuple(tuple(map(remap.__getitem__, half)) for half in s) for s in self._sets]
            cuts = LevelCuts(codes, sets, self._cuts)
            return cuts, codes.encode(grades)
        if self._level_cuts is None:
            self._level_cuts = LevelCuts(self._codes, self._sets, self._cuts)
        return self._level_cuts, x

    def target_codes(
        self, target: IVFuzzySet
    ) -> Tuple[LevelCuts, Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """``encode(target.grades)``, for the last target kept by reference.

        The target is known again by identity: an ``IVFuzzySet`` never changes.
        """
        if target is not self._target:
            self._target, self._target_codes = target, self.encode(target.grades)
        return self._target_codes

    @cached_property
    def code_rows(self) -> Tuple[_CodeMatrix, _CodeMatrix]:
        """N's low and high code rows under ``codes``: row i is N of the i-th object."""
        return code_rows(self.space.mapping, self.space.beta)

    @cached_property
    def matrix(self) -> Matrix:
        """The fuzzy neighborhood matrix decoded from ``code_rows``: row i is N of object i."""
        return tuple(map(self._codes.decode, *self.code_rows))

    def fuzzy_neighborhood(self, obj: str) -> IVFuzzySet:
        return IVFuzzySet(self.space.universe, self.matrix[self.space.universe.index(obj)])

    def complementary_fuzzy_neighborhood(self, obj: str) -> IVFuzzySet:
        i = self.space.universe.index(obj)
        return IVFuzzySet(self.space.universe, tuple(row[i] for row in self.matrix))

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
