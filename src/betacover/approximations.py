"""Four kinds of lower/upper approximation operators, fuzzy and crisp.

Only the upper operators are computed, on endpoint codes and bitmasks.
The fuzzy upper operator gives each object the join over y of ``K(x, y)
meet X(y)``, the kernel K being N (kind 1), its transpose M (kind 2),
N meet M (kind 3) or N join M (kind 4), on the low and on the high codes.
That join is >= t exactly when some y has both K(x, y) >= t and
X(y) >= t, so each object's code is the largest t at which its kernel
row's t-cut meets X's t-cut, found by binary search on the
``NeighborhoodSystem``'s ``LevelCuts``; no kernel matrix is built.  The
crisp upper operator keeps the objects whose crisp neighborhood (kind
1), complementary neighborhood (kind 2), both (kind 3) or either (kind
4) meets the target.  A target with an endpoint the space's codes do
not number (one on a finer grid, say) widens the codes for that target.
The ``NeighborhoodSystem`` encodes a target, widening if need be, once
for as long as it is the system's last target (``target_codes``), so
the eight fuzzy operators on one target encode it once.

``fuzzy_on_codes`` and ``crisp_on_mask`` are the operators on codes and
bitmasks themselves, for a caller that keeps its sets in that form (the
audit does); the four public operators encode a target, call them and
decode the result.

Each lower operator is the literal dual lower(X) = upper(X^c)^c of its
upper operator, on the target's codes or mask.  In the kind-4 fuzzy case
the upper kernel reads ``((N or M) and X)``, so the lower kernel is
``((N^c and M^c) or X)``: the reading under which lower4 = lower1 meet
lower2 and upper4 = upper1 join upper2 hold, as the audit asserts.  The
duality laws hold here by construction; ``betacover.oracle`` computes
both operators from their definitions and is the cross-check.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import compress, count, repeat
from operator import and_, or_
from typing import Iterator, Optional, Tuple, Union

from .errors import UniverseMismatchError
from .fuzzysets import CrispSubset, IVFuzzySet
from .neighborhoods import LevelCuts, NeighborhoodSystem
from .space import SoftSpace


class Kind(Enum):
    K1 = 1
    K2 = 2
    K3 = 3
    K4 = 4

    @classmethod
    def of(cls, value: Union[int, str, "Kind"]) -> "Kind":
        """The kind of a ``Kind``, a plain int 1..4 or its string; ValueError for anything else."""
        if isinstance(value, Kind):
            return value
        # Checked by type: True, 1.0 and 1.5 would otherwise hash their way to K1.
        kind = _KINDS.get(value) if type(value) in (int, str) else None
        if kind is None:
            raise ValueError(f"kind must be 1, 2, 3 or 4, got {value!r}")
        return kind


_KINDS = {key: kind for kind in Kind for key in (kind.value, str(kind.value))}


Target = Union[IVFuzzySet, CrispSubset]


@dataclass(frozen=True)
class ApproximationPair:
    lower: Target
    upper: Target
    kind: Kind
    mode: str  # "fuzzy" | "crisp"
    definable: bool


def _prepare(space: SoftSpace, kind, target: Target, system) -> Tuple[Kind, NeighborhoodSystem]:
    """The kind, and the space's neighborhood system, for a target over the space's universe."""
    kind = Kind.of(kind)
    if target.universe != space.universe:
        raise UniverseMismatchError("target set is over a different universe")
    if system is None:
        return kind, NeighborhoodSystem(space)
    if system.space is not space and system.space != space:
        raise ValueError("neighborhood system belongs to a different space")
    return kind, system


def _upper_half(cuts: LevelCuts, kind: int, half: int, x: Tuple[int, ...]) -> Tuple[int, ...]:
    """Per object x_i, on one half: the largest t <= max(x) whose kernel row meets x's t-cut.

    The join over y of (K(x_i, y) meet x(y)) is >= t exactly when some y
    has both >= t, and both cuts shrink as t grows, so t is found by
    binary search.
    """
    levels, above = cuts.target_cuts(x)
    masks, n, top, k = cuts.masks(half), cuts.n, levels[-1], kind - 1
    upper = []
    for i, diagonal, own in zip(count(), cuts.diagonal(half), x):
        # y = x_i gives K(x_i, x_i) meet x(x_i), so the search starts there.
        lo, hi = (diagonal if diagonal < own else own), top
        while lo < hi:
            t = (lo + hi + 1) >> 1
            if masks[t * n + i][k] & above[bisect_left(levels, t)]:
                lo = t
            else:
                hi = t - 1
        upper.append(lo)
    return tuple(upper)


def fuzzy_on_codes(cuts: LevelCuts, kind, target, lower: bool = False):
    """The fuzzy upper approximation of a target, or its dual lower one, on endpoint codes.

    ``cuts`` are the level cuts under a code table (``NeighborhoodSystem.
    target_codes``), ``kind`` a ``Kind`` or its number, and ``target`` the
    ``(lows, highs)`` code tuples of a fuzzy set under ``cuts.codes``; so is
    the result.
    """
    if lower:
        complement = cuts.codes.complement
        return complement(*fuzzy_on_codes(cuts, kind, complement(*target)))
    kind = Kind.of(kind).value
    return tuple(_upper_half(cuts, kind, half, x) for half, x in enumerate(target))


# How an object's two hits - its crisp neighborhood meets the target, its
# complementary neighborhood does - combine into the hit of each kind.
_HITS = {
    Kind.K1: lambda n_hit, m_hit: n_hit,
    Kind.K2: lambda n_hit, m_hit: m_hit,
    Kind.K3: and_,
    Kind.K4: or_,
}


def _crisp_hits(ns: NeighborhoodSystem, kind: Kind, target: int) -> Iterator[bool]:
    """Per object, whether its crisp neighborhoods of the kind meet the target's bitmask."""
    n_hits = map(bool, map(and_, ns.crisp_sets, repeat(target)))
    m_hits = map(bool, map(and_, ns.complementary_crisp_sets, repeat(target)))
    return map(_HITS[kind], n_hits, m_hits)


def crisp_on_mask(ns: NeighborhoodSystem, kind: Kind, target: int, lower: bool = False) -> int:
    """The crisp upper approximation of a bitmask target, or its dual lower one, as a bitmask."""
    if lower:
        full = (1 << len(ns.crisp_sets)) - 1
        return full ^ crisp_on_mask(ns, kind, full ^ target)
    return sum(compress(map((1).__lshift__, count()), _crisp_hits(ns, kind, target)))


def _fuzzy(space, kind, target: IVFuzzySet, system, lower: bool) -> IVFuzzySet:
    """The fuzzy upper approximation of a target, or its dual lower one, decoded."""
    kind, ns = _prepare(space, kind, target, system)
    cuts, x = ns.target_codes(target)
    return IVFuzzySet(target.universe, cuts.codes.decode(*fuzzy_on_codes(cuts, kind, x, lower)))


def fuzzy_lower(
    space: SoftSpace,
    kind: Union[int, Kind],
    target: IVFuzzySet,
    system: Optional[NeighborhoodSystem] = None,
) -> IVFuzzySet:
    """Dual of the upper operator: lower(X) = upper(X^c)^c."""
    return _fuzzy(space, kind, target, system, lower=True)


def fuzzy_upper(
    space: SoftSpace,
    kind: Union[int, Kind],
    target: IVFuzzySet,
    system: Optional[NeighborhoodSystem] = None,
) -> IVFuzzySet:
    """Per-object join over y of (kernel(y) and target(y))."""
    return _fuzzy(space, kind, target, system, lower=False)


def crisp_lower(
    space: SoftSpace,
    kind: Union[int, Kind],
    target: CrispSubset,
    system: Optional[NeighborhoodSystem] = None,
) -> CrispSubset:
    """Dual of the upper operator: lower(X) = upper(X^c)^c."""
    kind, ns = _prepare(space, kind, target, system)
    return CrispSubset.from_mask(target.universe, crisp_on_mask(ns, kind, target.mask(), True))


def crisp_upper(
    space: SoftSpace,
    kind: Union[int, Kind],
    target: CrispSubset,
    system: Optional[NeighborhoodSystem] = None,
) -> CrispSubset:
    """Objects whose crisp neighborhoods of the kind meet the target."""
    kind, ns = _prepare(space, kind, target, system)
    return CrispSubset.from_mask(target.universe, crisp_on_mask(ns, kind, target.mask(), False))


def approximate(
    space: SoftSpace,
    kind: Union[int, Kind],
    target: Target,
    system: Optional[NeighborhoodSystem] = None,
) -> ApproximationPair:
    """Lower/upper pair plus the definability verdict for either mode."""
    kind, ns = _prepare(space, kind, target, system)
    if isinstance(target, IVFuzzySet):
        lower = fuzzy_lower(space, kind, target, ns)
        upper = fuzzy_upper(space, kind, target, ns)
        mode = "fuzzy"
    else:
        lower = crisp_lower(space, kind, target, ns)
        upper = crisp_upper(space, kind, target, ns)
        mode = "crisp"
    return ApproximationPair(lower, upper, kind, mode, definable=lower == upper)
