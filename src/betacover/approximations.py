"""Four kinds of lower/upper approximation operators, fuzzy and crisp.

Only the upper operators are computed, as folds of the interval and set
layers.  The fuzzy upper operator gives each object the join over y of
``kernel(y) meet X(y)``, the kernel being the fuzzy neighborhood N (kind
1), its transpose M (kind 2), their meet (kind 3) or their join (kind 4).
The crisp upper operator keeps the objects whose crisp neighborhood
(kind 1), complementary neighborhood (kind 2), both (kind 3) or either
(kind 4) meets the target.

Each lower operator is the literal dual of its upper operator,
lower(X) = upper(X^c)^c, for both modes and all four kinds, through
``IVFuzzySet.complement`` and ``CrispSubset.complement``.  In the kind-4
fuzzy case this reads ``((N or M) and X)`` for the upper kernel, so the
lower kernel is ``((N^c and M^c) or X)``: the reading under which
lower4 = lower1 meet lower2 and upper4 = upper1 join upper2 hold, as the
audit asserts.  The duality laws (A*-P2, CA*-P6) therefore hold here by
construction; the definition-literal slow path in ``betacover.oracle``
computes both operators independently and is the cross-check for the
lower ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .errors import UniverseMismatchError
from .fuzzysets import CrispSubset, IVFuzzySet
from .intervals import family_join, meet
from .neighborhoods import NeighborhoodSystem
from .space import SoftSpace


class Kind(Enum):
    K1 = 1
    K2 = 2
    K3 = 3
    K4 = 4

    @classmethod
    def of(cls, value: Union[int, str, "Kind"]) -> "Kind":
        if isinstance(value, Kind):
            return value
        return cls(int(value))


Target = Union[IVFuzzySet, CrispSubset]


@dataclass(frozen=True)
class ApproximationPair:
    lower: Target
    upper: Target
    kind: Kind
    mode: str  # "fuzzy" | "crisp"
    definable: bool


def _system(space: SoftSpace, system: Optional[NeighborhoodSystem]) -> NeighborhoodSystem:
    if system is not None:
        if system.space is not space and system.space != space:
            raise ValueError("neighborhood system belongs to a different space")
        return system
    return NeighborhoodSystem(space)


def _check_universe(space: SoftSpace, target: Target) -> None:
    if target.universe != space.universe:
        raise UniverseMismatchError("target set is over a different universe")


def _fuzzy_upper(ns: NeighborhoodSystem, kind: Kind, target: IVFuzzySet) -> IVFuzzySet:
    """Per object: the join over y of (kernel(y) meet target(y))."""
    grades = target.grades
    return IVFuzzySet(
        target.universe, tuple(family_join(map(meet, row, grades)) for row in ns.kernel(kind))
    )


# How an object's two hits - its crisp neighborhood meets the target, its
# complementary neighborhood does - combine into the hit of each kind.
_HITS = {
    Kind.K1: lambda n_hit, m_hit: n_hit,
    Kind.K2: lambda n_hit, m_hit: m_hit,
    Kind.K3: lambda n_hit, m_hit: n_hit and m_hit,
    Kind.K4: lambda n_hit, m_hit: n_hit or m_hit,
}


def _crisp_upper(ns: NeighborhoodSystem, kind: Kind, target: CrispSubset) -> CrispSubset:
    """Objects whose crisp neighborhoods of the kind meet the target."""
    u = target.universe
    inside = frozenset(map(u.index, target.members))
    hits = _HITS[kind]
    return CrispSubset(u, frozenset(
        o for o, n, m in zip(u.objects, ns.crisp_sets, ns.complementary_crisp_sets)
        if hits(not inside.isdisjoint(n), not inside.isdisjoint(m))
    ))


def fuzzy_lower(
    space: SoftSpace,
    kind: Union[int, Kind],
    target: IVFuzzySet,
    system: Optional[NeighborhoodSystem] = None,
) -> IVFuzzySet:
    """Dual of the upper operator: lower(X) = upper(X^c)^c."""
    kind = Kind.of(kind)
    _check_universe(space, target)
    return _fuzzy_upper(_system(space, system), kind, target.complement()).complement()


def fuzzy_upper(
    space: SoftSpace,
    kind: Union[int, Kind],
    target: IVFuzzySet,
    system: Optional[NeighborhoodSystem] = None,
) -> IVFuzzySet:
    """Per-object join over y of (kernel(y) and target(y))."""
    kind = Kind.of(kind)
    _check_universe(space, target)
    return _fuzzy_upper(_system(space, system), kind, target)


def crisp_lower(
    space: SoftSpace,
    kind: Union[int, Kind],
    target: CrispSubset,
    system: Optional[NeighborhoodSystem] = None,
) -> CrispSubset:
    """Dual of the upper operator: lower(X) = upper(X^c)^c."""
    kind = Kind.of(kind)
    _check_universe(space, target)
    return _crisp_upper(_system(space, system), kind, target.complement()).complement()


def crisp_upper(
    space: SoftSpace,
    kind: Union[int, Kind],
    target: CrispSubset,
    system: Optional[NeighborhoodSystem] = None,
) -> CrispSubset:
    """Objects whose crisp neighborhoods of the kind meet the target."""
    kind = Kind.of(kind)
    _check_universe(space, target)
    return _crisp_upper(_system(space, system), kind, target)


def approximate(
    space: SoftSpace,
    kind: Union[int, Kind],
    target: Target,
    system: Optional[NeighborhoodSystem] = None,
) -> ApproximationPair:
    """Lower/upper pair plus the definability verdict for either mode."""
    kind = Kind.of(kind)
    ns = _system(space, system)
    if isinstance(target, IVFuzzySet):
        lower = fuzzy_lower(space, kind, target, ns)
        upper = fuzzy_upper(space, kind, target, ns)
        mode = "fuzzy"
    else:
        lower = crisp_lower(space, kind, target, ns)
        upper = crisp_upper(space, kind, target, ns)
        mode = "crisp"
    return ApproximationPair(lower, upper, kind, mode, definable=lower == upper)


def is_definable(space: SoftSpace, kind: Union[int, Kind], target: Target) -> bool:
    """True iff the lower and upper approximations coincide exactly."""
    return approximate(space, kind, target).definable
