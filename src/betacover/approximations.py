"""Four kinds of lower/upper approximation operators, fuzzy and crisp.

Only the upper operators are computed.  The fuzzy upper operator folds
a per-kind kernel over the universe: kind 1 uses the fuzzy neighborhood
N, kind 2 its transpose M, kind 3 their meet and kind 4 their join
(``NeighborhoodSystem.kernel``).  The crisp upper operator keeps the
objects whose crisp neighborhood (kind 1), complementary neighborhood
(kind 2), both (kind 3) or either (kind 4) meets the target.

Each lower operator is the dual of its upper operator,
lower(X) = upper(X^c)^c, for both modes and all four kinds, with the
complements taken on raw endpoints or index sets.  In the
kind-4 fuzzy case this reads ``((N or M) and X)`` for the upper kernel,
so the lower kernel is ``((N^c and M^c) or X)``: the reading under
which lower4 = lower1 meet lower2 and upper4 = upper1 join upper2 hold,
as the audit asserts.  The duality laws (A*-P2, CA*-P6) therefore hold
here by construction; the definition-literal slow path in
``betacover.oracle`` computes both operators independently and is the
cross-check for the lower ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .errors import UniverseMismatchError
from .fuzzysets import CrispSubset, IVFuzzySet
from .intervals import IntervalValue
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


def _upper_bounds(
    ns: NeighborhoodSystem, kind: Kind, los: List[Fraction], his: List[Fraction]
) -> List[Tuple[Fraction, Fraction]]:
    """Per-object join over y of (kernel(y) and X(y)), X given by its endpoint lists."""
    base = ns.kernel(kind)
    n = len(los)
    out = []
    for i in range(n):
        row = base[i]
        acc_lo = acc_hi = None
        for j in range(n):
            b = row[j]
            vlo = b.lo if b.lo < los[j] else los[j]
            vhi = b.hi if b.hi < his[j] else his[j]
            if acc_lo is None or vlo > acc_lo:
                acc_lo = vlo
            if acc_hi is None or vhi > acc_hi:
                acc_hi = vhi
        out.append((acc_lo, acc_hi))
    return out


def _meets(ns: NeighborhoodSystem, kind: Kind, idx: frozenset) -> List[bool]:
    """Per object: whether its crisp neighborhoods of the kind meet the index set."""
    out = []
    for i, crisp in enumerate(ns.crisp_sets):
        n_hits = bool(crisp & idx)
        if kind is Kind.K1:
            out.append(n_hits)
            continue
        m_hits = bool(ns.complementary_crisp_sets[i] & idx)
        if kind is Kind.K2:
            out.append(m_hits)
        elif kind is Kind.K3:
            out.append(n_hits and m_hits)
        else:
            out.append(n_hits or m_hits)
    return out


def fuzzy_lower(
    space: SoftSpace,
    kind: Union[int, Kind],
    target: IVFuzzySet,
    system: Optional[NeighborhoodSystem] = None,
) -> IVFuzzySet:
    """Dual of the upper operator, lower(X) = upper(X^c)^c, on raw endpoints."""
    kind = Kind.of(kind)
    _check_universe(space, target)
    ns = _system(space, system)
    grades = target.grades
    bounds = _upper_bounds(ns, kind, [1 - g.hi for g in grades], [1 - g.lo for g in grades])
    return IVFuzzySet(space.universe, tuple(IntervalValue(1 - hi, 1 - lo) for lo, hi in bounds))


def fuzzy_upper(
    space: SoftSpace,
    kind: Union[int, Kind],
    target: IVFuzzySet,
    system: Optional[NeighborhoodSystem] = None,
) -> IVFuzzySet:
    """Per-object join over y of (kernel(y) and target(y))."""
    kind = Kind.of(kind)
    _check_universe(space, target)
    ns = _system(space, system)
    grades = target.grades
    bounds = _upper_bounds(ns, kind, [g.lo for g in grades], [g.hi for g in grades])
    return IVFuzzySet(space.universe, tuple(IntervalValue(lo, hi) for lo, hi in bounds))


def crisp_lower(
    space: SoftSpace,
    kind: Union[int, Kind],
    target: CrispSubset,
    system: Optional[NeighborhoodSystem] = None,
) -> CrispSubset:
    """Dual of the upper operator: objects whose neighborhoods miss X^c."""
    kind = Kind.of(kind)
    _check_universe(space, target)
    ns = _system(space, system)
    u = space.universe
    outside = frozenset(i for i, o in enumerate(u.objects) if o not in target.members)
    hits = _meets(ns, kind, outside)
    return CrispSubset(u, frozenset(o for o, hit in zip(u.objects, hits) if not hit))


def crisp_upper(
    space: SoftSpace,
    kind: Union[int, Kind],
    target: CrispSubset,
    system: Optional[NeighborhoodSystem] = None,
) -> CrispSubset:
    """Objects whose crisp neighborhoods of the kind meet the target."""
    kind = Kind.of(kind)
    _check_universe(space, target)
    ns = _system(space, system)
    u = space.universe
    inside = frozenset(u.index(o) for o in target.members)
    hits = _meets(ns, kind, inside)
    return CrispSubset(u, frozenset(o for o, hit in zip(u.objects, hits) if hit))


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


def is_definable(
    space: SoftSpace,
    kind: Union[int, Kind],
    target: Target,
    system: Optional[NeighborhoodSystem] = None,
) -> bool:
    """True iff the lower and upper approximations coincide exactly."""
    return approximate(space, kind, target, system).definable
