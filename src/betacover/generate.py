"""Random and exhaustive generation of spaces and target sets.

All sampling is driven by explicit ``random.Random`` instances seeded
from strings, so identical seeds reproduce identical instances across
runs and platforms.  Endpoints are drawn from the rational grid
{0, 1/d, ..., 1}; complements and meets/joins stay on the grid, which
keeps exhaustive cross-checks tractable and every comparison exact.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Union

from .errors import NotACoveringError, RejectionBudgetExceededError
from .fuzzysets import CrispSubset, IVFuzzySet, Universe
from .intervals import IntervalValue, leq_bool
from .neighborhoods import NeighborhoodSystem
from .space import SoftMapping, SoftSpace, build_space, validate_beta_covering

_REJECT_BUDGET = 1000

BetaPolicy = Union[str, IntervalValue]
GradeTable = Dict[str, Dict[str, IntervalValue]]


@dataclass(frozen=True)
class GenConfig:
    """Knobs for random space generation."""

    universe_size: int = 3
    parameter_count: int = 3
    grid_denominator: int = 10
    beta_policy: BetaPolicy = "random"
    covering_policy: str = "repair"  # "repair" | "reject"
    seed: int = 0

    def __post_init__(self):
        if self.universe_size < 1 or self.parameter_count < 1:
            raise ValueError("universe_size and parameter_count must be >= 1")
        if self.grid_denominator < 1:
            raise ValueError("grid_denominator must be positive")
        if isinstance(self.beta_policy, str) and self.beta_policy != "random":
            raise ValueError("beta_policy must be 'random' or a fixed IntervalValue")
        if self.covering_policy not in ("repair", "reject"):
            raise ValueError("covering_policy must be 'repair' or 'reject'")


def object_names(n: int) -> List[str]:
    return [f"x{i + 1}" for i in range(n)]


def parameter_names(m: int) -> List[str]:
    return [f"e{i + 1}" for i in range(m)]


def sample_interval(rng: random.Random, d: int) -> IntervalValue:
    a = rng.randrange(d + 1)
    b = rng.randrange(d + 1)
    if a > b:
        a, b = b, a
    return IntervalValue(Fraction(a, d), Fraction(b, d))


def sample_fuzzy_set(universe: Universe, rng: random.Random, d: int) -> IVFuzzySet:
    return IVFuzzySet(universe, tuple(sample_interval(rng, d) for _ in universe))


def sample_crisp_subset(universe: Universe, rng: random.Random) -> CrispSubset:
    return CrispSubset.of(universe, [o for o in universe if rng.random() < 0.5])


def sample_beta_below(beta: IntervalValue, rng: random.Random, d: int) -> IntervalValue:
    """A grid interval <= beta in the product order (may equal beta)."""
    lo = Fraction(rng.randrange(_floor_to_grid(beta.lo, d) + 1), d)
    # hi must satisfy lo <= hi <= beta.hi
    first = _ceil_to_grid(lo, d)
    last = _floor_to_grid(beta.hi, d)
    if first > last:
        hi = beta.hi if beta.hi >= lo else lo
    else:
        hi = Fraction(rng.randrange(first, last + 1), d)
    return IntervalValue(lo, hi)


def _ceil_to_grid(v: Fraction, d: int) -> int:
    return -((-v.numerator * d) // v.denominator) if v else 0


def _floor_to_grid(v: Fraction, d: int) -> int:
    return (v.numerator * d) // v.denominator


def sample_hypothesis_set(
    ns: NeighborhoodSystem, rng: random.Random, d: int
) -> Optional[IVFuzzySet]:
    """Target satisfying N_x(x)^c <= X(x) <= N_x(x) at every object.

    Feasible at x iff lo + hi >= 1 for the diagonal grade [lo,hi]; the
    instance is rejected (None) when any object is infeasible.  Sampling
    stays on the 1/d grid when the diagonal does; otherwise the corner
    values themselves are used.
    """
    universe = ns.space.universe
    grades = []
    for i, row in enumerate(ns.matrix):
        diag = row[i]
        if diag.lo + diag.hi < 1:
            return None
        lo_first = _ceil_to_grid(1 - diag.hi, d)
        lo_last = _floor_to_grid(diag.lo, d)
        if lo_first > lo_last:
            x_lo = diag.lo
        else:
            x_lo = Fraction(rng.randrange(lo_first, lo_last + 1), d)
        hi_floor = max(1 - diag.lo, x_lo)
        hi_first = _ceil_to_grid(hi_floor, d)
        hi_last = _floor_to_grid(diag.hi, d)
        if hi_first > hi_last:
            x_hi = diag.hi
        else:
            x_hi = Fraction(rng.randrange(hi_first, hi_last + 1), d)
        grades.append(IntervalValue(x_lo, x_hi))
    return IVFuzzySet(universe, tuple(grades))


def gen_space(config: GenConfig) -> SoftSpace:
    """Deterministic random space for the config's seed.

    Under the reject policy, (grades, beta) pairs are resampled until the
    covering condition holds or the attempt budget runs out; under the
    repair policy the first parameter is joined with beta at failing
    objects.
    """
    rng = random.Random(f"betacover-space:{config.seed}")
    universe = Universe(tuple(object_names(config.universe_size)))
    params = parameter_names(config.parameter_count)
    d = config.grid_denominator

    for attempt in range(_REJECT_BUDGET):
        table = {
            p: {o: sample_interval(rng, d) for o in universe.objects} for p in params
        }
        mapping = SoftMapping.from_dict(universe, table)
        if isinstance(config.beta_policy, IntervalValue):
            beta = config.beta_policy
        else:
            beta = sample_interval(rng, d)
        if config.covering_policy == "repair":
            return build_space(mapping, beta, ("repair", params[0]))
        if validate_beta_covering(mapping, beta).ok:
            return SoftSpace(mapping, beta)
    raise RejectionBudgetExceededError(
        f"no valid covering found in {_REJECT_BUDGET} attempts (seed {config.seed})"
    )


def grid_intervals(d: int) -> List[IntervalValue]:
    """All intervals with endpoints on the 1/d grid, lo <= hi."""
    points = [Fraction(k, d) for k in range(d + 1)]
    return [
        IntervalValue(a, b) for a, b in itertools.combinations_with_replacement(points, 2)
    ]


def exhaustive_spaces(
    max_universe: int, max_params: int, grid_denominator: int
) -> Iterator[SoftSpace]:
    """Every valid space with the given bounds, largest grid only.

    Coarser grids embed in the finest one, so enumerating endpoints on
    the 1/grid_denominator grid covers them all.
    """
    intervals = grid_intervals(grid_denominator)
    for n in range(1, max_universe + 1):
        universe = Universe(tuple(object_names(n)))
        for m in range(1, max_params + 1):
            params = parameter_names(m)
            cells = [(p, o) for p in params for o in universe.objects]
            for combo in itertools.product(intervals, repeat=len(cells)):
                table = {p: {} for p in params}
                for (p, o), grade in zip(cells, combo):
                    table[p][o] = grade
                mapping = SoftMapping.from_dict(universe, table)
                joins = [mapping.join_at(o) for o in universe.objects]
                for beta in intervals:
                    if all(leq_bool(beta, j) for j in joins):
                        yield SoftSpace(mapping, beta)


# -- shrinking helpers -------------------------------------------------------


def grade_table(space: SoftSpace) -> GradeTable:
    """Editable copy of the grades as {parameter: {object: grade}}."""
    return {p: fs.to_dict() for p, fs in zip(space.parameters, space.mapping.assignment)}


def rebuild_space(space: SoftSpace, table: GradeTable) -> Optional[SoftSpace]:
    """Space with the same beta over an edited grade table, or None if not a covering.

    The universe is the table's objects, in the order of its first row.
    """
    universe = Universe(tuple(next(iter(table.values()))))
    try:
        return SoftSpace(SoftMapping.from_dict(universe, table), space.beta)
    except NotACoveringError:
        return None


def drop_object(space: SoftSpace, obj: str) -> Optional[SoftSpace]:
    """Space restricted to U minus {obj}, or None if that is not a covering."""
    if len(space.universe) == 1:
        return None
    table = grade_table(space)
    for row in table.values():
        del row[obj]
    return rebuild_space(space, table)


def drop_parameter(space: SoftSpace, param: str) -> Optional[SoftSpace]:
    if len(space.parameters) == 1:
        return None
    table = grade_table(space)
    del table[param]
    return rebuild_space(space, table)


def snap_grade(space: SoftSpace, param: str, obj: str, grade: IntervalValue) -> Optional[SoftSpace]:
    table = grade_table(space)
    table[param][obj] = grade
    return rebuild_space(space, table)


def snap_candidates(value: IntervalValue) -> List[IntervalValue]:
    """Simpler intervals to try in the value's place, nearest-first."""
    anchors = [Fraction(0), Fraction(1, 2), Fraction(1)]
    lo_snap = min(anchors, key=lambda a: (abs(a - value.lo), a))
    hi_snap = min(anchors, key=lambda a: (abs(a - value.hi), a))
    candidates = []
    for lo, hi in ((lo_snap, hi_snap), (lo_snap, value.hi), (value.lo, hi_snap)):
        if lo <= hi:
            cand = IntervalValue(lo, hi)
            if cand != value and cand not in candidates:
                candidates.append(cand)
    return candidates
