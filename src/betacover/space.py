"""Soft mappings, beta-covering validation, and the approximation space.

A soft mapping assigns one interval-valued fuzzy set to each parameter,
all over a single shared universe.  A space is a mapping plus a
threshold ``beta`` satisfying the covering condition: at every object,
the join of the parameter grades dominates ``beta``.  The condition is
enforced at construction time, so a space can only exist in a valid
state; ingestion chooses between rejecting and repairing non-coverings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Mapping, Tuple

from .errors import NotACoveringError, UnknownParameterError
from .fuzzysets import IVFuzzySet, Universe
from .intervals import Codes, IntervalValue, join, leq_bool


@dataclass(frozen=True)
class SoftMapping:
    """Parameters with one interval-valued fuzzy set each, over one universe.

    Built once at construction, read-only: ``codes``, the endpoint code
    table (``intervals.Codes``) of all the grades; ``set_codes``, per
    parameter, the ``(lows, highs)`` code rows of its set under ``codes``;
    and ``joins``, per object in universe order, the join of its grades over
    all parameters: the int ``max`` of the code rows, decoded.
    """

    universe: Universe
    parameters: Tuple[str, ...]
    assignment: Tuple[IVFuzzySet, ...]

    def __post_init__(self):
        parameters = tuple(self.parameters)
        assignment = tuple(self.assignment)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "assignment", assignment)
        if not parameters:
            raise ValueError("parameter set must be nonempty")
        if len(set(parameters)) != len(parameters):
            raise ValueError("parameter identifiers must be unique")
        if len(assignment) != len(parameters):
            raise ValueError("need exactly one fuzzy set per parameter")
        for fs in assignment:
            if fs.universe != self.universe:
                raise ValueError("all assigned sets must share the mapping's universe")
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(parameters)})
        codes = Codes(chain.from_iterable(fs.grades for fs in assignment))
        sets = tuple(codes.encode(fs.grades) for fs in assignment)
        lows, highs = zip(*sets)
        # The first set is passed twice, so that a lone set still gives max two arguments.
        joins = codes.decode(map(max, lows[0], *lows), map(max, highs[0], *highs))
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "set_codes", sets)
        object.__setattr__(self, "joins", joins)

    @classmethod
    def from_dict(
        cls, universe: Universe, table: Mapping[str, Mapping[str, IntervalValue]]
    ) -> "SoftMapping":
        """Build from {parameter: {object: grade}} (parameter order preserved)."""
        params = tuple(table)
        sets = tuple(IVFuzzySet.from_dict(universe, table[p]) for p in params)
        return cls(universe, params, sets)

    def table(self) -> Dict[str, Dict[str, IntervalValue]]:
        """Editable copy of the grades, in the shape ``from_dict`` reads."""
        return {p: fs.to_dict() for p, fs in zip(self.parameters, self.assignment)}

    def set_for(self, parameter: str) -> IVFuzzySet:
        try:
            return self.assignment[self._index[parameter]]
        except KeyError:
            raise UnknownParameterError(f"parameter {parameter!r} not in mapping") from None


@dataclass(frozen=True)
class CoveringReport:
    """Result of checking the beta-covering condition."""

    ok: bool
    failures: Tuple[Tuple[str, IntervalValue], ...]


def validate_beta_covering(mapping: SoftMapping, beta: IntervalValue) -> CoveringReport:
    """Check beta <= join of parameter grades at every object.

    Returns a report, never raises: every violating object is listed with
    the join it actually attains.
    """
    pairs = zip(mapping.universe.objects, mapping.joins)
    failures = tuple((obj, attained) for obj, attained in pairs if not leq_bool(beta, attained))
    return CoveringReport(ok=not failures, failures=failures)


@dataclass(frozen=True)
class SoftSpace:
    """A validated beta-covering approximation space.

    Construction is the one place the covering condition is checked.
    """

    mapping: SoftMapping
    beta: IntervalValue

    def __post_init__(self):
        report = validate_beta_covering(self.mapping, self.beta)
        if not report.ok:
            raise NotACoveringError(report)

    @property
    def universe(self) -> Universe:
        return self.mapping.universe

    @property
    def parameters(self) -> Tuple[str, ...]:
        return self.mapping.parameters


def parse_policy(policy: str) -> Tuple[str, str]:
    """Normalize 'strict' | 'repair:<param>' to (kind, parameter)."""
    if policy == "strict":
        return ("strict", "")
    if isinstance(policy, str) and policy.startswith("repair:"):
        return ("repair", policy.split(":", 1)[1])
    raise ValueError(f"unknown policy {policy!r}; expected 'strict' or 'repair:<param>'")


def build_space(mapping: SoftMapping, beta: IntervalValue, policy: str = "strict") -> SoftSpace:
    """Construct a space under the chosen covering policy.

    strict: raise NotACoveringError (report attached) when validation fails.
    repair:<e0>: replace F(e0)(x) with F(e0)(x) v beta at every failing x,
    which guarantees the covering condition and a nonempty neighborhood
    index set at each repaired object.
    """
    kind, target = parse_policy(policy)
    try:
        return SoftSpace(mapping, beta)
    except NotACoveringError as exc:
        if kind == "strict":
            raise
        failures = exc.report.failures

    mapping.set_for(target)  # raises UnknownParameterError early
    table = mapping.table()
    for obj, _ in failures:
        table[target][obj] = join(table[target][obj], beta)
    return SoftSpace(SoftMapping.from_dict(mapping.universe, table), beta)
