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
from typing import Dict, Iterable, Mapping, Tuple, Union

from .errors import NotACoveringError, UnknownParameterError
from .fuzzysets import IVFuzzySet, Universe
from .intervals import TOP, IntervalValue, family_join, leq_bool


@dataclass(frozen=True)
class SoftMapping:
    """Parameters with one interval-valued fuzzy set each, over one universe."""

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

    @classmethod
    def from_dict(
        cls, universe: Universe, table: Mapping[str, Mapping[str, IntervalValue]]
    ) -> "SoftMapping":
        """Build from {parameter: {object: grade}} (parameter order preserved)."""
        params = tuple(table)
        sets = tuple(IVFuzzySet.from_dict(universe, table[p]) for p in params)
        return cls(universe, params, sets)

    def set_for(self, parameter: str) -> IVFuzzySet:
        try:
            return self.assignment[self._index[parameter]]
        except KeyError:
            raise UnknownParameterError(f"parameter {parameter!r} not in mapping") from None

    def join_at(self, obj: str) -> IntervalValue:
        """Pointwise join over all parameters at one object."""
        i = self.universe.index(obj)
        return family_join(fs.at(i) for fs in self.assignment)


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
    failures = []
    for i, obj in enumerate(mapping.universe):
        attained = family_join(fs.at(i) for fs in mapping.assignment)
        if not leq_bool(beta, attained):
            failures.append((obj, attained))
    return CoveringReport(ok=not failures, failures=tuple(failures))


def is_full_covering(mapping: SoftMapping) -> bool:
    """True iff the join over parameters equals [1,1] at every object."""
    return validate_beta_covering(mapping, TOP).ok


@dataclass(frozen=True)
class SoftSpace:
    """A validated beta-covering approximation space."""

    mapping: SoftMapping
    beta: IntervalValue

    def __post_init__(self):
        report = validate_beta_covering(self.mapping, self.beta)
        if not report.ok:
            bad = ", ".join(f"{o}:{j}" for o, j in report.failures)
            raise NotACoveringError(
                f"beta-covering condition fails at {bad}", report=report
            )

    @property
    def universe(self) -> Universe:
        return self.mapping.universe

    @property
    def parameters(self) -> Tuple[str, ...]:
        return self.mapping.parameters


Policy = Union[str, Tuple[str, str]]


def parse_policy(policy: Policy) -> Tuple[str, str]:
    """Normalize 'strict' | 'repair:<param>' | ('repair', param)."""
    if policy == "strict":
        return ("strict", "")
    if isinstance(policy, str) and policy.startswith("repair:"):
        return ("repair", policy.split(":", 1)[1])
    if isinstance(policy, tuple) and len(policy) == 2 and policy[0] == "repair":
        return ("repair", policy[1])
    raise ValueError(f"unknown policy {policy!r}; expected 'strict' or 'repair:<param>'")


def build_space(mapping: SoftMapping, beta: IntervalValue, policy: Policy = "strict") -> SoftSpace:
    """Construct a space under the chosen covering policy.

    strict: raise NotACoveringError (report attached) when validation fails.
    repair:<e0>: replace F(e0)(x) with F(e0)(x) v beta at every failing x,
    which guarantees the covering condition and a nonempty neighborhood
    index set at each repaired object.
    """
    kind, target = parse_policy(policy)
    report = validate_beta_covering(mapping, beta)
    if report.ok:
        return SoftSpace(mapping, beta)
    if kind == "strict":
        bad = ", ".join(f"{o}:{j}" for o, j in report.failures)
        raise NotACoveringError(f"beta-covering condition fails at {bad}", report=report)

    target_set = mapping.set_for(target)  # raises UnknownParameterError early
    failing = {obj for obj, _ in report.failures}
    repaired = IVFuzzySet(
        mapping.universe,
        tuple(
            g.join(beta) if obj in failing else g
            for obj, g in zip(mapping.universe.objects, target_set.grades)
        ),
    )
    new_assignment = tuple(
        repaired if p == target else fs
        for p, fs in zip(mapping.parameters, mapping.assignment)
    )
    fixed = SoftMapping(mapping.universe, mapping.parameters, new_assignment)
    return SoftSpace(fixed, beta)
