"""Theorem registry, counterexample search, and the audit driver.

Every algebraic law in the library's scope is an executable check with
exact pass/fail semantics.  Registry entries carry a status:

  law        - claimed to hold universally; a failure is either a
               library bug or a refuted claim, and always comes with a
               replayable counterexample.
  conjecture - plausible analogues never claimed anywhere; failures are
               reported as empirical findings, not errors.
  witness    - existence claims (strict inclusions); a trial either
               exhibits a witness or reports that this instance has
               none.

Checks are deterministic functions of (space, inputs); the driver
derives per-trial seeds from the master seed so a report is replayable
bit for bit.
"""

from __future__ import annotations

import itertools
import operator
import random
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from . import __version__
from .approximations import Kind, Target, crisp_lower, crisp_upper, fuzzy_lower, fuzzy_upper
from .errors import UnknownTheoremError
from .fuzzysets import CrispSubset, IVFuzzySet, Universe
from .generate import (
    GenConfig,
    drop_object,
    drop_parameter,
    gen_space,
    grade_table,
    rebuild_space,
    sample_beta_below,
    sample_crisp_subset,
    sample_fuzzy_set,
    sample_hypothesis_set,
    sample_interval,
    snap_candidates,
    snap_grade,
)
from .intervals import IntervalValue, family_join, family_meet, leq_bool
from .neighborhoods import NeighborhoodSystem
from .serialize import parse_set_doc, parse_space_doc, set_to_doc, space_to_doc
from .space import SoftSpace

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass(frozen=True)
class CheckResult:
    outcome: str
    reason: Optional[str] = None
    detail: Optional[dict] = None


def _pass() -> CheckResult:
    return CheckResult(PASS)


def _fail(**detail) -> CheckResult:
    return CheckResult(FAIL, detail={k: str(v) for k, v in detail.items()})


def _skip(reason: str) -> CheckResult:
    return CheckResult(SKIP, reason=reason)


def _verdict(ok: bool, **detail) -> CheckResult:
    return _pass() if ok else _fail(**detail)


@dataclass(frozen=True)
class CheckInputs:
    """Sampled inputs a single trial feeds to every checker."""

    fuzzy_x: IVFuzzySet
    fuzzy_y: IVFuzzySet
    crisp_x: CrispSubset
    crisp_y: CrispSubset
    hypothesis_x: Optional[IVFuzzySet]
    beta_low: IntervalValue
    objects: Tuple[str, ...]
    family: Tuple[IntervalValue, ...]
    extra_family: Tuple[IntervalValue, ...]
    probe: IntervalValue
    space2: Optional[SoftSpace]


def sample_inputs(ns: NeighborhoodSystem, rng: random.Random, grid_denominator: int) -> CheckInputs:
    space = ns.space
    u = space.universe
    d = grid_denominator
    fuzzy_x = sample_fuzzy_set(u, rng, d)
    fuzzy_y = sample_fuzzy_set(u, rng, d)
    crisp_x = sample_crisp_subset(u, rng)
    crisp_y = sample_crisp_subset(u, rng)
    hypothesis_x = sample_hypothesis_set(ns, rng, d)
    beta_low = sample_beta_below(space.beta, rng, d)
    k = rng.randrange(1, len(u) + 1)
    objects = tuple(rng.sample(list(u.objects), k))
    family = tuple(sample_interval(rng, d) for _ in range(rng.randrange(1, 5)))
    extra_family = tuple(sample_interval(rng, d) for _ in range(rng.randrange(0, 3)))
    probe = family_meet(family) if rng.random() < 0.5 else sample_interval(rng, d)
    space2 = _companion_space(space, rng)
    return CheckInputs(
        fuzzy_x,
        fuzzy_y,
        crisp_x,
        crisp_y,
        hypothesis_x,
        beta_low,
        objects,
        family,
        extra_family,
        probe,
        space2,
    )


def _companion_space(space: SoftSpace, rng: random.Random) -> Optional[SoftSpace]:
    """A second space over the same universe and beta, different parameters.

    Built by duplicating and/or dropping parameters of the original; the
    crisp-neighborhood premise of the two-space law is checked, never
    assumed, so a companion that changes the neighborhoods only causes a
    skip.
    """
    params = list(space.parameters)
    table = grade_table(space)
    mode = rng.randrange(3)
    if mode in (0, 2):
        source = rng.choice(params)
        table[f"{source}*"] = dict(table[source])
    if mode in (1, 2) and len(table) > 1:
        victim = rng.choice(params)
        del table[victim]
    return rebuild_space(space, table)


class TrialContext:
    """Per-trial caches: one neighborhood system, memoized approximations."""

    def __init__(
        self,
        space: SoftSpace,
        inputs: CheckInputs,
        system: Optional[NeighborhoodSystem] = None,
    ):
        self.space = space
        self.inputs = inputs
        self._ns = system
        self._memo: Dict[Hashable, object] = {}

    @property
    def ns(self) -> NeighborhoodSystem:
        if self._ns is None:
            self._ns = NeighborhoodSystem(self.space)
        return self._ns

    def fl(self, kind: Kind, target: IVFuzzySet) -> IVFuzzySet:
        key = ("fl", kind, target.grades)
        return self.cached(key, lambda: fuzzy_lower(self.space, kind, target, self.ns))

    def fu(self, kind: Kind, target: IVFuzzySet) -> IVFuzzySet:
        key = ("fu", kind, target.grades)
        return self.cached(key, lambda: fuzzy_upper(self.space, kind, target, self.ns))

    def cl(self, kind: Kind, target: CrispSubset) -> CrispSubset:
        key = ("cl", kind, target.members)
        return self.cached(key, lambda: crisp_lower(self.space, kind, target, self.ns))

    def cu(self, kind: Kind, target: CrispSubset) -> CrispSubset:
        key = ("cu", kind, target.members)
        return self.cached(key, lambda: crisp_upper(self.space, kind, target, self.ns))

    def cached(self, key: Hashable, build: Callable[[], object]):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def top(self) -> IVFuzzySet:
        return self.cached("top", lambda: IVFuzzySet.top(self.space.universe))

    @property
    def bottom(self) -> IVFuzzySet:
        return self.cached("bottom", lambda: IVFuzzySet.bottom(self.space.universe))


Checker = Callable[[TrialContext], CheckResult]


@dataclass(frozen=True)
class TheoremSpec:
    id: str
    statement: str
    status: str  # law | conjecture | witness
    checker: Checker


REGISTRY: Dict[str, TheoremSpec] = {}
_STATUSES = ("law", "conjecture", "witness")


def _register(theorem_id: str, statement: str, checker: Checker, status: str = "law") -> None:
    if status not in _STATUSES:
        raise ValueError(f"{theorem_id}: unknown status {status!r}")
    REGISTRY[theorem_id] = TheoremSpec(theorem_id, statement, status, checker)


def _law(theorem_id: str, statement: str, status: str = "law") -> Callable[[Checker], Checker]:
    """Register the decorated checker; the registry keeps definition order."""

    def register(checker: Checker) -> Checker:
        _register(theorem_id, statement, checker, status)
        return checker

    return register


# -- interval-family lemma ---------------------------------------------------


@_law("L-FAM-1", "probe <= meet(family) iff probe <= every member")
def _check_lfam1(ctx: TrialContext) -> CheckResult:
    fam, probe = ctx.inputs.family, ctx.inputs.probe
    lhs = leq_bool(probe, family_meet(fam))
    rhs = all(leq_bool(probe, i) for i in fam)
    return _verdict(lhs == rhs, probe=probe, family=[str(i) for i in fam])


@_law("L-FAM-2", "probe <= some member implies probe <= join(family)")
def _check_lfam2(ctx: TrialContext) -> CheckResult:
    fam, probe = ctx.inputs.family, ctx.inputs.probe
    if any(leq_bool(probe, i) for i in fam):
        return _verdict(
            leq_bool(probe, family_join(fam)), probe=probe, family=[str(i) for i in fam]
        )
    return _pass()


@_law("L-FAM-3", "larger family has smaller meet")
def _check_lfam3(ctx: TrialContext) -> CheckResult:
    fam = ctx.inputs.family
    superfam = fam + ctx.inputs.extra_family
    return _verdict(
        leq_bool(family_meet(superfam), family_meet(fam)),
        family=[str(i) for i in fam],
        superfamily=[str(i) for i in superfam],
    )


# -- fuzzy neighborhood laws -------------------------------------------------


@_law("N-REFL", "beta <= N_x(x) for every x")
def _check_nrefl(ctx: TrialContext) -> CheckResult:
    n, beta = ctx.ns.matrix, ctx.space.beta
    for i, obj in enumerate(ctx.space.universe.objects):
        if not leq_bool(beta, n[i][i]):
            return _fail(object=obj, grade=n[i][i])
    return _pass()


@_law("N-TRANS", "beta <= N_x(y) and beta <= N_y(z) imply beta <= N_x(z)")
def _check_ntrans(ctx: TrialContext) -> CheckResult:
    n, beta = ctx.ns.matrix, ctx.space.beta
    u = ctx.space.universe.objects
    size = len(u)
    for i in range(size):
        for j in range(size):
            if not leq_bool(beta, n[i][j]):
                continue
            for k in range(size):
                if leq_bool(beta, n[j][k]) and not leq_bool(beta, n[i][k]):
                    return _fail(x=u[i], y=u[j], z=u[k], grade=n[i][k])
    return _pass()


@_law("N-MONO", "beta1 <= beta2 implies N^beta1_x is a fuzzy subset of N^beta2_x")
def _check_nmono(ctx: TrialContext) -> CheckResult:
    low = ctx.inputs.beta_low
    space_low = SoftSpace(ctx.space.mapping, low)  # valid: low <= beta
    n_hi, n_lo = ctx.ns.matrix, NeighborhoodSystem(space_low).matrix
    u = ctx.space.universe.objects
    for i in range(len(u)):
        for j in range(len(u)):
            if not leq_bool(n_lo[i][j], n_hi[i][j]):
                return _fail(x=u[i], y=u[j], low_beta=low, low=n_lo[i][j], high=n_hi[i][j])
    return _pass()


@_law("N-CONTAIN", "beta <= N_x(y) iff N_y is a fuzzy subset of N_x")
def _check_ncontain(ctx: TrialContext) -> CheckResult:
    n, beta = ctx.ns.matrix, ctx.space.beta
    u = ctx.space.universe.objects
    size = len(u)
    for i in range(size):
        for j in range(size):
            member = leq_bool(beta, n[i][j])
            contained = all(leq_bool(n[j][k], n[i][k]) for k in range(size))
            if member != contained:
                return _fail(x=u[i], y=u[j], member=member, contained=contained)
    return _pass()


@_law("N-EQ", "beta <= N_x(y) and beta <= N_y(x) iff N_x = N_y")
def _check_neq(ctx: TrialContext) -> CheckResult:
    n, beta = ctx.ns.matrix, ctx.space.beta
    u = ctx.space.universe.objects
    for i in range(len(u)):
        for j in range(len(u)):
            mutual = leq_bool(beta, n[i][j]) and leq_bool(beta, n[j][i])
            if mutual != (n[i] == n[j]):
                return _fail(x=u[i], y=u[j], mutual=mutual, equal=n[i] == n[j])
    return _pass()


# -- crisp neighborhood laws -------------------------------------------------


@_law("CN-REFL", "x belongs to its own crisp neighborhood")
def _check_cnrefl(ctx: TrialContext) -> CheckResult:
    crisp = ctx.ns.crisp_sets
    for i, obj in enumerate(ctx.space.universe.objects):
        if i not in crisp[i]:
            return _fail(object=obj)
    return _pass()


@_law("CN-MEMB", "y in crisp(x) iff crisp(y) is a subset of crisp(x)")
def _check_cnmemb(ctx: TrialContext) -> CheckResult:
    crisp = ctx.ns.crisp_sets
    u = ctx.space.universe.objects
    for i in range(len(u)):
        for j in range(len(u)):
            if (j in crisp[i]) != (crisp[j] <= crisp[i]):
                return _fail(x=u[i], y=u[j])
    return _pass()


@_law("CN-TRANS", "crisp neighborhood membership is transitive")
def _check_cntrans(ctx: TrialContext) -> CheckResult:
    crisp = ctx.ns.crisp_sets
    u = ctx.space.universe.objects
    for i in range(len(u)):
        for j in crisp[i]:
            if not crisp[j] <= crisp[i]:
                return _fail(x=u[i], y=u[j])
    return _pass()


@_law("CN-EQ", "crisp neighborhoods equal iff fuzzy neighborhoods equal")
def _check_cneq(ctx: TrialContext) -> CheckResult:
    crisp, n = ctx.ns.crisp_sets, ctx.ns.matrix
    u = ctx.space.universe.objects
    for i in range(len(u)):
        for j in range(len(u)):
            if (crisp[i] == crisp[j]) != (n[i] == n[j]):
                return _fail(x=u[i], y=u[j])
    return _pass()


# How a family of objects combines: its crisp neighborhoods by the set
# operation, its fuzzy rows pointwise by the interval one.
_UNION = (frozenset.union, family_join)
_MEET = (frozenset.intersection, family_meet)


def _lattice_sides(ctx: TrialContext, idx: Sequence[int], ops) -> Tuple[frozenset, frozenset]:
    """The combined crisp neighborhoods of a family, and the cut of its combined rows."""
    combine_sets, combine_grades = ops
    rows, beta = ctx.ns.matrix, ctx.space.beta
    lhs = combine_sets(*(ctx.ns.crisp_sets[i] for i in idx))
    rhs = frozenset(
        k
        for k in range(len(rows))
        if leq_bool(beta, combine_grades([rows[i][k] for i in idx]))
    )
    return lhs, rhs


def _pairs(ctx: TrialContext) -> Iterator[Tuple[int, int]]:
    return itertools.product(range(len(ctx.space.universe)), repeat=2)


def _check_cn_pairs(ops, holds: Callable, ctx: TrialContext) -> CheckResult:
    u = ctx.space.universe.objects
    for i, j in _pairs(ctx):
        lhs, rhs = _lattice_sides(ctx, (i, j), ops)
        if not holds(lhs, rhs):
            return _fail(x=u[i], y=u[j], lhs=sorted(lhs), rhs=sorted(rhs))
    return _pass()


def _check_cn_family(ops, holds: Callable, ctx: TrialContext) -> CheckResult:
    u = ctx.space.universe
    lhs, rhs = _lattice_sides(ctx, [u.index(o) for o in ctx.inputs.objects], ops)
    return _verdict(
        holds(lhs, rhs), family=list(ctx.inputs.objects), lhs=sorted(lhs), rhs=sorted(rhs)
    )


_register(
    "CN-LATTICE-1",
    "crisp(x) union crisp(y) is contained in the cut of N_x join N_y",
    partial(_check_cn_pairs, _UNION, operator.le),
)
_register(
    "CN-LATTICE-2",
    "crisp(x) intersect crisp(y) equals the cut of N_x meet N_y",
    partial(_check_cn_pairs, _MEET, operator.eq),
)
_register(
    "CN-LATTICE-3",
    "indexed union of crisp neighborhoods is contained in the cut of the joined rows",
    partial(_check_cn_family, _UNION, operator.le),
)
_register(
    "CN-LATTICE-4",
    "indexed intersection of crisp neighborhoods equals the cut of the met rows",
    partial(_check_cn_family, _MEET, operator.eq),
)


# -- fuzzy approximation operator properties ---------------------------------


def _hypothesis_target(ctx: TrialContext) -> Optional[IVFuzzySet]:
    """The sampled target, if it satisfies N_x(x)^c <= X(x) <= N_x(x) at every x."""
    target = ctx.inputs.hypothesis_x
    if target is None:
        return None
    for i, g in enumerate(target.grades):
        diag = ctx.ns.matrix[i][i]
        if not (leq_bool(diag.complement(), g) and leq_bool(g, diag)):
            return None
    return target


@dataclass(frozen=True)
class _Mode:
    """What a statement shared by the fuzzy and crisp operators reads from a trial."""

    name: str  # "fuzzy" | "crisp"
    lower: str  # memoized TrialContext operators
    upper: str
    x: str  # CheckInputs fields holding the two sampled targets
    y: str
    key: str  # detail key of the target in a one-target statement
    doc: Callable[[Target], object]  # detail form of a target
    bounded: Callable[[TrialContext], Optional[Target]]  # target of L(X) in X in U(X), or None


def _members(target: CrispSubset) -> List[str]:
    return sorted(target.members)


_FUZZY = _Mode("fuzzy", "fl", "fu", "fuzzy_x", "fuzzy_y", "target", set_to_doc, _hypothesis_target)
_CRISP = _Mode(
    "crisp", "cl", "cu", "crisp_x", "crisp_y", "x", _members, operator.attrgetter("inputs.crisp_x")
)

_UNBOUNDED = "boundedness hypothesis infeasible or unsatisfied"


def _bind(ctx: TrialContext, mode: _Mode, kind: Kind):
    """The mode's lower and upper operators of one kind, and its two targets."""
    lower = partial(getattr(ctx, mode.lower), kind)
    upper = partial(getattr(ctx, mode.upper), kind)
    return lower, upper, getattr(ctx.inputs, mode.x), getattr(ctx.inputs, mode.y)


def _chain(*sets) -> bool:
    """Each set is a subset of the next."""
    return all(a.is_subset(b) for a, b in zip(sets, sets[1:]))


# Each property below is checked by a function of (mode, kind, trial);
# the registry holds it with the mode and kind bound.


def _check_a_p1(mode: _Mode, kind: Kind, ctx: TrialContext) -> CheckResult:
    lower, upper, _, _ = _bind(ctx, mode, kind)
    ok = lower(ctx.top) == ctx.top and upper(ctx.bottom) == ctx.bottom
    return _verdict(
        ok,
        lower_of_top=lower(ctx.top).to_json()["grades"],
        upper_of_bottom=upper(ctx.bottom).to_json()["grades"],
    )


def _law_dual(mode: _Mode, kind: Kind, ctx: TrialContext) -> CheckResult:
    lower, upper, x, _ = _bind(ctx, mode, kind)
    xc = x.complement()
    ok = lower(xc) == upper(x).complement() and upper(xc) == lower(x).complement()
    return _verdict(ok, **{mode.key: mode.doc(x)})


def _law_morphism(mode: _Mode, kind: Kind, ctx: TrialContext) -> CheckResult:
    lower, upper, x, y = _bind(ctx, mode, kind)
    ok = (
        lower(x.intersect(y)) == lower(x).intersect(lower(y))
        and upper(x.union(y)) == upper(x).union(upper(y))
    )
    return _verdict(ok, x=mode.doc(x), y=mode.doc(y))


def _law_monotone(mode: _Mode, kind: Kind, ctx: TrialContext) -> CheckResult:
    lower, upper, x, y = _bind(ctx, mode, kind)
    big = x.union(y)
    ok = lower(x).is_subset(lower(big)) and upper(x).is_subset(upper(big))
    return _verdict(ok, small=mode.doc(x), large=mode.doc(big))


def _law_subdistributive(mode: _Mode, kind: Kind, ctx: TrialContext) -> CheckResult:
    lower, upper, x, y = _bind(ctx, mode, kind)
    ok = (
        lower(x).union(lower(y)).is_subset(lower(x.union(y)))
        and upper(x.intersect(y)).is_subset(upper(x).intersect(upper(y)))
    )
    return _verdict(ok, x=mode.doc(x), y=mode.doc(y))


def _law_inclusion(mode: _Mode, kind: Kind, ctx: TrialContext) -> CheckResult:
    lower, upper, _, _ = _bind(ctx, mode, kind)
    target = mode.bounded(ctx)
    if target is None:
        return _skip(_UNBOUNDED)
    ok = _chain(lower(target), target, upper(target))
    return _verdict(ok, **{mode.key: mode.doc(target)})


def _law_iteration(mode: _Mode, kind: Kind, ctx: TrialContext) -> CheckResult:
    lower, upper, _, _ = _bind(ctx, mode, kind)
    target = mode.bounded(ctx)
    if target is None:
        return _skip(_UNBOUNDED)
    low, up = lower(target), upper(target)
    ok = _chain(lower(low), low, target, up, upper(up))
    return _verdict(ok, **{mode.key: mode.doc(target)})


def _law_nested_distributive(mode: _Mode, kind: Kind, ctx: TrialContext) -> CheckResult:
    lower, upper, x, y = _bind(ctx, mode, kind)
    y = x.union(y)  # guarantees x subset y
    ok = (
        lower(x).union(lower(y)) == lower(x.union(y))
        and upper(x.intersect(y)) == upper(x).intersect(upper(y))
    )
    return _verdict(ok, small=mode.doc(x), large=mode.doc(y))


_A_PROPS = {
    1: ("lower of the full set is full; upper of the empty set is empty", _check_a_p1),
    2: ("lower and upper are dual under complement", _law_dual),
    3: ("lower is a meet morphism; upper is a join morphism", _law_morphism),
    4: ("lower and upper are monotone under fuzzy inclusion", _law_monotone),
    5: ("lower sub-distributes over union; upper over intersection", _law_subdistributive),
    6: ("bounded targets sit between lower and upper", _law_inclusion),
    7: ("iterating tightens: LL(X) in L(X) in X in U(X) in UU(X)", _law_iteration),
    8: ("with X in Y the sub-distributions become equalities", _law_nested_distributive),
}

for _kind in Kind:
    for _prop, (_stmt, _law_fn) in _A_PROPS.items():
        _register(
            f"A{_kind.value}-P{_prop}",
            f"kind {_kind.value} fuzzy operators: {_stmt}",
            partial(_law_fn, _FUZZY, _kind),
        )


# -- crisp approximation operator properties ---------------------------------


def _check_ca_bounds(side: str, mode: _Mode, kind: Kind, ctx: TrialContext) -> CheckResult:
    """The lower or upper operator maps the empty and the full set to themselves."""
    op = partial(getattr(ctx, getattr(mode, side)), kind)
    u = ctx.space.universe
    empty, full = CrispSubset.empty(u), CrispSubset.full(u)
    return _verdict(op(empty) == empty and op(full) == full)


_CA_PROPS = {
    1: ("lower preserves the empty and full sets", partial(_check_ca_bounds, "lower")),
    2: ("upper preserves the empty and full sets", partial(_check_ca_bounds, "upper")),
    3: ("lower and upper are monotone", _law_monotone),
    4: ("lower sub-distributes over union; upper over intersection", _law_subdistributive),
    5: ("lower is an intersection morphism; upper is a union morphism", _law_morphism),
    6: ("lower and upper are dual under complement", _law_dual),
    7: ("lower(X) in X in upper(X)", _law_inclusion),
}

for _kind in Kind:
    _status = "law" if _kind is Kind.K1 else "conjecture"
    for _prop, (_stmt, _law_fn) in _CA_PROPS.items():
        _register(
            f"CA{_kind.value}-P{_prop}",
            f"kind {_kind.value} crisp operators: {_stmt}",
            partial(_law_fn, _CRISP, _kind),
            _status,
        )


# -- relationships between the four kinds -------------------------------------

# Each row relates the operators of the four kinds on one target; ``lo(k)``
# and ``up(k)`` are the kind-k lower and upper approximations of it.
_REL_ROWS = {
    1: ("lower3 equals lower1 union lower2", lambda lo, up: lo(3) == lo(1).union(lo(2))),
    2: ("upper3 equals upper1 intersect upper2", lambda lo, up: up(3) == up(1).intersect(up(2))),
    3: ("lower4 equals lower1 intersect lower2", lambda lo, up: lo(4) == lo(1).intersect(lo(2))),
    4: ("upper4 equals upper1 union upper2", lambda lo, up: up(4) == up(1).union(up(2))),
    5: ("lower4 in lower1 in lower3", lambda lo, up: _chain(lo(4), lo(1), lo(3))),
    6: ("lower4 in lower2 in lower3", lambda lo, up: _chain(lo(4), lo(2), lo(3))),
    7: ("upper3 in upper1 in upper4", lambda lo, up: _chain(up(3), up(1), up(4))),
    8: ("upper3 in upper2 in upper4", lambda lo, up: _chain(up(3), up(2), up(4))),
}


def _check_rel(mode: _Mode, relation: Callable, ctx: TrialContext) -> CheckResult:
    lower, upper = getattr(ctx, mode.lower), getattr(ctx, mode.upper)
    x = getattr(ctx.inputs, mode.x)
    ok = relation(lambda k: lower(Kind(k), x), lambda k: upper(Kind(k), x))
    return _verdict(ok, target=mode.doc(x))


for _mode, _tag in ((_FUZZY, "F"), (_CRISP, "C")):
    for _i, (_stmt, _relation) in _REL_ROWS.items():
        _register(
            f"REL-{_tag}{_i}",
            f"{_mode.name} {_stmt}",
            partial(_check_rel, _mode, _relation),
        )


@_law("SANDWICH", "bounded targets: lower4 in lower2 in lower3 in X in upper3 in upper1 in upper4")
def _check_sandwich(ctx: TrialContext) -> CheckResult:
    target = _hypothesis_target(ctx)
    if target is None:
        return _skip(_UNBOUNDED)
    ok = _chain(
        ctx.fl(Kind.K4, target),
        ctx.fl(Kind.K2, target),
        ctx.fl(Kind.K3, target),
        target,
        ctx.fu(Kind.K3, target),
        ctx.fu(Kind.K1, target),
        ctx.fu(Kind.K4, target),
    )
    return _verdict(ok, target=set_to_doc(target))


@_law("TWO-SPACE", "equal crisp neighborhoods give equal kind-1 crisp approximations across spaces")
def _check_two_space(ctx: TrialContext) -> CheckResult:
    other = ctx.inputs.space2
    if other is None:
        return _skip("no valid companion space for this instance")
    ns2 = NeighborhoodSystem(other)
    if ctx.ns.crisp_sets != ns2.crisp_sets:
        return _skip("companion space has different crisp neighborhoods")
    x = ctx.inputs.crisp_x
    x2 = CrispSubset(other.universe, x.members)
    ok = (
        ctx.cl(Kind.K1, x).members == crisp_lower(other, Kind.K1, x2, ns2).members
        and ctx.cu(Kind.K1, x).members == crisp_upper(other, Kind.K1, x2, ns2).members
    )
    return _verdict(ok, target=sorted(x.members))


# -- strictness witnesses ------------------------------------------------------


@_law(
    "W-UNION-STRICT",
    "exists x,y with crisp(x) union crisp(y) strictly inside the cut of the joined rows",
    "witness",
)
def _check_w_union_strict(ctx: TrialContext) -> CheckResult:
    u = ctx.space.universe.objects
    for i, j in _pairs(ctx):
        lhs, rhs = _lattice_sides(ctx, (i, j), _UNION)
        if lhs < rhs:
            gained = sorted(u[k] for k in rhs - lhs)
            return CheckResult(PASS, detail={"x": u[i], "y": u[j], "gained": str(gained)})
    return _skip("no strict instance in this space")


@_law(
    "W-LOWER-STRICT",
    "exists X,Y with lower(X) union lower(Y) strictly inside lower(X union Y)",
    "witness",
)
def _check_w_lower_strict(ctx: TrialContext) -> CheckResult:
    x, y = ctx.inputs.fuzzy_x, ctx.inputs.fuzzy_y
    lhs = ctx.fl(Kind.K1, x).union(ctx.fl(Kind.K1, y))
    rhs = ctx.fl(Kind.K1, x.union(y))
    if lhs.is_subset(rhs) and lhs != rhs:
        return CheckResult(PASS, detail={"x": str(set_to_doc(x)), "y": str(set_to_doc(y))})
    return _skip("no strict instance for these inputs")


# -- driver --------------------------------------------------------------------


def all_theorem_ids() -> List[str]:
    return list(REGISTRY)


def check(theorem: str, space: SoftSpace, inputs: CheckInputs) -> CheckResult:
    """Evaluate one registry statement on one concrete instance."""
    spec = REGISTRY.get(theorem)
    if spec is None:
        raise UnknownTheoremError(f"unknown theorem id {theorem!r}")
    return spec.checker(TrialContext(space, inputs))


def inputs_to_doc(inputs: CheckInputs) -> dict:
    return {
        "fuzzy_x": set_to_doc(inputs.fuzzy_x),
        "fuzzy_y": set_to_doc(inputs.fuzzy_y),
        "crisp_x": set_to_doc(inputs.crisp_x),
        "crisp_y": set_to_doc(inputs.crisp_y),
        "hypothesis_x": None
        if inputs.hypothesis_x is None
        else set_to_doc(inputs.hypothesis_x),
        "beta_low": inputs.beta_low.text(),
        "objects": list(inputs.objects),
        "family": [i.text() for i in inputs.family],
        "extra_family": [i.text() for i in inputs.extra_family],
        "probe": inputs.probe.text(),
        "space2": None if inputs.space2 is None else space_to_doc(inputs.space2),
    }


def inputs_from_doc(doc: dict, universe: Universe) -> CheckInputs:
    space2 = None
    if doc.get("space2") is not None:
        mapping, beta = parse_space_doc(doc["space2"])
        space2 = SoftSpace(mapping, beta)
    hypothesis = doc.get("hypothesis_x")
    return CheckInputs(
        fuzzy_x=parse_set_doc(doc["fuzzy_x"], universe),
        fuzzy_y=parse_set_doc(doc["fuzzy_y"], universe),
        crisp_x=parse_set_doc(doc["crisp_x"], universe),
        crisp_y=parse_set_doc(doc["crisp_y"], universe),
        hypothesis_x=None if hypothesis is None else parse_set_doc(hypothesis, universe),
        beta_low=IntervalValue.parse(doc["beta_low"]),
        objects=tuple(doc["objects"]),
        family=tuple(IntervalValue.parse(t) for t in doc["family"]),
        extra_family=tuple(IntervalValue.parse(t) for t in doc["extra_family"]),
        probe=IntervalValue.parse(doc["probe"]),
        space2=space2,
    )


def replay(counterexample: dict) -> CheckResult:
    """Re-run a serialized counterexample; must reproduce its verdict."""
    mapping, beta = parse_space_doc(counterexample["space"])
    space = SoftSpace(mapping, beta)
    inputs = inputs_from_doc(counterexample["inputs"], space.universe)
    return check(counterexample["theorem"], space, inputs)


def _project_fuzzy(fs: IVFuzzySet, universe: Universe) -> IVFuzzySet:
    return IVFuzzySet(universe, tuple(fs.grade(o) for o in universe.objects))


def _project_inputs(inputs: CheckInputs, universe: Universe) -> CheckInputs:
    objects = tuple(o for o in inputs.objects if o in universe) or (universe.objects[0],)
    return replace(
        inputs,
        fuzzy_x=_project_fuzzy(inputs.fuzzy_x, universe),
        fuzzy_y=_project_fuzzy(inputs.fuzzy_y, universe),
        crisp_x=CrispSubset(universe, inputs.crisp_x.members & set(universe.objects)),
        crisp_y=CrispSubset(universe, inputs.crisp_y.members & set(universe.objects)),
        hypothesis_x=None
        if inputs.hypothesis_x is None
        else _project_fuzzy(inputs.hypothesis_x, universe),
        objects=objects,
        space2=None,
    )


def _replace_fuzzy_grade(fs: IVFuzzySet, index: int, grade: IntervalValue) -> IVFuzzySet:
    grades = list(fs.grades)
    grades[index] = grade
    return IVFuzzySet(fs.universe, tuple(grades))


def _shrink_candidates(
    space: SoftSpace, inputs: CheckInputs
) -> Iterator[Tuple[SoftSpace, CheckInputs]]:
    """Smaller or simpler instances, in the order the shrinker tries them."""
    for obj in space.universe.objects:
        candidate = drop_object(space, obj)
        if candidate is not None:
            yield candidate, _project_inputs(inputs, candidate.universe)
    for param in space.parameters:
        candidate = drop_parameter(space, param)
        if candidate is not None:
            yield candidate, inputs
    for param in space.parameters:
        for obj in space.universe.objects:
            for snapped in snap_candidates(space.mapping.set_for(param).grade(obj)):
                candidate = snap_grade(space, param, obj, snapped)
                if candidate is not None:
                    yield candidate, inputs
    for attr in ("fuzzy_x", "fuzzy_y", "hypothesis_x"):
        fs = getattr(inputs, attr)
        if fs is None:
            continue
        for i, grade in enumerate(fs.grades):
            for snapped in snap_candidates(grade):
                yield space, replace(inputs, **{attr: _replace_fuzzy_grade(fs, i, snapped)})


def shrink_counterexample(
    theorem: str, space: SoftSpace, inputs: CheckInputs, max_evals: int = 300
) -> Tuple[SoftSpace, CheckInputs]:
    """Greedy minimization: drop objects/parameters, snap grades to {0,1/2,1}.

    Every accepted candidate still fails the same theorem and is still a
    valid covering, so the result is a no-larger failing instance.
    """
    if theorem == "TWO-SPACE":
        return space, inputs  # companion space makes projection ambiguous
    evals = 0
    improved = True
    while improved and evals < max_evals:
        improved = False
        for candidate, cand_inputs in _shrink_candidates(space, inputs):
            evals += 1
            if check(theorem, candidate, cand_inputs).outcome == FAIL:
                space, inputs = candidate, cand_inputs
                improved = True
                break
    return space, inputs


@dataclass
class TheoremStats:
    theorem: str
    statement: str
    status: str
    trials: int = 0
    passes: int = 0
    failures: int = 0
    skips: int = 0
    skip_reasons: Dict[str, int] = field(default_factory=dict)
    first_counterexample: Optional[dict] = None

    def to_doc(self) -> dict:
        return {**asdict(self), "skip_reasons": dict(sorted(self.skip_reasons.items()))}


@dataclass
class AuditReport:
    seed: int
    trials: int
    config: GenConfig
    stats: Dict[str, TheoremStats]
    wall_time: float

    @property
    def law_failures(self) -> List[str]:
        return [
            t for t, s in self.stats.items() if s.status == "law" and s.failures > 0
        ]

    @property
    def ok(self) -> bool:
        return not self.law_failures

    def to_doc(self) -> dict:
        return {
            "version": __version__,
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "trials": self.trials,
            "config": {
                "universe_size": self.config.universe_size,
                "parameter_count": self.config.parameter_count,
                "grid_denominator": self.config.grid_denominator,
                "beta_policy": str(self.config.beta_policy),
                "covering_policy": self.config.covering_policy,
            },
            "ok": self.ok,
            "law_failures": self.law_failures,
            "wall_time_seconds": round(self.wall_time, 3),
            "theorems": {t: s.to_doc() for t, s in self.stats.items()},
        }


def _trial_seed(seed: int, trial: int) -> int:
    return (seed * 1_000_003 + trial) & 0xFFFFFFFFFFFFFFFF


def run_audit(
    config: GenConfig,
    theorems: Optional[Sequence[str]] = None,
    trials: int = 1000,
    shrink: bool = True,
) -> AuditReport:
    """Check the requested statements over freshly generated instances.

    Deterministic for a fixed (config, trials): trial seeds derive from
    the config seed and the trial index.  The first failure per theorem
    is shrunk and serialized for replay.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if theorems is None:
        ids = all_theorem_ids()
    else:
        ids = list(theorems)
        for t in ids:
            if t not in REGISTRY:
                raise UnknownTheoremError(f"unknown theorem id {t!r}")
    stats = {
        t: TheoremStats(t, REGISTRY[t].statement, REGISTRY[t].status) for t in ids
    }
    start = time.perf_counter()
    for trial in range(trials):
        trial_config = replace(config, seed=_trial_seed(config.seed, trial))
        space = gen_space(trial_config)
        ns = NeighborhoodSystem(space)
        rng = random.Random(f"betacover-inputs:{config.seed}:{trial}")
        inputs = sample_inputs(ns, rng, config.grid_denominator)
        ctx = TrialContext(space, inputs, ns)
        for theorem in ids:
            result = REGISTRY[theorem].checker(ctx)
            entry = stats[theorem]
            entry.trials += 1
            if result.outcome == PASS:
                entry.passes += 1
            elif result.outcome == SKIP:
                entry.skips += 1
                reason = result.reason or "unspecified"
                entry.skip_reasons[reason] = entry.skip_reasons.get(reason, 0) + 1
            else:
                entry.failures += 1
                if entry.first_counterexample is None:
                    ce_space, ce_inputs = (
                        shrink_counterexample(theorem, space, inputs)
                        if shrink
                        else (space, inputs)
                    )
                    entry.first_counterexample = {
                        "theorem": theorem,
                        "trial": trial,
                        "space": space_to_doc(ce_space),
                        "inputs": inputs_to_doc(ce_inputs),
                        "detail": check(theorem, ce_space, ce_inputs).detail,
                    }
    wall = time.perf_counter() - start
    return AuditReport(config.seed, trials, config, stats, wall)
