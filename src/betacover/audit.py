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
from functools import cached_property, partial, reduce
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from . import __version__
from .approximations import Kind, crisp_on_mask, fuzzy_on_codes
from .errors import UnknownTheoremError
from .fuzzysets import CrispSubset, IVFuzzySet, Universe
from .generate import (
    GenConfig,
    GradeTable,
    gen_space,
    rebuild_space,
    sample_beta_below,
    sample_crisp_subset,
    sample_fuzzy_set,
    sample_hypothesis_set,
    sample_interval,
    snap_candidates,
)
from .intervals import IntervalValue, family_join, family_meet, leq_bool
from .neighborhoods import NeighborhoodSystem, code_rows
from .serialize import parse_set_doc, parse_space_doc, set_to_doc, space_to_doc
from .space import SoftSpace

SCHEMA_VERSION = 1
_SHRINK_BUDGET = 300  # checker evaluations per shrunk counterexample

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
        fuzzy_x, fuzzy_y, crisp_x, crisp_y, hypothesis_x, beta_low, objects, family, extra_family,
        probe, space2,
    )


def _companion_space(space: SoftSpace, rng: random.Random) -> Optional[SoftSpace]:
    """A second space over the same universe and beta, different parameters.

    Built by duplicating and/or dropping parameters of the original; the
    crisp-neighborhood premise of the two-space law is checked, never
    assumed, so a companion that changes the neighborhoods only causes a
    skip.
    """
    params = list(space.parameters)
    table = space.mapping.table()
    mode = rng.randrange(3)
    if mode in (0, 2):
        source = rng.choice(params)
        table[f"{source}*"] = dict(table[source])
    if mode in (1, 2) and len(table) > 1:
        victim = rng.choice(params)
        del table[victim]
    return rebuild_space(space, table)


class TrialContext:
    """Per-trial caches: one neighborhood system, memoized approximations.

    The set statements work in the code lattice: ``fuzzy`` holds the fuzzy
    targets as ``(lows, highs)`` code tuples and ``crisp`` the crisp ones as
    bitmasks, each built on first use, so memo keys are ints.
    """

    def __init__(self, ns: NeighborhoodSystem, inputs: CheckInputs):
        self.ns = ns
        self.space = ns.space
        self.inputs = inputs
        self._memo: Dict[Hashable, object] = {}

    @cached_property
    def _encoded(self):
        """Level cuts under a code table that numbers every endpoint of the fuzzy inputs,
        and the codes of ``fuzzy_x``, ``fuzzy_y`` and ``hypothesis_x`` (None when absent)."""
        x, y, h = self.inputs.fuzzy_x, self.inputs.fuzzy_y, self.inputs.hypothesis_x
        grades = [*x.grades, *y.grades, *(() if h is None else h.grades)]
        cuts, (lows, highs) = self.ns.encode(grades)
        n = len(x.grades)
        h = None if h is None else (lows[2 * n :], highs[2 * n :])
        return cuts, ((lows[:n], highs[:n]), (lows[n : 2 * n], highs[n : 2 * n]), h)

    def _fuzzy(self, kind: Kind, target, lower: bool):
        return fuzzy_on_codes(self._encoded[0], kind, target, lower)

    def fl(self, kind: Kind, target):
        return self.cached(("fl", kind, target), self._fuzzy, kind, target, True)

    def fu(self, kind: Kind, target):
        return self.cached(("fu", kind, target), self._fuzzy, kind, target, False)

    def cl(self, kind: Kind, target: int) -> int:
        return self.cached(("cl", kind, target), crisp_on_mask, self.ns, kind, target, True)

    def cu(self, kind: Kind, target: int) -> int:
        return self.cached(("cu", kind, target), crisp_on_mask, self.ns, kind, target, False)

    def cached(self, key: Hashable, build: Callable[..., object], *args):
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build(*args)
            return value

    @cached_property
    def fuzzy(self) -> "_Sets":
        (cuts, (x, y, h)), u = self._encoded, self.space.universe
        codes, top = cuts.codes, cuts.codes.top
        # h is bounded where N_x(x)^c <= h(x) <= N_x(x) at every x.
        diag = (cuts.diagonal(half) for half in (0, 1))
        if h and not all(top - b <= p <= a and top - a <= q <= b for a, b, p, q in zip(*diag, *h)):
            h = None
        return _Sets(
            "fl", "fu", "target", x, y, h, ((top,) * len(u),) * 2, ((0,) * len(u),) * 2,
            _pointwise(max), _pointwise(min), _code_subset, lambda a: codes.complement(*a),
            lambda a: set_to_doc(IVFuzzySet(u, codes.decode(*a))),
        )

    @cached_property
    def crisp(self) -> "_Sets":
        u = self.space.universe
        full, x, y = (1 << len(u)) - 1, self.inputs.crisp_x.mask(), self.inputs.crisp_y.mask()
        return _Sets(
            "cl", "cu", "x", x, y, x, full, 0, operator.or_, operator.and_, _within,
            full.__xor__, lambda m: sorted(u.objects[k] for k in _bits(m)),
        )


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


# -- neighborhood laws --------------------------------------------------------

# The paper proves reflexivity, transitivity and containment for the fuzzy
# beta-neighborhoods and again for their beta-cuts, the crisp ones.  Each law
# is written once against a reading: a pair of tests on object indices, "y is
# in x's neighborhood" and "y's neighborhood is inside x's".


def _rows(ctx: TrialContext) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]:
    """N's rows as ``(lows, highs)`` code pairs, one per object."""
    return tuple(zip(*ctx.ns.code_rows))


def _grades(ctx: TrialContext):
    """The fuzzy reading on N's code rows: beta <= N_x(y), tabled as one cut per row;
    N_y below N_x on the low and the high codes."""
    n, cut = _rows(ctx), ctx.ns.cut
    member = ctx.cached("beta-cut", lambda: [cut(*row) for row in n])
    return (lambda x, y: bool(member[x] >> y & 1)), (lambda y, x: _code_subset(n[y], n[x]))


def _within(small: int, large: int) -> bool:
    """The set of one bitmask is a subset of the other's."""
    return not small & ~large


def _cuts(ctx: TrialContext):
    """The crisp reading: y in crisp(x); crisp(y) a subset of crisp(x), on bitmasks."""
    crisp = ctx.ns.crisp_sets
    return (lambda x, y: bool(crisp[x] >> y & 1)), (lambda y, x: _within(crisp[y], crisp[x]))


def _nowhere(ctx: TrialContext, names: Sequence[str], fails: Callable[..., bool]) -> CheckResult:
    """Pass, or fail naming the first index tuple, in product order, where ``fails`` holds."""
    u = ctx.space.universe.objects
    for idx in itertools.product(range(len(u)), repeat=len(names)):
        if fails(*idx):
            return _fail(**{name: u[i] for name, i in zip(names, idx)})
    return _pass()


def _law_refl(reading, ctx: TrialContext) -> CheckResult:
    member, _ = reading(ctx)
    return _nowhere(ctx, ("object",), lambda x: not member(x, x))


def _law_trans(reading, ctx: TrialContext) -> CheckResult:
    member, _ = reading(ctx)
    return _nowhere(
        ctx, ("x", "y", "z"), lambda x, y, z: member(x, y) and member(y, z) and not member(x, z)
    )


def _law_contain(reading, ctx: TrialContext) -> CheckResult:
    member, inside = reading(ctx)
    return _nowhere(ctx, ("x", "y"), lambda x, y: member(x, y) != inside(y, x))


def _check_nmono(ctx: TrialContext) -> CheckResult:
    low = ctx.inputs.beta_low
    if not leq_bool(low, ctx.space.beta):
        return _skip("beta_low is not below beta")
    # Both under the mapping's table: beta_low is placed among its codes, never added.
    hi, lo = ctx.ns.code_rows, code_rows(ctx.space.mapping, low)
    return _nowhere(ctx, ("x", "y"), lambda x, y: any(a[x][y] > b[x][y] for a, b in zip(lo, hi)))


def _check_neq(ctx: TrialContext) -> CheckResult:
    (member, _), n = _grades(ctx), _rows(ctx)
    return _nowhere(ctx, ("x", "y"), lambda x, y: (member(x, y) and member(y, x)) != (n[x] == n[y]))


def _check_cneq(ctx: TrialContext) -> CheckResult:
    crisp, n = ctx.ns.crisp_sets, _rows(ctx)
    return _nowhere(ctx, ("x", "y"), lambda x, y: (crisp[x] == crisp[y]) != (n[x] == n[y]))


_register("N-REFL", "beta <= N_x(x) for every x", partial(_law_refl, _grades))
_register(
    "N-TRANS",
    "beta <= N_x(y) and beta <= N_y(z) imply beta <= N_x(z)",
    partial(_law_trans, _grades),
)
_register(
    "N-MONO", "beta1 <= beta2 implies N^beta1_x is a fuzzy subset of N^beta2_x", _check_nmono
)
_register(
    "N-CONTAIN", "beta <= N_x(y) iff N_y is a fuzzy subset of N_x", partial(_law_contain, _grades)
)
_register("N-EQ", "beta <= N_x(y) and beta <= N_y(x) iff N_x = N_y", _check_neq)
_register("CN-REFL", "x belongs to its own crisp neighborhood", partial(_law_refl, _cuts))
_register(
    "CN-MEMB", "y in crisp(x) iff crisp(y) is a subset of crisp(x)", partial(_law_contain, _cuts)
)
_register("CN-TRANS", "crisp neighborhood membership is transitive", partial(_law_trans, _cuts))
_register("CN-EQ", "crisp neighborhoods equal iff fuzzy neighborhoods equal", _check_cneq)


# How a family of objects combines: its crisp neighborhoods' bitmasks by
# the set operation, its rows' endpoint codes pointwise by the interval one.
_UNION = (operator.or_, max)
_MEET = (operator.and_, min)


def _bits(mask: int) -> List[int]:
    """The indices of a bitmask's set bits, in increasing order."""
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _lattice_sides(ctx: TrialContext, idx: Sequence[int], ops) -> Tuple[int, int]:
    """The combined crisp neighborhoods of a family, and the cut of its combined rows, as masks."""
    combine_masks, combine_codes = ops
    ns = ctx.ns
    lhs = reduce(combine_masks, (ns.crisp_sets[i] for i in idx))
    lows, highs = (zip(*(half[i] for i in idx)) for half in ns.code_rows)
    rhs = ns.cut(map(combine_codes, lows), map(combine_codes, highs))
    return lhs, rhs


def _pair_sides(ctx: TrialContext, ops) -> List[Tuple[int, int, int, int]]:
    """``(i, j, lhs, rhs)`` for every object pair in order, once per trial and ops."""
    pairs = itertools.product(range(len(ctx.space.universe)), repeat=2)
    return ctx.cached(
        ("pair-sides", ops), lambda: [(i, j, *_lattice_sides(ctx, (i, j), ops)) for i, j in pairs]
    )


def _check_cn_pairs(ops, holds: Callable, ctx: TrialContext) -> CheckResult:
    u = ctx.space.universe.objects
    for i, j, lhs, rhs in _pair_sides(ctx, ops):
        if not holds(lhs, rhs):
            return _fail(x=u[i], y=u[j], lhs=_bits(lhs), rhs=_bits(rhs))
    return _pass()


def _check_cn_family(ops, holds: Callable, ctx: TrialContext) -> CheckResult:
    u = ctx.space.universe
    lhs, rhs = _lattice_sides(ctx, [u.index(o) for o in ctx.inputs.objects], ops)
    return _verdict(
        holds(lhs, rhs), family=list(ctx.inputs.objects), lhs=_bits(lhs), rhs=_bits(rhs)
    )


_register(
    "CN-LATTICE-1",
    "crisp(x) union crisp(y) is contained in the cut of N_x join N_y",
    partial(_check_cn_pairs, _UNION, _within),
)
_register(
    "CN-LATTICE-2",
    "crisp(x) intersect crisp(y) equals the cut of N_x meet N_y",
    partial(_check_cn_pairs, _MEET, operator.eq),
)
_register(
    "CN-LATTICE-3",
    "indexed union of crisp neighborhoods is contained in the cut of the joined rows",
    partial(_check_cn_family, _UNION, _within),
)
_register(
    "CN-LATTICE-4",
    "indexed intersection of crisp neighborhoods equals the cut of the met rows",
    partial(_check_cn_family, _MEET, operator.eq),
)


# -- fuzzy approximation operator properties ---------------------------------


def _pointwise(combine: Callable[[int, int], int]):
    """A lattice operation on code pairs: ``combine`` on the low codes and on the high codes."""
    return lambda a, b: (tuple(map(combine, a[0], b[0])), tuple(map(combine, a[1], b[1])))


def _code_subset(a, b) -> bool:
    return all(map(operator.le, a[0], b[0])) and all(map(operator.le, a[1], b[1]))


@dataclass(frozen=True)
class _Sets:
    """One trial's sets of one mode in the code lattice, and the operations statements use on them.

    A fuzzy set is a ``(lows, highs)`` pair of code tuples and a crisp set a
    bitmask; ``render`` gives a set's detail text, on failure only.
    """

    lower: str  # memoized TrialContext operators
    upper: str
    key: str  # detail key of the target in a one-target statement
    x: object  # the two sampled targets
    y: object
    bounded: object  # the target of L(X) in X in U(X), or None
    full: object
    empty: object
    join: Callable
    meet: Callable
    subset: Callable
    complement: Callable
    render: Callable

    def chain(self, *sets) -> bool:
        """Each set is a subset of the next."""
        return all(map(self.subset, sets, sets[1:]))

    def verdict(self, ok: bool, **detail) -> CheckResult:
        return _pass() if ok else _fail(**{k: self.render(v) for k, v in detail.items()})


# The modes a statement shared by the fuzzy and crisp operators is bound to,
# each the name of the TrialContext property holding the trial's sets.
_FUZZY, _CRISP = "fuzzy", "crisp"

_UNBOUNDED = "boundedness hypothesis infeasible or unsatisfied"


def _bind(ctx: TrialContext, mode: str, kind: Kind):
    """The mode's lower and upper operators of one kind, and the trial's sets of the mode."""
    s = getattr(ctx, mode)
    return partial(getattr(ctx, s.lower), kind), partial(getattr(ctx, s.upper), kind), s


# Each property below is checked by a function of (mode, kind, trial);
# the registry holds it with the mode and kind bound.


def _law_bounds(fixed: Sequence[Tuple[str, str]], mode: str, kind: Kind, ctx: TrialContext):
    """In each ``(operator, set)`` pair the operator maps the full or empty set to itself."""
    lower, upper, s = _bind(ctx, mode, kind)
    ops, sets = {"lower": lower, "upper": upper}, {"full": s.full, "empty": s.empty}
    return _verdict(all(ops[op](sets[name]) == sets[name] for op, name in fixed))


def _law_dual(mode: str, kind: Kind, ctx: TrialContext) -> CheckResult:
    lower, upper, s = _bind(ctx, mode, kind)
    x, xc = s.x, s.complement(s.x)
    ok = lower(xc) == s.complement(upper(x)) and upper(xc) == s.complement(lower(x))
    return s.verdict(ok, **{s.key: x})


def _law_morphism(mode: str, kind: Kind, ctx: TrialContext) -> CheckResult:
    lower, upper, s = _bind(ctx, mode, kind)
    x, y = s.x, s.y
    ok = lower(s.meet(x, y)) == s.meet(lower(x), lower(y))
    ok = ok and upper(s.join(x, y)) == s.join(upper(x), upper(y))
    return s.verdict(ok, x=x, y=y)


def _law_monotone(mode: str, kind: Kind, ctx: TrialContext) -> CheckResult:
    lower, upper, s = _bind(ctx, mode, kind)
    x, big = s.x, s.join(s.x, s.y)
    ok = s.subset(lower(x), lower(big)) and s.subset(upper(x), upper(big))
    return s.verdict(ok, small=x, large=big)


def _law_subdistributive(mode: str, kind: Kind, ctx: TrialContext) -> CheckResult:
    lower, upper, s = _bind(ctx, mode, kind)
    x, y = s.x, s.y
    ok = s.subset(s.join(lower(x), lower(y)), lower(s.join(x, y)))
    ok = ok and s.subset(upper(s.meet(x, y)), s.meet(upper(x), upper(y)))
    return s.verdict(ok, x=x, y=y)


def _law_inclusion(mode: str, kind: Kind, ctx: TrialContext) -> CheckResult:
    lower, upper, s = _bind(ctx, mode, kind)
    target = s.bounded
    if target is None:
        return _skip(_UNBOUNDED)
    return s.verdict(s.chain(lower(target), target, upper(target)), **{s.key: target})


def _law_iteration(mode: str, kind: Kind, ctx: TrialContext) -> CheckResult:
    lower, upper, s = _bind(ctx, mode, kind)
    target = s.bounded
    if target is None:
        return _skip(_UNBOUNDED)
    low, up = lower(target), upper(target)
    ok = s.chain(lower(low), low, target, up, upper(up))
    return s.verdict(ok, **{s.key: target})


def _law_nested_distributive(mode: str, kind: Kind, ctx: TrialContext) -> CheckResult:
    lower, upper, s = _bind(ctx, mode, kind)
    x, y = s.x, s.join(s.x, s.y)  # guarantees x subset y
    ok = s.join(lower(x), lower(y)) == lower(s.join(x, y))
    ok = ok and upper(s.meet(x, y)) == s.meet(upper(x), upper(y))
    return s.verdict(ok, small=x, large=y)


_A_PROPS = {
    1: (
        "lower of the full set is full; upper of the empty set is empty",
        partial(_law_bounds, (("lower", "full"), ("upper", "empty"))),
    ),
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


_CA_PROPS = {
    1: (
        "lower preserves the empty and full sets",
        partial(_law_bounds, (("lower", "empty"), ("lower", "full"))),
    ),
    2: (
        "upper preserves the empty and full sets",
        partial(_law_bounds, (("upper", "empty"), ("upper", "full"))),
    ),
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

# Each row relates the operators of the four kinds on one target: ``s`` is
# the trial's sets, ``lo(k)`` and ``up(k)`` the kind-k approximations.
_REL_ROWS = {
    1: ("lower3 equals lower1 union lower2", lambda s, lo, up: lo(3) == s.join(lo(1), lo(2))),
    2: ("upper3 equals upper1 intersect upper2", lambda s, lo, up: up(3) == s.meet(up(1), up(2))),
    3: ("lower4 equals lower1 intersect lower2", lambda s, lo, up: lo(4) == s.meet(lo(1), lo(2))),
    4: ("upper4 equals upper1 union upper2", lambda s, lo, up: up(4) == s.join(up(1), up(2))),
    5: ("lower4 in lower1 in lower3", lambda s, lo, up: s.chain(lo(4), lo(1), lo(3))),
    6: ("lower4 in lower2 in lower3", lambda s, lo, up: s.chain(lo(4), lo(2), lo(3))),
    7: ("upper3 in upper1 in upper4", lambda s, lo, up: s.chain(up(3), up(1), up(4))),
    8: ("upper3 in upper2 in upper4", lambda s, lo, up: s.chain(up(3), up(2), up(4))),
}


def _check_rel(mode: str, relation: Callable, ctx: TrialContext) -> CheckResult:
    s = getattr(ctx, mode)
    lower, upper, x = getattr(ctx, s.lower), getattr(ctx, s.upper), s.x
    ok = relation(s, lambda k: lower(Kind(k), x), lambda k: upper(Kind(k), x))
    return s.verdict(ok, target=x)


for _mode, _tag in ((_FUZZY, "F"), (_CRISP, "C")):
    for _i, (_stmt, _relation) in _REL_ROWS.items():
        _register(f"REL-{_tag}{_i}", f"{_mode} {_stmt}", partial(_check_rel, _mode, _relation))


@_law("SANDWICH", "bounded targets: lower4 in lower2 in lower3 in X in upper3 in upper1 in upper4")
def _check_sandwich(ctx: TrialContext) -> CheckResult:
    s, target = ctx.fuzzy, ctx.fuzzy.bounded
    if target is None:
        return _skip(_UNBOUNDED)
    lower = [ctx.fl(Kind(k), target) for k in (4, 2, 3)]
    upper = [ctx.fu(Kind(k), target) for k in (3, 1, 4)]
    ok = s.chain(*lower, target, *upper)
    return s.verdict(ok, target=target)


@_law("TWO-SPACE", "equal crisp neighborhoods give equal kind-1 crisp approximations across spaces")
def _check_two_space(ctx: TrialContext) -> CheckResult:
    other = ctx.inputs.space2
    if other is None:
        return _skip("no valid companion space for this instance")
    ns2 = NeighborhoodSystem(other)
    if ctx.ns.crisp_sets != ns2.crisp_sets:
        return _skip("companion space has different crisp neighborhoods")
    s, x = ctx.crisp, ctx.crisp.x
    ok = ctx.cl(Kind.K1, x) == crisp_on_mask(ns2, Kind.K1, x, lower=True)
    ok = ok and ctx.cu(Kind.K1, x) == crisp_on_mask(ns2, Kind.K1, x)
    return s.verdict(ok, target=x)


# -- strictness witnesses ------------------------------------------------------


@_law(
    "W-UNION-STRICT",
    "exists x,y with crisp(x) union crisp(y) strictly inside the cut of the joined rows",
    "witness",
)
def _check_w_union_strict(ctx: TrialContext) -> CheckResult:
    u = ctx.space.universe.objects
    for i, j, lhs, rhs in _pair_sides(ctx, _UNION):
        if lhs != rhs and _within(lhs, rhs):
            gained = sorted(u[k] for k in _bits(rhs & ~lhs))
            return CheckResult(PASS, detail={"x": u[i], "y": u[j], "gained": str(gained)})
    return _skip("no strict instance in this space")


@_law(
    "W-LOWER-STRICT",
    "exists X,Y with lower(X) union lower(Y) strictly inside lower(X union Y)",
    "witness",
)
def _check_w_lower_strict(ctx: TrialContext) -> CheckResult:
    s = ctx.fuzzy
    lhs = s.join(ctx.fl(Kind.K1, s.x), ctx.fl(Kind.K1, s.y))
    rhs = ctx.fl(Kind.K1, s.join(s.x, s.y))
    if s.subset(lhs, rhs) and lhs != rhs:
        x, y = ctx.inputs.fuzzy_x, ctx.inputs.fuzzy_y
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
    return spec.checker(TrialContext(NeighborhoodSystem(space), inputs))


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


def _shrink_tables(space: SoftSpace) -> Iterator[GradeTable]:
    """Edited grade tables: drop an object, drop a parameter, snap a cell."""
    table = space.mapping.table()
    if len(space.universe) > 1:
        for obj in space.universe.objects:
            yield {p: {o: g for o, g in row.items() if o != obj} for p, row in table.items()}
    if len(table) > 1:
        for param in table:
            yield {p: row for p, row in table.items() if p != param}
    for param, row in table.items():
        for obj, grade in row.items():
            for snapped in snap_candidates(grade):
                yield {**table, param: {**row, obj: snapped}}


def _shrink_candidates(
    space: SoftSpace, inputs: CheckInputs
) -> Iterator[Tuple[SoftSpace, CheckInputs]]:
    """Smaller or simpler instances, in the order the shrinker tries them."""
    for table in _shrink_tables(space):
        candidate = rebuild_space(space, table)  # None: the edit broke the covering
        if candidate is None:
            continue
        if candidate.universe == space.universe:
            yield candidate, inputs
        else:
            yield candidate, _project_inputs(inputs, candidate.universe)
    for attr in ("fuzzy_x", "fuzzy_y", "hypothesis_x"):
        fs = getattr(inputs, attr)
        if fs is None:
            continue
        for i, grade in enumerate(fs.grades):
            for snapped in snap_candidates(grade):
                grades = fs.grades[:i] + (snapped,) + fs.grades[i + 1 :]
                yield space, replace(inputs, **{attr: IVFuzzySet(fs.universe, grades)})


def shrink_counterexample(
    theorem: str, space: SoftSpace, inputs: CheckInputs
) -> Tuple[SoftSpace, CheckInputs]:
    """Greedy minimization: drop objects/parameters, snap grades to {0,1/2,1}.

    Every accepted candidate still fails the same theorem and is still a
    valid covering, so the result is a no-larger failing instance.
    """
    if theorem == "TWO-SPACE":
        return space, inputs  # companion space makes projection ambiguous
    evals = 0
    improved = True
    while improved:
        improved = False
        candidates = _shrink_candidates(space, inputs)
        for candidate, cand_inputs in itertools.islice(candidates, _SHRINK_BUDGET - evals):
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
        return [t for t, s in self.stats.items() if s.status == "law" and s.failures > 0]

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
                # gen_space always repairs; schema 1 keeps the field.
                "covering_policy": "repair",
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
) -> AuditReport:
    """Check the requested statements over freshly generated instances.

    Deterministic for a fixed (config, trials): trial seeds derive from
    the config seed and the trial index.  The first failure per theorem
    is shrunk and serialized for replay.  A repeated id is checked once,
    and an empty selection is a ValueError.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if theorems is None:
        ids = all_theorem_ids()
    else:
        ids = list(dict.fromkeys(theorems))  # in order, each id once
        if not ids:
            raise ValueError("no theorem selected: a law checked on nothing would pass vacuously")
        for t in ids:
            if t not in REGISTRY:
                raise UnknownTheoremError(f"unknown theorem id {t!r}")
    stats = {t: TheoremStats(t, REGISTRY[t].statement, REGISTRY[t].status) for t in ids}
    start = time.perf_counter()
    for trial in range(trials):
        trial_config = replace(config, seed=_trial_seed(config.seed, trial))
        space = gen_space(trial_config)
        ns = NeighborhoodSystem(space)
        rng = random.Random(f"betacover-inputs:{config.seed}:{trial}")
        inputs = sample_inputs(ns, rng, config.grid_denominator)
        ctx = TrialContext(ns, inputs)
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
                    ce_space, ce_inputs = shrink_counterexample(theorem, space, inputs)
                    entry.first_counterexample = {
                        "theorem": theorem,
                        "trial": trial,
                        "space": space_to_doc(ce_space),
                        "inputs": inputs_to_doc(ce_inputs),
                        "detail": check(theorem, ce_space, ce_inputs).detail,
                    }
    wall = time.perf_counter() - start
    return AuditReport(config.seed, trials, config, stats, wall)
