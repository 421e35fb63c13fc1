from fractions import Fraction

import pytest
from hypothesis import strategies as st

from betacover import IVFuzzySet, IntervalValue, SoftMapping, SoftSpace, Universe, build_space


def iv(text: str) -> IntervalValue:
    return IntervalValue.parse(text)


def hostile_interval(rng) -> IntervalValue:
    """An interval over one fresh odd 200-bit denominator."""
    d = rng.getrandbits(200) | 1 << 199 | 1
    lo, hi = sorted((rng.randrange(d + 1), rng.randrange(d + 1)))
    return IntervalValue(Fraction(lo, d), Fraction(hi, d))


def make_space(universe, table, beta):
    u = Universe(tuple(universe))
    parsed = {p: {o: iv(t) for o, t in row.items()} for p, row in table.items()}
    return SoftSpace(SoftMapping.from_dict(u, parsed), iv(beta))


@pytest.fixture
def xyz():
    return Universe(("x", "y", "z"))


@pytest.fixture
def derived_space(xyz):
    """Three parameters, nonempty index set at every object."""
    return make_space(
        xyz.objects,
        {
            "e1": {"x": "[0.6,0.7]", "y": "[0.5,0.6]", "z": "[0.3,0.6]"},
            "e2": {"x": "[0.5,0.8]", "y": "[0.4,0.9]", "z": "[0.7,0.8]"},
            "e3": {"x": "[0.2,0.3]", "y": "[0.6,0.7]", "z": "[0.5,0.55]"},
        },
        "[0.5,0.6]",
    )


@pytest.fixture
def gap_space(xyz):
    """At z the parameter join dominates beta but no single grade does.

    This is the space exercising the empty-index convention and the
    strict crisp-union inclusion.
    """
    return make_space(
        xyz.objects,
        {
            "e1": {"x": "[0.6,0.7]", "y": "[0.4,0.5]", "z": "[0.3,0.6]"},
            "e2": {"x": "[0.4,0.9]", "y": "[0.5,0.6]", "z": "[0.5,0.55]"},
        },
        "[0.5,0.6]",
    )


@pytest.fixture
def kind3_gap_space(xyz):
    """Space on which the kind-3 composition identities provably fail."""
    return make_space(
        xyz.objects,
        {
            "e1": {"x": "[1,1]", "y": "[1,1]", "z": "[0,0]"},
            "e2": {"x": "[0,0]", "y": "[1,1]", "z": "[0,0]"},
            "e3": {"x": "[1,1]", "y": "[1,1]", "z": "[1,1]"},
        },
        "[1,1]",
    )


def fuzzy(universe, **grades) -> IVFuzzySet:
    return IVFuzzySet.from_dict(universe, {o: iv(t) for o, t in grades.items()})


# Hypothesis strategies over a small exact grid -------------------------------

_DENOM = 12


@st.composite
def intervals(draw):
    a = draw(st.integers(0, _DENOM))
    b = draw(st.integers(0, _DENOM))
    lo, hi = min(a, b), max(a, b)
    return IntervalValue(Fraction(lo, _DENOM), Fraction(hi, _DENOM))


# Endpoint denominators 1..13 plus two huge ones, so that a compare or a
# complement that mixes up numerators and denominators gives a wrong answer.
MIXED_DENOMINATORS = (*range(1, 14), 2**64, 5**30)

endpoints = st.sampled_from(MIXED_DENOMINATORS).flatmap(
    lambda d: st.integers(0, d).map(lambda n: Fraction(n, d))
)


@st.composite
def mixed_intervals(draw):
    lo, hi = sorted((draw(endpoints), draw(endpoints)))
    return IntervalValue(lo, hi)


@st.composite
def mixed_spaces(draw):
    """Covering spaces whose grades and beta mix endpoint denominators."""
    objects = draw(st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=4,
                            unique=True))
    parameters = draw(st.lists(st.sampled_from(["e1", "e2", "e3"]), min_size=1, max_size=3,
                               unique=True))
    table = {p: {o: draw(mixed_intervals()) for o in objects} for p in parameters}
    mapping = SoftMapping.from_dict(Universe(tuple(objects)), table)
    return build_space(mapping, draw(mixed_intervals()), f"repair:{parameters[0]}")
