"""Exact interval-value algebra on [0,1].

Membership grades are closed subintervals of the unit interval with
rational endpoints, ordered componentwise (the product order):
``[a,b] <= [c,d]`` iff ``a <= c`` and ``b <= d``.  The order is partial,
so some pairs of intervals are incomparable; callers that care about the
exact relation should use :func:`relation` rather than :func:`leq_bool`.

All arithmetic is exact (``fractions.Fraction`` endpoints), so every
lattice identity checked elsewhere in the package is an exact equality
with zero tolerance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

from .errors import EmptyFamilyError

EndpointLike = Union[Fraction, int, str]

# Largest |exponent| an endpoint literal such as "5e-1" or "5e-0_1" may carry:
# Fraction expands 10**exponent exactly, so "1e-99_999_999" would stall the parser.
MAX_EXPONENT = 1000

_INTERVAL_RE = re.compile(r"^\s*\[\s*([^,\[\]\s]+)\s*,\s*([^,\[\]\s]+)\s*\]\s*$")


class Relation(Enum):
    """Outcome of comparing two interval values under the product order."""

    EQUAL = "equal"
    LESS_OR_EQUAL = "less_or_equal"
    GREATER_OR_EQUAL = "greater_or_equal"
    INCOMPARABLE = "incomparable"


def parse_endpoint(text: str) -> Fraction:
    """Parse a decimal ("0.55") or rational ("11/20") endpoint exactly.

    Raises ValueError if the literal is malformed, outside [0,1], or has
    an exponent beyond +-MAX_EXPONENT.
    """
    if "e" in text or "E" in text:
        exponent = text.lower().rpartition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
        if exponent.isdecimal() and (
            len(exponent) > len(str(MAX_EXPONENT)) or int(exponent) > MAX_EXPONENT
        ):
            raise ValueError(f"bad endpoint literal {text!r}: exponent above {MAX_EXPONENT}")
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad endpoint literal {text!r}: {exc}") from None
    if not 0 <= value <= 1:
        raise ValueError(f"endpoint {text!r} outside [0,1]")
    return value


def format_endpoint(value: Fraction) -> str:
    """Canonical text for an endpoint.

    Finite decimals (denominator of the form 2^a * 5^b) render as the
    shortest exact decimal; everything else renders as "p/q" in lowest
    terms.  The mapping is injective, so canonical serialization is
    byte-stable.
    """
    den = value.denominator
    if den == 1:
        return str(value.numerator)
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{value.numerator}/{den}"
    k = max(twos, fives)
    scaled = value.numerator * 10**k // den
    digits = str(scaled).rjust(k, "0")
    return f"{digits[:-k] or '0'}.{digits[-k:]}"


@dataclass(frozen=True)
class IntervalValue:
    """A closed subinterval of [0,1] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not isinstance(self.lo, Fraction) or not isinstance(self.hi, Fraction):
            raise TypeError("endpoints must be Fractions; use IntervalValue.of")
        if not (0 <= self.lo <= self.hi <= 1):
            raise ValueError(
                f"invalid interval [{self.lo},{self.hi}]: need 0 <= lo <= hi <= 1"
            )

    @classmethod
    def of(cls, lo: EndpointLike, hi: EndpointLike) -> "IntervalValue":
        """Build an interval, coercing int/str/Fraction endpoints exactly."""
        return cls(_coerce(lo), _coerce(hi))

    @classmethod
    def point(cls, value: EndpointLike) -> "IntervalValue":
        """The degenerate interval [v,v]."""
        v = _coerce(value)
        return cls(v, v)

    @classmethod
    def parse(cls, text: str) -> "IntervalValue":
        """Parse the canonical text form "[lo,hi]"."""
        m = _INTERVAL_RE.match(text)
        if m is None:
            raise ValueError(f"bad interval literal {text!r}: expected '[lo,hi]'")
        return cls(parse_endpoint(m.group(1)), parse_endpoint(m.group(2)))

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    def meet(self, other: "IntervalValue") -> "IntervalValue":
        return IntervalValue(min(self.lo, other.lo), min(self.hi, other.hi))

    def join(self, other: "IntervalValue") -> "IntervalValue":
        return IntervalValue(max(self.lo, other.lo), max(self.hi, other.hi))

    def complement(self) -> "IntervalValue":
        return IntervalValue(1 - self.hi, 1 - self.lo)

    def text(self) -> str:
        return f"[{format_endpoint(self.lo)},{format_endpoint(self.hi)}]"

    def __str__(self) -> str:
        return self.text()


def _coerce(value: EndpointLike) -> Fraction:
    if isinstance(value, Fraction):
        result = value
    elif isinstance(value, int):
        result = Fraction(value)
    elif isinstance(value, str):
        return parse_endpoint(value)
    else:
        raise TypeError(f"cannot use {type(value).__name__} as an endpoint")
    if not 0 <= result <= 1:
        raise ValueError(f"endpoint {value} outside [0,1]")
    return result


TOP = IntervalValue(Fraction(1), Fraction(1))
BOTTOM = IntervalValue(Fraction(0), Fraction(0))


def meet(a: IntervalValue, b: IntervalValue) -> IntervalValue:
    """Componentwise minimum (lattice meet)."""
    return a.meet(b)


def join(a: IntervalValue, b: IntervalValue) -> IntervalValue:
    """Componentwise maximum (lattice join)."""
    return a.join(b)


def complement(a: IntervalValue) -> IntervalValue:
    """[1-hi, 1-lo]; an exact involution."""
    return a.complement()


def leq_bool(a: IntervalValue, b: IntervalValue) -> bool:
    """True iff a <= b in the product order."""
    return a.lo <= b.lo and a.hi <= b.hi


def relation(a: IntervalValue, b: IntervalValue) -> Relation:
    """Exact four-way product-order relation between a and b.

    GREATER_OR_EQUAL is reported only when b <= a holds and a <= b does
    not, so callers never conflate "not <=" with ">=".
    """
    forward = leq_bool(a, b)
    backward = leq_bool(b, a)
    if forward and backward:
        return Relation.EQUAL
    if forward:
        return Relation.LESS_OR_EQUAL
    if backward:
        return Relation.GREATER_OR_EQUAL
    return Relation.INCOMPARABLE


def family_meet(family: Iterable[IntervalValue]) -> IntervalValue:
    """Componentwise infimum over a nonempty family.

    The empty family is rejected here; the empty-intersection convention
    (top element) belongs to the neighborhood layer, where the context
    defines it.
    """
    items = list(family)
    if not items:
        raise EmptyFamilyError("family_meet over an empty family")
    lo = min(i.lo for i in items)
    hi = min(i.hi for i in items)
    return IntervalValue(lo, hi)


def family_join(family: Iterable[IntervalValue]) -> IntervalValue:
    """Componentwise supremum over a nonempty family."""
    items = list(family)
    if not items:
        raise EmptyFamilyError("family_join over an empty family")
    lo = max(i.lo for i in items)
    hi = max(i.hi for i in items)
    return IntervalValue(lo, hi)
