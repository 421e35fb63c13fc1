"""Exact interval-value algebra on [0,1].

Membership grades are closed subintervals of the unit interval with
rational endpoints, ordered componentwise (the product order):
``[a,b] <= [c,d]`` iff ``a <= c`` and ``b <= d``.  The order is partial,
so some pairs of intervals are incomparable: ``not leq_bool(a, b)`` does
not mean ``leq_bool(b, a)``, and a caller that needs the exact relation
asks :func:`leq_bool` both ways.

All arithmetic is exact (``fractions.Fraction`` endpoints), so every
lattice identity checked elsewhere in the package is an exact equality
with zero tolerance.

An interval is validated once, where it enters the program: parsing,
``of`` and direct construction check ``0 <= lo <= hi <= 1``.
The meet, join or complement of valid intervals is valid, so the lattice
operations build their results unchecked.  Every endpoint-order decision
(the meet, the join, the order and that check) goes through one compare,
``_le``, which cross-multiplies numerators and denominators: Fraction's
order without its per-compare ``numbers.Rational`` check.  The families'
meet and join fold ``meet`` and ``join``, and the complement is ``1 - x``
on each endpoint.

Meet, join, the order and the complement read only the order of
endpoints, so ``Codes`` numbers the endpoints of a finite family (closed
under ``1 - x``) and the neighborhood system and the operators work on
those ints with ``min``, ``max`` and ``<=``, decoding to ``IntervalValue``
only where a result is read.  ``scaled_endpoints`` gives the definition-
literal oracle its own exact ints: endpoints over one common denominator.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from math import lcm
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .errors import EmptyFamilyError, excerpt

EndpointLike = Union[Fraction, int, str]

# Largest |exponent| an endpoint literal such as "5e-1" or "5e-0_1" may carry:
# Fraction expands 10**exponent exactly, so "1e-99_999_999" would stall the parser.
MAX_EXPONENT = 1000

# Most digits, "_" not counted, in one run of an endpoint literal.  Fraction
# converts each run with int(), whose default limit is this, but an
# interpreter setting can lift that limit and a longer run then stalls.
MAX_DIGITS = 4300

_INTERVAL_RE = re.compile(r"^\s*\[\s*([^,\[\]\s]+)\s*,\s*([^,\[\]\s]+)\s*\]\s*$")


def parse_endpoint(text: str) -> Fraction:
    """Parse a decimal ("0.55") or rational ("11/20") endpoint exactly.

    Raises ValueError if the literal is malformed, outside [0,1], has a
    run of more than MAX_DIGITS digits or an exponent beyond +-MAX_EXPONENT.
    """
    runs = re.findall(r"\d+", text.replace("_", "")) if len(text) > MAX_DIGITS else ()
    if any(len(run) > MAX_DIGITS for run in runs):
        raise ValueError(
            f"bad endpoint literal {excerpt(text)}: a run of more than {MAX_DIGITS} digits"
        )
    if "e" in text or "E" in text:
        exponent = text.lower().rpartition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
        if exponent.isdecimal() and (
            len(exponent) > len(str(MAX_EXPONENT)) or int(exponent) > MAX_EXPONENT
        ):
            raise ValueError(
                f"bad endpoint literal {excerpt(text)}: exponent above {MAX_EXPONENT}"
            )
    try:
        value = Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"bad endpoint literal {excerpt(text)}: zero denominator") from None
    except ValueError as exc:
        # Fraction's own message repeats the whole literal; int's digit-limit
        # message is kept up to the advice after its ';'.
        reason = str(exc).partition(";")[0]
        if reason.startswith("Invalid literal"):
            reason = "expected a decimal or p/q literal"
        raise ValueError(f"bad endpoint literal {excerpt(text)}: {reason}") from None
    if not 0 <= value <= 1:
        raise ValueError(f"endpoint {excerpt(text)} outside [0,1]")
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


def _le(a: Fraction, b: Fraction) -> bool:
    """a <= b for Fraction endpoints, by cross-multiplication."""
    return a.numerator * b.denominator <= b.numerator * a.denominator


@dataclass(frozen=True)
class IntervalValue:
    """A closed subinterval of [0,1] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if not isinstance(lo, Fraction) or not isinstance(hi, Fraction):
            raise TypeError("endpoints must be Fractions; use IntervalValue.of")
        if not (lo.numerator >= 0 and _le(lo, hi) and hi.numerator <= hi.denominator):
            raise ValueError(f"invalid interval [{lo},{hi}]: need 0 <= lo <= hi <= 1")

    @classmethod
    def of(cls, lo: EndpointLike, hi: EndpointLike) -> "IntervalValue":
        """Build an interval, coercing int/str/Fraction endpoints exactly."""
        return cls(_coerce(lo), _coerce(hi))

    @classmethod
    def parse(cls, text: str, endpoints: Optional[Dict[str, Fraction]] = None) -> "IntervalValue":
        """Parse the canonical text form "[lo,hi]".

        ``endpoints`` memoizes endpoint texts across calls: a text it lacks
        goes through ``parse_endpoint`` and only a successful result is
        stored.  The interval itself is always built by the checked
        constructor, so ``lo <= hi`` is checked whatever the memo holds.
        """
        m = _INTERVAL_RE.match(text)
        if m is None:
            raise ValueError(f"bad interval literal {excerpt(text)}: expected '[lo,hi]'")
        if endpoints is None:
            endpoints = {}
        lo, hi = m.groups()
        for endpoint in (lo, hi):
            if endpoint not in endpoints:
                endpoints[endpoint] = parse_endpoint(endpoint)
        return cls(endpoints[lo], endpoints[hi])

    def text(self) -> str:
        return f"[{format_endpoint(self.lo)},{format_endpoint(self.hi)}]"

    def __str__(self) -> str:
        return self.text()


def _coerce(value: EndpointLike) -> Fraction:
    if isinstance(value, Fraction):
        result = value
    elif type(value) is int:  # by type: a bool is no endpoint
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


# -- results derived from valid intervals --------------------------------

_new = object.__new__
_setattr = object.__setattr__


def _unchecked(lo: Fraction, hi: Fraction) -> IntervalValue:
    """An IntervalValue whose endpoints are known to satisfy 0 <= lo <= hi <= 1.

    Only the lattice operations and ``Codes.decode`` call this, on endpoints of
    valid intervals; it skips ``__post_init__``.  It sets the fields the way
    the dataclass does: writing to ``__dict__`` directly is faster but makes
    each value 160 bytes instead of 96.
    """
    value = _new(IntervalValue)
    _setattr(value, "lo", lo)
    _setattr(value, "hi", hi)
    return value


def _not_intervals(op: str, *values) -> TypeError:
    bad = next(v for v in values if not isinstance(v, IntervalValue))
    return TypeError(f"{op} needs IntervalValue operands, got {type(bad).__name__}")


def _members(family: Iterable[IntervalValue], op: str) -> list:
    items = list(family)
    if not items:
        raise EmptyFamilyError(f"{op} over an empty family")
    for i in items:
        if not isinstance(i, IntervalValue):
            raise _not_intervals(op, i)
    return items


def meet(a: IntervalValue, b: IntervalValue) -> IntervalValue:
    """Componentwise minimum (lattice meet)."""
    if not (isinstance(a, IntervalValue) and isinstance(b, IntervalValue)):
        raise _not_intervals("meet", a, b)
    return _unchecked(a.lo if _le(a.lo, b.lo) else b.lo, a.hi if _le(a.hi, b.hi) else b.hi)


def join(a: IntervalValue, b: IntervalValue) -> IntervalValue:
    """Componentwise maximum (lattice join)."""
    if not (isinstance(a, IntervalValue) and isinstance(b, IntervalValue)):
        raise _not_intervals("join", a, b)
    return _unchecked(a.lo if _le(b.lo, a.lo) else b.lo, a.hi if _le(b.hi, a.hi) else b.hi)


def complement(a: IntervalValue) -> IntervalValue:
    """[1-hi, 1-lo]; an exact involution."""
    if not isinstance(a, IntervalValue):
        raise _not_intervals("complement", a)
    return _unchecked(1 - a.hi, 1 - a.lo)


def leq_bool(a: IntervalValue, b: IntervalValue) -> bool:
    """True iff a <= b in the product order."""
    return _le(a.lo, b.lo) and _le(a.hi, b.hi)


def family_meet(family: Iterable[IntervalValue]) -> IntervalValue:
    """Componentwise infimum over a nonempty family.

    The empty family is rejected here; the empty-intersection convention
    (top element) belongs to the neighborhood layer, where the context
    defines it.
    """
    return reduce(meet, _members(family, "family_meet"))


def family_join(family: Iterable[IntervalValue]) -> IntervalValue:
    """Componentwise supremum over a nonempty family."""
    return reduce(join, _members(family, "family_join"))


# -- endpoints over one common denominator ----------------------------------


def scaled_endpoints(
    values: Iterable[IntervalValue], base: int = 1
) -> Tuple[int, List[int], List[int], Dict[int, Fraction]]:
    """The values' endpoints as ints over one common denominator.

    Returns ``(d, lows, highs, points)``: ``d`` is the least common multiple
    of ``base`` and every endpoint's denominator, ``lows[i]`` and ``highs[i]``
    are ``d`` times the i-th value's endpoints, and ``points`` maps each of
    those ints back to its endpoint.  Over one ``d`` the ints keep the
    endpoints' order, and ``1 - x`` scales to ``d - k``.
    """
    values = list(values)
    d = lcm(base, *{x.denominator for v in values for x in (v.lo, v.hi)})
    lows, highs, points = [], [], {}
    for v in values:
        for x, out in ((v.lo, lows), (v.hi, highs)):
            num, den = x.as_integer_ratio()
            k = num * (d // den)
            out.append(k)
            points[k] = x
    return d, lows, highs, points


# -- order-preserving endpoint codes ----------------------------------------

_CodeRow = Tuple[int, ...]


class Codes:
    """Order-preserving int codes for the endpoints of a finite family of intervals.

    ``points`` are the family's distinct endpoints, 0, 1 and ``1 - x`` for
    each endpoint x, in increasing order; code k stands for ``points[k]``
    and ``top`` (the code of 1) is ``len(points) - 1``.
    """

    def __init__(self, values: Iterable[IntervalValue], points: Iterable[Fraction] = ()):
        # Keyed by (numerator, denominator), which hashes about six times
        # faster than a Fraction and is unique, a Fraction being in lowest terms.
        found = {p.as_integer_ratio(): p for p in (BOTTOM.lo, TOP.hi, *points)}
        for v in values:
            for x in (v.lo, v.hi):
                found[x.as_integer_ratio()] = x
        # (d-n)/d is in lowest terms too: the key of 1 - n/d.
        for n, d in list(found):
            if (d - n, d) not in found:
                found[d - n, d] = Fraction(d - n, d)
        # Division rounds monotonically: the floats order all but near ties,
        # which fall to the exact Fraction compare.  The tuple is built from a
        # list, at its exact length: one built from a generator starts at 10
        # slots and is resized, and a resized 11..19-slot tuple, once freed,
        # waits on a free list that only tuples made at that length draw from,
        # so an audit run of grid-10 trials kept up to 2000 of them (256 KB).
        self.points = tuple([p for _, p in sorted((n / d, p) for (n, d), p in found.items())])
        self.top = len(self.points) - 1
        self._index = {p.as_integer_ratio(): k for k, p in enumerate(self.points)}

    def encode(self, values: Iterable[IntervalValue]) -> Tuple[_CodeRow, _CodeRow]:
        """The low codes and the high codes of the values; KeyError for an endpoint not a point."""
        index = self._index
        lows, highs = [], []
        for v in values:
            lows.append(index[v.lo.as_integer_ratio()])
            highs.append(index[v.hi.as_integer_ratio()])
        return tuple(lows), tuple(highs)

    def at_least(self, value: IntervalValue) -> Tuple[int, int]:
        """The least codes whose points are >= the value's low and high endpoints.

        A code k then stands for a point >= an endpoint iff k is >= its code,
        whether or not the table numbers that endpoint.
        """
        return tuple(
            bisect_left(self.points, True, key=partial(_le, x)) for x in (value.lo, value.hi)
        )

    def decode(self, lows: _CodeRow, highs: _CodeRow) -> Tuple[IntervalValue, ...]:
        """The intervals ``[points[a], points[b]]``, built unchecked from the points."""
        points = self.points
        return tuple(_unchecked(points[a], points[b]) for a, b in zip(lows, highs))

    def complement(self, lows: _CodeRow, highs: _CodeRow) -> Tuple[_CodeRow, _CodeRow]:
        """Codes of the complements: ``[1 - hi, 1 - lo]`` is ``[top - b, top - a]``."""
        top = self.top
        return tuple(top - b for b in highs), tuple(top - a for a in lows)

    def widen(self, values: Iterable[IntervalValue]) -> Tuple["Codes", List[int]]:
        """Codes that also number the values' endpoints, and each old code's new code."""
        wider = Codes(values, self.points)
        return wider, [wider._index[p.as_integer_ratio()] for p in self.points]
