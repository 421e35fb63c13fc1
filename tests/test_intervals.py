import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betacover import (
    BOTTOM,
    TOP,
    EmptyFamilyError,
    IntervalValue,
    complement,
    family_join,
    family_meet,
    join,
    leq_bool,
    meet,
)
from betacover.intervals import (
    MAX_DIGITS,
    MAX_EXPONENT,
    Codes,
    format_endpoint,
    parse_endpoint,
    scaled_endpoints,
)
from betacover.approximations import fuzzy_lower, fuzzy_upper
from betacover.fuzzysets import Universe
from betacover.neighborhoods import NeighborhoodSystem
from betacover.oracle import oracle_fuzzy_lower, oracle_fuzzy_tables, oracle_fuzzy_upper

from conftest import fuzzy, intervals, iv, make_space, mixed_intervals


class TestConstruction:
    def test_of_accepts_mixed_endpoint_types(self):
        a = IntervalValue.of("0.3", Fraction(3, 5))
        assert a.lo == Fraction(3, 10) and a.hi == Fraction(3, 5)

    def test_equal_endpoints_make_a_degenerate_interval(self):
        v = IntervalValue.of("0.4", "0.4")
        assert v.lo == v.hi

    def test_bools_are_not_endpoints(self):
        for build in (lambda: IntervalValue.of(False, True), lambda: IntervalValue.of(True, True),
                      lambda: IntervalValue.of(0, True)):
            with pytest.raises(TypeError, match="bool"):
                build()
        assert IntervalValue.of(0, 1) == IntervalValue.of(Fraction(0), "1") == iv("[0,1]")
        assert IntervalValue.of(1, 1) == TOP

    @pytest.mark.parametrize("lo,hi", [("0.7", "0.3"), ("-0.1", "0.5"), ("0", "1.5")])
    def test_invalid_endpoints_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            IntervalValue.of(lo, hi)

    def test_parse_round_trip(self):
        for text in ["[0,1]", "[0.3,0.6]", "[1/3,2/3]", "[0.55,0.55]"]:
            assert IntervalValue.parse(text).text() == text

    def test_parse_rejects_garbage(self):
        for text in ["0.3,0.6", "[0.3;0.6]", "[0.7,0.3]", "[a,b]", "[0.3]"]:
            with pytest.raises(ValueError):
                IntervalValue.parse(text)


class TestHash:
    """Equal intervals hash alike, however they are spelled or built."""

    def test_spellings_of_one_interval_find_one_key(self):
        spellings = [iv("[0.5,1]"), iv("[1/2,1]"), IntervalValue.of("2/4", 1),
                     IntervalValue(Fraction(1, 2), Fraction(1))]
        table = {spellings[0]: "half"}
        for value in spellings:
            assert value == spellings[0] and hash(value) == hash(spellings[0])
            assert table[value] == "half"

    @settings(max_examples=200, deadline=1000)
    @given(mixed_intervals(), mixed_intervals())
    def test_equal_intervals_have_equal_hashes(self, a, b):
        lo, hi = a.lo, a.hi
        scaled = IntervalValue.of(f"{3 * lo.numerator}/{3 * lo.denominator}",
                                  f"{7 * hi.numerator}/{7 * hi.denominator}")
        pairs = [
            (IntervalValue.parse(a.text()), a),
            (scaled, a),
            (meet(a, b), IntervalValue(min(a.lo, b.lo), min(a.hi, b.hi))),
            (join(a, b), IntervalValue(max(a.lo, b.lo), max(a.hi, b.hi))),
            (complement(a), IntervalValue(1 - a.hi, 1 - a.lo)),
        ]
        for built, checked in pairs:
            assert built == checked and hash(built) == hash(checked)
            assert {checked: True}.get(built)
        assert (a == b) <= (hash(a) == hash(b))


class TestEndpointText:
    def test_decimal_for_power_of_ten_denominators(self):
        assert format_endpoint(Fraction(11, 20)) == "0.55"
        assert format_endpoint(Fraction(1, 8)) == "0.125"
        assert format_endpoint(Fraction(1)) == "1"
        assert format_endpoint(Fraction(0)) == "0"

    def test_fraction_for_other_denominators(self):
        assert format_endpoint(Fraction(1, 3)) == "1/3"
        assert format_endpoint(Fraction(5, 12)) == "5/12"

    def test_parse_format_identity(self):
        for num in range(0, 21):
            v = Fraction(num, 20)
            assert parse_endpoint(format_endpoint(v)) == v

    def test_rational_and_decimal_agree(self):
        assert parse_endpoint("11/20") == parse_endpoint("0.55")

    def test_long_decimals_round_trip(self):
        for v in (Fraction(1, 2**64), Fraction(2**64 - 1, 2**64), Fraction(7, 5**30)):
            text = format_endpoint(v)
            assert "e" not in text and parse_endpoint(text) == v

    def test_exponents_within_the_bound_parse(self):
        assert parse_endpoint("5e-1") == Fraction(1, 2)
        assert parse_endpoint(f"1E-{MAX_EXPONENT}") == Fraction(1, 10**MAX_EXPONENT)

    def test_exponent_beyond_the_bound_is_rejected_fast(self):
        start = time.perf_counter()
        for text in (f"1e-{MAX_EXPONENT + 1}", "1e-99999999", "0.5e+0000099999999",
                     "1e-99_999_999", "1E+0_0_99999999"):
            with pytest.raises(ValueError, match="exponent"):
                parse_endpoint(text)
        assert time.perf_counter() - start < 1

    def test_runs_of_digits_up_to_the_cap_parse(self):
        assert parse_endpoint("0." + "0" * (MAX_DIGITS - 1) + "1") == Fraction(1, 10**MAX_DIGITS)
        # the "_" makes the run MAX_DIGITS + 1 characters long, but not digits
        assert parse_endpoint("1/1_" + "0" * (MAX_DIGITS - 1)) == Fraction(1, 10**(MAX_DIGITS - 1))

    def test_digit_runs_past_the_cap_are_rejected_without_the_interpreter_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for text in ("0." + "1" * 200_000, "1/" + "1" * 200_000):
                start = time.perf_counter()
                with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} digits") as info:
                    parse_endpoint(text)
                assert time.perf_counter() - start < 1
                assert len(str(info.value)) <= 300
        finally:
            sys.set_int_max_str_digits(limit)


class TestOrder:
    def test_incomparable_pair(self):
        a, b = iv("[0.2,0.8]"), iv("[0.4,0.5]")
        assert not leq_bool(a, b) and not leq_bool(b, a)
        assert (leq_bool(a, b), leq_bool(b, a)) == (False, False)

    def test_relation_cases(self):
        def both_ways(a, b):
            return leq_bool(iv(a), iv(b)), leq_bool(iv(b), iv(a))

        assert both_ways("[0.3,0.4]", "[0.3,0.4]") == (True, True)
        assert both_ways("[0.1,0.4]", "[0.3,0.4]") == (True, False)
        assert both_ways("[0.3,0.5]", "[0.3,0.4]") == (False, True)

    @given(intervals(), intervals())
    def test_leq_matches_endpoint_order(self, a, b):
        assert leq_bool(a, b) == (a.lo <= b.lo and a.hi <= b.hi)

    @given(intervals(), intervals(), intervals())
    def test_order_is_transitive(self, a, b, c):
        if leq_bool(a, b) and leq_bool(b, c):
            assert leq_bool(a, c)


class TestLattice:
    @given(intervals(), intervals())
    def test_meet_join_are_bounds(self, a, b):
        assert leq_bool(meet(a, b), a) and leq_bool(meet(a, b), b)
        assert leq_bool(a, join(a, b)) and leq_bool(b, join(a, b))

    @given(intervals(), intervals(), intervals())
    def test_distributivity(self, a, b, c):
        assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
        assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))

    @given(intervals(), intervals())
    def test_absorption_and_commutativity(self, a, b):
        assert meet(a, join(a, b)) == a
        assert join(a, meet(a, b)) == a
        assert meet(a, b) == meet(b, a) and join(a, b) == join(b, a)

    @given(intervals())
    def test_top_bottom_units(self, a):
        assert meet(a, TOP) == a and join(a, BOTTOM) == a

    @given(intervals(), intervals())
    def test_de_morgan(self, a, b):
        assert complement(meet(a, b)) == join(complement(a), complement(b))
        assert complement(join(a, b)) == meet(complement(a), complement(b))

    @given(intervals())
    def test_complement_is_involution_and_antitone(self, a):
        assert complement(complement(a)) == a

    @given(intervals(), intervals())
    def test_complement_reverses_order(self, a, b):
        if leq_bool(a, b):
            assert leq_bool(complement(b), complement(a))

    def test_worked_meet_join_complement(self):
        a, b = iv("[0.2,0.8]"), iv("[0.4,0.5]")
        assert meet(a, b) == iv("[0.2,0.5]")
        assert join(a, b) == iv("[0.4,0.8]")
        assert complement(a) == iv("[0.2,0.8]")
        assert complement(iv("[0.3,0.6]")) == iv("[0.4,0.7]")


class TestFamilies:
    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamilyError):
            family_meet([])
        with pytest.raises(EmptyFamilyError):
            family_join([])

    @given(st.lists(intervals(), min_size=1, max_size=6), intervals())
    def test_meet_is_greatest_lower_bound(self, family, probe):
        m = family_meet(family)
        assert all(leq_bool(m, i) for i in family)
        assert leq_bool(probe, m) == all(leq_bool(probe, i) for i in family)

    @given(st.lists(intervals(), min_size=1, max_size=6), intervals())
    def test_join_dominates_members(self, family, probe):
        j = family_join(family)
        assert all(leq_bool(i, j) for i in family)
        if any(leq_bool(probe, i) for i in family):
            assert leq_bool(probe, j)

    @given(
        st.lists(intervals(), min_size=1, max_size=5),
        st.lists(intervals(), max_size=3),
    )
    def test_bigger_family_smaller_meet(self, family, extra):
        assert leq_bool(family_meet(family + extra), family_meet(family))

    def test_family_meet_can_leave_the_family(self):
        # componentwise infimum of incomparable members
        result = family_meet([iv("[0.2,0.8]"), iv("[0.4,0.5]")])
        assert result == iv("[0.2,0.5]")
        assert result not in (iv("[0.2,0.8]"), iv("[0.4,0.5]"))


class TestUncheckedResults:
    """Lattice results skip validation; they must equal the checked construction.

    The expected values use Fraction's own order and arithmetic, over
    endpoints with mixed and huge denominators.
    """

    @settings(max_examples=200, deadline=1000)
    @given(mixed_intervals(), mixed_intervals())
    def test_meet_and_join_match_fraction_min_max(self, a, b):
        assert meet(a, b) == IntervalValue(min(a.lo, b.lo), min(a.hi, b.hi))
        assert join(a, b) == IntervalValue(max(a.lo, b.lo), max(a.hi, b.hi))

    @settings(max_examples=200, deadline=1000)
    @given(mixed_intervals())
    def test_complement_matches_one_minus(self, a):
        result = complement(a)
        assert result == IntervalValue(1 - a.hi, 1 - a.lo)
        assert type(result.lo) is Fraction and type(result.hi) is Fraction

    @settings(max_examples=200, deadline=1000)
    @given(st.lists(mixed_intervals(), min_size=1, max_size=6))
    def test_families_match_fraction_min_max(self, family):
        los, his = [i.lo for i in family], [i.hi for i in family]
        assert family_meet(family) == IntervalValue(min(los), min(his))
        assert family_join(family) == IntervalValue(max(los), max(his))

    @settings(max_examples=200, deadline=1000)
    @given(mixed_intervals(), mixed_intervals())
    def test_order_matches_fraction_le(self, a, b):
        forward = a.lo <= b.lo and a.hi <= b.hi
        backward = b.lo <= a.lo and b.hi <= a.hi
        assert leq_bool(a, b) == forward
        assert leq_bool(b, a) == backward

    def test_order_across_huge_denominators(self):
        tiny, small = Fraction(1, 5**30), Fraction(1, 2**64)  # 1e-21 < 5e-20
        a = IntervalValue(tiny, small)
        b = IntervalValue(small, small)
        assert leq_bool(a, b) and not leq_bool(b, a)
        assert meet(a, b) == a and join(a, b) == b
        assert complement(a) == IntervalValue(1 - small, 1 - tiny)

    @pytest.mark.parametrize("lo,hi", [(0, Fraction(1)), (Fraction(0), 1),
                                       (0.25, Fraction(1, 2)), (Fraction(0), "1")])
    def test_construction_rejects_non_fraction_endpoints(self, lo, hi):
        with pytest.raises(TypeError):
            IntervalValue(lo, hi)

    @pytest.mark.parametrize("lo,hi", [
        (Fraction(1, 3), Fraction(1, 4)),  # lo > hi
        (Fraction(2, 5**30), Fraction(1, 5**30)),  # lo > hi
        (Fraction(-1, 2**64), Fraction(1, 2)),  # lo < 0
        (Fraction(-1, 3), Fraction(-1, 5)),  # lo < 0, lo < hi
        (Fraction(1, 2), Fraction(5**30 + 1, 5**30)),  # hi > 1
        (Fraction(7, 6), Fraction(5, 4)),  # hi > 1, lo < hi
    ])
    def test_construction_rejects_invalid_endpoints(self, lo, hi):
        with pytest.raises(ValueError):
            IntervalValue(lo, hi)

    @pytest.mark.parametrize("op", [
        lambda v: meet(v, TOP), lambda v: meet(TOP, v),
        lambda v: join(v, BOTTOM), lambda v: join(BOTTOM, v),
        complement,
        lambda v: family_meet([TOP, v]), lambda v: family_join([v, TOP]),
    ], ids=["meet-left", "meet-right", "join-left", "join-right", "complement",
            "family_meet", "family_join"])
    def test_non_interval_operands_are_type_errors(self, op):
        # an object with lo/hi fields must not pass for a valid interval
        for bad in (SimpleNamespace(lo=Fraction(2), hi=Fraction(3)),
                    (Fraction(0), Fraction(1)), Fraction(1, 2), None):
            with pytest.raises(TypeError):
                op(bad)


# A trial widens its space's codes once by its sampled targets, whose
# endpoints may lie off the space's grid: thirds, or the shrinker's 1/2.
off_grid = st.sampled_from((2, 3, 6)).flatmap(
    lambda d: st.integers(0, d).map(lambda n: Fraction(n, d))
)


@st.composite
def off_grid_intervals(draw):
    lo, hi = sorted((draw(off_grid), draw(off_grid)))
    return IntervalValue(lo, hi)


class TestCodes:
    """Codes stand for endpoints by their order, and decode to the checked intervals.

    The expected values use Fraction's own order and ``1 - x``, over
    endpoints with mixed and huge denominators.
    """

    @settings(max_examples=200, deadline=1000)
    @given(st.lists(mixed_intervals(), min_size=1, max_size=6))
    def test_codes_order_endpoints_as_fraction_does(self, family):
        codes = Codes(family)
        lows, highs = codes.encode(family)
        coded = [(v.lo, a) for v, a in zip(family, lows)]
        coded += [(v.hi, b) for v, b in zip(family, highs)]
        for x, a in coded:
            assert codes.points[a] == x
            for y, b in coded:
                assert (a <= b) == (x <= y)
        points = list(codes.points)
        assert points == sorted(set(points)) and points[0] == 0 and points[codes.top] == 1

    @settings(max_examples=200, deadline=1000)
    @given(st.lists(mixed_intervals(), min_size=1, max_size=6))
    def test_top_minus_a_code_is_the_code_of_one_minus(self, family):
        codes = Codes(family)
        for k, x in enumerate(codes.points):
            assert codes.points[codes.top - k] == 1 - x
        complements = codes.decode(*codes.complement(*codes.encode(family)))
        assert complements == tuple(IntervalValue(1 - v.hi, 1 - v.lo) for v in family)

    @settings(max_examples=200, deadline=1000)
    @given(st.lists(mixed_intervals(), min_size=1, max_size=6))
    def test_decode_of_encode_is_the_checked_interval(self, family):
        codes = Codes(family)
        decoded = codes.decode(*codes.encode(family))
        assert decoded == tuple(IntervalValue(v.lo, v.hi) for v in family)
        assert all(type(v.lo) is Fraction and type(v.hi) is Fraction for v in decoded)

    @settings(max_examples=200, deadline=1000)
    @given(st.lists(mixed_intervals(), min_size=1, max_size=4),
           st.lists(mixed_intervals(), min_size=1, max_size=4))
    def test_widening_numbers_new_endpoints_and_maps_old_codes(self, family, extra):
        codes = Codes(family)
        wider, remap = codes.widen(extra)
        assert [wider.points[k] for k in remap] == list(codes.points)
        assert wider.decode(*wider.encode(extra)) == tuple(extra)

    @settings(max_examples=200, deadline=1000)
    @given(st.lists(mixed_intervals(), min_size=1, max_size=4),
           st.lists(st.one_of(mixed_intervals(), off_grid_intervals()), min_size=1, max_size=4))
    def test_codes_widened_per_trial_agree_with_the_interval_operations(self, family, extra):
        codes = Codes(family)
        wider, remap = codes.widen(extra)
        lows, highs = codes.encode(family)
        assert wider.encode(family) == (tuple(map(remap.__getitem__, lows)),
                                        tuple(map(remap.__getitem__, highs)))
        values = [*family, *extra]
        coded = list(zip(*wider.encode(values)))
        for v, (a, b) in zip(values, coded):
            assert wider.decode(*wider.complement((a,), (b,))) == (complement(v),)
            for w, (c, d) in zip(values, coded):
                assert wider.decode((min(a, c),), (min(b, d),)) == (meet(v, w),)
                assert wider.decode((max(a, c),), (max(b, d),)) == (join(v, w),)
                assert (a <= c and b <= d) == leq_bool(v, w)

    def test_endpoints_whose_floats_tie_keep_their_order(self):
        # 1/(2^64+1) < 1/2^64 round to one float, and so do their complements and 1.
        a, b = Fraction(1, 2**64 + 1), Fraction(1, 2**64)
        codes = Codes([IntervalValue(a, b)])
        assert codes.points == (0, a, b, 1 - b, 1 - a, 1)
        assert float(a) == float(b) and float(1 - a) == 1.0

    def test_an_endpoint_that_is_no_point_is_a_key_error(self):
        codes = Codes([iv("[0.5,0.5]")])
        assert codes.points == (0, Fraction(1, 2), 1)
        with pytest.raises(KeyError):
            codes.encode([iv("[0.25,0.5]")])

    def test_at_least_places_endpoints_on_between_and_at_the_ends(self):
        codes = Codes([iv("[1/4,1/2]")])
        assert codes.points == (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)
        assert codes.at_least(iv("[1/4,1/2]")) == (1, 2)  # each endpoint a point
        assert codes.at_least(iv("[1/3,3/5]")) == (2, 3)  # each strictly between two
        assert codes.at_least(iv("[0,1]")) == (0, codes.top)
        assert codes.at_least(iv("[0,0]")) == (0, 0)
        assert codes.at_least(iv("[1,1]")) == (codes.top, codes.top)
        # Just above a point and just below the next one.
        assert codes.at_least(IntervalValue(Fraction(1, 4) + Fraction(1, 2**200),
                                            Fraction(3, 4) - Fraction(1, 2**200))) == (2, 3)

    @settings(max_examples=200, deadline=1000)
    @given(st.lists(mixed_intervals(), min_size=1, max_size=6),
           st.one_of(mixed_intervals(), off_grid_intervals()))
    def test_at_least_is_the_least_code_of_a_point_at_or_above(self, family, value):
        codes = Codes(family)
        for x, code in zip((value.lo, value.hi), codes.at_least(value)):
            assert codes.points[code] >= x
            assert code == 0 or codes.points[code - 1] < x


class TestScaledEndpoints:
    """The oracle's ints: endpoints over one common denominator.

    The expected values use Fraction's own order and ``1 - x``, over
    endpoints with mixed and huge denominators.
    """

    @settings(max_examples=200, deadline=1000)
    @given(st.lists(mixed_intervals(), min_size=1, max_size=6), st.sampled_from((1, 3, 2**64)))
    def test_scaled_ints_keep_order_and_complement_and_map_back(self, family, base):
        d, lows, highs, points = scaled_endpoints(family, base)
        assert d % base == 0
        scaled = [(v.lo, a) for v, a in zip(family, lows)]
        scaled += [(v.hi, b) for v, b in zip(family, highs)]
        for x, a in scaled:
            assert points[a] == x and type(points[a]) is Fraction
            assert Fraction(a, d) == x
            for y, b in scaled:
                assert (a <= b) == (x <= y)
        assert scaled_endpoints(map(complement, family), d)[:3] == (
            d, [d - b for b in highs], [d - a for a in lows]
        )

    def test_the_denominator_is_the_least_common_one(self):
        d, lows, highs, points = scaled_endpoints([iv("[1/4,1/2]"), iv("[1/6,1]")])
        assert (d, lows, highs) == (12, [3, 2], [6, 12])
        assert points == {3: Fraction(1, 4), 6: Fraction(1, 2), 2: Fraction(1, 6), 12: 1}
        assert scaled_endpoints([iv("[1/3,2/3]")], 12)[:3] == (12, [4], [8])

    def test_the_oracle_rescales_for_a_target_off_the_spaces_denominator(self):
        # The space's endpoints are halves (D = 2); the target's thirds do not
        # divide D, so every operator call works over 6 and maps its ints back.
        u = Universe(("x", "y"))
        space = make_space(
            u,
            {"e1": {"x": "[1/2,1]", "y": "[0,1/2]"}, "e2": {"x": "[0,1/2]", "y": "[1/2,1]"}},
            "[1/2,1/2]",
        )
        tables = oracle_fuzzy_tables(space)
        target = fuzzy(u, x="[1/3,2/3]", y="[0,1/3]")
        assert tables.scale.d == 2 and scaled_endpoints(target.grades, 2)[0] == 6
        expected = fuzzy(u, x="[1/3,2/3]", y="[0,1/2]")
        ns = NeighborhoodSystem(space)
        for kind in (1, 2, 3, 4):
            lower = oracle_fuzzy_lower(space, kind, target, tables)
            upper = oracle_fuzzy_upper(space, kind, target, tables)
            assert lower == expected == upper
            assert lower == fuzzy_lower(space, kind, target, ns)
            assert upper == fuzzy_upper(space, kind, target, ns)
        assert tables.scale.d == 2
