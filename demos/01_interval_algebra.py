"""A quick tour of the interval-value algebra.

Grades here are closed subintervals of [0,1] with exact rational
endpoints, compared componentwise.  That order is partial: some pairs
simply aren't comparable, and everything downstream (neighborhoods,
approximations, the audit) has to cope with that honestly.
"""

from betacover import IntervalValue, complement, join, leq_bool, meet

a = IntervalValue.parse("[0.2,0.8]")
b = IntervalValue.parse("[0.4,0.5]")

print(f"a = {a}, b = {b}")
# Neither order holds, so the pair is incomparable: ask leq_bool both ways.
print(f"a <= b: {leq_bool(a, b)}, b <= a: {leq_bool(b, a)}")
assert not leq_bool(a, b) and not leq_bool(b, a)

# Meet and join are componentwise min/max; note that the meet of two
# incomparable intervals is a third interval equal to neither.
print(f"meet(a, b) = {meet(a, b)}")
print(f"join(a, b) = {join(a, b)}")

# Complement reflects around the midpoint and is an exact involution.
c = IntervalValue.parse("[0.3,0.6]")
print(f"complement({c}) = {complement(c)}")
assert complement(complement(c)) == c

# Everything is a Fraction under the hood, so thirds are exact too.
third = IntervalValue.of("1/3", "2/3")
print(f"{third} meets {a}: {meet(third, a)}")
assert complement(third) == third  # symmetric around 1/2

# De Morgan holds with zero tolerance.
assert complement(meet(a, b)) == join(complement(a), complement(b))
print("De Morgan verified exactly.")
