"""Building a covering space and reading off its neighborhood system.

The interesting wrinkle: because the grade order is partial, the join of
the parameter grades at an object can dominate the threshold while no
single grade does.  The object then has an *empty* selecting index set,
its fuzzy neighborhood falls back to the top set by convention, and the
system flags it.
"""

from betacover import (
    IntervalValue,
    NeighborhoodSystem,
    SoftMapping,
    SoftSpace,
    Universe,
    crisp_of,
)

u = Universe(("x", "y", "z"))
iv = IntervalValue.parse

table = {
    "e1": {"x": iv("[0.6,0.7]"), "y": iv("[0.4,0.5]"), "z": iv("[0.3,0.6]")},
    "e2": {"x": iv("[0.4,0.9]"), "y": iv("[0.5,0.6]"), "z": iv("[0.5,0.55]")},
}
space = SoftSpace(SoftMapping.from_dict(u, table), iv("[0.5,0.6]"))

ns = NeighborhoodSystem(space)
for obj in u:
    n = ns.fuzzy_neighborhood(obj)
    print(f"N_{obj} = {{{', '.join(f'{o}: {n.grade(o)}' for o in u)}}}")
print("objects with an empty index set:", sorted(ns.empty_index_objects))

# At z, neither e1 nor e2 dominates beta on its own...
for p in space.parameters:
    print(f"F({p})(z) = {space.mapping.set_for(p).grade('z')}")
# ...but their join does, which is why the covering is valid:
print("join at z =", space.mapping.joins[u.index("z")])

# The same gap shows up as a strict inclusion at the crisp level: the
# union of two crisp neighborhoods can be strictly smaller than the
# beta-cut of the union of the fuzzy ones.
nx, ny = ns.fuzzy_neighborhood("x"), ns.fuzzy_neighborhood("y")
lhs = ns.crisp_neighborhood("x").union(ns.crisp_neighborhood("y"))
rhs = crisp_of(nx.union(ny), space.beta)
print(f"crisp(x) | crisp(y) = {lhs.sorted_members()}")
print(f"cut of N_x | N_y    = {rhs.sorted_members()}")
assert lhs.is_subset(rhs) and lhs != rhs
