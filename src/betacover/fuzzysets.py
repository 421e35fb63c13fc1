"""Interval-valued fuzzy sets and crisp subsets over a fixed finite universe.

A universe fixes the object identifiers and their canonical iteration
order.  Fuzzy sets store one interval grade per object; crisp subsets
store a plain member set.  Cross-universe operations are hard errors,
never implicit extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from .errors import UniverseMismatchError, UnknownObjectError
from .intervals import BOTTOM, TOP, IntervalValue, complement, join, leq_bool, meet


@dataclass(frozen=True)
class Universe:
    """Ordered, duplicate-free collection of object identifiers."""

    objects: Tuple[str, ...]

    def __post_init__(self):
        objects = tuple(self.objects)
        object.__setattr__(self, "objects", objects)
        if not objects:
            raise ValueError("universe must be nonempty")
        if len(set(objects)) != len(objects):
            raise ValueError("universe identifiers must be unique")
        object.__setattr__(self, "_index", {o: i for i, o in enumerate(objects)})

    def index(self, obj: str) -> int:
        try:
            return self._index[obj]
        except KeyError:
            raise UnknownObjectError(f"object {obj!r} not in universe") from None

    def __contains__(self, obj: str) -> bool:
        return obj in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.objects)

    def __len__(self) -> int:
        return len(self.objects)


def _require_same_universe(a, b):
    if a.universe != b.universe:
        raise UniverseMismatchError("operands are defined over different universes")


@dataclass(frozen=True)
class IVFuzzySet:
    """One interval grade per universe object."""

    universe: Universe
    grades: Tuple[IntervalValue, ...]

    def __post_init__(self):
        grades = tuple(self.grades)
        object.__setattr__(self, "grades", grades)
        if len(grades) != len(self.universe):
            raise ValueError("need exactly one grade per universe object")
        for g in grades:
            if not isinstance(g, IntervalValue):
                raise TypeError("grades must be IntervalValue instances")

    @classmethod
    def from_dict(cls, universe: Universe, mapping: Mapping[str, IntervalValue]) -> "IVFuzzySet":
        missing = [o for o in universe if o not in mapping]
        if missing:
            raise UnknownObjectError(f"missing grades for {missing}")
        extra = [o for o in mapping if o not in universe]
        if extra:
            raise UnknownObjectError(f"grades for unknown objects {extra}")
        return cls(universe, tuple(mapping[o] for o in universe))

    @classmethod
    def constant(cls, universe: Universe, grade: IntervalValue) -> "IVFuzzySet":
        return cls(universe, tuple(grade for _ in universe))

    @classmethod
    def top(cls, universe: Universe) -> "IVFuzzySet":
        """I^U: grade [1,1] everywhere."""
        return cls.constant(universe, TOP)

    @classmethod
    def bottom(cls, universe: Universe) -> "IVFuzzySet":
        """I^empty: grade [0,0] everywhere."""
        return cls.constant(universe, BOTTOM)

    def grade(self, obj: str) -> IntervalValue:
        return self.grades[self.universe.index(obj)]

    def intersect(self, other: "IVFuzzySet") -> "IVFuzzySet":
        _require_same_universe(self, other)
        return IVFuzzySet(
            self.universe, tuple(map(meet, self.grades, other.grades))
        )

    def union(self, other: "IVFuzzySet") -> "IVFuzzySet":
        _require_same_universe(self, other)
        return IVFuzzySet(
            self.universe, tuple(map(join, self.grades, other.grades))
        )

    def complement(self) -> "IVFuzzySet":
        return IVFuzzySet(self.universe, tuple(map(complement, self.grades)))

    def is_subset(self, other: "IVFuzzySet") -> bool:
        _require_same_universe(self, other)
        return all(leq_bool(a, b) for a, b in zip(self.grades, other.grades))

    def to_dict(self) -> Dict[str, IntervalValue]:
        return dict(zip(self.universe.objects, self.grades))


@dataclass(frozen=True)
class CrispSubset:
    """A plain subset of the universe."""

    universe: Universe
    members: frozenset

    def __post_init__(self):
        members = frozenset(self.members)
        object.__setattr__(self, "members", members)
        for m in members:
            if m not in self.universe:
                raise UnknownObjectError(f"member {m!r} not in universe")

    @classmethod
    def of(cls, universe: Universe, members: Iterable[str]) -> "CrispSubset":
        return cls(universe, frozenset(members))

    @classmethod
    def from_mask(cls, universe: Universe, mask: int) -> "CrispSubset":
        """The objects of the mask's set bits: bit j stands for the j-th object."""
        return cls(universe, frozenset(o for j, o in enumerate(universe.objects) if mask >> j & 1))

    @classmethod
    def empty(cls, universe: Universe) -> "CrispSubset":
        return cls(universe, frozenset())

    @classmethod
    def full(cls, universe: Universe) -> "CrispSubset":
        return cls(universe, frozenset(universe.objects))

    def __contains__(self, obj: str) -> bool:
        return obj in self.members

    def __len__(self) -> int:
        return len(self.members)

    def union(self, other: "CrispSubset") -> "CrispSubset":
        _require_same_universe(self, other)
        return CrispSubset(self.universe, self.members | other.members)

    def intersect(self, other: "CrispSubset") -> "CrispSubset":
        _require_same_universe(self, other)
        return CrispSubset(self.universe, self.members & other.members)

    def complement(self) -> "CrispSubset":
        return CrispSubset(self.universe, frozenset(self.universe.objects) - self.members)

    def is_subset(self, other: "CrispSubset") -> bool:
        _require_same_universe(self, other)
        return self.members <= other.members

    def mask(self) -> int:
        """Bitmask of the members, bit j for the j-th object; ``from_mask`` reads it back."""
        return sum(map((1).__lshift__, map(self.universe.index, self.members)))

    def sorted_members(self) -> Tuple[str, ...]:
        """Members in canonical universe order."""
        return tuple(o for o in self.universe if o in self.members)

    def to_fuzzy(self) -> IVFuzzySet:
        """Explicit characteristic-function embedding: [1,1]/[0,0] grades."""
        return IVFuzzySet(
            self.universe,
            tuple(TOP if o in self.members else BOTTOM for o in self.universe),
        )
