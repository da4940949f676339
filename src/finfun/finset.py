"""Finite sets and the functions between them: the ambient category.

Sets are canonical initial segments {0, ..., size-1}, so all values are
reproducible and hashable.  Enumeration orders are fixed so that reports
and counterexamples come out deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True)
class FiniteSet:
    """A finite discrete space {0, ..., size-1}."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"size must be non-negative, got {self.size}")

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.size))

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"FiniteSet({self.size})"


@dataclass(frozen=True)
class FiniteFunction:
    """A function dom -> cod given by its full value table."""

    dom: FiniteSet
    cod: FiniteSet
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        table = tuple(self.table)
        object.__setattr__(self, "table", table)
        if len(table) != self.dom.size:
            raise ValueError(
                f"table has {len(table)} entries for a domain of size "
                f"{self.dom.size}")
        for i, v in enumerate(table):
            if not 0 <= v < self.cod.size:
                raise ValueError(
                    f"table entry {v} at position {i} is not below the "
                    f"codomain size {self.cod.size}")

    def __call__(self, i: int) -> int:
        return self.table[i]

    def __repr__(self) -> str:
        return table_repr(self.dom.size, self.cod.size, self.table)


@dataclass(frozen=True)
class SubsetMask:
    """A subset of an ambient set {0, ..., size-1}, stored as an int bit
    mask: bit i is set exactly when i is a member."""

    ambient: FiniteSet
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < 1 << self.ambient.size:
            raise ValueError(
                f"mask {self.bits} out of range for ambient size "
                f"{self.ambient.size}")

    @classmethod
    def of(cls, ambient: FiniteSet, members: Iterable[int]) -> SubsetMask:
        return cls(ambient, sum(1 << m for m in set(members)))

    @cached_property
    def members(self) -> tuple[int, ...]:
        """The members in increasing order."""
        return tuple(i for i in range(self.ambient.size) if self.bits >> i & 1)

    def intersection(self, other: SubsetMask) -> SubsetMask:
        if self.ambient != other.ambient:
            raise ValueError("intersection needs a common ambient set")
        return SubsetMask(self.ambient, self.bits & other.bits)

    def without(self, x: int) -> SubsetMask:
        return SubsetMask(self.ambient, self.bits & ~(1 << x))

    def is_subset_of(self, other: SubsetMask) -> bool:
        return not self.bits & ~other.bits

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __repr__(self) -> str:
        return "{" + ",".join(map(str, self.members)) + "}"


def identity(x: FiniteSet) -> FiniteFunction:
    return FiniteFunction(x, x, tuple(range(x.size)))


def constant(dom: FiniteSet, cod: FiniteSet, value: int) -> FiniteFunction:
    if not 0 <= value < cod.size:
        raise ValueError(f"constant value {value} not in codomain of size "
                         f"{cod.size}")
    return FiniteFunction(dom, cod, (value,) * dom.size)


def empty_function(cod: FiniteSet) -> FiniteFunction:
    return FiniteFunction(FiniteSet(0), cod, ())


def compose(g: FiniteFunction, f: FiniteFunction) -> FiniteFunction:
    """The composite g after f; requires f.cod = g.dom."""
    if f.cod != g.dom:
        raise ValueError(
            f"cannot compose: f has codomain of size {f.cod.size} but g has "
            f"domain of size {g.dom.size}")
    return FiniteFunction(f.dom, g.cod, tuple(g.table[v] for v in f.table))


def inclusion(a: SubsetMask) -> FiniteFunction:
    """The identity embedding of a subset into its ambient set.

    The domain is the canonical set of size |a|; the table lists the
    members themselves.
    """
    return FiniteFunction(FiniteSet(len(a)), a.ambient, a.members)


def is_injective(f: FiniteFunction) -> bool:
    return len(set(f.table)) == len(f.table)


def is_surjective(f: FiniteFunction) -> bool:
    return len(set(f.table)) == f.cod.size


def table_repr(x: int, y: int, table: tuple[int, ...]) -> str:
    """How a function x -> y with the given table is written in reports."""
    return f"({','.join(map(str, table))}):{x}->{y}"


def function_tables(x: int, y: int) -> Iterator[tuple[int, ...]]:
    """The tables of all y^x functions x -> y, in lexicographic order.

    This order is the one every enumeration of maps, every report and
    every tabulation follows.  Yields the single empty table when x = 0
    and nothing at all when x > 0 and y = 0.
    """
    return itertools.product(range(y), repeat=x)


# Yields the tables of some of the maps x -> y, given x and y.
TableSource = Callable[[int, int], Iterable[tuple[int, ...]]]


def injective_tables(x: int, y: int) -> Iterator[tuple[int, ...]]:
    """The tables of the injections x -> y, in ``function_tables`` order."""
    return itertools.permutations(range(y), x)


def surjective_tables(x: int, y: int) -> Iterator[tuple[int, ...]]:
    """The tables of the surjections x -> y, in ``function_tables`` order.

    When x = y they are the permutations, 720 of the 46,656 tables at 6.
    """
    if x == y:
        return injective_tables(x, y)
    return (t for t in function_tables(x, y) if len(set(t)) == y)


def enumerate_functions(x: FiniteSet, y: FiniteSet,
                        tables: TableSource = function_tables
                        ) -> Iterator[FiniteFunction]:
    """The functions x -> y whose tables ``tables(|x|, |y|)`` yields: by
    default all |y|^|x| of them, in ``function_tables`` order."""
    for table in tables(x.size, y.size):
        yield FiniteFunction(x, y, table)


def enumerate_subsets(x: FiniteSet) -> Iterator[SubsetMask]:
    """All 2^|x| subsets, by increasing cardinality then lexicographic."""
    for k in range(x.size + 1):
        for members in itertools.combinations(range(x.size), k):
            yield SubsetMask(x, sum(1 << m for m in members))
