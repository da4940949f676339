"""Finite sets and the functions between them: the ambient category.

Sets are canonical initial segments {0, ..., size-1}, so all values are
reproducible and hashable.  Enumeration orders are fixed so that reports
and counterexamples come out deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence


@dataclass(frozen=True)
class FiniteSet:
    """A finite discrete space {0, ..., size-1}."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"size must be non-negative, got {self.size}")


@dataclass(frozen=True)
class FiniteFunction:
    """A function dom -> cod given by its full value table."""

    dom: FiniteSet
    cod: FiniteSet
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        table = tuple(self.table)
        object.__setattr__(self, "table", table)
        check_table(table, self.dom.size, self.cod.size)

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

    @cached_property
    def members(self) -> tuple[int, ...]:
        """The members in increasing order."""
        return tuple(i for i in range(self.ambient.size) if self.bits >> i & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __repr__(self) -> str:
        return "{" + ",".join(map(str, self.members)) + "}"


def empty_function(cod: FiniteSet) -> FiniteFunction:
    return FiniteFunction(FiniteSet(0), cod, ())


def inclusion(a: SubsetMask) -> FiniteFunction:
    """The identity embedding of a subset into its ambient set.

    The domain is the canonical set of size |a|; the table lists the
    members themselves.
    """
    return FiniteFunction(FiniteSet(len(a)), a.ambient, a.members)


def is_surjective(f: FiniteFunction) -> bool:
    return len(set(f.table)) == f.cod.size


def check_table(table: Sequence[int], x: int, y: int) -> None:
    """The rule every table of a map x -> y obeys: x entries, each in
    0 <= v < y.  Raises ValueError naming the first entry that breaks it."""
    if len(table) != x:
        raise ValueError(
            f"table has {len(table)} entries for a domain of size {x}")
    if table and not 0 <= min(table) <= max(table) < y:
        i, v = next((i, v) for i, v in enumerate(table) if not 0 <= v < y)
        raise ValueError(f"table entry {v} at position {i} is not below the "
                         f"codomain size {y}")


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


def enumerate_functions(x: FiniteSet,
                        y: FiniteSet) -> Iterator[FiniteFunction]:
    """All |y|^|x| functions x -> y, in ``function_tables`` order."""
    for table in function_tables(x.size, y.size):
        yield FiniteFunction(x, y, table)


def enumerate_subsets(x: FiniteSet) -> Iterator[SubsetMask]:
    """All 2^|x| subsets, by increasing cardinality then lexicographic."""
    for k in range(x.size + 1):
        for members in itertools.combinations(range(x.size), k):
            yield SubsetMask(x, sum(1 << m for m in members))
