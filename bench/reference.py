"""A fixed reference loop that measures how fast the machine runs now.

On a shared host the speed one process gets can drift by up to a
factor of two over minutes, more than any bound a change could be held
to.  So the timed passes run this loop before every input and once
more at the end of the pass, and the end-to-end times are also reported
in units of it: each stretch of work between two loops is divided by
the median time of the loops around it (see ``Pass.ref`` in run.py).
Drift in the machine's speed slows both alike and cancels; a change to
the program moves only the numerator.

The loop is plain Python in this file and calls nothing of the program,
so no change to the program can change it.  It does the two kinds of
work the verifier spends its time on:

- a law check of a fixed functor, X -> X^3, over every pair of maps
  between sets of size at most 3, which builds tuples, hashes them into
  a dict and compares them, as the law loop does;
- building every map between sets of size at most 4 as a validated
  frozen dataclass, as ``FiniteFunction`` is built, and a JSON round
  trip of their tables, as the tabulated files are written and read.

A host that is fast or slow for one kind of work is not always so for
the other; with both, the loop tracks all three workloads about equally
well.  The collector is paused while it runs, so that its time does not
depend on how much the program keeps on the heap.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from time import perf_counter

LAW_SIZE = 3
LAW_REPEATS = 2
MAP_SIZE = 4
MAP_REPEATS = 4     # the whole loop takes about 20 ms on a 2-vCPU VM


def _tables(x: int, y: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    for _ in range(x):
        out = [t + (v,) for t in out for v in range(y)]
    return out


def _cube(t: tuple[int, ...], y: int) -> tuple[int, ...]:
    """The action of X -> X^3 on a map with table ``t`` into ``y``."""
    n = range(len(t))
    return tuple((t[i] * y + t[j]) * y + t[k] for i in n for j in n for k in n)


def law_check() -> int:
    """Check F(g o f) = F(g) o F(f) for F = X^3; return the failures
    (always 0)."""
    tables = {(x, y): _tables(x, y)
              for x in range(LAW_SIZE + 1) for y in range(LAW_SIZE + 1)}
    action = {(x, y, t): _cube(t, y)
              for (x, y), ts in tables.items() for t in ts}
    failures = 0
    for x in range(LAW_SIZE + 1):
        for y in range(LAW_SIZE + 1):
            for z in range(LAW_SIZE + 1):
                for gt in tables[(y, z)]:
                    fg = action[(y, z, gt)]
                    for ft in tables[(x, y)]:
                        ff = action[(x, y, ft)]
                        composite = tuple(gt[v] for v in ft)
                        if action[(x, z, composite)] != tuple(
                                fg[v] for v in ff):
                            failures += 1
    return failures


@dataclass(frozen=True)
class _Set:
    size: int


@dataclass(frozen=True)
class _Map:
    dom: _Set
    cod: _Set
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        table = tuple(self.table)
        object.__setattr__(self, "table", table)
        if len(table) != self.dom.size:
            raise ValueError("table does not fit the domain")
        for v in table:
            if not 0 <= v < self.cod.size:
                raise ValueError("table entry out of range")


def build_maps() -> int:
    """Build every map between sets of size at most 4, write their tables
    to JSON and read them back; return the number of entries read."""
    sets = [_Set(n) for n in range(MAP_SIZE + 1)]
    maps = {(x, y, t): _Map(sets[x], sets[y], t)
            for x in range(MAP_SIZE + 1) for y in range(MAP_SIZE + 1)
            for t in _tables(x, y)}
    text = json.dumps({f"{x},{y},{t}": list(m.table)
                       for (x, y, t), m in maps.items()})
    return sum(len(v) for v in json.loads(text).values())


def timed() -> float:
    """Seconds taken by one reference loop, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(LAW_REPEATS):
            if law_check():
                raise AssertionError("the reference law check failed")
        for _ in range(MAP_REPEATS):
            build_maps()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
