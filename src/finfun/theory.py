"""Empty-set modifications, supports, and exhaustive desk-scale checkers.

A ``FunctorInstance`` is any evaluable endofunctor of finite sets: it
answers an object query (the elements of FX, identified by index and
display name) and a morphism query, ``action``, from the table of a map
to the table of its image.  Everything here walks maps as raw tables and
works uniformly over presentation-backed, tabulated, and modified instances.

The central constructions:

* ``empty_mod_min`` replaces the value at the empty set by the empty set.
* ``empty_mod_max`` replaces it by the equalizer of the two constant maps
  1 -> 2 under F, the largest value at the empty set compatible with the
  functor's behaviour on non-empty sets.
* ``support`` computes, for a monomorphic functor, the least subset A of X
  such that the element lies in the image of F(A -> X).

The ``check_*`` functions verify properties exhaustively up to a size
bound and return a ``CheckReport``; failures carry counterexamples, never
exceptions.
"""

from __future__ import annotations

import random
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from .finset import (
    FiniteFunction,
    FiniteSet,
    SubsetMask,
    TableSource,
    check_table,
    enumerate_functions,  # noqa: F401  (the benchmark wraps it here)
    enumerate_subsets,
    function_tables,
    injective_tables,
    is_surjective,
    surjective_tables,
    table_repr,
)

MorphismKey = tuple[int, int, tuple[int, ...]]
_Action = Callable[[int, int, tuple[int, ...]], tuple[int, ...]]

_COUNTEREXAMPLE_CAP = 25


class SizeBoundError(Exception):
    """An object or morphism query beyond an instance's tabulated bound."""


class UnknownElementError(Exception):
    """An element reference that does not name an element of FX."""


class MonomorphicityError(Exception):
    """A required monomorphicity hypothesis fails; carries the witness."""

    def __init__(self, function: FiniteFunction, collapsed: tuple[str, str]):
        self.function = function
        self.collapsed = collapsed
        super().__init__(
            f"functor is not monomorphic: injective f={function!r} collapses "
            f"{collapsed[0]} and {collapsed[1]}")


class ProbeMismatchError(Exception):
    """A probe functor fails the preconditions of the maximality check."""


class ModificationKind(Enum):
    MINIMAL = "min"
    MAXIMAL = "max"

    @property
    def symbol(self) -> str:
        """The mark on a modified functor's name: F∘ minimal, F° maximal."""
        return "∘" if self is ModificationKind.MINIMAL else "°"


class FunctorInstance(ABC):
    """An evaluable endofunctor of finite sets.

    A subclass implements ``elements`` and ``action``; ``map`` is the
    validated wrapper.  Queries are deterministic and cached by the
    concrete classes; instances are immutable values, shared freely.  The
    bounds up to which one passed the laws and monomorphicity are recorded
    on it, and so is the frozenset image of each subset inclusion once
    computed (``_images``, keyed by ambient size and mask, shared by every
    caller), so never mutate ``TabulatedInstance.morphisms``.  A subclass
    that can prove its own laws overrides ``proves_laws``.
    """

    def __init__(self, name: str):
        self.name = name
        self._mono_bound = self._law_bound = -1
        self._images: dict[tuple[int, int], frozenset[int]] = {}

    @abstractmethod
    def elements(self, n: int) -> tuple[str, ...]:
        """Display names of the elements of F applied to {0,...,n-1}."""

    @abstractmethod
    def action(self, x: int, y: int,
               table: tuple[int, ...]) -> tuple[int, ...]:
        """The table of F(f) for the map f: x -> y with the given table."""

    def proves_laws(self, max_size: int) -> bool:
        """Whether F(id) = id and F(g o f) = F(g) o F(f) are shown to hold
        for every map between sizes <= max_size without comparing every
        composable pair.  False means "not decided": ``check_functor_laws``
        then walks the pairs.  This default always answers False; an
        override answers True only for the ``action`` its proof reads."""
        return False

    def map(self, f: FiniteFunction) -> FiniteFunction:
        """F(f) as a validated function."""
        x, y = f.dom.size, f.cod.size
        return FiniteFunction(FiniteSet(self.size(x)), FiniteSet(self.size(y)),
                              self.action(x, y, f.table))

    @property
    def max_arity(self) -> int | None:
        """Largest shape arity for presentation-backed instances, else None."""
        return None

    def size(self, n: int) -> int:
        return len(self.elements(n))

    def element_index(self, n: int, name: str) -> int:
        names = self.elements(n)
        try:
            return names.index(name)
        except ValueError:
            raise UnknownElementError(
                f"{name!r} is not an element of {self.name}({n})") from None


def sizes_up_to(max_size: int) -> range:
    """0, ..., max_size; a negative bound is refused as a negative size."""
    return range(FiniteSet(max_size).size + 1)


def tables_up_to(max_size: int, tables: TableSource = function_tables
                 ) -> Iterator[MorphismKey]:
    """(x, y, table) for every map x -> y with x, y <= max_size whose
    table ``tables(x, y)`` yields: by x, then y, then in the order of
    ``tables``.  The checks over maps list their counterexamples, and
    tabulations their records, in this order."""
    sizes = sizes_up_to(max_size)
    return ((x, y, t) for x in sizes for y in sizes for t in tables(x, y))


# ---------------------------------------------------------------------------
# Empty-set modifications


class EmptyModified(FunctorInstance):
    """An empty-set modification of a base instance.

    Non-empty values and maps are the base's.  The value at the empty set
    is the subset of F1 listed by ``empty_classes``, whose elements keep
    their F1 names.  The maximal modification takes the subset of F1
    equalized by the two constant maps 1 -> 2; the minimal one takes no
    element at all, so every map out of the empty set is the empty
    function.

    A map out of the empty set into a non-empty Y restricts F(c) to
    ``empty_classes``, where c: 1 -> Y is the constant with value 0.  Any
    other constant c' gives the same map: the map h: 2 -> Y through which
    both constants factor forces F(c) and F(c') to agree on the equalizer.
    That independence is property-tested, not assumed.
    """

    def __init__(self, base: FunctorInstance, kind: ModificationKind,
                 empty_classes: tuple[int, ...]):
        super().__init__(base.name + kind.symbol)
        self.base = base
        self.kind = kind
        self.empty_classes = empty_classes

    @property
    def max_arity(self) -> int | None:
        return self.base.max_arity

    def elements(self, n: int) -> tuple[str, ...]:
        if n > 0:
            return self.base.elements(n)
        FiniteSet(n)  # refuses a negative size
        # F1 is looked up per member: with none, the base is not queried.
        return tuple(self.base.elements(1)[i] for i in self.empty_classes)

    def action(self, x: int, y: int,
               table: tuple[int, ...]) -> tuple[int, ...]:
        if x > 0:
            return self.base.action(x, y, table)
        check_table(table, x, y)  # refuses a table that is not a map
        k = len(self.empty_classes)
        if y == 0:
            return tuple(range(k))
        base_table = self.base.action(1, y, (0,))
        table = tuple(base_table[i] for i in self.empty_classes)
        check_table(table, k, self.size(y))
        return table

    def proves_laws(self, max_size: int) -> bool:
        """The base's proof for the maps out of non-empty sets, and a pass
        over the generating maps for the maps out of the empty set.

        A pair f, g in which f has a non-empty domain composes as the
        base's does.  Write f_y for the one map 0 -> y; for g: y -> z,
        g o f_y = f_z.  When y = 0, f_y = id_0, and F(id_0) = id is
        checked.  When y > 0, g factors through non-empty sets as
        generators s_k o ... o s_1 (see ``law_failures``), and F(g) =
        F(s_k) o ... o F(s_1) by the base's laws; so F(s o f_y) =
        F(s) o F(f_y), checked for each generator s out of each y, gives
        F(g) o F(f_y) = F(f_z) by induction on k.
        """
        if (type(self).action is not EmptyModified.action
                or not self.base.proves_laws(max_size)):
            return False
        sizes = range(max_size + 1)
        out_of_0 = [self.action(0, y, ()) for y in sizes]
        return out_of_0[0] == tuple(range(len(self.empty_classes))) and all(
            tuple(map(self.action(y, z, s).__getitem__, out_of_0[y]))
            == out_of_0[z]
            for y in sizes for z in sizes for s in _elementary_maps(y, z))

    def element_index(self, n: int, name: str) -> int:
        if n > 0:
            return self.base.element_index(n, name)
        if self.kind is ModificationKind.MINIMAL:
            return super().element_index(n, name)
        # Value at the empty set is a subset of F1; resolve there first.
        base_idx = self.base.element_index(1, name)
        try:
            return self.empty_classes.index(base_idx)
        except ValueError:
            raise UnknownElementError(
                f"{name!r} is not in the equalizer subset of "
                f"{self.base.name}(1)") from None


def _flatten(f: FunctorInstance) -> FunctorInstance:
    # A modification only depends on the base's non-empty values.
    return f.base if isinstance(f, EmptyModified) else f


def empty_mod_min(f: FunctorInstance) -> EmptyModified:
    return EmptyModified(_flatten(f), ModificationKind.MINIMAL, ())


def empty_mod_max(f: FunctorInstance) -> EmptyModified:
    """Compute the equalizer subset of F1 and wrap the instance.

    Requires the instance to be defined at sizes 1 and 2.
    """
    base = _flatten(f)
    m0, m1 = base.action(1, 2, (0,)), base.action(1, 2, (1,))
    empty = tuple(i for i in range(base.size(1)) if m0[i] == m1[i])
    return EmptyModified(base, ModificationKind.MAXIMAL, empty)


def modify(f: FunctorInstance, kind: ModificationKind) -> FunctorInstance:
    if kind is ModificationKind.MINIMAL:
        return empty_mod_min(f)
    return empty_mod_max(f)


# ---------------------------------------------------------------------------
# Images, supports, skeleta, degree


def image_of_inclusion(g: FunctorInstance, a: SubsetMask) -> frozenset[int]:
    """The element indices of the image of F applied to A -> X: one
    frozenset per instance and subset, computed once and shared."""
    key = (a.ambient.size, a.bits)
    image = g._images.get(key)
    if image is None:
        image = g._images[key] = frozenset(
            g.action(len(a), a.ambient.size, a.members))
    return image


def require_monomorphic(g: FunctorInstance, bound: int) -> None:
    """Raise MonomorphicityError unless G(f) is injective for every
    injective f between sets of sizes <= bound (cached per instance)."""
    if g._mono_bound >= bound:
        return
    for (x, y, table), collapsed in _injectivity_failures(g, bound):
        raise MonomorphicityError(
            FiniteFunction(FiniteSet(x), FiniteSet(y), table), collapsed)
    g._mono_bound = bound


def _laws_known(g: FunctorInstance, n: int) -> bool:
    """Whether F's laws are known to hold up to size n: recorded on the
    instance (``_law_bound``) by a passing ``laws`` check or load walk, or
    proved now by ``proves_laws`` and then recorded.  Nothing is assumed:
    an instance without a proof answers False until it is walked."""
    if g._law_bound < n:
        if not g.proves_laws(n):
            return False
        g._law_bound = n
    return True


def _orbit_walk(walk: Callable[[FunctorInstance, int, Callable], Iterator],
                g: FunctorInstance, max_size: int,
                representatives: Callable, every: Callable) -> Iterator:
    """The failures ``walk(g, max_size, every)`` lists, decided first on
    one representative per orbit of the permutations.

    Once F's laws hold up to max_size, F(s) is a bijection for every
    permutation s, with inverse F(s^-1): F(s) o F(s^-1) = F(id) = id.
    Each caller shows that an item of ``every`` then fails exactly when
    the representative of its orbit does, so a pass over the
    representatives clears them all.  When the laws are not known, or
    some representative fails, ``every`` is walked, so the failures,
    their order and their number are always the walk's."""
    if not (_laws_known(g, max_size) and next(
            walk(g, max_size, representatives), None) is None):
        yield from walk(g, max_size, every)


def _first_points(x: int, y: int) -> list[tuple[int, ...]]:
    """The table of the inclusion of x into y as its first x points."""
    return [tuple(range(x))] if x <= y else []


def _noninjective(g: FunctorInstance, max_size: int, tables: TableSource
                  ) -> Iterator[tuple[MorphismKey, tuple[str, str]]]:
    for key in tables_up_to(max_size, tables):
        gf = g.action(*key)
        if len(set(gf)) < len(gf):
            j = next(j for j, v in enumerate(gf) if v in gf[:j])
            names = g.elements(key[0])
            yield key, (names[gf.index(gf[j])], names[j])


def _injectivity_failures(g: FunctorInstance, max_size: int) -> Iterator[
        tuple[MorphismKey, tuple[str, str]]]:
    """Each injective f between sets of sizes <= max_size, maps out of the
    empty set included, for which G(f) is not injective, with the names
    of the first two elements G(f) collapses.

    Every injection f: x -> y is s o i, for i the inclusion of the first
    x points and s a permutation of y.  With the laws, G(f) = G(s) o G(i)
    and G(s) is a bijection, so G(f) is injective exactly when G(i) is:
    ``_orbit_walk`` reads the inclusions, one per x <= y, first."""
    return _orbit_walk(_noninjective, g, max_size, _first_points,
                       injective_tables)


@dataclass(frozen=True)
class SupportResult:
    """The least subset carrying an element, with a preimage witness.

    ``witness`` is the index of an element of G(support) whose image under
    the inclusion into the ambient set is ``element``.
    """

    element: int
    support: SubsetMask
    witness: int


def support(g: FunctorInstance, n: int, element: int,
            order: Sequence[int] | None = None) -> SupportResult:
    """Greedy support computation for a monomorphic functor, for an
    element of F applied to the set of int size ``n``.

    Starting from the full subset, drop each point (ascending order by
    default) whenever the element stays in the image of the smaller
    inclusion.  Because the family of subsets whose inclusion image
    contains the element is closed under intersection, the result is its
    least member regardless of the removal order; order independence is
    exercised by ``check_supports``.  The index is checked, after the
    removal order, before the monomorphicity requirement.
    """
    if order is None:
        order = range(n)
    elif sorted(order) != list(range(n)):
        raise ValueError(f"removal order {list(order)} is not a permutation "
                         f"of range({n})")
    if not 0 <= element < g.size(n):
        raise UnknownElementError(
            f"index {element} is not an element of {g.name}({n})")
    require_monomorphic(g, n)
    mask = SubsetMask(FiniteSet(n), (1 << n) - 1)
    for point in order:
        smaller = mask.without(point)
        if element in image_of_inclusion(g, smaller):
            mask = smaller
    table = g.action(len(mask), n, mask.members)
    return SupportResult(element, mask, table.index(element))


def skeleton(g: FunctorInstance, n: int, size: int) -> tuple[int, ...]:
    """Union of the images of G(f) over all maps f from sets of size <= n
    into the set of int size ``size``, as sorted element indices.

    Equals the set of elements with support of size at most n; the chain
    over increasing n is monotone and stabilizes at the full value once n
    reaches the functor's degree.  For non-empty X the domains of size
    exactly n already realize the whole union (factor smaller domains
    through any extension); allowing smaller domains keeps the equality
    with the support filter valid over the empty set too, where only the
    empty domain admits a map.
    """
    FiniteSet(size)  # refuses a negative size
    top = FiniteSet(n).size if size else 0
    return tuple(sorted({v for t in function_tables(top, size)
                         for v in g.action(top, size, t)}))


@dataclass(frozen=True)
class DegreeResult:
    value: int
    exact: bool

    def __repr__(self) -> str:
        return f"{self.value} ({'exact' if self.exact else 'lower bound'})"


def degree(g: FunctorInstance, probe_bound: int) -> DegreeResult:
    """Largest support size over all elements of G(X) with |X| <= probe_bound.

    For presentation-backed instances the value is exact once the probe
    bound reaches the largest shape arity m: every element is the image of
    an element over a set of size <= m, and supports only shrink along
    maps.  Tabulated instances can only ever certify a lower bound.
    """
    require_monomorphic(g, probe_bound)
    best = 0
    for n in sizes_up_to(probe_bound):
        for element in range(g.size(n)):
            best = max(best, len(support(g, n, element).support))
    exact = g.max_arity is not None and probe_bound >= g.max_arity
    return DegreeResult(best, exact)


def epi_witness(g: FunctorInstance, f: FiniteFunction, b: int) -> int:
    """A preimage of b under G(f) for surjective f, built from the support.

    Chooses the section s of f on supp(b) picking the least preimage of
    each member; the witness of b over its support pushed along s is a
    preimage because f composed with s is the inclusion of the support.
    """
    if not is_surjective(f):
        raise ValueError(f"epi_witness needs a surjective map, got {f!r}")
    res = support(g, f.cod.size, b)
    section = tuple(f.table.index(m) for m in res.support.members)
    return g.action(len(section), f.dom.size, section)[res.witness]


# ---------------------------------------------------------------------------
# Check reports


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one exhaustive verification run.

    The verdict is derived: a check fails exactly when it produced
    counterexamples.  Counterexamples are listed in enumeration order and
    capped at a fixed number; ``details`` notes the cap when it bites.
    """

    name: str
    scope: str
    counterexamples: tuple[str, ...]
    elapsed: float
    details: str = ""

    @property
    def passed(self) -> bool:
        return not self.counterexamples


class _Collector:
    def __init__(self, name: str, scope: str):
        self.name = name
        self.scope = scope
        self.items: list[str] = []
        self.total = 0
        self.start = time.perf_counter()

    def add(self, text: str) -> None:
        self.total += 1
        if len(self.items) < _COUNTEREXAMPLE_CAP:
            self.items.append(text)

    def report(self, details: str = "") -> CheckReport:
        if self.total > len(self.items):
            note = f"counterexamples truncated ({self.total} found)"
            details = f"{details}; {note}" if details else note
        return CheckReport(self.name, self.scope, tuple(self.items),
                           time.perf_counter() - self.start, details)


# ---------------------------------------------------------------------------
# Exhaustive checkers


def _elementary_maps(y: int, z: int) -> list[tuple[int, ...]]:
    """The tables of the generating maps y -> z: when z = y >= 2, the
    transposition (0 1) and, when y >= 3, the cycle i -> i+1 mod y, which
    together generate the symmetric group S_y; when z = y - 1 >= 1, the
    merge of the last two points; when z = y + 1, the inclusion."""
    if z == y >= 2:
        swap = (1, 0) + tuple(range(2, y))
        return [swap] if y == 2 else [swap, tuple(range(1, y)) + (0,)]
    if z == y - 1 >= 1:
        return [tuple(range(z)) + (z - 1,)]
    return [tuple(range(y))] if z == y + 1 else []


def _composition_failures(action: _Action, top: int, seconds: TableSource
                          ) -> Iterator[tuple[MorphismKey, MorphismKey]]:
    """Each (f, g) with F(g o f) != F(g) o F(f) for f: x -> y any map and
    g in ``seconds(y, z)``, x, y, z <= top; by x, y, z, f, then g.  Reads
    F through ``action``, at sizes <= top only."""
    for x in range(top + 1):
        # F on the maps out of x, by codomain: both f and g o f are such.
        out_of_x = [{t: action(x, y, t) for t in function_tables(x, y)}
                    for y in range(top + 1)]
        for y in range(top + 1):
            for z in range(top + 1):
                gs = [(gt, action(y, z, gt)) for gt in seconds(y, z)]
                for ft, af in out_of_x[y].items():
                    for gt, ag in gs:
                        if (out_of_x[z][tuple(map(gt.__getitem__, ft))]
                                != tuple(map(ag.__getitem__, af))):
                            yield (x, y, ft), (y, z, gt)


def law_failures(action: _Action, sizes: Sequence[int]) -> Iterator[
        tuple[MorphismKey, MorphismKey | None]]:
    """Each failure of the functor laws of F up to size len(sizes) - 1.

    ``action`` answers as ``FunctorInstance.action``, read lazily at sizes
    < len(sizes) only, and F(n) has sizes[n] elements.  Yields (id_n, None)
    for each n where F(id_n) is not the identity, then (f, g) for each
    composable pair with F(g o f) != F(g) o F(f): by the sizes of the
    domain of f, the codomain of f and the codomain of g, then f outer and
    g inner, each in ``function_tables`` order.

    Lawful tables are recognised from the generating maps alone.  Every
    g: y -> z factors as a surjection followed by an injection through
    sets no larger than max(y, z), hence as a composite of permutations,
    merges n -> n-1 and inclusions n -> n+1 (Mac Lane, *Categories for
    the Working Mathematician*, §VII.5); and every permutation of n is a
    composite of the transposition (0 1) and the cycle i -> i+1 mod n.  So
    F(id) = id and F(s o f) = F(s) o F(f), for every map f and every such
    generator s, give F(g o f) = F(g) o F(f) for all g by induction on the
    factorisation.  Only when an identity or one such s fails is every
    composable pair compared, so the failures come out complete and in
    the order above.  Both passes run the same walk, with
    ``_elementary_maps`` and then ``function_tables`` as the source of g.
    """
    top = len(sizes) - 1
    broken = [((n, n, tuple(range(n))), None) for n in range(top + 1)
              if action(n, n, tuple(range(n))) != tuple(range(sizes[n]))]
    if not broken and next(_composition_failures(
            action, top, _elementary_maps), None) is None:
        return
    yield from broken
    yield from _composition_failures(action, top, function_tables)


def check_functor_laws(g: FunctorInstance, max_size: int) -> CheckReport:
    """F(id) = id and F(g o f) = F(g) o F(f), exhaustively up to max_size.

    An instance whose ``proves_laws`` holds passes without the walk: a
    presentation decides the laws from its congruence, reading F on the
    identities and the generating maps only, and a modification of one
    adds the maps out of the empty set.  Any other instance, and any
    whose proof fails, is walked by ``law_failures``, which lists every
    failure.  A pass is recorded on the instance (``_law_bound``), where
    the other checks read it (``_laws_known``).
    """
    out = _Collector("laws", f"sizes <= {max_size}")
    sizes = [g.size(n) for n in sizes_up_to(max_size)]
    if not _laws_known(g, max_size):
        for f, h in law_failures(g.action, sizes):
            if h is None:
                out.add(f"F(id_{f[0]}) is not the identity")
            else:
                out.add(f"F(g o f) != F(g) o F(f) for f={table_repr(*f)}, "
                        f"g={table_repr(*h)}")
        if not out.total:
            g._law_bound = max_size
    return out.report()


def check_monomorphic(g: FunctorInstance, max_size: int) -> CheckReport:
    """G(f) injective for every injective f between sets of sizes <= max_size,
    including maps out of the empty set."""
    out = _Collector("mono", f"sizes <= {max_size}")
    for key, (a, b) in _injectivity_failures(g, max_size):
        out.add(f"G(f) not injective for f={table_repr(*key)}: collapses "
                f"{a} and {b}")
    if not out.total:
        g._mono_bound = max(g._mono_bound, max_size)
    return out.report()


def _sorted_surjections(x: int, y: int, largest: int | None = None
                        ) -> list[tuple[int, ...]]:
    """The non-decreasing surjections x -> y whose fibres shrink from 0
    to y - 1, one per partition of x into y parts (none above
    ``largest``): the fibres of those 6 -> 3 are 4+1+1, 3+2+1, 2+2+2."""
    if y == 0:
        return [()] if x == 0 else []
    return [(0,) * k + tuple(v + 1 for v in rest)
            for k in range(min(x if largest is None else largest,
                               x - y + 1), 0, -1)
            for rest in _sorted_surjections(x - k, y - 1, k)]


def _nonsurjective(g: FunctorInstance, max_size: int, tables: TableSource
                   ) -> Iterator[str]:
    sizes = [g.size(n) for n in sizes_up_to(max_size)]
    for x, y, table in tables_up_to(max_size, tables):
        gf = g.action(x, y, table)
        if len(set(gf)) < sizes[y]:
            name = g.elements(y)[min(set(range(sizes[y])) - set(gf))]
            yield (f"G(f) not surjective for f={table_repr(x, y, table)}: "
                   f"misses {name}")


def check_epimorphic(g: FunctorInstance, max_size: int) -> CheckReport:
    """G(f) surjective for every surjective f between sets of sizes <= max_size.

    Every surjection f: x -> y is s o p o t, for s and t permutations of
    y and x and p the sorted surjection with the same fibre sizes: t
    lines the points of x up fibre by fibre, largest fibre first, and s
    relabels the fibres.  With the laws, G(f) = G(s) o G(p) o G(t) for
    bijections G(s) and G(t), so G(f) is onto exactly when G(p) is, and
    ``_orbit_walk`` reads one p per partition of x into y parts first.
    """
    out = _Collector("epi", f"sizes <= {max_size}")
    for text in _orbit_walk(_nonsurjective, g, max_size, _sorted_surjections,
                            surjective_tables):
        out.add(text)
    return out.report()


def _subset_images(g: FunctorInstance, n: int) -> tuple[
        list[SubsetMask], dict[int, frozenset[int]]]:
    """Every subset of n, and the image of its inclusion keyed by mask."""
    masks = list(enumerate_subsets(FiniteSet(n)))
    return masks, {m.bits: image_of_inclusion(g, m) for m in masks}


# A pair (A, B) of subsets of one set, and A & B.
_SubsetPair = tuple[SubsetMask, SubsetMask, SubsetMask]


def _subset_pairs(n: int) -> Iterator[_SubsetPair]:
    """Every ordered pair of subsets of n, in ``enumerate_subsets`` order."""
    masks = list(enumerate_subsets(FiniteSet(n)))
    by_bits = {m.bits: m for m in masks}
    return ((a, b, by_bits[a.bits & b.bits]) for a in masks for b in masks)


def _subset_pair_orbits(n: int) -> Iterator[_SubsetPair]:
    """One pair (A, B) of subsets of n per orbit of the permutations of n,
    C(n+3, 3) in all: for each i + j + k <= n, A - B is the first i
    points, B - A the next j and A & B the next k."""
    ambient = FiniteSet(n)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for k in range(n + 1 - i - j):
                both = ((1 << k) - 1) << (i + j)
                yield (SubsetMask(ambient, (1 << i) - 1 | both),
                       SubsetMask(ambient, ((1 << j) - 1) << i | both),
                       SubsetMask(ambient, both))


def _intersection_failures(
        g: FunctorInstance, max_size: int,
        pairs: Callable[[int], Iterable[_SubsetPair]]) -> Iterator[str]:
    for n in sizes_up_to(max_size):
        # The inclusion images by mask, each fetched once per n: the walk
        # meets every subset at least 2^(n+1) times.
        images: dict[int, frozenset[int]] = {}
        for a, b, meet in pairs(n):
            for m in (a, b, meet):
                if m.bits not in images:
                    images[m.bits] = image_of_inclusion(g, m)
            lhs = images[meet.bits]
            rhs = images[a.bits] & images[b.bits]
            if lhs != rhs:
                offending = min(lhs ^ rhs)
                yield (f"X={n} A={a!r} B={b!r}: image of A&B differs from "
                       f"intersection at {g.elements(n)[offending]}")


def check_intersections(g: FunctorInstance, max_size: int) -> CheckReport:
    """Image of the inclusion of A & B equals the intersection of the images.

    Checks every pair of subsets A, B of every X with |X| <= max_size.
    Pairs suffice for arbitrary finite families, since finite
    intersections are generated pairwise.  The report's ``details`` record
    this reduction and how many pairs of each shape were checked, from
    closed forms summed over n.  Of the 4^n ordered pairs of subsets of n,
    A <= B leaves each point three choices, as B <= A does, and A = B two:
    2*3^n - 2^n pairs are nested.  Disjoint pairs number 3^n, of which the
    2^(n+1) - 1 with A or B empty are nested: 3^n - 2^(n+1) + 1 are
    disjoint.  The other pairs overlap.

    A permutation s of X carries (A, B) to (sA, sB), and every pair to
    the representative of its orbit (``_subset_pair_orbits``).  With the
    laws, image(sA) = G(s)(image A): s after the inclusion of A is the
    inclusion of sA after a permutation of A, whose G is onto.  As G(s)
    is a bijection and s(A & B) = sA & sB, the pair (sA, sB) fails
    exactly when (A, B) does, so ``_orbit_walk`` reads the
    representatives first.
    """
    out = _Collector("intersections", f"sizes <= {max_size}")
    for text in _orbit_walk(_intersection_failures, g, max_size,
                            _subset_pair_orbits, _subset_pairs):
        out.add(text)
    sizes = sizes_up_to(max_size)
    nested = sum(2 * 3 ** n - 2 ** n for n in sizes)
    disjoint = sum(3 ** n - 2 ** (n + 1) + 1 for n in sizes)
    overlapping = sum(4 ** n for n in sizes) - nested - disjoint
    details = ("pairwise check; arbitrary finite families reduce to pairs. "
               f"case counts: nested={nested}, disjoint={disjoint}, "
               f"overlapping={overlapping}")
    return out.report(details)


def check_supports(g: FunctorInstance, max_size: int,
                   seed: int = 0) -> CheckReport:
    """Support family sanity for every element over every X, |X| <= max_size.

    Verifies that the family of subsets whose inclusion image contains the
    element is intersection-closed and upward closed, that its least
    member is the intersection of the family, that the greedy computation
    agrees with that minimum for ascending, descending, and one seeded
    shuffled removal order, and that the returned witness maps back to the
    element.  Refuses (as a failure, with the violating injection) when
    the functor is not monomorphic up to the bound.

    The two closure properties are first decided by counting.  Every
    member of the family contains its intersection M, so the family lies
    in the up-set of M, which has 2^(n - |M|) members.  A family of that
    size is therefore the up-set of M: closed under intersection, upward
    closed, and with M as a member, so neither pair walk could fail on
    it.  Conversely, a family that passes both walks and has its
    intersection as a member is the up-set of that member.  So the pair
    walks run exactly on the families that fail some test, and list their
    counterexamples in the same order and number as always.
    """
    out = _Collector("supports", f"sizes <= {max_size}, seed {seed}")
    try:
        require_monomorphic(g, max_size)
    except MonomorphicityError as err:
        out.add(f"refused: {err}")
        return out.report()
    for n in sizes_up_to(max_size):
        masks, images = _subset_images(g, n)
        names = g.elements(n)
        for element in range(g.size(n)):
            family = [m for m in masks if element in images[m.bits]]
            meet = (1 << n) - 1
            for m in family:
                meet &= m.bits
            if len(family) != 1 << (n - meet.bit_count()):
                for ma in family:
                    for mb in family:
                        if element not in images[ma.bits & mb.bits]:
                            out.add(f"X={n} {names[element]}: family not "
                                    f"closed under {ma!r} & {mb!r}")
                for ma in family:
                    for mb in masks:
                        if (ma.is_subset_of(mb)
                                and element not in images[mb.bits]):
                            out.add(f"X={n} {names[element]}: family not "
                                    f"upward closed at {ma!r} <= {mb!r}")
            least = SubsetMask(FiniteSet(n), meet)
            if element not in images[meet]:
                out.add(f"X={n} {names[element]}: intersection of the family "
                        f"is not a member")
                continue
            orders = [list(range(n)), list(range(n - 1, -1, -1))]
            shuffled = list(range(n))
            random.Random(f"{seed}:{n}:{element}").shuffle(shuffled)
            orders.append(shuffled)
            for order in orders:
                res = support(g, n, element, order=order)
                if res.support != least:
                    out.add(f"X={n} {names[element]}: greedy order {order} "
                            f"gives {res.support!r}, family minimum is "
                            f"{least!r}")
                    continue
                back = g.action(len(res.support), n,
                                res.support.members)[res.witness]
                if back != element:
                    out.add(f"X={n} {names[element]}: witness does not map "
                            f"back to the element")
    return out.report()


def check_modification_maximality(f: FunctorInstance,
                                  probe: FunctorInstance,
                                  max_size: int = 3) -> CheckReport:
    """Any functor agreeing with F on non-empty sets lands inside the
    maximal modification: the image of its value at the empty set under
    the map into F1 is contained in the equalizer subset.

    Raises ProbeMismatchError when the probe disagrees with F on a
    non-empty set up to the bound or fails the functor laws, and
    ValueError for a bound below 2: the equalizer is read off the maps
    1 -> 2, on which the probe's laws must be checked.
    """
    if FiniteSet(max_size).size < 2:
        raise ValueError(
            f"maximality needs a size bound of at least 2, got {max_size}: "
            f"the equalizer is read off the maps 1 -> 2, and the probe's "
            f"laws must hold on them")
    for n in range(1, max_size + 1):
        if probe.elements(n) != f.elements(n):
            raise ProbeMismatchError(
                f"probe disagrees with {f.name} on the value at size {n}")
    for key in tables_up_to(max_size):
        # The probe may differ from F at the empty set, and every map
        # with an end of size 0 starts there.
        if key[0] and probe.action(*key) != f.action(*key):
            raise ProbeMismatchError(
                f"probe disagrees with {f.name} at {table_repr(*key)}")
    laws = check_functor_laws(probe, max_size)
    if not laws.passed:
        raise ProbeMismatchError(
            f"probe is not a functor: {laws.counterexamples[0]}")
    out = _Collector("maximality", f"sizes <= {max_size}")
    allowed = set(empty_mod_max(f).empty_classes)
    to_one = probe.action(0, 1, ())
    for i, target in enumerate(to_one):
        if target not in allowed:
            out.add(f"{probe.elements(0)[i]} maps to "
                    f"{f.elements(1)[target]} outside the equalizer subset")
    return out.report(
        f"image size {len(set(to_one))} of {probe.size(0)} elements, "
        f"equalizer size {len(allowed)}")


# Checks are looked up at call time, so one rebound on the module runs.
_CHECK_TABLE = {
    "laws": lambda g, n, seed: check_functor_laws(g, n),
    "mono": lambda g, n, seed: check_monomorphic(g, n),
    "epi": lambda g, n, seed: check_epimorphic(g, n),
    "intersections": lambda g, n, seed: check_intersections(g, n),
    "supports": lambda g, n, seed: check_supports(g, n, seed=seed),
}
STANDARD_CHECKS = tuple(_CHECK_TABLE)


def run_standard_checks(g: FunctorInstance, max_size: int, seed: int = 0,
                        skip: Sequence[str] = ()) -> list[CheckReport]:
    """The fixed check battery used by the command-line front end."""
    unknown = [s for s in skip if s not in STANDARD_CHECKS]
    if unknown:
        raise ValueError(f"unknown check name(s): {', '.join(unknown)}")
    return [_CHECK_TABLE[name](g, max_size, seed)
            for name in STANDARD_CHECKS if name not in skip]
