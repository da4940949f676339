"""Empty-set modifications, supports, and exhaustive desk-scale checkers.

A ``FunctorInstance`` is any evaluable endofunctor of finite sets: it
answers an object query (the elements of FX, identified by index and
display name) and a morphism query (the induced function on element
indices).  Everything here works uniformly over presentation-backed,
tabulated, and modified instances.

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
from typing import Iterator, Mapping, Sequence

from .finset import (
    FiniteFunction,
    FiniteSet,
    SubsetMask,
    TableSource,
    constant,
    enumerate_functions,
    enumerate_subsets,
    function_tables,
    identity,
    inclusion,
    injective_tables,
    is_injective,
    is_surjective,
    surjective_tables,
    table_repr,
)

MorphismKey = tuple[int, int, tuple[int, ...]]

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


class FunctorInstance(ABC):
    """An evaluable endofunctor of finite sets.

    Object and morphism queries are deterministic and cached by the
    concrete classes; instances behave as immutable values and may be
    shared freely.
    """

    def __init__(self, name: str):
        self.name = name
        self._mono_bound = -1

    @abstractmethod
    def elements(self, n: int) -> tuple[str, ...]:
        """Display names of the elements of F applied to {0,...,n-1}."""

    @abstractmethod
    def map(self, f: FiniteFunction) -> FiniteFunction:
        """The induced function on element indices."""

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


def maps_up_to(max_size: int,
               tables: TableSource = function_tables
               ) -> Iterator[FiniteFunction]:
    """Every map x -> y with x, y <= max_size whose table ``tables(x, y)``
    yields: by x, then y, then in the order of ``tables``.  The checks
    over maps list their counterexamples, and tabulations their records,
    in this order."""
    sets = [FiniteSet(n) for n in range(max_size + 1)]
    for x in sets:
        for y in sets:
            yield from enumerate_functions(x, y, tables)


# ---------------------------------------------------------------------------
# Empty-set modifications


class EmptyModified(FunctorInstance):
    """An empty-set modification of a base instance.

    Non-empty values and maps are the base's.  The value at the empty set
    is the subset of F1 listed by ``empty_classes``, whose elements keep
    their F1 names; maps out of the empty set restrict the action of a
    constant map 1 -> Y (see ``empty_morphism``).  The maximal
    modification takes the subset of F1 equalized by the two constant
    maps 1 -> 2; the minimal one takes no element at all, so every map
    out of the empty set is the empty function.
    """

    def __init__(self, base: FunctorInstance, kind: ModificationKind,
                 empty_classes: tuple[int, ...]):
        suffix = "∘" if kind is ModificationKind.MINIMAL else "°"
        super().__init__(base.name + suffix)
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

    def map(self, f: FiniteFunction) -> FiniteFunction:
        if f.dom.size > 0:
            return self.base.map(f)
        return self._from_empty(f.cod, 0)

    def _from_empty(self, y: FiniteSet, via: int) -> FiniteFunction:
        k = len(self.empty_classes)
        if y.size == 0:
            return identity(FiniteSet(k))
        base_map = self.base.map(constant(FiniteSet(1), y, via))
        table = tuple(base_map.table[i] for i in self.empty_classes)
        return FiniteFunction(FiniteSet(k), FiniteSet(self.size(y.size)),
                              table)

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
    one, two = FiniteSet(1), FiniteSet(2)
    m0 = base.map(constant(one, two, 0))
    m1 = base.map(constant(one, two, 1))
    empty = tuple(i for i in range(base.size(1))
                  if m0.table[i] == m1.table[i])
    return EmptyModified(base, ModificationKind.MAXIMAL, empty)


def modify(f: FunctorInstance, kind: ModificationKind) -> FunctorInstance:
    if kind is ModificationKind.MINIMAL:
        return empty_mod_min(f)
    return empty_mod_max(f)


def empty_morphism(g: EmptyModified, y: FiniteSet,
                   via: int = 0) -> FiniteFunction:
    """The action of the maximal modification on the map from the empty set.

    Restricts F(g) to the equalizer subset of F1, where g: 1 -> Y is the
    constant map with value ``via``.  The result does not depend on
    ``via``: for another choice g', the map h: 2 -> Y through which both
    constants factor forces F(g) and F(g') to agree on the equalizer.
    That independence is property-tested, not assumed.
    """
    if (not isinstance(g, EmptyModified)
            or g.kind is not ModificationKind.MAXIMAL):
        raise TypeError("empty_morphism needs a maximal modification")
    return g._from_empty(y, via)


# ---------------------------------------------------------------------------
# Images, supports, skeleta, degree


def image_of_inclusion(g: FunctorInstance, a: SubsetMask) -> tuple[int, ...]:
    """Sorted element indices of the image of F applied to A -> X."""
    return tuple(sorted(set(g.map(inclusion(a)).table)))


def require_monomorphic(g: FunctorInstance, bound: int) -> None:
    """Raise MonomorphicityError unless G(f) is injective for every
    injective f between sets of sizes <= bound (cached per instance)."""
    if g._mono_bound >= bound:
        return
    for f, collapsed in _injectivity_failures(g, bound):
        raise MonomorphicityError(f, collapsed)
    g._mono_bound = bound


def _injectivity_failures(g: FunctorInstance, max_size: int) -> Iterator[
        tuple[FiniteFunction, tuple[str, str]]]:
    """Each injective f between sets of sizes <= max_size, maps out of the
    empty set included, for which G(f) is not injective, with the names
    of the first two elements G(f) collapses."""
    for f in maps_up_to(max_size, injective_tables):
        gf = g.map(f)
        if is_injective(gf):
            continue
        names = g.elements(f.dom.size)
        seen: dict[int, int] = {}
        for i, v in enumerate(gf.table):
            if v in seen:
                yield f, (names[seen[v]], names[i])
                break
            seen[v] = i


@dataclass(frozen=True)
class SupportResult:
    """The least subset carrying an element, with a preimage witness.

    ``witness`` is the index of an element of G(support) whose image under
    the inclusion into the ambient set is ``element``.
    """

    element: int
    support: SubsetMask
    witness: int


def support(g: FunctorInstance, x: FiniteSet | int, element: int,
            order: Sequence[int] | None = None) -> SupportResult:
    """Greedy support computation for a monomorphic functor.

    Starting from the full subset, drop each point (ascending order by
    default) whenever the element stays in the image of the smaller
    inclusion.  Because the family of subsets whose inclusion image
    contains the element is closed under intersection, the result is its
    least member regardless of the removal order; order independence is
    exercised by ``check_supports``.
    """
    n = x if isinstance(x, int) else x.size
    if order is None:
        order = range(n)
    elif sorted(order) != list(range(n)):
        raise ValueError(f"removal order {list(order)} is not a permutation "
                         f"of range({n})")
    require_monomorphic(g, n)
    total = g.size(n)
    if not 0 <= element < total:
        raise UnknownElementError(
            f"index {element} is not an element of {g.name}({n})")
    ambient = FiniteSet(n)
    mask = SubsetMask(ambient, (1 << n) - 1)
    for point in order:
        smaller = mask.without(point)
        if element in image_of_inclusion(g, smaller):
            mask = smaller
    table = g.map(inclusion(mask)).table
    return SupportResult(element, mask, table.index(element))


def skeleton(g: FunctorInstance, n: int, x: FiniteSet | int) -> tuple[int, ...]:
    """Union of the images of G(f) over all maps f from sets of size <= n.

    Equals the set of elements with support of size at most n; the chain
    over increasing n is monotone and stabilizes at the full value once n
    reaches the functor's degree.  For non-empty X the domains of size
    exactly n already realize the whole union (factor smaller domains
    through any extension); allowing smaller domains keeps the equality
    with the support filter valid over the empty set too, where only the
    empty domain admits a map.
    """
    xs = FiniteSet(x) if isinstance(x, int) else x
    # Smaller domains factor through size n when X is inhabited; over the
    # empty set only the empty domain admits a map at all.
    top = n if xs.size else 0
    hit: set[int] = set()
    for f in enumerate_functions(FiniteSet(top), xs):
        hit.update(g.map(f).table)
    return tuple(sorted(hit))


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
    for n in range(probe_bound + 1):
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
    res = support(g, f.cod, b)
    section_table = tuple(f.table.index(m) for m in res.support.members)
    section = FiniteFunction(FiniteSet(len(res.support)), f.dom, section_table)
    return g.map(section).table[res.witness]


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


def _elementary_maps(y: int,
                     top: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(codomain size, table) of each generating map out of y within sizes
    <= top: the adjacent transpositions of y, the merge y -> y-1 of its
    last two points, and the inclusion y -> y+1."""
    for i in range(y - 1):
        yield y, tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, y))
    if y >= 2:
        yield y - 1, tuple(range(y - 1)) + (y - 2,)
    if y < top:
        yield y + 1, tuple(range(y))


def _laws_hold_on_generators(action: Mapping[MorphismKey, tuple[int, ...]],
                             sizes: Sequence[int]) -> bool:
    """F(id_n) = id for each n, and F(s o f) = F(s) o F(f) for every map f
    and every elementary map s out of f's codomain."""
    top = len(sizes) - 1
    if any(action[(n, n, tuple(range(n)))] != tuple(range(sizes[n]))
           for n in range(top + 1)):
        return False
    for y in range(top + 1):
        for z, st in _elementary_maps(y, top):
            act = action[(y, z, st)]
            for x in range(top + 1):
                for ft in function_tables(x, y):
                    af = action[(x, y, ft)]
                    if (action[(x, z, tuple(map(st.__getitem__, ft)))]
                            != tuple(map(act.__getitem__, af))):
                        return False
    return True


def law_failures(action: Mapping[MorphismKey, tuple[int, ...]],
                 sizes: Sequence[int]) -> Iterator[
                     tuple[MorphismKey, MorphismKey | None]]:
    """Each failure of the functor laws in a complete table of F.

    ``action`` maps every (dom, cod, table) with dom, cod < len(sizes) to
    the table of F on that map, and F(n) has sizes[n] elements.  Yields
    (id_n, None) for each n where F(id_n) is not the identity, then (f, g)
    for each composable pair with F(g o f) != F(g) o F(f): by the sizes
    of the domain of f, the codomain of f and the codomain of g, then f
    outer and g inner, each in ``function_tables`` order.

    Lawful tables are recognised from the generating maps alone.  Every
    g: y -> z factors as a surjection followed by an injection through
    sets no larger than max(y, z), hence as a composite of adjacent
    transpositions, merges n -> n-1 and inclusions n -> n+1 (Mac Lane,
    *Categories for the Working Mathematician*, §VII.5).  So F(id) = id
    and F(s o f) = F(s) o F(f), for every map f and every such s, give
    F(g o f) = F(g) o F(f) for all g by induction on the factorisation.
    Only when that fails are all composable pairs compared, so the
    failures come out complete and in the order above.
    """
    if _laws_hold_on_generators(action, sizes):
        return
    top = range(len(sizes))
    for n in top:
        key = (n, n, tuple(range(n)))
        if action[key] != tuple(range(sizes[n])):
            yield key, None
    hom = {(x, y): {t: action[(x, y, t)] for t in function_tables(x, y)}
           for x in top for y in top}
    for x in top:
        for y in top:
            for z in top:
                composites = hom[x, z]
                gs = hom[y, z].items()
                for ft, af in hom[x, y].items():
                    for gt, ag in gs:
                        if (composites[tuple(map(gt.__getitem__, ft))]
                                != tuple(map(ag.__getitem__, af))):
                            yield (x, y, ft), (y, z, gt)


def check_functor_laws(g: FunctorInstance, max_size: int) -> CheckReport:
    """F(id) = id and F(g o f) = F(g) o F(f), exhaustively up to max_size."""
    out = _Collector("laws", f"sizes <= {max_size}")
    action = {(f.dom.size, f.cod.size, f.table): g.map(f).table
              for f in maps_up_to(max_size)}
    sizes = [g.size(n) for n in range(max_size + 1)]
    for f, h in law_failures(action, sizes):
        if h is None:
            out.add(f"F(id_{f[0]}) is not the identity")
        else:
            out.add(f"F(g o f) != F(g) o F(f) for f={table_repr(*f)}, "
                    f"g={table_repr(*h)}")
    return out.report()


def check_monomorphic(g: FunctorInstance, max_size: int) -> CheckReport:
    """G(f) injective for every injective f between sets of sizes <= max_size,
    including maps out of the empty set."""
    out = _Collector("mono", f"sizes <= {max_size}")
    for f, (a, b) in _injectivity_failures(g, max_size):
        out.add(f"G(f) not injective for f={f!r}: collapses {a} and {b}")
    if not out.total:
        g._mono_bound = max(g._mono_bound, max_size)
    return out.report()


def check_epimorphic(g: FunctorInstance, max_size: int) -> CheckReport:
    """G(f) surjective for every surjective f between sets of sizes <= max_size."""
    out = _Collector("epi", f"sizes <= {max_size}")
    for f in maps_up_to(max_size, surjective_tables):
        y = f.cod.size
        missed = set(range(g.size(y))) - set(g.map(f).table)
        if missed:
            name = g.elements(y)[min(missed)]
            out.add(f"G(f) not surjective for f={f!r}: misses {name}")
    return out.report()


def _subset_images(g: FunctorInstance, n: int) -> tuple[
        list[SubsetMask], dict[int, frozenset[int]]]:
    """Every subset of n, and the image of its inclusion keyed by mask."""
    masks = list(enumerate_subsets(FiniteSet(n)))
    return masks, {m.bits: frozenset(image_of_inclusion(g, m))
                   for m in masks}


def check_intersections(g: FunctorInstance, max_size: int) -> CheckReport:
    """Image of the inclusion of A & B equals the intersection of the images.

    Checks every pair of subsets A, B of every X with |X| <= max_size.
    Pairs suffice for arbitrary finite families, since finite
    intersections are generated pairwise; the report header records this
    reduction and how often each shape of pair (nested, disjoint,
    overlapping) was exercised.
    """
    out = _Collector("intersections", f"sizes <= {max_size}")
    cases = {"nested": 0, "disjoint": 0, "overlapping": 0}
    for n in range(max_size + 1):
        masks, images = _subset_images(g, n)
        for a in masks:
            for b in masks:
                meet = a.bits & b.bits
                if meet in (a.bits, b.bits):
                    cases["nested"] += 1
                elif not meet:
                    cases["disjoint"] += 1
                else:
                    cases["overlapping"] += 1
                lhs = images[meet]
                rhs = images[a.bits] & images[b.bits]
                if lhs != rhs:
                    offending = min(lhs ^ rhs)
                    out.add(
                        f"X={n} A={a!r} B={b!r}: image of A&B differs from "
                        f"intersection at {g.elements(n)[offending]}")
    details = ("pairwise check; arbitrary finite families reduce to pairs. "
               f"case counts: nested={cases['nested']}, "
               f"disjoint={cases['disjoint']}, "
               f"overlapping={cases['overlapping']}")
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
    """
    out = _Collector("supports", f"sizes <= {max_size}, seed {seed}")
    try:
        require_monomorphic(g, max_size)
    except MonomorphicityError as err:
        out.add(f"refused: {err}")
        return out.report()
    for n in range(max_size + 1):
        masks, images = _subset_images(g, n)
        names = g.elements(n)
        for element in range(g.size(n)):
            family = [m for m in masks if element in images[m.bits]]
            for ma in family:
                for mb in family:
                    if element not in images[ma.bits & mb.bits]:
                        out.add(f"X={n} {names[element]}: family not closed "
                                f"under {ma!r} & {mb!r}")
            for ma in family:
                for mb in masks:
                    if ma.is_subset_of(mb) and element not in images[mb.bits]:
                        out.add(f"X={n} {names[element]}: family not upward "
                                f"closed at {ma!r} <= {mb!r}")
            least = SubsetMask(FiniteSet(n), (1 << n) - 1)
            for m in family:
                least = least.intersection(m)
            if element not in images[least.bits]:
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
                back = g.map(inclusion(res.support)).table[res.witness]
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
    non-empty set up to the bound or fails the functor laws.
    """
    for n in range(1, max_size + 1):
        if probe.elements(n) != f.elements(n):
            raise ProbeMismatchError(
                f"probe disagrees with {f.name} on the value at size {n}")
    for fn in maps_up_to(max_size):
        # The probe may differ from F at the empty set, and every map
        # with an end of size 0 starts there.
        if fn.dom.size and probe.map(fn).table != f.map(fn).table:
            raise ProbeMismatchError(
                f"probe disagrees with {f.name} at {fn!r}")
    laws = check_functor_laws(probe, max_size)
    if not laws.passed:
        raise ProbeMismatchError(
            f"probe is not a functor: {laws.counterexamples[0]}")
    out = _Collector("maximality", f"sizes <= {max_size}")
    fmax = empty_mod_max(f)
    allowed = set(fmax.empty_classes)
    to_one = probe.map(FiniteFunction(FiniteSet(0), FiniteSet(1), ()))
    for i, target in enumerate(to_one.table):
        if target not in allowed:
            out.add(f"{probe.elements(0)[i]} maps to "
                    f"{f.elements(1)[target]} outside the equalizer subset")
    return out.report(
        f"image size {len(set(to_one.table))} of {probe.size(0)} elements, "
        f"equalizer size {len(allowed)}")


STANDARD_CHECKS = ("laws", "mono", "epi", "intersections", "supports")


def run_standard_checks(g: FunctorInstance, max_size: int, seed: int = 0,
                        skip: Sequence[str] = ()) -> list[CheckReport]:
    """The fixed check battery used by the command-line front end."""
    unknown = [s for s in skip if s not in STANDARD_CHECKS]
    if unknown:
        raise ValueError(f"unknown check name(s): {', '.join(unknown)}")
    reports = []
    for name in STANDARD_CHECKS:
        if name in skip:
            continue
        if name == "laws":
            reports.append(check_functor_laws(g, max_size))
        elif name == "mono":
            reports.append(check_monomorphic(g, max_size))
        elif name == "epi":
            reports.append(check_epimorphic(g, max_size))
        elif name == "intersections":
            reports.append(check_intersections(g, max_size))
        elif name == "supports":
            reports.append(check_supports(g, max_size, seed=seed))
    return reports
