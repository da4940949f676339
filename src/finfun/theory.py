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
exceptions.  Each check decides the functor laws first
(``_law_failures``); ``laws`` then lists their failures from the same
walk, and every other check refuses an instance whose laws fail.  On a
lawful one, Trnková's rules decide what the walk over every map or pair
would, from F at sizes <= 2:
``mono`` reads F(0 -> 1), and ``intersections`` and ``supports`` read the
strays (``_strays``), the elements of F(2) that the images of {0} and {1}
share but the image of the empty set lacks.  A failing report writes its
kept texts from the strays at sizes <= 4 and its total in closed form.
"""

from __future__ import annotations

import itertools
import operator
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
    is_surjective,
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
    bound up to which its laws are known is recorded on it (``_law_bound``;
    monomorphicity is one read, never recorded), and so is the frozenset
    image of each subset inclusion once computed (``_images``, keyed by
    ambient size and mask, shared by every caller), and each default-order
    ``support`` result (``_supports``, keyed by size and element), so never
    mutate ``TabulatedInstance.morphisms``.  A subclass that can prove its
    own laws overrides ``proves_laws``.
    """

    def __init__(self, name: str):
        self.name = name
        self._law_bound = -1
        self._images: dict[tuple[int, int], frozenset[int]] = {}
        self._supports: dict[tuple[int, int], SupportResult] = {}

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
        composable pair.  False means "not decided": the checks then walk
        the laws (``law_failures``).  This default always answers False.  An
        override answers True only for the methods its proof reads: a
        presentation's laws hold by construction, and a modification takes
        its base's; neither reads a map."""
        return False

    def map(self, f: FiniteFunction) -> FiniteFunction:
        """F(f) as a validated function."""
        x, y = f.dom.size, f.cod.size
        return FiniteFunction(FiniteSet(self.size(x)), FiniteSet(self.size(y)),
                              self.action(x, y, f.table))

    @property
    def max_arity(self) -> int | None:
        """Largest shape arity for presentation-backed instances, and at
        least 1 for a modification of one; else None."""
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


def tables_up_to(max_size: int) -> Iterator[MorphismKey]:
    """(x, y, table) for every map x -> y with x, y <= max_size: by x,
    then y, then in ``function_tables`` order.  The checks over maps list
    their counterexamples, and tabulations their records, in this
    order."""
    sizes = sizes_up_to(max_size)
    return ((x, y, t) for x in sizes for y in sizes
            for t in function_tables(x, y))


# ---------------------------------------------------------------------------
# Empty-set modifications


class EmptyModified(FunctorInstance):
    """The empty-set modification ``EmptyModified(base, kind)``.

    Non-empty values and maps are the base's; a modified base is replaced
    by its own base, since only its non-empty values count.  The value at
    the empty set lists ``empty_classes``, a subset of F1 whose elements
    keep their F1 names: for ``MAXIMAL``, the subset on which F of the two
    maps 1 -> 2 agree, read off the base here; for ``MINIMAL``, no
    element, so every map out of the empty set is the empty function.  No
    other subset can be given.

    A map out of the empty set into a non-empty Y restricts F(c) to
    ``empty_classes``, where c: 1 -> Y is the constant with value 0.  Any
    other constant c' gives the same map: the map h: 2 -> Y through which
    both constants factor forces F(c) and F(c') to agree on the equalizer.
    F(c) is read off the base for either kind, so a minimal modification
    too reads the base once per such map, and a Y beyond a tabulated
    base's bound is refused there.
    """

    def __init__(self, base: FunctorInstance, kind: ModificationKind):
        if isinstance(base, EmptyModified):
            base = base.base
        super().__init__(base.name + kind.symbol)
        self.base = base
        self.kind = kind
        self.empty_classes: tuple[int, ...] = ()
        if kind is ModificationKind.MAXIMAL:
            m0, m1 = base.action(1, 2, (0,)), base.action(1, 2, (1,))
            self.empty_classes = tuple(
                i for i in range(base.size(1)) if m0[i] == m1[i])

    @property
    def max_arity(self) -> int | None:
        """The base's arity, but at least 1 when it is known.  The value
        at the empty set is not the base's: a minimal modification empties
        it, so an element over a non-empty set that the base takes from
        size 0 comes here from size 1 only."""
        arity = self.base.max_arity
        return None if arity is None else max(arity, 1)

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
        """The base's laws, recorded on it or proved by it
        (``_laws_known``): a modification's laws are its base's.

        A pair f, g in which f has a non-empty domain composes as the
        base's does.  Write f_y for the one map 0 -> y, E for
        ``empty_classes`` and c_v for a constant map out of 1 with value
        v; F(f_y) restricts F(c_0: 1 -> y) to E.  For g: y -> z, g o f_y = f_z.  When
        y = 0, f_y = id_0, and F(id_0) = id by definition.  When y > 0,
        F(g) o F(c_0) = F(c_{g(0)}) by the base's laws.  Let h: 2 -> z
        send 0 to g(0) and 1 to 0: c_{g(0)} and c_0 are h after the two
        maps 1 -> 2, and F of those maps agree on E.  So F(g) o F(f_y) =
        F(f_z), from the base's laws on sizes <= max_size only.
        """
        return (type(self).action is EmptyModified.action
                and _laws_known(self.base, max_size))

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


def empty_mod_min(f: FunctorInstance) -> EmptyModified:
    return EmptyModified(f, ModificationKind.MINIMAL)


def empty_mod_max(f: FunctorInstance) -> EmptyModified:
    """Requires the instance to be defined at sizes 1 and 2."""
    return EmptyModified(f, ModificationKind.MAXIMAL)


def modify(f: FunctorInstance, kind: ModificationKind) -> EmptyModified:
    return EmptyModified(f, kind)


# ---------------------------------------------------------------------------
# Images, supports, skeleta, degree


def image_of_inclusion(g: FunctorInstance, a: SubsetMask) -> frozenset[int]:
    """The element indices of the image of F applied to A -> X: one
    frozenset per instance and subset, computed once and shared."""
    return _image(g, a.ambient.size, a.bits)


def _image(g: FunctorInstance, n: int, bits: int) -> frozenset[int]:
    """The image of the inclusion of ``bits`` into n; the one reader and
    filler of ``g._images``."""
    image = g._images.get((n, bits))
    if image is None:
        members = tuple(i for i in range(n) if bits >> i & 1)
        image = g._images[n, bits] = frozenset(
            g.action(len(members), n, members))
    return image


def require_monomorphic(g: FunctorInstance, bound: int) -> None:
    """Raise MonomorphicityError unless G(f) is injective for every
    injective f between sets of sizes <= bound, and ValueError first, with
    the refusal text of ``_law_refusal``, when the bound is negative or G's
    laws fail up to it.  With the laws, one read of G(0 -> 1) decides
    (``_collapsed``); nothing is recorded."""
    refusal = _law_refusal(g, bound)
    if refusal:
        raise ValueError(refusal)
    collapsed = _collapsed(g, bound)
    if collapsed:
        raise MonomorphicityError(
            FiniteFunction(FiniteSet(0), FiniteSet(1), ()), collapsed)


def _laws_known(g: FunctorInstance, n: int) -> bool:
    """Whether F's laws are known to hold up to size n: recorded on the
    instance (``_law_bound``) by a walk of ``_law_failures`` or of
    ``load_tabulated``, or proved now by ``proves_laws`` and then recorded.
    Nothing is assumed: an instance without a proof answers False until it
    is walked."""
    if g._law_bound < n:
        if not g.proves_laws(n):
            return False
        g._law_bound = n
    return True


def _law_failures(g: FunctorInstance, max_size: int) -> Iterator[
        tuple[MorphismKey, MorphismKey | None]] | None:
    """Decide G's laws up to max_size, the one place every check does so
    first.  None when they hold: known (``_laws_known``), or found now by
    ``law_failures`` and then recorded in ``_law_bound``.  Otherwise the
    live ``law_failures`` iterator, its first failure put back in front,
    so the walk that decided the laws goes on to list them.  A negative
    bound is refused before anything else, since ``_law_bound`` starts at
    -1."""
    sizes = sizes_up_to(max_size)
    if _laws_known(g, max_size):
        return None
    failures = law_failures(g.action, [g.size(n) for n in sizes])
    first = next(failures, None)
    if first is None:
        g._law_bound = max_size
        return None
    return itertools.chain([first], failures)


def _law_refusal(g: FunctorInstance, max_size: int) -> str | None:
    """None when G's laws hold up to max_size (``_law_failures``);
    otherwise the refusal ``functor laws fail: <text>``, whose text is
    that of the first failure ``check_functor_laws`` lists."""
    failures = _law_failures(g, max_size)
    if failures is None:
        return None
    return f"functor laws fail: {_law_text(*next(failures))}"


def _collapsed(g: FunctorInstance, bound: int) -> tuple[str, str] | None:
    """The names of the first two elements G(0 -> 1) collapses, or None
    when it is injective or bound < 1.  The caller has decided G's laws up
    to the bound; then G(f) fails to be injective, for an injective f
    between sets of sizes <= bound, exactly when G(0 -> 1) does.

    With the laws, no other injection can fail (Trnková): an injection
    f: x -> y with x > 0 has a retraction r, and G(r) o G(f) = G(r o f) =
    id, so G(f) is injective.  The maps out of the empty set come first in
    ``tables_up_to`` order, so these are the failures of the walk over
    every injection, in the walk's order.  G(0 -> 0) is G(id), the
    identity.  For y >= 1, G(0 -> y) = G(1 -> y) o G(0 -> 1), and G(1 -> y)
    is injective, so G(0 -> y) collapses exactly the elements G(0 -> 1)
    does: a failure at y = 1 recurs at every y up to the bound, naming the
    same two elements."""
    gf = g.action(0, 1, ()) if bound >= 1 else ()
    j = next((j for j, v in enumerate(gf) if v in gf[:j]), None)
    if j is None:
        return None
    names = g.elements(0)
    return names[gf.index(gf[j])], names[j]


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
            order: Iterable[int] | None = None) -> SupportResult:
    """Greedy support computation for a monomorphic functor, for an
    element of F applied to the set of int size ``n``.

    Starting from the full subset, drop each point (ascending order by
    default) whenever the element stays in the image of the smaller
    inclusion.  The family of subsets whose inclusion image contains the
    element is, by the laws, upward closed.  Unless the element is a stray
    (``_strays``) it is also closed under intersection, so the result is
    its least member whatever the removal order; that holds for every
    element exactly when ``check_supports`` passes.  A stray lies in the
    image of every non-empty subset and not of the empty one, so the pass
    keeps only the last point it tries, and the order decides which.  An
    explicit ``order`` may be any iterable of the n points and is read
    once.  The index is checked, after the removal order, before the
    monomorphicity requirement.

    A default-order result is kept in ``g._supports`` and returned again
    on later calls; a result for an explicit ``order`` is never kept.
    """
    if order is None:
        known = g._supports.get((n, element))
        if known is not None:
            return known
    else:
        order = tuple(order)
        if sorted(order) != list(range(n)):
            raise ValueError(f"removal order {list(order)} is not a "
                             f"permutation of range({n})")
    if not 0 <= element < g.size(n):
        raise UnknownElementError(
            f"index {element} is not an element of {g.name}({n})")
    require_monomorphic(g, n)
    bits = (1 << n) - 1
    for point in range(n) if order is None else order:
        smaller = bits & ~(1 << point)
        if element in _image(g, n, smaller):
            bits = smaller
    mask = SubsetMask(FiniteSet(n), bits)
    table = g.action(len(mask), n, mask.members)
    result = SupportResult(element, mask, table.index(element))
    if order is None:
        g._supports[n, element] = result
    return result


def skeleton(g: FunctorInstance, n: int, size: int) -> tuple[int, ...]:
    """Union of the images of G(f) over all maps f from sets of size <= n
    into the set of int size ``size``, as sorted element indices.

    Equals the set of elements with support of size at most n; the chain
    over increasing n is monotone and stabilizes at the full value once n
    reaches the functor's degree.  Negative sizes are refused first; then
    G's laws are decided up to max(n, size), and ValueError carries the
    refusal of ``_law_refusal`` when they fail.

    With the laws, the union is that of the images of the inclusions of
    the subsets with min(n, size) points, and only those are read.  A map
    f factors as a surjection onto its image A followed by the inclusion
    of A, and G of a surjection is onto (``check_epimorphic``), so G(f)
    and the inclusion of A have one image.  A has at most min(n, size)
    points, each subset with that many is the image of a map from a set of
    size <= n, and images grow with the subset, since the inclusion of a
    smaller subset factors through that of a larger one.  Over the empty
    set only the empty subset is read, the identity of G(0).
    """
    FiniteSet(size), FiniteSet(n)  # refuse negative sizes
    refusal = _law_refusal(g, max(n, size))
    if refusal:
        raise ValueError(refusal)
    return tuple(sorted(frozenset().union(*(
        _image(g, size, sum(1 << p for p in members))
        for members in itertools.combinations(range(size), min(n, size))))))


@dataclass(frozen=True)
class DegreeResult:
    value: int
    exact: bool

    def __repr__(self) -> str:
        return f"{self.value} ({'exact' if self.exact else 'lower bound'})"


def degree(g: FunctorInstance, probe_bound: int) -> DegreeResult:
    """Largest support size over all elements of G(X) with |X| <= probe_bound.

    For presentation-backed instances the value is exact once the probe
    bound reaches ``max_arity`` m: every element is the image of an
    element over a set of size <= m, and supports only shrink along
    maps.  Tabulated instances can only ever certify a lower bound.

    It is the paper's skeleton test: the largest m <= probe_bound at which
    skeleton(g, m - 1, m) is not all of G(m), that is, G(m) has an element
    outside the images of its m subsets of m - 1 points; 0 if there is
    none.  Only the laws are used, through images growing with the subset.
    Let e in G(X) have greedy support A, in any removal order.  When a
    point p of A was tried, e lay outside the image of a superset of A
    less p, so it lies outside that of A less p.  Write e = G(A -> X)(e'):
    e' lies in no codimension-one image of G(|A|), else e would lie in the
    image of A less a point.  Conversely, the greedy loop keeps every
    point of such an element of G(m), since each subset it tries lies in
    one of m - 1 points.  So ``degree`` reads F(0 -> 1) and the m
    codimension-one inclusions at each size m, and builds no
    ``SupportResult``.

    When ``max_arity`` is known, the scan stops at min(probe_bound,
    max_arity).  For m above the arity, every element of G(m) is the class
    of a term with at most max_arity < m points (a modification's arity is
    at least 1, for the elements its base takes from size 0), so it lies in
    the image of the inclusion of a subset of m - 1 points: the skeleton
    test holds at m, and no such m can be the value.
    """
    require_monomorphic(g, probe_bound)
    arity = g.max_arity
    top = probe_bound if arity is None else min(probe_bound, arity)
    best = max((m for m in range(1, top + 1)
                if len(skeleton(g, m - 1, m)) < g.size(m)), default=0)
    exact = arity is not None and probe_bound >= arity
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


# Python refuses to convert an int of more digits than
# ``sys.get_int_max_str_digits()`` (4300 by default, and never below 640
# unless 0) to text in one call, and the closed-form counts of a large
# bound have more.  ``_decimal`` writes them in chunks of 600 digits.
_CHUNK = 10 ** 600


def _decimal(n: int) -> str:
    """``str(n)`` for an int n >= 0 of any number of digits."""
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0600d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


class _Collector:
    """The kept texts and the total of one check's failures, taken in
    through ``add_all`` alone, and the time since the check began."""

    def __init__(self, name: str, scope: str):
        self.name = name
        self.scope = scope
        self.items: list[str] = []
        self.total = 0
        self.start = time.perf_counter()

    def add_all(self, texts: Iterable[str], total: int) -> None:
        """Count ``total`` failures, whose texts ``texts`` lists in order,
        and keep the first of them while fewer than the cap are kept; the
        rest of ``texts`` is never drawn."""
        self.items += itertools.islice(texts,
                                       _COUNTEREXAMPLE_CAP - len(self.items))
        self.total += total

    def refuse(self, reason: str) -> CheckReport:
        """The report of a check that refuses to run: the one
        counterexample ``refused: <reason>``, and no details."""
        self.add_all([f"refused: {reason}"], 1)
        return self.report()

    def report(self, details: str = "") -> CheckReport:
        if self.total > len(self.items):
            total = _decimal(self.total)
            note = f"counterexamples truncated ({total} found)"
            details = f"{details}; {note}" if details else note
        return CheckReport(self.name, self.scope, tuple(self.items),
                           time.perf_counter() - self.start, details)


# ---------------------------------------------------------------------------
# Exhaustive checkers


def _elementary_maps(y: int, z: int) -> list[tuple[int, ...]]:
    """The tables of the generating maps y -> z: when z = y >= 2, the
    transposition (0 1) and, when y >= 3, the cycle i -> i+1 mod y, which
    together generate the symmetric group S_y; when z = y - 1 >= 1, the
    merge of the last two points; when z = y + 1, the inclusion.  Only
    ``law_failures`` reads them."""
    if z == y >= 2:
        swap = (1, 0) + tuple(range(2, y))
        return [swap] if y == 2 else [swap, tuple(range(1, y)) + (0,)]
    if z == y - 1 >= 1:
        return [tuple(range(z)) + (z - 1,)]
    return [tuple(range(y))] if z == y + 1 else []


def _composer(t: tuple[int, ...]
              ) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The map s -> s o t on tables, (s[t[0]], s[t[1]], ...), at C speed
    through ``itemgetter``; of one index that returns a scalar, and of none
    it raises, so shorter tables build their tuple in Python."""
    if len(t) >= 2:
        return operator.itemgetter(*t)
    return lambda s: tuple(map(s.__getitem__, t))


def _composition_failures(action: _Action, top: int, seconds: TableSource
                          ) -> Iterator[tuple[MorphismKey, MorphismKey]]:
    """Each (f, g) with F(g o f) != F(g) o F(f) for f: x -> y any map and
    g in ``seconds(y, z)``, x, y, z <= top; by x, y, z, f, then g.  Reads
    F through ``action``, at sizes <= top only.  Each f's two composers,
    g o f from g and F(g) o F(f) from F(g), are built once per (x, y, z)
    block and dropped with it."""
    for x in range(top + 1):
        # F on the maps out of x, by codomain: both f and g o f are such.
        out_of_x = [{t: action(x, y, t) for t in function_tables(x, y)}
                    for y in range(top + 1)]
        for y in range(top + 1):
            for z in range(top + 1):
                gs = [(gt, action(y, z, gt)) for gt in seconds(y, z)]
                if not gs:
                    continue
                composed = out_of_x[z]
                for ft, af in out_of_x[y].items():
                    after_f, after_af = _composer(ft), _composer(af)
                    for gt, ag in gs:
                        if composed[after_f(gt)] != after_af(ag):
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


def _law_text(f: MorphismKey, h: MorphismKey | None) -> str:
    """How a failure (f, h) of ``law_failures`` is written in reports."""
    if h is None:
        return f"F(id_{f[0]}) is not the identity"
    return (f"F(g o f) != F(g) o F(f) for f={table_repr(*f)}, "
            f"g={table_repr(*h)}")


def check_functor_laws(g: FunctorInstance, max_size: int) -> CheckReport:
    """F(id) = id and F(g o f) = F(g) o F(f), exhaustively up to max_size.

    Decides the laws as every check does first (``_law_failures``), which
    records a pass.  An instance whose ``proves_laws`` holds passes without
    the walk and reads no map: a presentation's laws hold by construction,
    and a modification takes its base's.  When the laws fail, the walk that
    found the first failure goes on to list the rest: the first 25 are
    written, the others only counted.
    """
    out = _Collector("laws", f"sizes <= {max_size}")
    failures = _law_failures(g, max_size)
    if failures is not None:
        kept = list(itertools.starmap(
            _law_text, itertools.islice(failures, _COUNTEREXAMPLE_CAP)))
        out.add_all(kept, len(kept) + sum(1 for _ in failures))
    return out.report()


def check_monomorphic(g: FunctorInstance, max_size: int) -> CheckReport:
    """G(f) injective for every injective f between sets of sizes <= max_size,
    including maps out of the empty set.  With the laws, only G(0 -> 1) is
    read (``_collapsed``): when it collapses two elements, so does each map
    0 -> y, y = 1, ..., max_size, and nothing else fails."""
    out = _Collector("mono", f"sizes <= {max_size}")
    refusal = _law_refusal(g, max_size)
    if refusal:
        return out.refuse(refusal)
    collapsed = _collapsed(g, max_size)
    if collapsed:
        a, b = collapsed
        out.add_all((f"G(f) not injective for f={table_repr(0, y, ())}: "
                     f"collapses {a} and {b}"
                     for y in range(1, max_size + 1)), max_size)
    return out.report()


def check_epimorphic(g: FunctorInstance, max_size: int) -> CheckReport:
    """G(f) surjective for every surjective f between sets of sizes <= max_size.

    Once G's laws hold up to max_size, no surjection can fail (Trnková):
    a surjection p: x -> y has a section s, and G(p) o G(s) = G(p o s) =
    id, so G(p) is onto.  So the check decides the laws and reads no map.
    """
    out = _Collector("epi", f"sizes <= {max_size}")
    refusal = _law_refusal(g, max_size)
    return out.refuse(refusal) if refusal else out.report()


def _disjoint_pairs(n: int) -> Iterator[tuple[SubsetMask, SubsetMask]]:
    """Every ordered pair of disjoint non-empty subsets of n, in
    ``enumerate_subsets`` order: 3^n - 2^(n+1) + 1 pairs."""
    masks = list(enumerate_subsets(FiniteSet(n)))[1:]
    return ((a, b) for a in masks for b in masks if not a.bits & b.bits)


def _disjoint_total(max_size: int) -> int:
    """How many pairs ``_disjoint_pairs`` yields over the sizes up to
    max_size."""
    return sum(3 ** n - 2 ** (n + 1) + 1 for n in sizes_up_to(max_size))


def _strays(g: FunctorInstance, n: int) -> list[int]:
    """The elements of G(n), n >= 2, in the images of {0} and {1} but not
    in the image of the empty set, sorted.  The caller has decided G's laws
    up to n.

    Write E for the equalizer of G of the two maps 1 -> 2, the value at
    the empty set of ``empty_mod_max`` (Trnková's distinguished points),
    and c_v: 1 -> n for the constant with value v.  The strays are the
    G(c)(x) for x in E outside the image of G(0 -> 1), for any c; and they
    are exactly the elements in the images of two disjoint non-empty
    subsets A and B of n but not in the image of the empty set.

    - For x in E, G(c_v)(x) = G(c_w)(x): both maps factor through the map
      2 -> n with 0 -> v and 1 -> w.  So G(c)(x) lies in the image of
      every {v}, hence of every non-empty subset.  G(c) has the retraction
      G(n -> 1), which sends the image of the empty set into that of
      G(0 -> 1); so G(c)(x) lies outside it when x does.
    - Let e lie in the images of A and B and not of the empty set, and
      pick a in A.  The map f that fixes A and sends the rest of n to a
      fixes e, as G(f) fixes the image of A; and f sends B into {a}, so e
      lies in the image of {a}: e = G(c_a)(x).  Likewise e = G(c_b)(y)
      for b in B.  Let h: 2 -> n send 0 to a and 1 to b; G(h) has a
      retraction, so G(i_0)(x) = G(i_1)(y) in G(2), for the two maps i_0,
      i_1: 1 -> 2.  G of the merge 2 -> 1 takes both sides to x = y, so x
      lies in E, and outside the image of G(0 -> 1), as e is not in that
      of the empty set.

    G(c) is injective, so every n >= 2 has the same number k of strays:
    |E| less the size of the image of G(0 -> 1), which is |G°(∅)| - |G(∅)|
    for a monomorphic G."""
    return sorted(_image(g, n, 1) & _image(g, n, 2) - _image(g, n, 0))


def _stray_names(g: FunctorInstance, max_size: int
                 ) -> Iterator[tuple[int, list[str]]]:
    """(n, the names of ``_strays(g, n)``) for n = 2, ..., max_size, each
    read only when drawn."""
    for n in range(2, max_size + 1):
        names = g.elements(n)
        yield n, [names[e] for e in _strays(g, n)]


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

    The check decides G's laws first.  With them, only disjoint pairs can
    fail (Trnková).  Let A & B = C hold a point c, and let f fix A and send
    the rest of X to c, and h fix B and send the rest to c.  Then f o h
    fixes C and sends the rest to c, so it factors through the inclusion
    of C.  G(f) fixes the image of A, as f does A, and G(h) the image of
    B, so an element of both images is G(f o h) of itself: it lies in the
    image of C.  The image of C lies in both, through A and through B.

    A disjoint pair fails exactly at the strays of its size
    (``_strays``), which lie in the image of every non-empty subset.  So
    the check reads the ∅, {0} and {1} inclusions into 2 only: with no
    stray there, it passes; otherwise every disjoint pair of non-empty
    subsets of every size from 2 fails, naming the least stray of its
    size, and the total is the ``disjoint`` count.  The failures, their
    order and their number are those of the walk over every pair.
    """
    out = _Collector("intersections", f"sizes <= {max_size}")
    refusal = _law_refusal(g, max_size)
    if refusal:
        return out.refuse(refusal)
    sizes = sizes_up_to(max_size)
    nested = sum(2 * 3 ** n - 2 ** n for n in sizes)
    disjoint = _disjoint_total(max_size)
    overlapping = sum(4 ** n for n in sizes) - nested - disjoint
    if max_size >= 2 and _strays(g, 2):
        out.add_all((f"X={n} A={a!r} B={b!r}: image of A&B differs from "
                     f"intersection at {strays[0]}"
                     for n, strays in _stray_names(g, max_size)
                     for a, b in _disjoint_pairs(n)), disjoint)
    details = ("pairwise check; arbitrary finite families reduce to pairs. "
               f"case counts: nested={_decimal(nested)}, "
               f"disjoint={_decimal(disjoint)}, "
               f"overlapping={_decimal(overlapping)}")
    return out.report(details)


def check_supports(g: FunctorInstance, max_size: int,
                   seed: int = 0) -> CheckReport:
    """Support family sanity for every element over every X, |X| <= max_size.

    The family of an element is the set of subsets whose inclusion image
    contains it.  Verifies that each family is closed under intersection
    and holds its own intersection, the least member that ``support``
    finds.  Decides G's laws first, and refuses (as a failure, with the
    violating injection) when the functor is not monomorphic up to the
    bound.  ``seed`` only labels the scope.

    With the laws, every family is upward closed: A <= B gives image(A)
    <= image(B), since the inclusion of A factors through that of B.  Two
    members that overlap meet in a member, by the rule of
    ``check_intersections``, and two disjoint ones only in the family of a
    stray (``_strays``).  So every other family is closed under
    intersection: it holds its intersection and nothing fails.  A stray
    lies in the image of every non-empty subset and not of the empty one,
    so its family is every non-empty subset: it fails on each disjoint
    pair of non-empty subsets, in ``_disjoint_pairs`` order, and then on
    its intersection, the empty set.  With k strays at each size from 2,
    read at size 2, the total is k times the ``disjoint`` count of
    ``check_intersections`` plus one per size from 2 to max_size.
    """
    out = _Collector("supports", f"sizes <= {max_size}, seed {seed}")
    refusal = _law_refusal(g, max_size)
    if refusal:
        return out.refuse(refusal)
    try:
        require_monomorphic(g, max_size)
    except MonomorphicityError as err:
        return out.refuse(str(err))
    k = len(_strays(g, 2)) if max_size >= 2 else 0
    if k:
        out.add_all(_family_texts(g, max_size),
                    k * (_disjoint_total(max_size) + max_size - 1))
    return out.report()


def _family_texts(g: FunctorInstance, max_size: int) -> Iterator[str]:
    """The failures of ``check_supports`` in the walk's order: by size
    from 2, then by stray, each disjoint pair and then the intersection."""
    for n, strays in _stray_names(g, max_size):
        for name in strays:
            for a, b in _disjoint_pairs(n):
                yield f"X={n} {name}: family not closed under {a!r} & {b!r}"
            yield f"X={n} {name}: intersection of the family is not a member"


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
