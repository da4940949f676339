"""The one copy of each helper that several test modules share:
instances built fresh, wrapped (``Overridden``, ``Counting``, ``walked``)
or given a point at the empty set; the oracle, which writes each check
from its definition as a walk over every map, pair of subsets or
family; the gate that holds every check to it
(``assert_rules_match_walk``); random flat presentations; and the small
oracles that several modules read.

The test modules import it as ``helpers``; ``pyproject.toml`` puts
``tests/`` on ``sys.path`` in every pytest import mode.
"""

from __future__ import annotations

import functools
import itertools

from hypothesis import strategies as st

from finfun.finset import function_tables, table_repr
from finfun.presentation import (
    Equation,
    FlatTerm,
    Presentation,
    PresentationInstance,
    Shape,
    parse_presentation,
)
from finfun.tabulated import export_tabulated, load_tabulated
from finfun.theory import (
    DegreeResult,
    FunctorInstance,
    ModificationKind,
    MonomorphicityError,
    empty_mod_max,
    modify,
)
from finfun.zoo import zoo_instance, zoo_names, zoo_source

# The most counterexamples a report lists.
CAP = 25

# Two constants, so that an equation can identify them over every
# inhabited set and F(∅→1) can fail to be injective.
SHAPES = (Shape("c", 0), Shape("d", 0), Shape("u", 1), Shape("p", 2))

# Raw twins is not monomorphic, so the support-based operations refuse
# it by design; wherever a test needs every monomorphic zoo functor, its
# repaired form twins° stands in for it.
MONO_ZOO = tuple(n for n in zoo_names() if n != "twins")


def mono_instances():
    """The zoo functors in ``MONO_ZOO``, then twins°."""
    return [zoo_instance(n) for n in MONO_ZOO] + \
        [empty_mod_max(zoo_instance("twins"))]


class Overridden(FunctorInstance):
    """Forwards to a base instance, overriding selected action tables."""

    def __init__(self, base, overrides):
        super().__init__(base.name + "!")
        self.base = base
        self.overrides = overrides

    @property
    def max_arity(self):
        return self.base.max_arity

    def elements(self, n):
        return self.base.elements(n)

    def action(self, x, y, table):
        key = (x, y, table)
        if key in self.overrides:
            return self.overrides[key]
        return self.base.action(x, y, table)


class Counting(Overridden):
    """An ``Overridden`` that counts its own ``action`` calls in ``calls``,
    keeps the largest domain or codomain they read in ``largest``, and
    whose ``proves_laws`` answers ``proof``."""

    def __init__(self, base, overrides=None, proof=False):
        super().__init__(base, overrides or {})
        self.proof = proof
        self.calls = 0
        self.largest = -1

    def action(self, x, y, table):
        self.calls += 1
        self.largest = max(self.largest, x, y)
        return super().action(x, y, table)

    def proves_laws(self, max_size):
        return self.proof


class OnePoint(FunctorInstance):
    """A base functor with one point e at the empty set, which every map
    out of it sends to the first element of its codomain."""

    def __init__(self, base):
        super().__init__(base.name + "+")
        self.base = base

    def elements(self, n):
        return ("e",) if n == 0 else self.base.elements(n)

    def action(self, x, y, table):
        return (0,) if x == 0 else self.base.action(x, y, table)


def fresh(pres, kind=None):
    """A new instance of ``pres``, a ``Presentation`` or a zoo name, with
    empty caches, modified by ``kind`` unless it is None or "plain"."""
    if isinstance(pres, str):
        pres = parse_presentation(zoo_source(pres))
    g = PresentationInstance(pres)
    return g if kind in (None, "plain") else modify(g, ModificationKind(kind))


def walked(pres, kind=None):
    """``fresh(pres, kind)`` behind a wrapper that proves nothing, so that
    every check walks the laws first."""
    return Overridden(fresh(pres, kind), {})


def zoo_bases(name):
    """Fresh instances of the zoo functor ``name``: its presentation, and
    its size-4 tabulation as loaded, which records the laws of its load
    walk."""
    return fresh(name), load_tabulated(export_tabulated(zoo_instance(name), 4))


def report_of(report):
    """A report without its time."""
    return report.name, report.scope, report.counterexamples, report.details


# ---------------------------------------------------------------------------
# The oracle.  Each check is written from its definition, as a walk over
# every map, pair of subsets or family, and reads F only through
# ``action`` and ``elements``, on raw tables, and ``max_arity`` for the
# exactness of a degree; nothing of ``finfun.theory`` is read.  It returns
# what the check reports of a lawful instance: a report without its time
# (``report_of``), a ``DegreeResult``, a skeleton's element indices, or
# the refusal text of ``require_monomorphic``.


def injective(table):
    """Whether a map with this table is injective."""
    return len(set(table)) == len(table)


def maps_up_to(max_size):
    """(x, y, table) for every map x -> y with x, y <= max_size, by x,
    then y, then in ``function_tables`` order."""
    sizes = range(max_size + 1)
    return ((x, y, t) for x in sizes for y in sizes
            for t in function_tables(x, y))


@functools.cache
def injections(max_size):
    """The injective maps of ``maps_up_to(max_size)``, in its order."""
    return tuple(key for key in maps_up_to(max_size) if injective(key[2]))


@functools.cache
def surjections(max_size):
    """The surjective maps of ``maps_up_to(max_size)``, in its order."""
    return tuple((x, y, t) for x, y, t in maps_up_to(max_size)
                 if len(set(t)) == y)


def subsets(n):
    """Every subset of n as a frozenset, by size and then by members."""
    return [frozenset(c) for k in range(n + 1)
            for c in itertools.combinations(range(n), k)]


def subset_repr(a):
    return "{" + ",".join(map(str, sorted(a))) + "}"


def images(g, n):
    """The image of F of the inclusion of each subset of n."""
    return {a: frozenset(g.action(len(a), n, tuple(sorted(a))))
            for a in subsets(n)}


def as_report(name, scope, found, details=""):
    """A report without its time that lists the first ``CAP`` of
    ``found``."""
    return name, scope, tuple(found[:CAP]), with_truncation(details, found)


def oracle_law_failures(action, sizes):
    """Every identity failure, then every composable pair (f, g) with
    F(g o f) != F(g) o F(f), in the order ``law_failures`` documents;
    ``action`` answers as ``FunctorInstance.action`` up to size
    len(sizes) - 1, where F(n) has sizes[n] elements."""
    out = []
    top = range(len(sizes))
    for n in top:
        key = (n, n, tuple(range(n)))
        if action(*key) != tuple(range(sizes[n])):
            out.append((key, None))
    hom = {(x, y): {t: action(x, y, t) for t in function_tables(x, y)}
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
                            out.append(((x, y, ft), (y, z, gt)))
    return out


def law_text(f, g):
    """How a report writes the failure (f, g) of the laws."""
    if g is None:
        return f"F(id_{f[0]}) is not the identity"
    return (f"F(g o f) != F(g) o F(f) for f={table_repr(*f)}, "
            f"g={table_repr(*g)}")


def laws_oracle(g, max_size):
    sizes = [g.size(n) for n in range(max_size + 1)]
    return as_report("laws", f"sizes <= {max_size}", [
        law_text(f, h) for f, h in oracle_law_failures(g.action, sizes)])


def collapses(g, max_size):
    """(f, a, b) for each injection f between sizes <= max_size whose
    image under F is not injective, in ``maps_up_to`` order: f as
    reports write it, a and b the first two elements F(f) sends to one
    place."""
    for x, y, t in injections(max_size):
        gf = g.action(x, y, t)
        if not injective(gf):
            i = next(i for i, v in enumerate(gf) if v in gf[:i])
            names = g.elements(x)
            yield table_repr(x, y, t), names[gf.index(gf[i])], names[i]


def not_monomorphic(f, a, b):
    """The refusal of a functor that collapses a and b along f."""
    return f"functor is not monomorphic: injective f={f} collapses {a} and {b}"


def require_monomorphic_oracle(g, max_size):
    first = next(collapses(g, max_size), None)
    return None if first is None else not_monomorphic(*first)


def mono_oracle(g, max_size):
    return as_report("mono", f"sizes <= {max_size}", [
        f"G(f) not injective for f={f}: collapses {a} and {b}"
        for f, a, b in collapses(g, max_size)])


def epi_oracle(g, max_size):
    found = []
    for x, y, t in surjections(max_size):
        missed = set(range(g.size(y))) - set(g.action(x, y, t))
        if missed:
            found.append(f"G(f) not surjective for f={table_repr(x, y, t)}: "
                         f"misses {g.elements(y)[min(missed)]}")
    return as_report("epi", f"sizes <= {max_size}", found)


def pair_failures(g, n):
    """(A, B, differ) for each ordered pair of subsets of n whose meet's
    image is not the intersection of their images, A outer and B inner
    in ``subsets`` order; ``differ`` holds the elements where the two
    differ."""
    image = images(g, n)
    for a in image:
        for b in image:
            differ = image[a & b] ^ (image[a] & image[b])
            if differ:
                yield a, b, differ


def intersections_oracle(g, max_size):
    found = []
    cases = {"nested": 0, "disjoint": 0, "overlapping": 0}
    for n in range(max_size + 1):
        for a in subsets(n):
            for b in subsets(n):
                if a <= b or b <= a:
                    cases["nested"] += 1
                elif not a & b:
                    cases["disjoint"] += 1
                else:
                    cases["overlapping"] += 1
        found += [f"X={n} A={subset_repr(a)} B={subset_repr(b)}: image of "
                  f"A&B differs from intersection at "
                  f"{g.elements(n)[min(differ)]}"
                  for a, b, differ in pair_failures(g, n)]
    details = ("pairwise check; arbitrary finite families reduce to pairs. "
               "case counts: "
               + ", ".join(f"{k}={v}" for k, v in cases.items()))
    return as_report("intersections", f"sizes <= {max_size}", found,
                     details)


def family_failures(g, n):
    """(element, text) for each failure of the family of an element of
    F(n), by element: a pair of members whose intersection is not one, a
    member with a superset that is not one, and an intersection of the
    family that is not a member."""
    image = images(g, n)
    for element, name in enumerate(g.elements(n)):
        family = [a for a in image if element in image[a]]
        members = set(family)
        for a in family:
            for b in family:
                if a & b not in members:
                    yield element, (f"X={n} {name}: family not closed under "
                                    f"{subset_repr(a)} & {subset_repr(b)}")
        for a in family:
            for b in image:
                if a <= b and b not in members:
                    yield element, (f"X={n} {name}: family not upward "
                                    f"closed at {subset_repr(a)} <= "
                                    f"{subset_repr(b)}")
        if frozenset(range(n)).intersection(*family) not in members:
            yield element, (f"X={n} {name}: intersection of the family is "
                            f"not a member")


def supports_oracle(g, max_size, seed=0):
    """The family of each element is closed under intersection, upward
    closed, and holds its own intersection; a functor that is not
    monomorphic is refused with the first injection ``collapses``
    finds."""
    scope = f"sizes <= {max_size}, seed {seed}"
    first = next(collapses(g, max_size), None)
    if first is not None:
        return as_report("supports", scope,
                         [f"refused: {not_monomorphic(*first)}"])
    return as_report("supports", scope, [
        text for n in range(max_size + 1) for _, text in family_failures(g, n)])


def skeleton_oracle(g, n, size):
    """The union of the images of F(f) over every map f from a set of
    size <= n into ``size``, as sorted element indices."""
    return tuple(sorted({v for m in range(n + 1)
                         for t in function_tables(m, size)
                         for v in g.action(m, size, t)}))


def degree_oracle(g, max_size):
    """The largest size of a smallest member of an element's family, over
    every element up to max_size, exact once max_size reaches
    ``max_arity``; a functor that is not monomorphic is refused as
    ``require_monomorphic_oracle`` refuses it."""
    refusal = require_monomorphic_oracle(g, max_size)
    if refusal:
        return refusal
    largest = 0
    for n in range(max_size + 1):
        image = images(g, n)
        for element in range(g.size(n)):
            largest = max(largest, min(len(a) for a in image
                                       if element in image[a]))
    return DegreeResult(largest,
                        g.max_arity is not None and max_size >= g.max_arity)


ORACLES = {
    "check_functor_laws": laws_oracle,
    "require_monomorphic": require_monomorphic_oracle,
    "check_monomorphic": mono_oracle,
    "check_epimorphic": epi_oracle,
    "check_intersections": intersections_oracle,
    "check_supports": supports_oracle,
    "degree": degree_oracle,
}


def assert_rules_match_walk(pres, kind, bounds, checks):
    """The gate of every check: at each bound, each of ``checks`` says of
    ``fresh(pres, kind)``, which proves its laws and so takes Trnková's
    rules, what its oracle (``ORACLES``) says of another fresh instance.
    A check says the report it returns, without its time, the
    ``DegreeResult`` of ``degree``, or the refusal it raises.  A proof of
    the laws is asked each time and never recorded on the instance."""
    g, h = fresh(pres, kind), fresh(pres, kind)

    def said(check, bound):
        try:
            result = check(g, bound)
        except (MonomorphicityError, ValueError) as err:
            return str(err)
        if result is None or isinstance(result, DegreeResult):
            return result
        return report_of(result)

    for bound in bounds:
        assert g.proves_laws(bound), (g.name, bound)
        for check in checks:
            assert said(check, bound) == ORACLES[check.__name__](h, bound), (
                g.name, check.__name__, bound)
        assert g._law_bound == -1, (g.name, bound)


def out_of_empty_failures(h, top):
    """Each map g: y -> z with 0 < y, z <= top, as (y, z, table), for
    which F(g) o F(0 -> y) != F(0 -> z): the lemma behind the laws of a
    modification, read on every map rather than the generating ones."""
    sizes = range(1, top + 1)
    return [(y, z, t) for y in sizes for z in sizes
            for t in function_tables(y, z)
            if tuple(h.action(y, z, t)[v] for v in h.action(0, y, ()))
            != h.action(0, z, ())]


@st.composite
def presentations(draw, shapes, variables, max_equations):
    """Random flat presentations: a non-empty selection of ``shapes`` and
    at most ``max_equations`` equations between terms whose arguments
    are letters of ``variables``."""
    chosen = tuple(s for s in shapes if draw(st.booleans())) or shapes[:1]
    terms = [FlatTerm(s.name, vs) for s in chosen
             for vs in itertools.product(variables, repeat=s.arity)]
    eqs = tuple(Equation(draw(st.sampled_from(terms)),
                         draw(st.sampled_from(terms)))
                for _ in range(draw(st.integers(0, max_equations))))
    return Presentation("random", chosen, eqs)


def with_truncation(details, found):
    """The ``details`` of a report that lists the first ``CAP`` of
    ``found``: the given text, then the truncation note when the cap
    bites."""
    note = (f"counterexamples truncated ({len(found)} found)"
            if len(found) > CAP else "")
    return f"{details}; {note}" if details and note else details or note
