"""The one copy of each helper that several test modules share:
instances built fresh, wrapped (``Overridden``, ``Counting``, ``walked``)
or given a point at the empty set; the gate that holds every fast path
to the walk (``assert_rules_match_walk``); random flat presentations;
and the small oracles that several modules read.

The test modules import it as ``helpers``; ``pyproject.toml`` puts
``tests/`` on ``sys.path`` in every pytest import mode.
"""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from finfun.finset import function_tables
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
    CheckReport,
    FunctorInstance,
    ModificationKind,
    MonomorphicityError,
    check_functor_laws,
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
    and whose ``proves_laws`` answers ``proof``."""

    def __init__(self, base, overrides=None, proof=False):
        super().__init__(base, overrides or {})
        self.proof = proof
        self.calls = 0

    def action(self, x, y, table):
        self.calls += 1
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
    every check takes its walk."""
    return Overridden(fresh(pres, kind), {})


def zoo_bases(name):
    """Fresh instances of the zoo functor ``name``: its presentation, and
    its size-4 tabulation as loaded, which records the laws of its load
    walk."""
    return fresh(name), load_tabulated(export_tabulated(zoo_instance(name), 4))


def report_of(report):
    """A report without its time."""
    return report.name, report.scope, report.counterexamples, report.details


def assert_rules_match_walk(pres, kind, bounds, checks):
    """The gate of every fast path: at each bound, each of ``checks`` says
    the same of ``fresh(pres, kind)``, which proves its laws and so takes
    the fast paths, as of ``walked(pres, kind)``, which takes every walk.
    A check says what it returns, a report without its time, or the
    refusal it raises.  The laws must pass; they are walked on a wrapper
    of their own, since a passing walk records the laws on its wrapper
    and the other checks would then take the rules."""
    g = fresh(pres, kind)
    walk, laws_walk = walked(pres, kind), walked(pres, kind)

    def said(check, h, bound):
        try:
            result = check(h, bound)
        except MonomorphicityError as err:
            return str(err)
        return report_of(result) if isinstance(result, CheckReport) else result

    for bound in bounds:
        assert g.proves_laws(bound), (g.name, bound)
        assert not walk.proves_laws(bound)
        for check in checks:
            other = laws_walk if check is check_functor_laws else walk
            assert said(check, g, bound) == said(check, other, bound), (
                g.name, check.__name__, bound)
        if check_functor_laws in checks:
            assert check_functor_laws(g, bound).passed, (g.name, bound)
        assert g._law_bound == bound and walk._law_bound == -1, (g.name, bound)


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
