"""Helpers that several test modules share: an instance with some action
tables replaced, a base with one point added at the empty set, random
flat presentations, the monomorphic zoo instances, fresh zoo bases, the
maps out of the empty set that a modification fails to factor, and the
truncation note of a capped report.

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
from finfun.theory import FunctorInstance, empty_mod_max
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


def zoo_bases(name):
    """Fresh instances of the zoo functor ``name``: its presentation, and
    its size-4 tabulation as loaded, which records the laws of its load
    walk."""
    fresh = PresentationInstance(parse_presentation(zoo_source(name)))
    return fresh, load_tabulated(export_tabulated(zoo_instance(name), 4))


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
