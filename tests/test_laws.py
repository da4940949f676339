"""The functor-law check against an exhaustive oracle.

``law_failures`` decides lawfulness from the generating maps and walks
every composable pair only to list the failures.  The oracle below is
that pair walk on its own, so the verdicts, the reports and the load
errors must come out identical on lawful tables, on tables broken in
one entry, and on tables broken on a whole family of maps.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finfun.finset import (
    FiniteFunction,
    FiniteSet,
    function_tables,
    table_repr,
)
from finfun.presentation import (
    Equation,
    FlatTerm,
    Presentation,
    PresentationInstance,
    Shape,
)
from finfun.tabulated import FunctorLawError, export_tabulated, load_tabulated
from finfun.theory import (
    FunctorInstance,
    _elementary_maps,
    check_functor_laws,
    law_failures,
    maps_up_to,
)
from finfun.zoo import zoo_instance

CAP = 25


def oracle_law_failures(action, sizes):
    """Every identity failure, then every composable pair (f, g) with
    F(g o f) != F(g) o F(f), in the order ``law_failures`` documents."""
    out = []
    top = range(len(sizes))
    for n in top:
        key = (n, n, tuple(range(n)))
        if action[key] != tuple(range(sizes[n])):
            out.append((key, None))
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
                            out.append(((x, y, ft), (y, z, gt)))
    return out


def oracle_report(failures):
    """The counterexamples and details ``check_functor_laws`` reports."""
    texts = [f"F(id_{f[0]}) is not the identity" if g is None else
             f"F(g o f) != F(g) o F(f) for f={table_repr(*f)}, "
             f"g={table_repr(*g)}" for f, g in failures]
    details = (f"counterexamples truncated ({len(texts)} found)"
               if len(texts) > CAP else "")
    return tuple(texts[:CAP]), details


def oracle_load_error(failures):
    """The message of the ``FunctorLawError`` a load raises, or None."""
    if not failures:
        return None
    f, g = failures[0]
    if g is None:
        return f"F({table_repr(*f)}) is not the identity on F({f[0]})"
    return (f"composition mismatch for f={table_repr(*f)} and "
            f"g={table_repr(*g)}")


class Overridden(FunctorInstance):
    """A base instance with some action tables replaced."""

    def __init__(self, base, overrides):
        super().__init__(base.name + "!")
        self.base = base
        self.overrides = overrides

    def elements(self, n):
        return self.base.elements(n)

    def map(self, f):
        key = (f.dom.size, f.cod.size, f.table)
        if key in self.overrides:
            return FiniteFunction(FiniteSet(self.base.size(f.dom.size)),
                                  FiniteSet(self.base.size(f.cod.size)),
                                  self.overrides[key])
        return self.base.map(f)


def action_of(g, max_size):
    action = {(f.dom.size, f.cod.size, f.table): g.map(f).table
              for f in maps_up_to(max_size)}
    return action, [g.size(n) for n in range(max_size + 1)]


def assert_agrees_with_oracle(g, max_size):
    """law_failures, check_functor_laws and load_tabulated all match the
    oracle on g; returns the oracle's failures."""
    action, sizes = action_of(g, max_size)
    expected = oracle_law_failures(action, sizes)
    assert list(law_failures(action, sizes)) == expected
    report = check_functor_laws(g, max_size)
    assert (report.counterexamples, report.details) == oracle_report(expected)
    text = export_tabulated(g, max_size)
    message = oracle_load_error(expected)
    if message is None:
        load_tabulated(text)
    else:
        with pytest.raises(FunctorLawError) as err:
            load_tabulated(text)
        assert str(err.value) == message
    return expected


# ---------------------------------------------------------------------------
# The generating maps.


@pytest.mark.parametrize("top", [0, 1, 2, 3])
def test_elementary_maps_generate_every_map(top):
    # Closing the identities under composition with the elementary maps
    # reaches every map between sizes <= top.
    reached = {(n, n, tuple(range(n))) for n in range(top + 1)}
    frontier = list(reached)
    while frontier:
        x, y, ft = frontier.pop()
        for z, st_ in _elementary_maps(y, top):
            key = (x, z, tuple(st_[i] for i in ft))
            if key not in reached:
                reached.add(key)
                frontier.append(key)
    assert reached == {(f.dom.size, f.cod.size, f.table)
                       for f in maps_up_to(top)}


def test_elementary_maps_of_three():
    assert list(_elementary_maps(3, 4)) == [
        (3, (1, 0, 2)), (3, (0, 2, 1)), (2, (0, 1, 1)), (4, (0, 1, 2))]
    assert list(_elementary_maps(0, 0)) == []
    assert list(_elementary_maps(1, 1)) == []


# ---------------------------------------------------------------------------
# Random lawful presentations, their tabulations, and one-entry breakages.

_SHAPES = (Shape("c", 0), Shape("u", 1), Shape("p", 2))


@st.composite
def presentations(draw):
    shapes = tuple(s for s in _SHAPES if draw(st.booleans())) or _SHAPES[:1]
    terms = [FlatTerm(s.name, vs) for s in shapes
             for vs in itertools.product("ab", repeat=s.arity)]
    eqs = tuple(Equation(draw(st.sampled_from(terms)),
                         draw(st.sampled_from(terms)))
                for _ in range(draw(st.integers(0, 2))))
    return Presentation("random", shapes, eqs)


def corrupt(draw, g, max_size):
    """g with one entry of one action table changed, or None when no
    table has an entry that could take another value."""
    keys = [(f.dom.size, f.cod.size, f.table) for f in maps_up_to(max_size)
            if g.size(f.dom.size) and g.size(f.cod.size) > 1]
    if not keys:
        return None
    x, y, t = key = draw(st.sampled_from(keys))
    table = list(g.map(FiniteFunction(FiniteSet(x), FiniteSet(y), t)).table)
    i = draw(st.integers(0, len(table) - 1))
    table[i] = (table[i] + draw(st.integers(1, g.size(y) - 1))) % g.size(y)
    return Overridden(g, {key: tuple(table)})


@settings(max_examples=25, deadline=None)
@given(presentations(), st.integers(0, 4), st.booleans(), st.booleans(),
       st.data())
def test_law_check_matches_the_pair_oracle(pres, max_size, tabulate, broken,
                                           data):
    g = PresentationInstance(pres)
    if tabulate:
        g = load_tabulated(export_tabulated(g, max_size))
    if broken:
        g = corrupt(data.draw, g, max_size) or g
    expected = assert_agrees_with_oracle(g, max_size)
    if not broken:
        assert expected == []


# ---------------------------------------------------------------------------
# Deterministic breakages.  A non-empty oracle list means that the check
# reports them and the load refuses them, with the oracle's texts.


@pytest.mark.parametrize("dom, cod, table", [
    (3, 3, (1, 2, 0)),  # a 3-cycle, not an adjacent transposition
    (3, 2, (0, 1, 1)),  # a merge
    (2, 3, (0, 1)),     # an inclusion
])
def test_power2_broken_on_one_map(dom, cod, table):
    g = zoo_instance("power2")
    image = list(g.map(FiniteFunction(FiniteSet(dom), FiniteSet(cod),
                                      table)).table)
    image[0], image[1] = image[1], image[0]
    broken = Overridden(g, {(dom, cod, table): tuple(image)})
    assert assert_agrees_with_oracle(broken, 3)


@pytest.mark.parametrize("broken", [
    # Every non-injective map swaps the two points: each F(s o f) =
    # F(s) o F(f) with s injective holds, so only the merges (or two
    # non-injective maps in a row) expose it.
    lambda f: (1, 0) if len(set(f.table)) < f.dom.size else None,
    # Every map, identities included, is constant: composition holds
    # throughout and only F(id) = id fails.
    lambda f: (0, 0),
])
def test_const2_broken_on_a_family_of_maps(broken):
    g = zoo_instance("const2")
    overrides = {(f.dom.size, f.cod.size, f.table): broken(f)
                 for f in maps_up_to(3) if broken(f)}
    assert assert_agrees_with_oracle(Overridden(g, overrides), 3)


# ---------------------------------------------------------------------------
# Size 5, which the pair walk takes about a minute over.


def test_laws_pass_at_size_5():
    report = check_functor_laws(zoo_instance("upair"), 5)
    assert report.passed
    assert report.scope == "sizes <= 5"


def test_size_5_export_loads():
    text = export_tabulated(zoo_instance("upair"), 5)
    t = load_tabulated(text, name="upair5")
    assert t.max_size == 5
    assert t.size(5) == 15
