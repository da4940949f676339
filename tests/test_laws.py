"""The functor-law check against an exhaustive oracle.

``law_failures`` decides lawfulness from the generating maps and walks
every composable pair only to list the failures.  The oracle,
``helpers.oracle_law_failures``, is that pair walk on its own, so the
verdicts, the reports and the load errors must come out identical on
lawful tables, on tables broken in one entry, and on tables broken on a
whole family of maps.  ``check_functor_laws`` reads no map of a
presentation instead: its laws hold by construction (``proves_laws``).
The last tests hold that verdict to the oracle through the shared gate,
``helpers.assert_rules_match_walk``, and to ``law_failures`` at the
sizes where the pair walk takes seconds, and make sure that the walk
runs wherever the proof does not apply and that the walk, over a
``walked`` instance, alone catches a broken ``evaluate_object``.
"""

from __future__ import annotations

import dataclasses
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    CAP,
    SHAPES,
    Counting,
    OnePoint,
    Overridden,
    assert_rules_match_walk,
    fresh,
    law_text,
    oracle_law_failures,
    presentations,
    walked,
    with_truncation,
)

from finfun import presentation
from finfun.finset import (
    FiniteFunction,
    FiniteSet,
    table_repr,
)
from finfun.presentation import (
    PresentationInstance,
    Shape,
    parse_presentation,
)
from finfun.tabulated import TabulatedError, export_tabulated, load_tabulated
from finfun.theory import (
    EmptyModified,
    ModificationKind,
    _elementary_maps,
    check_functor_laws,
    empty_mod_max,
    law_failures,
    run_standard_checks,
    tables_up_to,
)
from finfun.zoo import zoo_instance, zoo_names, zoo_source


def oracle_report(failures):
    """The counterexamples and details ``check_functor_laws`` reports."""
    texts = [law_text(f, g) for f, g in failures]
    return tuple(texts[:CAP]), with_truncation("", texts)


def oracle_load_error(failures):
    """The message of the ``TabulatedError`` a load raises, or None."""
    if not failures:
        return None
    f, g = failures[0]
    if g is None:
        return f"F({table_repr(*f)}) is not the identity on F({f[0]})"
    return (f"composition mismatch for f={table_repr(*f)} and "
            f"g={table_repr(*g)}")


def action_of(g, max_size):
    """F up to max_size as a lookup of its tables, and the sizes of F."""
    action = {(x, y, t): g.map(FiniteFunction(FiniteSet(x), FiniteSet(y),
                                              t)).table
              for x, y, t in tables_up_to(max_size)}
    return (lambda *key: action[key],
            [g.size(n) for n in range(max_size + 1)])


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
        with pytest.raises(TabulatedError) as err:
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
        for z in range(top + 1):
            for st_ in _elementary_maps(y, z):
                key = (x, z, tuple(st_[i] for i in ft))
                if key not in reached:
                    reached.add(key)
                    frontier.append(key)
    assert reached == set(tables_up_to(top))


def test_elementary_maps_of_three():
    assert _elementary_maps(3, 3) == [(1, 0, 2), (1, 2, 0)]
    assert _elementary_maps(3, 2) == [(0, 1, 1)]
    assert _elementary_maps(3, 4) == [(0, 1, 2)]
    assert _elementary_maps(0, 0) == _elementary_maps(1, 1) == []


def generators_by_codomain(y, top):
    """(codomain size, table) of each generating map out of y within sizes
    <= top, listed independently of ``_elementary_maps``: the
    transposition and, for y >= 3, the cycle; the merge; the inclusion."""
    if y >= 2:
        yield y, (1, 0) + tuple(range(2, y))
        if y >= 3:
            yield y, tuple(range(1, y)) + (0,)
        yield y - 1, tuple(range(y - 1)) + (y - 2,)
    if y < top:
        yield y + 1, tuple(range(y))


@pytest.mark.parametrize("top", range(8))
def test_elementary_maps_match_the_generators_by_codomain(top):
    for y in range(top + 1):
        for z in range(top + 1):
            assert _elementary_maps(y, z) == [
                t for c, t in generators_by_codomain(y, top) if c == z], (y, z)


# ---------------------------------------------------------------------------
# Random lawful presentations, their tabulations, and one-entry breakages.

_SHAPES = (Shape("c", 0), Shape("u", 1), Shape("p", 2))


def corrupt(draw, g, max_size):
    """g with one entry of one action table changed, or None when no
    table has an entry that could take another value."""
    keys = [(x, y, t) for x, y, t in tables_up_to(max_size)
            if g.size(x) and g.size(y) > 1]
    if not keys:
        return None
    x, y, t = key = draw(st.sampled_from(keys))
    table = list(g.map(FiniteFunction(FiniteSet(x), FiniteSet(y), t)).table)
    i = draw(st.integers(0, len(table) - 1))
    table[i] = (table[i] + draw(st.integers(1, g.size(y) - 1))) % g.size(y)
    return Overridden(g, {key: tuple(table)})


@settings(max_examples=25, deadline=None)
@given(presentations(_SHAPES, "ab", 2), st.integers(0, 4), st.booleans(),
       st.booleans(), st.data())
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


def relabel(draw, text):
    """The tabulation ``text`` with each F(n)'s elements permuted and
    renamed, consistently in the object lists and every action."""
    data = json.loads(text)
    renames = {}
    for n, names in data["objects"].items():
        order = draw(st.permutations(names))
        renames[n] = {old: f"e{n}.{j}" for j, old in enumerate(order)}
        data["objects"][n] = [renames[n][old] for old in order]
    for rec in data["morphisms"]:
        dom, cod = renames[str(rec["dom"])], renames[str(rec["cod"])]
        rec["action"] = {dom[s]: cod[t] for s, t in rec["action"].items()}
    return json.dumps(data)


@settings(max_examples=25, deadline=None)
@given(presentations(_SHAPES, "ab", 2), st.integers(0, 3), st.data())
def test_relabelled_tabulations(pres, max_size, data):
    # A tabulation that no export wrote: the same functor up to
    # isomorphism, with other element indices and names.
    g = PresentationInstance(pres)
    loaded = load_tabulated(relabel(data.draw, export_tabulated(g, max_size)))

    def verdicts(h):
        return [(r.name, r.passed)
                for r in run_standard_checks(h, max_size, skip=("laws",))]

    assert verdicts(loaded) == verdicts(g)
    sizes = [loaded.size(n) for n in range(max_size + 1)]
    assert check_functor_laws(loaded, max_size).passed
    assert list(law_failures(lambda *key: loaded.morphisms[key],
                             sizes)) == []
    broken = corrupt(data.draw, loaded, max_size)
    if broken is not None:
        assert_agrees_with_oracle(broken, max_size)


# ---------------------------------------------------------------------------
# A loaded tabulation records its law walk; wrappers around it do not.


def test_loaded_tabulation_laws_are_not_walked_again(monkeypatch):
    loaded = load_tabulated(export_tabulated(zoo_instance("upair"), 3))
    calls = []

    def counted(*key):
        calls.append(key)
        return type(loaded).action(loaded, *key)

    monkeypatch.setattr(loaded, "action", counted)
    report = check_functor_laws(loaded, 3)
    assert calls == []
    expected = check_functor_laws(zoo_instance("upair"), 3)
    assert ((report.name, report.scope, report.counterexamples,
             report.details) == (expected.name, expected.scope,
                                 expected.counterexamples, expected.details))

    key = (1, 2, (0,))
    image = list(loaded.action(*key))
    image[0] = (image[0] + 1) % loaded.size(2)
    # The broken table is walked; a modification's laws are its base's,
    # so its check reads no map.
    broken = Overridden(loaded, {key: tuple(image)})
    for g in (broken, empty_mod_max(loaded)):
        calls.clear()
        report = check_functor_laws(g, 3)
        assert bool(calls) == (g is broken)
        failures = oracle_law_failures(*action_of(g, 3))
        assert (report.counterexamples, report.details) == oracle_report(
            failures)


# ---------------------------------------------------------------------------
# Deterministic breakages.  A non-empty oracle list means that the check
# reports them and the load refuses them, with the oracle's texts.


def power2_broken_at(dom, cod, table):
    """power2 with the first two entries of F on one map swapped, or its
    one entry moved to the next element of F(cod) when F(dom) has one."""
    g = zoo_instance("power2")
    image = list(g.map(FiniteFunction(FiniteSet(dom), FiniteSet(cod),
                                      table)).table)
    if len(image) == 1:
        image[0] = (image[0] + 1) % g.size(cod)
    else:
        image[0], image[1] = image[1], image[0]
    return Overridden(g, {(dom, cod, table): tuple(image)})


@pytest.mark.parametrize("dom, cod, table", [
    (3, 3, (1, 2, 0)),  # a 3-cycle, not an adjacent transposition
    (3, 2, (0, 1, 1)),  # a merge
    (2, 3, (0, 1)),     # an inclusion
    (3, 2, (0, 1, 0)),  # not a generating map
    (1, 2, (1,)),       # F(1) has one element: a one-entry table
])
def test_power2_broken_on_one_map(dom, cod, table):
    assert assert_agrees_with_oracle(power2_broken_at(dom, cod, table), 3)


@pytest.mark.parametrize("broken", [
    # Every non-injective map swaps the two points: each F(s o f) =
    # F(s) o F(f) with s injective holds, so only the merges (or two
    # non-injective maps in a row) expose it.
    lambda x, y, t: (1, 0) if len(set(t)) < x else None,
    # Every map, identities included, is constant: composition holds
    # throughout and only F(id) = id fails.
    lambda x, y, t: (0, 0),
])
def test_const2_broken_on_a_family_of_maps(broken):
    g = zoo_instance("const2")
    overrides = {key: broken(*key) for key in tables_up_to(3)
                 if broken(*key)}
    assert assert_agrees_with_oracle(Overridden(g, overrides), 3)


def test_a_failing_law_check_walks_once():
    # upair's F((1): 1 -> 3) corrupted.  The walk that finds the first
    # failure goes on to list the rest, so the check reads F exactly as
    # often as one full law_failures walk over a twin instance.
    names = fresh("upair").elements(3)
    broken = {(1, 3, (1,)): (names.index("p(1,2)"),)}
    g = Counting(fresh("upair"), broken)
    twin = Counting(fresh("upair"), broken)
    report = check_functor_laws(g, 4)
    failures = list(law_failures(twin.action,
                                 [twin.size(n) for n in range(5)]))
    assert (report.counterexamples, report.details) == oracle_report(failures)
    assert failures
    assert g.calls == twin.calls


# ---------------------------------------------------------------------------
# law_failures reads F only within its bound.


def bounded_lookup(g, top):
    """F of g as a lookup that answers the maps between sizes <= top and
    fails on any other; a presentation's own ``action`` answers any size."""
    tables = {key: g.action(*key) for key in tables_up_to(top)}

    def lookup(*key):
        assert key in tables, f"read beyond size {top}: {table_repr(*key)}"
        return tables[key]
    return lookup


@pytest.mark.parametrize("g", [zoo_instance(name) for name in zoo_names()]
                         + [power2_broken_at(3, 2, (0, 1, 1))],
                         ids=lambda g: g.name)
def test_law_walk_reads_only_maps_within_its_bound(g):
    top = 3
    sizes = [g.size(n) for n in range(top + 1)]
    expected = oracle_law_failures(*action_of(g, top))
    assert list(law_failures(bounded_lookup(g, top), sizes)) == expected
    assert bool(expected) == g.name.endswith("!")


# ---------------------------------------------------------------------------
# Size 5, which the pair walk takes about a minute over.


def test_laws_pass_at_size_5():
    report = check_functor_laws(zoo_instance("upair"), 5)
    assert report.passed
    assert report.scope == "sizes <= 5"


def test_laws_keep_no_second_table():
    # The walk reads F through a fresh instance's cache, which it leaves
    # filled; a second table of F would raise its peak well above that.
    # The wrapper has no proof of its own, so the walk runs.
    g = walked("upair")
    tracemalloc.start()
    try:
        assert check_functor_laws(g, 5).passed
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * kept, (peak, kept)


def test_size_5_export_loads():
    text = export_tabulated(zoo_instance("upair"), 5)
    t = load_tabulated(text, name="upair5")
    assert t.max_size == 5
    assert t.size(5) == 15


# ---------------------------------------------------------------------------
# A presentation's laws hold by construction (``proves_laws``), so no
# map is read; the walk runs where that proof does not apply, and only
# the walk sees an ``evaluate_object`` that builds no congruence.


def walk_report(g, top):
    """The counterexamples and details of the walk over g up to top."""
    sizes = [g.size(n) for n in range(top + 1)]
    return oracle_report(list(law_failures(g.action, sizes)))


def assert_congruence_holds(pres, kind, oracle_top, walk_top):
    """The laws of ``fresh(pres, kind)``, which its construction proves,
    match the pair oracle up to ``oracle_top`` through the gate, and
    ``law_failures`` finds none broken up to ``walk_top``: the pair walk
    takes about 0.3 s per instance at size 4 and a minute at 5."""
    assert_rules_match_walk(pres, kind, range(oracle_top + 1),
                            [check_functor_laws])
    g = fresh(pres, kind)
    sizes = [g.size(n) for n in range(walk_top + 1)]
    assert list(law_failures(g.action, sizes)) == [], (g.name, walk_top)


@pytest.mark.parametrize("kind", [None, "min", "max"])
@pytest.mark.parametrize("name", zoo_names())
def test_congruence_and_walk_agree_on_the_zoo(name, kind):
    assert_congruence_holds(name, kind, 3, 5)


@settings(max_examples=25, deadline=None)
@given(presentations(SHAPES, "ab", 2), st.sampled_from([None, "min", "max"]))
def test_congruence_and_walk_agree_on_random_presentations(pres, kind):
    assert_congruence_holds(pres, kind, 3, 4)


def actions_read(pres, kind, top):
    """The maps that ``check_functor_laws`` reads of a fresh instance of
    ``pres`` up to ``top``, which must pass; a modification's reads of
    its base count too.  ``action`` is patched on the instances
    themselves: a ``Counting`` base would be an ``Overridden``, which
    proves nothing, so the modification would walk."""
    g = fresh(pres, kind)
    calls = []
    for h in {g, getattr(g, "base", g)}:
        def counted(*key, h=h):
            calls.append(key)
            return type(h).action(h, *key)
        h.action = counted
    assert check_functor_laws(g, top).passed
    return calls


@pytest.mark.parametrize("kind", [None, "min", "max"])
@pytest.mark.parametrize("name", zoo_names())
def test_a_presentation_reads_no_map_for_its_laws(name, kind):
    for top in range(6):
        assert actions_read(name, kind, top) == [], (name, kind, top)


@settings(max_examples=25, deadline=None)
@given(presentations(SHAPES, "ab", 2), st.sampled_from([None, "min", "max"]),
       st.integers(0, 4))
def test_a_random_presentation_reads_no_map_for_its_laws(pres, kind, top):
    assert actions_read(pres, kind, top) == []


def skip_union(monkeypatch, name, size, left, right):
    """Make ``evaluate_object`` skip the union of raw terms ``left`` and
    ``right``, one instance of one equation, when it evaluates the
    presentation ``name`` at ``size``; every other value is unchanged."""
    real = presentation.evaluate_object

    class Skipping(presentation._UnionFind):
        def union(self, i, j):
            if (i, j) != (left, right):
                super().union(i, j)

    def mutant(pres, n):
        if (pres.name, n) != (name, size):
            return real(pres, n)
        with monkeypatch.context() as m:
            m.setattr(presentation, "_UnionFind", Skipping)
            return real(pres, n)

    monkeypatch.setattr(presentation, "evaluate_object", mutant)


def test_a_congruence_missing_one_equation_instance_is_walked(monkeypatch):
    # exp2 at size 2 without s2(1,1) = s1(1), the instance a = 1 of
    # s2(a,a) = s1(a): raw terms s1(0), s1(1), then s2(0,0) ... s2(1,1).
    # The proof trusts the construction, so the walk over a wrapper with
    # no proof is what sees the broken one.
    skip_union(monkeypatch, "exp2", 2, 5, 1)
    assert fresh("exp2").size(2) == 4
    report = check_functor_laws(walked("exp2"), 3)
    assert (report.counterexamples, report.details) == walk_report(
        fresh("exp2"), 3)
    assert report.details == "counterexamples truncated (134 found)"
    assert_agrees_with_oracle(walked("exp2"), 3)


def with_a_stray_class(obj):
    """The identity functor's value ``obj`` at size 1 with a second class
    whose representative is x(0) again, so that no raw term lies in it:
    F(id_1) sends it to x(0)."""
    (shape_idx, arity, reps), = obj.rep_groups
    return dataclasses.replace(obj, names=obj.names + ("x(0)*",),
                               rep_groups=((shape_idx, arity, reps + reps),))


def test_a_class_its_representative_is_not_in_is_walked(monkeypatch):
    # The identity functor with a stray class at size 1; only the walk
    # over a wrapper with no proof sees it.
    real = presentation.evaluate_object

    def mutant(pres, n):
        obj = real(pres, n)
        return with_a_stray_class(obj) if n == 1 else obj

    monkeypatch.setattr(presentation, "evaluate_object", mutant)
    report = check_functor_laws(walked("identity"), 2)
    assert report.counterexamples[0] == "F(id_1) is not the identity"
    assert (report.counterexamples, report.details) == walk_report(
        fresh("identity"), 2)


def test_a_subclass_that_overrides_object_is_walked():
    class StrayClass(PresentationInstance):
        def object(self, n):
            obj = super().object(n)
            return with_a_stray_class(obj) if n == 1 else obj

    pres = parse_presentation(zoo_source("identity"))
    g = StrayClass(pres)
    assert not g.proves_laws(2)
    assert check_functor_laws(g, 2).counterexamples[0] == \
        "F(id_1) is not the identity"
    assert assert_agrees_with_oracle(StrayClass(pres), 2)


def power2_rewired(cls, *args):
    """An instance of ``cls`` whose own ``action`` reads power2 broken at
    the map (0,1,0): 3 -> 2, which is not a generating map, on every
    non-empty domain."""
    broken = power2_broken_at(3, 2, (0, 1, 0))

    class Rewired(cls):
        def action(self, x, y, table):
            if x == 0:
                return super().action(x, y, table)
            return broken.action(x, y, table)

    return Rewired(*args)


@pytest.mark.parametrize("g", [
    power2_rewired(PresentationInstance,
                   parse_presentation(zoo_source("power2"))),
    power2_rewired(EmptyModified, zoo_instance("power2"),
                   ModificationKind.MINIMAL),
], ids=["presentation", "modification"])
def test_a_subclass_that_overrides_action_is_walked(g):
    assert not g.proves_laws(3)
    assert assert_agrees_with_oracle(g, 3)


def test_a_modification_beyond_the_equalizer_is_walked():
    # The identity functor with a point at the empty set: the two
    # constants 1 -> 2 send it to different places.  ``EmptyModified``
    # admits no such value, so a probe outside it stands in.
    g = OnePoint(zoo_instance("identity"))
    assert not g.proves_laws(2)
    assert assert_agrees_with_oracle(g, 3)
