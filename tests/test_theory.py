"""Modifications, supports, degree and the exhaustive checkers."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import itertools
import random
import re
import sys
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    MONO_ZOO,
    SHAPES,
    Counting,
    Overridden,
    assert_rules_match_walk,
    epi_oracle,
    fresh,
    injective,
    intersections_oracle,
    law_text,
    mono_instances,
    mono_oracle,
    out_of_empty_failures,
    presentations,
    report_of,
    skeleton_oracle,
    supports_oracle,
    walked,
    zoo_bases,
)

from finfun import theory
from finfun.finset import (
    FiniteFunction,
    FiniteSet,
    SubsetMask,
    enumerate_functions,
    enumerate_subsets,
    inclusion,
    is_surjective,
)
from finfun.tabulated import (
    TabulatedInstance,
    export_tabulated,
    load_tabulated,
)
from finfun.theory import (
    STANDARD_CHECKS,
    DegreeResult,
    EmptyModified,
    ModificationKind,
    MonomorphicityError,
    SizeBoundError,
    UnknownElementError,
    check_epimorphic,
    check_functor_laws,
    check_intersections,
    check_monomorphic,
    check_supports,
    degree,
    empty_mod_max,
    empty_mod_min,
    epi_witness,
    image_of_inclusion,
    law_failures,
    modify,
    require_monomorphic,
    run_standard_checks,
    skeleton,
    support,
    tables_up_to,
)
from finfun.zoo import zoo_instance, zoo_names

# ---------------------------------------------------------------------------
# Modifications at the empty set.


def test_empty_value_sizes():
    expected_max = {"identity": 0, "const2": 2, "power2": 0, "power3": 0,
                    "upair": 0, "exp2": 0, "pointed": 1, "twins": 1}
    for name in zoo_names():
        g = zoo_instance(name)
        assert empty_mod_max(g).size(0) == expected_max[name], name
        assert empty_mod_min(g).size(0) == 0, name


def test_twins_headline_numbers():
    tw = zoo_instance("twins")
    assert tw.size(0) == 2
    assert empty_mod_min(tw).size(0) == 0
    assert empty_mod_max(tw).size(0) == 1
    assert empty_mod_max(tw).elements(0) == ("c",)


def test_max_modification_is_the_equalizer_of_the_two_injections():
    # Membership computed independently: a in F1 survives iff the two
    # point inclusions 1 -> 2 agree on it.
    for name in zoo_names():
        g = zoo_instance(name)
        f0 = FiniteFunction(FiniteSet(1), FiniteSet(2), (0,))
        f1 = FiniteFunction(FiniteSet(1), FiniteSet(2), (1,))
        t0, t1 = g.map(f0).table, g.map(f1).table
        keep = tuple(g.elements(1)[i] for i in range(g.size(1))
                     if t0[i] == t1[i])
        assert empty_mod_max(g).elements(0) == keep, name


def test_pointed_keeps_only_the_basepoint():
    assert empty_mod_max(zoo_instance("pointed")).elements(0) == ("base",)


def test_modified_names_and_kinds():
    tw = zoo_instance("twins")
    assert empty_mod_max(tw).name == "twins°"
    assert empty_mod_min(tw).name == "twins∘"
    for kind in ModificationKind:
        modified = modify(tw, kind)
        assert isinstance(modified, EmptyModified) and modified.kind is kind
        assert modified.name == "twins" + kind.symbol
    assert ModificationKind("max") is ModificationKind.MAXIMAL
    assert ModificationKind("min") is ModificationKind.MINIMAL


def test_modification_agrees_away_from_empty():
    for name in zoo_names():
        g = zoo_instance(name)
        for h in (empty_mod_max(g), empty_mod_min(g)):
            for n in range(1, 4):
                assert h.elements(n) == g.elements(n)
            for x in range(1, 4):
                for y in range(1, 4):
                    for f in enumerate_functions(FiniteSet(x), FiniteSet(y)):
                        assert h.map(f).table == g.map(f).table


def test_modifying_a_modification_flattens():
    tw = zoo_instance("twins")
    again = empty_mod_max(empty_mod_max(tw))
    assert again.name == "twins°"
    assert again.elements(0) == ("c",)
    swapped = empty_mod_min(empty_mod_max(tw))
    assert swapped.name == "twins∘"
    assert swapped.size(0) == 0


def test_modified_functors_satisfy_the_laws():
    for name in zoo_names():
        g = zoo_instance(name)
        for h in (empty_mod_max(g), empty_mod_min(g)):
            report = check_functor_laws(h, 3)
            assert report.passed, (h.name, report.counterexamples[:2])


def test_empty_to_empty_is_identity():
    h = empty_mod_max(zoo_instance("const2"))
    f = FiniteFunction(FiniteSet(0), FiniteSet(0), ())
    assert h.map(f).table == (0, 1)
    hmin = empty_mod_min(zoo_instance("const2"))
    assert hmin.map(f).table == ()


@pytest.mark.parametrize("kind", list(ModificationKind))
def test_a_table_out_of_the_empty_set_that_is_not_a_map_is_refused(kind):
    h = modify(zoo_instance("twins"), kind)
    for y in (0, 2):
        with pytest.raises(ValueError) as err:
            h.action(0, y, (7,))
        assert str(err.value) == "table has 1 entries for a domain of size 0"


def test_empty_morphism_choice_independent():
    # F°(∅→Y) is F(c) restricted to the equalizer for the constant c = 0;
    # every other constant c: 1 -> Y must restrict to the same table.
    twins = load_tabulated(export_tabulated(zoo_instance("twins"), 4),
                           name="twins-tabulated")
    for g in [zoo_instance(name) for name in zoo_names()] + [twins]:
        h = empty_mod_max(g)
        for y in range(1, 5):
            got = h.action(0, y, ())
            for v in range(y):
                via = g.action(1, y, (v,))
                assert got == tuple(via[i] for i in h.empty_classes), \
                    (h.name, y, v)
            assert h.map(FiniteFunction(FiniteSet(0), FiniteSet(y), ())
                          ).table == got
    assert empty_mod_max(twins).size(0) == 1


def test_empty_morphism_factors_every_map_out_of_empty():
    # F°(∅→Y) composed with F(Y→Z) equals F°(∅→Z): the wedge of constants
    # commutes, which is exactly what makes the definition sound.  So it
    # is for F∘, trivially, on every zoo presentation and tabulation.
    for name in zoo_names():
        for base in zoo_bases(name):
            for kind in ModificationKind:
                h = modify(base, kind)
                assert out_of_empty_failures(h, 4) == [], h.name


def test_min_modification_is_max_form_with_no_empty_classes():
    tw = zoo_instance("twins")
    lo, hi = empty_mod_min(tw), empty_mod_max(tw)
    assert type(lo) is type(hi)
    assert isinstance(lo, EmptyModified)
    assert hi.kind is ModificationKind.MAXIMAL
    assert (lo.kind, lo.empty_classes, lo.name) \
        == (ModificationKind.MINIMAL, (), "twins∘")
    assert lo.elements(0) == ()
    for y in range(4):
        out = lo.map(FiniteFunction(FiniteSet(0), FiniteSet(y), ()))
        assert (out.dom.size, out.cod.size, out.table) == (0, lo.size(y), ())
    with pytest.raises(UnknownElementError,
                       match=r"'c' is not an element of twins∘\(0\)"):
        lo.element_index(0, "c")


def test_min_modification_reads_the_base_once_per_map_out_of_empty():
    up = Counting(fresh("upair"))
    lo = EmptyModified(up, ModificationKind.MINIMAL)
    assert up.calls == 0
    for y in range(1, 4):
        assert lo.action(0, y, ()) == ()
        assert (up.calls, up.largest) == (y, y)
    t = load_tabulated(export_tabulated(zoo_instance("upair"), 1))
    with pytest.raises(SizeBoundError,
                       match=r"^tabulated is tabulated up to size 1, "
                             r"queried at 2$"):
        EmptyModified(t, ModificationKind.MINIMAL).action(0, 2, ())


def test_modified_element_index():
    h = empty_mod_max(zoo_instance("twins"))
    assert h.element_index(0, "c") == 0
    assert h.element_index(2, "u(0)") == 0
    # Names at the modified empty value resolve through F(1), where the
    # twin constants already coincide; d names the same class as c.
    assert h.element_index(0, "d") == 0
    p = empty_mod_max(zoo_instance("pointed"))
    assert p.element_index(0, "base") == 0
    with pytest.raises(UnknownElementError, match="equalizer subset"):
        p.element_index(0, "pt(0)")
    hmin = empty_mod_min(zoo_instance("twins"))
    with pytest.raises(UnknownElementError):
        hmin.element_index(0, "c")


# ---------------------------------------------------------------------------
# Supports.


def support_family(g, n, element):
    return [m for m in enumerate_subsets(FiniteSet(n))
            if element in image_of_inclusion(g, m)]


def test_image_of_inclusion_frozen_values():
    up = zoo_instance("upair")
    mask = SubsetMask(FiniteSet(3), 0b11)
    assert image_of_inclusion(up, mask) == frozenset({0, 1, 3})
    h = empty_mod_max(zoo_instance("twins"))
    none2 = SubsetMask(FiniteSet(2), 0)
    assert image_of_inclusion(h, none2) == frozenset({0})
    none3 = SubsetMask(FiniteSet(3), 0)
    assert image_of_inclusion(up, none3) == frozenset()
    assert type(image_of_inclusion(up, mask)) is frozenset


def test_each_instance_keeps_its_own_inclusion_images():
    # F, F∘ and F° share every non-empty value of twins but differ at the
    # empty set, so images keyed alike must not be shared between them.
    g = fresh("twins")
    instances = (g, empty_mod_min(g), empty_mod_max(g))
    expected = {(0, 0): [(0, 1), (), (0,)],
                (1, 0): [(0,), (), (0,)], (1, 1): [(0,), (0,), (0,)]}
    for (n, bits), images in expected.items():
        mask = SubsetMask(FiniteSet(n), bits)
        for h, image in zip(instances, images):
            first = image_of_inclusion(h, mask)
            assert first == frozenset(image), (h.name, mask)
            assert image_of_inclusion(h, mask) is first


def test_support_frozen_values():
    up = zoo_instance("upair")
    r = support(up, 3, up.element_index(3, "p(0,2)"))
    assert r.support.members == (0, 2)
    assert support(up, 3, up.element_index(3, "p(1,1)")).support.members == (1,)
    assert support(up, 3, up.element_index(3, "p(0,0)")).support.members == (0,)
    h = empty_mod_max(zoo_instance("twins"))
    assert support(h, 2, 0).support.members == ()
    assert support(h, 0, 0).support.members == ()


def test_support_witness_maps_back():
    for g in mono_instances():
        for n in range(4):
            for a in range(g.size(n)):
                r = support(g, n, a)
                table = g.map(inclusion(r.support)).table
                assert table[r.witness] == a


def test_support_equals_brute_force_minimum():
    for g in mono_instances():
        for n in range(4):
            for a in range(g.size(n)):
                family = support_family(g, n, a)
                members = [set(m.members) for m in family]
                least = set.intersection(*members) if members else None
                assert least is not None, (g.name, n, a)
                assert least in members, (g.name, n, a)
                assert set(support(g, n, a).support.members) == least


def test_support_family_is_intersection_and_upward_closed():
    for g in mono_instances():
        for n in range(4):
            for a in range(g.size(n)):
                family = support_family(g, n, a)
                sets = {frozenset(m.members) for m in family}
                for s, t in itertools.combinations(sets, 2):
                    assert s & t in sets, (g.name, n, a)
                for s in sets:
                    for sup in enumerate_subsets(FiniteSet(n)):
                        if s <= set(sup.members):
                            assert frozenset(sup.members) in sets


def test_support_order_independent():
    rng = random.Random(7)
    for g in mono_instances():
        for n in range(4):
            orders = [list(p) for p in itertools.permutations(range(n))] \
                if n <= 3 else [rng.sample(range(n), n) for _ in range(6)]
            for a in range(g.size(n)):
                base = support(g, n, a).support
                for order in orders:
                    assert support(g, n, a, order=order).support == base


def test_support_rejects_order_that_is_not_a_permutation():
    up = zoo_instance("upair")
    for order in ([0, 0], [0, 0, 1], [0, 1, 3], [0, 1, 2, 3]):
        with pytest.raises(ValueError, match="not a permutation"):
            support(up, 3, 0, order=order)
    assert support(up, 3, 0, order=[2, 0, 1]).support.members == (0,)


def test_support_reads_an_explicit_order_once():
    # An iterator gives what the list of its points gives: the same
    # support, or the same refusal.
    up = zoo_instance("upair")
    a = up.element_index(3, "p(0,2)")
    result = support(up, 3, a, order=reversed(range(3)))
    assert result == support(up, 3, a, order=[2, 1, 0])
    assert result.support.members == (0, 2)
    with pytest.raises(ValueError) as listed:
        support(up, 3, 0, order=[0, 0, 1])
    with pytest.raises(ValueError) as iterated:
        support(up, 3, 0, order=iter([0, 0, 1]))
    assert str(iterated.value) == str(listed.value) == (
        "removal order [0, 0, 1] is not a permutation of range(3)")


def test_support_refuses_non_monomorphic():
    tw = zoo_instance("twins")
    with pytest.raises(MonomorphicityError) as info:
        support(tw, 1, 0)
    assert "():0->1" in str(info.value)
    assert info.value.collapsed == ("c", "d")
    # Over the empty ambient set no injection misbehaves yet.
    assert support(tw, 0, 0).support.members == ()


def test_support_rejects_bad_element():
    with pytest.raises(UnknownElementError):
        support(zoo_instance("upair"), 2, 99)


def test_support_checks_the_index_before_monomorphicity():
    with pytest.raises(UnknownElementError) as info:
        support(zoo_instance("twins"), 1, 1)
    assert str(info.value) == "index 1 is not an element of twins(1)"
    with pytest.raises(UnknownElementError):
        support(zoo_instance("twins"), 1, -1)


def test_support_keeps_each_default_order_answer():
    g = Counting(fresh("power3"))
    for n in range(5):
        for a in range(g.size(n)):
            first = support(g, n, a)
            calls = g.calls
            assert support(g, n, a) is first
            assert g.calls == calls, (n, a)
            # An explicit order is computed again and never recorded.
            again = support(g, n, a, order=range(n))
            assert again == first and again is not first
            assert g._supports[n, a] is first
    assert len(g._supports) == sum(g.size(n) for n in range(5))


def test_a_kept_support_leaves_every_refusal_in_place():
    up = Counting(fresh("upair"))
    for a in range(up.size(2)):
        support(up, 2, a)
    for _ in range(2):
        with pytest.raises(ValueError, match="not a permutation"):
            support(up, 2, 0, order=[0, 0])
        with pytest.raises(UnknownElementError):
            support(up, 2, up.size(2))
    tw = Counting(fresh("twins"))
    assert support(tw, 0, 0).support.members == ()
    for _ in range(2):
        with pytest.raises(MonomorphicityError):
            support(tw, 1, 0)
    assert list(tw._supports) == [(0, 0)]


def test_kept_supports_stay_with_their_instance():
    g = Counting(fresh("upair"))
    kept = [support(g, 3, a) for a in range(g.size(3))]
    h = Counting(fresh("upair"))
    assert h._supports == {}
    for a, first in enumerate(kept):
        other = support(h, 3, a)
        assert other == first and other is not first


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(MONO_ZOO), st.data())
def test_support_shrinks_along_maps(name, data):
    g = zoo_instance(name)
    x = data.draw(st.integers(0, 3))
    y = data.draw(st.integers(1, 3))
    f = FiniteFunction(FiniteSet(x), FiniteSet(y), tuple(
        data.draw(st.integers(0, y - 1)) for _ in range(x)))
    if g.size(x) == 0:
        return
    a = data.draw(st.integers(0, g.size(x) - 1))
    sa = set(support(g, x, a).support.members)
    sb = set(support(g, y, g.map(f).table[a]).support.members)
    assert sb <= {f.table[p] for p in sa}
    if injective(f.table):
        assert sb == {f.table[p] for p in sa}


# ---------------------------------------------------------------------------
# Skeleton and degree.


def test_skeleton_frozen_values():
    up = zoo_instance("upair")
    assert skeleton(up, 1, 3) == (0, 3, 5)
    assert skeleton(up, 2, 3) == (0, 1, 2, 3, 4, 5)
    assert skeleton(up, 0, 3) == ()
    pt = zoo_instance("pointed")
    assert skeleton(pt, 0, 2) == (2,)


def test_skeleton_equals_support_size_filter():
    for g in mono_instances():
        for x in range(4):
            for n in range(x + 2):
                expect = tuple(a for a in range(g.size(x))
                               if len(support(g, x, a).support) <= n)
                assert skeleton(g, n, x) == expect, (g.name, n, x)


def test_degree_frozen_values():
    expected = {"identity": 1, "const2": 0, "power2": 2, "power3": 3,
                "upair": 2, "exp2": 2, "pointed": 1}
    for name, value in expected.items():
        res = degree(zoo_instance(name), 3)
        assert res == DegreeResult(value, True), name
    assert degree(empty_mod_max(zoo_instance("twins")), 3) == \
        DegreeResult(0, True)


def test_degree_repr():
    assert repr(DegreeResult(3, True)) == "3 (exact)"
    assert repr(DegreeResult(2, False)) == "2 (lower bound)"


def test_degree_low_probe_is_a_lower_bound():
    res = degree(zoo_instance("power3"), 2)
    assert res.value == 2
    assert res.exact is False


def test_a_modification_claims_exactness_from_size_1():
    # const2∘ is empty at ∅, so its constants have singleton supports
    # over a non-empty set: bound 0 sees none of them.
    assert degree(empty_mod_min(zoo_instance("const2")), 0) == \
        DegreeResult(0, False)
    for name in zoo_names():
        for kind in ModificationKind:
            g = modify(zoo_instance(name), kind)
            results = [degree(g, bound) for bound in range(4)]
            for bound, res in enumerate(results):
                if res.exact:
                    assert all(later.value <= res.value
                               for later in results[bound:]), (g.name, bound)


def test_degree_requires_monomorphic():
    with pytest.raises(MonomorphicityError):
        degree(zoo_instance("twins"), 3)


def _degree_by_support(h, bound):
    """``degree`` by its definition: the largest ``support`` over every
    element up to the bound, after its monomorphicity requirement."""
    require_monomorphic(h, bound)
    return DegreeResult(
        max((len(support(h, n, a).support) for n in range(bound + 1)
             for a in range(h.size(n))), default=0),
        h.max_arity is not None and bound >= h.max_arity)


def _assert_degree_matches_supports(pres, which, bounds):
    h = fresh(pres, which)
    for bound in bounds:
        g = fresh(pres, which)
        try:
            expected = _degree_by_support(h, bound)
        except MonomorphicityError as err:
            with pytest.raises(MonomorphicityError, match=re.escape(str(err))):
                degree(g, bound)
            continue
        assert degree(g, bound) == expected, (g.name, bound)
        assert g._supports == {}, g.name


@pytest.mark.parametrize("which", ["plain", "min", "max"])
@pytest.mark.parametrize("name", zoo_names())
def test_degree_is_the_largest_support(name, which):
    # const2∘, pointed∘ and twins∘ have families that are not closed
    # under intersection, so there the ascending order is what is read.
    _assert_degree_matches_supports(name, which, range(7))


@settings(max_examples=150, deadline=None)
@given(presentations(SHAPES, "ab", 3), st.integers(0, 4),
       st.sampled_from(["plain", "min", "max"]))
def test_degree_is_the_largest_support_random(pres, bound, which):
    _assert_degree_matches_supports(pres, which, [bound])


@pytest.mark.parametrize("kind", [None, "min", "max"])
@pytest.mark.parametrize("name", zoo_names())
def test_degree_matches_the_oracle_on_the_zoo(name, kind):
    # ``tests/test_orbits.py`` runs the shared gate up to size 5.
    assert_rules_match_walk(name, kind, [6, 7], [degree])


@pytest.mark.parametrize("kind", [None, "min", "max"])
@pytest.mark.parametrize("name", zoo_names())
def test_skeleton_matches_the_every_map_walk(name, kind):
    g, h = fresh(name, kind), fresh(name, kind)
    for size in range(6):
        for n in range(size + 2):
            assert skeleton(g, n, size) == skeleton_oracle(h, n, size), (
                g.name, n, size)


def test_degree_reads_the_codimension_one_inclusions():
    # F(0 -> 1), then the m inclusions of the subsets of m - 1 points at
    # each size m up to the bound or the arity, 3, whichever is smaller.
    for bound in range(1, 13):
        g = Counting(fresh("power3"), proof=True)
        assert degree(g, bound) == DegreeResult(min(bound, 3), bound >= 3)
        t = min(bound, 3)
        assert g.calls == 1 + t * (t + 1) // 2, bound
    assert g.calls == 7


def test_skeleton_reads_the_subsets_of_its_domain_size():
    # One inclusion per subset with min(n, size) points: 20 at (3, 6).
    for size in range(7):
        for n in range(size + 2):
            g = Counting(fresh("power3"), proof=True)
            skeleton(g, n, size)
            assert g.calls == comb(size, min(n, size)), (n, size)


def test_skeleton_chain_stabilizes_at_degree():
    for g in mono_instances():
        d = degree(g, 4).value
        for x in range(5):
            full = tuple(range(g.size(x)))
            assert skeleton(g, d, x) == full, (g.name, x)
            chain = [skeleton(g, n, x) for n in range(d + 1)]
            for earlier, later in zip(chain, chain[1:]):
                assert set(earlier) <= set(later)
        if d > 0:
            assert any(skeleton(g, d - 1, x) != tuple(range(g.size(x)))
                       for x in range(5)), g.name


# ---------------------------------------------------------------------------
# Epimorphicity witnesses.


def test_epi_witness_exhaustive():
    for g in mono_instances():
        for x in range(4):
            for y in range(x + 1):
                for f in enumerate_functions(FiniteSet(x), FiniteSet(y)):
                    if not is_surjective(f):
                        continue
                    table = g.map(f).table
                    for b in range(g.size(y)):
                        w = epi_witness(g, f, b)
                        assert table[w] == b


def test_epi_witness_frozen_case():
    # The least-preimage section on supp(p(0,1)) = {0,1} is the identity
    # embedding, so the witness comes out as p(0,1) upstairs.
    up = zoo_instance("upair")
    f = FiniteFunction(FiniteSet(3), FiniteSet(2), (0, 1, 0))
    b = up.element_index(2, "p(0,1)")
    w = epi_witness(up, f, b)
    assert up.elements(3)[w] == "p(0,1)"


def test_epi_witness_rejects_non_surjective():
    up = zoo_instance("upair")
    with pytest.raises(ValueError, match="surjective"):
        epi_witness(up, FiniteFunction(FiniteSet(2), FiniteSet(3), (0, 1)), 0)


# ---------------------------------------------------------------------------
# Checkers.


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_maps_up_to_is_the_nested_size_walk(n):
    nested = [(x, y, f.table) for x in range(n + 1) for y in range(n + 1)
              for f in enumerate_functions(FiniteSet(x), FiniteSet(y))]
    walk = list(tables_up_to(n))
    assert walk == nested
    assert len(walk) == sum(y ** x for x in range(n + 1)
                            for y in range(n + 1))


@pytest.mark.parametrize("g, n", [
    (zoo_instance("upair"), -1),
    (zoo_instance("pointed"), -2),
    (empty_mod_max(zoo_instance("twins")), -1),
])
def test_negative_size_is_refused(g, n):
    with pytest.raises(ValueError, match=f"size must be non-negative, got {n}"):
        g.elements(n)


@pytest.mark.parametrize("entry", [
    lambda g: list(tables_up_to(-1)),
    lambda g: run_standard_checks(g, -1),
    lambda g: check_functor_laws(g, -1),
    lambda g: check_monomorphic(g, -1),
    lambda g: check_epimorphic(g, -1),
    lambda g: check_intersections(g, -1),
    lambda g: check_supports(g, -1),
    lambda g: degree(g, -1),
    lambda g: export_tabulated(g, -1),
    lambda g: skeleton(g, -1, 0),
    lambda g: require_monomorphic(g, -1),
], ids=["tables_up_to", "run_standard_checks", "laws", "mono", "epi",
        "intersections", "supports", "degree", "export_tabulated",
        "skeleton", "require_monomorphic"])
def test_negative_size_bound_is_refused(entry):
    with pytest.raises(ValueError, match="size must be non-negative, got -1"):
        entry(zoo_instance("upair"))


# Two instances that are not functors: upair with F((0,2): 2 -> 3)
# collapsed to one point, and upair with F(id_2) a transposition.
UNLAWFUL = {
    "collapse": lambda: Counting(fresh("upair"), {(2, 3, (0, 2)): (0, 0, 0)}),
    "identity": lambda: Counting(fresh("upair"),
                                 {(2, 2, (0, 1)): (2, 1, 0)}),
}


@pytest.mark.parametrize("which", sorted(UNLAWFUL))
def test_an_unlawful_instance_is_refused(which):
    # Every check decides the laws first, and names their first failure.
    laws = check_functor_laws(UNLAWFUL[which](), 3)
    refusal = f"functor laws fail: {laws.counterexamples[0]}"
    for check in (check_monomorphic, check_epimorphic, check_intersections,
                  check_supports):
        g = UNLAWFUL[which]()
        report = check(g, 3)
        assert report.counterexamples == (f"refused: {refusal}",)
        assert report.details == ""
        assert g._law_bound == -1
    for needs_laws in (require_monomorphic, degree,
                       lambda g, n: support(g, n, 0),
                       lambda g, n: skeleton(g, n, n),
                       lambda g, n: skeleton(g, 0, n),
                       lambda g, n: skeleton(g, n, 0)):
        with pytest.raises(ValueError) as err:
            needs_laws(UNLAWFUL[which](), 3)
        assert str(err.value) == refusal


def test_check_functor_laws_passes_zoo():
    for name in zoo_names():
        report = check_functor_laws(zoo_instance(name), 3)
        assert report.passed
        assert report.name == "laws"


def test_check_functor_laws_catches_planted_violation():
    up = zoo_instance("upair")
    broken = Overridden(up, {(1, 2, (0,)): (1,)})
    report = check_functor_laws(broken, 3)
    assert not report.passed
    assert any("(0):1->2" in c for c in report.counterexamples)


def test_check_functor_laws_catches_broken_identity():
    up = zoo_instance("upair")
    broken = Overridden(up, {(2, 2, (0, 1)): (2, 1, 0)})
    report = check_functor_laws(broken, 2)
    assert any("identity" in c for c in report.counterexamples)


def test_check_monomorphic():
    report = check_monomorphic(zoo_instance("twins"), 3)
    assert not report.passed
    assert "():0->1" in report.counterexamples[0]
    assert "c and d" in report.counterexamples[0]
    for name in MONO_ZOO:
        assert check_monomorphic(zoo_instance(name), 3).passed, name


def test_passing_mono_check_spares_require_monomorphic_the_walk():
    # The laws recorded by ``mono`` leave one read of G(0 -> 1) per call,
    # and none at bound 0.
    g = Counting(zoo_instance("upair"))
    assert check_monomorphic(g, 5).passed
    before = g.calls
    require_monomorphic(g, 5)
    require_monomorphic(g, 4)
    assert g.calls == before + 2
    require_monomorphic(g, 0)
    assert g.calls == before + 2
    twins = zoo_instance("twins")
    assert not check_monomorphic(twins, 5).passed
    with pytest.raises(MonomorphicityError):
        require_monomorphic(twins, 5)


def test_checks_and_export_walk_tables_without_building_functions(
        monkeypatch):
    # The walks hand raw tables to ``action``; a validated FiniteFunction
    # per map walked or per image is the waste this guards against.
    built = []
    post_init = FiniteFunction.__post_init__
    monkeypatch.setattr(FiniteFunction, "__post_init__",
                        lambda f: built.append(f) or post_init(f))
    g = zoo_instance("upair")
    assert check_functor_laws(g, 4).passed
    assert check_monomorphic(g, 4).passed
    assert check_epimorphic(g, 4).passed
    export_tabulated(g, 3)
    assert built == []


def assert_refused(report, g, max_size):
    """``report`` refuses g, whose laws fail, naming their first failure
    as the laws check would list it, written by the oracle's formatter;
    ``law_failures`` is drawn from only once, since a broken instance's
    pairs all take a minute to compare at size 5."""
    sizes = [g.size(n) for n in range(max_size + 1)]
    first = law_text(*next(law_failures(g.action, sizes)))
    assert report.counterexamples == (f"refused: functor laws fail: {first}",)
    assert report.details == ""


def test_check_epimorphic():
    for name in zoo_names():
        assert check_epimorphic(zoo_instance(name), 3).passed, name
    up = zoo_instance("upair")
    broken = Overridden(up, {(2, 2, (1, 0)): (2, 1, 2)})
    assert_refused(check_epimorphic(broken, 2), broken, 2)


def test_epi_report_names_one_broken_surjection():
    # F(f) for the surjection f = (0,0,1): 3 -> 2 of upair, replaced by a
    # table that misses p(0,1) and p(1,1): the oracle names the first,
    # and the check refuses the instance, whose laws fail.
    up = zoo_instance("upair")
    broken = Overridden(up, {(3, 2, (0, 0, 1)): (0,) * up.size(3)})
    assert epi_oracle(broken, 3)[2:] == (
        ("G(f) not surjective for f=(0,0,1):3->2: misses p(0,1)",), "")
    assert_refused(check_epimorphic(broken, 3), broken, 3)


def scrambled(name, max_size, seed):
    """The values of a zoo functor up to max_size, with a seeded random
    table on every map; built directly, so taken as given, laws or not."""
    g = zoo_instance(name)
    objects = tuple(g.elements(n) for n in range(max_size + 1))
    rng = random.Random(seed)
    morphisms = {(x, y, t): tuple(rng.randrange(len(objects[y]))
                                  for _ in objects[x])
                 for x, y, t in tables_up_to(max_size)}
    return TabulatedInstance(objects, morphisms, name + "~")


@pytest.mark.parametrize("which", ["twins", "max", "min", "scrambled"])
def test_mono_and_epi_reports_match_the_every_map_walk(which):
    # The scrambled tables are no functor: the oracle finds more failures
    # than a report lists, and each check refuses the instance.
    if which == "scrambled":
        g = scrambled("power2", 5, seed=7)
    else:
        g = zoo_instance("twins")
        if which != "twins":
            g = modify(g, ModificationKind(which))
    for check, oracle in ((check_monomorphic, mono_oracle),
                          (check_epimorphic, epi_oracle)):
        report = check(g, 5)
        if which == "scrambled":
            assert "truncated" in oracle(g, 5)[3], check.__name__
            assert_refused(report, g, 5)
        else:
            assert report_of(report) == oracle(g, 5)


def test_check_intersections_zoo_and_modifications():
    for name in zoo_names():
        assert check_intersections(zoo_instance(name), 3).passed, name
        assert check_intersections(
            empty_mod_max(zoo_instance(name)), 3).passed, name


def test_check_intersections_min_twins_fails_disjoint_case():
    report = check_intersections(empty_mod_min(zoo_instance("twins")), 3)
    assert not report.passed
    assert any("X=2" in c and "{0}" in c and "{1}" in c
               for c in report.counterexamples)


def test_max_twins_disjoint_case_has_nonempty_intersection():
    # The repaired functor meets the image equality even where both
    # sides are non-empty over disjoint subsets.
    h = empty_mod_max(zoo_instance("twins"))
    x = FiniteSet(2)
    a, b = SubsetMask(x, 0b01), SubsetMask(x, 0b10)
    lhs = set(image_of_inclusion(h, SubsetMask(x, a.bits & b.bits)))
    rhs = set(image_of_inclusion(h, a)) & set(image_of_inclusion(h, b))
    assert lhs == rhs
    assert rhs


def test_check_supports_zoo():
    for g in mono_instances():
        report = check_supports(g, 3)
        assert report.passed, (g.name, report.counterexamples[:2])


def test_check_supports_seeds_agree():
    for seed in (0, 1, 2):
        assert check_supports(zoo_instance("upair"), 3, seed=seed).passed


def test_check_supports_refuses_twins():
    report = check_supports(zoo_instance("twins"), 3)
    assert not report.passed
    assert "refused" in report.counterexamples[0]
    assert "():0->1" in report.counterexamples[0]


def test_check_supports_min_twins_family_not_closed():
    report = check_supports(empty_mod_min(zoo_instance("twins")), 3)
    assert not report.passed
    assert any("not closed" in c for c in report.counterexamples)


# upair has no strays at size 2 (``theory._strays``); const2∘, pointed∘
# and twins∘ have one, so every disjoint pair of non-empty subsets fails;
# the overridden twins∘ has no known laws, so each check walks the laws
# first and then takes the same path.
SUBSET_ORACLE_CASES = {
    "const2∘": lambda: empty_mod_min(zoo_instance("const2")),
    "pointed∘": lambda: empty_mod_min(zoo_instance("pointed")),
    "twins": lambda: zoo_instance("twins"),
    "twins°": lambda: empty_mod_max(zoo_instance("twins")),
    "twins∘": lambda: empty_mod_min(zoo_instance("twins")),
    "twins∘ without laws": lambda: walked("twins", "min"),
    "upair": lambda: zoo_instance("upair"),
}


@pytest.mark.parametrize("which", sorted(SUBSET_ORACLE_CASES))
def test_subset_check_reports_match_the_member_set_walk(which):
    g = SUBSET_ORACLE_CASES[which]()
    assert report_of(check_intersections(g, 5)) == intersections_oracle(g, 5)
    report = report_of(check_supports(g, 5))
    assert report == supports_oracle(g, 5)
    if which == "twins∘":
        assert report[3] == "counterexamples truncated (248 found)"


@settings(max_examples=40, deadline=None)
@given(presentations(SHAPES, "abc", 3), st.integers(0, 4),
       st.sampled_from(["plain", "min", "max"]), st.integers(0, 3))
def test_supports_report_matches_the_pair_walks(pres, max_size, which,
                                                seed):
    # The oracle walks every family; the check writes the families of the
    # strays only.
    g = fresh(pres, which)
    assert report_of(check_supports(g, max_size, seed=seed)) == \
        supports_oracle(g, max_size, seed)


def count_stray_reads(monkeypatch):
    """A list that gets the size of each ``_strays`` read of the checks."""
    calls = []
    strays = theory._strays
    monkeypatch.setattr(theory, "_strays", lambda g, n: calls.append(n)
                        or strays(g, n))
    return calls


def test_up_set_families_skip_the_pair_walks(monkeypatch):
    # A passing supports reads the strays at size 2 only; twins∘ fails,
    # and its texts read them at every size up to the bound.
    calls = count_stray_reads(monkeypatch)
    for g in mono_instances():
        assert check_supports(g, 3).passed, g.name
    assert calls == [2] * len(mono_instances())
    calls.clear()
    assert not check_supports(empty_mod_min(zoo_instance("twins")), 3).passed
    assert calls == [2, 2, 3]


def test_supports_runs_no_greedy_order(monkeypatch):
    # Every family of a lawful instance is upward closed, so every
    # removal order ends at the family's intersection: ``support``, which
    # holds the greedy loop, is not called, not even where supports fails.
    calls = []
    monkeypatch.setattr("finfun.theory.support", lambda *args:
                        calls.append(args) or support(*args))
    failed = []
    for name in zoo_names():
        g = zoo_instance(name)
        for h in (g, empty_mod_min(g), empty_mod_max(g)):
            if not check_supports(h, 4).passed:
                failed.append(h.name)
    assert calls == []
    assert sorted(failed) == ["const2∘", "pointed∘", "twins", "twins∘"]


@pytest.mark.parametrize("max_size, key, image, expected", [
    # x(0) lies in the images of {0} and {1} but not of {} = {0} & {1}:
    # upward closed, not closed under intersection.
    (2, (1, 2, (1,)), (0,),
     ["X=2 x(0): family not closed under {0} & {1}",
      "X=2 x(0): family not closed under {1} & {0}"]),
    # x(0) lies in the images of {0}, {0,2} and {0,1,2} but not of
    # {0,1}: closed under intersection, not upward closed.
    (3, (2, 3, (0, 1)), (1, 2),
     ["X=3 x(0): family not upward closed at {0} <= {0,1}"]),
])
def test_families_that_are_not_up_sets_are_walked(monkeypatch, max_size, key,
                                                  image, expected):
    # One inclusion of the identity functor sent elsewhere, injectively,
    # so that the functor stays monomorphic: the oracle walks the family,
    # and the check refuses the instance, whose laws fail, reading no
    # strays.
    g = Overridden(zoo_instance("identity"), {key: image})
    walked = [c for c in supports_oracle(g, max_size)[2]
              if " x(0): family not " in c]
    assert walked == expected
    calls = count_stray_reads(monkeypatch)
    assert_refused(check_supports(g, max_size), g, max_size)
    assert calls == []


def test_intersection_report_matches_the_member_set_walk_scrambled():
    # The scrambled tables are no functor: the oracle finds more failures
    # than a report lists, and the check refuses the instance.
    g = scrambled("power2", 4, seed=7)
    assert "truncated" in intersections_oracle(g, 4)[3]
    assert_refused(check_intersections(g, 4), g, 4)


@pytest.mark.parametrize("max_size", range(7))
def test_intersection_case_counts_follow_the_closed_forms(max_size):
    # The report computes the counts from closed forms; here every
    # ordered pair of subsets is tallied: nested (A <= B or B <= A),
    # else disjoint, else overlapping.
    nested = disjoint = overlapping = 0
    for n in range(max_size + 1):
        subsets = [set(m.members) for m in enumerate_subsets(FiniteSet(n))]
        for a in subsets:
            for b in subsets:
                if a <= b or b <= a:
                    nested += 1
                elif not a & b:
                    disjoint += 1
                else:
                    overlapping += 1
    report = check_intersections(zoo_instance("identity"), max_size)
    assert report.details.endswith(
        f"case counts: nested={nested}, disjoint={disjoint}, "
        f"overlapping={overlapping}")
    if max_size == 5:
        assert (nested, disjoint, overlapping) == (665, 244, 456)


def test_counterexamples_truncated_with_note():
    # twins∘ fails on every disjoint pair of non-empty subsets from size
    # 2: 2 + 12 + 50 + 180 of them up to size 5, of which 25 are listed.
    report = check_intersections(empty_mod_min(zoo_instance("twins")), 5)
    assert len(report.counterexamples) == 25
    assert report.details == (
        "pairwise check; arbitrary finite families reduce to pairs. case "
        "counts: nested=665, disjoint=244, overlapping=456; "
        "counterexamples truncated (244 found)")


def test_report_counts_past_the_int_to_str_limit():
    # Python writes an int of at most 4,300 digits as text in one call, by
    # default.  Up to 7,200 the overlapping pairs number about 4^7201 / 3,
    # and up to 9,100 the failures of twins∘'s supports about 3^9101 / 2;
    # both have more digits.  The oracle sums the series in closed form
    # and writes the counts with the limit lifted.
    n, m = 7200, 9100
    meets = check_intersections(zoo_instance("upair"), n)
    families = check_supports(empty_mod_min(zoo_instance("twins")), m)

    def disjoint(n):
        return (3 ** (n + 1) - 1) // 2 - 2 ** (n + 2) + n + 3

    nested = 3 ** (n + 1) - 2 ** (n + 1)
    overlapping = (4 ** (n + 1) - 1) // 3 - nested - disjoint(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(overlapping)) > limit
        want_meets = (
            "pairwise check; arbitrary finite families reduce to pairs. "
            f"case counts: nested={nested}, disjoint={disjoint(n)}, "
            f"overlapping={overlapping}")
        total = disjoint(m) + m - 1
        assert len(str(total)) > limit
        want_families = f"counterexamples truncated ({total} found)"
    finally:
        sys.set_int_max_str_digits(limit)
    assert meets.passed and meets.details == want_meets
    assert len(families.counterexamples) == 25
    assert families.details == want_families


def test_decimal_writes_what_str_writes():
    # Chunk boundaries, a chunk of zeros, and past the limit.
    chunk = 10 ** 600
    numbers = [0, 7, chunk - 1, chunk, chunk + 1, chunk ** 2 + chunk - 1,
               3 ** 9101]
    written = list(map(theory._decimal, numbers))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert written == list(map(str, numbers))
    finally:
        sys.set_int_max_str_digits(limit)


def test_run_standard_checks():
    reports = run_standard_checks(zoo_instance("upair"), 3)
    assert [r.name for r in reports] == list(STANDARD_CHECKS)
    assert all(r.passed for r in reports)
    reports = run_standard_checks(zoo_instance("twins"), 3,
                                  skip=("mono", "supports"))
    assert [r.name for r in reports] == ["laws", "epi", "intersections"]
    assert all(r.passed for r in reports)
    with pytest.raises(ValueError, match="unknown check"):
        run_standard_checks(zoo_instance("upair"), 3, skip=("nope",))


def test_run_standard_checks_passes_the_seed_to_supports():
    g = zoo_instance("upair")
    report = run_standard_checks(g, 3, seed=7)[-1]
    direct = check_supports(g, 3, seed=7)
    assert (report.name, report.scope) == ("supports", "sizes <= 3, seed 7")
    assert (report.counterexamples, report.details) == \
        (direct.counterexamples, direct.details)


def test_run_standard_checks_looks_each_check_up_at_call_time(monkeypatch):
    # A tracer rebinds the checks on the module; the battery must run them.
    calls = []
    monkeypatch.setattr("finfun.theory.check_epimorphic",
                        lambda g, n: calls.append(n) or check_epimorphic(g, n))
    run_standard_checks(zoo_instance("upair"), 2, skip=("laws",))
    assert calls == [2]


def test_every_name_the_benchmark_tracer_wraps_exists():
    # bench/run.py wraps each name with getattr at run time, so a deleted
    # or renamed one would crash only a traced benchmark run.
    bench = Path(__file__).resolve().parent.parent / "bench"
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    before = set(sys.modules)
    sys.path.insert(0, str(bench))
    try:
        sys.modules[spec.name] = run  # its dataclasses look the module up
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(bench))
        for name in set(sys.modules) - before:
            del sys.modules[name]
    fin = SimpleNamespace(**{
        m: importlib.import_module(f"finfun.{m}") for m in (
            "finset", "presentation", "tabulated", "theory", "zoo", "cli")})
    wrapped = run.patches(fin)
    assert len(wrapped) > 20
    for owner, attribute, name, _ in wrapped:
        assert callable(getattr(owner, attribute, None)), name


def test_the_readme_library_example_runs():
    # Each bare expression of the example is evaluated in turn, and its
    # value held to the comment beside it.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n")[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README",
                                       "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    elements, supp, deg, empty, battery, u2_elements, u2_bound = values
    assert elements[:2] == ("p(0,0)", "p(0,1)") and elements[-1] == "p(2,2)"
    assert repr(supp) == "{0,2}"
    assert repr(deg) == "2 (exact)"
    assert empty == ("c",)
    assert battery is True
    assert u2_elements == ("p(0,0)", "p(0,1)", "p(1,1)")
    assert u2_bound == 2
    with pytest.raises(SizeBoundError):
        namespace["u2"].elements(3)
