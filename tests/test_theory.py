"""Modifications, supports, degree and the exhaustive checkers."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finfun.finset import (
    FiniteFunction,
    FiniteSet,
    SubsetMask,
    enumerate_functions,
    enumerate_subsets,
    inclusion,
    injective_tables,
    is_injective,
    is_surjective,
    surjective_tables,
)
from finfun.tabulated import TabulatedInstance
from finfun.theory import (
    STANDARD_CHECKS,
    DegreeResult,
    EmptyModified,
    FunctorInstance,
    ModificationKind,
    MonomorphicityError,
    ProbeMismatchError,
    UnknownElementError,
    check_epimorphic,
    check_functor_laws,
    check_intersections,
    check_modification_maximality,
    check_monomorphic,
    check_supports,
    degree,
    empty_mod_max,
    empty_mod_min,
    empty_morphism,
    epi_witness,
    image_of_inclusion,
    maps_up_to,
    modify,
    require_monomorphic,
    run_standard_checks,
    skeleton,
    support,
)
from finfun.zoo import zoo_instance, zoo_names

MONO_ZOO = tuple(n for n in zoo_names() if n != "twins")


def mono_instances():
    return [zoo_instance(n) for n in MONO_ZOO] + \
        [empty_mod_max(zoo_instance("twins"))]


class Tweaked(FunctorInstance):
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

    def map(self, f):
        key = (f.dom.size, f.cod.size, f.table)
        if key in self.overrides:
            return FiniteFunction(FiniteSet(self.base.size(f.dom.size)),
                                  FiniteSet(self.base.size(f.cod.size)),
                                  self.overrides[key])
        return self.base.map(f)


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


def test_empty_morphism_choice_independent():
    for name in zoo_names():
        h = empty_mod_max(zoo_instance(name))
        for y in range(1, 5):
            ys = FiniteSet(y)
            tables = {empty_morphism(h, ys, via=v).table for v in range(y)}
            assert len(tables) == 1, (name, y)
            assert h.map(FiniteFunction(FiniteSet(0), ys, ())).table \
                == tables.pop()


def test_empty_morphism_requires_max_modification():
    with pytest.raises(TypeError):
        empty_morphism(zoo_instance("upair"), FiniteSet(2))
    with pytest.raises(TypeError):
        empty_morphism(empty_mod_min(zoo_instance("upair")), FiniteSet(2))


def test_empty_morphism_factors_every_map_out_of_empty():
    # F°(∅→Y) composed with F(Y→Z) equals F°(∅→Z): the wedge of constants
    # commutes, which is exactly what makes the definition sound.
    h = empty_mod_max(zoo_instance("twins"))
    for y in range(1, 4):
        for z in range(1, 4):
            left = h.map(FiniteFunction(FiniteSet(0), FiniteSet(z), ()))
            for f in enumerate_functions(FiniteSet(y), FiniteSet(z)):
                via = h.map(FiniteFunction(FiniteSet(0), FiniteSet(y), ()))
                assert tuple(h.map(f).table[v] for v in via.table) \
                    == left.table


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
    mask = SubsetMask.of(FiniteSet(3), [0, 1])
    assert image_of_inclusion(up, mask) == (0, 1, 3)
    h = empty_mod_max(zoo_instance("twins"))
    assert image_of_inclusion(h, SubsetMask.of(FiniteSet(2), [])) == (0,)
    assert image_of_inclusion(up, SubsetMask.of(FiniteSet(3), [])) == ()


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
    if is_injective(f):
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


def test_degree_requires_monomorphic():
    with pytest.raises(MonomorphicityError):
        degree(zoo_instance("twins"), 3)


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
    nested = [f for x in range(n + 1) for y in range(n + 1)
              for f in enumerate_functions(FiniteSet(x), FiniteSet(y))]
    walk = list(maps_up_to(n))
    assert walk == nested
    assert len(walk) == sum(y ** x for x in range(n + 1)
                            for y in range(n + 1))


def test_maps_up_to_takes_a_table_source():
    for tables, keep, count in ((injective_tables, is_injective, 2372),
                                (surjective_tables, is_surjective, 5317)):
        assert sum(1 for _ in maps_up_to(6, tables)) == count
        assert list(maps_up_to(4, tables)) \
            == [f for f in maps_up_to(4) if keep(f)]


@pytest.mark.parametrize("g, n", [
    (zoo_instance("upair"), -1),
    (zoo_instance("pointed"), -2),
    (empty_mod_max(zoo_instance("twins")), -1),
])
def test_negative_size_is_refused(g, n):
    with pytest.raises(ValueError, match=f"size must be non-negative, got {n}"):
        g.elements(n)


def test_check_functor_laws_passes_zoo():
    for name in zoo_names():
        report = check_functor_laws(zoo_instance(name), 3)
        assert report.passed
        assert report.name == "laws"


def test_check_functor_laws_catches_planted_violation():
    up = zoo_instance("upair")
    broken = Tweaked(up, {(1, 2, (0,)): (1,)})
    report = check_functor_laws(broken, 3)
    assert not report.passed
    assert any("(0):1->2" in c for c in report.counterexamples)


def test_check_functor_laws_catches_broken_identity():
    up = zoo_instance("upair")
    broken = Tweaked(up, {(2, 2, (0, 1)): (2, 1, 0)})
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
    class Counting(Tweaked):
        calls = 0

        def map(self, f):
            Counting.calls += 1
            return super().map(f)

    g = Counting(zoo_instance("upair"), {})
    assert check_monomorphic(g, 5).passed
    before = Counting.calls
    require_monomorphic(g, 5)
    require_monomorphic(g, 4)
    assert Counting.calls == before
    twins = zoo_instance("twins")
    assert not check_monomorphic(twins, 5).passed
    with pytest.raises(MonomorphicityError):
        require_monomorphic(twins, 5)


def test_check_epimorphic():
    for name in zoo_names():
        assert check_epimorphic(zoo_instance(name), 3).passed, name
    up = zoo_instance("upair")
    broken = Tweaked(up, {(2, 2, (1, 0)): (2, 1, 2)})
    report = check_epimorphic(broken, 2)
    assert not report.passed
    assert any("misses" in c and "p(0,0)" in c for c in report.counterexamples)


def mono_oracle(g, max_size):
    """The counterexamples of ``check_monomorphic`` as the walk over every
    map, keeping the injective ones, finds them."""
    found = []
    for f in maps_up_to(max_size):
        if not is_injective(f):
            continue
        gf = g.map(f)
        if is_injective(gf):
            continue
        names = g.elements(f.dom.size)
        first = {}
        for i, v in enumerate(gf.table):
            if v in first:
                found.append(f"G(f) not injective for f={f!r}: collapses "
                             f"{names[first[v]]} and {names[i]}")
                break
            first[v] = i
    return found


def epi_oracle(g, max_size):
    """The counterexamples of ``check_epimorphic`` as the walk over every
    map, keeping the surjective ones, finds them."""
    found = []
    for f in maps_up_to(max_size):
        if not is_surjective(f):
            continue
        y = f.cod.size
        missed = set(range(g.size(y))) - set(g.map(f).table)
        if missed:
            found.append(f"G(f) not surjective for f={f!r}: misses "
                         f"{g.elements(y)[min(missed)]}")
    return found


def scrambled(name, max_size, seed):
    """The values of a zoo functor up to max_size, with a seeded random
    table on every map; built directly, so taken as given, laws or not."""
    g = zoo_instance(name)
    objects = tuple(g.elements(n) for n in range(max_size + 1))
    rng = random.Random(seed)
    morphisms = {(f.dom.size, f.cod.size, f.table):
                 tuple(rng.randrange(len(objects[f.cod.size]))
                       for _ in objects[f.dom.size])
                 for f in maps_up_to(max_size)}
    return TabulatedInstance(objects, morphisms, name + "~")


@pytest.mark.parametrize("which", ["twins", "max", "min", "scrambled"])
def test_mono_and_epi_reports_match_the_every_map_walk(which):
    if which == "scrambled":
        g = scrambled("power2", 5, seed=7)
    else:
        g = zoo_instance("twins")
        if which != "twins":
            g = modify(g, ModificationKind(which))
    for check, oracle in ((check_monomorphic, mono_oracle),
                          (check_epimorphic, epi_oracle)):
        report = check(g, 5)
        found = oracle(g, 5)
        note = (f"counterexamples truncated ({len(found)} found)"
                if len(found) > 25 else "")
        assert report.counterexamples == tuple(found[:25])
        assert report.details == note
        if which == "scrambled":
            assert len(found) > 25, check.__name__


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
    a, b = SubsetMask.of(x, [0]), SubsetMask.of(x, [1])
    lhs = set(image_of_inclusion(h, a.intersection(b)))
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


def intersections_oracle(g, max_size):
    """The counterexamples and case-count details of
    ``check_intersections``, as a walk over member tuples and sets finds
    them."""
    found = []
    cases = {"nested": 0, "disjoint": 0, "overlapping": 0}
    for n in range(max_size + 1):
        masks = list(enumerate_subsets(FiniteSet(n)))
        images = {m.members: frozenset(image_of_inclusion(g, m))
                  for m in masks}
        for a in masks:
            for b in masks:
                sa, sb = set(a.members), set(b.members)
                if sa <= sb or sb <= sa:
                    cases["nested"] += 1
                elif not (sa & sb):
                    cases["disjoint"] += 1
                else:
                    cases["overlapping"] += 1
                lhs = images[tuple(sorted(sa & sb))]
                rhs = images[a.members] & images[b.members]
                if lhs != rhs:
                    offending = min(lhs ^ rhs)
                    found.append(
                        f"X={n} A={a!r} B={b!r}: image of A&B differs from "
                        f"intersection at {g.elements(n)[offending]}")
    details = ("pairwise check; arbitrary finite families reduce to pairs. "
               f"case counts: nested={cases['nested']}, "
               f"disjoint={cases['disjoint']}, "
               f"overlapping={cases['overlapping']}")
    return found, details


def supports_oracle(g, max_size, seed=0):
    """The counterexamples of ``check_supports``, as a walk over member
    tuples and sets finds them."""
    try:
        require_monomorphic(g, max_size)
    except MonomorphicityError as err:
        return [f"refused: {err}"]
    found = []
    for n in range(max_size + 1):
        masks = list(enumerate_subsets(FiniteSet(n)))
        images = {m.members: frozenset(image_of_inclusion(g, m))
                  for m in masks}
        names = g.elements(n)
        for element in range(g.size(n)):
            family = [m for m in masks if element in images[m.members]]
            keys = {m.members for m in family}
            for ma in family:
                for mb in family:
                    meet = tuple(sorted(set(ma.members) & set(mb.members)))
                    if meet not in keys:
                        found.append(f"X={n} {names[element]}: family not "
                                     f"closed under {ma!r} & {mb!r}")
            for ma in family:
                for mb in masks:
                    if (set(ma.members) <= set(mb.members)
                            and mb.members not in keys):
                        found.append(f"X={n} {names[element]}: family not "
                                     f"upward closed at {ma!r} <= {mb!r}")
            meet = set(range(n))
            for m in family:
                meet &= set(m.members)
            least = tuple(sorted(meet))
            if least not in keys:
                found.append(f"X={n} {names[element]}: intersection of the "
                             f"family is not a member")
                continue
            orders = [list(range(n)), list(range(n - 1, -1, -1))]
            shuffled = list(range(n))
            random.Random(f"{seed}:{n}:{element}").shuffle(shuffled)
            orders.append(shuffled)
            for order in orders:
                res = support(g, n, element, order=order)
                if tuple(res.support.members) != least:
                    found.append(
                        f"X={n} {names[element]}: greedy order {order} "
                        f"gives {res.support!r}, family minimum is "
                        f"{{{','.join(map(str, least))}}}")
                    continue
                back = g.map(inclusion(res.support)).table[res.witness]
                if back != element:
                    found.append(f"X={n} {names[element]}: witness does not "
                                 f"map back to the element")
    return found


def with_truncation(details, found):
    note = (f"counterexamples truncated ({len(found)} found)"
            if len(found) > 25 else "")
    return f"{details}; {note}" if details and note else details or note


SUBSET_ORACLE_CASES = {
    "twins": lambda: zoo_instance("twins"),
    "twins°": lambda: empty_mod_max(zoo_instance("twins")),
    "twins∘": lambda: empty_mod_min(zoo_instance("twins")),
    "upair": lambda: zoo_instance("upair"),
}


@pytest.mark.parametrize("which", sorted(SUBSET_ORACLE_CASES))
def test_subset_check_reports_match_the_member_set_walk(which):
    g = SUBSET_ORACLE_CASES[which]()
    found, details = intersections_oracle(g, 5)
    report = check_intersections(g, 5)
    assert report.counterexamples == tuple(found[:25])
    assert report.details == with_truncation(details, found)
    found = supports_oracle(g, 5)
    report = check_supports(g, 5)
    assert report.counterexamples == tuple(found[:25])
    assert report.details == with_truncation("", found)
    if which == "twins∘":
        assert len(found) == 248


def test_intersection_report_matches_the_member_set_walk_scrambled():
    g = scrambled("power2", 4, seed=7)
    found, details = intersections_oracle(g, 4)
    report = check_intersections(g, 4)
    assert len(found) > 25
    assert report.counterexamples == tuple(found[:25])
    assert report.details == with_truncation(details, found)


@pytest.mark.parametrize("max_size", range(7))
def test_intersection_case_counts_follow_the_closed_forms(max_size):
    # Of the 4^n ordered pairs (A, B) of subsets of n, 2*3^n - 2^n are
    # nested (A <= B, or B <= A, both counted once when A = B) and
    # 3^n - 2^(n+1) + 1 are disjoint without being nested.
    ns = range(max_size + 1)
    nested = sum(2 * 3 ** n - 2 ** n for n in ns)
    disjoint = sum(3 ** n - 2 ** (n + 1) + 1 for n in ns)
    overlapping = sum(4 ** n for n in ns) - nested - disjoint
    report = check_intersections(zoo_instance("identity"), max_size)
    assert report.details.endswith(
        f"case counts: nested={nested}, disjoint={disjoint}, "
        f"overlapping={overlapping}")
    if max_size == 5:
        assert (nested, disjoint, overlapping) == (665, 244, 456)


def test_counterexamples_truncated_with_note():
    class Collapse(FunctorInstance):
        def __init__(self, base):
            super().__init__("collapse")
            self.base = base

        def elements(self, n):
            return self.base.elements(n)

        def map(self, f):
            m = self.base.size(f.cod.size)
            n = self.base.size(f.dom.size)
            table = (0,) * n if m else ()
            return FiniteFunction(FiniteSet(n), FiniteSet(m), table)

    report = check_monomorphic(Collapse(zoo_instance("power2")), 4)
    assert len(report.counterexamples) == 25
    assert "truncated (74 found)" in report.details


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


# ---------------------------------------------------------------------------
# Maximality of the repaired value.


def test_maximality_of_max_modification():
    for name in zoo_names():
        g = zoo_instance(name)
        for probe in (empty_mod_max(g), empty_mod_min(g)):
            report = check_modification_maximality(g, probe, 3)
            assert report.passed, (name, probe.name)


def test_twins_itself_sits_inside_its_repair():
    # Raw twins agrees with itself away from the empty set, and both of
    # its constants land on the surviving class, inside the equalizer.
    tw = zoo_instance("twins")
    report = check_modification_maximality(tw, tw, 3)
    assert report.passed


def test_intermediate_modification_sits_inside_max():
    # const2 admits a modification keeping just one constant at the
    # empty set; it lands strictly between min and max.
    base = zoo_instance("const2")

    class OneConstant(FunctorInstance):
        def __init__(self):
            super().__init__("const2?")

        def elements(self, n):
            return ("a",) if n == 0 else base.elements(n)

        def map(self, f):
            if f.dom.size == 0 and f.cod.size > 0:
                return FiniteFunction(FiniteSet(1), FiniteSet(2), (0,))
            if f.dom.size == 0:
                return FiniteFunction(FiniteSet(1), FiniteSet(1), (0,))
            return base.map(f)

    report = check_modification_maximality(base, OneConstant(), 3)
    assert report.passed
    assert "equalizer size 2" in report.details


def test_probe_exceeding_the_equalizer_cannot_be_lawful():
    # Try to give the identity functor a point at the empty set: the two
    # factorizations of ∅→2 disagree, so the functor laws must break,
    # which is exactly why the equalizer bound is maximal.
    base = zoo_instance("identity")

    class Overfull(FunctorInstance):
        def __init__(self):
            super().__init__("identity+")

        def elements(self, n):
            return ("e",) if n == 0 else base.elements(n)

        def map(self, f):
            if f.dom.size == 0:
                size = self.size(f.cod.size)
                table = (0,) if size else ()
                if f.cod.size == 0:
                    return FiniteFunction(FiniteSet(1), FiniteSet(1), (0,))
                return FiniteFunction(FiniteSet(1), FiniteSet(size), table)
            return base.map(f)

    with pytest.raises(ProbeMismatchError, match="not a functor"):
        check_modification_maximality(base, Overfull(), 3)


def test_probe_disagreeing_on_nonempty_values_is_rejected():
    with pytest.raises(ProbeMismatchError, match="disagrees"):
        check_modification_maximality(zoo_instance("upair"),
                                      zoo_instance("exp2"), 3)


def test_probe_disagreeing_on_an_action_is_rejected():
    up = zoo_instance("upair")
    probe = Tweaked(up, {(1, 2, (0,)): (1,)})
    with pytest.raises(ProbeMismatchError, match="disagrees with upair at"):
        check_modification_maximality(up, probe, 2)
