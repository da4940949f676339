"""The paper's theorem and Trnková's rules, cross-checked on random
presentations.

Trnková (Comment. Math. Univ. Carolinae 1969; Adámek & Trnková 1990):
every set functor preserves surjections, preserves injections except
possibly those out of the empty set (so it is monomorphic exactly when
F(∅→1) is injective), and preserves every intersection of two subsets
except possibly an empty one.  The paper's theorem: a monomorphic F is
epimorphic, and its maximal ∅-modification F° preserves intersections.
F° is monomorphic whatever F is, so F° passes the whole battery.  F° is
also the largest: any functor P that agrees with F on non-empty sets
sends P∅ into the equalizer of the two constants 1 -> 2 under F, the
subset of F1 that F°∅ keeps.  With the laws, the support families are
upward closed, and they are closed under intersection exactly when the
images of inclusions are; so ``supports`` passes exactly when ``mono``
and ``intersections`` do.

The exhaustive checks stay the source of the verdicts; these tests only
require that their reports never contradict the rules.  The checks
decide the laws and then apply the rules themselves, so the rules are
also required of the oracle of ``helpers``, which walks every map and
pair.  A modification takes its base's laws without a walk of its own,
so the walk is also required to find none broken in it.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import (
    SHAPES,
    OnePoint,
    assert_rules_match_walk,
    epi_oracle,
    fresh,
    injective,
    intersections_oracle,
    mono_oracle,
    out_of_empty_failures,
    presentations,
    zoo_bases,
)

from finfun.finset import function_tables
from finfun.presentation import parse_presentation
from finfun.theory import (
    ModificationKind,
    check_epimorphic,
    check_functor_laws,
    check_intersections,
    check_monomorphic,
    check_supports,
    degree,
    empty_mod_max,
    empty_mod_min,
    law_failures,
    modify,
    run_standard_checks,
    support,
    tables_up_to,
)
from finfun.zoo import zoo_instance, zoo_names, zoo_source

SIZE = 3

_PAIR_RE = re.compile(r"A=\{([\d,]*)\} B=\{([\d,]*)\}")


def _members(text):
    return set(map(int, text.split(","))) if text else set()


@settings(max_examples=100, deadline=None)
@given(presentations(SHAPES, "ab", 3))
@example(parse_presentation(zoo_source("twins")))
@example(parse_presentation("shape u/1\neq u(a) = u(b)"))
def test_checks_obey_trnkova_and_the_paper(pres):
    g = fresh(pres)
    assert epi_oracle(g, SIZE)[2] == ()

    mono = mono_oracle(g, SIZE)[2]
    assert all(c.startswith("G(f) not injective for f=():0->") for c in mono)
    assert (not mono) == injective(g.action(0, 1, ()))

    for c in intersections_oracle(g, SIZE)[2]:
        a, b = _PAIR_RE.search(c).groups()
        assert not _members(a) & _members(b), c

    assert_rules_match_walk(pres, None, [SIZE], [
        check_monomorphic, check_epimorphic, check_intersections])

    repaired = run_standard_checks(empty_mod_max(g), SIZE)
    assert [r.name for r in repaired if not r.passed] == []


def _assert_laws_inherited(base, kind, top):
    """For each bound n <= top: the walk finds no failure in the laws of
    the modification of ``base``, and, once the base's laws are known,
    ``check_functor_laws`` passes the modification reading no map of it
    or of the base."""
    for n in range(top + 1):
        h = modify(base, kind)
        assert list(law_failures(h.action, [h.size(k) for k in
                                            range(n + 1)])) == [], (h.name, n)
        assert check_functor_laws(base, n).passed
        calls = []
        for g in (h, base):
            g.action = lambda *key, read=g.action: (
                calls.append(key) or read(*key))
        report = check_functor_laws(h, n)
        for g in (h, base):
            del g.action
        assert report.passed and calls == [], (h.name, n)
        assert h._law_bound == n


@pytest.mark.parametrize("kind", list(ModificationKind),
                         ids=lambda k: k.value)
@pytest.mark.parametrize("name", zoo_names())
def test_a_modification_has_the_laws_of_its_base(name, kind):
    for base in zoo_bases(name):
        _assert_laws_inherited(base, kind, 4)


@settings(max_examples=50, deadline=None)
@given(presentations(SHAPES, "ab", 3))
def test_a_modification_has_the_laws_of_its_base_random(pres):
    for kind in ModificationKind:
        _assert_laws_inherited(fresh(pres), kind, 3)
        h = fresh(pres, kind)
        assert out_of_empty_failures(h, 3) == [], h.name


def _probes():
    """(F, P) with P agreeing with F on non-empty sets: both
    modifications of every zoo functor, raw twins against itself (both
    of its constants land on the class that survives), and const2 with
    one constant at ∅, strictly between its two modifications."""
    for name in zoo_names():
        f = zoo_instance(name)
        yield pytest.param(f, empty_mod_min(f), id=f"{name}-min")
        yield pytest.param(f, empty_mod_max(f), id=f"{name}-max")
    yield pytest.param(zoo_instance("twins"), zoo_instance("twins"),
                       id="twins-itself")
    yield pytest.param(zoo_instance("const2"),
                       OnePoint(zoo_instance("const2")), id="const2-one-point")


@pytest.mark.parametrize("f, probe", _probes())
def test_lawful_probes_land_inside_the_maximal_modification(f, probe):
    assert all(probe.elements(n) == f.elements(n) for n in (1, 2, 3))
    assert all(probe.action(*key) == f.action(*key)
               for key in tables_up_to(3) if key[0])
    # The equalizer is read off the maps 1 -> 2, so the laws at 2 suffice.
    assert check_functor_laws(probe, 2).passed
    assert set(probe.action(0, 1, ())) <= set(empty_mod_max(f).empty_classes)


def test_a_point_beyond_the_equalizer_breaks_the_laws():
    # The identity's equalizer is empty: the two constants 1 -> 2 send
    # e to different places, and ∅ -> 2 cannot follow both.
    report = check_functor_laws(OnePoint(zoo_instance("identity")), 2)
    assert report.counterexamples[0] == \
        "F(g o f) != F(g) o F(f) for f=():0->1, g=(1):1->2"


def _supports_agree_with_mono_and_intersections(g, max_size):
    verdict = {r.name: r.passed for r in run_standard_checks(g, max_size)}
    assert verdict["laws"], g.name
    assert verdict["supports"] == (verdict["mono"]
                                   and verdict["intersections"]), g.name


@pytest.mark.parametrize("name", zoo_names())
def test_zoo_supports_pass_exactly_when_mono_and_intersections_do(name):
    for max_size in range(6):
        for g in (zoo_instance(name), empty_mod_min(zoo_instance(name)),
                  empty_mod_max(zoo_instance(name))):
            _supports_agree_with_mono_and_intersections(g, max_size)


@settings(max_examples=400, deadline=None)
@given(presentations(SHAPES, "ab", 3), st.integers(0, 4),
       st.sampled_from(["plain", "min", "max"]))
def test_supports_pass_exactly_when_mono_and_intersections_do(pres, max_size,
                                                              which):
    _supports_agree_with_mono_and_intersections(fresh(pres, which), max_size)


# The binomial transform of the sizes.  Let F be monomorphic with a least
# support for every element.  An element of F(n) with support A of size k
# is F(A -> n) of exactly one element of F(A) whose support is all of A,
# so F(n) holds C(n, k)·g(k) elements with a support of size k, where
# g(k) = Σ_j (−1)^(k−j) C(k, j)|F(j)| counts the elements of F(k) with
# full support (inclusion-exclusion over the subsets of k).  So the
# degree up to n is the largest k <= n with g(k) != 0.  g reads only the
# sizes, not ``support`` or ``degree``.


def _full_support_counts(g, max_size):
    sizes = [g.size(n) for n in range(max_size + 1)]
    return [sum((-1) ** (k - j) * comb(k, j) * sizes[j] for j in range(k + 1))
            for k in range(max_size + 1)]


def _check_binomial_transform(g, max_size):
    """Assert the histogram and the degree against g(k) when ``mono`` and
    ``supports`` pass up to max_size; return whether they did."""
    if not (check_monomorphic(g, max_size).passed
            and check_supports(g, max_size).passed):
        return False
    full = _full_support_counts(g, max_size)
    for n in range(max_size + 1):
        histogram = Counter(len(support(g, n, a).support)
                            for a in range(g.size(n)))
        assert histogram == Counter({k: comb(n, k) * full[k]
                                     for k in range(n + 1) if full[k]}), \
            (g.name, n, full)
    assert degree(g, max_size).value == max(
        (k for k, c in enumerate(full) if c), default=0), (g.name, full)
    return True


def test_support_sizes_are_the_binomial_transform_of_the_sizes():
    failing = {}
    for name in zoo_names():
        for g in (zoo_instance(name), empty_mod_min(zoo_instance(name)),
                  empty_mod_max(zoo_instance(name))):
            if not _check_binomial_transform(g, 6):
                failing[g.name] = _full_support_counts(g, 6)
    # The converse is no theorem, but each zoo instance that fails
    # ``supports`` does have a negative g(k).
    assert sorted(failing) == ["const2∘", "pointed∘", "twins", "twins∘"]
    assert all(min(full) < 0 for full in failing.values()), failing


@settings(max_examples=200, deadline=None)
@given(presentations(SHAPES, "ab", 3), st.integers(0, 4),
       st.sampled_from(["plain", "min", "max"]))
def test_support_sizes_are_the_binomial_transform_random(pres, max_size,
                                                         which):
    _check_binomial_transform(fresh(pres, which), max_size)


# The coend oracle.  For F monomorphic of degree d, the canonical map
# (k, a, f) -> F(f)(a) from ∫^{k<=d} F(k) × N^k to F(N) is onto for every
# N <= the bound at which d was found, since every element there has a
# support of at most d points.  It is one to one at every N <= B, B >= 2,
# exactly when ``intersections`` passes at B or d >= 2.  A stray x (the
# strays of ``theory._strays``) is glued across constants only through
# F(2), where F(i_0)x = F(i_1)x for the two maps 1 -> 2; with d <= 1 its N
# copies (1, x, c_v) stay apart though they have one image in F(N).  So
# "``supports`` passes" is not what the coend decides: a stray over a
# binary shape is glued.

STRAY_PAIR = "shape c/0\nshape d/0\nshape p/2\neq p(a,a) = p(b,b)"


def _coend_is_bijective(g, d, n):
    """Whether ∫^{k<=d} F(k) × n^k -> F(n) is a bijection, by union-find
    over the triples (k, a, f), related by every h: k -> k', k, k' <= d:
    (k', F(h)(a), f') ~ (k, a, f' o h).  Reads F through ``action`` and
    ``elements`` only."""
    parent = {}

    def find(t):
        while parent.setdefault(t, t) != t:
            t = parent[t]
        return t

    for k, k2 in itertools.product(range(d + 1), repeat=2):
        for h in function_tables(k, k2):
            fh = g.action(k, k2, h)
            for a, f2 in itertools.product(range(len(g.elements(k))),
                                           function_tables(k2, n)):
                parent[find((k2, fh[a], f2))] = find(
                    (k, a, tuple(f2[i] for i in h)))
    images = {}
    for k in range(d + 1):
        for f in function_tables(k, n):
            ff = g.action(k, n, f)
            for a in range(len(g.elements(k))):
                images.setdefault(find((k, a, f)), set()).add(ff[a])
    return sorted(map(tuple, images.values())) == \
        [(e,) for e in range(len(g.elements(n)))]


def _assert_coend_claim(g, bound):
    """The claim above for g at B = bound >= 2; returns (d, whether
    ``intersections`` passes, whether the coend is bijective), or None
    when g is not monomorphic."""
    if not check_monomorphic(g, bound).passed:
        return None
    d = degree(g, bound).value
    passed = check_intersections(g, bound).passed
    bijective = all(_coend_is_bijective(g, d, n) for n in range(bound + 1))
    assert bijective == (passed or d >= 2), (g.name, bound, d)
    return d, passed, bijective


@pytest.mark.parametrize("name", zoo_names())
def test_coend_is_bijective_exactly_when_intersections_pass_or_d_is_2(name):
    for which in ("plain", "min", "max"):
        for bound in (3, 4):
            g = fresh(name, which)
            assert _assert_coend_claim(g, bound) or g.name == "twins"


@pytest.mark.parametrize("pres, which, expected", [
    ("const2", "min", (1, False, False)),
    ("twins", "min", (1, False, False)),
    (parse_presentation(STRAY_PAIR), "plain", (2, False, True)),
], ids=["const2-min", "twins-min", "stray-pair"])
def test_coend_pins(pres, which, expected):
    g = fresh(pres, which)
    assert _assert_coend_claim(g, 4) == expected
    # ``supports`` fails on all three, though the stray pair's coend is
    # bijective.
    assert check_supports(g, 4).passed == expected[1]


@settings(max_examples=100, deadline=None)
@given(presentations(SHAPES, "ab", 3), st.integers(2, 3),
       st.sampled_from(["plain", "min", "max"]))
@example(parse_presentation(STRAY_PAIR), 3, "plain")
def test_coend_is_bijective_exactly_when_intersections_pass_or_d_is_2_random(
        pres, bound, which):
    _assert_coend_claim(fresh(pres, which), bound)
