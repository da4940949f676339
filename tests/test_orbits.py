"""Mono, epi, intersections, supports and degree under Trnková's rules.

Each check decides the functor's laws up to the bound first, and
refuses an instance whose laws fail.  With the laws, F at sizes <= 2
decides the rest: ``check_monomorphic`` and ``require_monomorphic`` read
F(0 -> 1) only, ``check_epimorphic`` reads no map, and
``check_intersections`` and ``check_supports`` read the strays at size 2
(``_strays``), the elements in the images of {0} and {1} but not of the
empty set.  A failing report writes its kept texts from the strays of
each size and its total in closed form.  ``degree`` reads the
codimension-one images at each size up to the bound.  These tests hold the size-2
rule to the oracle's walks at every size, the reports to the oracle
through the shared gate, ``helpers.assert_rules_match_walk``, and the
rules to the laws they need and the sizes they read, counted by
``helpers.Counting``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    SHAPES,
    Counting,
    assert_rules_match_walk,
    family_failures,
    fresh,
    intersections_oracle,
    mono_oracle,
    pair_failures,
    presentations,
    subsets,
)

from finfun.theory import (
    _strays,
    check_epimorphic,
    check_functor_laws,
    check_intersections,
    check_monomorphic,
    check_supports,
    degree,
    empty_mod_max,
    require_monomorphic,
    run_standard_checks,
)
from finfun.zoo import zoo_names

SIZES = range(7)


def test_the_case_counts_are_the_closed_forms():
    tally = {"nested": 0, "disjoint": 0, "overlapping": 0}
    g = fresh("identity")
    for n in SIZES:
        for a in range(1 << n):
            for b in range(1 << n):
                if a & b in (a, b):
                    tally["nested"] += 1
                elif not a & b:
                    tally["disjoint"] += 1
                else:
                    tally["overlapping"] += 1
        assert check_intersections(g, n).details.endswith(
            "case counts: " + ", ".join(f"{k}={v}" for k, v in tally.items()))


# ---------------------------------------------------------------------------
# The rules give the oracle's reports.

CHECKS = [require_monomorphic, check_monomorphic, check_epimorphic,
          check_intersections, check_supports, degree]


@pytest.mark.parametrize("kind", [None, "min", "max"])
@pytest.mark.parametrize("name", zoo_names())
def test_orbits_and_walk_agree_on_the_zoo(name, kind):
    assert_rules_match_walk(name, kind, range(6), CHECKS)


@settings(max_examples=25, deadline=None)
@given(presentations(SHAPES, "ab", 2), st.sampled_from([None, "min", "max"]))
def test_orbits_and_walk_agree_on_random_presentations(pres, kind):
    assert_rules_match_walk(pres, kind, range(5), CHECKS)


# ---------------------------------------------------------------------------
# The rules apply only when the laws are known.


def calls_of(check, g, bound=4):
    before = g.calls
    assert check(g, bound).passed
    return g.calls - before


@pytest.mark.parametrize("check, rules", [
    # F(0 -> 1).
    (check_monomorphic, 1),
    (check_epimorphic, 0),
    # The inclusions of the empty set, {0} and {1} into 2.
    (check_intersections, 3),
], ids=["mono", "epi", "intersections"])
def test_the_fast_path_needs_the_laws(check, rules):
    # What the law walk reads of an instance that proves nothing.
    walk = calls_of(check_functor_laws, Counting(fresh("upair")))
    assert walk > rules
    # No proof and nothing recorded: the laws are walked first, then
    # recorded, and the rules run.
    g = Counting(fresh("upair"))
    assert calls_of(check, g) == walk + rules
    assert g._law_bound == 4
    # A recorded pass below the bound is not enough.
    g = Counting(fresh("upair"))
    g._law_bound = 3
    assert calls_of(check, g) == walk + rules
    # A recorded pass at the bound, or a proof, which is then recorded.
    g = Counting(fresh("upair"))
    g._law_bound = 4
    assert calls_of(check, g) == rules
    g = Counting(fresh("upair"), proof=True)
    assert calls_of(check, g) == rules
    assert g._law_bound == 4


def test_a_broken_injection_off_the_representatives_is_reported():
    # upair's F((0,2): 2 -> 3) collapsed to one point.  Its laws fail, so
    # mono refuses it, naming the laws' first failure; the oracle names
    # the collapse.
    broken = {(2, 3, (0, 2)): (0, 0, 0)}
    g = Counting(fresh("upair"), broken)
    laws = check_functor_laws(g, 4)
    assert not laws.passed and g._law_bound == -1
    assert any("f=(0,2):2->3" in c or "g=(0,2):2->3" in c
               for c in laws.counterexamples)
    refusal = f"functor laws fail: {laws.counterexamples[0]}"
    assert check_monomorphic(g, 4).counterexamples == (f"refused: {refusal}",)
    with pytest.raises(ValueError) as err:
        require_monomorphic(g, 4)
    assert str(err.value) == refusal
    assert mono_oracle(g, 4)[2] == (
        "G(f) not injective for f=(0,2):2->3: collapses p(0,0) and p(0,1)",)
    # Only the law walk keeps it in view: with the laws taken as known,
    # F(0 -> 1) alone passes.
    forged = Counting(fresh("upair"), broken)
    forged._law_bound = 4
    assert check_monomorphic(forged, 4).passed


def test_a_broken_overlapping_pair_is_reported():
    # upair's F of the inclusion of {1} into 3 sent to p(1,2), where it
    # should be p(1,1): the pair {0,1}, {1,2} overlaps, and no disjoint
    # pair sees the change.  Its laws fail, so intersections refuses it;
    # the oracle names the pairs.
    names = fresh("upair").elements(3)
    broken = {(1, 3, (1,)): (names.index("p(1,2)"),)}
    g = Counting(fresh("upair"), broken)
    laws = check_functor_laws(g, 4)
    assert not laws.passed and g._law_bound == -1
    assert any("f=(1):1->3" in c for c in laws.counterexamples)
    report = check_intersections(g, 4)
    assert report.counterexamples == (
        f"refused: functor laws fail: {laws.counterexamples[0]}",)
    assert report.details == ""
    assert intersections_oracle(g, 4)[2] == tuple(
        f"X=3 A={a} B={b}: image of A&B differs from intersection at {e}"
        for a, b, e in [("{1}", "{0,1}", "p(1,2)"), ("{0,1}", "{1}", "p(1,2)"),
                        ("{0,1}", "{1,2}", "p(1,1)"),
                        ("{1,2}", "{0,1}", "p(1,1)")])
    # Only the law walk keeps it in view: with the laws taken as known,
    # the strays at size 2 alone pass.
    forged = Counting(fresh("upair"), broken)
    forged._law_bound = 4
    assert check_intersections(forged, 4).passed


# ---------------------------------------------------------------------------
# Trnková's size-2 rule, held to the oracle's walks.


def assert_the_strays_decide(g, sizes):
    """At each n >= 2 of ``sizes``: the elements that fail some pair of
    the oracle's ``intersections`` walk, or some test of its ``supports``
    families, are exactly ``_strays(g, n)``; there are k of them, with k
    = |F°∅| less the image of F(0 -> 1), which is |F°∅| - |F∅| for a
    monomorphic F; the failing pairs are every disjoint pair of
    non-empty subsets or none; the totals are the closed forms; and
    ``mono`` fails at 1 exactly when it fails at n."""
    k = empty_mod_max(g).size(0) - len(set(g.action(0, 1, ())))
    for n in sizes:
        strays = _strays(g, n)
        assert len(strays) == k, (g.name, n)
        pairs = list(pair_failures(g, n))
        families = list(family_failures(g, n))
        assert set().union(*(d for _, _, d in pairs)) == set(strays)
        assert {e for e, _ in families} == set(strays), (g.name, n)
        disjoint = [(a, b) for a in subsets(n) for b in subsets(n)
                    if a and b and not a & b]
        assert len(disjoint) == 3 ** n - 2 ** (n + 1) + 1
        assert [(a, b) for a, b, _ in pairs] == (disjoint if k else [])
        assert len(families) == k * (len(disjoint) + 1), (g.name, n)
        assert bool(mono_oracle(g, 1)[2]) == bool(mono_oracle(g, n)[2])


@pytest.mark.parametrize("kind", [None, "min", "max"])
@pytest.mark.parametrize("name", zoo_names())
def test_the_strays_decide_on_the_zoo(name, kind):
    assert_the_strays_decide(fresh(name, kind), range(2, 7))


@settings(max_examples=25, deadline=None)
@given(presentations(SHAPES, "ab", 2), st.sampled_from([None, "min", "max"]))
def test_the_strays_decide_on_random_presentations(pres, kind):
    assert_the_strays_decide(fresh(pres, kind), range(2, 5))


@pytest.mark.parametrize("name, kind, largest, failed", [
    ("power3", None, 2, []),
    # The 25 kept texts of each failing check end at size 4.
    ("twins", "min", 4, ["intersections", "supports"]),
])
def test_the_battery_reads_small_sizes_only(name, kind, largest, failed):
    g = Counting(fresh(name, kind), proof=True)
    reports = run_standard_checks(g, 12, skip=("laws",))
    assert g.largest == largest
    assert [r.name for r in reports if not r.passed] == failed
    disjoint = sum(3 ** n - 2 ** (n + 1) + 1 for n in range(13))
    totals = [r.details.split("; ")[-1] for r in reports if not r.passed]
    assert totals == [f"counterexamples truncated ({t} found)"
                      for t in (disjoint, disjoint + 11)][:len(failed)]
