"""Mono, epi, intersections and supports under Trnková's rules.

Each check decides the functor's laws up to the bound first, and
refuses an instance whose laws fail.  With the laws,
``check_monomorphic`` and ``require_monomorphic`` read F on the maps out
of the empty set only, ``check_epimorphic`` reads no map, and
``check_intersections`` reads one disjoint pair of subsets per orbit of
the permutations, and walks the disjoint pairs only when one fails.
These tests hold the representatives to brute force, the reports to
the oracle through the shared gate, ``helpers.assert_rules_match_walk``,
and the rules to the laws they need, counted by ``helpers.Counting``.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    SHAPES,
    Counting,
    assert_rules_match_walk,
    fresh,
    intersections_oracle,
    mono_oracle,
    presentations,
)

from finfun.theory import (
    _disjoint_pair_orbits,
    check_epimorphic,
    check_functor_laws,
    check_intersections,
    check_monomorphic,
    check_supports,
    require_monomorphic,
)
from finfun.zoo import zoo_names

SIZES = range(7)


# ---------------------------------------------------------------------------
# The representatives are complete, by brute force up to size 6.


def test_representative_counts():
    assert [len(list(_disjoint_pair_orbits(n))) for n in (6, 7)] == [28, 36]


def permuted(bits, s):
    return sum(1 << s[i] for i in range(len(s)) if bits >> i & 1)


def test_every_disjoint_pair_lies_in_one_representative_orbit():
    for n in SIZES:
        reps = list(_disjoint_pair_orbits(n))
        assert len(reps) == (n + 1) * (n + 2) // 2
        covered = set()
        for a, b in reps:
            assert not a & b
            orbit = {(permuted(a, s), permuted(b, s))
                     for s in itertools.permutations(range(n))}
            assert not orbit & covered, (a, b)
            covered |= orbit
        assert covered == {(a, b) for a in range(1 << n)
                           for b in range(1 << n) if not a & b}


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
          check_intersections, check_supports]


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


def inclusions(bound):
    """The subset inclusions that the representatives and their meets
    read, at sizes <= bound."""
    return {(n, m) for n in range(bound + 1)
            for a, b in _disjoint_pair_orbits(n) for m in (a, b, a & b)}


@pytest.mark.parametrize("check, rules", [
    # The maps 0 -> y, for y <= 4.
    (check_monomorphic, 5),
    (check_epimorphic, 0),
    (check_intersections, len(inclusions(4))),
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
    # the maps out of the empty set alone pass.
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
    # the disjoint representatives alone pass.
    forged = Counting(fresh("upair"), broken)
    forged._law_bound = 4
    assert check_intersections(forged, 4).passed
