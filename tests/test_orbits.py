"""Mono, epi and intersections on orbit representatives.

Once a functor's laws are known up to the bound, ``check_monomorphic``,
``check_epimorphic``, ``check_intersections`` and ``require_monomorphic``
read F on one map, or one pair of subsets, per orbit of the
permutations, and walk everything only when a representative fails.
These tests hold the representatives to brute force, the reports to the
walk over an instance without a proof, and the fast path to its gate.
"""

from __future__ import annotations

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import SHAPES, Overridden, presentations

from finfun.finset import injective_tables, surjective_tables
from finfun.presentation import PresentationInstance, parse_presentation
from finfun.theory import (
    ModificationKind,
    MonomorphicityError,
    _first_points,
    _sorted_surjections,
    _subset_pair_orbits,
    check_epimorphic,
    check_functor_laws,
    check_intersections,
    check_monomorphic,
    modify,
    require_monomorphic,
    tables_up_to,
)
from finfun.zoo import zoo_names, zoo_source

SIZES = range(7)


def after(g, f):
    """The table of g o f."""
    return tuple(g[v] for v in f)


# ---------------------------------------------------------------------------
# The representatives are complete, by brute force up to size 6.


@pytest.mark.parametrize("y", SIZES)
def test_every_injection_is_a_permutation_after_the_first_points(y):
    perms = list(itertools.permutations(range(y)))
    for x in SIZES:
        expected = set(injective_tables(x, y))
        found = {after(s, i) for i in _first_points(x, y) for s in perms}
        assert found == expected, (x, y)
        assert len(_first_points(x, y)) == (x <= y)


def partitions(x, y):
    """The number of ways to write x as a sum of y positive parts."""
    return sum(sum(parts) == x for parts in
               itertools.combinations_with_replacement(range(1, x + 1), y))


@pytest.mark.parametrize("x", SIZES)
def test_every_surjection_is_one_sorted_surjection_up_to_permutations(x):
    for y in SIZES:
        reps = _sorted_surjections(x, y)
        assert len(reps) == len(set(reps)) == partitions(x, y), (x, y)
        covered = set()
        for p in reps:
            assert list(p) == sorted(p) and len(set(p)) == y, p
            fibres = [p.count(v) for v in range(y)]
            assert fibres == sorted(fibres, reverse=True), p
            # s o p o t over every permutation s of y and t of x.
            lined_up = {after(p, t)
                        for t in itertools.permutations(range(x))}
            orbit = {after(s, q) for q in lined_up
                     for s in itertools.permutations(range(y))}
            assert not orbit & covered, p
            covered |= orbit
        assert covered == set(surjective_tables(x, y)), (x, y)


def test_representative_counts():
    def maps(source, top):
        return len(list(tables_up_to(top, source)))
    assert [maps(_first_points, n) for n in (6, 7)] == [28, 36]
    assert [maps(_sorted_surjections, n) for n in (6, 7)] == [30, 45]
    assert len(list(_subset_pair_orbits(7))) == 120


def permuted(bits, s):
    return sum(1 << s[i] for i in range(len(s)) if bits >> i & 1)


def test_every_pair_of_subsets_lies_in_one_representative_orbit():
    tally = {"nested": 0, "disjoint": 0, "overlapping": 0}
    for n in SIZES:
        reps = list(_subset_pair_orbits(n))
        assert len(reps) == comb(n + 3, 3)
        covered = set()
        for a, b, meet in reps:
            assert meet == a.intersection(b)
            orbit = {(permuted(a.bits, s), permuted(b.bits, s))
                     for s in itertools.permutations(range(n))}
            assert not orbit & covered, (a, b)
            covered |= orbit
            if a.is_subset_of(b) or b.is_subset_of(a):
                tally["nested"] += len(orbit)
            elif not a.bits & b.bits:
                tally["disjoint"] += len(orbit)
            else:
                tally["overlapping"] += len(orbit)
        assert covered == {(a, b) for a in range(1 << n)
                           for b in range(1 << n)}
        # The tallies of the orbits are the closed forms of the report.
        g = PresentationInstance(parse_presentation(zoo_source("identity")))
        assert check_intersections(g, n).details.endswith(
            "case counts: " + ", ".join(f"{k}={v}" for k, v in tally.items()))


# ---------------------------------------------------------------------------
# The orbit path gives the walk's reports.


def fresh(pres, kind=None):
    g = PresentationInstance(pres)
    return g if kind is None else modify(g, ModificationKind(kind))


def reports(g, bound):
    """What ``require_monomorphic`` and the three checks say at bound."""
    try:
        require_monomorphic(g, bound)
        refusal = None
    except MonomorphicityError as err:
        refusal = str(err)
    return [refusal] + [
        (r.name, r.scope, r.counterexamples, r.details)
        for r in (check(g, bound) for check in (
            check_monomorphic, check_epimorphic, check_intersections))]


def assert_orbits_agree_with_the_walk(pres, kind, bounds):
    g, walked = fresh(pres, kind), Overridden(fresh(pres, kind), {})
    for bound in bounds:
        assert reports(g, bound) == reports(walked, bound), (g.name, bound)
        assert g._law_bound == bound and walked._law_bound == -1


@pytest.mark.parametrize("kind", [None, "min", "max"])
@pytest.mark.parametrize("name", zoo_names())
def test_orbits_and_walk_agree_on_the_zoo(name, kind):
    assert_orbits_agree_with_the_walk(parse_presentation(zoo_source(name)),
                                      kind, range(6))


@settings(max_examples=25, deadline=None)
@given(presentations(SHAPES, "ab", 2), st.sampled_from([None, "min", "max"]))
def test_orbits_and_walk_agree_on_random_presentations(pres, kind):
    assert_orbits_agree_with_the_walk(pres, kind, range(5))


# ---------------------------------------------------------------------------
# The fast path runs only when the laws are known.


class Counting(Overridden):
    """Counts the calls of ``action``; ``proof`` is what ``proves_laws``
    answers."""

    def __init__(self, overrides=None, proof=False):
        super().__init__(fresh(parse_presentation(zoo_source("upair"))),
                         overrides or {})
        self.proof = proof
        self.calls = 0

    def action(self, x, y, table):
        self.calls += 1
        return super().action(x, y, table)

    def proves_laws(self, max_size):
        return self.proof


def calls_of(check, g, bound=4):
    before = g.calls
    assert check(g, bound).passed
    return g.calls - before


def inclusions(pairs):
    return {(len(m.ambient), m.bits) for pair in pairs for m in pair}


@pytest.mark.parametrize("check, representatives, every", [
    (check_monomorphic, len(list(tables_up_to(4, _first_points))),
     len(list(tables_up_to(4, injective_tables)))),
    (check_epimorphic, len(list(tables_up_to(4, _sorted_surjections))),
     len(list(tables_up_to(4, surjective_tables)))),
    (check_intersections,
     len(inclusions(p for n in range(5) for p in _subset_pair_orbits(n))),
     sum(2 ** n for n in range(5))),
], ids=["mono", "epi", "intersections"])
def test_the_fast_path_needs_the_laws(check, representatives, every):
    assert representatives < every
    # No proof and nothing recorded: the walk.
    assert calls_of(check, Counting()) == every
    # A recorded pass below the bound is not enough.
    g = Counting()
    g._law_bound = 3
    assert calls_of(check, g) == every
    # A recorded pass at the bound, or a proof, which is then recorded.
    g = Counting()
    g._law_bound = 4
    assert calls_of(check, g) == representatives
    g = Counting(proof=True)
    assert calls_of(check, g) == representatives
    assert g._law_bound == 4


def test_a_broken_injection_off_the_representatives_is_reported():
    # upair's F((0,2): 2 -> 3) collapsed to one point; the representative
    # of its orbit is the inclusion (0,1), which is left as it is.
    broken = {(2, 3, (0, 2)): (0, 0, 0)}
    g = Counting(broken)
    laws = check_functor_laws(g, 4)
    assert not laws.passed and g._law_bound == -1
    assert any("f=(0,2):2->3" in c or "g=(0,2):2->3" in c
               for c in laws.counterexamples)
    mono = check_monomorphic(g, 4)
    assert mono.counterexamples == (
        "G(f) not injective for f=(0,2):2->3: collapses p(0,0) and p(0,1)",)
    with pytest.raises(MonomorphicityError, match=r"\(0,2\):2->3"):
        require_monomorphic(g, 4)
    # Only the gate keeps it in view: with the laws taken as known, the
    # representatives alone pass.
    forged = Counting(broken)
    forged._law_bound = 4
    assert check_monomorphic(forged, 4).passed
