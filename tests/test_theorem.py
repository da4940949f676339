"""The paper's theorem and Trnková's rules, cross-checked on random
presentations.

Trnková (Comment. Math. Univ. Carolinae 1969; Adámek & Trnková 1990):
every set functor preserves surjections, preserves injections except
possibly those out of the empty set (so it is monomorphic exactly when
F(∅→1) is injective), and preserves every intersection of two subsets
except possibly an empty one.  The paper's theorem: a monomorphic F is
epimorphic, and its maximal ∅-modification F° preserves intersections.
F° is monomorphic whatever F is, so F° passes the whole battery.

The exhaustive checks stay the source of the verdicts; these tests only
require that their reports never contradict the rules.  Once the laws
are known, the checks apply the rules themselves, so the rules are also
required of the walk over every map and pair, on an instance that
proves no laws.
"""

from __future__ import annotations

import re

from hypothesis import example, given, settings
from helpers import SHAPES, Overridden, presentations

from finfun.finset import FiniteSet, empty_function, is_injective
from finfun.presentation import PresentationInstance, parse_presentation
from finfun.theory import (
    check_epimorphic,
    check_intersections,
    check_monomorphic,
    empty_mod_max,
    run_standard_checks,
)
from finfun.zoo import zoo_source

SIZE = 3

_PAIR_RE = re.compile(r"A=\{([\d,]*)\} B=\{([\d,]*)\}")


def _members(text):
    return set(map(int, text.split(","))) if text else set()


@settings(max_examples=100, deadline=None)
@given(presentations(SHAPES, "ab", 3))
@example(parse_presentation(zoo_source("twins")))
@example(parse_presentation("shape u/1\neq u(a) = u(b)"))
def test_checks_obey_trnkova_and_the_paper(pres):
    g = PresentationInstance(pres)
    walked = Overridden(PresentationInstance(pres), {})
    for h in (g, walked):
        assert check_epimorphic(h, SIZE).passed

        mono = check_monomorphic(h, SIZE)
        assert all(c.startswith("G(f) not injective for f=():0->")
                   for c in mono.counterexamples)
        assert mono.passed == is_injective(
            h.map(empty_function(FiniteSet(1))))

        for c in check_intersections(h, SIZE).counterexamples:
            a, b = _PAIR_RE.search(c).groups()
            assert not _members(a) & _members(b), c
    assert g._law_bound == SIZE and walked._law_bound == -1

    repaired = run_standard_checks(empty_mod_max(g), SIZE)
    assert [r.name for r in repaired if not r.passed] == []
