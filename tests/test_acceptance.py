"""The acceptance gate: eight exhaustive desk-scale criteria.

Each test prints one verdict line; run with ``pytest -s`` to see them
all.  Everything is enumerated up to sets of size 4 and is expected to
finish in well under a minute.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys

from finfun.finset import (
    FiniteSet,
    SubsetMask,
    enumerate_functions,
    enumerate_subsets,
    inclusion,
    is_surjective,
)
from finfun.tabulated import export_tabulated, load_tabulated
from finfun.theory import (
    check_epimorphic,
    check_functor_laws,
    check_intersections,
    degree,
    empty_mod_max,
    empty_mod_min,
    empty_morphism,
    epi_witness,
    image_of_inclusion,
    skeleton,
    support,
)
from finfun.zoo import zoo_instance, zoo_names

MAX = 4

# Raw twins is not monomorphic, so the support-based operations refuse
# it by design; wherever a criterion needs supports "for every zoo
# functor", its repaired form stands in for it.
SUPPORTED = [zoo_instance(n) for n in zoo_names() if n != "twins"] \
    + [empty_mod_max(zoo_instance("twins"))]


def verdict(num: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\n[criterion {num}] {name}: {status}")
    assert not failures, f"criterion {num} ({name}): " + \
        " | ".join(failures[:5])


def test_criterion_1_functor_laws():
    failures = []
    for name in zoo_names():
        report = check_functor_laws(zoo_instance(name), MAX)
        if not report.passed:
            failures.append(f"{name}: {report.counterexamples[0]}")
    verdict(1, "functor laws, all zoo, sizes <= 4", failures)


def test_criterion_2_empty_set_repair():
    failures = []
    tw = zoo_instance("twins")
    if tw.size(0) != 2:
        failures.append(f"|twins(0)| = {tw.size(0)}, expected 2")
    if empty_mod_min(tw).size(0) != 0:
        failures.append("minimal modification of twins not empty at 0")
    if empty_mod_max(tw).size(0) != 1:
        failures.append(f"|twins°(0)| = {empty_mod_max(tw).size(0)}")
    if empty_mod_max(zoo_instance("identity")).elements(0) != ():
        failures.append("identity° should vanish at the empty set")
    if empty_mod_max(zoo_instance("const2")).size(0) != 2:
        failures.append("const2° should keep both constants")
    for name in zoo_names():
        h = empty_mod_max(zoo_instance(name))
        for y in range(1, MAX + 1):
            ys = FiniteSet(y)
            tables = {empty_morphism(h, ys, via=v).table for v in range(y)}
            if len(tables) != 1:
                failures.append(
                    f"{h.name}: map out of the empty set depends on the "
                    f"chosen constant into {y}")
    verdict(2, "empty-set values and choice-free empty morphisms", failures)


def test_criterion_3_supports():
    failures = []
    for g in SUPPORTED:
        for n in range(MAX + 1):
            x = FiniteSet(n)
            masks = list(enumerate_subsets(x))
            images = {m.members: set(image_of_inclusion(g, m))
                      for m in masks}
            for a in range(g.size(n)):
                family = [frozenset(m.members) for m in masks
                          if a in images[m.members]]
                sets = set(family)
                for s, t in itertools.combinations(sets, 2):
                    if s & t not in sets:
                        failures.append(
                            f"{g.name} X={n} elt {a}: family not "
                            f"intersection-closed")
                        break
                least = frozenset.intersection(*family)
                if least not in sets:
                    failures.append(
                        f"{g.name} X={n} elt {a}: no least member")
                    continue
                res = support(g, n, a)
                if frozenset(res.support.members) != least:
                    failures.append(
                        f"{g.name} X={n} elt {a}: greedy != brute force")
                table = g.map(inclusion(res.support)).table
                if table[res.witness] != a:
                    failures.append(
                        f"{g.name} X={n} elt {a}: witness does not map back")
                for seed in (0, 1, 2):
                    order = random.Random(seed).sample(range(n), n)
                    if support(g, n, a, order=order).support != res.support:
                        failures.append(
                            f"{g.name} X={n} elt {a}: order dependent "
                            f"(seed {seed})")
    verdict(3, "supports: least member, greedy, witness, any order",
            failures)


def test_criterion_4_intersections():
    failures = []
    for name in zoo_names():
        h = empty_mod_max(zoo_instance(name))
        report = check_intersections(h, MAX)
        if not report.passed:
            failures.append(f"{h.name}: {report.counterexamples[0]}")
    h = empty_mod_max(zoo_instance("twins"))
    x = FiniteSet(2)
    a, b = SubsetMask.of(x, [0]), SubsetMask.of(x, [1])
    lhs = set(image_of_inclusion(h, a.intersection(b)))
    rhs = set(image_of_inclusion(h, a)) & set(image_of_inclusion(h, b))
    if not rhs:
        failures.append("disjoint case with non-empty intersection missing")
    if lhs != rhs:
        failures.append(f"twins° disjoint case: {lhs} != {rhs}")
    verdict(4, "image of intersection = intersection of images", failures)


def test_criterion_5_epimorphicity():
    failures = []
    for name in zoo_names():
        report = check_epimorphic(zoo_instance(name), MAX)
        if not report.passed:
            failures.append(f"{name}: {report.counterexamples[0]}")
    cases = checked = 0
    for g in SUPPORTED:
        for x in range(MAX + 1):
            for y in range(x + 1):
                for f in enumerate_functions(FiniteSet(x), FiniteSet(y)):
                    if not is_surjective(f):
                        continue
                    table = g.map(f).table
                    for bb in range(g.size(y)):
                        cases += 1
                        if table[epi_witness(g, f, bb)] == bb:
                            checked += 1
    if checked != cases:
        failures.append(f"epi_witness valid in {checked} of {cases} cases")
    verdict(5, f"surjections preserved; {cases} witness cases all valid",
            failures)


def test_criterion_6_hypothesis_necessity(tmp_path):
    failures = []
    proc = subprocess.run(
        [sys.executable, "-m", "finfun", "check", "zoo:twins", "--json"],
        capture_output=True, text=True)
    if proc.returncode != 1:
        failures.append(f"check zoo:twins exited {proc.returncode}, not 1")
    else:
        data = json.loads(proc.stdout)
        mono = next(c for c in data["checks"] if c["name"] == "mono")
        if mono["verdict"] != "fail" or not any(
                "():0->" in c and "c and d" in c
                for c in mono["counterexamples"]):
            failures.append("mono counterexample does not name the "
                            "empty-domain injection")
    table_file = tmp_path / "twins.json"
    table_file.write_text(
        export_tabulated(zoo_instance("twins"), 3), encoding="utf-8")
    load_tabulated(table_file.read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, "-m", "finfun", "supp", str(table_file),
         "--size", "2", "--element", "c"],
        capture_output=True, text=True)
    if proc.returncode != 1:
        failures.append(f"supp on tabulated twins exited {proc.returncode}")
    if "():0->1" not in proc.stderr or "collapses c and d" not in proc.stderr:
        failures.append("refusal does not name the violating injection")
    verdict(6, "non-monomorphic inputs refused with named violations",
            failures)


def test_criterion_7_degree_and_skeleton():
    failures = []
    expected = {"power3": 3, "upair": 2, "const2": 0}
    for name, value in expected.items():
        res = degree(zoo_instance(name), MAX)
        if (res.value, res.exact) != (value, True):
            failures.append(f"degree({name}) = {res!r}, expected "
                            f"{value} (exact)")
    for g in SUPPORTED:
        d = degree(g, MAX).value
        for x in range(MAX + 1):
            full = tuple(range(g.size(x)))
            chain = [skeleton(g, n, x) for n in range(d + 2)]
            if chain[d] != full or chain[d + 1] != full:
                failures.append(f"{g.name}: chain not full at degree {d}, "
                                f"X={x}")
            if any(not set(a) <= set(b) for a, b in zip(chain, chain[1:])):
                failures.append(f"{g.name}: chain not monotone at X={x}")
    verdict(7, "degrees exact; skeleton chain stabilizes at degree",
            failures)


def test_criterion_8_round_trip():
    failures = []
    for name in zoo_names():
        g = zoo_instance(name)
        loaded = load_tabulated(export_tabulated(g, 3))
        for n in range(4):
            if loaded.objects[n] != g.elements(n):
                failures.append(f"{name}: objects differ at size {n}")
        for x in range(4):
            for y in range(4):
                for f in enumerate_functions(FiniteSet(x), FiniteSet(y)):
                    if loaded.map(f).table != g.map(f).table:
                        failures.append(f"{name}: action differs at {f!r}")
                        break
    verdict(8, "tabulated export/reload agrees with direct evaluation",
            failures)
