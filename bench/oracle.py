"""Expected answers, written down independently of the program.

The zoo verdicts and degrees are the ones the README states.  Random
presentations have no table, so they are held to theorems instead: a
presentation always defines a functor, so ``laws`` passes, and by
Trnková's theorem every set functor preserves surjections, so ``epi``
passes.  For a lawful functor the same theorem limits where ``mono`` and
``intersections`` can fail: only on maps out of the empty set, and only
on disjoint pairs.  Each function returns a list of error strings; an
empty list means the answer is right.
"""

from __future__ import annotations

import copy
import re

from inputs import Case

CHECKS = ("laws", "mono", "epi", "intersections", "supports")

# (zoo name, modification) -> checks that must fail; every other zoo case
# passes all five.
ZOO_FAILURES = {
    ("twins", None): {"mono", "supports"},
    ("twins", "min"): {"intersections", "supports"},
}

# Exact degrees by case label; twins is not monomorphic, so degree
# refuses it.  twins° is the constant functor {c}, of degree 0; twins∘ is
# empty at the empty set and {c} elsewhere, so c needs one point.
ZOO_DEGREES = {"identity": 1, "const2": 0, "power2": 2, "power3": 3,
               "upair": 2, "exp2": 2, "pointed": 1, "twins": None,
               "twins-max": 0, "twins-min": 1}

_DISJOINT_RE = re.compile(r"A=\{([\d,]*)\} B=\{([\d,]*)\}")
_ARGS_RE = re.compile(r"\(([\d,]*)\)")


def _points(text: str) -> set[int]:
    return {int(p) for p in text.split(",") if p}


def verdict_errors(case: Case, checks: list[dict],
                   names: tuple[str, ...]) -> list[str]:
    """Check a list of ``{name, verdict, counterexamples}`` entries."""
    errors = []
    if [c.get("name") for c in checks] != list(names):
        return [f"{case.label}: checks {[c.get('name') for c in checks]}, "
                f"expected {list(names)}"]
    failed = set()
    for c in checks:
        if c["verdict"] not in ("pass", "fail") or (
                (c["verdict"] == "fail") != bool(c["counterexamples"])):
            errors.append(f"{case.label}: {c['name']} verdict {c['verdict']!r}"
                          f" with {len(c['counterexamples'])} "
                          f"counterexample(s)")
        if c["verdict"] == "fail":
            failed.add(c["name"])
    if case.zoo is not None:
        expected = set(names) & ZOO_FAILURES.get((case.zoo, case.modify),
                                                 set())
        if failed != expected:
            errors.append(f"{case.label}: failed {sorted(failed)}, expected "
                          f"{sorted(expected)}")
    elif failed & {"laws", "epi"}:
        errors.append(f"{case.label}: a presentation failed "
                      f"{sorted(failed & {'laws', 'epi'})}")
    if "laws" in failed:
        return errors
    for c in checks:
        for text in c["counterexamples"]:
            if c["name"] == "mono" and "f=():0->" not in text:
                errors.append(f"{case.label}: mono failed on a map out of a "
                              f"non-empty set: {text}")
            if c["name"] == "intersections":
                m = _DISJOINT_RE.search(text)
                if m is None or _points(m.group(1)) & _points(m.group(2)):
                    errors.append(f"{case.label}: intersections failed on a "
                                  f"pair that is not disjoint: {text}")
    return errors


def report_errors(case: Case, exit_code: int, payload: dict,
                  max_size: int) -> list[str]:
    """Check one ``finfun check --json`` report and its exit code."""
    keys = {"tool_version", "functor", "max_size", "checks"}
    if not isinstance(payload, dict) or set(payload) != keys:
        return [f"{case.label}: report is not {sorted(keys)}"]
    errors = verdict_errors(case, payload["checks"], CHECKS)
    if payload["max_size"] != max_size:
        errors.append(f"{case.label}: max_size {payload['max_size']}")
    failed = any(c["verdict"] == "fail" for c in payload["checks"])
    if exit_code != (1 if failed else 0):
        errors.append(f"{case.label}: exit code {exit_code} for a report "
                      f"with{'' if failed else 'out'} failures")
    return errors


def same_report(case: Case, got: dict, reference: dict,
                what: str) -> list[str]:
    """Two reports on one functor agree apart from its name."""
    strip = lambda p: {k: v for k, v in p.items() if k != "functor"}
    if strip(got) != strip(reference):
        return [f"{case.label}: {what} differ"]
    return []


def degree_errors(case: Case, value: int | None, exact: bool,
                  mono_passed: bool) -> list[str]:
    """``value`` is None when degree refused a non-monomorphic functor."""
    if case.zoo is not None:
        expected = ZOO_DEGREES[case.label]
        if value != expected or (expected is not None and not exact):
            return [f"{case.label}: degree {value} (exact={exact}), "
                    f"expected {expected}"]
        return []
    if not mono_passed:
        return [] if value is None else [
            f"{case.label}: degree answered for a non-monomorphic functor"]
    if value is None or not exact or value > case.max_arity:
        return [f"{case.label}: degree {value} (exact={exact}) for largest "
                f"arity {case.max_arity}"]
    return []


def support_errors(case: Case, element: str, members: tuple[int, ...],
                   witness_maps_back: bool) -> list[str]:
    """A zoo element's support is the set of its argument points; any
    witness must map back to the element."""
    errors = []
    if not witness_maps_back:
        errors.append(f"{case.label}: support witness of {element} does not "
                      f"map back")
    if case.zoo is not None:
        m = _ARGS_RE.search(element)
        expected = _points(m.group(1)) if m else set()
        if set(members) != expected:
            errors.append(f"{case.label}: support of {element} is "
                          f"{sorted(members)}, expected {sorted(expected)}")
    return errors


def self_test() -> list[str]:
    """Feed the oracle wrong answers; return the ones it did not catch."""
    power3 = Case("power3", "", zoo="power3")
    twins = Case("twins", "", zoo="twins")
    good = {"tool_version": "0", "functor": "power3", "max_size": 4,
            "checks": [{"name": n, "verdict": "pass", "counterexamples": []}
                       for n in CHECKS]}
    wrong_verdict = copy.deepcopy(good)
    wrong_verdict["checks"][1] = {"name": "mono", "verdict": "fail",
                                  "counterexamples": ["G(f) not injective"]}
    twins_passing = dict(good, functor="twins")
    missed = []
    if report_errors(power3, 0, good, 4):
        missed.append("a correct report was rejected")
    for label, errors in [
            ("wrong verdict", report_errors(power3, 1, wrong_verdict, 4)),
            ("twins passing", report_errors(twins, 0, twins_passing, 4)),
            ("wrong exit code", report_errors(power3, 1, good, 4)),
            ("differing reports", same_report(power3, wrong_verdict, good,
                                              "reports")),
            ("wrong degree", degree_errors(power3, 2, True, True)),
            ("twins degree", degree_errors(twins, 0, True, True)),
            ("wrong support", support_errors(power3, "t(0,2,2)", (0, 1, 2),
                                             True)),
            ("bad witness", support_errors(power3, "t(0,2,2)", (0, 2),
                                           False))]:
        if not errors:
            missed.append(label)
    return missed
