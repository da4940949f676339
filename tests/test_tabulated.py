"""Loading, validating and exporting tabulated functors."""

from __future__ import annotations

import itertools
import json
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import SHAPES, fresh, presentations

from finfun.finset import (FiniteFunction, FiniteSet, enumerate_functions,
                           table_repr)
from finfun.tabulated import (
    TabulatedError,
    TabulatedInstance,
    export_tabulated,
    load_tabulated,
)
from finfun.presentation import PresentationInstance, parse_presentation
from finfun.theory import (ModificationKind, SizeBoundError,
                           check_functor_laws, empty_mod_max, modify,
                           tables_up_to)
from finfun.zoo import zoo_instance, zoo_names


def export_dict(name, max_size=2):
    return json.loads(export_tabulated(zoo_instance(name), max_size))


def load_dict(data):
    return load_tabulated(json.dumps(data))


# ---------------------------------------------------------------------------
# Round trips.


@pytest.mark.parametrize("name", zoo_names())
def test_round_trip_agrees_with_direct_evaluation(name):
    g = zoo_instance(name)
    t = load_tabulated(export_tabulated(g, 3), name=name)
    for n in range(4):
        assert t.elements(n) == g.elements(n)
    for x in range(4):
        for y in range(4):
            for f in enumerate_functions(FiniteSet(x), FiniteSet(y)):
                assert t.map(f).table == g.map(f).table


def test_round_trip_of_modified_functor():
    g = empty_mod_max(zoo_instance("twins"))
    t = load_tabulated(export_tabulated(g, 2))
    assert t.elements(0) == ("c",)
    assert t.map(FiniteFunction(FiniteSet(0), FiniteSet(2), ())).table == (0,)


@pytest.mark.parametrize("kind", ["min", "max"])
def test_a_modified_tabulation_reuses_the_law_walk_of_its_load(
        kind, monkeypatch):
    # The load walked every composable pair.  A modification's laws are
    # its base's, so its law check reads no map.
    t = load_tabulated(export_tabulated(zoo_instance("upair"), 3))
    g = modify(t, ModificationKind(kind))
    calls = []
    action = t.action
    monkeypatch.setattr(t, "action",
                        lambda *key: calls.append(key) or action(*key))
    assert check_functor_laws(g, 3).passed and g._law_bound == -1
    assert calls == []


def test_export_is_deterministic():
    a = export_tabulated(zoo_instance("upair"), 2)
    b = export_tabulated(zoo_instance("upair"), 2)
    assert a == b


def test_export_covers_all_functions():
    data = export_dict("pointed", 2)
    # 1 + 2 + 3 maps into sizes 0..2 from 0, plus 0+2+4... count directly:
    expected = sum(y ** x for x in range(3) for y in range(3))
    assert len(data["morphisms"]) == expected
    assert data["max_size"] == 2
    assert data["objects"]["0"] == ["base"]
    assert data["objects"]["2"] == ["pt(0)", "pt(1)", "base"]


def json_dumps_export(g, max_size):
    """The writer ``export_tabulated`` replaced, kept as its byte oracle:
    one payload dict through ``json.dumps(indent=2, ensure_ascii=False)``."""
    names = [g.elements(n) for n in range(max_size + 1)]
    objects = {str(n): list(ns) for n, ns in enumerate(names)}
    morphisms = [{
        "dom": x, "cod": y, "table": list(table),
        "action": {names[x][i]: names[y][v]
                   for i, v in enumerate(g.action(x, y, table))},
    } for x, y, table in tables_up_to(max_size)]
    payload = {"max_size": max_size, "objects": objects,
               "morphisms": morphisms}
    return json.dumps(payload, indent=2, ensure_ascii=False)


# |F(n)| = n^5 exceeds n^m, the number of maps m -> n, when n >= 2 and
# m < 5: up to size 3 the blocks into sizes >= 2 join each entry from its
# key and target, where the others pick it from strings built per block.
T5 = "shape t/5\n"


@pytest.mark.parametrize("name", [*zoo_names(), T5], ids=str.strip)
def test_export_writes_the_json_dumps_bytes_for_the_zoo(name):
    g = fresh(parse_presentation(name)) if name == T5 else zoo_instance(name)
    for max_size in range(4):
        assert export_tabulated(g, max_size) == json_dumps_export(g, max_size)


@pytest.mark.parametrize("name, max_size", [("power3", 4), (T5, 3)],
                         ids=["power3", "t5"])
def test_export_peaks_within_a_small_multiple_of_its_text(name, max_size):
    # The text, its parts and the instance's caches, filled by the export;
    # the per-block entry strings are built only where they cost no more
    # than the entries written.
    g = fresh(parse_presentation(name) if name == T5 else name)
    tracemalloc.start()
    try:
        text = export_tabulated(g, max_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * len(text), peak / len(text)


@st.composite
def renamed(draw, g, max_size):
    """g's tables up to max_size as a TabulatedInstance whose element names
    are drawn text, kept distinct by an index suffix."""
    loaded = load_tabulated(export_tabulated(g, max_size))
    objects = tuple(
        tuple(draw(st.text(st.sampled_from('aé"\\☃\n\t\x00\u2028'),
                           max_size=3)) + f"#{j}" for j in range(len(names)))
        for names in loaded.objects)
    return TabulatedInstance(objects, loaded.morphisms, name=g.name)


@settings(max_examples=60, deadline=None)
@given(presentations(SHAPES, "ab", 3), st.integers(0, 3),
       st.sampled_from([None, *ModificationKind]), st.data())
def test_export_writes_the_json_dumps_bytes(pres, max_size, kind, data):
    g = PresentationInstance(pres)
    if kind is not None:
        g = modify(g, kind)
    assert export_tabulated(g, max_size) == json_dumps_export(g, max_size)
    h = data.draw(renamed(g, max_size))
    text = export_tabulated(h, max_size)
    assert text == json_dumps_export(h, max_size)
    assert load_tabulated(text).objects == h.objects


def test_export_refuses_a_negative_bound_as_before():
    g = zoo_instance("upair")
    with pytest.raises(ValueError) as before:
        json_dumps_export(g, -1)
    with pytest.raises(ValueError) as after:
        export_tabulated(g, -1)
    assert str(after.value) == str(before.value) == (
        "size must be non-negative, got -1")


# ---------------------------------------------------------------------------
# Size bound.


def test_size_bound_enforced():
    t = load_tabulated(export_tabulated(zoo_instance("upair"), 2),
                       name="upair")
    assert t.max_size == 2
    assert t.size(2) == 3
    with pytest.raises(SizeBoundError, match="tabulated up to size 2"):
        t.elements(3)
    with pytest.raises(SizeBoundError):
        t.map(FiniteFunction(FiniteSet(3), FiniteSet(1), (0, 0, 0)))


def test_negative_size_rejected():
    t = load_tabulated(export_tabulated(zoo_instance("upair"), 2), name="u2")
    with pytest.raises(SizeBoundError, match="queried at -1"):
        t.elements(-1)


def test_load_keeps_the_name():
    text = export_tabulated(zoo_instance("upair"), 2)
    assert load_tabulated(text, name="u2").name == "u2"
    assert load_tabulated(text).name == "tabulated"


def test_max_arity_unknown_for_tabulated():
    t = load_tabulated(export_tabulated(zoo_instance("upair"), 2))
    assert t.max_arity is None


# ---------------------------------------------------------------------------
# Format diagnostics.


def test_rejects_invalid_json():
    with pytest.raises(TabulatedError, match="not valid JSON"):
        load_tabulated("{nope")


def test_rejects_missing_and_extra_fields():
    data = export_dict("upair")
    del data["objects"]
    with pytest.raises(TabulatedError, match="missing field 'objects'"):
        load_dict(data)
    data = export_dict("upair")
    data["comment"] = "hi"
    with pytest.raises(TabulatedError, match="unexpected top-level"):
        load_dict(data)


def test_rejects_missing_object_size():
    data = export_dict("upair")
    del data["objects"]["1"]
    with pytest.raises(TabulatedError, match="missing object list for size 1"):
        load_dict(data)


def test_rejects_out_of_range_object_size():
    data = export_dict("upair")
    data["objects"]["7"] = []
    with pytest.raises(TabulatedError, match="out-of-range size"):
        load_dict(data)


def test_rejects_duplicate_element_names():
    data = export_dict("upair")
    data["objects"]["1"] = ["p(0,0)", "p(0,0)"]
    with pytest.raises(TabulatedError, match="duplicate names"):
        load_dict(data)


@pytest.mark.parametrize("edit, message", [
    (lambda d: [d], "top level must be an object"),
    (lambda d: {**d, "max_size": -1},
     "'max_size' must be a non-negative integer"),
    # JSON true is a Python bool, and bool is a subclass of int.
    (lambda d: {**d, "max_size": True},
     "'max_size' must be a non-negative integer"),
    (lambda d: {**d, "objects": [d["objects"]]}, "'objects' must be a map"),
    (lambda d: {**d, "objects": {**d["objects"], "1": "p(0,0)"}},
     "object list for size 1 must be a list of strings"),
    (lambda d: {**d, "objects": {**d["objects"], "2": ["p(0,0)", 1]}},
     "object list for size 2 must be a list of strings"),
    (lambda d: {**d, "morphisms": {"0": d["morphisms"][0]}},
     "'morphisms' must be a list"),
    (lambda d: {**d, "morphisms": [*d["morphisms"], [0, 0, [], {}]]},
     "morphism records must be objects"),
    (lambda d: {**d, "morphisms": [
        {k: v for k, v in d["morphisms"][0].items() if k != "action"},
        *d["morphisms"][1:]]},
     "morphism record has fields ['cod', 'dom', 'table'], expected "
     "dom/cod/table/action"),
    (lambda d: {**d, "morphisms": [{**d["morphisms"][0], "note": 1}]},
     "morphism record has fields ['action', 'cod', 'dom', 'note', 'table'], "
     "expected dom/cod/table/action"),
    (lambda d: {**d, "morphisms": [{**d["morphisms"][0], "action": []}]},
     "morphism 'action' must be a map"),
], ids=["top-level", "max-size-negative", "max-size-true", "objects",
        "object-list-string", "object-list-non-string", "morphisms",
        "record", "record-fields-missing", "record-fields-extra", "action"])
def test_refusals_name_the_rule_in_full(edit, message):
    with pytest.raises(TabulatedError) as err:
        load_dict(edit(export_dict("upair")))
    assert str(err.value) == message


def test_rejects_bad_morphism_record():
    for field in ("dom", "cod"):
        data = export_dict("upair")
        rec = next(m for m in data["morphisms"]
                   if m["dom"] == 1 and m["cod"] == 1)
        rec[field] = True
        with pytest.raises(TabulatedError,
                           match=f"morphism {field} True out of range"):
            load_dict(data)


def test_rejects_bad_function_table():
    data = export_dict("upair")
    rec = next(m for m in data["morphisms"] if m["dom"] == 2 and m["cod"] == 1)
    rec["table"] = [0, 7]
    with pytest.raises(TabulatedError, match="bad function table"):
        load_dict(data)
    data = export_dict("upair")
    rec = next(m for m in data["morphisms"]
               if m["dom"] == 2 and m["cod"] == 2 and m["table"] == [0, 1])
    rec["table"] = [False, True]
    with pytest.raises(TabulatedError, match="bad function table"):
        load_dict(data)


def test_rejects_incomplete_action():
    data = export_dict("upair")
    rec = next(m for m in data["morphisms"]
               if m["dom"] == 2 and m["cod"] == 2 and m["table"] == [0, 1])
    del rec["action"]["p(0,1)"]
    with pytest.raises(TabulatedError) as err:
        load_dict(data)
    assert str(err.value) == ("action of (0,1):2->2 must cover exactly the "
                              "elements of F(2)")


def test_rejects_unknown_action_target():
    data = export_dict("upair")
    rec = next(m for m in data["morphisms"]
               if m["dom"] == 1 and m["cod"] == 2 and m["table"] == [0])
    rec["action"]["p(0,0)"] = "p(5,5)"
    with pytest.raises(TabulatedError) as err:
        load_dict(data)
    assert str(err.value) == ("action of (0):1->2 sends 'p(0,0)' to unknown "
                              "element 'p(5,5)'")


def test_rejects_non_string_action_target():
    for bad in (["p(0,0)"], {"p": "p(0,0)"}, 0, None, True):
        data = export_dict("upair", 1)
        rec = next(m for m in data["morphisms"]
                   if m["dom"] == 1 and m["cod"] == 1)
        rec["action"]["p(0,0)"] = bad
        with pytest.raises(TabulatedError) as err:
            load_dict(data)
        assert str(err.value) == (f"action of (0):1->1 sends 'p(0,0)' to "
                                  f"non-string {bad!r}")


def test_rejects_duplicate_morphism():
    data = export_dict("upair")
    data["morphisms"].append(dict(data["morphisms"][0]))
    with pytest.raises(TabulatedError) as err:
        load_dict(data)
    assert str(err.value) == "duplicate morphism ():0->0"


def test_valid_load_names_each_record_at_most_once(monkeypatch):
    # Error texts name a record's map; a valid load should not build
    # them for every element just in case.
    text = export_tabulated(zoo_instance("upair"), 3)
    records = len(json.loads(text)["morphisms"])
    calls = []

    def counting(*key):
        calls.append(key)
        return table_repr(*key)

    monkeypatch.setattr("finfun.tabulated.table_repr", counting)
    load_tabulated(text)
    assert records == 60
    assert len(calls) <= records


def test_missing_morphism_is_named():
    data = export_dict("upair")
    data["morphisms"] = [m for m in data["morphisms"]
                         if not (m["dom"] == 2 and m["cod"] == 1)]
    with pytest.raises(TabulatedError,
                       match=r"missing morphism table for \(0,0\):2->1"):
        load_dict(data)


def test_identity_law_violation_is_named():
    data = export_dict("upair")
    rec = next(m for m in data["morphisms"]
               if m["dom"] == 2 and m["cod"] == 2 and m["table"] == [0, 1])
    rec["action"]["p(0,0)"] = "p(1,1)"
    rec["action"]["p(1,1)"] = "p(0,0)"
    with pytest.raises(TabulatedError, match="not the identity"):
        load_dict(data)


def test_composition_law_violation_is_named():
    data = export_dict("upair")
    rec = next(m for m in data["morphisms"]
               if m["dom"] == 1 and m["cod"] == 2 and m["table"] == [1])
    rec["action"]["p(0,0)"] = "p(0,1)"
    with pytest.raises(TabulatedError, match="composition mismatch"):
        load_dict(data)


def unvalidated(data):
    """The tables of an exported dict as a TabulatedInstance, unchecked."""
    top = data["max_size"]
    objects = tuple(tuple(data["objects"][str(n)]) for n in range(top + 1))
    morphisms = {
        (m["dom"], m["cod"], tuple(m["table"])): tuple(
            objects[m["cod"]].index(m["action"][s])
            for s in objects[m["dom"]])
        for m in data["morphisms"]}
    return TabulatedInstance(objects, morphisms)


@pytest.mark.parametrize("image, message", [
    ((0, 3), "table entry 3 at position 1 is not below the codomain size 3"),
    ((0, -1), "table entry -1 at position 1 is not below the codomain size 3"),
    ((0,), "table has 1 entries for a domain of size 2"),
], ids=["too-large", "negative", "too-short"])
def test_directly_built_tables_keep_the_range_rule(image, message):
    # F(1) = {a, b} and F(2) = {a, b, c}, so F((0):1->2) needs two
    # entries below 3.
    g = TabulatedInstance(((), ("a", "b"), ("a", "b", "c")),
                          {(1, 2, (0,)): image})
    f = FiniteFunction(FiniteSet(1), FiniteSet(2), (0,))
    with pytest.raises(ValueError, match=re.escape(message)):
        g.action(1, 2, (0,))
    with pytest.raises(ValueError, match=re.escape(message)):
        g.map(f)


def test_a_table_that_is_not_a_map_is_refused():
    # As a presentation refuses it; a map missing from tables built
    # directly still raises KeyError.
    t = load_tabulated(export_tabulated(zoo_instance("upair"), 2))
    for x, y, table, message in [
            (1, 2, (2,), "table entry 2 at position 0 is not below the "
                         "codomain size 2"),
            (2, 2, (0,), "table has 1 entries for a domain of size 2")]:
        with pytest.raises(ValueError) as err:
            t.action(x, y, table)
        assert str(err.value) == message
    g = TabulatedInstance(((), ("a",), ("a", "b")), {})
    with pytest.raises(KeyError):
        g.action(1, 2, (0,))


def test_load_and_check_name_the_same_first_law_failure():
    # One wrong entry of F((1):1->3) breaks many composable pairs; walked
    # with g outer instead of f outer, the first pair would differ.
    data = export_dict("upair", 3)
    rec = next(m for m in data["morphisms"]
               if m["dom"] == 1 and m["cod"] == 3 and m["table"] == [1])
    rec["action"]["p(0,0)"] = "p(0,0)"
    report = check_functor_laws(unvalidated(data), 3)
    compositions = [c for c in report.counterexamples
                    if c.startswith("F(g o f)")]
    assert len(compositions) > 1
    f, g = re.fullmatch(r"F\(g o f\) != F\(g\) o F\(f\) for f=(\S+), "
                        r"g=(\S+)", compositions[0]).groups()
    assert (f, g) == ("(0):1->2", "(1,0):2->3")
    with pytest.raises(TabulatedError) as err:
        load_dict(data)
    assert str(err.value) == f"composition mismatch for f={f} and g={g}"


def test_load_and_check_name_the_same_identity_failure():
    data = export_dict("upair")
    rec = next(m for m in data["morphisms"]
               if m["dom"] == 2 and m["cod"] == 2 and m["table"] == [0, 1])
    rec["action"]["p(0,1)"] = "p(0,0)"
    report = check_functor_laws(unvalidated(data), 2)
    assert report.counterexamples[0] == "F(id_2) is not the identity"
    with pytest.raises(TabulatedError) as err:
        load_dict(data)
    assert str(err.value) == "F((0,1):2->2) is not the identity on F(2)"


def test_lawful_hand_written_table_loads():
    # A two-point constant functor written out by hand, sizes 0 and 1.
    morphisms = []
    for dom, cod in [(0, 0), (0, 1), (1, 1)]:
        for table in itertools.product(range(cod), repeat=dom):
            morphisms.append({"dom": dom, "cod": cod, "table": list(table),
                              "action": {"l": "l", "r": "r"}})
    data = {"max_size": 1,
            "objects": {"0": ["l", "r"], "1": ["l", "r"]},
            "morphisms": morphisms}
    t = load_tabulated(json.dumps(data), name="flat2")
    assert t.elements(0) == ("l", "r")
    assert t.map(FiniteFunction(FiniteSet(0), FiniteSet(1), ())).table == (0, 1)
    assert t.element_index(1, "r") == 1
