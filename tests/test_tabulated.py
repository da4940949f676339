"""Loading, validating and exporting tabulated functors."""

from __future__ import annotations

import itertools
import json
import re

import pytest

from finfun.finset import FiniteFunction, FiniteSet, enumerate_functions
from finfun.tabulated import (
    FunctorLawError,
    MissingMorphismError,
    TabulatedFormatError,
    TabulatedInstance,
    export_tabulated,
    load_tabulated,
)
from finfun.theory import SizeBoundError, check_functor_laws, empty_mod_max
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
    with pytest.raises(TabulatedFormatError, match="not valid JSON"):
        load_tabulated("{nope")


def test_rejects_non_object_top_level():
    with pytest.raises(TabulatedFormatError, match="top level"):
        load_tabulated("[1, 2]")


def test_rejects_missing_and_extra_fields():
    data = export_dict("upair")
    del data["objects"]
    with pytest.raises(TabulatedFormatError, match="missing field 'objects'"):
        load_dict(data)
    data = export_dict("upair")
    data["comment"] = "hi"
    with pytest.raises(TabulatedFormatError, match="unexpected top-level"):
        load_dict(data)


def test_rejects_bad_max_size():
    data = export_dict("upair")
    data["max_size"] = -1
    with pytest.raises(TabulatedFormatError, match="max_size"):
        load_dict(data)
    # JSON true is a Python bool, and bool is a subclass of int.
    data = export_dict("upair", 1)
    data["max_size"] = True
    with pytest.raises(TabulatedFormatError, match="max_size"):
        load_dict(data)


def test_rejects_missing_object_size():
    data = export_dict("upair")
    del data["objects"]["1"]
    with pytest.raises(TabulatedFormatError, match="missing object list for size 1"):
        load_dict(data)


def test_rejects_out_of_range_object_size():
    data = export_dict("upair")
    data["objects"]["7"] = []
    with pytest.raises(TabulatedFormatError, match="out-of-range size"):
        load_dict(data)


def test_rejects_duplicate_element_names():
    data = export_dict("upair")
    data["objects"]["1"] = ["p(0,0)", "p(0,0)"]
    with pytest.raises(TabulatedFormatError, match="duplicate names"):
        load_dict(data)


def test_rejects_bad_morphism_record():
    data = export_dict("upair")
    del data["morphisms"][0]["action"]
    with pytest.raises(TabulatedFormatError, match="expected dom/cod/table/action"):
        load_dict(data)
    for field in ("dom", "cod"):
        data = export_dict("upair")
        rec = next(m for m in data["morphisms"]
                   if m["dom"] == 1 and m["cod"] == 1)
        rec[field] = True
        with pytest.raises(TabulatedFormatError,
                           match=f"morphism {field} True out of range"):
            load_dict(data)


def test_rejects_bad_function_table():
    data = export_dict("upair")
    rec = next(m for m in data["morphisms"] if m["dom"] == 2 and m["cod"] == 1)
    rec["table"] = [0, 7]
    with pytest.raises(TabulatedFormatError, match="bad function table"):
        load_dict(data)
    data = export_dict("upair")
    rec = next(m for m in data["morphisms"]
               if m["dom"] == 2 and m["cod"] == 2 and m["table"] == [0, 1])
    rec["table"] = [False, True]
    with pytest.raises(TabulatedFormatError, match="bad function table"):
        load_dict(data)


def test_rejects_incomplete_action():
    data = export_dict("upair")
    rec = next(m for m in data["morphisms"]
               if m["dom"] == 2 and m["cod"] == 2 and m["table"] == [0, 1])
    del rec["action"]["p(0,1)"]
    with pytest.raises(TabulatedFormatError, match="cover exactly"):
        load_dict(data)


def test_rejects_unknown_action_target():
    data = export_dict("upair")
    rec = next(m for m in data["morphisms"]
               if m["dom"] == 1 and m["cod"] == 2 and m["table"] == [0])
    rec["action"]["p(0,0)"] = "p(5,5)"
    with pytest.raises(TabulatedFormatError, match="unknown\n?\\s*element"):
        load_dict(data)


def test_rejects_non_string_action_target():
    for bad in (["p(0,0)"], {"p": "p(0,0)"}, 0, None):
        data = export_dict("upair", 1)
        rec = next(m for m in data["morphisms"]
                   if m["dom"] == 1 and m["cod"] == 1)
        rec["action"]["p(0,0)"] = bad
        with pytest.raises(TabulatedFormatError) as err:
            load_dict(data)
        assert str(err.value) == (f"action of (0):1->1 sends 'p(0,0)' to "
                                  f"non-string {bad!r}")


def test_rejects_duplicate_morphism():
    data = export_dict("upair")
    data["morphisms"].append(dict(data["morphisms"][0]))
    with pytest.raises(TabulatedFormatError, match="duplicate morphism"):
        load_dict(data)


def test_missing_morphism_is_named():
    data = export_dict("upair")
    data["morphisms"] = [m for m in data["morphisms"]
                         if not (m["dom"] == 2 and m["cod"] == 1)]
    with pytest.raises(MissingMorphismError, match=r"\(0,0\):2->1"):
        load_dict(data)


def test_identity_law_violation_is_named():
    data = export_dict("upair")
    rec = next(m for m in data["morphisms"]
               if m["dom"] == 2 and m["cod"] == 2 and m["table"] == [0, 1])
    rec["action"]["p(0,0)"] = "p(1,1)"
    rec["action"]["p(1,1)"] = "p(0,0)"
    with pytest.raises(FunctorLawError, match="not the identity"):
        load_dict(data)


def test_composition_law_violation_is_named():
    data = export_dict("upair")
    rec = next(m for m in data["morphisms"]
               if m["dom"] == 1 and m["cod"] == 2 and m["table"] == [1])
    rec["action"]["p(0,0)"] = "p(0,1)"
    with pytest.raises(FunctorLawError, match="composition mismatch"):
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
    with pytest.raises(FunctorLawError) as err:
        load_dict(data)
    assert str(err.value) == f"composition mismatch for f={f} and g={g}"


def test_load_and_check_name_the_same_identity_failure():
    data = export_dict("upair")
    rec = next(m for m in data["morphisms"]
               if m["dom"] == 2 and m["cod"] == 2 and m["table"] == [0, 1])
    rec["action"]["p(0,1)"] = "p(0,0)"
    report = check_functor_laws(unvalidated(data), 2)
    assert report.counterexamples[0] == "F(id_2) is not the identity"
    with pytest.raises(FunctorLawError) as err:
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
