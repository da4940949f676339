"""Functors given by explicit tables up to a size bound.

The data file is JSON with three top-level fields:

* ``max_size``: the largest set size covered;
* ``objects``: map from size (as a string) to the list of element names;
* ``morphisms``: one record per function between sets of sizes up to the
  bound, with fields ``dom``, ``cod``, ``table`` (the function itself)
  and ``action`` (map element name -> element name).

Every function must be listed explicitly; nothing is inferred.  Loading
validates completeness and the functor laws, the latter with the routine
behind ``check_functor_laws``, and reports the offending function (pair)
on failure.  That routine decides the composition law on the generating
maps (adjacent transpositions, merges n -> n-1 and inclusions n -> n+1,
which generate every map: Mac Lane, *Categories for the Working
Mathematician*, §VII.5) and walks every composable pair only to name the
first failure.  This is the vehicle for feeding hypothesis-violating
functors to the checkers: tables need not come from any presentation.
"""

from __future__ import annotations

import json

from .finset import FiniteFunction, FiniteSet, table_repr
from .theory import (FunctorInstance, MorphismKey, SizeBoundError,
                     law_failures, maps_up_to)


class TabulatedError(Exception):
    """Base class for tabulated-functor problems."""


class TabulatedFormatError(TabulatedError):
    pass


class MissingMorphismError(TabulatedError):
    pass


class FunctorLawError(TabulatedError):
    """Tables violate F(id) = id or F(g o f) = F(g) o F(f)."""


class TabulatedInstance(FunctorInstance):
    """Tables of F(n) for n <= max_size and of F(f) for every map between
    those sizes, behind the uniform functor interface.  ``morphisms`` maps
    (dom, cod, table) to the table of the image.  ``load_tabulated``
    validates them; built directly, they are taken as given.

    Queries beyond the tabulated bound raise SizeBoundError.
    """

    def __init__(self, objects: tuple[tuple[str, ...], ...],
                 morphisms: dict[MorphismKey, tuple[int, ...]],
                 name: str = "tabulated"):
        super().__init__(name)
        self.objects = objects
        self.morphisms = morphisms
        self.max_size = len(objects) - 1

    def _check_size(self, n: int) -> None:
        if not 0 <= n <= self.max_size:
            raise SizeBoundError(
                f"{self.name} is tabulated up to size {self.max_size}, "
                f"queried at {n}")

    def elements(self, n: int) -> tuple[str, ...]:
        self._check_size(n)
        return self.objects[n]

    def map(self, f: FiniteFunction) -> FiniteFunction:
        x, y = f.dom.size, f.cod.size
        self._check_size(x)
        self._check_size(y)
        return FiniteFunction(FiniteSet(len(self.objects[x])),
                              FiniteSet(len(self.objects[y])),
                              self.morphisms[(x, y, f.table)])


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise TabulatedFormatError(message)


def load_tabulated(text: str, name: str = "tabulated") -> TabulatedInstance:
    """Parse and fully validate a tabulated functor named ``name``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise TabulatedFormatError(f"not valid JSON: {err}") from None
    _require(isinstance(data, dict), "top level must be an object")
    extra = set(data) - {"max_size", "objects", "morphisms"}
    _require(not extra, f"unexpected top-level field(s): {sorted(extra)}")
    _require("max_size" in data, "missing field 'max_size'")
    _require("objects" in data, "missing field 'objects'")
    _require("morphisms" in data, "missing field 'morphisms'")
    max_size = data["max_size"]
    # JSON true and false load as bool, a subclass of int: refuse them.
    _require(type(max_size) is int and max_size >= 0,
             "'max_size' must be a non-negative integer")

    raw_objects = data["objects"]
    _require(isinstance(raw_objects, dict), "'objects' must be a map")
    objects: list[tuple[str, ...]] = []
    for k in range(max_size + 1):
        names = raw_objects.get(str(k))
        _require(names is not None, f"missing object list for size {k}")
        _require(isinstance(names, list)
                 and all(isinstance(s, str) for s in names),
                 f"object list for size {k} must be a list of strings")
        _require(len(set(names)) == len(names),
                 f"object list for size {k} has duplicate names")
        objects.append(tuple(names))
    extra_sizes = set(raw_objects) - {str(k) for k in range(max_size + 1)}
    _require(not extra_sizes,
             f"object list for out-of-range size(s): {sorted(extra_sizes)}")

    raw_morphisms = data["morphisms"]
    _require(isinstance(raw_morphisms, list), "'morphisms' must be a list")
    morphisms: dict[MorphismKey, tuple[int, ...]] = {}
    for rec in raw_morphisms:
        _require(isinstance(rec, dict), "morphism records must be objects")
        _require(set(rec) == {"dom", "cod", "table", "action"},
                 f"morphism record has fields {sorted(rec)}, expected "
                 f"dom/cod/table/action")
        dom, cod = rec["dom"], rec["cod"]
        _require(type(dom) is int and 0 <= dom <= max_size,
                 f"morphism dom {dom!r} out of range")
        _require(type(cod) is int and 0 <= cod <= max_size,
                 f"morphism cod {cod!r} out of range")
        table = rec["table"]
        _require(isinstance(table, list) and len(table) == dom
                 and all(type(v) is int and 0 <= v < cod for v in table),
                 f"bad function table {table!r} for a map {dom}->{cod}")
        key: MorphismKey = (dom, cod, tuple(table))
        _require(key not in morphisms,
                 f"duplicate morphism {table_repr(*key)}")
        action = rec["action"]
        _require(isinstance(action, dict), "morphism 'action' must be a map")
        dom_names, cod_names = objects[dom], objects[cod]
        _require(set(action) == set(dom_names),
                 f"action of {table_repr(*key)} must cover exactly the "
                 f"elements of F({dom})")
        cod_index = {s: i for i, s in enumerate(cod_names)}
        out = []
        for s in dom_names:
            target = action[s]
            _require(isinstance(target, str),
                     f"action of {table_repr(*key)} sends {s!r} to "
                     f"non-string {target!r}")
            _require(target in cod_index,
                     f"action of {table_repr(*key)} sends {s!r} to unknown "
                     f"element {target!r}")
            out.append(cod_index[target])
        morphisms[key] = tuple(out)

    for f in maps_up_to(max_size):
        if (f.dom.size, f.cod.size, f.table) not in morphisms:
            raise MissingMorphismError(f"missing morphism table for {f!r}")

    for f, g in law_failures(morphisms, [len(names) for names in objects]):
        if g is None:
            raise FunctorLawError(
                f"F({table_repr(*f)}) is not the identity on F({f[0]})")
        raise FunctorLawError(
            f"composition mismatch for f={table_repr(*f)} and "
            f"g={table_repr(*g)}")
    return TabulatedInstance(tuple(objects), morphisms, name)


def export_tabulated(g: FunctorInstance, max_size: int) -> str:
    """Dump any instance to the data format, queried up to max_size."""
    names = [g.elements(n) for n in range(max_size + 1)]
    objects = {str(n): list(ns) for n, ns in enumerate(names)}
    morphisms = [{
        "dom": f.dom.size,
        "cod": f.cod.size,
        "table": list(f.table),
        "action": {names[f.dom.size][i]: names[f.cod.size][v]
                   for i, v in enumerate(g.map(f).table)},
    } for f in maps_up_to(max_size)]
    payload = {"max_size": max_size, "objects": objects,
               "morphisms": morphisms}
    return json.dumps(payload, indent=2, ensure_ascii=False)
