"""Functors given by explicit tables up to a size bound.

The data file is JSON with three top-level fields:

* ``max_size``: the largest set size covered;
* ``objects``: map from size (as a string) to the list of element names;
* ``morphisms``: one record per function between sets of sizes up to the
  bound, with fields ``dom``, ``cod``, ``table`` (the function itself)
  and ``action`` (map element name -> element name).

Every function must be listed explicitly; nothing is inferred.  Each
record's ``action`` is converted to an index table in one ``map`` call;
its element loop runs only when that fails, to name the first bad target.
Completeness is decided by count: every stored record is a distinct map
within the bound, so the maps are listed, to name the first missing one,
only when there are fewer records than maps.  Loading validates the
functor laws with ``theory.law_failures``, which reads the loaded records
through a lookup (it decides the laws on the generating maps and walks
every composable pair only to name the first failure), and reports the
offending function (pair) on failure.  The laws are decided once per load: the instance
records the pass, and its ``laws`` check reuses it.
This is the vehicle for feeding hypothesis-violating functors to the
checkers: tables need not come from any presentation.  A refusal's text
is formatted only when its check fails, so a valid file builds none.

``export_tabulated`` writes exactly the text of ``json.dumps(payload,
indent=2, ensure_ascii=False)`` for the payload ``{"max_size", "objects",
"morphisms"}``, with one record per map in ``theory.tables_up_to`` order
and no trailing newline (``finfun export`` adds one, on stdout and in the
``--out`` file).  It writes the maps block by block, one (dom, cod) pair
at a time, from strings built once per block where they cost no more
than the block's entries, and joins the document once.
"""

from __future__ import annotations

import json

from .finset import check_table, function_tables, table_repr
from .theory import (FunctorInstance, MorphismKey, SizeBoundError,
                     law_failures, sizes_up_to, tables_up_to)


class TabulatedError(Exception):
    """A malformed tabulation, a missing map, or a functor-law violation."""


class TabulatedInstance(FunctorInstance):
    """Tables of F(n) for n <= max_size and of F(f) for every map between
    those sizes, behind the uniform functor interface.  ``morphisms`` maps
    (dom, cod, table) to the table of the image.  ``load_tabulated``
    validates them; built directly, only each image table's fit to F(dom)
    and F(cod) is checked, when it is read.

    Queries beyond the tabulated bound raise SizeBoundError.
    """

    def __init__(self, objects: tuple[tuple[str, ...], ...],
                 morphisms: dict[MorphismKey, tuple[int, ...]],
                 name: str = "tabulated"):
        super().__init__(name)
        self.objects = objects
        self.morphisms = morphisms
        self.max_size = len(objects) - 1

    def elements(self, n: int) -> tuple[str, ...]:
        if not 0 <= n <= self.max_size:
            raise SizeBoundError(
                f"{self.name} is tabulated up to size {self.max_size}, "
                f"queried at {n}")
        return self.objects[n]

    def action(self, x: int, y: int,
               table: tuple[int, ...]) -> tuple[int, ...]:
        sizes = self.size(x), self.size(y)  # refuses sizes beyond the bound
        try:
            image = tuple(self.morphisms[(x, y, table)])
        except KeyError:
            check_table(table, x, y)  # refuses a table that is not a map
            raise
        check_table(image, *sizes)
        return image


_RECORD_FIELDS = frozenset({"dom", "cod", "table", "action"})


def load_tabulated(text: str, name: str = "tabulated") -> TabulatedInstance:
    """Parse and fully validate a tabulated functor named ``name``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise TabulatedError(f"not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise TabulatedError("top level must be an object")
    extra = set(data) - {"max_size", "objects", "morphisms"}
    if extra:
        raise TabulatedError(f"unexpected top-level field(s): {sorted(extra)}")
    for field in ("max_size", "objects", "morphisms"):
        if field not in data:
            raise TabulatedError(f"missing field {field!r}")
    max_size = data["max_size"]
    # JSON true and false load as bool, a subclass of int: refuse them.
    if not (type(max_size) is int and max_size >= 0):
        raise TabulatedError("'max_size' must be a non-negative integer")

    raw_objects = data["objects"]
    if not isinstance(raw_objects, dict):
        raise TabulatedError("'objects' must be a map")
    objects: list[tuple[str, ...]] = []
    for k in range(max_size + 1):
        names = raw_objects.get(str(k))
        if names is None:
            raise TabulatedError(f"missing object list for size {k}")
        if not (isinstance(names, list)
                and all(isinstance(s, str) for s in names)):
            raise TabulatedError(
                f"object list for size {k} must be a list of strings")
        if len(set(names)) != len(names):
            raise TabulatedError(
                f"object list for size {k} has duplicate names")
        objects.append(tuple(names))
    extra_sizes = set(raw_objects) - {str(k) for k in range(max_size + 1)}
    if extra_sizes:
        raise TabulatedError(
            f"object list for out-of-range size(s): {sorted(extra_sizes)}")

    raw_morphisms = data["morphisms"]
    if not isinstance(raw_morphisms, list):
        raise TabulatedError("'morphisms' must be a list")
    indices = [{s: i for i, s in enumerate(names)} for names in objects]
    morphisms: dict[MorphismKey, tuple[int, ...]] = {}
    for rec in raw_morphisms:
        if not isinstance(rec, dict):
            raise TabulatedError("morphism records must be objects")
        if rec.keys() != _RECORD_FIELDS:
            raise TabulatedError(
                f"morphism record has fields {sorted(rec)}, expected "
                f"dom/cod/table/action")
        dom, cod, table = rec["dom"], rec["cod"], rec["table"]
        for field in ("dom", "cod"):
            end = rec[field]
            if not (type(end) is int and 0 <= end <= max_size):
                raise TabulatedError(f"morphism {field} {end!r} out of range")
        if not (isinstance(table, list) and len(table) == dom
                and all(type(v) is int and 0 <= v < cod for v in table)):
            raise TabulatedError(
                f"bad function table {table!r} for a map {dom}->{cod}")
        key: MorphismKey = (dom, cod, tuple(table))
        if key in morphisms:
            raise TabulatedError(f"duplicate morphism {table_repr(*key)}")
        action = rec["action"]
        if not isinstance(action, dict):
            raise TabulatedError("morphism 'action' must be a map")
        if action.keys() != indices[dom].keys():
            raise TabulatedError(
                f"action of {table_repr(*key)} must cover exactly the "
                f"elements of F({dom})")
        cod_index = indices[cod]
        try:
            morphisms[key] = tuple(map(cod_index.__getitem__,
                                       map(action.__getitem__, objects[dom])))
        except (KeyError, TypeError):  # name the first bad target
            for s in objects[dom]:
                target = action[s]
                if not (isinstance(target, str) and target in cod_index):
                    kind = ("unknown element" if isinstance(target, str)
                            else "non-string")
                    raise TabulatedError(
                        f"action of {table_repr(*key)} sends {s!r} to "
                        f"{kind} {target!r}") from None

    # Each key is a distinct map within the bound, so a full count means
    # that none is missing.
    span = range(max_size + 1)
    if len(morphisms) < sum(y ** x for x in span for y in span):
        for key in tables_up_to(max_size):
            if key not in morphisms:
                raise TabulatedError(
                    f"missing morphism table for {table_repr(*key)}")

    sizes = [len(names) for names in objects]
    for f, g in law_failures(lambda *key: morphisms[key], sizes):
        if g is None:
            raise TabulatedError(
                f"F({table_repr(*f)}) is not the identity on F({f[0]})")
        raise TabulatedError(
            f"composition mismatch for f={table_repr(*f)} and "
            f"g={table_repr(*g)}")
    instance = TabulatedInstance(tuple(objects), morphisms, name)
    instance._law_bound = max_size
    return instance


def _block(brackets: str, items: list[str], depth: int) -> str:
    """``items``, each already JSON text, as the array (``brackets`` "[]")
    or object ("{}") that ``json.dumps(..., indent=2)`` writes at nesting
    ``depth``: one item per line, or the bare brackets when empty."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return (f"{brackets[0]}{pad}{(',' + pad).join(items)}\n"
            f"{'  ' * depth}{brackets[1]}")


def export_tabulated(g: FunctorInstance, max_size: int) -> str:
    """Dump any instance to the data format, queried up to max_size.

    The text is the module docstring's ``json.dumps`` layout, assembled
    from strings, because with ``indent`` set the encoder runs in pure
    Python.  Each element name is quoted once per size, by ``json.dumps``,
    and the names of each F(n) are distinct, as loading requires.  The
    maps are written block by block, one (dom, cod) pair at a time: the
    block's head is built once, each table's text once for every codomain
    it fits, and, when |F(cod)| <= cod^dom, every entry string ``"a":
    "b"`` of the block once, so that a record's action is one join of
    those picked by its image.  The guard keeps the entry strings no more
    than the entries the block writes; other blocks join each entry from
    its key and target.  The document is one list of parts, joined once.
    """
    sizes = sizes_up_to(max_size)
    quoted = [[json.dumps(s, ensure_ascii=False) for s in g.elements(n)]
              for n in sizes]
    objects = [f'"{n}": {_block("[]", names, 2)}'
               for n, names in enumerate(quoted)]
    parts = [f'{{\n  "max_size": {max_size},\n'
             f'  "objects": {_block("{}", objects, 1)},\n'
             '  "morphisms": [']
    for x in sizes:
        keys = ["\n        " + q + ": " for q in quoted[x]]
        action = ',\n      "action": {' if keys else ',\n      "action": {}'
        close = "\n      }\n    }," if keys else "\n    },"
        texts = {t: _block("[]", list(map(str, t)), 3)
                 for t in function_tables(x, max_size)}
        for y in sizes:
            head = (f'\n    {{\n      "dom": {x},\n      "cod": {y},\n'
                    '      "table": ')
            targets = quoted[y]
            rows = ([[k + t for t in targets] for k in keys]
                    if len(targets) <= y ** x else None)
            for table in function_tables(x, y):
                image = g.action(x, y, table)
                entries = (map(list.__getitem__, rows, image)
                           if rows is not None else
                           map(str.__add__, keys, map(targets.__getitem__,
                                                      image)))
                parts += (head, texts[table], action, ",".join(entries),
                          close)
    del rows, texts  # the last block's strings, before the join copies
    # Every bound has the map 0 -> 0, so the last part closes a record.
    parts[-1] = parts[-1][:-1] + "\n  ]\n}"
    return "".join(parts)
