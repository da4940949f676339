"""Functor presentations: shapes with arities, quotiented by flat equations.

A presentation denotes the endofunctor of finite sets sending X to the
set of all terms (a shape applied to a tuple over X) modulo the finest
equivalence containing every instantiated equation, and acting on a
function by substitution into the tuple slots.  Equations are flat
(depth one), so the closure is a plain equivalence closure computed by
union-find; assignments range over all of X, including non-injective
ones, which is what makes the action on functions well defined.

Text format (one declaration per line, ``#`` starts a comment)::

    file   := header? decl*
    header := "functor" IDENT
    decl   := "shape" IDENT "/" NAT | "eq" term "=" term
    term   := IDENT | IDENT "(" IDENT ("," IDENT)* ")"

Identifiers match ``[A-Za-z_][A-Za-z0-9_]*``; nullary shapes are written
without parentheses.  The conventional file extension is ``.ffn``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property

from .finset import FiniteFunction, FiniteSet
from .theory import FunctorInstance, UnknownElementError


class PresentationError(Exception):
    """Base class for presentation problems."""


class ParseError(PresentationError):
    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}"
            if col is not None:
                where += f", column {col}"
            where += ": "
        super().__init__(where + message)


class DuplicateShapeError(ParseError):
    pass


class UnknownShapeError(ParseError):
    pass


class ArityMismatchError(ParseError):
    pass


@dataclass(frozen=True)
class Shape:
    name: str
    arity: int


@dataclass(frozen=True)
class FlatTerm:
    """A shape applied to variables, e.g. p(a, b); depth one only."""

    shape: str
    vars: tuple[str, ...]

    def __repr__(self) -> str:
        if not self.vars:
            return self.shape
        return f"{self.shape}({','.join(self.vars)})"


@dataclass(frozen=True)
class Equation:
    lhs: FlatTerm
    rhs: FlatTerm

    @cached_property
    def variables(self) -> tuple[str, ...]:
        # One-sided variables are allowed and quantify over every value.
        seen: dict[str, None] = {}
        for v in self.lhs.vars + self.rhs.vars:
            seen.setdefault(v)
        return tuple(seen)

    def __repr__(self) -> str:
        return f"{self.lhs!r} = {self.rhs!r}"


@dataclass(frozen=True)
class ElementRef:
    """An element of FX, named by the canonical representative of its class:
    the lexicographically least (shape declaration index, argument tuple)."""

    shape: str
    args: tuple[int, ...]

    def __repr__(self) -> str:
        if not self.args:
            return self.shape
        return f"{self.shape}({','.join(map(str, self.args))})"


@dataclass(frozen=True)
class Presentation:
    name: str
    shapes: tuple[Shape, ...]
    equations: tuple[Equation, ...]

    def __post_init__(self) -> None:
        names = [s.name for s in self.shapes]
        for n in names:
            if names.count(n) > 1:
                raise DuplicateShapeError(f"duplicate shape name {n!r}")
        index = {s.name: s for s in self.shapes}
        for eq in self.equations:
            for term in (eq.lhs, eq.rhs):
                shape = index.get(term.shape)
                if shape is None:
                    raise UnknownShapeError(
                        f"unknown shape {term.shape!r} in equation {eq!r}")
                if len(term.vars) != shape.arity:
                    raise ArityMismatchError(
                        f"shape {term.shape!r} has arity {shape.arity} but "
                        f"is applied to {len(term.vars)} variable(s) in "
                        f"equation {eq!r}")

    @cached_property
    def shape_index(self) -> dict[str, int]:
        return {s.name: i for i, s in enumerate(self.shapes)}

    @cached_property
    def max_arity(self) -> int:
        return max((s.arity for s in self.shapes), default=0)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _term_index(n: int, offsets: tuple[int, ...], shape_idx: int,
                args: tuple[int, ...]) -> int:
    """Position of a raw term over n points: terms are numbered shape by
    shape from ``offsets[shape_idx]``, arguments in lexicographic order."""
    rank = 0
    for a in args:
        rank = rank * n + a
    return offsets[shape_idx] + rank


@dataclass(frozen=True)
class EvaluatedObject:
    """The value FX: one canonical representative per equivalence class,
    as (shape index, arguments) and by name, plus the class of every raw
    term.  ``offsets`` holds the position of each shape's first raw term,
    then the number of raw terms."""

    size: int
    offsets: tuple[int, ...]
    names: tuple[str, ...]
    rep_terms: tuple[tuple[int, tuple[int, ...]], ...]
    class_of_term: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.names)

    def class_of(self, shape_idx: int, args: tuple[int, ...]) -> int:
        return self.class_of_term[
            _term_index(self.size, self.offsets, shape_idx, args)]


def evaluate_object(pres: Presentation, x: FiniteSet | int) -> EvaluatedObject:
    """Compute FX by equivalence closure over all instantiated equations.

    Over the empty set only nullary shapes contribute terms and only
    equations without variables can instantiate.
    """
    n = x if isinstance(x, int) else x.size
    offsets = [0]
    for s in pres.shapes:
        offsets.append(offsets[-1] + n ** s.arity)
    uf = _UnionFind(offsets[-1])
    sidx = pres.shape_index
    for eq in pres.equations:
        variables = eq.variables
        li, ri = sidx[eq.lhs.shape], sidx[eq.rhs.shape]
        for values in itertools.product(range(n), repeat=len(variables)):
            theta = dict(zip(variables, values))
            left = _term_index(
                n, offsets, li, tuple(theta[v] for v in eq.lhs.vars))
            right = _term_index(
                n, offsets, ri, tuple(theta[v] for v in eq.rhs.vars))
            uf.union(left, right)
    names: list[str] = []
    rep_terms: list[tuple[int, tuple[int, ...]]] = []
    class_of_term: list[int] = []
    class_of_root: dict[int, int] = {}
    term = 0
    for i, shape in enumerate(pres.shapes):
        for args in itertools.product(range(n), repeat=shape.arity):
            root = uf.find(term)
            cls = class_of_root.get(root)
            if cls is None:
                # First occurrence in term order is the least (shape, args).
                cls = len(names)
                class_of_root[root] = cls
                names.append(repr(ElementRef(shape.name, args)))
                rep_terms.append((i, args))
            class_of_term.append(cls)
            term += 1
    return EvaluatedObject(n, tuple(offsets), tuple(names), tuple(rep_terms),
                           tuple(class_of_term))


def evaluate_morphism(f: FiniteFunction, dom_obj: EvaluatedObject,
                      cod_obj: EvaluatedObject) -> FiniteFunction:
    """The action of the presented functor on f: substitute into the
    argument slots and canonicalize in the codomain.

    The result does not depend on the chosen representatives: every
    generating identification over the domain maps to the identification
    induced by composing the assignment with f.  ``dom_obj`` and
    ``cod_obj`` are one presentation evaluated at the domain and the
    codomain of f.
    """
    table = tuple(
        cod_obj.class_of(shape_idx, tuple(f.table[a] for a in args))
        for shape_idx, args in dom_obj.rep_terms)
    return FiniteFunction(FiniteSet(len(dom_obj)), FiniteSet(len(cod_obj)),
                          table)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[/(),=]")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _tokenize(line: str, lineno: int) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(line):
        if line[pos].isspace():
            pos += 1
            continue
        if line[pos] == "#":
            break
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            raise ParseError(f"unexpected character {line[pos]!r}",
                             lineno, pos + 1)
        tokens.append((m.group(), pos + 1))
        pos = m.end()
    return tokens


class _LineParser:
    def __init__(self, tokens: list[tuple[str, int]], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def col(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        if self.tokens:
            last, lastcol = self.tokens[-1]
            return lastcol + len(last)
        return 1

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.lineno, self.col())
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        col = self.col()
        tok = self.take()
        if tok != text:
            raise ParseError(f"expected {text!r}, found {tok!r}",
                             self.lineno, col)

    def ident(self, what: str) -> str:
        col = self.col()
        tok = self.take()
        if not _IDENT_RE.match(tok):
            raise ParseError(f"expected {what}, found {tok!r}",
                             self.lineno, col)
        return tok

    def nat(self) -> int:
        col = self.col()
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected a number, found {tok!r}",
                             self.lineno, col)
        return int(tok)

    def term(self) -> tuple[FlatTerm, int]:
        col = self.col()
        head = self.ident("a shape name")
        if self.peek() != "(":
            return FlatTerm(head, ()), col
        self.take()
        vars_ = [self.ident("a variable")]
        while self.peek() == ",":
            self.take()
            vars_.append(self.ident("a variable"))
        self.expect(")")
        return FlatTerm(head, tuple(vars_)), col

    def done(self) -> None:
        if self.pos < len(self.tokens):
            raise ParseError(f"trailing input {self.peek()!r}",
                             self.lineno, self.col())


def parse_presentation(text: str, default_name: str = "anonymous") -> Presentation:
    """Parse the declaration format above into a validated Presentation."""
    name = default_name
    shapes: list[Shape] = []
    shape_arity: dict[str, int] = {}
    equations: list[Equation] = []
    saw_decl = False
    saw_header = False
    # Equations may reference shapes declared later; validate after the scan.
    pending: list[tuple[Equation, int, int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        p = _LineParser(tokens, lineno)
        keyword = p.peek()
        if keyword == "functor":
            col = p.col()
            p.take()
            if saw_header:
                raise ParseError("duplicate functor header", lineno, col)
            if saw_decl:
                raise ParseError("functor header must come first", lineno, col)
            name = p.ident("a functor name")
            p.done()
            saw_header = True
        elif keyword == "shape":
            p.take()
            col = p.col()
            shape_name = p.ident("a shape name")
            p.expect("/")
            arity = p.nat()
            p.done()
            if shape_name in shape_arity:
                raise DuplicateShapeError(
                    f"duplicate shape name {shape_name!r}", lineno, col)
            shape_arity[shape_name] = arity
            shapes.append(Shape(shape_name, arity))
            saw_decl = True
        elif keyword == "eq":
            p.take()
            lhs, lcol = p.term()
            p.expect("=")
            rhs, rcol = p.term()
            p.done()
            equations.append(Equation(lhs, rhs))
            pending.append((equations[-1], lineno, lcol, rcol))
            saw_decl = True
        else:
            raise ParseError(
                f"expected 'functor', 'shape' or 'eq', found {keyword!r}",
                lineno, p.col())
    for eq, lineno, lcol, rcol in pending:
        for term, col in ((eq.lhs, lcol), (eq.rhs, rcol)):
            arity = shape_arity.get(term.shape)
            if arity is None:
                raise UnknownShapeError(
                    f"unknown shape {term.shape!r} in equation {eq!r}",
                    lineno, col)
            if arity != len(term.vars):
                raise ArityMismatchError(
                    f"shape {term.shape!r} has arity {arity} but is applied "
                    f"to {len(term.vars)} variable(s)", lineno, col)
    return Presentation(name, tuple(shapes), tuple(equations))


_ELEMENT_RE = re.compile(
    r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\(\s*(\d+(?:\s*,\s*\d+)*)\s*\))?\s*\Z")


def parse_element(text: str) -> ElementRef:
    """Parse a concrete term such as ``p(0,2)`` or ``c``."""
    m = _ELEMENT_RE.match(text)
    if m is None:
        raise UnknownElementError(f"cannot parse element {text!r}")
    args = ()
    if m.group(2) is not None:
        args = tuple(int(a) for a in m.group(2).split(","))
    return ElementRef(m.group(1), args)


# ---------------------------------------------------------------------------
# The evaluable instance


class PresentationInstance(FunctorInstance):
    """A presentation wrapped as an evaluable functor, with caching.

    Object evaluations are cached per size and morphism evaluations per
    (sizes, table).  Evaluation is pure, so concurrent repeated
    computation is harmless and results are schedule-independent.
    """

    def __init__(self, pres: Presentation):
        super().__init__(pres.name)
        self.presentation = pres
        self._objects: dict[int, EvaluatedObject] = {}
        self._morphisms: dict[tuple[int, int, tuple[int, ...]],
                              FiniteFunction] = {}

    @property
    def max_arity(self) -> int:
        return self.presentation.max_arity

    def object(self, n: int) -> EvaluatedObject:
        obj = self._objects.get(n)
        if obj is None:
            obj = evaluate_object(self.presentation, FiniteSet(n))
            self._objects[n] = obj
        return obj

    def elements(self, n: int) -> tuple[str, ...]:
        return self.object(n).names

    def map(self, f: FiniteFunction) -> FiniteFunction:
        key = (f.dom.size, f.cod.size, f.table)
        cached = self._morphisms.get(key)
        if cached is None:
            cached = evaluate_morphism(f, self.object(f.dom.size),
                                       self.object(f.cod.size))
            self._morphisms[key] = cached
        return cached

    def element_index(self, n: int, name: str) -> int:
        """Resolve a term string to its class; non-canonical spellings
        such as p(2,0) canonicalize to the class of p(0,2)."""
        ref = parse_element(name)
        shape_idx = self.presentation.shape_index.get(ref.shape)
        if shape_idx is None:
            raise UnknownElementError(
                f"unknown shape {ref.shape!r} in element {name!r}")
        shape = self.presentation.shapes[shape_idx]
        if len(ref.args) != shape.arity:
            raise UnknownElementError(
                f"shape {ref.shape!r} has arity {shape.arity} but element "
                f"{name!r} has {len(ref.args)} argument(s)")
        if any(not 0 <= a < n for a in ref.args):
            raise UnknownElementError(
                f"element {name!r} uses points outside 0..{n - 1}")
        return self.object(n).class_of(shape_idx, ref.args)
