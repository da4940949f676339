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

Identifiers are a letter or underscore followed by letters, digits and
underscores; nullary shapes are written without parentheses.  The
conventional file extension is ``.ffn``.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

from .finset import FiniteSet, check_table
from .theory import FunctorInstance, UnknownElementError


class ParseError(Exception):
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


@dataclass(frozen=True)
class Shape:
    """A shape declaration; ``pos`` is (line, column) if it was parsed."""

    name: str
    arity: int
    pos: tuple[int, int] | None = field(default=None, compare=False,
                                        repr=False)


@dataclass(frozen=True)
class FlatTerm:
    """A shape applied to variables, e.g. p(a, b); depth one only.  ``pos``
    is (line, column) if it was parsed."""

    shape: str
    vars: tuple[str, ...]
    pos: tuple[int, int] | None = field(default=None, compare=False,
                                        repr=False)

    def __repr__(self) -> str:
        return _term_text(self.shape, self.vars)


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
class Presentation:
    name: str
    shapes: tuple[Shape, ...]
    equations: tuple[Equation, ...]

    def __post_init__(self) -> None:
        arity: dict[str, int] = {}
        for s in self.shapes:
            if s.name in arity:
                raise ParseError(f"duplicate shape name {s.name!r}",
                                 *s.pos or ())
            arity[s.name] = s.arity
        for eq in self.equations:
            for term in (eq.lhs, eq.rhs):
                if term.shape not in arity:
                    raise ParseError(
                        f"unknown shape {term.shape!r} in equation {eq!r}",
                        *term.pos or ())
                if len(term.vars) != arity[term.shape]:
                    raise ParseError(
                        f"shape {term.shape!r} has arity {arity[term.shape]} "
                        f"but is applied to {len(term.vars)} variable(s) in "
                        f"equation {eq!r}", *term.pos or ())

    @cached_property
    def shape_index(self) -> dict[str, int]:
        return {s.name: i for i, s in enumerate(self.shapes)}

    @cached_property
    def max_arity(self) -> int:
        return max((s.arity for s in self.shapes), default=0)


def _term_text(shape: str, args: tuple) -> str:
    """How a term is written: ``c``, ``p(a,b)`` or ``p(0,2)``.  An element
    of FX is named by the canonical representative of its class: the
    lexicographically least (shape declaration index, argument tuple)."""
    return f"{shape}({','.join(map(str, args))})" if args else shape


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
    by name and as arguments grouped by shape, plus the class of every raw
    term.  ``offsets`` holds the position of each shape's first raw term,
    then the number of raw terms.  ``rep_groups`` holds one (shape index,
    arity, argument tuples) per shape that has representatives; read in
    turn, the groups list the classes in order."""

    size: int
    offsets: tuple[int, ...]
    names: tuple[str, ...]
    rep_groups: tuple[tuple[int, int, tuple[tuple[int, ...], ...]], ...]
    class_of_term: tuple[int, ...]

    def class_of(self, shape_idx: int, args: tuple[int, ...]) -> int:
        return self.class_of_term[
            _term_index(self.size, self.offsets, shape_idx, args)]


def evaluate_object(pres: Presentation, n: int) -> EvaluatedObject:
    """Compute F applied to {0,...,n-1} by equivalence closure over all
    instantiated equations.  The size ``n`` is an int; a negative one is
    refused with ``FiniteSet``'s ValueError.

    Over the empty set only nullary shapes contribute terms and only
    equations without variables can instantiate.
    """
    FiniteSet(n)  # refuses a negative size
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
    rep_groups: list[tuple[int, int, tuple[tuple[int, ...], ...]]] = []
    class_of_term: list[int] = []
    class_of_root: dict[int, int] = {}
    term = 0
    for i, shape in enumerate(pres.shapes):
        reps = []
        for args in itertools.product(range(n), repeat=shape.arity):
            root = uf.find(term)
            cls = class_of_root.get(root)
            if cls is None:
                # First occurrence in term order is the least (shape, args).
                cls = len(names)
                class_of_root[root] = cls
                names.append(_term_text(shape.name, args))
                reps.append(args)
            class_of_term.append(cls)
            term += 1
        if reps:
            rep_groups.append((i, shape.arity, tuple(reps)))
    return EvaluatedObject(n, tuple(offsets), tuple(names), tuple(rep_groups),
                           tuple(class_of_term))


def evaluate_morphism(table: tuple[int, ...], dom_obj: EvaluatedObject,
                      cod_obj: EvaluatedObject) -> tuple[int, ...]:
    """The table of F(f), for the map f with the given ``table``:
    substitute into the argument slots and canonicalize in the codomain.

    The result does not depend on the chosen representatives: every
    generating identification over the domain maps to the identification
    induced by composing the assignment with f.  ``dom_obj`` and
    ``cod_obj`` are one presentation evaluated at the domain and the
    codomain of f.

    The representatives are read shape by shape from ``rep_groups``.  A
    shape of arity 1 to 3 is filled by one list comprehension that
    computes each substituted term's position (``_term_index``) inline;
    a nullary shape has its one term, and a larger arity falls back to
    the digit loop over the arguments.

    ``table`` is checked on entry (``check_table``): one that is not a
    map would read the wrong terms, and the instance caches the answer.
    The result needs no check: it holds one class of ``cod_obj`` per
    representative of ``dom_obj``.
    """
    n = cod_obj.size
    check_table(table, dom_obj.size, n)
    offsets, cot = cod_obj.offsets, cod_obj.class_of_term
    t = table
    image: list[int] = []
    for shape_idx, arity, terms in dom_obj.rep_groups:
        off = offsets[shape_idx]
        if arity == 0:  # one raw term, hence one representative
            image.append(cot[off])
        elif arity == 1:
            image += [cot[off + t[a]] for a, in terms]
        elif arity == 2:
            image += [cot[off + t[a] * n + t[b]] for a, b in terms]
        elif arity == 3:
            # The two leading digits' place values, once per point.
            high = [off + v * n * n for v in t]
            mid = [v * n for v in t]
            image += [cot[high[a] + mid[b] + t[c]] for a, b, c in terms]
        else:
            for args in terms:
                rank = 0
                for a in args:
                    rank = rank * n + t[a]
                image.append(cot[off + rank])
    return tuple(image)


# ---------------------------------------------------------------------------
# Parsing

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(rf"{_IDENT}|\d+|[/(),=]")
_IDENT_RE = re.compile(rf"{_IDENT}\Z")
_KEYWORDS = ("functor", "shape", "eq")


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
        last, lastcol = self.tokens[-1]
        return lastcol + len(last)

    def take(self, ok: Callable[[str], object] | None = None,
             what: str = "") -> str:
        """The next token; a ParseError at its column if there is none or
        if ``ok`` is given and does not hold for it."""
        col = self.col()
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.lineno, col)
        if ok is not None and not ok(tok):
            raise ParseError(f"expected {what}, found {tok!r}",
                             self.lineno, col)
        self.pos += 1
        return tok

    def term(self) -> FlatTerm:
        pos = (self.lineno, self.col())
        head = self.take(_IDENT_RE.match, "a shape name")
        if self.peek() != "(":
            return FlatTerm(head, (), pos)
        self.take()
        vars_ = [self.take(_IDENT_RE.match, "a variable")]
        while self.peek() == ",":
            self.take()
            vars_.append(self.take(_IDENT_RE.match, "a variable"))
        self.take(")".__eq__, "')'")
        return FlatTerm(head, tuple(vars_), pos)

    def done(self) -> None:
        if self.pos < len(self.tokens):
            raise ParseError(f"trailing input {self.peek()!r}",
                             self.lineno, self.col())


def parse_presentation(text: str, default_name: str = "anonymous") -> Presentation:
    """Parse the declaration format above into a validated Presentation.
    Equations may use shapes declared later, so names and arities are
    left to ``Presentation``, which sees the whole text."""
    name = default_name
    shapes: list[Shape] = []
    equations: list[Equation] = []
    saw_header = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        p = _LineParser(tokens, lineno)
        col = p.col()
        keyword = p.take(_KEYWORDS.__contains__, "'functor', 'shape' or 'eq'")
        if keyword == "functor":
            if saw_header:
                raise ParseError("duplicate functor header", lineno, col)
            if shapes or equations:
                raise ParseError("functor header must come first", lineno, col)
            name = p.take(_IDENT_RE.match, "a functor name")
            saw_header = True
        elif keyword == "shape":
            pos = (lineno, p.col())
            shape_name = p.take(_IDENT_RE.match, "a shape name")
            p.take("/".__eq__, "'/'")
            arity = int(p.take(str.isdigit, "a number"))
            shapes.append(Shape(shape_name, arity, pos))
        else:  # "eq"
            lhs = p.term()
            p.take("=".__eq__, "'='")
            equations.append(Equation(lhs, p.term()))
        p.done()
    return Presentation(name, tuple(shapes), tuple(equations))


_ELEMENT_RE = re.compile(
    rf"\s*({_IDENT})\s*(?:\(\s*(\d+(?:\s*,\s*\d+)*)\s*\))?\s*\Z")


def parse_element(text: str) -> tuple[str, tuple[int, ...]]:
    """Parse a concrete term such as ``p(0,2)`` or ``c`` into its shape
    name and arguments."""
    m = _ELEMENT_RE.match(text)
    if m is None:
        raise UnknownElementError(f"cannot parse element {text!r}")
    args = ()
    if m.group(2) is not None:
        args = tuple(int(a) for a in m.group(2).split(","))
    return m.group(1), args


# ---------------------------------------------------------------------------
# The evaluable instance


class PresentationInstance(FunctorInstance):
    """A presentation wrapped as an evaluable functor, with caching.

    Object evaluations are cached per size and action tables per
    (sizes, table).  Evaluation is pure, so concurrent repeated
    computation is harmless and results are schedule-independent.
    """

    def __init__(self, pres: Presentation):
        super().__init__(pres.name)
        self.presentation = pres
        self._objects: dict[int, EvaluatedObject] = {}
        self._morphisms: dict[tuple[int, int, tuple[int, ...]],
                              tuple[int, ...]] = {}

    @property
    def max_arity(self) -> int:
        return self.presentation.max_arity

    def object(self, n: int) -> EvaluatedObject:
        obj = self._objects.get(n)
        if obj is None:
            obj = evaluate_object(self.presentation, n)
            self._objects[n] = obj
        return obj

    def elements(self, n: int) -> tuple[str, ...]:
        return self.object(n).names

    def action(self, x: int, y: int,
               table: tuple[int, ...]) -> tuple[int, ...]:
        key = (x, y, table)
        cached = self._morphisms.get(key)
        if cached is None:
            cached = evaluate_morphism(table, self.object(x), self.object(y))
            self._morphisms[key] = cached
        return cached

    def proves_laws(self, max_size: int) -> bool:
        """The functor laws hold by construction, at every size, so no map
        is read and ``max_size`` does not matter.

        Write ~x for the congruence on raw terms over x: the equivalence
        closure of the pairs (l.θ, r.θ), one for each equation l = r and
        each assignment θ of its variables in x (``evaluate_object``).
        Write [t] for the class of t, r_c for the representative of class
        c, and g.t for t with the map g substituted into its slots.  Take
        g: x -> z.  The relation {(t, t') : g.t ~z g.t'} is an
        equivalence, and it holds every generating pair, since g.(l.θ) =
        l.(g o θ) and g o θ is an assignment in z.  So t ~x t' implies
        g.t ~z g.t'.  ``action`` gives F(g)(c) = [g.r_c].  Then F(id)(c)
        = [r_c] = c, and F(h)(F(g)(c)) = [h.r_[g.r_c]] = [h.g.r_c] =
        F(h o g)(c), since r_[g.r_c] ~ g.r_c.

        The proof reads this class's ``object`` and ``action``: a
        subclass that overrides either answers False, and so is walked.
        """
        return (type(self).action is PresentationInstance.action
                and type(self).object is PresentationInstance.object)

    def element_index(self, n: int, name: str) -> int:
        """Resolve a term string to its class; non-canonical spellings
        such as p(2,0) canonicalize to the class of p(0,2)."""
        shape_name, args = parse_element(name)
        shape_idx = self.presentation.shape_index.get(shape_name)
        if shape_idx is None:
            raise UnknownElementError(
                f"unknown shape {shape_name!r} in element {name!r}")
        shape = self.presentation.shapes[shape_idx]
        if len(args) != shape.arity:
            raise UnknownElementError(
                f"shape {shape_name!r} has arity {shape.arity} but element "
                f"{name!r} has {len(args)} argument(s)")
        if any(not 0 <= a < n for a in args):
            raise UnknownElementError(
                f"element {name!r} uses points outside 0..{n - 1}")
        return self.object(n).class_of(shape_idx, args)
