"""Presentation parsing and evaluation against an independent oracle."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import SHAPES, injective, presentations

from finfun.finset import FiniteFunction, FiniteSet
from finfun.presentation import (
    Equation,
    FlatTerm,
    ParseError,
    Presentation,
    PresentationInstance,
    Shape,
    evaluate_morphism,
    evaluate_object,
    parse_element,
    parse_presentation,
)
from finfun.theory import (
    UnknownElementError,
    empty_mod_max,
    empty_mod_min,
    tables_up_to,
)
from finfun.zoo import SOURCES, zoo_instance, zoo_names, zoo_source


# ---------------------------------------------------------------------------
# Oracle: naive equivalence closure by repeated set merging, no union-find.


def closure_oracle(pres: Presentation, n: int):
    terms = [(s.name, args) for s in pres.shapes
             for args in itertools.product(range(n), repeat=s.arity)]
    block = {t: {t} for t in terms}

    def merge(a, b):
        sa, sb = block[a], block[b]
        if sa is sb:
            return False
        sa |= sb
        for t in sb:
            block[t] = sa
        return True

    changed = True
    while changed:
        changed = False
        for eq in pres.equations:
            for values in itertools.product(range(n),
                                            repeat=len(eq.variables)):
                theta = dict(zip(eq.variables, values))
                lhs = (eq.lhs.shape, tuple(theta[v] for v in eq.lhs.vars))
                rhs = (eq.rhs.shape, tuple(theta[v] for v in eq.rhs.vars))
                if merge(lhs, rhs):
                    changed = True
    return terms, block


def same_class(pres: Presentation, n: int, t1, t2) -> bool:
    obj = evaluate_object(pres, n)
    i1 = pres.shape_index[t1[0]]
    i2 = pres.shape_index[t2[0]]
    return obj.class_of(i1, t1[1]) == obj.class_of(i2, t2[1])


@pytest.mark.parametrize("name", zoo_names())
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_closure_matches_oracle(name, n):
    pres = zoo_instance(name).presentation
    terms, block = closure_oracle(pres, n)
    obj = evaluate_object(pres, n)
    distinct = {id(s) for s in block.values()}
    assert len(obj.names) == len(distinct)
    for t1, t2 in itertools.combinations(terms, 2):
        assert (block[t1] is block[t2]) == same_class(pres, n, t1, t2)


# ---------------------------------------------------------------------------
# Frozen values.


def test_upair_elements_at_three():
    up = zoo_instance("upair")
    assert up.elements(3) == ("p(0,0)", "p(0,1)", "p(0,2)", "p(1,1)",
                              "p(1,2)", "p(2,2)")


def test_zoo_sizes():
    expected = {
        "identity": [0, 1, 2, 3, 4],
        "const2": [2, 2, 2, 2, 2],
        "power2": [0, 1, 4, 9, 16],
        "power3": [0, 1, 8, 27, 64],
        "upair": [0, 1, 3, 6, 10],
        "exp2": [0, 1, 3, 6, 10],
        "pointed": [1, 2, 3, 4, 5],
        "twins": [2, 1, 1, 1, 1],
    }
    for name, sizes in expected.items():
        g = zoo_instance(name)
        assert [g.size(n) for n in range(5)] == sizes, name


def test_exp2_diagonal_collapses():
    e = zoo_instance("exp2")
    # s2(i,i) = s1(i) and s2(i,j) = s2(j,i): classes are the nonempty
    # subsets of size <= 2.
    assert e.elements(2) == ("s1(0)", "s1(1)", "s2(0,1)")
    pres = e.presentation
    assert same_class(pres, 2, ("s2", (0, 0)), ("s1", (0,)))
    assert same_class(pres, 2, ("s2", (1, 0)), ("s2", (0, 1)))
    assert not same_class(pres, 2, ("s1", (0,)), ("s1", (1,)))


def test_twins_values():
    tw = zoo_instance("twins")
    assert tw.elements(0) == ("c", "d")
    assert tw.elements(1) == ("c",)
    f = FiniteFunction(FiniteSet(0), FiniteSet(1), ())
    assert tw.map(f).table == (0, 0)


def test_empty_set_instantiates_only_closed_equations():
    # Over the empty set the u-equations of twins cannot fire, so the
    # constants stay distinct; over any inhabited set they collapse.
    pres = zoo_instance("twins").presentation
    assert len(evaluate_object(pres, 0).names) == 2
    assert len(evaluate_object(pres, 1).names) == 1


def test_noninjective_assignments_are_instantiated():
    # eq p(a,b) = q(b) only touches q via instantiation; with a = b it
    # identifies p(i,i) with q(i) as well.
    pres = parse_presentation("""
        shape p/2
        shape q/1
        eq p(a,b) = q(b)
    """)
    obj = evaluate_object(pres, 2)
    # p(0,0) ~ q(0), p(1,0) ~ q(0), p(0,1) ~ q(1), p(1,1) ~ q(1)
    assert len(obj.names) == 2
    assert same_class(pres, 2, ("p", (0, 0)), ("p", (1, 0)))
    assert same_class(pres, 2, ("p", (0, 0)), ("q", (0,)))
    assert not same_class(pres, 2, ("q", (0,)), ("q", (1,)))


def test_element_names_are_built_once():
    up = zoo_instance("upair")
    assert up.elements(3) is up.elements(3)


def test_canonical_rep_is_least_in_declaration_then_lex_order():
    up = zoo_instance("upair")
    # p(1,0) collapses with p(0,1); the representative spelling is the
    # lexicographically smaller argument tuple.
    assert "p(1,0)" not in up.elements(2)
    assert "p(0,1)" in up.elements(2)
    pres = parse_presentation("""
        shape z/0
        shape w/1
        eq w(a) = z
    """)
    obj = evaluate_object(pres, 3)
    # z is declared first, so the merged class shows as z.
    assert obj.names == ("z",)


# ---------------------------------------------------------------------------
# Morphism action.


def test_upair_swap_action():
    up = zoo_instance("upair")
    f = FiniteFunction(FiniteSet(3), FiniteSet(3), (0, 2, 1))
    assert up.map(f).table == (0, 2, 1, 5, 4, 3)
    swap2 = FiniteFunction(FiniteSet(2), FiniteSet(2), (1, 0))
    # p(0,1) is fixed: its image p(1,0) canonicalizes back.
    assert up.map(swap2).table == (2, 1, 0)


def test_injective_on_nonempty_domains():
    # Any injection with inhabited domain admits a retraction, so the
    # action on it must be injective for every presentation - including
    # twins, whose only failure is at the empty set.
    from finfun.finset import enumerate_functions
    for name in zoo_names():
        g = zoo_instance(name)
        for x in range(1, 4):
            for y in range(x, 5):
                for f in enumerate_functions(FiniteSet(x), FiniteSet(y)):
                    if injective(f.table):
                        assert injective(g.map(f).table), (name, f)


def test_action_well_defined_on_every_raw_term():
    # The table built from representatives must agree with substitution
    # applied to arbitrary (non-canonical) raw terms.
    for name in zoo_names():
        g = zoo_instance(name)
        pres = g.presentation
        for x, y in [(2, 2), (3, 2), (2, 3), (0, 2)]:
            dom_obj = evaluate_object(pres, x)
            cod_obj = evaluate_object(pres, y)
            for f in [FiniteFunction(FiniteSet(x), FiniteSet(y), t)
                      for t in itertools.product(range(y), repeat=x)]:
                action = evaluate_morphism(f.table, dom_obj, cod_obj)
                for i, shape in enumerate(pres.shapes):
                    for args in itertools.product(range(x),
                                                  repeat=shape.arity):
                        src = dom_obj.class_of(i, args)
                        img = cod_obj.class_of(
                            i, tuple(f.table[a] for a in args))
                        assert action[src] == img


def action_oracle(table, dom_obj, cod_obj):
    """The table of F(f) as one ``class_of`` call per representative of
    F(dom), on the substituted arguments."""
    return tuple(
        cod_obj.class_of(shape_idx, tuple(table[a] for a in args))
        for shape_idx, _, terms in dom_obj.rep_groups for args in terms)


def reference_evaluate_morphism(table, dom_obj, cod_obj):
    """The table of F(f) by one digit loop per representative, the way
    it was computed before the per-arity kernels."""
    n = cod_obj.size
    image = []
    for shape_idx, _, terms in dom_obj.rep_groups:
        for args in terms:
            rank = 0
            for a in args:
                rank = rank * n + table[a]
            image.append(
                cod_obj.class_of_term[cod_obj.offsets[shape_idx] + rank])
    return tuple(image)


def assert_kernels_match(pres, objs, x, y, table):
    """evaluate_morphism equals both oracles on the map x -> y, and the
    grouped representatives list the classes in order."""
    dom_obj, cod_obj = objs[x], objs[y]
    assert [dom_obj.class_of(i, args) for i, _, terms in dom_obj.rep_groups
            for args in terms] == list(range(len(dom_obj.names)))
    assert all(pres.shapes[i].arity == arity
               for i, arity, _ in dom_obj.rep_groups)
    action = evaluate_morphism(table, dom_obj, cod_obj)
    assert action == reference_evaluate_morphism(table, dom_obj, cod_obj) \
        == action_oracle(table, dom_obj, cod_obj), (pres, x, y, table)


@pytest.mark.parametrize("name", zoo_names())
def test_evaluate_morphism_matches_the_oracle(name):
    pres = zoo_instance(name).presentation
    objs = [evaluate_object(pres, n) for n in range(5)]
    for key in tables_up_to(4):
        assert_kernels_match(pres, objs, *key)


@pytest.mark.parametrize("name", zoo_names())
def test_a_table_that_is_not_a_map_is_refused(name):
    # Refused before it is read, so no answer is cached for it: a second
    # query raises again.
    g = zoo_instance(name)
    objs = [evaluate_object(g.presentation, n) for n in range(3)]
    for x, y, table, message in [
            (1, 2, (2,), "table entry 2 at position 0 is not below the "
                         "codomain size 2"),
            (2, 2, (0,), "table has 1 entries for a domain of size 2")]:
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                g.action(x, y, table)
            assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            evaluate_morphism(table, objs[x], objs[y])
        assert str(err.value) == message


@pytest.mark.parametrize("name", zoo_names())
def test_functor_laws_small(name):
    g = zoo_instance(name)
    for n in range(4):
        x = FiniteSet(n)
        assert g.map(FiniteFunction(x, x, tuple(range(n)))).table == \
            tuple(range(g.size(n)))
    for f_table in itertools.product(range(2), repeat=2):
        f = FiniteFunction(FiniteSet(2), FiniteSet(2), f_table)
        for g_table in itertools.product(range(3), repeat=2):
            h = FiniteFunction(FiniteSet(2), FiniteSet(3), g_table)
            hf = FiniteFunction(f.dom, h.cod,
                                tuple(h.table[v] for v in f.table))
            gh, gf = g.map(h), g.map(f)
            assert g.map(hf).table == tuple(gh.table[v] for v in gf.table)


# ---------------------------------------------------------------------------
# Random presentations keep the functor laws (the closure construction
# is law-preserving by design, not by accident of the zoo).

_SHAPES = (Shape("f", 0), Shape("g", 1), Shape("h", 2))


def _terms_over(variables):
    out = []
    for s in _SHAPES:
        for vs in itertools.product(variables, repeat=s.arity):
            out.append(FlatTerm(s.name, vs))
    return out


_TERMS = _terms_over(("a", "b"))


@st.composite
def random_presentation(draw):
    k = draw(st.integers(0, 3))
    eqs = tuple(Equation(draw(st.sampled_from(_TERMS)),
                         draw(st.sampled_from(_TERMS)))
                for _ in range(k))
    return Presentation("random", _SHAPES, eqs)


@st.composite
def flat_presentations(draw):
    """One to three shapes of arities 0-4, and up to three equations,
    whose sides may use different variables."""
    shapes = tuple(Shape(f"s{i}", draw(st.integers(0, 4)))
                   for i in range(draw(st.integers(1, 3))))
    terms = [FlatTerm(s.name, vs) for s in shapes
             for vs in itertools.product("abc", repeat=s.arity)]
    eqs = tuple(Equation(draw(st.sampled_from(terms)),
                         draw(st.sampled_from(terms)))
                for _ in range(draw(st.integers(0, 3))))
    return Presentation("flat", shapes, eqs)


def test_evaluate_morphism_arity_four_fallback():
    # The kernels of arity 0, 1 and 3 and the digit loop of arity 4, with
    # equations across shapes, one of them with a one-sided variable.
    pres = parse_presentation(
        "shape c/0\nshape u/1\nshape p/2\nshape t/3\nshape q/4\n"
        "eq q(a,b,a,c) = t(c,b,a)\neq t(a,a,b) = u(a)\neq p(a,b) = c")
    objs = [evaluate_object(pres, n) for n in range(5)]
    assert [arity for _, arity, _ in objs[4].rep_groups] == [0, 1, 3, 4]
    for key in tables_up_to(4):
        assert_kernels_match(pres, objs, *key)


@settings(max_examples=60, deadline=None)
@given(flat_presentations(), st.data())
def test_evaluate_morphism_matches_the_oracle_on_random_presentations(
        pres, data):
    # Every map up to size 3, then drawn maps with a domain of size 4 or
    # 5, where the arity-4 fallback has many terms.
    objs = [evaluate_object(pres, n) for n in range(6)]
    for key in tables_up_to(3):
        assert_kernels_match(pres, objs, *key)
    for x in (4, 5):
        y = data.draw(st.integers(1, 5))
        table = tuple(data.draw(st.integers(0, y - 1)) for _ in range(x))
        assert_kernels_match(pres, objs, x, y, table)


@settings(max_examples=60, deadline=None)
@given(random_presentation(), st.data())
def test_random_presentation_is_functorial(pres, data):
    g = PresentationInstance(pres)
    x = data.draw(st.integers(0, 3))
    assert g.map(FiniteFunction(FiniteSet(x), FiniteSet(x),
                                tuple(range(x)))).table == \
        tuple(range(g.size(x)))
    y = data.draw(st.integers(1, 3))
    z = data.draw(st.integers(1, 3))
    if x > 0:
        f = FiniteFunction(FiniteSet(x), FiniteSet(y), tuple(
            data.draw(st.integers(0, y - 1)) for _ in range(x)))
    else:
        f = FiniteFunction(FiniteSet(0), FiniteSet(y), ())
    h = FiniteFunction(FiniteSet(y), FiniteSet(z), tuple(
        data.draw(st.integers(0, z - 1)) for _ in range(y)))
    hf = FiniteFunction(f.dom, h.cod, tuple(h.table[v] for v in f.table))
    gh, gf = g.map(h), g.map(f)
    assert g.map(hf).table == tuple(gh.table[v] for v in gf.table)


# ---------------------------------------------------------------------------
# Parsing.


def test_parse_round_trip_zoo():
    for name, source in SOURCES.items():
        pres = parse_presentation(source)
        assert pres.name == name


def test_header_optional_and_default_name():
    pres = parse_presentation("shape s/1", default_name="fallback")
    assert pres.name == "fallback"
    assert pres.shapes == (Shape("s", 1),)


def test_comments_and_blank_lines():
    pres = parse_presentation("""
        # leading comment

        functor demo
        shape s/2   # trailing comment
        eq s(a,b) = s(b,a)
    """)
    assert pres.name == "demo"
    assert len(pres.equations) == 1


def test_forward_shape_reference_in_equation():
    pres = parse_presentation("""
        eq s(a,b) = s(b,a)
        shape s/2
    """)
    assert len(pres.equations) == 1


def test_one_sided_variables_quantify():
    # eq c = u(a): a appears only on the right and ranges over all of X.
    pres = parse_presentation("""
        shape c/0
        shape u/1
        eq c = u(a)
    """)
    assert len(evaluate_object(pres, 3).names) == 1
    assert len(evaluate_object(pres, 0).names) == 1


class TestParseErrors:
    def expect_error(self, source, exc, line, col, fragment):
        with pytest.raises(exc) as info:
            parse_presentation(source)
        err = info.value
        assert err.line == line
        assert err.col == col
        assert fragment in str(err)
        assert f"line {line}" in str(err)

    def test_unexpected_character(self):
        self.expect_error("shape s/1\nshape !/2", ParseError, 2, 7, "'!'")

    def test_shape_name_expected(self):
        self.expect_error("shape (/1", ParseError, 1, 7,
                          "expected a shape name, found '('")

    def test_bad_keyword(self):
        self.expect_error("form s/1", ParseError, 1, 1, "'form'")

    def test_duplicate_shape(self):
        self.expect_error("shape s/1\nshape s/2", ParseError, 2, 7,
                          "duplicate shape")

    def test_unknown_shape_in_equation(self):
        self.expect_error("shape s/1\neq s(a) = t(a)", ParseError,
                          2, 11, "unknown shape 't'")

    def test_arity_mismatch(self):
        self.expect_error("shape s/2\neq s(a) = s(a,b)", ParseError,
                          2, 4, "arity 2")

    def test_duplicate_header(self):
        self.expect_error("functor a\nfunctor b", ParseError, 2, 1,
                          "duplicate functor header")

    def test_header_after_declaration(self):
        self.expect_error("shape s/1\nfunctor late", ParseError, 2, 1,
                          "must come first")

    def test_missing_close_paren(self):
        self.expect_error("shape s/2\neq s(a,b = s(b,a)", ParseError, 2, 10,
                          "expected ')'")

    def test_missing_equals(self):
        self.expect_error("shape s/1\neq s(a) s(a)", ParseError, 2, 9,
                          "expected '='")

    def test_missing_arity(self):
        self.expect_error("shape s/", ParseError, 1, 9,
                          "unexpected end of line")

    def test_arity_not_a_number(self):
        self.expect_error("shape s/x", ParseError, 1, 9, "expected a number")

    def test_trailing_input(self):
        self.expect_error("shape s/1 extra", ParseError, 1, 11, "trailing")

    def test_arity_mismatch_names_the_equation(self):
        with pytest.raises(ParseError) as info:
            parse_presentation("shape s/2\neq s(a) = s(a,b)")
        assert str(info.value) == (
            "line 2, column 4: shape 's' has arity 2 but is applied to 1 "
            "variable(s) in equation s(a) = s(a,b)")
        with pytest.raises(ParseError) as info:
            parse_presentation("shape c/1\neq c = c")
        assert str(info.value) == (
            "line 2, column 4: shape 'c' has arity 1 but is applied to 0 "
            "variable(s) in equation c = c")

    def test_syntax_is_checked_before_shape_names(self):
        # The whole text is read before the duplicate on line 2 is seen.
        self.expect_error("shape s/1\nshape s/2\nshape !/3", ParseError,
                          3, 7, "unexpected character '!'")


# Every error the parser and ``Presentation`` raise on a text, with its
# full message, line and column.
PARSE_ERRORS = [
    ("shape s/1\nshape !/2", ParseError, 2, 7,
     "line 2, column 7: unexpected character '!'"),
    ("functor 1", ParseError, 1, 9,
     "line 1, column 9: expected a functor name, found '1'"),
    ("functor", ParseError, 1, 8,
     "line 1, column 8: unexpected end of line"),
    ("functor a b", ParseError, 1, 11,
     "line 1, column 11: trailing input 'b'"),
    ("form s/1", ParseError, 1, 1,
     "line 1, column 1: expected 'functor', 'shape' or 'eq', found 'form'"),
    ("1 s/1", ParseError, 1, 1,
     "line 1, column 1: expected 'functor', 'shape' or 'eq', found '1'"),
    ("functor a\nfunctor b", ParseError, 2, 1,
     "line 2, column 1: duplicate functor header"),
    ("shape s/1\nfunctor late", ParseError, 2, 1,
     "line 2, column 1: functor header must come first"),
    ("shape (/1", ParseError, 1, 7,
     "line 1, column 7: expected a shape name, found '('"),
    ("shape s", ParseError, 1, 8,
     "line 1, column 8: unexpected end of line"),
    ("shape s 1", ParseError, 1, 9,
     "line 1, column 9: expected '/', found '1'"),
    ("shape s/", ParseError, 1, 9,
     "line 1, column 9: unexpected end of line"),
    ("shape s/x", ParseError, 1, 9,
     "line 1, column 9: expected a number, found 'x'"),
    ("shape s/1 extra", ParseError, 1, 11,
     "line 1, column 11: trailing input 'extra'"),
    ("eq 1 = s", ParseError, 1, 4,
     "line 1, column 4: expected a shape name, found '1'"),
    ("eq s(1) = s(a)", ParseError, 1, 6,
     "line 1, column 6: expected a variable, found '1'"),
    ("eq s(a", ParseError, 1, 7,
     "line 1, column 7: unexpected end of line"),
    ("eq s(a,", ParseError, 1, 8,
     "line 1, column 8: unexpected end of line"),
    ("shape s/2\neq s(a,b = s(b,a)", ParseError, 2, 10,
     "line 2, column 10: expected ')', found '='"),
    ("shape s/1\neq s(a) s(a)", ParseError, 2, 9,
     "line 2, column 9: expected '=', found 's'"),
    ("eq s(a) =", ParseError, 1, 10,
     "line 1, column 10: unexpected end of line"),
    ("shape s/1\nshape s/2", ParseError, 2, 7,
     "line 2, column 7: duplicate shape name 's'"),
    ("shape s/1\neq s(a) = t(a)", ParseError, 2, 11,
     "line 2, column 11: unknown shape 't' in equation s(a) = t(a)"),
    ("shape s/2\neq s(a) = s(a,b)", ParseError, 2, 4,
     "line 2, column 4: shape 's' has arity 2 but is applied to 1 "
     "variable(s) in equation s(a) = s(a,b)"),
    ("shape c/1\neq c = c", ParseError, 2, 4,
     "line 2, column 4: shape 'c' has arity 1 but is applied to 0 "
     "variable(s) in equation c = c"),
    ("shape s/1\nshape s/2\nshape !/3", ParseError, 3, 7,
     "line 3, column 7: unexpected character '!'"),
]


@pytest.mark.parametrize("source, exc, line, col, text", PARSE_ERRORS)
def test_parse_errors_are_pinned(source, exc, line, col, text):
    with pytest.raises(exc) as info:
        parse_presentation(source)
    err = info.value
    assert (type(err), str(err), err.line, err.col) == (exc, text, line, col)


def assert_names_resolve(instances, max_size):
    for g in instances:
        for n in range(max_size + 1):
            names = g.elements(n)
            assert [g.element_index(n, s) for s in names] == list(
                range(len(names))), (g.name, n)


@settings(max_examples=100, deadline=None)
@given(presentations(SHAPES, "ab", 3))
def test_written_terms_read_back(pres):
    """A presentation written out as text parses back equal, and every
    element name resolves to its own index, also at the empty set of the
    maximal modification."""
    text = "\n".join([f"functor {pres.name}"]
                     + [f"shape {s.name}/{s.arity}" for s in pres.shapes]
                     + [f"eq {eq!r}" for eq in pres.equations])
    assert parse_presentation(text) == pres
    g = PresentationInstance(pres)
    assert_names_resolve([g, empty_mod_max(g)], 3)


def test_zoo_element_names_resolve():
    plain = [zoo_instance(name) for name in zoo_names()]
    assert_names_resolve(
        plain + [empty_mod_min(g) for g in plain]
        + [empty_mod_max(g) for g in plain], 4)


def test_programmatic_presentation_validation():
    with pytest.raises(ParseError) as dup:
        Presentation("p", (Shape("s", 1), Shape("s", 2)), ())
    with pytest.raises(ParseError) as unknown:
        Presentation("p", (Shape("s", 1),),
                     (Equation(FlatTerm("t", ("a",)), FlatTerm("s", ("a",))),))
    with pytest.raises(ParseError) as arity:
        Presentation("p", (Shape("s", 2),),
                     (Equation(FlatTerm("s", ("a",)), FlatTerm("s", ("a", "b"))),))
    for info in (dup, unknown, arity):
        assert info.value.line is None and info.value.col is None
    assert str(dup.value) == "duplicate shape name 's'"
    assert str(unknown.value) == "unknown shape 't' in equation t(a) = s(a)"
    assert str(arity.value) == ("shape 's' has arity 2 but is applied to 1 "
                                "variable(s) in equation s(a) = s(a,b)")


def test_source_positions_are_not_compared():
    pres = parse_presentation("shape s/1\n  eq s(a) = s(b)")
    shape, eq = pres.shapes[0], pres.equations[0]
    assert shape.pos == (1, 7)
    assert (eq.lhs.pos, eq.rhs.pos) == ((2, 6), (2, 13))
    assert shape == Shape("s", 1) and hash(shape) == hash(Shape("s", 1))
    assert eq == Equation(FlatTerm("s", ("a",)), FlatTerm("s", ("b",)))
    assert repr(shape) == "Shape(name='s', arity=1)"
    assert pres == Presentation("anonymous", (Shape("s", 1),), (eq,))


# ---------------------------------------------------------------------------
# Element references.


def test_parse_element():
    assert parse_element("p(0, 2)") == ("p", (0, 2))
    assert parse_element("c") == ("c", ())
    with pytest.raises(UnknownElementError):
        parse_element("p(a)")
    with pytest.raises(UnknownElementError):
        parse_element("p(0,)")


def test_element_index_canonicalizes():
    up = zoo_instance("upair")
    assert up.element_index(3, "p(2,0)") == up.element_index(3, "p(0,2)")
    assert up.elements(3)[up.element_index(3, "p(2,0)")] == "p(0,2)"


def test_element_index_errors():
    up = zoo_instance("upair")
    with pytest.raises(UnknownElementError):
        up.element_index(3, "q(0,1)")
    with pytest.raises(UnknownElementError):
        up.element_index(3, "p(0)")
    with pytest.raises(UnknownElementError):
        up.element_index(3, "p(0,3)")
    with pytest.raises(UnknownElementError):
        zoo_instance("twins").element_index(0, "u(0)")


# ---------------------------------------------------------------------------
# The zoo.


def test_unknown_zoo_name_is_a_value_error():
    text = ("unknown zoo functor 'nope'; available: identity, const2, "
            "power2, power3, upair, exp2, pointed, twins")
    for lookup in (zoo_source, zoo_instance):
        with pytest.raises(ValueError) as info:
            lookup("nope")
        assert str(info.value) == text
