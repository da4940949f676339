"""The ambient category: objects, functions, subsets, enumerations."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finfun.finset import (
    FiniteFunction,
    FiniteSet,
    SubsetMask,
    compose,
    constant,
    empty_function,
    enumerate_functions,
    enumerate_subsets,
    function_tables,
    identity,
    inclusion,
    injective_tables,
    is_injective,
    is_surjective,
    surjective_tables,
)


def small_functions(max_size=4):
    def build(draw):
        n = draw(st.integers(0, max_size))
        m = draw(st.integers(0 if n == 0 else 1, max_size))
        table = tuple(draw(st.integers(0, m - 1)) for _ in range(n))
        return FiniteFunction(FiniteSet(n), FiniteSet(m), table)
    return st.composite(build)()


class TestFiniteSet:
    def test_label_validation(self):
        with pytest.raises(ValueError):
            FiniteSet(-1)

    def test_iteration(self):
        assert list(FiniteSet(3)) == [0, 1, 2]
        assert len(FiniteSet(0)) == 0


class TestFiniteFunction:
    def test_repr(self):
        f = FiniteFunction(FiniteSet(3), FiniteSet(3), (0, 2, 1))
        assert repr(f) == "(0,2,1):3->3"
        assert repr(empty_function(FiniteSet(2))) == "():0->2"

    def test_call(self):
        f = FiniteFunction(FiniteSet(2), FiniteSet(3), (2, 0))
        assert [f(0), f(1)] == [2, 0]

    def test_table_validation(self):
        with pytest.raises(ValueError):
            FiniteFunction(FiniteSet(2), FiniteSet(2), (0,))
        with pytest.raises(ValueError):
            FiniteFunction(FiniteSet(1), FiniteSet(2), (2,))
        with pytest.raises(ValueError):
            FiniteFunction(FiniteSet(1), FiniteSet(0), (0,))

    def test_identity_and_constant(self):
        assert identity(FiniteSet(3)).table == (0, 1, 2)
        assert constant(FiniteSet(2), FiniteSet(3), 1).table == (1, 1)
        with pytest.raises(ValueError):
            constant(FiniteSet(1), FiniteSet(2), 5)

    def test_compose(self):
        f = FiniteFunction(FiniteSet(2), FiniteSet(3), (1, 2))
        g = FiniteFunction(FiniteSet(3), FiniteSet(2), (0, 0, 1))
        assert compose(g, f).table == (0, 1)
        with pytest.raises(ValueError):
            compose(f, f)

    @given(small_functions())
    def test_identity_laws(self, f):
        assert compose(f, identity(f.dom)).table == f.table
        assert compose(identity(f.cod), f).table == f.table

    @given(st.data())
    def test_compose_associative(self, data):
        f = data.draw(small_functions())
        g = data.draw(small_functions())
        h = data.draw(small_functions())
        if g.dom != f.cod or h.dom != g.cod:
            return
        assert compose(h, compose(g, f)).table == \
            compose(compose(h, g), f).table

    def test_injective_surjective(self):
        assert is_injective(FiniteFunction(FiniteSet(2), FiniteSet(3), (2, 0)))
        assert not is_injective(
            FiniteFunction(FiniteSet(2), FiniteSet(3), (1, 1)))
        assert is_surjective(
            FiniteFunction(FiniteSet(3), FiniteSet(2), (0, 1, 0)))
        assert not is_surjective(
            FiniteFunction(FiniteSet(3), FiniteSet(2), (0, 0, 0)))
        assert is_injective(empty_function(FiniteSet(2)))
        assert is_surjective(empty_function(FiniteSet(0)))


class TestSubsetMask:
    def test_of_sorts_and_dedups(self):
        m = SubsetMask.of(FiniteSet(4), [2, 0, 2])
        assert m.members == (0, 2)
        assert repr(m) == "{0,2}"
        assert repr(SubsetMask.of(FiniteSet(3), [])) == "{}"

    def test_membership_validation(self):
        assert SubsetMask(FiniteSet(2), 0b11).members == (0, 1)
        assert SubsetMask(FiniteSet(0), 0).members == ()
        for bits in (1 << 2, -1):
            with pytest.raises(ValueError):
                SubsetMask(FiniteSet(2), bits)
        for member in (2, -1):
            with pytest.raises(ValueError):
                SubsetMask.of(FiniteSet(2), [0, member])

    @given(st.data())
    def test_agrees_with_a_frozenset_model(self, data):
        x = FiniteSet(data.draw(st.integers(0, 8)))
        subsets = st.frozensets(st.integers(0, max(x.size - 1, 0)),
                                max_size=x.size)
        sa, sb = data.draw(subsets), data.draw(subsets)
        point = data.draw(st.integers(0, x.size))
        a, b = SubsetMask.of(x, sa), SubsetMask.of(x, sorted(sb, reverse=True))
        assert a.bits == sum(1 << m for m in sa)
        assert a.members == tuple(sorted(sa)) == tuple(a)
        assert repr(a) == "{" + ",".join(map(str, sorted(sa))) + "}"
        assert len(a) == len(sa)
        assert all((i in a) == (i in sa) for i in range(-1, x.size + 1))
        assert a.intersection(b) == SubsetMask.of(x, sa & sb)
        assert a.without(point) == SubsetMask.of(x, sa - {point})
        assert a.is_subset_of(b) == (sa <= sb)
        assert (a == b) == (sa == sb)
        assert (hash(a) == hash(b)) or sa != sb
        assert a != SubsetMask.of(FiniteSet(x.size + 1), sa)

    def test_set_operations(self):
        x = FiniteSet(4)
        a = SubsetMask.of(x, [0, 1, 2])
        b = SubsetMask.of(x, [1, 3])
        assert a.intersection(b).members == (1,)
        assert a.without(1).members == (0, 2)
        assert a.without(3).members == (0, 1, 2)
        assert b.is_subset_of(a) is False
        assert a.intersection(b).is_subset_of(b)
        assert 1 in b and 0 not in b
        assert list(a) == [0, 1, 2]

    def test_inclusion_function(self):
        m = SubsetMask.of(FiniteSet(4), [1, 3])
        i = inclusion(m)
        assert i.table == (1, 3)
        assert i.dom.size == 2 and i.cod.size == 4
        assert is_injective(i)

    def test_full_inclusion_is_identity(self):
        x = FiniteSet(3)
        full = SubsetMask.of(x, range(3))
        assert inclusion(full).table == identity(x).table
        assert inclusion(SubsetMask.of(x, [])).table == ()


class TestEnumerations:
    def test_function_count(self):
        assert len(list(enumerate_functions(FiniteSet(2), FiniteSet(3)))) == 9
        assert len(list(enumerate_functions(FiniteSet(0), FiniteSet(3)))) == 1
        assert len(list(enumerate_functions(FiniteSet(2), FiniteSet(0)))) == 0
        assert len(list(enumerate_functions(FiniteSet(0), FiniteSet(0)))) == 1

    def test_function_order_is_lexicographic(self):
        tables = [f.table
                  for f in enumerate_functions(FiniteSet(2), FiniteSet(2))]
        assert tables == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_subset_order_cardinality_then_lex(self):
        members = [m.members for m in enumerate_subsets(FiniteSet(3))]
        assert members == [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2),
                           (0, 1, 2)]

    def test_subset_count(self):
        assert len(list(enumerate_subsets(FiniteSet(4)))) == 16

    @pytest.mark.parametrize("n", range(9))
    def test_subset_order_is_combinations_by_size(self, n):
        expected = [c for k in range(n + 1)
                    for c in itertools.combinations(range(n), k)]
        assert [m.members for m in enumerate_subsets(FiniteSet(n))] == expected

    @given(st.integers(0, 4), st.integers(0, 4))
    def test_function_count_formula(self, n, m):
        got = len(list(enumerate_functions(FiniteSet(n), FiniteSet(m))))
        assert got == m ** n

    def test_enumeration_deterministic(self):
        once = [f.table for f in enumerate_functions(FiniteSet(3), FiniteSet(2))]
        twice = [f.table for f in enumerate_functions(FiniteSet(3), FiniteSet(2))]
        assert once == twice
        assert once == sorted(once)


@pytest.mark.parametrize("x", range(7))
@pytest.mark.parametrize("y", range(7))
def test_table_sources_filter_function_tables_in_order(x, y):
    every = list(function_tables(x, y))
    assert list(injective_tables(x, y)) \
        == [t for t in every if len(set(t)) == len(t)]
    assert list(surjective_tables(x, y)) \
        == [t for t in every if set(t) == set(range(y))]


def test_all_pairs_compose_correctly():
    x, y, z = FiniteSet(2), FiniteSet(3), FiniteSet(2)
    for f in enumerate_functions(x, y):
        for g in enumerate_functions(y, z):
            gf = compose(g, f)
            for i in x:
                assert gf(i) == g(f(i))
