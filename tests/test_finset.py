"""The ambient category: objects, functions, subsets, enumerations."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st
from helpers import injections, injective, surjections

from finfun.finset import (
    FiniteFunction,
    FiniteSet,
    SubsetMask,
    check_table,
    empty_function,
    enumerate_functions,
    enumerate_subsets,
    function_tables,
    inclusion,
    is_surjective,
)


class TestFiniteSet:
    def test_label_validation(self):
        with pytest.raises(ValueError):
            FiniteSet(-1)


class TestFiniteFunction:
    def test_repr(self):
        f = FiniteFunction(FiniteSet(3), FiniteSet(3), (0, 2, 1))
        assert repr(f) == "(0,2,1):3->3"
        assert repr(empty_function(FiniteSet(2))) == "():0->2"

    def test_table_validation(self):
        with pytest.raises(ValueError):
            FiniteFunction(FiniteSet(2), FiniteSet(2), (0,))
        with pytest.raises(ValueError):
            FiniteFunction(FiniteSet(1), FiniteSet(2), (2,))
        with pytest.raises(ValueError):
            FiniteFunction(FiniteSet(1), FiniteSet(0), (0,))

    @staticmethod
    def loop_oracle(table, x, y):
        """The range rule as one loop over every entry: the check that
        ``FiniteFunction`` ran before ``check_table`` existed."""
        if len(table) != x:
            return (f"table has {len(table)} entries for a domain of size "
                    f"{x}")
        for i, v in enumerate(table):
            if not 0 <= v < y:
                return (f"table entry {v} at position {i} is not below the "
                        f"codomain size {y}")
        return None

    @given(st.data())
    def test_check_table_agrees_with_the_loop(self, data):
        x, y = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        # Mostly the right length, with entries around both ends of 0..y-1.
        n = data.draw(st.sampled_from([x, x, x, x + 1, max(x - 1, 0)]))
        table = tuple(data.draw(st.lists(st.integers(-2, y + 2),
                                         min_size=n, max_size=n)))
        expected = self.loop_oracle(table, x, y)
        try:
            check_table(table, x, y)
            found = None
        except ValueError as err:
            found = str(err)
        assert found == expected
        try:
            FiniteFunction(FiniteSet(x), FiniteSet(y), table)
            built = None
        except ValueError as err:
            built = str(err)
        assert built == expected

    def test_injective_surjective(self):
        assert injective(FiniteFunction(FiniteSet(2), FiniteSet(3),
                                        (2, 0)).table)
        assert not injective(
            FiniteFunction(FiniteSet(2), FiniteSet(3), (1, 1)).table)
        assert is_surjective(
            FiniteFunction(FiniteSet(3), FiniteSet(2), (0, 1, 0)))
        assert not is_surjective(
            FiniteFunction(FiniteSet(3), FiniteSet(2), (0, 0, 0)))
        assert injective(empty_function(FiniteSet(2)).table)
        assert is_surjective(empty_function(FiniteSet(0)))


class TestSubsetMask:
    def test_membership_validation(self):
        assert SubsetMask(FiniteSet(2), 0b11).members == (0, 1)
        assert SubsetMask(FiniteSet(0), 0).members == ()
        for bits in (1 << 2, 0b101, -1):
            with pytest.raises(ValueError):
                SubsetMask(FiniteSet(2), bits)

    @given(st.data())
    def test_agrees_with_a_frozenset_model(self, data):
        x = FiniteSet(data.draw(st.integers(0, 8)))
        subsets = st.frozensets(st.integers(0, max(x.size - 1, 0)),
                                max_size=x.size)
        sa, sb = data.draw(subsets), data.draw(subsets)
        a = SubsetMask(x, sum(1 << m for m in sa))
        b = SubsetMask(x, sum(1 << m for m in sb))
        assert a.members == tuple(sorted(sa))
        assert repr(a) == "{" + ",".join(map(str, sorted(sa))) + "}"
        assert len(a) == len(sa)
        assert (a == b) == (sa == sb)
        assert (hash(a) == hash(b)) or sa != sb
        assert a != SubsetMask(FiniteSet(x.size + 1), a.bits)

    def test_inclusion_function(self):
        m = SubsetMask(FiniteSet(4), 0b1010)
        i = inclusion(m)
        assert i.table == (1, 3)
        assert i.dom.size == 2 and i.cod.size == 4
        assert injective(i.table)

    def test_full_inclusion_is_identity(self):
        x = FiniteSet(3)
        full = SubsetMask(x, 0b111)
        assert inclusion(full).table == tuple(range(x.size))
        assert inclusion(SubsetMask(x, 0)).table == ()


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
    # The injections and surjections that the oracle of ``helpers``
    # walks: the permutations of y taken x at a time, and the tables
    # whose values are all of y, each in ``function_tables`` order.
    def of(keys):
        return [t for a, b, t in keys if (a, b) == (x, y)]

    every = list(function_tables(x, y))
    assert of(injections(6)) == list(itertools.permutations(range(y), x))
    assert of(surjections(6)) == [t for t in every if set(t) == set(range(y))]
