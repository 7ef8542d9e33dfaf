"""Partition enumeration and labeled decomposition counts."""

import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import count_labeled_decompositions, enumerate_partitions, partition_count, set_partitions


def test_enumeration_examples():
    assert enumerate_partitions(2, 2) == [(1, 1)]
    assert enumerate_partitions(3, 2) == [(2, 1), (1, 1, 1)]
    assert enumerate_partitions(4, 2) == [(3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_zero_vertices_has_no_partitions_of_positive_length():
    assert enumerate_partitions(0, 1) == []
    assert enumerate_partitions(0, 2) == []


def test_reverse_lexicographic_order():
    for n in range(1, 12):
        parts = enumerate_partitions(n)
        assert parts == sorted(parts, reverse=True)
        assert len(parts) == len(set(parts))


@pytest.mark.parametrize("n", range(1, 22))
def test_completeness_against_partition_count(n):
    assert len(enumerate_partitions(n, 1)) == partition_count(n)
    assert len(enumerate_partitions(n, 2)) == partition_count(n) - 1


@given(st.integers(1, 30), st.integers(1, 6))
def test_partition_invariants(n, min_length):
    for parts in enumerate_partitions(n, min_length):
        assert sum(parts) == n
        assert len(parts) >= min_length
        assert all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))
        assert all(x >= 1 for x in parts)


def test_decomposition_count_examples():
    assert count_labeled_decompositions((1, 1)) == 1
    assert count_labeled_decompositions((2, 1)) == 3
    assert count_labeled_decompositions((2, 2)) == 3
    assert count_labeled_decompositions(()) == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_decomposition_count_against_set_partition_enumeration(n):
    # count set partitions of n labeled items grouped by block-size shape
    shapes = Counter()
    for blocks in set_partitions(list(range(n))):
        shapes[tuple(sorted(map(len, blocks), reverse=True))] += 1
    for parts in enumerate_partitions(n):
        assert count_labeled_decompositions(parts) == shapes[parts]


def test_decomposition_count_order_insensitive():
    assert count_labeled_decompositions((1, 3, 2)) == count_labeled_decompositions((3, 2, 1))


def test_rejects_bad_parts():
    with pytest.raises(ValueError):
        count_labeled_decompositions((2, 0))
    with pytest.raises(ValueError):
        enumerate_partitions(-1)
    with pytest.raises(ValueError):
        enumerate_partitions(3, 0)
