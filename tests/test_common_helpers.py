"""Property tests for the algorithm-structure helpers in core.common."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common import (
    Blocks,
    chunk_partition,
    is_power_of_two,
    knomial_parent_children,
    nonroot_order,
    rd_held_blocks,
)


class TestNonrootOrder:
    def test_excludes_root(self):
        assert nonroot_order(5, 2) == [0, 1, 3, 4]

    def test_length(self):
        assert len(nonroot_order(8, 0)) == 7


class TestBlocks:
    def test_uniform(self):
        b = Blocks(10)
        assert [b(r) for r in range(3)] == [(10, 0), (10, 10), (10, 20)]
        assert b.pair(2, 1) == (10, 10, 20)

    def test_counts_vector_packs_densely(self):
        b = Blocks(10, [3, 0, 5])
        assert [b(r) for r in range(3)] == [(3, 0), (0, 3), (5, 3)]

    def test_counts_matrix_rows_send_columns_receive(self):
        b = Blocks(10, [[1, 2], [3, 4]])
        # s -> d sits at row s's prefix sum of d in s's sendbuf, and at
        # column d's prefix sum of s in d's recvbuf
        assert b.pair(1, 0) == (3, 0, 1)
        assert b.pair(0, 1) == (2, 1, 0)
        assert b.pair(1, 1) == (4, 3, 2)


class TestPowerOfTwo:
    @pytest.mark.parametrize("n,expect", [(1, True), (2, True), (3, False),
                                          (16, True), (24, False), (0, False)])
    def test_cases(self, n, expect):
        assert is_power_of_two(n) is expect


@settings(max_examples=80, deadline=None)
@given(
    nbytes=st.integers(min_value=0, max_value=10 ** 7),
    parts=st.integers(min_value=1, max_value=300),
)
def test_property_chunk_partition(nbytes, parts):
    chunks = chunk_partition(nbytes, parts)
    assert len(chunks) == parts
    # chunks tile [0, nbytes) exactly, in order
    pos = 0
    for off, ln in chunks:
        assert off == pos
        assert ln >= 0
        pos += ln
    assert pos == nbytes
    # balanced: sizes differ by at most one byte
    lens = [ln for _, ln in chunks]
    assert max(lens) - min(lens) <= 1


def test_chunk_partition_rejects_zero_parts():
    with pytest.raises(ValueError):
        chunk_partition(100, 0)


@settings(max_examples=80, deadline=None)
@given(
    size=st.integers(min_value=2, max_value=200),
    k=st.integers(min_value=2, max_value=8),
)
def test_property_knomial_tree_is_a_spanning_tree(size, k):
    """Every non-root has exactly one parent; following parents reaches the
    root; children lists are consistent with parenthood."""
    parents = {}
    children_of = {}
    for rel in range(size):
        parent, levels = knomial_parent_children(rel, size, k)
        parents[rel] = parent
        children_of[rel] = [c for group in levels for c in group]
        for group in levels:
            assert len(group) <= k - 1  # bounded reader concurrency
    assert parents[0] is None
    for rel in range(1, size):
        p = parents[rel]
        assert p is not None and 0 <= p < size
        assert rel in children_of[p], (rel, p)
        # walk to the root without cycles
        seen = set()
        cur = rel
        while cur != 0:
            assert cur not in seen
            seen.add(cur)
            cur = parents[cur]
    # each node appears as a child exactly once
    all_children = [c for lst in children_of.values() for c in lst]
    assert sorted(all_children) == list(range(1, size))


def test_knomial_radix_validation():
    with pytest.raises(ValueError):
        knomial_parent_children(0, 8, 1)


@settings(max_examples=80, deadline=None)
@given(p=st.integers(min_value=2, max_value=96))
def test_property_rd_held_blocks_cover_everything(p):
    """After the final step, every rank < m holds all p blocks exactly once."""
    m = 1 << (p.bit_length() - 1)
    if m > p:
        m >>= 1
    rem = p - m
    steps = m.bit_length() - 1
    for rank in range(m):
        held = rd_held_blocks(rank, steps, m, rem)
        assert held == sorted(set(held))  # no duplicates
        assert held == list(range(p))

    # intermediate steps: the held sets of step-i partners are disjoint
    for i in range(steps):
        a = rd_held_blocks(0, i, m, rem)
        b = rd_held_blocks(0 ^ (1 << i), i, m, rem)
        assert not (set(a) & set(b))


def test_rd_held_blocks_initial_state():
    # p = 6: m = 4, rem = 2 — ranks 0,1 also hold the folded blocks 4,5
    assert rd_held_blocks(0, 0, 4, 2) == [0, 4]
    assert rd_held_blocks(2, 0, 4, 2) == [2]
