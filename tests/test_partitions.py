"""Ordered non-crossing partitions against first-principles brute force."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

import pytest

import oracles
from onckesten.algebra import P, Q
from onckesten.moments import catalan
from onckesten.partitions import (
    GENERAL_ENUM_LIMIT,
    IntervalSignature,
    OrderedPartition,
    PAIR_ENUM_LIMIT,
    SetPartition,
    _nc_bases,
    disorder_order_counts,
    enumerate_nc,
    enumerate_ordered,
    is_adapted,
    is_noncrossing,
    nesting_forest,
    weight,
)

F = Fraction


def _sp(n, blocks):
    return SetPartition.from_blocks(n, blocks)


# -- construction and rendering ------------------------------------------------------


def test_partition_normalizes_and_validates():
    sp = _sp(4, [[3, 4], [2, 1]])
    assert sp.blocks == ((1, 2), (3, 4))
    assert str(sp) == "[{1,2},{3,4}]"
    assert not sp.is_covered
    assert _sp(4, [[1, 4], [2, 3]]).is_covered
    with pytest.raises(ValueError):
        _sp(4, [[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        _sp(4, [[1, 2]])
    with pytest.raises(ValueError):
        _sp(4, [[1, 2], [3, 5]])
    # the constructor checks the invariant that nesting_forest relies on
    assert SetPartition(4, ((1, 4), (2, 3))) == _sp(4, [[2, 3], [1, 4]])
    for blocks in (((2, 3), (1, 4)), ((1, 4), (3, 2)), ((1, 2), (2, 3)), ((1, 2),), ((), (1, 2), (3, 4))):
        with pytest.raises(ValueError):
            SetPartition(4, blocks)


def test_ordered_partition_coloring_order():
    base = _sp(4, [[1, 4], [2, 3]])
    op = OrderedPartition(base, (1, 0))
    assert op.blocks_in_order == ((2, 3), (1, 4))
    assert str(op) == "[{2,3},{1,4}]"
    with pytest.raises(ValueError):
        OrderedPartition(base, (0, 0))


# -- crossing and nesting vs the oracle -------------------------------------------------


def test_noncrossing_matches_quadruple_scan_through_n8():
    for n in range(1, 9):
        for blocks in oracles.set_partitions(n):
            sp = _sp(n, blocks)
            assert is_noncrossing(sp) == (not oracles.crosses(blocks)), blocks


def test_nesting_forest_matches_enclosure_oracle_through_n8():
    for n in range(1, 9):
        for blocks in oracles.nc_partitions(n):
            sp = _sp(n, blocks)
            forest = nesting_forest(sp)
            got = tuple(
                sorted(
                    (sp.blocks[p], sp.blocks[c])
                    for p, c in forest.edges
                )
            )
            assert got == oracles.forest_edges(blocks), blocks
            assert forest.inner_count == len(got)
            assert forest.outer_count == len(blocks) - len(got)


def test_nesting_forest_rejects_crossing():
    with pytest.raises(ValueError):
        nesting_forest(_sp(4, [[1, 3], [2, 4]]))


def test_disorder_order_counts_match_oracle_through_n5():
    for n in range(1, 6):
        for blocks in oracles.nc_partitions(n):
            sp = _sp(n, blocks)
            for perm in permutations(range(len(blocks))):
                op = OrderedPartition(sp, perm)
                coloring = tuple(blocks[i] for i in perm)
                assert disorder_order_counts(op) == oracles.disorder_order(blocks, coloring)


def test_weight_is_p_e_q_eprime():
    op = OrderedPartition(_sp(4, [[1, 4], [2, 3]]), (1, 0))
    assert weight(op) == P  # inner block colored first: one disorder
    assert weight(OrderedPartition(op.base, (0, 1))) == Q


def test_hand_colored_eight_point_instances():
    # pair partition with nesting relations P4<P2, P4<P1, P2<P3 and
    # coloring positions P1={6,7}, P2={2,5}, P3={3,4}, P4={1,8}: e=2, e'=1
    base = _sp(8, [[1, 8], [2, 5], [3, 4], [6, 7]])
    op = OrderedPartition(base, (3, 1, 2, 0))
    assert disorder_order_counts(op) == (2, 1)
    assert weight(op) == P * P * Q
    # monotone example: parents always colored before children gives e=0
    monotone = OrderedPartition(base, (0, 1, 2, 3))
    assert disorder_order_counts(monotone) == (0, 3)
    assert weight(monotone) == Q ** 3


# -- enumeration ---------------------------------------------------------------------


def test_counts_are_catalan_and_ordered_counts_factorial():
    for n in range(1, 7):
        assert sum(1 for _ in enumerate_nc(2 * n, pair_only=True)) == catalan(n)
        assert (
            sum(1 for _ in enumerate_ordered(2 * n, pair_only=True))
            == catalan(n) * math.factorial(n)
        )
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_nc(n)) == catalan(n)


def test_enumeration_is_lexicographic_by_blocks():
    listing = [str(sp) for sp in enumerate_nc(4, pair_only=True)]
    assert listing == ["[{1,2},{3,4}]", "[{1,4},{2,3}]"]
    first = next(iter(enumerate_nc(6, pair_only=True)))
    assert str(first) == "[{1,2},{3,4},{5,6}]"
    general = [str(sp) for sp in enumerate_nc(3)]
    assert general == [
        "[{1},{2},{3}]",
        "[{1},{2,3}]",
        "[{1,2},{3}]",
        "[{1,2,3}]",
        "[{1,3},{2}]",
    ]


def test_enumerate_against_oracle_sets():
    for n in range(1, 7):
        ours = {sp.blocks for sp in enumerate_nc(n)}
        assert ours == set(oracles.nc_partitions(n))
    for n in range(1, 5):
        ours = {sp.blocks for sp in enumerate_nc(2 * n, pair_only=True)}
        assert ours == set(oracles.nc_pair_partitions(2 * n))


def test_general_enumeration_is_the_sorted_oracle_listing():
    # canonical order, not only the same set: the listing streams the generator unsorted
    for n in range(1, 10):
        listing = [sp.blocks for sp in enumerate_nc(n, override_limits=True)]
        assert listing == sorted(oracles.nc_partitions(n)), n
    # the pair listing streams _nc_pairings unsorted, so its own order must be canonical
    for n in range(1, 9):
        listing = [sp.blocks for sp in enumerate_nc(2 * n, pair_only=True, override_limits=True)]
        if n <= 5:
            assert listing == sorted(oracles.nc_pair_partitions(2 * n)), n
        else:
            # the oracle filters all Bell(2n) set partitions, 10^10 at 2n = 16: Catalan(n)
            # distinct non-crossing pair partitions in ascending order are its sorted listing
            assert len(listing) == catalan(n) and listing == sorted(set(listing)), n
            for bs in listing:
                assert sorted(x for b in bs for x in b) == list(range(1, 2 * n + 1)), bs
                assert bs == tuple(sorted(bs)) and all(len(b) == 2 and b[0] < b[1] for b in bs), bs
                assert not oracles.crosses(bs), bs


def test_nc_partition_generator_yields_catalan_distinct_partitions():
    for n in range(0, 11):
        found = list(_nc_bases(tuple(range(1, n + 1)), False))
        assert len(found) == len(set(found)) == catalan(n), n


def test_pair_listing_is_the_general_listing_filtered_to_pairs():
    # one recursion, one order: the pairings sit in the general listing in the same order
    for n in range(1, 11):
        general = [sp.blocks for sp in enumerate_nc(n, override_limits=True) if all(len(b) == 2 for b in sp.blocks)]
        pairs = [sp.blocks for sp in enumerate_nc(n, pair_only=True, override_limits=True)]
        assert pairs == general, n


def test_monotone_colorings_count_double_factorial():
    # colorings without disorders: (2n-1)!! of them in total
    for n in range(1, 6):
        count = sum(
            1
            for op in enumerate_ordered(2 * n, pair_only=True)
            if disorder_order_counts(op)[0] == 0
        )
        assert count == math.prod(range(1, 2 * n, 2))


def test_covered_and_outer_block_filters():
    roots2 = list(enumerate_ordered(6, pair_only=True, outer_blocks=2))
    assert all(nesting_forest(op.base).outer_count == 2 for op in roots2)


def test_enumeration_limits_guard():
    with pytest.raises(ValueError, match=f"n = {PAIR_ENUM_LIMIT + 2} exceeds the limit {PAIR_ENUM_LIMIT}; pass override_limits"):
        next(enumerate_nc(PAIR_ENUM_LIMIT + 2, pair_only=True))
    for n in (0, PAIR_ENUM_LIMIT + 1):
        with pytest.raises(ValueError):
            next(enumerate_nc(n, pair_only=True))
    for n in (0, GENERAL_ENUM_LIMIT + 1):
        with pytest.raises(ValueError):
            next(enumerate_nc(n))
    # the pair enumerator may go further when explicitly overridden
    first = next(enumerate_nc(PAIR_ENUM_LIMIT + 2, pair_only=True, override_limits=True))
    assert first.block_count == (PAIR_ENUM_LIMIT + 2) // 2


def test_odd_pair_enumeration_is_empty():
    assert list(enumerate_nc(5, pair_only=True)) == []


# -- interval signatures ----------------------------------------------------------------


def test_signature_construction_and_ranks():
    sig = IntervalSignature.from_named_intervals(
        ("f", "f", "g", "g", "f", "f"), {"g": (0, 1), "f": (1, 2)}
    )
    assert sig.lengths == (F(1), F(1))
    assert sig.assignment == (1, 1, 0, 0, 1, 1)
    assert sig.n == 6 and sig.interval_count == 2


def test_signature_validation_errors():
    with pytest.raises(ValueError):
        IntervalSignature.from_named_intervals(("f",), {"f": (1, 1)})
    with pytest.raises(ValueError):
        IntervalSignature.from_named_intervals(
            ("f", "g"), {"f": (0, 2), "g": (1, 3)}
        )
    with pytest.raises(ValueError):
        IntervalSignature.from_named_intervals(("h",), {"f": (0, 1)})
    # touching endpoints are allowed
    sig = IntervalSignature.from_named_intervals(("a", "b"), {"a": (0, 1), "b": (1, 2)})
    assert sig.assignment == (0, 1)


@pytest.mark.parametrize(
    "intervals", [{"f": (0, 1), "g": (0, 1)}, {"f": (0, 2), "g": (1, 3)}], ids=["identical", "overlapping"]
)
def test_overlap_message_says_what_is_accepted(intervals):
    with pytest.raises(ValueError, match="f and g overlap; interiors must be disjoint, with a shared interval declared once"):
        IntervalSignature.from_named_intervals(("f", "g"), intervals)


def test_adapted_colorings_follow_the_interval_ladder():
    sig = IntervalSignature(lengths=(F(1), F(1)), assignment=(0, 0, 1, 1))
    base = _sp(4, [[1, 2], [3, 4]])
    assert is_adapted(OrderedPartition(base, (0, 1)), sig)
    assert not is_adapted(OrderedPartition(base, (1, 0)), sig)
    straddling = _sp(4, [[1, 4], [2, 3]])
    assert not is_adapted(OrderedPartition(straddling, (0, 1)), sig)
    single = IntervalSignature.single(4)
    assert is_adapted(OrderedPartition(straddling, (0, 1)), single)
    assert is_adapted(OrderedPartition(straddling, (1, 0)), single)
