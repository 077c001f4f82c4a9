"""Discrete operator words and the central-limit moment engine."""

from __future__ import annotations

from fractions import Fraction

import pytest

from onckesten.algebra import MultiPoly, ONE, P, Q, ZERO
from onckesten.discrete import (
    CLT_MOMENT_LIMIT,
    clt_class_sums,
    clt_leading_term,
    clt_moment,
    discrete_word_moment,
    kernel_weight,
    order_patterns,
)
from onckesten.moments import sequences_by_recursion

F = Fraction


def _c(x) -> MultiPoly:
    return MultiPoly.constant(F(x))


def test_kernel_weight():
    assert kernel_weight(1, 2) == P
    assert kernel_weight(2, 1) == Q
    assert kernel_weight(3, 3) == ONE


def test_word_moment_examples():
    assert discrete_word_moment((1, 2, 2, 1)) == Q
    assert discrete_word_moment((2, 1, 1, 2)) == P
    assert discrete_word_moment((1, 2, 1, 2)) == ZERO
    assert discrete_word_moment((1, 1, 1, 1)) == _c(2)
    assert discrete_word_moment((1, 1)) == ONE
    assert discrete_word_moment((1, 2, 2)) == ZERO  # unmatched letter
    assert discrete_word_moment((1,)) == ZERO
    assert discrete_word_moment(()) == ONE


def test_word_moment_nested_runs():
    assert discrete_word_moment((1, 2, 3, 3, 2, 1)) == Q * Q
    assert discrete_word_moment((3, 2, 1, 1, 2, 3)) == P * P
    assert discrete_word_moment((1, 2, 2, 1, 3, 3)) == Q
    # all pairings of a single letter: Catalan(n) at p = q = 1
    assert discrete_word_moment((1,) * 6).evaluate(F(1), F(1)) == 5


def test_word_moment_depends_only_on_order_pattern():
    # relabelling by any order isomorphism leaves the moment unchanged
    assert discrete_word_moment((2, 5, 5, 2)) == discrete_word_moment((1, 2, 2, 1))
    assert discrete_word_moment((10, 3, 3, 10)) == discrete_word_moment((2, 1, 1, 2))


def test_order_pattern_counts_are_ordered_bell_numbers():
    expected = [1, 3, 13, 75, 541, 4683]
    got = [sum(1 for _ in order_patterns(n)) for n in range(1, 7)]
    assert got == expected
    for pattern in order_patterns(3):
        assert set(pattern) == set(range(max(pattern) + 1))


def test_class_sums_low_order():
    sums = clt_class_sums(2)
    assert sums[0] == ONE  # (0,0)
    assert sums[1] == ZERO  # (0,1) and (1,0) both vanish
    sums4 = clt_class_sums(4)
    assert sums4[1] == _c(2) + P + Q  # 2 r_2, matching the leading-term normalizer


def test_clt_moment_small_cases():
    for N in (1, 2, 5, 50):
        assert clt_moment(N, 2) == ONE
    for N in (2, 7, 100):
        got = clt_moment(N, 4)
        expected = (ONE - MultiPoly.constant(F(1, N))) * (_c(2) + P + Q) / F(2) + MultiPoly.constant(F(2, N))
        assert got == expected


def test_clt_moment_odd_orders_vanish():
    for n in (1, 3, 5):
        for N in (1, 4, 9):
            assert clt_moment(N, n) == ZERO


def test_clt_moment_single_site():
    # N = 1: phi(omega^n) with every pairing weight 1 -> Catalan numbers
    assert clt_moment(1, 4) == _c(2)
    assert clt_moment(1, 6) == _c(5)


def test_leading_term_matches_continuous_moments():
    table = sequences_by_recursion(3)
    for n in (2, 4, 6):
        assert clt_leading_term(n) == table.r[n // 2]
    assert clt_leading_term(3) == ZERO


def test_convergence_rate_at_rational_parameters():
    r3 = sequences_by_recursion(3).r[3]
    for p, q in [(F(0), F(1)), (F(1), F(1)), (F(1, 2), F(1, 3))]:
        limit = r3.evaluate(p, q)
        for N in (10, 100, 1000):
            value = clt_moment(N, 6).evaluate(p, q)
            assert abs(value - limit) <= F(10, N), (p, q, N)


def test_limit_guards():
    for N, n in ((10, 0), (10, CLT_MOMENT_LIMIT + 1), (10, CLT_MOMENT_LIMIT + 2), (0, 2)):
        with pytest.raises(ValueError):
            clt_moment(N, n)
    for n in (-2, 0, CLT_MOMENT_LIMIT + 2):
        with pytest.raises(ValueError):
            clt_leading_term(n)
    # odd orders are zero before any size check
    assert clt_leading_term(CLT_MOMENT_LIMIT + 1) == ZERO
    assert clt_leading_term(8, override_limits=True) == sequences_by_recursion(4).r[4]
