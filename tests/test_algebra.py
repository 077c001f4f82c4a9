"""Exact-arithmetic kernel: polynomials, one-variable cells, power series."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from onckesten.algebra import (
    MultiPoly,
    ONE,
    P,
    PowerSeries,
    Q,
    T,
    UniPoly,
    ZERO,
    as_multipoly,
)

F = Fraction


def test_canonical_rendering_golden():
    r3 = ONE + P + Q + (P + Q) ** 2 / F(2)
    assert str(r3) == "1 + p + q + 1/2p^2 + pq + 1/2q^2"
    assert str(ZERO) == "0"
    assert str(ONE - P) == "1 - p"
    assert str(T) == "T"
    assert str(P * Q * T ** 2 * F(-3, 4)) == "-3/4pqT^2"
    assert str(MultiPoly.constant(F(5, 3))) == "5/3"


def test_term_order_is_total_degree_then_p_q_t():
    poly = T + T * T * F(2) + P * T * T + Q * T * T + T ** 3
    assert str(poly) == "T + 2T^2 + pT^2 + qT^2 + T^3"


def test_constant_helpers_and_coeff_access():
    c = MultiPoly.constant(F(7, 2))
    assert c.is_constant and c.coeff(0) == F(7, 2)
    m = MultiPoly.monomial(F(3), 1, 2, 0)
    assert m.coeff(1, 2, 0) == 3 and m.coeff(0, 0, 0) == 0
    assert not P.is_constant


def test_evaluate_is_exact_and_guards_t():
    r2 = (MultiPoly.constant(F(2)) + P + Q) / F(2)
    assert r2.evaluate(F(1), F(1)) == F(2)
    assert r2.evaluate(F(1, 2), F(1, 3)) == F(17, 12)
    with pytest.raises(ValueError):
        (T + P).evaluate(F(1), F(1))
    assert (T + P).evaluate(F(1), F(0), F(2)) == F(3)


def test_scalar_equality_and_division():
    assert MultiPoly.constant(F(3, 2)) == F(3, 2)
    assert ZERO == 0 and not (P == 1)
    assert (P * F(3)) / F(3) == P
    with pytest.raises(ZeroDivisionError):
        P / F(0)


_scalars = st.fractions(
    min_value=F(-4), max_value=F(4), max_denominator=6
)
_exponents = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)
_polys = st.dictionaries(_exponents, _scalars, max_size=4).map(MultiPoly)


@settings(deadline=None, max_examples=60)
@given(_polys, _polys, _polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a and a * ZERO == ZERO
    assert a - a == ZERO


@settings(deadline=None, max_examples=40)
@given(_polys, _polys)
def test_evaluate_is_a_homomorphism(a, b):
    args = (F(2, 3), F(5, 7), F(1, 2))
    assert (a + b).evaluate(*args) == a.evaluate(*args) + b.evaluate(*args)
    assert (a * b).evaluate(*args) == a.evaluate(*args) * b.evaluate(*args)


@settings(deadline=None, max_examples=20)
@given(_polys, st.integers(min_value=0, max_value=5))
def test_power_matches_repeated_multiplication(a, k):
    expected = ONE
    for _ in range(k):
        expected = expected * a
    assert a ** k == expected


def test_t_coefficients_split():
    poly = T * (P + Q) + T ** 2 * F(3) + ONE
    parts = poly.t_coefficients()
    assert parts[0] == ONE and parts[1] == P + Q and parts[2] == MultiPoly.constant(F(3))
    assert as_multipoly(F(2)) == MultiPoly.constant(F(2))


# -- one-variable cells -------------------------------------------------------------


def test_unipoly_eval_and_integral_golden():
    # p(x - 1) + q(2 - x) integrated over [1, 2] is (p + q)/2
    ramp = UniPoly([Q * F(2) - P, P - Q])
    anti = ramp.antiderivative()
    assert anti.eval_poly(F(2)) - anti.eval_poly(F(1)) == (P + Q) / F(2)
    assert ramp.eval_poly(MultiPoly.constant(F(1))) == Q
    assert ramp.eval_poly(MultiPoly.constant(F(2))) == P


def test_unipoly_arithmetic_and_antiderivative():
    f = UniPoly([ONE, P])  # 1 + p x
    g = UniPoly([Q])
    assert (f * g).coeffs == (Q, P * Q)
    assert (f + g).coeffs == (ONE + Q, P)
    anti = f.antiderivative()
    assert anti.coeffs == (ZERO, ONE, P / F(2))
    assert anti.eval_poly(ONE) - anti.eval_poly(ZERO) == ONE + P / F(2)
    assert UniPoly([]).is_zero


def test_unipoly_trailing_zeros_are_stripped():
    assert UniPoly([ONE, ZERO]).coeffs == (ONE,)
    assert UniPoly([ZERO, ZERO]) == UniPoly([])


# -- formal power series --------------------------------------------------------------


def _series(*consts):
    return PowerSeries([MultiPoly.constant(F(c)) for c in consts], len(consts) - 1)


def test_series_sqrt_of_one_minus_two_z():
    f = _series(1, -2, 0, 0, 0)
    root = f.sqrt()
    expected = [F(1), F(-1), F(-1, 2), F(-1, 2), F(-5, 8)]
    for k, c in enumerate(expected):
        assert root.coeff(k) == MultiPoly.constant(c)
    assert (root * root).agrees_through(f) is None


def test_series_sqrt_requires_constant_one():
    with pytest.raises(ValueError):
        _series(4, 1).sqrt()


def test_series_shift_and_differentiate():
    f = _series(1, 2, 3)
    assert f.shift().coeffs[0] == ZERO and f.shift().coeff(1) == ONE
    assert f.shift().order == f.order + 1
    d = f.differentiate()
    assert d.coeff(0) == MultiPoly.constant(F(2))
    assert d.coeff(1) == MultiPoly.constant(F(6))
    assert d.order == f.order - 1


def test_series_agrees_through_reports_first_mismatch():
    f = _series(1, 2, 3, 4)
    g = _series(1, 2, 7, 4)
    assert f.agrees_through(g) == 2


def test_series_binary_ops_take_minimum_order():
    f = _series(1, 1, 1)
    g = _series(1, 1)
    assert (f + g).order == 1
    assert (f * g).order == 1
