"""Exact-arithmetic kernel: the polynomial ring Q[p, q, T]."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from onckesten.algebra import (
    MultiPoly,
    ONE,
    P,
    Q,
    T,
    ZERO,
    as_multipoly,
    lift_to_pq,
)
from onckesten.fock import CellFunction, FockVector

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


def test_evaluate_takes_what_fraction_takes_and_returns_a_fraction():
    r2 = (MultiPoly.constant(F(2)) + P + Q) / F(2)
    got = r2.evaluate(0.5, 0.25)
    assert got == r2.evaluate(F(1, 2), F(1, 4)) == F(11, 8)
    assert isinstance(got, Fraction)
    assert (Q * T).evaluate(0.5, 0.25, 2) == F(1, 2)
    assert isinstance(ONE.evaluate(1, 1), Fraction) and isinstance(ZERO.evaluate(1, 1), Fraction)


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


def _assert_canonical(poly):
    nums = list(poly._num.values())
    assert isinstance(poly._den, int) and poly._den >= 1
    assert all(isinstance(c, int) and c != 0 for c in nums)
    assert math.gcd(poly._den, *nums) == 1


@settings(deadline=None, max_examples=60)
@given(st.dictionaries(_exponents, _scalars, max_size=4), _polys, _scalars)
def test_stored_form_is_canonical(terms, b, k):
    a = MultiPoly(terms)
    for value in (a, b, a + b, a - b, a * b, a * k, -a, a - a, *a.t_coefficients().values()):
        _assert_canonical(value)
    if k:
        _assert_canonical(a / k)
        assert (a / k) * k == a and hash((a / k) * k) == hash(a)
    assert a - a == ZERO and hash(a - a) == hash(ZERO) and (a - a)._den == 1
    # reading back gives the Fractions the value was built from, in lowest terms
    expected = {e: c for e, c in terms.items() if c}
    assert dict(a.items()) == expected
    assert all(isinstance(c, Fraction) for _, c in a.items())
    for e, c in expected.items():
        got = a.coeff(*e)
        assert isinstance(got, Fraction) and got == c


def test_values_built_along_different_paths_are_equal_and_hash_equal():
    half_p = MultiPoly({(1, 0, 0): F(2, 4)})
    assert half_p == P / 2 and hash(half_p) == hash(P / 2)
    assert (P / 2) * 2 == P and hash((P / 2) * 2) == hash(P)
    assert MultiPoly([((1, 0, 0), 1), ((1, 0, 0), F(-1))]) == ZERO
    cancelled = P / 3 + Q / 6 - (P * 2 + Q) / 6
    assert cancelled == ZERO and hash(cancelled) == hash(ZERO) and cancelled.is_zero
    assert MultiPoly({(0, 0, 0): 0.5}) == MultiPoly.constant(F(1, 2))


@settings(deadline=None, max_examples=40)
@given(st.lists(_scalars, max_size=6))
def test_lift_to_pq_matches_substituting_p_plus_q(cs):
    lifted = lift_to_pq(cs)
    assert lifted == sum((as_multipoly(c) * (P + Q) ** k for k, c in enumerate(cs)), ZERO)
    _assert_canonical(lifted)


def test_lift_to_pq_raises_on_a_nonconstant_coefficient():
    assert lift_to_pq([ONE, F(1, 2)]) == ONE + (P + Q) / 2
    with pytest.raises(ValueError):
        lift_to_pq([ONE, P])


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


def test_exponents_must_be_nonnegative_ints():
    # monomial builds through the trusted _make, and int() used to truncate 0.5 to 0
    for build in (lambda: MultiPoly.monomial(1, -1), lambda: MultiPoly({(0.5, 0, 0): 1}), lambda: MultiPoly.monomial(1, 0, 2.0)):
        with pytest.raises(ValueError, match="MultiPoly exponents must be nonnegative ints"):
            build()
    assert MultiPoly.monomial(F(1, 2), 1, 0, 2) == MultiPoly({(1, 0, 2): 0.5}) == P * T**2 / 2


def test_constructors_reject_what_is_not_a_polynomial():
    # as_multipoly raises for anything but MultiPoly, int and Fraction, so no
    # constructor stores NotImplemented
    for build in (lambda: FockVector("x"), lambda: CellFunction(0, ["x"]), lambda: lift_to_pq(["x"])):
        with pytest.raises(TypeError):
            build()
