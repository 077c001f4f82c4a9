"""Continuous-limit measure: density, atoms, transforms, quadrature."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from onckesten.kesten import KestenMeasure, QuadratureError
from onckesten.moments import sequences_by_recursion

F = Fraction


def test_parameter_validation():
    with pytest.raises(ValueError):
        KestenMeasure(-0.1, 1.0)
    with pytest.raises(ValueError):
        KestenMeasure(1.0, -2.0)
    with pytest.raises(ValueError):
        KestenMeasure(0.0, 0.0)  # degenerate: use boolean_limit()


def test_support_edge():
    assert KestenMeasure(1, 1).edge == pytest.approx(2.0, abs=1e-15)
    assert KestenMeasure(0, 1).edge == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert KestenMeasure(0.3, 0.2).edge == pytest.approx(1.0, abs=1e-15)


def test_atoms_present_only_below_unit_weight():
    mu = KestenMeasure(0.3, 0.2)
    assert len(mu.atoms()) == 2
    (x_neg, m_neg), (x_pos, m_pos) = sorted(mu.atoms())
    x = 1.0 / math.sqrt(1.0 - 0.25)
    assert x_pos == pytest.approx(x, abs=1e-12)
    assert x_neg == pytest.approx(-x, abs=1e-12)
    assert m_pos == pytest.approx(0.5 / 1.5, abs=1e-12) and m_neg == m_pos

    for p, q in [(1, 1), (0, 1), (0.5, 0.5), (0.9, 0.1), (1.5, 0.4)]:
        assert KestenMeasure(p, q).atoms() == []


def test_density_closed_form_points():
    semicircle = KestenMeasure(1, 1)
    assert semicircle.density(0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert semicircle.density(1.0) == pytest.approx(math.sqrt(3.0) / (2 * math.pi), abs=1e-15)

    arcsine = KestenMeasure(0, 1)
    assert arcsine.density(0.0) == pytest.approx(1.0 / (math.pi * math.sqrt(2.0)), abs=1e-15)
    assert arcsine.density(1.0) == pytest.approx(1.0 / math.pi, abs=1e-12)

    for mu in (semicircle, arcsine):
        assert mu.density(mu.edge + 1e-9) == 0.0
        assert mu.density(-mu.edge - 5.0) == 0.0


def test_density_is_even():
    mu = KestenMeasure(0.7, 0.4)
    for x in (0.1, 0.33, 0.8, 1.2):
        assert mu.density(x) == pytest.approx(mu.density(-x), abs=1e-15)


def test_total_mass_with_and_without_atoms():
    # total_mass already folds in the point part
    for p, q in [(1, 1), (0, 1), (0.5, 0.5), (0.3, 0.2), (1.5, 0.4), (0.95, 0.95)]:
        assert KestenMeasure(p, q).total_mass() == pytest.approx(1.0, abs=1e-9), (p, q)


def test_quadrature_matches_exact_moments():
    table = sequences_by_recursion(5)
    for p, q in [(1, 1), (0, 1), (F(1, 2), F(1, 3)), (F(3, 10), F(1, 5))]:
        mu = KestenMeasure(float(p), float(q))
        for n in range(1, 6):
            exact = float(table.r[n].evaluate(F(p), F(q)))
            assert mu.quadrature_moment(2 * n) == pytest.approx(exact, abs=1e-8), (p, q, n)
            assert abs(mu.quadrature_moment(2 * n - 1)) < 1e-10


def test_quadrature_moment_zero_is_total_mass():
    mu = KestenMeasure(0.3, 0.2)
    assert mu.quadrature_moment(0) == pytest.approx(1.0, abs=1e-10)


def test_boolean_limit_measure():
    mu = KestenMeasure.boolean_limit()
    assert mu.s == 0.0
    assert sorted(mu.atoms()) == [(-1.0, 0.5), (1.0, 0.5)]
    assert mu.density(0.5) == 0.0  # purely atomic
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert mu.quadrature_moment(2) == pytest.approx(1.0, abs=1e-12)
    assert mu.quadrature_moment(3) == pytest.approx(0.0, abs=1e-12)
    assert mu.cauchy(2.0 + 0j) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_cauchy_transform_golden_values():
    # semicircle: G(z) = (z - sqrt(z^2 - 4)) / 2
    g = KestenMeasure(1, 1).cauchy(3.0 + 0j)
    assert g.real == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)
    assert g.imag == pytest.approx(0.0, abs=1e-12)

    # arcsine: G(z) = 1 / sqrt(z^2 - 2)
    g = KestenMeasure(0, 1).cauchy(2.0 + 0j)
    assert g.real == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_cauchy_is_nevanlinna_and_normalized():
    mu = KestenMeasure(0.5, 0.25)
    for z in (0.2 + 0.7j, -1.4 + 0.05j, 3.0 + 2.0j, 0.0 + 1e-3j):
        assert mu.cauchy(z).imag < 0.0
    for y in (1e3, 1e5):
        z = complex(0.0, y)
        assert abs(z * mu.cauchy(z) - 1.0) < 2.0 / y


def test_cauchy_rejects_points_on_the_cut():
    mu = KestenMeasure(1, 1)
    with pytest.raises(ValueError):
        mu.cauchy(0.5 + 0j)
    mu.cauchy(0.5 + 1e-9j)  # just off the axis is fine


def test_stieltjes_inversion_recovers_density():
    for p, q in [(1, 1), (0.5, 0.25), (0.3, 0.2)]:
        mu = KestenMeasure(p, q)
        for frac in (0.0, 0.31, 0.62):
            x = frac * mu.edge
            assert mu.stieltjes_density(x) == pytest.approx(mu.density(x), abs=1e-4)


def test_quadrature_error_carries_estimate():
    mu = KestenMeasure(1, 1)
    with pytest.raises(QuadratureError) as info:
        mu.quadrature_moment(6, tol=1e-300)
    assert isinstance(info.value.estimate, float)
    assert abs(info.value.estimate - 5.0) < 0.5  # the sixth moment at p = q = 1 is 5
