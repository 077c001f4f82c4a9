"""Continuous-limit measure: density, atoms, transforms, quadrature."""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import pytest

from onckesten import kesten
from onckesten.kesten import KestenMeasure, QuadratureError
from onckesten.moments import sequences_by_recursion

F = Fraction


def test_parameter_validation():
    with pytest.raises(ValueError):
        KestenMeasure(-0.1, 1.0)
    with pytest.raises(ValueError):
        KestenMeasure(1.0, -2.0)
    for p, q in [(F(10**400), 1), (1, F(10**400)), (math.inf, 1), (0, math.nan), (1e308, 1e308)]:
        with pytest.raises(ValueError, match="finite"):
            KestenMeasure(p, q)
    # finite floats whose 2s or (1 - s)^2 is not: the float formulas need both
    for p, q in [(1e300, 1), (1e308, 1)]:
        with pytest.raises(ValueError, match="finite"):
            KestenMeasure(p, q)
    assert KestenMeasure(1e150, 1).edge > 0
    # an exact rational below the float range rounds to the boolean point
    assert KestenMeasure(F(1, 10**400), 0).s == 0.0


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


def test_density_just_inside_the_edge_near_unit_weight():
    # 2 - (2-s) x^2 rounds to zero or below a few ulps inside the edge as
    # s -> 1; the density must stay finite and positive on the whole support
    points = [(0.49999999717627946, 1.414213558379751)]
    for k in range(3, 13):
        h = 0.5 - 10.0**-k
        points.append((h, math.nextafter(KestenMeasure(h, h).edge, 0.0)))
    for h, x in points:
        mu = KestenMeasure(h, h)
        for _ in range(8):
            assert 0.0 < mu.density(x) < math.inf, (h, x)
            x = math.nextafter(x, 0.0)


def test_density_far_from_unit_weight_matches_the_direct_form():
    # away from s = 1 the form 2 - (2-s) x^2 does not cancel, so it is the
    # reference; the density must not overflow to zero in the bulk for huge
    # s, nor lose its scale for tiny s
    for p, q in [(1e150 + 1, 0), (1e150, 1), (1e153, 1), (1e-300, 0), (1e-310, 0), (3.0, 4.0)]:
        mu = KestenMeasure(p, q)
        s = mu.s
        for frac in (0.0, 0.25, 0.5, 0.9, 0.999):
            x = mu.edge * frac
            direct = math.sqrt(2.0 * s - x * x) / (math.pi * (2.0 - (2.0 - s) * x * x))
            assert 0.0 < mu.density(x) == pytest.approx(direct, rel=1e-12), (p, q, frac)


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


# the six parameter points of verify's quadrature check plus the boolean point
GOLDEN_POINTS = ((1, 1), (0, 1), (1, 0), (F(1, 2), F(1, 2)), (F(3, 10), F(1, 5)), (F(3, 2), F(2, 5)), (0, 0))


def test_quadrature_moments_golden_digest():
    # sha256 over repr of every moment n <= 12 at GOLDEN_POINTS: pins every bit
    # of the integrand's float arithmetic
    lines = [repr(KestenMeasure(p, q).quadrature_moment(n)) for p, q in GOLDEN_POINTS for n in range(13)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f62a0458b4a2fc697987c9bd20f49de23f546c50f4ab7ff276a917039b87d929"


def test_quadrature_moment_zero_is_total_mass():
    mu = KestenMeasure(0.3, 0.2)
    assert mu.quadrature_moment(0) == pytest.approx(1.0, abs=1e-10)


def test_boolean_limit_measure():
    mu = KestenMeasure(0, 0)
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


def test_quadrature_error_carries_estimate(monkeypatch):
    monkeypatch.setattr(kesten, "NODE_CAP", 2**12)  # the same failure, 256x fewer evaluations
    mu = KestenMeasure(1, 1)
    with pytest.raises(QuadratureError) as info:
        mu.quadrature_moment(6, tol=1e-300)
    assert isinstance(info.value.estimate, float)
    assert info.value.nodes > 2**12
    assert abs(info.value.estimate - 5.0) < 0.5  # the sixth moment at p = q = 1 is 5


def test_quadrature_node_contract(monkeypatch):
    # one integrand call per node; the counts and the failure are the walk's fingerprint
    calls = 0
    integrand = KestenMeasure._integrand

    def counted(self, theta, n):
        nonlocal calls
        calls += 1
        return integrand(self, theta, n)

    monkeypatch.setattr(KestenMeasure, "_integrand", counted)
    KestenMeasure(1, 1).quadrature_moment(6)
    assert calls == 2969
    calls = 0
    assert KestenMeasure(0.3, 0.2).quadrature_moment(7) == 0.0
    assert calls == 833
    calls = 0
    with pytest.raises(QuadratureError) as info:
        KestenMeasure(1e150, 1).quadrature_moment(2)
    assert info.value.nodes == calls == 567
    assert info.value.estimate == 0.8333333333328571
    assert str(info.value) == "tolerance not reached at recursion depth 61 (567 nodes); best estimate 0.8333333333328571"


def test_atoms_are_decided_by_the_exact_sum():
    # p + q = 1 - 10^-17 rounds to the float 1.0; the exact gap still gives two atoms
    mu = KestenMeasure(F(1, 2) - F(1, 10**17), F(1, 2))
    assert mu.s == 1.0
    (x_neg, m_neg), (x_pos, m_pos) = sorted(mu.atoms())
    assert x_pos == -x_neg == 1.0 / math.sqrt(1.0 - mu.s / 2.0)
    assert 0.0 < m_pos == m_neg < 1e-16
    assert KestenMeasure(F(1, 2), F(1, 2)).atoms() == []
