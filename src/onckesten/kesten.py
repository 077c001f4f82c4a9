"""Kesten-type limit measure: density, atoms, Cauchy transform, quadrature.

For parameters p, q >= 0, with s = p+q, the limit law of the interpolating
central limit has absolutely continuous part

    f(x) = (1/pi) * sqrt(2s - x^2) / (2 - (2-s) x^2)   on |x| <= sqrt(2s),

plus, exactly when s < 1, a symmetric pair of atoms at +-1/sqrt(1 - s/2)
whose masses are the residues of the Cauchy transform

    G(z) = ((s-1) z - sqrt(z^2 - 2s)) / (2 - (2-s) z^2)

at its real poles outside the support.  The square root is taken on the
branch z * sqrt(1 - 2s/z^2), which makes G(z) ~ 1/z at infinity and maps the
upper half plane into the closed lower half plane.

This is the only floating-point module in the package; everything it reports
is cross-checked against the exact moment polynomials.  Numeric moments are
computed with the substitution x = edge * sin(theta) (which absorbs the
square-root edge singularity) followed by adaptive Simpson refinement.

The same formulas cover the boolean point s = 0: the support shrinks to
{0}, the density and the quadrature integrand vanish, and the atoms sit at
+-1 with mass 1/2, the symmetric Bernoulli law.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction

NODE_CAP = 2**20
MIN_DEPTH = 6  # subdivisions before any panel is accepted
_S_MAX = math.sqrt(sys.float_info.max)  # about the largest s with (1 - s)^2 a finite float


class QuadratureError(RuntimeError):
    """Tolerance not reached; carries the best estimate and the number of
    integrand evaluations made."""

    def __init__(self, message: str, estimate: float, nodes: int):
        super().__init__(message)
        self.estimate = estimate
        self.nodes = nodes


class KestenMeasure:
    """Two-parameter Kesten-type measure; p and q become floats here, once.

    The exact gap 1 - s is kept as well: whether there are atoms, and their
    mass, is decided from it, since p + q may round to 1.0 where s < 1.

    The accepted domain is every p, q >= 0 for which 2s and (1 - s)^2 are
    finite floats, i.e. s up to about ``_S_MAX``; the formulas below need both.
    ``s`` = p + q and ``edge`` = sqrt(2s), the right endpoint of the
    absolutely continuous support, are computed once here, as are the two
    constants of the quadrature integrand.
    """

    def __init__(self, p: float, q: float):
        try:
            pf, qf = float(p), float(q)
            finite = math.isfinite(pf + qf)
        except OverflowError:  # an exact rational beyond the float range
            finite = False
        if not finite:
            raise ValueError("p and q must be finite and within the float range")
        if pf < 0 or qf < 0:
            raise ValueError("p and q must be nonnegative")
        gap = 1.0 - (pf + qf)
        if not math.isfinite(gap * gap):  # and so is 2s
            raise ValueError(f"p + q must be at most about {_S_MAX:.3g}, so that (1 - s)^2 is a finite float")
        self._exact_gap = 1 - (Fraction(p) + Fraction(q))  # 1 - s before rounding
        self.p = pf
        self.q = qf
        self.s = pf + qf
        self.edge = math.sqrt(2.0 * self.s)
        self._edge_sq = self.edge * self.edge
        self._gap_sq = (1.0 - self.s) ** 2

    # -- atoms ------------------------------------------------------------------

    def atoms(self) -> list:
        """[(position, mass)] for the point part; empty when the exact p+q >= 1.

        Masses come from the residue of G at the denominator zero z0 with
        the principal branch of the square root; the pole sits strictly
        outside the support whenever p+q != 1, and the numerator kills it
        unless p+q < 1.  There z0^2 = 2/(2-s), so on the branch in use
        sqrt(z0^2 - 2s) = (1-s) z0 exactly: no float square root of a
        difference that cancels as s -> 1, and 1 - s is the exact gap.
        """
        if self._exact_gap <= 0:
            return []
        s = self.s
        gap = float(self._exact_gap)
        z0 = 1.0 / math.sqrt(1.0 - s / 2.0)
        num = -gap * z0 - gap * z0
        dden = -2.0 * (2.0 - s) * z0
        mass = num / dden
        return [(z0, mass), (-z0, mass)]

    # -- density and transform ----------------------------------------------------

    def density(self, x: float) -> float:
        """Absolutely continuous density at x; zero at and beyond the edge."""
        x = float(x)
        if abs(x) >= self.edge:
            return 0.0
        # 2 - (2-s) x^2 = (2s - x^2)/s + (1-s)^2 x^2/s: a sum of two
        # nonnegative terms, so no cancellation as s -> 1 (as in _integrand);
        # with x^2/s in [0, 2] it overflows only where 2 - (2-s) x^2 does
        inner = 2.0 * self.s - x * x
        den = inner / self.s + self._gap_sq * (x * x / self.s)
        return math.sqrt(inner) / (math.pi * den)

    def cauchy(self, z: complex) -> complex:
        """Cauchy transform G(z); rejects points on the support cut."""
        z = complex(z)
        if z.imag == 0.0 and abs(z.real) <= self.edge:
            raise ValueError("Cauchy transform evaluated on the support cut")
        s = self.s
        w = z * cmath.sqrt(1.0 - 2.0 * s / (z * z))
        return ((s - 1.0) * z - w) / (2.0 - (2.0 - s) * z * z)

    def stieltjes_density(self, x: float) -> float:
        """Density recovered from the boundary values of G, at height 1e-6."""
        return -self.cauchy(complex(x, 1e-6)).imag / math.pi

    # -- quadrature ----------------------------------------------------------------

    def _integrand(self, theta: float, n: int) -> float:
        # with x = edge sin(theta), 2 - (2-s) x^2 = 2(cos^2 + (1-s)^2 sin^2):
        # no cancellation near the edge as s -> 1, and the arcsine law at s = 1
        sn, c = math.sin(theta), math.cos(theta)
        x = self.edge * sn
        den = 2.0 * (c * c + self._gap_sq * sn * sn)
        return x**n / math.pi * self._edge_sq * c * c / den

    def quadrature_moment(self, n: int, tol: float = 1e-10) -> float:
        """n-th moment: adaptive quadrature of the density plus atom terms."""
        if n < 0:
            raise ValueError("moment index must be >= 0")
        total = sum(mass * pos**n for pos, mass in self.atoms())
        total += _adaptive_simpson(self._integrand, n, -math.pi / 2.0, math.pi / 2.0, tol)
        return total

    def total_mass(self) -> float:
        return self.quadrature_moment(0, 1e-12)


def _adaptive_simpson(f, n: int, a: float, b: float, tol: float) -> float:
    """Adaptive Simpson for f(x, n) over [a, b], with a hard cap of ``NODE_CAP`` evaluations.

    Acceptance requires ``MIN_DEPTH`` subdivisions: trigonometric-polynomial
    integrands can make the Richardson estimate vanish exactly on coarse
    symmetric panels (the sixth-moment integrand does, at the first split),
    so early panels are never trusted.  ``best`` is the composite Simpson sum
    over the current panel frontier, the estimate a failure reports.  One
    ``recurse`` frame handles one panel: it evaluates f at the two quarter
    points itself and checks the cap after each evaluation.
    """
    cap = NODE_CAP
    evals = 0
    best = 0.0

    def capped() -> QuadratureError:
        return QuadratureError(f"quadrature node cap {cap} exceeded ({evals} nodes); best estimate {best!r}", best, evals)

    def recurse(x0, f0, x2, f2, whole, x1, f1, tol_here, depth):
        nonlocal best, evals
        lm = 0.5 * (x0 + x1)
        flm = f(lm, n)
        evals += 1
        if evals > cap:
            raise capped()
        left = (x1 - x0) * (f0 + 4.0 * flm + f1) / 6.0
        rm = 0.5 * (x1 + x2)
        frm = f(rm, n)
        evals += 1
        if evals > cap:
            raise capped()
        right = (x2 - x1) * (f1 + 4.0 * frm + f2) / 6.0
        err = (left + right - whole) / 15.0
        if depth >= MIN_DEPTH and abs(err) <= tol_here:
            return left + right + err
        best += left + right - whole
        if depth > 60:
            raise QuadratureError(
                f"tolerance not reached at recursion depth {depth} ({evals} nodes); best estimate {best!r}", best, evals
            )
        half = tol_here / 2.0
        return recurse(x0, f0, x1, f1, left, lm, flm, half, depth + 1) + recurse(
            x1, f1, x2, f2, right, rm, frm, half, depth + 1
        )

    mid = 0.5 * (a + b)
    fa, fb, fmid = f(a, n), f(b, n), f(mid, n)
    evals = 3  # far below the cap
    whole = best = (b - a) * (fa + 4.0 * fmid + fb) / 6.0
    return recurse(a, fa, b, fb, whole, mid, fmid, tol, 0)
