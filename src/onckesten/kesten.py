"""Kesten-type limit measure: density, atoms, Cauchy transform, quadrature.

For parameters p, q >= 0 with s = p+q > 0 the limit law of the interpolating
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

The ray s -> 0 degenerates to the symmetric Bernoulli law with atoms +-1 of
mass 1/2; it is reachable only through the explicit ``boolean_limit``
constructor.
"""

from __future__ import annotations

import cmath
import math

NODE_CAP = 2**20


class QuadratureError(RuntimeError):
    """Tolerance not reached within the node cap; carries the best estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


class KestenMeasure:
    """Two-parameter Kesten-type measure with float parameters."""

    def __init__(self, p: float, q: float, *, _allow_degenerate: bool = False):
        p, q = float(p), float(q)
        if p < 0 or q < 0:
            raise ValueError("p and q must be nonnegative")
        if p + q <= 0 and not _allow_degenerate:
            raise ValueError("p + q must be positive; use boolean_limit() for the degenerate ray")
        self.p = p
        self.q = q

    @classmethod
    def boolean_limit(cls) -> "KestenMeasure":
        """The p = q = 0 limit: atoms at +-1 with mass 1/2 each."""
        return cls(0.0, 0.0, _allow_degenerate=True)

    @property
    def s(self) -> float:
        return self.p + self.q

    @property
    def edge(self) -> float:
        """Right endpoint of the absolutely continuous support."""
        return math.sqrt(2.0 * self.s)

    # -- atoms ------------------------------------------------------------------

    def atoms(self) -> list:
        """[(position, mass)] for the point part; empty when p+q >= 1.

        Masses come from the residue of G at the denominator zero z0 with
        the principal branch of the square root; the pole sits strictly
        outside the support whenever p+q != 1, and the numerator kills it
        unless p+q < 1.  There z0^2 = 2/(2-s), so on the branch in use
        sqrt(z0^2 - 2s) = (1-s) z0 exactly: no float square root of a
        difference that cancels as s -> 1.
        """
        s = self.s
        if s >= 1.0:
            return []
        z0 = 1.0 / math.sqrt(1.0 - s / 2.0)
        num = (s - 1.0) * z0 - (1.0 - s) * z0
        dden = -2.0 * (2.0 - s) * z0
        mass = num / dden
        return [(z0, mass), (-z0, mass)]

    # -- density and transform ----------------------------------------------------

    def density(self, x: float) -> float:
        """Absolutely continuous density at x; zero at and beyond the edge."""
        s = self.s
        if s == 0.0:
            return 0.0
        x = float(x)
        if abs(x) >= self.edge:
            return 0.0
        den = 2.0 - (2.0 - s) * x * x
        # the denominator zero lies strictly outside the support for s != 1,
        # and cancels against the vanishing numerator at the edge for s = 1
        assert den > 0.0, f"density denominator vanished inside the support at x={x}"
        return math.sqrt(2.0 * s - x * x) / (math.pi * den)

    def cauchy(self, z: complex) -> complex:
        """Cauchy transform G(z); rejects points on the support cut."""
        z = complex(z)
        if z.imag == 0.0 and abs(z.real) <= self.edge and self.s > 0.0:
            raise ValueError("Cauchy transform evaluated on the support cut")
        s = self.s
        w = z * cmath.sqrt(1.0 - 2.0 * s / (z * z))
        return ((s - 1.0) * z - w) / (2.0 - (2.0 - s) * z * z)

    def stieltjes_density(self, x: float, eps: float = 1e-6) -> float:
        """Density recovered from the boundary values of G."""
        return -self.cauchy(complex(x, eps)).imag / math.pi

    # -- quadrature ----------------------------------------------------------------

    def _integrand(self, theta: float, n: int) -> float:
        # with x = edge sin(theta), 2 - (2-s) x^2 = 2(cos^2 + (1-s)^2 sin^2):
        # no cancellation near the edge as s -> 1, and the arcsine law at s = 1
        sn, c = math.sin(theta), math.cos(theta)
        x = self.edge * sn
        den = 2.0 * (c * c + (1.0 - self.s) ** 2 * sn * sn)
        return x**n / math.pi * (self.edge * self.edge) * c * c / den

    def quadrature_moment(self, n: int, tol: float = 1e-10) -> float:
        """n-th moment: adaptive quadrature of the density plus atom terms."""
        if n < 0:
            raise ValueError("moment index must be >= 0")
        total = sum(mass * pos**n for pos, mass in self.atoms())
        if self.s == 0.0:
            return total
        f = lambda th: self._integrand(th, n)
        total += _adaptive_simpson(f, -math.pi / 2.0, math.pi / 2.0, tol)
        return total

    def total_mass(self, tol: float = 1e-12) -> float:
        return self.quadrature_moment(0, tol)


def _adaptive_simpson(f, a: float, b: float, tol: float, min_depth: int = 6) -> float:
    """Adaptive Simpson with a hard cap on function evaluations.

    Acceptance requires ``min_depth`` subdivisions: trigonometric-polynomial
    integrands can make the Richardson estimate vanish exactly on coarse
    symmetric panels (the sixth-moment integrand does, at the first split),
    so early panels are never trusted.  ``best`` is the composite Simpson sum
    over the current panel frontier, the estimate a failure reports.
    """
    evals = 0
    best = 0.0

    def ev(x: float) -> float:
        nonlocal evals
        evals += 1
        if evals > NODE_CAP:
            raise QuadratureError(
                f"quadrature node cap {NODE_CAP} exceeded; best estimate {best!r}", best
            )
        return f(x)

    def simpson(x0, f0, x2, f2):
        x1 = 0.5 * (x0 + x2)
        f1 = ev(x1)
        return x1, f1, (x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0

    def recurse(x0, f0, x2, f2, whole, x1, f1, tol_here, depth):
        nonlocal best
        lm, flm, left = simpson(x0, f0, x1, f1)
        rm, frm, right = simpson(x1, f1, x2, f2)
        err = (left + right - whole) / 15.0
        if depth >= min_depth and abs(err) <= tol_here:
            return left + right + err
        best += left + right - whole
        if depth > 60:
            raise QuadratureError(
                f"tolerance not reached at recursion depth {depth}; best estimate {best!r}", best
            )
        half = tol_here / 2.0
        return recurse(x0, f0, x1, f1, left, lm, flm, half, depth + 1) + recurse(
            x1, f1, x2, f2, right, rm, frm, half, depth + 1
        )

    fa, fb = ev(a), ev(b)
    mid, fmid, whole = simpson(a, fa, b, fb)
    best = whole
    return recurse(a, fa, b, fb, whole, mid, fmid, tol, 0)
