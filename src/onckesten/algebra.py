"""Exact arithmetic kernel: the polynomial ring Q[p, q, T].

Every quantity downstream -- partition weights, moment sequences, operator
amplitudes -- is a polynomial in the two deformation parameters p, q and an
optional time symbol T, with rational coefficients.  This module provides the
one shared value type, ``MultiPoly``: a sparse polynomial in (p, q, T) kept as
int numerators over one common denominator.  A sequence in one more variable
(a truncated series, a polynomial on a Fock cell) is a tuple of ``MultiPoly``
coefficients, kept by the module that uses it.

Nothing here ever rounds.  All values are immutable and hashable, so they can
serve as dictionary keys (the Fock simulator keys its state on words of cell
functions) and are safe to share across threads.

The canonical text rendering of ``MultiPoly`` (see ``__str__``) is the golden
format used by tests and the CLI: terms sorted by total degree, then with
p-heavy monomials first; coefficients printed as ``num/den`` with the
denominator omitted when it is 1, e.g. ``1 + p + q + 1/2p^2 + pq + 1/2q^2``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm, prod
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


def _term_sort_key(expo):
    # total degree first; within a degree p-heavy before q-heavy before T-heavy
    return (expo[0] + expo[1] + expo[2], -expo[0], -expo[1], -expo[2])


def _exponent(expo) -> tuple:  # a term's key: the exponents of p, q and T, each a nonnegative int
    dp, dq, dt = expo
    if not (isinstance(dp, int) and isinstance(dq, int) and isinstance(dt, int)) or min(dp, dq, dt) < 0:
        raise ValueError(f"MultiPoly exponents must be nonnegative ints, not {(dp, dq, dt)}")
    return dp, dq, dt


class MultiPoly:
    """Sparse polynomial in (p, q, T) with exact rational coefficients.

    Stored as int numerators over one positive int denominator in lowest terms
    (no zero numerator, ZERO over 1), so equal values have equal fields."""

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for expo, coeff in items:
            if not isinstance(coeff, (int, Fraction)):
                coeff = Fraction(coeff)
            acc[expo] = acc.get(expo, 0) + coeff  # ints stay ints
        acc = {_exponent(e): c for e, c in acc.items()}  # one check per distinct exponent
        # every sum is in lowest terms, so over their lcm the numerators are coprime to it
        den = lcm(*(c.denominator for c in acc.values()))
        self._num = {e: c.numerator * (den // c.denominator) for e, c in acc.items() if c}
        self._den, self._hash = den, None

    @classmethod
    def _make(cls, num: dict, den: int = 1) -> "MultiPoly":
        # trusted constructor: int numerators over a positive int denominator,
        # brought to lowest terms here
        g = gcd(den, *num.values()) if den != 1 else 1
        if g != 1 or 0 in num.values():
            num = {e: c // g for e, c in num.items() if c}
            den //= g
        self = object.__new__(cls)
        self._num, self._den, self._hash = num, den, None
        return self

    @classmethod
    def constant(cls, value: Scalar) -> "MultiPoly":
        return cls.monomial(value)

    @classmethod
    def monomial(cls, coeff: Scalar, dp: int = 0, dq: int = 0, dt: int = 0) -> "MultiPoly":
        c = Fraction(coeff)
        return cls._make({_exponent((dp, dq, dt)): c.numerator}, c.denominator)

    # -- inspection ---------------------------------------------------------

    def items(self) -> list:
        """(exponent, Fraction coefficient in lowest terms) pairs."""
        return [(e, Fraction(c, self._den)) for e, c in self._num.items()]

    def coeff(self, dp: int, dq: int = 0, dt: int = 0) -> Fraction:
        return Fraction(self._num.get((dp, dq, dt), 0), self._den)

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self._num)

    def t_coefficients(self) -> dict:
        """Split by T-degree: {k: coefficient of T^k as a (p,q)-polynomial}."""
        out: dict = {}
        for (dp, dq, dt), c in self._num.items():
            out.setdefault(dt, {})[(dp, dq, 0)] = c
        return {k: MultiPoly._make(v, self._den) for k, v in sorted(out.items())}

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.constant(other)
        if not self._num:  # accumulations start at ZERO; values are immutable
            return other
        da, db = self._den, other._den
        if da == db:
            out = dict(self._num)
            for e, c in other._num.items():
                out[e] = out.get(e, 0) + c
            return MultiPoly._make(out, da)
        den = lcm(da, db)
        sa, sb = den // da, den // db
        out = {e: c * sa for e, c in self._num.items()}
        for e, c in other._num.items():
            out[e] = out.get(e, 0) + c * sb
        return MultiPoly._make(out, den)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make({e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        return self + (-as_multipoly(other))

    def __rsub__(self, other):
        return as_multipoly(other) - self

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):  # first: a miss on Fraction runs ABCMeta.__instancecheck__
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            num = {e: c * other.numerator for e, c in self._num.items()}
            return MultiPoly._make(num, self._den * other.denominator)
        out: dict = {}
        for (a1, a2, a3), ca in self._num.items():
            for (b1, b2, b3), cb in other._num.items():
                e = (a1 + b1, a2 + b2, a3 + b3)
                out[e] = out.get(e, 0) + ca * cb
        return MultiPoly._make(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = ONE
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            raise TypeError("MultiPoly division is only defined for rational scalars")
        if scalar == 0:
            raise ZeroDivisionError("division of MultiPoly by zero")
        return self * Fraction(scalar.denominator, scalar.numerator)

    def evaluate(self, p, q, t=None) -> Fraction:
        """Exact value at (p, q[, T]), each anything ``Fraction()`` accepts; returns a Fraction.

        With x = a/b per variable, sums numerator * a^i b^(maxdeg - i) in ints, divides once."""
        tops = [max((e[i] for e in self._num), default=0) for i in range(3)]
        if tops[2] and t is None:
            raise ValueError("polynomial involves T but no T value was given")
        xs = [Fraction(x) for x in (p, q, 0 if t is None else t)]
        pw, qw, tw = (
            [x.numerator**i * x.denominator ** (top - i) for i in range(top + 1)]
            for x, top in zip(xs, tops)
        )
        total = sum(c * pw[dp] * qw[dq] * tw[dt] for (dp, dq, dt), c in self._num.items())
        return Fraction(total, self._den * prod(x.denominator**top for x, top in zip(xs, tops)))

    # -- comparisons and rendering -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):  # as in __mul__
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.constant(other)
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._den, frozenset(self._num.items())))
        return self._hash

    def __bool__(self):
        return bool(self._num)

    def __str__(self):
        if not self._num:
            return "0"
        pieces = []
        for expo in sorted(self._num, key=_term_sort_key):
            c = Fraction(self._num[expo], self._den)
            mono = "".join(
                name if d == 1 else f"{name}^{d}"
                for name, d in zip(("p", "q", "T"), expo)
                if d
            )
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}{mono}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self):
        return f"MultiPoly({self})"


def as_multipoly(x) -> MultiPoly:
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return MultiPoly.constant(x)
    raise TypeError(f"expected a MultiPoly, int or Fraction, got {type(x).__name__}")


def lift_to_pq(coeffs: Sequence) -> MultiPoly:
    """Sum of c_k (p+q)^k over constant c_k: its p^i q^j coefficient is c_(i+j) * C(i+j, i).

    Lifts a one-variable route's result to (p, q) with binomials, not polynomial products."""
    cs = [as_multipoly(c) for c in coeffs]
    if not all(c.is_constant for c in cs):
        raise ValueError("lift_to_pq takes constant coefficients only")
    den = lcm(*(c._den for c in cs))
    nums = [c._num.get((0, 0, 0), 0) * (den // c._den) for c in cs]
    terms = {(i, k - i, 0): c * comb(k, i) for k, c in enumerate(nums) for i in range(k + 1)}
    return MultiPoly._make(terms, den)


ZERO = MultiPoly.constant(0)
ONE = MultiPoly.constant(1)
P = MultiPoly.monomial(1, 1, 0, 0)
Q = MultiPoly.monomial(1, 0, 1, 0)
T = MultiPoly.monomial(1, 0, 0, 1)


def _bump(acc: dict, key, coeff: MultiPoly):
    """acc[key] += coeff, keeping no zero entries (the operator engines' state)."""
    if coeff.is_zero:
        return
    s = acc.get(key, ZERO) + coeff
    if s.is_zero:
        acc.pop(key, None)
    else:
        acc[key] = s


def _check_size(what: str, n: int, limit: int, override_limits: bool):
    """The one size guard of the exponential routes: n >= 1, and n <= limit unless overridden."""
    if n < 1:
        raise ValueError(f"{what}: n = {n} must be at least 1")
    if n > limit and not override_limits:
        raise ValueError(
            f"{what}: n = {n} exceeds the limit {limit}; "
            "pass override_limits=True (--override-limits) to go further"
        )
