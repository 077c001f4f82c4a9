"""Exact arithmetic kernel: polynomials in (p, q, T) and truncated series.

Every quantity downstream -- partition weights, moment sequences, operator
amplitudes -- is a polynomial in the two deformation parameters p, q and an
optional time symbol T, with rational coefficients.  This module provides the
shared value types:

* ``MultiPoly``    sparse polynomial in (p, q, T) over ``Fraction``
* ``UniPoly``      polynomial in one extra coordinate x with MultiPoly
                   coefficients (integrands living on interval cells)
* ``PowerSeries``  truncated power series in z with MultiPoly coefficients

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
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


def _term_sort_key(expo):
    # total degree first; within a degree p-heavy before q-heavy before T-heavy
    return (expo[0] + expo[1] + expo[2], -expo[0], -expo[1], -expo[2])


class MultiPoly:
    """Sparse polynomial in (p, q, T) with exact rational coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for expo, coeff in items:
            dp, dq, dt = expo
            if dp < 0 or dq < 0 or dt < 0:
                raise ValueError("negative exponent in MultiPoly term")
            c = Fraction(coeff)
            key = (int(dp), int(dq), int(dt))
            c = acc.get(key, 0) + c
            if c:
                acc[key] = c
            else:
                acc.pop(key, None)
        self._terms = acc
        self._hash = None

    @classmethod
    def _make(cls, terms: dict) -> "MultiPoly":
        # trusted constructor: Fraction values, no zero entries
        self = object.__new__(cls)
        self._terms = terms
        self._hash = None
        return self

    @classmethod
    def constant(cls, value: Scalar) -> "MultiPoly":
        c = Fraction(value)
        return cls._make({(0, 0, 0): c} if c else {})

    @classmethod
    def monomial(cls, coeff: Scalar, dp: int = 0, dq: int = 0, dt: int = 0) -> "MultiPoly":
        c = Fraction(coeff)
        return cls._make({(dp, dq, dt): c} if c else {})

    # -- inspection ---------------------------------------------------------

    def items(self):
        return self._terms.items()

    def coeff(self, dp: int, dq: int = 0, dt: int = 0) -> Fraction:
        return self._terms.get((dp, dq, dt), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms.get((0, 0, 0), Fraction(0))

    @property
    def max_t_degree(self) -> int:
        return max((e[2] for e in self._terms), default=0)

    def t_coefficients(self) -> dict:
        """Split by T-degree: {k: coefficient of T^k as a (p,q)-polynomial}."""
        out: dict = {}
        for (dp, dq, dt), c in self._terms.items():
            out.setdefault(dt, {})[(dp, dq, 0)] = c
        return {k: MultiPoly._make(v) for k, v in sorted(out.items())}

    def key(self):
        """Canonical term tuple; usable as a deterministic sort key."""
        return tuple((e, self._terms[e]) for e in sorted(self._terms, key=_term_sort_key))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_multipoly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly._make(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = as_multipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return as_multipoly(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return ZERO
            return MultiPoly._make({e: v * c for e, v in self._terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out: dict = {}
        for (a1, a2, a3), ca in self._terms.items():
            for (b1, b2, b3), cb in other._terms.items():
                e = (a1 + b1, a2 + b2, a3 + b3)
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MultiPoly._make(out)

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
        return self * (Fraction(1) / Fraction(scalar))

    def evaluate(self, p, q, t=None):
        """Evaluate at numeric (p, q[, T]); exact when the inputs are exact."""
        total = 0
        for (dp, dq, dt), c in self._terms.items():
            if dt and t is None:
                raise ValueError("polynomial involves T but no T value was given")
            term = c * p**dp * q**dq
            if dt:
                term *= t**dt
            total += term
        return total

    # -- comparisons and rendering -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for expo in sorted(self._terms, key=_term_sort_key):
            c = self._terms[expo]
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
    return NotImplemented


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


class UniPoly:
    """Polynomial in one coordinate x with MultiPoly coefficients.

    Used for integrands on interval cells: x is the running point of the
    cell, coefficients may involve p, q and the symbolic horizon T.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [as_multipoly(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def constant(cls, value) -> "UniPoly":
        return cls([as_multipoly(value)])

    @classmethod
    def one(cls) -> "UniPoly":
        return cls([ONE])

    @property
    def coeffs(self):
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return UniPoly(
            [
                (self._coeffs[i] if i < len(self._coeffs) else ZERO)
                + (other._coeffs[i] if i < len(other._coeffs) else ZERO)
                for i in range(n)
            ]
        )

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self._coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = UniPoly.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            f = as_multipoly(other)
            return UniPoly([c * f for c in self._coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UniPoly()
        out = [ZERO] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def eval_poly(self, value: MultiPoly) -> MultiPoly:
        """Substitute x = value (a MultiPoly) via Horner's scheme."""
        value = as_multipoly(value)
        acc = ZERO
        for c in reversed(self._coeffs):
            acc = acc * value + c
        return acc

    def antiderivative(self) -> "UniPoly":
        return UniPoly([ZERO] + [c / (k + 1) for k, c in enumerate(self._coeffs)])

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self._coeffs):
            if c.is_zero:
                continue
            body = str(c) if c.is_constant else f"({c})"
            if k == 0:
                parts.append(body)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                parts.append(xs if body == "1" else f"{body}{xs}")
        return " + ".join(parts)

    def __repr__(self):
        return f"UniPoly({self})"


class PowerSeries:
    """Power series truncated at a known order, coefficients in MultiPoly.

    The truncation order is carried on the value; binary operations return a
    series with the minimum of the two orders, so agreement claims are always
    about coefficients both operands actually know.
    """

    __slots__ = ("_coeffs", "_order")

    def __init__(self, coeffs: Sequence, order: int | None = None):
        cs = [as_multipoly(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("series order must be >= 0")
        cs = cs[: order + 1]
        cs += [ZERO] * (order + 1 - len(cs))
        self._coeffs = tuple(cs)
        self._order = order

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self):
        return self._coeffs

    def coeff(self, k: int) -> MultiPoly:
        if not 0 <= k <= self._order:
            raise IndexError(f"coefficient {k} beyond truncation order {self._order}")
        return self._coeffs[k]

    def __add__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = PowerSeries([other], self._order)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self._order, other._order)
        return PowerSeries([self._coeffs[k] + other._coeffs[k] for k in range(n + 1)], n)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries([-c for c in self._coeffs], self._order)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = PowerSeries([other], self._order)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            f = as_multipoly(other)
            return PowerSeries([c * f for c in self._coeffs], self._order)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self._order, other._order)
        out = [ZERO] * (n + 1)
        for i in range(n + 1):
            a = self._coeffs[i]
            if a.is_zero:
                continue
            for j in range(n + 1 - i):
                b = other._coeffs[j]
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return PowerSeries(out, n)

    __rmul__ = __mul__

    def shift(self) -> "PowerSeries":
        """Multiply by z; the shifted coefficients are known one order further."""
        return PowerSeries((ZERO,) + self._coeffs, self._order + 1)

    def differentiate(self) -> "PowerSeries":
        if self._order == 0:
            raise ValueError("cannot differentiate a series of order 0")
        return PowerSeries(
            [self._coeffs[k] * k for k in range(1, self._order + 1)], self._order - 1
        )

    def sqrt(self) -> "PowerSeries":
        if self._coeffs[0] != ONE:
            raise ValueError("series square root requires constant term 1")
        out = [ONE]
        for n in range(1, self._order + 1):
            s = ZERO
            for k in range(1, n):
                s = s + out[k] * out[n - k]
            out.append((self._coeffs[n] - s) / 2)
        return PowerSeries(out, self._order)

    def agrees_through(self, other: "PowerSeries", order: int | None = None):
        """First index where the two series differ, or None if they agree.

        Comparison runs through ``order`` (default: the smaller truncation)."""
        n = min(self._order, other._order)
        if order is not None:
            n = min(n, order)
        for k in range(n + 1):
            if self._coeffs[k] != other._coeffs[k]:
                return k
        return None

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self._order, self._coeffs))

    def __str__(self):
        body = ", ".join(str(c) for c in self._coeffs)
        return f"[{body}] + O(z^{self._order + 1})"

    def __repr__(self):
        return f"PowerSeries({self})"
