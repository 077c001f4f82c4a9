"""Symbolic Fock-space engine for the weighted creation/annihilation calculus.

State vectors live in the algebraic span of the vacuum and of finite words
f_1 (*) f_2 (*) ... of *cell functions*: polynomials supported on one member
of a fixed family of pairwise disjoint intervals.  The deformation enters
through the ordering kernel

    w(s, t) = p if s < t,  q if s > t,  1 if s = t or t is the vacuum slot,

which the annihilator folds into the next tensor factor.  Concretely, with
a(f) the creation operator (prepend f) and a*(f) its adjoint,

    a*(f) (g1 (*) g2 (*) rest) = h . g2 (*) rest,
    h(u) = p * int_{lo}^{u} f g1 + q * int_{u}^{hi} f g1        (same cell)

while disjoint cells contribute the constants p * int(f g1) (annihilated cell
left of the next one) or q * int(f g1) (right of it), and a word of length
one ends in the vacuum with the plain integral.  This fold is written once,
in ``FockEngine._fold``, from one antiderivative G of f g1: the same-cell
ramp is h = (p - q) G + q G(hi) - p G(lo).  Everything stays exact:
integrals of polynomial cells are again polynomial, with rational or
symbolic-T bounds.

The gauge (multiplication) operator acts on the first factor only; on the
single symbolic interval [0, T] the truncated number operator is
n = a*(chi) a(chi), with n Omega = T Omega, while the plain gauge m kills the
vacuum.  ``gauge_n`` multiplies by the hand-derived closed-form ramp
qT + (p - q) x instead of calling the fold, so comparing it with
a*(chi) a(chi) checks the fold against code it does not share.  Words over
{a, a*, m, n} reproduce the ordered-partition weights, which is what the
cross-verification suite exercises.

The three moment routines (``FockEngine.word_vacuum_moment``, ``position_moment``,
``poisson_moment_by_operators``) only list their steps, each an operator and
whether it can shorten a word; ``_walk`` applies them to the vacuum.  Only
annihilators shorten a word, by one factor each, and gauges keep its length,
so after every step the walk drops each word longer than the number of
shortening steps still to come: such a word never reaches the vacuum, and
dropping it is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .algebra import MultiPoly, ONE, P, Q, T, UniPoly, ZERO, _bump, _check_size, as_multipoly
from .partitions import IntervalSignature, SetPartition

# operator steps: each step rewrites every live word short enough to still
# reach the vacuum (``_walk``); the running time grows about 1.8x per extra
# factor of a position moment and 2.3x per extra power of (a + a* + n + m)
POSITION_MOMENT_LIMIT = 14
POISSON_OPERATOR_LIMIT = 10

# the multiplier of the truncated number operator n on [0, T]
_N_RAMP = UniPoly([Q * T, P - Q])


@dataclass(frozen=True)
class Interval:
    """[lo, hi] with rational endpoints, or [0, T] when hi is None."""

    lo: Fraction
    hi: Optional[Fraction]

    @property
    def symbolic(self) -> bool:
        return self.hi is None

    def lo_poly(self) -> MultiPoly:
        return MultiPoly.constant(self.lo)

    def hi_poly(self) -> MultiPoly:
        return T if self.hi is None else MultiPoly.constant(self.hi)


@dataclass(frozen=True)
class CellFunction:
    """A polynomial supported on one registered interval."""

    interval: int
    poly: UniPoly


class FockVector:
    """Vacuum amplitude plus a finite combination of cell-function words."""

    __slots__ = ("vacuum", "terms")

    def __init__(self, vacuum: MultiPoly = ZERO, terms: Optional[dict] = None):
        self.vacuum = as_multipoly(vacuum)
        clean: dict = {}
        for word, c in (terms or {}).items():
            c = as_multipoly(c)
            if c.is_zero or any(cell.poly.is_zero for cell in word):
                continue
            clean[word] = c
        self.terms = clean

    @classmethod
    def unit(cls) -> "FockVector":
        return cls(ONE, {})

    @classmethod
    def zero(cls) -> "FockVector":
        return cls(ZERO, {})

    @property
    def is_zero(self) -> bool:
        return self.vacuum.is_zero and not self.terms

    def add(self, other: "FockVector") -> "FockVector":
        out = dict(self.terms)
        for word, c in other.terms.items():
            _bump(out, word, c)
        return FockVector(self.vacuum + other.vacuum, out)

    def scale(self, factor) -> "FockVector":
        f = as_multipoly(factor)
        if f.is_zero:
            return FockVector.zero()
        return FockVector(self.vacuum * f, {w: c * f for w, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.vacuum == other.vacuum and self.terms == other.terms

    def __repr__(self):
        return f"FockVector(vacuum={self.vacuum}, words={len(self.terms)})"


class FockEngine:
    """Operator algebra over a fixed ladder of intervals.

    Intervals are registered once, sorted left to right, and must have
    pairwise disjoint interiors; index order equals spatial order, which is
    what the kernel w(s, t) consults.  The symbolic engine carries the single
    interval [0, T] and additionally supports the gauge pair (m, n).
    """

    def __init__(self, intervals: Sequence[Interval]):
        if not intervals:
            raise ValueError("engine needs at least one interval")
        self.intervals = tuple(intervals)
        if any(iv.symbolic for iv in self.intervals) and len(self.intervals) != 1:
            raise ValueError("the symbolic interval [0, T] must be the only one")
        for iv in self.intervals:
            if not iv.symbolic and iv.hi <= iv.lo:
                raise ValueError(f"empty interval [{iv.lo}, {iv.hi}]")
        for a, b in zip(self.intervals, self.intervals[1:]):
            if b.lo < a.hi:
                raise ValueError("intervals overlap; interiors must be disjoint, with a shared interval registered once")
        self._indicators = tuple(CellFunction(i, UniPoly.one()) for i in range(len(self.intervals)))

    @classmethod
    def brownian(cls, endpoints: Iterable) -> "FockEngine":
        ivs = sorted((Fraction(lo), Fraction(hi)) for lo, hi in endpoints)
        return cls(tuple(Interval(lo, hi) for lo, hi in ivs))

    @classmethod
    def poisson(cls) -> "FockEngine":
        return cls((Interval(Fraction(0), None),))

    @classmethod
    def from_signature(cls, sig: IntervalSignature) -> "FockEngine":
        # concrete endpoints with unit gaps; only lengths and order matter
        lo = Fraction(0)
        ivs = []
        for lam in sig.lengths:
            ivs.append(Interval(lo, lo + lam))
            lo = lo + lam + 1
        return cls(tuple(ivs))

    @property
    def symbolic(self) -> bool:
        return self.intervals[0].symbolic

    def _require_symbolic(self):
        if not self.symbolic:
            raise ValueError("gauge operators m, n require the single symbolic interval [0, T]")

    def indicator(self, i: int) -> CellFunction:
        return self._indicators[self._check_index(i)]

    def _check_index(self, i: int) -> int:
        if not 0 <= i < len(self.intervals):
            raise IndexError(f"interval index {i} out of range")
        return i

    def _as_cell(self, f) -> CellFunction:
        if isinstance(f, CellFunction):
            self._check_index(f.interval)
            return f
        return self.indicator(f)

    # -- operators -----------------------------------------------------------

    def create(self, f, v: FockVector) -> FockVector:
        """a(f): prepend the cell to every word; the vacuum becomes the word (f)."""
        cell = self._as_cell(f)
        out: dict = {}
        if not v.vacuum.is_zero:
            _bump(out, (cell,), v.vacuum)
        for word, c in v.terms.items():
            _bump(out, (cell,) + word, c)
        return FockVector(ZERO, out)

    def annihilate(self, f, v: FockVector) -> FockVector:
        """a*(f): pair the first factor against f through the ordering kernel."""
        cell = self._as_cell(f)
        i = cell.interval
        unit = cell is self._indicators[i]  # the indicator's poly is 1: fold the head as it is
        vac = ZERO
        out: dict = {}
        for word, c in v.terms.items():
            if word[0].interval == i:  # otherwise disjoint supports: the overlap integral vanishes
                head = word[0].poly if unit else word[0].poly * cell.poly
                vac = vac + self._fold(i, head, word[1:], c, out)
        return FockVector(vac, out)

    def _fold(self, i: int, integrand: UniPoly, word: tuple, c: MultiPoly, out: dict) -> MultiPoly:
        """Fold the integral of ``integrand`` over cell i into the head of ``word``.

        Bumps ``c`` times the folded word into ``out`` and returns the vacuum
        amplitude, which is nonzero only for the empty word.
        """
        iv = self.intervals[i]
        g = integrand.antiderivative()
        g_lo, g_hi = g.eval_poly(iv.lo_poly()), g.eval_poly(iv.hi_poly())
        if not word:
            return c * (g_hi - g_lo)
        head = word[0]
        if head.interval == i:
            ramp = g * (P - Q) + (Q * g_hi - P * g_lo)
            _bump(out, (CellFunction(i, ramp * head.poly),) + word[1:], c)
        else:
            _bump(out, word, c * ((P if head.interval > i else Q) * (g_hi - g_lo)))
        return ZERO

    def gauge(self, i: int, h: UniPoly, vacuum_factor, v: FockVector) -> FockVector:
        """Multiplication by h on interval i, acting on the first factor.

        Words whose first factor lives elsewhere are annihilated (disjoint
        supports); the vacuum picks up the explicit ``vacuum_factor``.
        """
        i = self._check_index(i)
        vac = v.vacuum * as_multipoly(vacuum_factor)
        out: dict = {}
        for word, c in v.terms.items():
            first = word[0]
            if first.interval != i:
                continue
            _bump(out, (CellFunction(i, h * first.poly),) + word[1:], c)
        return FockVector(vac, out)

    def gauge_pair(self, f, g, v: FockVector) -> FockVector:
        """M(f, g) = a*(g) a(f), a piecewise gauge.

        The multiplier is the kernel-weighted overlap of f and g: the linear
        ramp on their common interval, the constant p*<f,g> or q*<f,g> on
        intervals to the right or left, and the plain overlap on the vacuum.
        """
        return self.annihilate(g, self.create(f, v))

    def gauge_m(self, v: FockVector) -> FockVector:
        """Plain gauge on [0, T]: identity on words, kills the vacuum."""
        self._require_symbolic()
        return FockVector(ZERO, v.terms)  # every word starts on the only cell, 0

    def gauge_n(self, v: FockVector) -> FockVector:
        """Truncated number operator: multiply by qT + (p-q)x, T on the vacuum."""
        self._require_symbolic()
        return self.gauge(0, _N_RAMP, T, v)

    def omega(self, i: int, v: FockVector) -> FockVector:
        """Position (field) operator a(chi_i) + a*(chi_i)."""
        return self.create(i, v).add(self.annihilate(i, v))

    # -- word and moment evaluation ---------------------------------------------

    def _operator(self, tag):
        """The operator a tag names, as a function of the vector; raises on a bad tag.

        Looks the operator up on ``self``, so a wrapper on the class sees each step.
        """
        kind = tag[0]
        if kind in ("a", "a*"):
            cell = self._as_cell(tag[1] if len(tag) > 1 else 0)
            op = self.create if kind == "a" else self.annihilate
            return lambda v: op(cell, v)
        if kind in ("m", "n"):
            self._require_symbolic()
            return self.gauge_m if kind == "m" else self.gauge_n
        raise ValueError(f"unknown operator tag {tag!r}")

    def apply_tag(self, tag, v: FockVector) -> FockVector:
        return self._operator(tag)(v)

    def word_vacuum_moment(self, tags: Sequence) -> MultiPoly:
        """Vacuum amplitude of the operator word (rightmost factor acts first).

        Every tag is resolved before the first step, so a bad tag raises even
        where the word dies early.
        """
        return _walk([(self._operator(tag), tag[0] == "a*") for tag in reversed(tuple(tags))])


def _walk(steps: Sequence) -> MultiPoly:
    """Vacuum amplitude of the ``(operator, shortens)`` steps applied to the vacuum in turn.

    Only a shortening step can shorten a word, and by one factor at most.  So
    after each step a word longer than the number of shortening steps still to
    come never reaches the vacuum; the walk drops it from the step's new vector
    in place, which is exact.  Reads word lengths and the ``shortens`` flags only.
    """
    horizon = sum(shortens for _, shortens in steps)
    v = FockVector.unit()
    for op, shortens in steps:
        horizon -= shortens
        v = op(v)
        if any(len(word) > horizon for word in v.terms):
            v.terms = {word: c for word, c in v.terms.items() if len(word) <= horizon}
        if v.is_zero:
            return ZERO
    return v.vacuum


def position_moment(sig: IntervalSignature, override_limits: bool = False) -> MultiPoly:
    """Vacuum moment of omega(f_1)...omega(f_n) along the signature."""
    _check_size("position moment", sig.n, POSITION_MOMENT_LIMIT, override_limits)
    engine = FockEngine.from_signature(sig)
    return _walk([(lambda v, rank=rank: engine.omega(rank, v), True) for rank in reversed(sig.assignment)])


def poisson_moment_by_operators(n: int, override_limits: bool = False) -> MultiPoly:
    """Vacuum moment of (a + a* + n + m)^n on the symbolic interval."""
    _check_size("operator compound moment", n, POISSON_OPERATOR_LIMIT, override_limits)
    engine = FockEngine.poisson()

    def step(v: FockVector) -> FockVector:
        return engine.create(0, v).add(engine.annihilate(0, v)).add(engine.gauge_n(v)).add(engine.gauge_m(v))

    return _walk([(step, True)] * n)


def word_for_partition(sp: SetPartition) -> tuple:
    """Operator word whose vacuum moment realizes the partition's weight sum.

    Position rules: block minimum -> a*, block maximum -> a, interior leg ->
    m, singleton -> n.  Words are read left to right; the rightmost operator
    acts first.
    """
    tags = [("m", 0)] * sp.n
    for b in sp.blocks:
        if len(b) == 1:
            tags[b[0] - 1] = ("n", 0)
        else:
            tags[b[0] - 1], tags[b[-1] - 1] = ("a*", 0), ("a", 0)
    return tuple(tags)


def word_admits_partition(tags: Sequence) -> bool:
    """Whether some non-crossing partition produces this word.

    Scanning left to right, a* opens a block, a closes the innermost open
    block, m extends it (needs one open), n is a singleton; the word is
    realizable iff the scan never underflows and ends balanced.
    """
    depth = 0
    for tag in tags:
        kind = tag[0]
        if kind == "a*":
            depth += 1
        elif kind == "a":
            if depth == 0:
                return False
            depth -= 1
        elif kind == "m":
            if depth == 0:
                return False
        elif kind != "n":
            raise ValueError(f"unknown operator tag {tag!r}")
    return depth == 0


def parse_word(text: str) -> tuple:
    """Parse words like "a*a*aa*aa" or "a* m a" into operator tags on interval 0."""
    tags = []
    i = 0
    s = text.replace(" ", "")
    while i < len(s):
        if s.startswith("a*", i):
            tags.append(("a*", 0))
            i += 2
        elif s[i] == "a":
            tags.append(("a", 0))
            i += 1
        elif s[i] in ("m", "n"):
            tags.append((s[i], 0))
            i += 1
        else:
            raise ValueError(f"cannot parse operator word {text!r} at position {i}")
    return tuple(tags)
