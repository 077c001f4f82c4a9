"""Moment sequences of the two-parameter interpolation, by independent routes.

The even moments r_n of the interpolating central limit are weighted counts
of ordered non-crossing pair partitions of [2n]:

    r_n = (1/n!) * sum of p^e q^e' over all colorings of all bases.

This module computes the same numbers five ways and exposes the auxiliary
sequences that tie them together:

* ``r_by_enumeration``   brute-force sum over the ordered partitions
* ``sequences_by_recursion``  the covered / outer-block recursion for
  s_n^(r), a_n and r_n (s = covered sum, a = covered with top cover,
  R = 1/(1-S), A = 1/(1-pS))
* ``r_by_closed_form``   series extraction from
  R(z) = (p+q-1-sqrt(1-2(p+q)z)) / (p+q-2+2z), dividing out the
  (p+q-2)-denominators exactly at every order
* ``r_by_jacobi``        weighted Dyck paths of the continued fraction with
  coefficient ladder (1, t, t, ...), t = (p+q)/2
* ``r_by_delaney``       r_n = sum_k D(n,k) t^k over the nesting-number
  counts D(n,k) of non-crossing pair partitions

plus mixed interval moments, the compound (Poisson-type) moments with their
symbolic time horizon T, the generalized Euler numbers refining n!*Catalan(n)
by (disorders, orders), and the pyramid factorization checks.

Every enumeration routine here is one coloring sum, ``_coloring_sum``: over
a stream of non-crossing bases, scale * T^t * sum of p^e q^e' over each
base's admissible colorings.  The routines differ only in the bases they
stream, which colorings count (all k!, or interval-contiguous) and the scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, permutations, product
from math import comb, factorial, prod
from typing import Iterable, Optional, Sequence

from .algebra import MultiPoly, ONE, P, PowerSeries, Q, ZERO, _check_size
from .partitions import (
    GENERAL_ENUM_LIMIT,
    PAIR_ENUM_LIMIT,
    IntervalSignature,
    SetPartition,
    _nc_pairings,
    _set_partitions,
    is_noncrossing,
    nesting_forest,
)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# -- the coloring-sum core ------------------------------------------------------
# perfbench/spans.py rebinds _nc_pairings, _set_partitions, _coloring_histogram
# and _grouped_histogram in this module by name and relies on their signatures.


def _inversion_histogram(colorings: Iterable, edges: Sequence, k: int) -> dict:
    """e -> number of the given colorings with e inverted parent/child pairs;
    a coloring lists the k block indices, first-colored block first."""
    hist: dict = {}
    pos = [0] * k
    for coloring in colorings:
        for i, b in enumerate(coloring):
            pos[b] = i
        e = 0
        for pa, ch in edges:
            if pos[ch] < pos[pa]:
                e += 1
        hist[e] = hist.get(e, 0) + 1
    return hist


def _coloring_histogram(edges: Sequence, k: int) -> dict:
    """e -> number of the k! colorings with e inverted parent/child pairs."""
    if not edges:
        return {0: factorial(k)}
    return _inversion_histogram(permutations(range(k)), edges, k)


def _grouped_histogram(edges: Sequence, groups: Sequence) -> dict:
    """Same statistic over colorings that keep each group contiguous in order.

    ``groups`` lists block indices per interval, left interval first; the
    admissible colorings are exactly the concatenations of per-group orders.
    """
    combos = product(*(permutations(g) for g in groups if g))
    return _inversion_histogram(map(chain.from_iterable, combos), edges, sum(map(len, groups)))


def _coloring_sum(bases: Iterable) -> MultiPoly:
    """Sum over bases of scale * T^t * (sum of p^e q^e' over its colorings).

    ``bases`` streams (edges, hist, scale, t) per base, ``hist`` mapping e to
    its count of admissible colorings, each with e' = len(edges) - e."""
    return MultiPoly(
        ((e, len(edges) - e, t), scale * c) for edges, hist, scale, t in bases for e, c in hist.items()
    )


def _pair_sum(n: int, override_limits: bool, covered_only: bool = False) -> MultiPoly:
    """Weight sum over ordered (covered) non-crossing pair partitions of [2n]."""
    _check_size("pair enumeration", 2 * n, PAIR_ENUM_LIMIT, override_limits)
    bases = (SetPartition(2 * n, blocks) for blocks in _nc_pairings(tuple(range(1, 2 * n + 1))))
    forests = (nesting_forest(sp).edges for sp in bases if not covered_only or sp.is_covered)
    return _coloring_sum((edges, _coloring_histogram(edges, n), 1, 0) for edges in forests)


# -- route 1: brute enumeration -------------------------------------------------


def r_by_enumeration(n: int, override_limits: bool = False) -> MultiPoly:
    """r_n as the weight sum over ordered non-crossing pair partitions of [2n]."""
    return _pair_sum(n, override_limits) / factorial(n)


def covered_weight_sum(n: int, override_limits: bool = False) -> MultiPoly:
    """Sum of weights over ordered covered pair partitions of [2n] (= n! s_n)."""
    return _pair_sum(n, override_limits, covered_only=True)


# -- route 2: the covered/outer recursion ---------------------------------------


@dataclass(frozen=True)
class SequenceTable:
    """Exact sequence data through a common order N.

    ``s_rows[r][n]`` is the weight sum over ordered non-crossing pair
    partitions of [2n] with exactly r outer blocks, normalized by n!;
    row 0 is the convention (1, 0, 0, ...).  ``s`` is row 1, ``a`` the
    top-covered variant, ``r`` the full moment sequence.
    """

    order: int
    r_max: int
    r: tuple
    s: tuple
    a: tuple
    s_rows: tuple

    def s_r(self, r: int, n: int) -> MultiPoly:
        return self.s_rows[r][n]


def sequences_by_recursion(order: int, r_max: int = 3) -> SequenceTable:
    """Fill s_n^(r), a_n and r_n from the removal recursion on the top block.

    For n >= r+1:

      s_n^(r) = (r/n) * sum_{k=1}^{n-r+1} a_{k-1} s_{n-k}^(r-1)
              + (q/n) * sum_{k=1}^{n-r} (2n-2k-r) a_{k-1} s_{n-k}^(r)

    with s_r^(r) = 1 and s_n^(r) = 0 for n < r, alongside a_n = p * sum_k
    s_k a_{n-k} and r_n = sum_k s_k r_{n-k}.
    """
    if order < 0 or r_max < 1:
        raise ValueError("order must be >= 0 and r_max >= 1")
    n_top = order
    row0 = [ONE] + [ZERO] * n_top
    s1 = [ZERO] * (n_top + 1)
    a = [ONE] + [ZERO] * n_top
    for n in range(1, n_top + 1):
        if n == 1:
            s1[1] = ONE
        else:
            total = a[n - 1] / n
            qpart = ZERO
            for k in range(1, n):
                qpart = qpart + a[k - 1] * s1[n - k] * (2 * n - 2 * k - 1)
            s1[n] = total + Q * qpart / n
        acc = ZERO
        for k in range(1, n + 1):
            acc = acc + s1[k] * a[n - k]
        a[n] = P * acc
    rows = [tuple(row0), tuple(s1)]
    for r in range(2, r_max + 1):
        row = [ZERO] * (n_top + 1)
        if r <= n_top:
            row[r] = ONE
        prev = rows[r - 1]
        for n in range(r + 1, n_top + 1):
            first = ZERO
            for k in range(1, n - r + 2):
                first = first + a[k - 1] * prev[n - k]
            second = ZERO
            for k in range(1, n - r + 1):
                second = second + a[k - 1] * row[n - k] * (2 * n - 2 * k - r)
            row[n] = first * Fraction(r, n) + Q * second / n
        rows.append(tuple(row))
    rser = [ONE] + [ZERO] * n_top
    for n in range(1, n_top + 1):
        acc = ZERO
        for k in range(1, n + 1):
            acc = acc + s1[k] * rser[n - k]
        rser[n] = acc
    return SequenceTable(
        order=order,
        r_max=r_max,
        r=tuple(rser),
        s=tuple(s1),
        a=tuple(a),
        s_rows=tuple(rows),
    )


# -- route 3: closed form --------------------------------------------------------


def _div_by_p_plus_q_minus_2(f: MultiPoly) -> MultiPoly:
    """Exact quotient f / (p+q-2); raises if the division leaves a remainder.

    Synthetic division in the variable p against p - (2-q): the quotient
    coefficients stay polynomials in (q, T), so the localized denominators of
    the closed-form series are cleared eagerly at every order.
    """
    if f.is_zero:
        return ZERO
    rows: dict = {}
    for (dp, dq, dt), c in f.items():
        rows.setdefault(dp, {})[(0, dq, dt)] = c
    d = max(rows)
    coeffs = {i: MultiPoly(rows.get(i, {})) for i in range(d + 1)}
    if d == 0:
        raise ArithmeticError(f"not divisible by p+q-2: {f}")
    two_minus_q = MultiPoly.constant(2) - Q
    quot = [ZERO] * d
    acc = coeffs[d]
    for i in range(d - 1, -1, -1):
        quot[i] = acc
        acc = coeffs[i] + two_minus_q * acc
    if not acc.is_zero:
        raise ArithmeticError(f"not divisible by p+q-2, remainder {acc}")
    out = ZERO
    for i, g in enumerate(quot):
        out = out + g * P**i
    return out


def r_by_closed_form(order: int) -> list:
    """Coefficients r_0..r_order of (p+q-1-sqrt(1-2(p+q)z)) / (p+q-2+2z).

    Works in the series ring with (p+q-2) inverted; every returned
    coefficient is asserted to clear its denominator, i.e. to be a genuine
    polynomial in (p, q).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    root = PowerSeries([ONE, (P + Q) * (-2)], order).sqrt()
    numer = PowerSeries([P + Q - ONE], order) - root
    out: list = []
    for n in range(order + 1):
        val = numer.coeff(n)
        if n:
            val = val - out[n - 1] * 2
        out.append(_div_by_p_plus_q_minus_2(val))
    return out


# -- route 4: continued fraction / Dyck path transfer -----------------------------


def r_by_jacobi(order: int) -> list:
    """r_0..r_order as Dyck-path weights of the ladder (1, t, t, ...), t=(p+q)/2.

    A down-step from level 1 carries weight 1, from any higher level weight t;
    the 2n-step closed walks at level 0 sum to r_n.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    t = (P + Q) / 2
    levels = order + 2
    u = [ONE] + [ZERO] * levels
    out = [ONE]
    for step in range(1, 2 * order + 1):
        nxt = [ZERO] * (levels + 1)
        for k in range(levels + 1):
            if u[k].is_zero:
                continue
            if k + 1 <= levels:
                nxt[k + 1] = nxt[k + 1] + u[k]
            if k >= 1:
                w = ONE if k == 1 else t
                nxt[k - 1] = nxt[k - 1] + u[k] * w
        u = nxt
        if step % 2 == 0:
            out.append(u[0])
    return out


# -- route 5: nesting-number counts ----------------------------------------------


def delaney(n: int, k: int) -> int:
    """Number of non-crossing pair partitions of [2n] with k nested blocks.

    Closed form C(n+k-1, k) - C(n+k-1, k-1); zero outside 0 <= k <= n-1.
    """
    if n < 1 or k < 0 or k > n - 1:
        return 0
    low = comb(n + k - 1, k - 1) if k >= 1 else 0
    return comb(n + k - 1, k) - low


def r_by_delaney(n: int) -> MultiPoly:
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ONE
    t = (P + Q) / 2
    out = ZERO
    for k in range(n):
        out = out + t**k * delaney(n, k)
    return out


def gen_euler_histogram(n: int, override_limits: bool = False) -> dict:
    """(e, e') -> count over all ordered non-crossing pair partitions of [2n]: n! r_n's coefficients."""
    return {(e, ep): int(c) for (e, ep, _), c in _pair_sum(n, override_limits).items()}


def gen_euler(n: int, k: int, j: int, route: str = "formula", override_limits: bool = False) -> Fraction:
    """Generalized Euler number E(n,k,j): ordered pair partitions of [2n]
    with k disorders and j orders.

    The closed form (n!/2^(k+j)) * C(k+j, k) * D(n, k+j) and the direct count
    are exposed as separate routes; they must agree, and the rows sum to
    n! * Catalan(n).
    """
    if route == "formula":
        if n < 1 or k < 0 or j < 0 or k + j > n - 1:
            return Fraction(0)
        return Fraction(factorial(n), 2 ** (k + j)) * comb(k + j, k) * delaney(n, k + j)
    if route == "enumeration":
        return Fraction(gen_euler_histogram(n, override_limits).get((k, j), 0))
    raise ValueError(f"unknown gen_euler route: {route!r}")


# -- series identities ------------------------------------------------------------


class MomentMismatchError(AssertionError):
    """Raised when two exact routes disagree; carries the first bad coefficient."""


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    detail: str = ""


def _expect_agreement(name: str, lhs: PowerSeries, rhs: PowerSeries, through: Optional[int] = None) -> IdentityCheck:
    k = lhs.agrees_through(rhs, through)
    if k is not None:
        raise MomentMismatchError(
            f"{name}: first mismatch at z^{k}: {lhs.coeff(k)} != {rhs.coeff(k)}"
        )
    return IdentityCheck(name=name, passed=True)


def series_identity_checks(order: int, r_max: int = 3) -> list:
    """Verify the generating-function identities through the given order.

    Checks R*(1-S) = 1, A*(1-pS) = 1, S^(r) = S^r, and the differential
    recurrence (S^(r))' = r S^(r-1) A + 2qz (S^(r))' A - qr A S^(r).
    Raises MomentMismatchError at the first failing coefficient.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    table = sequences_by_recursion(order, r_max=r_max)
    S = PowerSeries(table.s, order)
    A = PowerSeries(table.a, order)
    R = PowerSeries(table.r, order)
    unit = PowerSeries([ONE], order)
    results = [
        _expect_agreement("R*(1-S) = 1", R * (unit - S), unit),
        _expect_agreement("A*(1-pS) = 1", A * (unit - S * P), unit),
    ]
    powers = {0: unit, 1: S}
    for r in range(2, r_max + 1):
        powers[r] = powers[r - 1] * S
        results.append(
            _expect_agreement(
                f"S^({r}) = S^{r}", PowerSeries(table.s_rows[r], order), powers[r]
            )
        )
    for r in range(1, r_max + 1):
        sr = PowerSeries(table.s_rows[r], order)
        lhs = sr.differentiate()
        rhs = (
            powers[r - 1] * A * r
            + ((sr.differentiate() * A).shift()) * (Q * 2)
            - A * sr * (Q * r)
        )
        results.append(
            _expect_agreement(f"(S^({r}))' differential recurrence", lhs, rhs)
        )
    return results


# -- mixed interval moments --------------------------------------------------------


def _adapted_base(blocks: tuple, sig: IntervalSignature) -> Optional[tuple]:
    """(edges, hist, scale, 0) of one base over its adapted colorings, or None
    if the base itself is not adapted to the signature."""
    ranks = sig.block_intervals(blocks)
    if ranks is None:
        return None
    edges = nesting_forest(SetPartition(sig.n, blocks)).edges
    groups = [[] for _ in range(sig.interval_count)]
    for bi, r in enumerate(ranks):
        groups[r].append(bi)
    scale = prod(lam ** len(g) / factorial(len(g)) for lam, g in zip(sig.lengths, groups))
    return edges, _grouped_histogram(edges, groups), scale, 0


def mixed_moment_brownian(sig: IntervalSignature, override_limits: bool = False) -> MultiPoly:
    """Moment of a product of interval positions, summed combinatorially.

    Equals sum over adapted ordered non-crossing pair partitions of
    w(P) * prod_i lambda_i^{b_i} / b_i!; zero for odd length or odd interval
    multiplicities.
    """
    n = sig.n
    if n % 2:
        return ZERO
    _check_size("pair enumeration", n, PAIR_ENUM_LIMIT, override_limits)
    if sig.pair_multiplicities() is None:
        return ZERO
    bases = (_adapted_base(blocks, sig) for blocks in _nc_pairings(tuple(range(1, n + 1))))
    return _coloring_sum(base for base in bases if base is not None)


def pairing_from_stars(stars: Sequence[bool]) -> Optional[tuple]:
    """Non-crossing pairing of a star/creator word, or None when unbalanced.

    ``stars[i]`` is True when position i+1 opens a block (annihilator leg);
    a creator leg closes the innermost open block, which is the unique
    non-crossing completion.
    """
    stack: list = []
    blocks: list = []
    for pos, is_star in enumerate(stars, start=1):
        if is_star:
            stack.append(pos)
        else:
            if not stack:
                return None
            blocks.append((stack.pop(), pos))
    if stack:
        return None
    return tuple(sorted(blocks))


def word_moment_by_enumeration(stars: Sequence[bool], sig: IntervalSignature) -> MultiPoly:
    """Vacuum moment of one creation/annihilation word, combinatorially.

    The word fixes at most one non-crossing pairing; the moment is the weight
    sum over its adapted colorings times the interval volume factor.
    """
    if len(stars) != sig.n:
        raise ValueError("word length does not match signature length")
    blocks = pairing_from_stars(stars)
    base = None if blocks is None else _adapted_base(blocks, sig)
    return ZERO if base is None else _coloring_sum([base])


# -- compound (Poisson-type) moments ------------------------------------------------


def poisson_moment(n: int, override_limits: bool = False) -> MultiPoly:
    """n-th moment of the compound element, a polynomial in p, q and T.

    Sums T^b(P) w(P) / b(P)! over all ordered non-crossing partitions of [n]
    (all block sizes, singletons included).
    """
    _check_size("general enumeration", n, GENERAL_ENUM_LIMIT, override_limits)

    def bases():
        for blocks in _set_partitions(n):
            sp = SetPartition(n, blocks)
            if is_noncrossing(sp):
                k, edges = sp.block_count, nesting_forest(sp).edges
                yield edges, _coloring_histogram(edges, k), Fraction(1, factorial(k)), k

    return _coloring_sum(bases())


# -- pyramid factorizations ----------------------------------------------------------


def factorization_checks(max_size: int) -> list:
    """Pyramid moments over nested interval ladders factor into q- or p-powers.

    For unit intervals I_1 < ... < I_m the increasing pyramid
    omega(f_1)...omega(f_m)omega(f_m)...omega(f_1) has moment q^(m-1); read
    against a decreasing ladder it is p^(m-1).  Returns one report entry per
    size and direction.
    """
    out = []
    for m in range(1, max_size + 1):
        up = tuple(range(m)) + tuple(reversed(range(m)))
        down = tuple(reversed(range(m))) + tuple(range(m))
        for kind, assignment, expected in (
            ("increasing", up, Q ** (m - 1)),
            ("decreasing", down, P ** (m - 1)),
        ):
            sig = IntervalSignature(lengths=(Fraction(1),) * m, assignment=assignment)
            got = mixed_moment_brownian(sig)
            out.append(
                {
                    "size": m,
                    "kind": kind,
                    "moment": got,
                    "expected": expected,
                    "ok": got == expected,
                }
            )
    return out


# -- route comparison ------------------------------------------------------------------


# name -> r_n(n, override_limits); the order fixes ROUTE_NAMES, the CLI's
# --route choices and the key order of every report.  Each entry looks its
# route up at call time, so rebinding a route's module name reaches reports.
_ROUTES = {
    "enum": lambda n, override_limits: r_by_enumeration(n, override_limits),
    "rec": lambda n, _: sequences_by_recursion(n).r[n],
    "closed": lambda n, _: r_by_closed_form(n)[n],
    "jacobi": lambda n, _: r_by_jacobi(n)[n],
    "delaney": lambda n, _: r_by_delaney(n),
}
ROUTE_NAMES = tuple(_ROUTES)


@dataclass(frozen=True)
class MomentReport:
    n: int
    routes: dict
    agreement: bool


def moment_report(n: int, route: str = "all", override_limits: bool = False) -> MomentReport:
    """Compute r_n by the requested route(s) and compare.

    ``route="all"`` runs every route (the brute enumeration only within its
    limit unless overridden) and reports whether they agree exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if route != "all" and route not in ROUTE_NAMES:
        raise ValueError(f"unknown route {route!r}")
    wanted = list(ROUTE_NAMES) if route == "all" else [route]
    if route == "all" and 2 * n > PAIR_ENUM_LIMIT and not override_limits:
        wanted.remove("enum")
    routes = {name: _ROUTES[name](n, override_limits) for name in wanted}
    vals = list(routes.values())
    agreement = all(v == vals[0] for v in vals)
    return MomentReport(n=n, routes=routes, agreement=agreement)
