"""Moment sequences of the two-parameter interpolation, by independent routes.

The even moments r_n of the interpolating central limit are weighted counts
of ordered non-crossing pair partitions of [2n]:

    r_n = (1/n!) * sum of p^e q^e' over all colorings of all bases.

This module computes the same numbers five ways and exposes the auxiliary
sequences that tie them together:

* ``r_by_enumeration``   sum over the non-crossing bases and their colorings
* ``sequences_by_recursion``  the covered / outer-block recursion for
  s_n^(r), a_n and r_n (s = covered sum, a = covered with top cover,
  R = 1/(1-S), A = 1/(1-pS))
* ``r_by_closed_form``   series extraction from
  R(z) = (s-1-sqrt(1-2sz)) / (s-2+2z), s = p+q, dividing by s-2 exactly
  at every order
* ``r_by_jacobi``        weighted Dyck paths of the continued fraction with
  coefficient ladder (1, t, t, ...), t = (p+q)/2
* ``r_by_delaney``       r_n = sum_k D(n,k) t^k over the nesting-number
  counts D(n,k) of non-crossing pair partitions

The last three depend on p and q only through s, so they run in one
variable (x = s, resp. x = t) and lift each r_n to (p, q) once at the end.

plus mixed interval moments, the compound (Poisson-type) moments with their
symbolic time horizon T, the generalized Euler numbers refining n!*Catalan(n)
by (disorders, orders), and the pyramid factorization checks.

Every enumeration routine here is one coloring sum, ``_coloring_sum``: over
a stream of explicit non-crossing bases, scale * T^t * sum of p^e q^e' over
each base's admissible colorings.  The routines differ only in the bases they
stream, which colorings count (all k!, or interval-contiguous) and the scale.
A base's colorings are counted, not listed: a hook-length DP on its nesting
forest gives their number per e in time polynomial in k, once per forest
shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Iterable, Optional, Sequence

from .algebra import MultiPoly, ONE, P, PowerSeries, Q, UniPoly, ZERO, _check_size, lift_to_pq
from .partitions import (
    PAIR_ENUM_LIMIT,
    IntervalSignature,
    SetPartition,
    _nc_pairings,
    _set_partitions,  # unused here: bound only for perfbench/spans.py, until ROADMAP item 1 frees the name
    enumerate_nc,
    nesting_forest,
)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# -- the coloring-sum core ------------------------------------------------------
# A coloring's e counts the forest edges whose child is colored before its
# parent.  Expanding x^e = prod over edges (1 + (x-1) [child first]) gives
#
#     sum over the k! colorings of x^e = sum over S of (x-1)^|S| * L(S),
#
# S running over the edge subsets and L(S) = k! / prod_v h_S(v) counting the
# linear extensions of the sub-forest S, h_S(v) the size of v's subtree in S
# (the hook-length formula for forests, Knuth TAOCP vol. 3 §5.1.4).  A tree
# DP sums L(S) per |S| in exact integers, once per canonical forest shape:
# nested sorted tuples of subtree shapes.
# perfbench/spans.py rebinds _nc_pairings, _set_partitions, _coloring_histogram
# and _grouped_histogram in this module by name and relies on their signatures,
# and wraps enumerate_nc at this binding as at every other; _grouped_histogram
# calls the shape core, not _coloring_histogram, so a rebound
# _coloring_histogram sees the plain bases only.


def _convolve(a: Sequence, b: Sequence) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _forest_shape(edges: Sequence, nodes: Iterable) -> tuple:
    """Canonical shape of the forest on ``nodes``: the sorted shapes of its
    trees, a tree's shape being the sorted shapes of its root's subtrees."""
    kids = {v: [] for v in nodes}
    for pa, ch in edges:
        kids[pa].append(ch)

    def shape(v):
        return tuple(sorted(map(shape, kids[v])))

    children = {ch for _, ch in edges}
    return tuple(sorted(shape(v) for v in kids if v not in children))


@lru_cache(maxsize=None)
def _tree_table(tree: tuple) -> tuple:
    """(size, {(h, j): count}) of a tree shape: count sums the linear
    extensions of the tree's sub-forests S with |S| = j and h_S(root) = h."""
    size, table = 1, {(1, 0): 1}
    for sub in tree:
        sub_size, sub_table = _tree_table(sub)
        ways = comb(size + sub_size, sub_size)
        cut: dict = {}  # the root's edge to this subtree left out of S
        for (_, j), c in sub_table.items():
            cut[j] = cut.get(j, 0) + c
        merged: dict = {}
        for (h, j), c in table.items():
            c *= ways
            for (sh, sj), sc in sub_table.items():
                key = (h + sh, j + sj + 1)
                merged[key] = merged.get(key, 0) + c * sc
            for sj, sc in cut.items():
                merged[h, j + sj] = merged.get((h, j + sj), 0) + c * sc
        size, table = size + sub_size, merged
    # the root's hook, deferred to here, divides every term of its entry
    return size, {(h, j): c // h for (h, j), c in table.items()}


@lru_cache(maxsize=None)
def _forest_histogram(forest: tuple) -> tuple:
    """Counts by e of the colorings of a forest shape, e = 0, 1, ..., edges.

    The trees hang under a virtual root that no S contains: the table's
    h = 1 entries count each extension of the forest once per place of the
    isolated root among the k + 1."""
    size, table = _tree_table(forest)
    # by_s[j]: sum of L(S) over |S| = j, for j up to the forest's edge count
    by_s = [table.get((1, j), 0) // size for j in range(size - len(forest))]
    # powers of x - 1 to powers of x
    return tuple(
        sum(c * comb(j, e) * (-1) ** (j - e) for j, c in enumerate(by_s) if j >= e)
        for e in range(len(by_s))
    )


def _coloring_histogram(edges: Sequence, k: int) -> dict:
    """e -> number of the k! colorings with e inverted parent/child pairs."""
    return dict(enumerate(_forest_histogram(_forest_shape(edges, range(k)))))


def _grouped_histogram(edges: Sequence, groups: Sequence) -> dict:
    """Same statistic over colorings that keep each group contiguous in order.

    ``groups`` lists block indices per interval, left interval first.  An
    edge between groups is inverted exactly when the child's group comes
    first; the edges inside each group follow that group's own colorings.
    """
    rank = {b: r for r, g in enumerate(groups) for b in g}
    inner: list = [[] for _ in groups]
    fixed = 0
    for pa, ch in edges:
        if rank[pa] == rank[ch]:
            inner[rank[pa]].append((pa, ch))
        elif rank[ch] < rank[pa]:
            fixed += 1
    hist = [0] * fixed + [1]
    for g, g_edges in zip(groups, inner):
        hist = _convolve(hist, _forest_histogram(_forest_shape(g_edges, g)))
    return {e: c for e, c in enumerate(hist) if c}


def _coloring_sum(bases: Iterable) -> MultiPoly:
    """Sum over bases of scale * T^t * (sum of p^e q^e' over its colorings).

    ``bases`` streams (edges, hist, scale, t) per base, ``hist`` mapping e to
    its count of admissible colorings, each with e' = len(edges) - e."""
    return MultiPoly(
        ((e, len(edges) - e, t), scale * c) for edges, hist, scale, t in bases for e, c in hist.items()
    )


def _pair_sum(n: int, override_limits: bool, covered_only: bool = False) -> MultiPoly:
    """Weight sum over ordered (covered) non-crossing pair partitions of [2n]."""
    _check_size("pair enumeration of [2n]", n, PAIR_ENUM_LIMIT // 2, override_limits)
    bases = (SetPartition(2 * n, blocks) for blocks in _nc_pairings(tuple(range(1, 2 * n + 1))))
    forests = (nesting_forest(sp).edges for sp in bases if not covered_only or sp.is_covered)
    return _coloring_sum((edges, _coloring_histogram(edges, n), 1, 0) for edges in forests)


# -- route 1: enumeration of the bases --------------------------------------------


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

    r: tuple
    s: tuple
    a: tuple
    s_rows: tuple


def sequences_by_recursion(order: int, r_max: int = 1) -> SequenceTable:
    """Fill s_n^(r), a_n and r_n from the removal recursion on the top block.

    For every r >= 1 and n >= r:

      s_n^(r) = (r/n) * sum_{k=1}^{n-r+1} a_{k-1} s_{n-k}^(r-1)
              + (q/n) * sum_{k=1}^{n-r} (2n-2k-r) a_{k-1} s_{n-k}^(r)

    with row 0 = (1, 0, 0, ...) and s_n^(r) = 0 for n < r; at n = r it gives
    s_r^(r) = 1.  Alongside, a_n = p * sum_k s_k a_{n-k} and r_n = sum_k
    s_k r_{n-k}.
    """
    if order < 0 or r_max < 1:
        raise ValueError("order must be >= 0 and r_max >= 1")
    rows = [[ONE] + [ZERO] * order] + [[ZERO] * (order + 1) for _ in range(r_max)]
    s1 = rows[1]
    a, rser = [ONE] + [ZERO] * order, [ONE] + [ZERO] * order
    for n in range(1, order + 1):
        for r in range(1, min(n, r_max) + 1):
            prev, row = rows[r - 1], rows[r]
            first = ZERO
            for k in range(1, n - r + 2):
                first = first + a[k - 1] * prev[n - k]
            second = ZERO
            for k in range(1, n - r + 1):
                second = second + a[k - 1] * row[n - k] * (2 * n - 2 * k - r)
            row[n] = first * Fraction(r, n) + Q * second / n
        a_acc = r_acc = ZERO
        for k in range(1, n + 1):
            a_acc = a_acc + s1[k] * a[n - k]
            r_acc = r_acc + s1[k] * rser[n - k]
        a[n] = P * a_acc
        rser[n] = r_acc
    return SequenceTable(
        r=tuple(rser),
        s=tuple(s1),
        a=tuple(a),
        s_rows=tuple(map(tuple, rows)),
    )


# -- route 3: closed form --------------------------------------------------------


def _div_by_x_minus_2(f: UniPoly) -> UniPoly:
    """Exact quotient f / (x-2) by synthetic division; raises on a remainder."""
    quot = []
    acc = ZERO
    for c in reversed(f.coeffs):
        quot.append(acc)
        acc = c + acc * 2
    if not acc.is_zero:
        raise ArithmeticError(f"not divisible by x-2, remainder {acc}")
    return UniPoly(reversed(quot[1:]))


def r_by_closed_form(order: int) -> list:
    """Coefficients r_0..r_order of (s-1-sqrt(1-2sz)) / (s-2+2z), s = p+q.

    Runs in one variable x = s: the z^n coefficient of the numerator is
    [n = 0](x-1) - b_n x^n with b_n the constants of sqrt(1-2w), and
    (x-2) r_n + 2 r_(n-1) matches it.  Every division by x-2 is checked to
    be exact, i.e. every r_n is a genuine polynomial; each is lifted to
    (p, q) once, at x = p+q.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    root = PowerSeries([ONE, MultiPoly.constant(-2)], order).sqrt()
    out: list = []
    prev = UniPoly()
    for n in range(order + 1):
        numer = UniPoly([ZERO] * n + [-root.coeff(n)])
        if n == 0:
            numer = numer + UniPoly([-1, 1])
        prev = _div_by_x_minus_2(numer - prev * 2)
        out.append(lift_to_pq(prev.coeffs))
    return out


# -- route 4: continued fraction / Dyck path transfer -----------------------------


def r_by_jacobi(order: int) -> list:
    """r_0..r_order as Dyck-path weights of the ladder (1, t, t, ...), t=(p+q)/2.

    A down-step from level 1 carries weight 1, from any higher level weight t;
    the 2n-step closed walks at level 0 sum to r_n.  The walk runs in one
    variable x = t and lifts each r_n to (p, q) once.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    t = UniPoly([ZERO, ONE])
    levels = order + 2
    u = [UniPoly.one()] + [UniPoly()] * levels
    out = [ONE]
    for step in range(1, 2 * order + 1):
        nxt = [UniPoly()] * (levels + 1)
        for k in range(levels + 1):
            if u[k].is_zero:
                continue
            if k + 1 <= levels:
                nxt[k + 1] = nxt[k + 1] + u[k]
            if k >= 1:
                nxt[k - 1] = nxt[k - 1] + (u[k] if k == 1 else u[k] * t)
        u = nxt
        if step % 2 == 0:
            out.append(lift_to_pq([c / 2**k for k, c in enumerate(u[0].coeffs)]))
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
    """r_n = sum_k D(n,k) t^k, lifted once at t = (p+q)/2."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ONE
    return lift_to_pq([Fraction(delaney(n, k), 2**k) for k in range(n)])


def gen_euler_histogram(n: int, override_limits: bool = False) -> dict:
    """(e, e') -> count over all ordered non-crossing pair partitions of [2n]: n! r_n's coefficients."""
    return {(e, ep): int(c) for (e, ep, _), c in _pair_sum(n, override_limits).items()}


def gen_euler(n: int, k: int, j: int) -> Fraction:
    """Generalized Euler number E(n,k,j): ordered pair partitions of [2n]
    with k disorders and j orders.

    The closed form (n!/2^(k+j)) * C(k+j, k) * D(n, k+j); the direct count
    is ``gen_euler_histogram(n)``.  They must agree, and the rows sum to
    n! * Catalan(n).
    """
    if n < 1 or k < 0 or j < 0 or k + j > n - 1:
        return Fraction(0)
    return Fraction(factorial(n), 2 ** (k + j)) * comb(k + j, k) * delaney(n, k + j)


# -- series identities ------------------------------------------------------------


class MomentMismatchError(AssertionError):
    """Raised when two exact routes disagree; carries the first bad coefficient."""


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    detail: str = ""


def _expect_agreement(name: str, lhs: PowerSeries, rhs: PowerSeries) -> IdentityCheck:
    k = lhs.agrees_through(rhs)
    if k is not None:
        raise MomentMismatchError(
            f"{name}: first mismatch at z^{k}: {lhs.coeff(k)} != {rhs.coeff(k)}"
        )
    return IdentityCheck(name=name, passed=True)


def series_identity_checks(order: int) -> list:
    """Verify the generating-function identities through the given order.

    Checks R*(1-S) = 1, A*(1-pS) = 1, S^(r) = S^r, and the differential
    recurrence (S^(r))' = r S^(r-1) A + 2qz (S^(r))' A - qr A S^(r), the
    last two for r <= 3: seven checks in all.
    Raises MomentMismatchError at the first failing coefficient.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    r_max = 3
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
    multiplicities, where every pairing has a block that straddles two
    intervals.
    """
    n = sig.n
    if n % 2:
        return ZERO
    _check_size("pair enumeration", n, PAIR_ENUM_LIMIT, override_limits)
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
    (all block sizes, singletons included), each base scaled by the integer
    n!/b! and the sum divided by n! once.
    """

    def bases():
        for sp in enumerate_nc(n, override_limits=override_limits):
            k, edges = sp.block_count, nesting_forest(sp).edges
            yield edges, _coloring_histogram(edges, k), factorial(n) // factorial(k), k

    return _coloring_sum(bases()) / factorial(n)


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

    ``route="all"`` runs every route (the enumeration only within its
    limit unless overridden) and reports whether they agree exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if route != "all" and route not in ROUTE_NAMES:
        raise ValueError(f"unknown route {route!r}")
    wanted = list(ROUTE_NAMES) if route == "all" else [route]
    if route == "all" and n > PAIR_ENUM_LIMIT // 2 and not override_limits:
        wanted.remove("enum")
    routes = {name: _ROUTES[name](n, override_limits) for name in wanted}
    vals = list(routes.values())
    agreement = all(v == vals[0] for v in vals)
    return MomentReport(n=n, routes=routes, agreement=agreement)
