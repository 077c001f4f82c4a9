"""Discrete interacting Fock space over index sequences, and the exact CLT.

One position operator omega_i = A_i + A*_i per index i, acting on the span
of finite index words, in which the vacuum Omega is the empty word ().
A_i prepends the letter i to every word, Omega included; its adjoint
removes a matching first letter and folds in the ordering kernel against
the next one, and kills every word that does not start with i:

    A*_i (i, j, rest) = w(i, j) . (j, rest),    A*_i (i,) = (),
    w(i, j) = p if i < j,  q if i > j,  1 if i = j.

Moments of normalized sums S_N = (omega_1 + ... + omega_N) / sqrt(N) depend
on an index word only through its order pattern (relative ranks with ties),
so phi(S_N^n) collapses to a sum over ordered set partitions weighted by
binomial coefficients -- exact in N, with the n-th limit moment read off the
pattern classes with n/2 distinct letters.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Iterator, Sequence, Tuple

from .algebra import MultiPoly, ONE, P, Q, ZERO, _bump, _check_size

# moment order: clt_class_sums walks all ordered-Bell(n) order patterns,
# 4,683 at n = 6 but 545,835 at n = 8
CLT_MOMENT_LIMIT = 6

Pattern = Tuple[int, ...]


def kernel_weight(i: int, j: int) -> MultiPoly:
    if i < j:
        return P
    if i > j:
        return Q
    return ONE


def discrete_word_moment(indices: Sequence[int]) -> MultiPoly:
    """Vacuum expectation of omega_{i_1} ... omega_{i_n} (rightmost acts first)."""
    state = {(): ONE}  # word -> amplitude; the vacuum is the empty word
    for i in reversed(tuple(indices)):
        new: dict = {}
        for word, c in state.items():
            _bump(new, (i,) + word, c)  # A_i
            if word and word[0] == i:  # A*_i
                rest = word[1:]
                _bump(new, rest, c * kernel_weight(i, rest[0]) if rest else c)
        state = new
    return state.get((), ZERO)


def _rgs(n: int) -> Iterator[Tuple[int, ...]]:
    """Restricted growth strings: class labels in order of first appearance."""

    def rec(prefix: list, used: int):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(used + 1):
            prefix.append(v)
            yield from rec(prefix, used + (v == used))
            prefix.pop()

    yield from rec([], 0)


def order_patterns(n: int) -> Iterator[Pattern]:
    """All rank words on [n]: surjections onto {0..r-1} for every r.

    Generated as a restricted growth string (which classes coincide) times a
    bijection of classes onto ranks; there are ordered-Bell-number many.
    """
    for rgs in _rgs(n):
        r = max(rgs) + 1
        for perm in permutations(range(r)):
            yield tuple(perm[v] for v in rgs)


@lru_cache(maxsize=None)
def clt_class_sums(n: int) -> Tuple[MultiPoly, ...]:
    """Entry r-1: sum of pattern moments over rank words with r distinct letters."""
    sums = [ZERO] * n
    for pattern in order_patterns(n):
        r = max(pattern) + 1
        # a letter used an odd number of times is never fully annihilated: moment 0
        if any(pattern.count(v) % 2 for v in range(r)):
            continue
        sums[r - 1] = sums[r - 1] + discrete_word_moment(pattern)
    return tuple(sums)


def clt_moment(N: int, n: int, override_limits: bool = False) -> MultiPoly:
    """phi(S_N^n) exactly: sum_r C(N, r) D_r / N^(n/2), zero for odd n."""
    _check_size("CLT moment", n, CLT_MOMENT_LIMIT, override_limits)
    if N < 1:
        raise ValueError("need N >= 1")
    if n % 2:
        return ZERO
    total = ZERO
    for r, d in enumerate(clt_class_sums(n), start=1):
        if r > N or d.is_zero:
            continue
        total = total + d * Fraction(math.comb(N, r))
    return total / Fraction(N ** (n // 2))


def clt_leading_term(n: int, override_limits: bool = False) -> MultiPoly:
    """Limit of phi(S_N^n) as N grows: D_{n/2} / (n/2)! for even n, else zero."""
    if n % 2 and n > 0:  # an order below 1 is left for the size check to reject
        return ZERO
    _check_size("CLT moment", n, CLT_MOMENT_LIMIT, override_limits)
    half = n // 2
    return clt_class_sums(n)[half - 1] / Fraction(math.factorial(half))
