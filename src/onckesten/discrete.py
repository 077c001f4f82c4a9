"""Discrete interacting Fock space over index sequences, and the exact CLT.

One position operator omega_i = A_i + A*_i per index i, acting on the span
of finite index words, in which the vacuum Omega is the empty word ().
A_i prepends the letter i to every word, Omega included; its adjoint
removes a matching first letter and folds in the ordering kernel against
the next one, and kills every word that does not start with i:

    A*_i (i, j, rest) = w(i, j) . (j, rest),    A*_i (i,) = (),
    w(i, j) = p if i < j,  q if i > j,  1 if i = j.

Every vacuum expectation comes from one walk, ``_walk``, which applies the
sum of omega_i over a set of letters per position to the vacuum, rightmost
first; a single word has one letter per position.  Only A*_i shortens a
word, by one letter, so a word longer than the number of positions still to
act never reaches the vacuum: every step drops such words, which is exact.

With all of [N] at each of n positions the walk gives D(N) = N^(n/2) phi(S_N^n)
for S_N = (omega_1 + ... + omega_N) / sqrt(N).  A word moment depends only on
the word's order pattern (relative ranks with ties), so D(N) = sum_r C(N, r) D_r,
D_r the sum over patterns with r distinct letters.  A letter used once is never
annihilated, so D_r = 0 past r = n/2: D is a polynomial of degree n/2 in N, and
its forward differences D_r = Delta^r D(0) are read off the n/2 + 1 walks at
N = 0..n/2.  The limit moment is D_{n/2} / (n/2)!.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Iterator, Sequence, Tuple

from .algebra import MultiPoly, ONE, P, Q, ZERO, _bump, _check_size

# moment order: clt_class_sums walks all words of up to n/2 letters from
# [n/2], about 40 ms at n = 10 and 0.6 s at n = 12 (CPython 3.11, 2 cores)
CLT_MOMENT_LIMIT = 10


def kernel_weight(i: int, j: int) -> MultiPoly:
    if i < j:
        return P
    if i > j:
        return Q
    return ONE


def _walk(positions: Sequence[Sequence[int]]) -> MultiPoly:
    """Vacuum expectation of prod_k (sum of omega_i over positions[k]), rightmost acting first."""
    state = {(): ONE}  # word -> amplitude; the vacuum is the empty word
    for room, letters in reversed(tuple(enumerate(positions))):  # room: positions still to act
        new: dict = {}
        for word, c in state.items():
            if len(word) < room:  # A_i
                for i in letters:
                    _bump(new, (i,) + word, c)
            if word and word[0] in letters:  # A*_i
                rest = word[1:]
                _bump(new, rest, c * kernel_weight(word[0], rest[0]) if rest else c)
        state = new
    return state.get((), ZERO)


def discrete_word_moment(indices: Sequence[int]) -> MultiPoly:
    """Vacuum expectation of omega_{i_1} ... omega_{i_n} (rightmost acts first)."""
    return _walk([(i,) for i in indices])


def order_patterns(n: int) -> Iterator[Tuple[int, ...]]:
    """All rank words on [n], ordered-Bell(n) many: a restricted growth string (class
    labels in order of first appearance) times a bijection of its classes onto ranks."""
    def rec(labels: tuple, used: int):
        if len(labels) < n:
            for v in range(used + 1):
                yield from rec(labels + (v,), used + (v == used))
            return
        for perm in permutations(range(used)):
            yield tuple(perm[v] for v in labels)

    yield from rec((), 0)


@lru_cache(maxsize=None)
def clt_class_sums(n: int) -> Tuple[MultiPoly, ...]:
    """Entry r-1: D_r, the sum of pattern moments over rank words with r distinct letters."""
    half = n // 2
    d = [_walk([range(N)] * n) for N in range(half + 1)]  # D(N) = N^(n/2) phi(S_N^n)
    sums = [sum((d[k] * ((-1) ** (r - k) * math.comb(r, k)) for k in range(r + 1)), ZERO)
            for r in range(1, half + 1)]
    return tuple(sums) + (ZERO,) * (n - half)


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
