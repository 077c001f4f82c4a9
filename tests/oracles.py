"""Independent brute-force oracles, written against the definitions only.

Everything here recomputes combinatorial facts from first principles with no
imports from the package under test: partitions as frozensets, crossings by
the defining quadruple scan, nesting by direct enclosure, and weights by
counting disorder/order pairs per coloring.  Tests freeze package outputs
against these.  The unpruned operator drivers at the end take an engine from
the caller, with its vacuum vector, and apply every step to every live word,
with no horizon.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, groupby, permutations, product
from math import factorial


def set_partitions(n):
    """All set partitions of {1..n} as sorted tuples of sorted tuples."""
    if n == 0:
        yield ()
        return
    for rest in set_partitions(n - 1):
        yield tuple(sorted(rest + ((n,),)))
        for i, block in enumerate(rest):
            grown = rest[:i] + (tuple(sorted(block + (n,))),) + rest[i + 1 :]
            yield tuple(sorted(grown))


def crosses(blocks) -> bool:
    """a < b < c < d with {a,c} and {b,d} in different blocks."""
    for bi in blocks:
        for bj in blocks:
            if bi >= bj:
                continue
            for a in bi:
                for c in bi:
                    if a >= c:
                        continue
                    for b in bj:
                        for d in bj:
                            if b >= d:
                                continue
                            if a < b < c < d or b < a < d < c:
                                return True
    return False


def encloses(outer, inner) -> bool:
    """Some gap of ``outer`` contains all of ``inner`` strictly inside its span."""
    return min(outer) < min(inner) and max(inner) < max(outer)


def parent_map(blocks) -> dict:
    """block -> its innermost enclosing block (None at the roots)."""
    out = {}
    for b in blocks:
        enclosing = [o for o in blocks if o != b and encloses(o, b)]
        if enclosing:
            out[b] = max(enclosing, key=lambda o: min(o))
        else:
            out[b] = None
    return out


def forest_edges(blocks):
    """(parent, child) pairs of the nesting forest."""
    return tuple(
        sorted((p, c) for c, p in parent_map(blocks).items() if p is not None)
    )


def disorder_order(blocks, coloring) -> tuple:
    """(e, e') for one coloring: coloring[k] = block colored (k+1)-st."""
    position = {b: i for i, b in enumerate(coloring)}
    e = eprime = 0
    for parent, child in forest_edges(blocks):
        if position[child] < position[parent]:
            e += 1
        else:
            eprime += 1
    return e, eprime


def weight_histogram(blocks) -> dict:
    """(e, e') -> number of colorings of this base realizing it."""
    out = {}
    for coloring in permutations(blocks):
        key = disorder_order(blocks, coloring)
        out[key] = out.get(key, 0) + 1
    return out


def grouped_histogram(edges, groups) -> dict:
    """e -> number of block orders with e edges (parent, child) whose child
    comes first, over the orders that list each group contiguously, the
    groups left to right."""
    out = {}
    for orders in product(*(permutations(g) for g in groups)):
        position = {b: i for i, b in enumerate(chain.from_iterable(orders))}
        e = sum(1 for parent, child in edges if position[child] < position[parent])
        out[e] = out.get(e, 0) + 1
    return out


def coloring_histogram(edges, k) -> dict:
    """The same count over all k! orders of the blocks 0..k-1."""
    return grouped_histogram(edges, [range(k)])


def nc_pair_partitions(n):
    for blocks in set_partitions(n):
        if all(len(b) == 2 for b in blocks) and not crosses(blocks):
            yield blocks


def nc_partitions(n):
    for blocks in set_partitions(n):
        if not crosses(blocks):
            yield blocks


def mixed_moment(assignment, lengths) -> dict:
    """(e, e', 0) -> coefficient of the mixed moment of an interval signature.

    ``assignment[j]`` is the interval rank of position j+1 (intervals ranked
    left to right), ``lengths[i]`` the length of interval i.  Sums p^e q^e'
    over the non-crossing pair partitions whose blocks each lie in one
    interval and over their colorings whose interval ranks never decrease,
    each base scaled by prod_i lengths[i]^b_i / b_i! with b_i its blocks in
    interval i.
    """
    out = {}
    for blocks in nc_pair_partitions(len(assignment)):
        ranks = {b: {assignment[x - 1] for x in b} for b in blocks}
        if any(len(r) > 1 for r in ranks.values()):
            continue  # a block straddles two intervals
        rank = {b: min(r) for b, r in ranks.items()}
        scale = Fraction(1)
        for i, length in enumerate(lengths):
            count = sum(1 for r in rank.values() if r == i)
            scale *= Fraction(length) ** count / factorial(count)
        for coloring in permutations(blocks):
            if all(rank[a] <= rank[b] for a, b in zip(coloring, coloring[1:])):
                key = disorder_order(blocks, coloring) + (0,)
                out[key] = out.get(key, 0) + scale
    return out


def free_position_moment(assignment, lengths) -> Fraction:
    """Vacuum moment of omega_{r_1}...omega_{r_n} at p = q = 1, on the full Fock space.

    Words of orthogonal vectors e_i with <e_i, e_i> = lengths[i]; omega_i is
    l(e_i) + l(e_i)*, and the rightmost factor acts first.
    """
    v = {(): Fraction(1)}
    for i in reversed(assignment):
        out = {}
        for word, c in v.items():
            out[(i,) + word] = out.get((i,) + word, 0) + c
            if word and word[0] == i:
                out[word[1:]] = out.get(word[1:], 0) + c * lengths[i]
        v = out
    return v.get((), Fraction(0))


def boolean_position_moment(assignment, lengths) -> Fraction:
    """The same moment at p = q = 0: the product over maximal same-interval runs
    of lengths[i]^(m/2), m the run's size, and 0 if any run is odd."""
    out = Fraction(1)
    for i, run in groupby(assignment):
        m = len(list(run))
        if m % 2:
            return Fraction(0)
        out *= Fraction(lengths[i]) ** (m // 2)
    return out


def unpruned_word_moment(engine, vacuum, tags):
    """Vacuum amplitude of an operator word, every tag applied (rightmost first)."""
    v = vacuum
    for tag in reversed(tuple(tags)):
        v = engine._operator(tag)(v)
    return v.vacuum


def unpruned_position_moment(engine, vacuum, assignment):
    """Vacuum moment of omega(chi_{r_1})...omega(chi_{r_n}) for the ranks r_j."""
    v = vacuum
    for rank in reversed(assignment):
        v = engine.omega(rank, v)
    return v.vacuum


def unpruned_poisson_moment(engine, vacuum, n):
    """Vacuum moment of (a + a* + n + m)^n on the engine's symbolic interval."""
    v = vacuum
    for _ in range(n):
        v = engine.create(0, v).add(engine.annihilate(0, v)).add(engine.gauge_n(v)).add(engine.gauge_m(v))
    return v.vacuum
