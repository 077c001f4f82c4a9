"""Ordered non-crossing partitions with order/disorder statistics.

A set partition of [n] = {1, ..., n} is non-crossing when no two blocks
interleave as k < m < k' < m'.  Its blocks then nest as a forest: block B is
*inner* with respect to block A when some a, b in A satisfy a < c < b for all
c in B, and the minimal such outer block is B's unique parent.

An *ordered* partition adds a coloring, i.e. a linear order on the blocks.
Each parent/child pair of the nesting forest is then either a *disorder*
(child colored before its parent, contributing a factor p) or an *order*
(parent first, contributing q); the weight of an ordered partition is
p^e q^e' where e counts disorders and e' counts orders.  These weights drive
every moment formula in the package.

Enumeration is streamed: base partitions are produced in canonical order
(blocks sorted by minimum, partitions compared lexicographically as nested
tuples) and colorings in lexicographic permutation order, so output order is
reproducible.  Counts grow fast -- there are n! * Catalan(n) ordered
non-crossing pair partitions of [2n], about 2.16 million at 2n = 14 -- hence
the enumeration limits below, overridable by flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Iterator, Optional, Sequence

from .algebra import MultiPoly, _check_size

# positions, not blocks.  Pair enumeration handles [2n] up to 14 by default:
# Catalan(7) = 429 bases for the coloring sums, which count each base's
# colorings without listing them, and 7! * 429 = 2,162,160 rows for the
# ordered listing.  General partitions go up to n = 8 (Catalan(8) = 1430
# bases, generated directly).
PAIR_ENUM_LIMIT = 14
GENERAL_ENUM_LIMIT = 8


@dataclass(frozen=True)
class SetPartition:
    """Partition of [n] into disjoint blocks, blocks sorted by minimum."""

    n: int
    blocks: tuple

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "SetPartition":
        tidy = tuple(sorted(tuple(sorted(b)) for b in blocks))
        seen = [x for b in tidy for x in b]
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"blocks do not partition 1..{n}: {blocks}")
        return cls(n, tidy)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def is_covered(self) -> bool:
        """1 and n share a block (that block then covers everything)."""
        return self.n in self.blocks[0]

    def __str__(self):
        return "[" + ",".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) + "]"


@dataclass(frozen=True)
class OrderedPartition:
    """A set partition with a coloring: order[i] = base-block index of P_{i+1}."""

    base: SetPartition
    order: tuple

    def __post_init__(self):
        if sorted(self.order) != list(range(self.base.block_count)):
            raise ValueError("coloring must be a permutation of the blocks")

    @property
    def blocks_in_order(self) -> tuple:
        return tuple(self.base.blocks[i] for i in self.order)

    def color_position(self) -> dict:
        """block index -> 0-based position in the coloring."""
        return {b: i for i, b in enumerate(self.order)}

    def __str__(self):
        return "[" + ",".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks_in_order) + "]"


@dataclass(frozen=True)
class NestingForest:
    """Parent links of the block nesting order of a non-crossing partition."""

    parent: tuple          # block index -> parent block index or None
    edges: tuple           # (parent, child) pairs, child sorted ascending

    @property
    def inner_count(self) -> int:
        """Number of blocks having a neighboring outer block."""
        return len(self.edges)

    @property
    def outer_count(self) -> int:
        return len(self.parent) - len(self.edges)


@lru_cache(maxsize=None)
def nesting_forest(sp: SetPartition) -> NestingForest:
    """Parent of each block = innermost block still open when it starts.

    Single left-to-right sweep with a stack of open blocks; a non-crossing
    violation surfaces as a block resurfacing while not on top of the stack.
    """
    k = sp.block_count
    block_of = {}
    last = {}
    for bi, b in enumerate(sp.blocks):
        for x in b:
            block_of[x] = bi
        last[bi] = b[-1]
    parent: list = [None] * k
    stack: list = []
    opened = [False] * k
    for x in range(1, sp.n + 1):
        b = block_of[x]
        if opened[b]:
            if not stack or stack[-1] != b:
                raise ValueError(f"partition is not non-crossing: {sp}")
        else:
            opened[b] = True
            parent[b] = stack[-1] if stack else None
            stack.append(b)
        if x == last[b]:
            stack.pop()
    edges = tuple((parent[c], c) for c in range(k) if parent[c] is not None)
    return NestingForest(parent=tuple(parent), edges=edges)


def is_noncrossing(sp: SetPartition) -> bool:
    """No quadruple k < m < k' < m' across blocks: the nesting sweep completes."""
    try:
        nesting_forest(sp)
    except ValueError:
        return False
    return True


def _disorders(edges: tuple, pos) -> int:
    """Nesting edges whose child is colored before its parent; pos[block] = position."""
    return sum(pos[ch] < pos[pa] for pa, ch in edges)


def disorder_order_counts(op: OrderedPartition) -> tuple:
    """(e, e'): neighboring pairs with the inner block colored first vs last."""
    forest = nesting_forest(op.base)
    e = _disorders(forest.edges, op.color_position())
    return e, forest.inner_count - e


def weight(op: OrderedPartition) -> MultiPoly:
    """w(P) = p^e q^e' over the neighboring nesting relation."""
    e, ep = disorder_order_counts(op)
    return MultiPoly.monomial(1, e, ep, 0)


# -- enumeration --------------------------------------------------------------


def _nc_pairings(slots: tuple) -> Iterator[tuple]:
    """All non-crossing pairings of a contiguous run of positions.

    Pair the first slot with a partner at odd offset; the enclosed and the
    trailing segments pair independently, which is exactly non-crossingness.
    """
    if not slots:
        yield ()
        return
    a = slots[0]
    for idx in range(1, len(slots), 2):
        b = slots[idx]
        for pi in _nc_pairings(slots[1:idx]):
            for po in _nc_pairings(slots[idx + 1:]):
                yield ((a, b),) + pi + po


def _nc_partitions(n: int) -> Iterator[tuple]:
    """All non-crossing partitions of [n]; blocks emerge sorted by minimum.

    ``growing`` holds the blocks that can still take an element, innermost
    last.  x either joins one of them, which closes for good every block
    above it (a later element there would cross x's block), or opens a new
    block on top.  The order is that of filtering ``_set_partitions``.
    """
    blocks: list = []

    def rec(x: int, growing: tuple):
        if x > n:
            yield tuple(tuple(b) for b in blocks)
            return
        for depth, bi in enumerate(growing, 1):
            b = blocks[bi]
            b.append(x)
            yield from rec(x + 1, growing[:depth])
            b.pop()
        blocks.append([x])
        yield from rec(x + 1, growing + (len(blocks) - 1,))
        blocks.pop()

    yield from rec(1, ())


def _set_partitions(n: int) -> Iterator[tuple]:
    """All set partitions of [n]; blocks emerge sorted by minimum.

    Nothing in the package calls it: ``moments`` binds it only for
    perfbench/spans.py, which wraps it there by name (ROADMAP item 1).
    """
    blocks: list = []

    def rec(x: int):
        if x > n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(x)
            yield from rec(x + 1)
            b.pop()
        blocks.append([x])
        yield from rec(x + 1)
        blocks.pop()

    yield from rec(1)


def enumerate_nc(n: int, pair_only: bool = False, override_limits: bool = False) -> Iterator[SetPartition]:
    """Non-crossing (pair) partitions of [n] in canonical order."""
    if pair_only:
        _check_size("pair enumeration", n, PAIR_ENUM_LIMIT, override_limits)
        if n % 2:
            return
        found = [SetPartition(n, blocks) for blocks in _nc_pairings(tuple(range(1, n + 1)))]
    else:
        _check_size("general enumeration", n, GENERAL_ENUM_LIMIT, override_limits)
        found = [SetPartition(n, blocks) for blocks in _nc_partitions(n)]
    found.sort(key=lambda sp: sp.blocks)
    yield from found


def enumerate_ordered(
    n: int,
    pair_only: bool = False,
    outer_blocks: Optional[int] = None,
    override_limits: bool = False,
) -> Iterator[OrderedPartition]:
    """Ordered non-crossing partitions: every coloring of every base.

    ``outer_blocks`` keeps bases with exactly that many nesting roots.
    """
    for sp in enumerate_nc(n, pair_only=pair_only, override_limits=override_limits):
        if outer_blocks is not None and nesting_forest(sp).outer_count != outer_blocks:
            continue
        for perm in permutations(range(sp.block_count)):
            yield OrderedPartition(sp, perm)


# -- interval signatures -------------------------------------------------------


@dataclass(frozen=True)
class IntervalSignature:
    """Assignment of tensor positions to a ladder of disjoint intervals.

    ``lengths[i]`` is the length of the i-th interval counting from the left;
    ``assignment[j]`` is the interval index of position j+1.  Intervals are
    known only by that index: the names given to ``from_named_intervals``
    are not kept.
    """

    lengths: tuple
    assignment: tuple

    def __post_init__(self):
        lengths = tuple(Fraction(x) for x in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "assignment", tuple(int(a) for a in self.assignment))
        if any(l <= 0 for l in lengths):
            raise ValueError("interval lengths must be positive")
        if any(not 0 <= a < len(lengths) for a in self.assignment):
            raise ValueError("assignment refers to an unknown interval")

    @classmethod
    def single(cls, n: int) -> "IntervalSignature":
        """n positions on one unit interval."""
        return cls((Fraction(1),), (0,) * n)

    @classmethod
    def from_named_intervals(cls, names: Sequence[str], intervals: dict) -> "IntervalSignature":
        """Build from endpoint data {name: (lo, hi)}; disjointness enforced.

        Intervals must have pairwise disjoint interiors (touching endpoints
        are fine); an interval shared by several positions is declared once,
        under one name.
        """
        items = sorted(((Fraction(lo), Fraction(hi), nm) for nm, (lo, hi) in intervals.items()))
        for (lo, hi, nm) in items:
            if hi <= lo:
                raise ValueError(f"interval {nm} is empty or reversed")
        for (_, hi, nm1), (lo2, _, nm2) in zip(items, items[1:]):
            if lo2 < hi:
                raise ValueError(f"intervals {nm1} and {nm2} overlap; interiors must be disjoint, "
                                 "with a shared interval declared once under one name")
        rank = {nm: i for i, (_, _, nm) in enumerate(items)}
        unknown = set(names) - set(rank)
        if unknown:
            raise ValueError(f"signature uses undeclared intervals: {sorted(unknown)}")
        return cls(
            lengths=tuple(hi - lo for lo, hi, _ in items),
            assignment=tuple(rank[nm] for nm in names),
        )

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def interval_count(self) -> int:
        return len(self.lengths)

    def block_intervals(self, blocks: Sequence) -> Optional[list]:
        """Interval index of each block, or None if a block straddles two intervals."""
        ranks = []
        for b in blocks:
            r = {self.assignment[x - 1] for x in b}
            if len(r) > 1:
                return None
            ranks.append(r.pop())
        return ranks


def is_adapted(op: OrderedPartition, sig: IntervalSignature) -> bool:
    """Blocks live on single intervals and colors follow the interval ladder."""
    if op.base.n != sig.n:
        raise ValueError("partition size does not match signature length")
    ranks = sig.block_intervals(op.base.blocks)
    if ranks is None:
        return False
    seq = [ranks[i] for i in op.order]
    return all(a <= b for a, b in zip(seq, seq[1:]))
