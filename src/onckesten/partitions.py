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

Enumeration is streamed: one first-block recursion produces the pairings
and the general bases alike in canonical order (blocks sorted by minimum,
partitions compared lexicographically as nested tuples) with no sort, and
colorings come in lexicographic permutation order, so output order is
reproducible.  Counts grow fast -- there are n! * Catalan(n) ordered
non-crossing pair partitions of [2n], about 2.16 million at 2n = 14 -- hence
the enumeration limits below, overridable by flag.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import Iterator, Optional, Sequence

from .algebra import MultiPoly, _check_size

# positions, not blocks.  Pair enumeration handles [2n] up to 14 by default:
# Catalan(7) = 429 bases for the coloring sums, which count each base's
# colorings without listing them, and 7! * 429 = 2,162,160 rows for the
# ordered listing.  General partitions go up to n = 8 (Catalan(8) = 1430
# bases).
PAIR_ENUM_LIMIT = 14
GENERAL_ENUM_LIMIT = 8


@dataclass(frozen=True, slots=True)  # slots: every generated base is one, and the forest cache keeps them
class SetPartition:
    """Partition of [n] into disjoint blocks, blocks sorted by minimum.

    The constructor checks the invariant: the blocks partition 1..n, each
    block is an ascending tuple and the blocks ascend by minimum."""

    n: int
    blocks: tuple

    def __post_init__(self):
        blocks = self.blocks
        if sorted(x for b in blocks for x in b) != list(range(1, self.n + 1)) or not all(blocks):
            raise ValueError(f"blocks do not partition 1..{self.n}: {blocks}")
        if tuple(sorted(tuple(sorted(b)) for b in blocks)) != blocks:
            raise ValueError(f"blocks must be ascending tuples, sorted by minimum: {blocks}")

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "SetPartition":
        return cls(n, tuple(sorted(tuple(sorted(b)) for b in blocks)))

    @classmethod
    def _make(cls, n: int, blocks: tuple) -> "SetPartition":
        self = object.__new__(cls)  # trusted: generated bases meet the invariant by construction
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)
        return self

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

    Relies on the ``SetPartition`` invariant: blocks ascend by minimum and
    each block ascends.  One stack of open blocks, innermost last; a block
    crosses its parent exactly when the parent has an element strictly
    inside the block's span.
    """
    blocks = sp.blocks
    parent: list = []
    stack: list = []
    for bi, b in enumerate(blocks):
        while stack and blocks[stack[-1]][-1] < b[0]:
            stack.pop()
        if stack:
            a = blocks[stack[-1]]
            if a[bisect(a, b[0])] < b[-1]:
                raise ValueError(f"partition is not non-crossing: {sp}")
        parent.append(stack[-1] if stack else None)
        stack.append(bi)
    edges = tuple((pa, c) for c, pa in enumerate(parent) if pa is not None)
    return NestingForest(parent=tuple(parent), edges=edges)


def is_noncrossing(sp: SetPartition) -> bool:
    """No quadruple k < m < k' < m' across blocks: ``nesting_forest`` completes."""
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


def _nc_bases(slots: tuple, pairs: bool) -> Iterator[tuple]:
    """Non-crossing partitions, or with ``pairs`` pairings, of a run of slots.

    Kreweras' first-block decomposition: the runs that the first slot's
    block encloses, and the run after it, partition independently.  That
    block grows in lexicographic order (closing before extending; a pairing
    takes one partner, at an odd offset) and the sub-runs vary left to
    right, so the output is in canonical order.  Sub-runs are listed once
    per call; the run itself streams.
    """
    listed: dict = {}

    def first_blocks(block: tuple, hi: int) -> Iterator[tuple]:
        if not pairs or len(block) == 2:
            yield block
        if not pairs or len(block) == 1:
            for j in range(block[-1] + 1, hi, 2 if pairs else 1):
                yield from first_blocks(block + (j,), hi)

    def listing(lo: int, hi: int) -> list:
        found = listed.get((lo, hi))
        if found is None:
            found = listed[lo, hi] = list(bases(lo, hi))
        return found

    def bases(lo: int, hi: int) -> Iterator[tuple]:
        if lo == hi:
            yield ()
            return
        for block in first_blocks((lo,), hi):
            head = (tuple(slots[i] for i in block),)
            runs = [listing(i + 1, j) for i, j in zip(block, block[1:] + (hi,))]
            for parts in product(*runs):
                yield sum(parts, head)

    return bases(0, len(slots))


def _nc_pairings(slots: tuple) -> Iterator[tuple]:
    """Non-crossing pairings of a run of slots: the name ``moments`` binds."""
    return _nc_bases(slots, pairs=True)


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
    """Non-crossing (pair) partitions of [n], streamed in canonical order."""
    if pair_only:
        _check_size("pair enumeration", n, PAIR_ENUM_LIMIT, override_limits)
    else:
        _check_size("general enumeration", n, GENERAL_ENUM_LIMIT, override_limits)
    for blocks in _nc_bases(tuple(range(1, n + 1)), pair_only):
        yield SetPartition._make(n, blocks)


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
