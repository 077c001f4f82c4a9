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

# positions, not blocks: pair enumeration handles [2n] up to 14 by default,
# general partitions up to n = 8 (Bell(8) = 4140 bases before filtering)
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
    def is_pair(self) -> bool:
        return all(len(b) == 2 for b in self.blocks)

    @property
    def is_covered(self) -> bool:
        """1 and n share a block (that block then covers everything)."""
        return self.n in self.blocks[0]

    def block_index_of(self, x: int) -> int:
        for i, b in enumerate(self.blocks):
            if x in b:
                return i
        raise KeyError(x)

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


def is_noncrossing(sp: SetPartition) -> bool:
    """Direct definitional check: no quadruple k < m < k' < m' across blocks."""
    bl = sp.blocks
    for i in range(len(bl)):
        for j in range(i + 1, len(bl)):
            merged = sorted([(x, 0) for x in bl[i]] + [(x, 1) for x in bl[j]])
            runs = 1
            for a, b in zip(merged, merged[1:]):
                if a[1] != b[1]:
                    runs += 1
            if runs >= 4:
                return False
    return True


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


def disorder_order_counts(op: OrderedPartition) -> tuple:
    """(e, e'): neighboring pairs with the inner block colored first vs last."""
    forest = nesting_forest(op.base)
    pos = op.color_position()
    e = sum(1 for pa, ch in forest.edges if pos[ch] < pos[pa])
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


def _set_partitions(n: int) -> Iterator[tuple]:
    """All set partitions of [n]; blocks emerge sorted by minimum."""
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
        found = [
            SetPartition(n, blocks)
            for blocks in _set_partitions(n)
            if is_noncrossing(SetPartition(n, blocks))
        ]
    found.sort(key=lambda sp: sp.blocks)
    yield from found


def enumerate_ordered(
    n: int,
    pair_only: bool = False,
    covered_only: bool = False,
    outer_blocks: Optional[int] = None,
    override_limits: bool = False,
) -> Iterator[OrderedPartition]:
    """Ordered non-crossing partitions: every coloring of every base.

    ``covered_only`` keeps bases where 1 and n share a block; ``outer_blocks``
    keeps bases with exactly that many nesting roots.  A covered partition has
    exactly one outer block, so contradictory filters yield an empty stream.
    """
    if covered_only and outer_blocks not in (None, 1):
        return
    for sp in enumerate_nc(n, pair_only=pair_only, override_limits=override_limits):
        if covered_only and not sp.is_covered:
            continue
        if outer_blocks is not None and nesting_forest(sp).outer_count != outer_blocks:
            continue
        for perm in permutations(range(sp.block_count)):
            yield OrderedPartition(sp, perm)


# -- interval signatures -------------------------------------------------------


@dataclass(frozen=True)
class IntervalSignature:
    """Assignment of tensor positions to a ladder of disjoint intervals.

    ``lengths[i]`` is the length of the i-th interval counting from the left;
    ``assignment[j]`` is the interval index of position j+1.  ``labels`` are
    display names in the same left-to-right order.
    """

    lengths: tuple
    assignment: tuple
    labels: tuple = ()

    def __post_init__(self):
        lengths = tuple(Fraction(x) for x in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "assignment", tuple(int(a) for a in self.assignment))
        if any(l <= 0 for l in lengths):
            raise ValueError("interval lengths must be positive")
        if any(not 0 <= a < len(lengths) for a in self.assignment):
            raise ValueError("assignment refers to an unknown interval")
        labels = self.labels or tuple(f"I{i + 1}" for i in range(len(lengths)))
        if len(labels) != len(lengths) or len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct, one per interval")
        object.__setattr__(self, "labels", tuple(labels))

    @classmethod
    def single(cls, n: int, length=1) -> "IntervalSignature":
        return cls((Fraction(length),), (0,) * n)

    @classmethod
    def from_named_intervals(cls, names: Sequence[str], intervals: dict) -> "IntervalSignature":
        """Build from endpoint data {name: (lo, hi)}; disjointness enforced.

        Intervals must have pairwise disjoint interiors (touching endpoints
        are fine); identical-or-disjoint is the registration discipline.
        """
        items = sorted(((Fraction(lo), Fraction(hi), nm) for nm, (lo, hi) in intervals.items()))
        for (lo, hi, nm) in items:
            if hi <= lo:
                raise ValueError(f"interval {nm} is empty or reversed")
        for (_, hi, nm1), (lo2, _, nm2) in zip(items, items[1:]):
            if lo2 < hi:
                raise ValueError(f"intervals {nm1} and {nm2} overlap; they must be identical or disjoint")
        rank = {nm: i for i, (_, _, nm) in enumerate(items)}
        unknown = set(names) - set(rank)
        if unknown:
            raise ValueError(f"signature uses undeclared intervals: {sorted(unknown)}")
        return cls(
            lengths=tuple(hi - lo for lo, hi, _ in items),
            assignment=tuple(rank[nm] for nm in names),
            labels=tuple(nm for _, _, nm in items),
        )

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def interval_count(self) -> int:
        return len(self.lengths)

    def multiplicities(self) -> tuple:
        counts = [0] * len(self.lengths)
        for a in self.assignment:
            counts[a] += 1
        return tuple(counts)

    def pair_multiplicities(self) -> Optional[tuple]:
        """b_i = multiplicity / 2 per interval, or None if some count is odd."""
        counts = self.multiplicities()
        if any(c % 2 for c in counts):
            return None
        return tuple(c // 2 for c in counts)

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
