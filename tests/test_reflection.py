"""Time reflection exchanges p and q on every multi-interval engine.

Mirroring the interval ladder turns every disorder into an order, so a
moment on the mirrored ladder at (q, p) equals the moment at (p, q).  The
relation needs no second engine and no reference values.  Words are drawn
from random non-crossing pairings whose two legs share an interval, so no
moment is zero; many are not themselves p <-> q symmetric, so the relation
has content.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from onckesten.algebra import MultiPoly
from onckesten.discrete import discrete_word_moment
from onckesten.fock import FockEngine, position_moment
from onckesten.moments import mixed_moment_brownian
from onckesten.partitions import IntervalSignature


def swap(poly: MultiPoly) -> MultiPoly:
    """The p <-> q exchange of a polynomial."""
    return MultiPoly(((j, i, t), c) for (i, j, t), c in poly.items())


@st.composite
def paired_words(draw, max_pairs: int):
    """(k, labels, opens): a non-crossing pairing of 2n slots on k intervals.

    ``labels[j]`` is slot j's interval, shared by the two legs of its pair;
    ``opens[j]`` marks the pair's left leg."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(1, max_pairs))
    labels, opens, stack = [], [], []
    for pos in range(2 * n):
        room = 2 * n - pos  # slots left, this one included
        if stack and (len(stack) + 2 > room or draw(st.booleans())):
            labels.append(stack.pop())
            opens.append(False)
        else:
            stack.append(draw(st.integers(0, k - 1)))
            labels.append(stack[-1])
            opens.append(True)
    return k, tuple(labels), tuple(opens)


_lengths = st.fractions(min_value=Fraction(1, 4), max_value=Fraction(5), max_denominator=4)


def _signatures(k: int, labels: tuple, lengths: list) -> tuple:
    sig = IntervalSignature(lengths=tuple(lengths[:k]), assignment=labels)
    mirrored = IntervalSignature(lengths=sig.lengths[::-1], assignment=tuple(k - 1 - a for a in labels))
    return sig, mirrored


@settings(deadline=None, max_examples=30)
@given(paired_words(max_pairs=5), st.lists(_lengths, min_size=3, max_size=3))
def test_position_moment_reflects(word, lengths):
    k, labels, _ = word
    sig, mirrored = _signatures(k, labels, lengths)
    assert position_moment(mirrored) == swap(position_moment(sig))


@settings(deadline=None, max_examples=30)
@given(paired_words(max_pairs=5), st.lists(_lengths, min_size=3, max_size=3))
def test_mixed_moment_brownian_reflects(word, lengths):
    k, labels, _ = word
    sig, mirrored = _signatures(k, labels, lengths)
    assert mixed_moment_brownian(mirrored) == swap(mixed_moment_brownian(sig))


@settings(deadline=None, max_examples=40)
@given(
    paired_words(max_pairs=5),
    st.lists(_lengths, min_size=3, max_size=3),
    st.lists(st.fractions(min_value=0, max_value=2, max_denominator=2), min_size=3, max_size=3),
)
def test_fock_word_moment_reflects(word, lengths, gaps):
    # the engine on endpoints (lo, hi) against the engine on (-hi, -lo)
    k, labels, opens = word
    endpoints, lo = [], Fraction(0)
    for lam, gap in zip(lengths[:k], gaps):
        endpoints.append((lo, lo + lam))
        lo += lam + gap
    engine = FockEngine.brownian(endpoints)
    mirrored = FockEngine.brownian([(-hi, -lo) for lo, hi in endpoints])
    kinds = ["a*" if is_open else "a" for is_open in opens]
    moment = engine.word_vacuum_moment(list(zip(kinds, labels)))
    assert not moment.is_zero
    assert mirrored.word_vacuum_moment([(kind, k - 1 - a) for kind, a in zip(kinds, labels)]) == swap(moment)


@settings(deadline=None, max_examples=40)
@given(paired_words(max_pairs=5))
def test_discrete_word_moment_reflects(word):
    k, labels, _ = word
    moment = discrete_word_moment(labels)
    assert not moment.is_zero
    assert discrete_word_moment([k - 1 - a for a in labels]) == swap(moment)
