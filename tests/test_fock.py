"""Operator model: engines, creation/annihilation, gauges, operator words."""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import oracles
from onckesten.algebra import MultiPoly, ONE, P, Q, T, UniPoly, ZERO
from onckesten.fock import (
    POISSON_OPERATOR_LIMIT,
    POSITION_MOMENT_LIMIT,
    CellFunction,
    FockEngine,
    FockVector,
    Interval,
    parse_word,
    poisson_moment_by_operators,
    position_moment,
    word_admits_partition,
    word_for_partition,
)
from onckesten.moments import poisson_moment, sequences_by_recursion
from onckesten.partitions import IntervalSignature, SetPartition

F = Fraction


def _c(x) -> MultiPoly:
    return MultiPoly.constant(F(x))


# -- engine construction ---------------------------------------------------------------


def test_engine_validation():
    with pytest.raises(ValueError):
        FockEngine.brownian([(0, 2), (1, 3)])  # overlap
    with pytest.raises(ValueError):
        FockEngine([Interval(F(0), None), Interval(F(0), F(1))])  # symbolic + concrete
    engine = FockEngine.brownian([(1, 2), (0, 1)])
    assert [iv.lo for iv in engine.intervals] == [F(0), F(1)]  # sorted on entry
    with pytest.raises(IndexError):
        engine.indicator(2)


def test_symbolic_gauges_rejected_on_concrete_engines():
    engine = FockEngine.brownian([(0, 1)])
    with pytest.raises(ValueError):
        engine.gauge_m(FockVector.unit())
    with pytest.raises(ValueError):
        engine.gauge_n(FockVector.unit())


def test_vector_drops_zero_terms():
    v = FockVector(ZERO, {(CellFunction(0, UniPoly.constant(ZERO)),): ONE})
    assert v.is_zero
    assert FockVector(ONE, {}).add(FockVector(-ONE, {})).is_zero


# -- vacuum amplitudes of position words -----------------------------------------------


def test_position_moments_single_interval():
    table = sequences_by_recursion(3)
    assert position_moment(IntervalSignature.single(2)) == ONE
    assert position_moment(IntervalSignature.single(4)) == table.r[2]
    assert position_moment(IntervalSignature.single(6)) == table.r[3]
    assert position_moment(IntervalSignature.single(3)) == ZERO
    assert position_moment(IntervalSignature.single(5)) == ZERO


def test_position_moment_volume_scaling():
    sig = IntervalSignature.single(4, length=F(1, 3))
    assert position_moment(sig) == (_c(2) + P + Q) / F(18)


def test_position_moment_limit_guard():
    for n in (0, POSITION_MOMENT_LIMIT + 1, POSITION_MOMENT_LIMIT + 2):
        with pytest.raises(ValueError):
            position_moment(IntervalSignature.single(n))
    got = position_moment(IntervalSignature.single(12), override_limits=True)
    assert got == sequences_by_recursion(6).r[6]


def test_position_moment_disjoint_intervals_factor_by_nesting():
    # g inside the time span of f on both sides: f f g g f f
    sig = IntervalSignature.from_named_intervals(
        ("f", "f", "g", "g", "f", "f"), {"g": (0, 1), "f": (1, 2)}
    )
    assert position_moment(sig) == (P * P + P * Q + _c(2)) / F(2)


# -- operator words on the symbolic interval -------------------------------------------


def test_word_vacuum_moments_verbatim():
    engine = FockEngine.poisson()
    word = lambda s: engine.word_vacuum_moment(parse_word(s))
    assert word("n") == T
    assert word("m") == ZERO
    assert word("a*a") == T
    assert word("a*na") == (P + Q) / F(2) * T ** 2
    assert word("a*ma") == ZERO + T  # m acts as identity between the pair
    assert word("mmm") == ZERO
    assert word("a*aa") == ZERO
    assert word("aa*") == ZERO
    assert word("nn") == T ** 2


def test_table_words_by_operators():
    engine = FockEngine.brownian([(0, 1)])
    word = lambda s: engine.word_vacuum_moment(parse_word(s))
    assert word("a*aa*aa*a") == ONE
    assert word("a*a*aaa*a") == (P + Q) / F(2)
    assert word("a*aa*a*aa") == (P + Q) / F(2)
    assert word("a*a*aa*aa") == (P * P + P * Q + Q * Q) / F(3)
    assert word("a*a*a*aaa") == (P * P + P * Q * F(4) + Q * Q) / F(6)


def test_parse_word_round_trip_and_errors():
    assert parse_word("a* m a") == (("a*", 0), ("m", 0), ("a", 0))
    assert parse_word("a*naa*", interval=1) == (("a*", 1), ("n", 1), ("a", 1), ("a*", 1))
    with pytest.raises(ValueError):
        parse_word("a*b")
    engine = FockEngine.poisson()
    with pytest.raises(ValueError):
        engine.apply_tag(("x", 0), FockVector.unit())


# -- operator identities on random vectors ---------------------------------------------


def _random_vector(engine: FockEngine, rng: random.Random, symbolic: bool) -> FockVector:
    def rand_scalar() -> MultiPoly:
        coeff = F(rng.randint(-3, 3))
        return MultiPoly.monomial(coeff, rng.randint(0, 1), rng.randint(0, 1))

    def rand_cell() -> CellFunction:
        i = 0 if symbolic else rng.randrange(len(engine.intervals))
        coeffs = [rand_scalar() for _ in range(rng.randint(1, 3))]
        if all(c.is_zero for c in coeffs):
            coeffs.append(ONE)
        return CellFunction(i, UniPoly(coeffs))

    v = FockVector(rand_scalar(), {})
    for _ in range(rng.randint(1, 3)):
        w = FockVector.unit()
        for _ in range(rng.randint(1, 3)):
            w = engine.create(rand_cell(), w)
        v = v.add(w.scale(rand_scalar()))
    return v


def test_gauge_pair_of_indicator_is_piecewise_gauge():
    # reference sharing no code with the fold: the ramp (p-q)x + q*hi - p*lo
    # on cell i through `gauge`, p*lambda_i (q*lambda_i) on words that start
    # right (left) of cell i, lambda_i on the vacuum
    engine = FockEngine.brownian([(0, 1), (2, F(7, 2))])
    rng = random.Random(11)
    for _ in range(20):
        v = _random_vector(engine, rng, symbolic=False)
        for i, iv in enumerate(engine.intervals):
            lam = MultiPoly.constant(iv.hi - iv.lo)
            ramp = UniPoly([Q * iv.hi - P * iv.lo, P - Q])
            outside = {
                w: c * (P if w[0].interval > i else Q) * lam
                for w, c in v.terms.items()
                if w[0].interval != i
            }
            want = engine.gauge(i, ramp, lam, v).add(FockVector(ZERO, outside))
            assert engine.gauge_pair(i, i, v) == want


def test_truncated_number_operator_is_pair_gauge_of_indicator():
    engine = FockEngine.poisson()
    rng = random.Random(23)
    chi = engine.indicator(0)
    for _ in range(20):
        v = _random_vector(engine, rng, symbolic=True)
        assert engine.gauge_n(v) == engine.annihilate(chi, engine.create(chi, v))


def test_gauge_composes_into_annihilation_and_creation():
    engine = FockEngine.brownian([(0, 1), (1, 3)])
    rng = random.Random(37)
    h = UniPoly([ONE, P])  # 1 + p x
    for i in (0, 1):
        f = CellFunction(i, UniPoly([Q, ONE]))
        fh = CellFunction(i, f.poly * h)
        for _ in range(10):
            v = _random_vector(engine, rng, symbolic=False)
            gauged = engine.gauge(i, h, ZERO, v)
            assert engine.annihilate(f, gauged) == engine.annihilate(fh, v)
            assert engine.gauge(i, h, ZERO, engine.create(f, v)) == engine.create(fh, v)


def test_gauge_pair_vacuum_and_disjoint_behaviour():
    engine = FockEngine.brownian([(0, 1), (1, 2)])
    unit = FockVector.unit()
    assert engine.gauge_pair(0, 0, unit) == unit  # <chi, chi> = length = 1
    assert engine.gauge_pair(0, 1, unit).is_zero  # disjoint supports
    # acting on a word strictly to the right of the pair interval: factor p
    w = engine.create(1, unit)
    assert engine.gauge_pair(0, 0, w) == w.scale(P)


# -- the kernel fold, against hand-computed values ------------------------------------------


def test_annihilator_fold_goldens():
    engine = FockEngine.brownian([(0, 1), (2, 3)])
    chi0, chi1 = engine.indicator(0), engine.indicator(1)
    x0 = CellFunction(0, UniPoly([ZERO, ONE]))
    # head on a cell to the right picks up p, to the left q
    assert engine.annihilate(0, FockVector(ZERO, {(chi0, chi1): ONE})) == FockVector(ZERO, {(chi1,): P})
    assert engine.annihilate(1, FockVector(ZERO, {(chi1, chi0): ONE})) == FockVector(ZERO, {(chi0,): Q})
    # same cell: p int_0^u x dx + q int_u^1 x dx = q/2 + (p - q)/2 u^2
    folded = engine.annihilate(0, FockVector(ZERO, {(x0, chi0): ONE}))
    ramp = CellFunction(0, UniPoly([Q / F(2), ZERO, (P - Q) / F(2)]))
    assert folded == FockVector(ZERO, {(ramp,): ONE})
    # the last factor folds into the vacuum: int_0^1 ramp = (p + 2q)/6
    assert engine.annihilate(0, folded) == FockVector((P + Q * F(2)) / F(6), {})


def _operator_engine_lines():
    rng = random.Random(2007)
    for _ in range(40):
        k = rng.randint(1, 3)
        lengths = tuple(F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(k))
        assignment = tuple(rng.randrange(k) for _ in range(rng.randint(1, 8)))
        yield str(position_moment(IntervalSignature(lengths, assignment)))
    for n in range(1, 8):
        yield str(poisson_moment_by_operators(n))
    engine = FockEngine.poisson()
    for length in range(1, 6):
        for kinds in itertools.product(("a", "a*", "m", "n"), repeat=length):
            yield str(engine.word_vacuum_moment(tuple((kind, 0) for kind in kinds)))


def test_operator_engine_golden_digest():
    # sha256 over seeded position moments (<= 8 positions), compound moments
    # n <= 7 and all 1,364 {a, a*, m, n} words up to length 5
    digest = hashlib.sha256("\n".join(_operator_engine_lines()).encode()).hexdigest()
    assert digest == "aae0eae767626f467a96acad8fc847c0dc84eec5968bc1d75b7a53b75e5053b5"


# -- compound moments by operators -------------------------------------------------------


def test_poisson_operator_route_low_orders():
    assert poisson_moment_by_operators(1) == T
    assert poisson_moment_by_operators(2) == T + T ** 2
    assert poisson_moment_by_operators(3) == T + (P + Q + _c(4)) / F(2) * T ** 2 + T ** 3
    for n in range(1, 7):
        assert poisson_moment_by_operators(n) == poisson_moment(n)


def test_poisson_operator_route_guards():
    for n in (0, POISSON_OPERATOR_LIMIT + 1):
        with pytest.raises(ValueError):
            poisson_moment_by_operators(n)


# -- partitions and operator words -------------------------------------------------------


def test_word_for_partition_leg_rules():
    sp = SetPartition.from_blocks(4, ((1, 4), (2, 3)))
    assert word_for_partition(sp) == (("a*", 0), ("a*", 0), ("a", 0), ("a", 0))
    sp = SetPartition.from_blocks(3, ((1, 3), (2,)))
    assert word_for_partition(sp) == (("a*", 0), ("n", 0), ("a", 0))
    sp = SetPartition.from_blocks(3, ((1, 2, 3),))
    assert word_for_partition(sp) == (("a*", 0), ("m", 0), ("a", 0))


def test_word_admits_partition_scan():
    ok = lambda s: word_admits_partition(parse_word(s))
    assert ok("a*a") and ok("n") and ok("a*ma") and ok("a*a*aa") and ok("a*naan") is False
    assert not ok("aa*")
    assert not ok("a*aa")
    assert not ok("a*a*a")
    assert not ok("ma*a")
    assert ok("a*mman")


def test_partition_word_moment_matches_weight_sum():
    # vacuum amplitude = (T^b / b!) * sum over colorings of the weight
    engine = FockEngine.poisson()
    for blocks in oracles.nc_partitions(4):
        sp = SetPartition.from_blocks(4, tuple(tuple(b) for b in blocks))
        got = engine.word_vacuum_moment(word_for_partition(sp))
        total = ZERO
        for (e, ep), count in oracles.weight_histogram(blocks).items():
            total = total + MultiPoly.monomial(F(count), e, ep)
        b = len(blocks)
        fact = 1
        for k in range(2, b + 1):
            fact *= k
        assert got == total / F(fact) * T ** b, blocks
