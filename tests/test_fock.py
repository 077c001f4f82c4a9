"""Operator model: engines, creation/annihilation, gauges, operator words."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

import oracles
from onckesten import fock, verify
from onckesten.algebra import MultiPoly, ONE, P, Q, T, ZERO
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
from onckesten.moments import mixed_moment_brownian, poisson_moment, sequences_by_recursion
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


@pytest.mark.parametrize("endpoints", [[(0, 1), (0, 1)], [(0, 2), (1, 3)]], ids=["identical", "overlapping"])
def test_overlap_message_says_what_is_accepted(endpoints):
    with pytest.raises(ValueError, match="overlap; interiors must be disjoint, with a shared interval registered once"):
        FockEngine.brownian(endpoints)


def test_ladder_listed_right_to_left_is_refused_as_unordered():
    # index order is the spatial order the kernel reads, so the engine does not sort
    with pytest.raises(ValueError, match="^intervals must be listed left to right$"):
        FockEngine([Interval(F(2), F(3)), Interval(F(0), F(1))])
    assert FockEngine.brownian([(2, 3), (0, 1)]).intervals == (Interval(F(0), F(1)), Interval(F(2), F(3)))


def test_symbolic_interval_must_start_at_zero():
    # the number operator's ramp qT + (p - q)x, and so gauge_n, assume [0, T]
    with pytest.raises(ValueError, match="the symbolic interval is \\[0, T\\]: its lower end must be 0, not 3"):
        FockEngine([Interval(F(3), None)])
    engine = FockEngine([Interval(F(0), None)])
    assert engine.word_vacuum_moment(parse_word("n")) == engine.word_vacuum_moment(parse_word("a*a")) == T


def test_symbolic_gauges_rejected_on_concrete_engines():
    engine = FockEngine.brownian([(0, 1)])
    with pytest.raises(ValueError):
        engine.gauge_m(FockVector.unit())
    with pytest.raises(ValueError):
        engine.gauge_n(FockVector.unit())


# -- cell polynomials: MultiPoly coefficient tuples -------------------------------------


def test_cell_function_is_canonical():
    assert CellFunction(0, (ONE, ZERO)) == CellFunction(0, (ONE,))
    assert hash(CellFunction(0, (ONE, ZERO))) == hash(CellFunction(0, (ONE,)))
    assert CellFunction(1, [1, F(1, 2), 0]).poly == (ONE, ONE / 2)
    assert CellFunction(0, (ZERO, ZERO)).poly == ()
    engine = FockEngine.poisson()
    v = engine.create(0, FockVector.unit())
    assert engine.gauge(0, (ONE, P, ZERO), T, v) == engine.gauge(0, [1, P], T, v)
    for build in (lambda: CellFunction(0, (ONE, "x")), lambda: engine.gauge(0, ("x",), T, v)):
        with pytest.raises(TypeError):
            build()


def test_cell_product_by_one_returns_the_other_factor():
    for x in ((Q, ONE, P), (T,), (ONE + ONE,), (ZERO, ONE)):
        assert fock._cell_mul(x, (ONE,)) is x
        assert fock._cell_mul((ONE,), x) is x


def test_cell_product_and_integral_evaluate_pointwise():
    rng = random.Random(71)

    def rand_cell_poly() -> tuple:
        coeffs = [MultiPoly.monomial(F(rng.randint(-3, 3), rng.randint(1, 3)), *(rng.randint(0, 1) for _ in range(3)))
                  for _ in range(rng.randint(1, 4))]
        return CellFunction(0, coeffs + [ONE]).poly

    for _ in range(30):
        a, b = rand_cell_poly(), rand_cell_poly()
        x = _c(F(rng.randint(-9, 9), rng.randint(1, 5)))
        ab = fock._cell_mul(a, b)
        assert len(ab) == len(a) + len(b) - 1
        assert fock._cell_at(ab, x) == fock._cell_at(a, x) * fock._cell_at(b, x)
        # the fold into the vacuum integrates: sum of a_k (hi^(k+1) - lo^(k+1)) / (k+1)
        lo = F(rng.randint(-3, 3), rng.randint(1, 2))
        hi = lo + F(rng.randint(1, 9), 2)
        integral = FockEngine.brownian([(lo, hi)]).annihilate(0, FockVector(ZERO, {(CellFunction(0, a),): ONE}))
        want = sum((c * ((hi ** (k + 1) - lo ** (k + 1)) / (k + 1)) for k, c in enumerate(a)), ZERO)
        assert integral == FockVector(want, {})


def test_cell_ramp_integral_golden():
    # p(x - 1) + q(2 - x) is q at 1 and p at 2, and integrates to (p + q)/2 over [1, 2]
    ramp = (Q * F(2) - P, P - Q)
    assert fock._cell_at(ramp, _c(1)) == Q and fock._cell_at(ramp, _c(2)) == P
    engine = FockEngine.brownian([(1, 2)])
    assert engine.annihilate(0, FockVector(ZERO, {(CellFunction(0, ramp),): ONE})) == FockVector((P + Q) / F(2), {})


def test_vector_drops_zero_terms():
    v = FockVector(ZERO, {(CellFunction(0, (ZERO,)),): ONE})
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
    sig = IntervalSignature((F(1, 3),), (0,) * 4)
    assert position_moment(sig) == (_c(2) + P + Q) / F(18)


def test_position_moment_limit_guard():
    for n in (0, POSITION_MOMENT_LIMIT + 1, POSITION_MOMENT_LIMIT + 2):
        with pytest.raises(ValueError):
            position_moment(IntervalSignature.single(n))
    # past the limit: f^8 g^8 on two disjoint unit intervals factors into r_4 r_4
    sig = IntervalSignature((F(1), F(1)), (0,) * 8 + (1,) * 8)
    r_4 = sequences_by_recursion(4).r[4]
    assert position_moment(sig, override_limits=True) == r_4 * r_4


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


@pytest.mark.parametrize(
    "engine, tags, error",
    [
        (FockEngine.poisson(), (("x", 0), ("a*", 0)), ValueError),  # unknown kind
        (FockEngine.poisson(), (("a*", 5), ("a*", 0)), IndexError),  # no interval 5
        (FockEngine.brownian([(0, 1)]), (("m", 0), ("a*", 0)), ValueError),  # gauge off [0, T]
    ],
    ids=["kind", "index", "gauge"],
)
def test_word_vacuum_moment_checks_every_tag_before_the_first_step(engine, tags, error):
    # each word dies at its first step, so only the upfront check can raise
    with pytest.raises(error):
        engine.word_vacuum_moment(tags)


def test_parse_word_round_trip_and_errors():
    assert parse_word("a* m a") == (("a*", 0), ("m", 0), ("a", 0))
    with pytest.raises(ValueError):
        parse_word("a*b")
    with pytest.raises(ValueError):
        FockEngine.poisson().word_vacuum_moment((("x", 0),))


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
        return CellFunction(i, coeffs)

    v = FockVector(rand_scalar(), {})
    for _ in range(rng.randint(1, 3)):
        w = FockVector.unit()
        for _ in range(rng.randint(1, 3)):
            w = engine.create(rand_cell(), w)
        v = v.add(w.scale(rand_scalar()))
    return v


def _rand_cell_function(engine: FockEngine, rng: random.Random) -> CellFunction:
    coeffs = [MultiPoly.monomial(F(rng.randint(-2, 2)), rng.randint(0, 1)) for _ in range(rng.randint(1, 2))]
    return CellFunction(rng.randrange(len(engine.intervals)), coeffs + [ONE])


def _operator_outputs(engine: FockEngine, rng: random.Random, v: FockVector):
    """(name, thunk) for every operator applied to v with random arguments."""
    f, g = _rand_cell_function(engine, rng), _rand_cell_function(engine, rng)
    i = rng.randrange(len(engine.intervals))
    h = (MultiPoly.monomial(F(rng.randint(1, 3)), 0, 1), P)
    other = _random_vector(engine, rng, symbolic=engine.symbolic)
    yield "create", lambda: engine.create(f, v)
    yield "annihilate", lambda: engine.annihilate(f, v)
    yield "annihilate-indicator", lambda: engine.annihilate(i, v)
    yield "gauge", lambda: engine.gauge(i, h, P, v)
    yield "gauge_pair", lambda: engine.gauge_pair(f, g, v)
    yield "omega", lambda: engine.omega(i, v)
    yield "add", lambda: v.add(other)
    yield "add-cancelling", lambda: v.add(v.scale(-ONE))
    yield "scale", lambda: v.scale(P - Q)
    yield "scale-zero", lambda: v.scale(ZERO)
    if engine.symbolic:
        yield "gauge_m", lambda: engine.gauge_m(v)
        yield "gauge_n", lambda: engine.gauge_n(v)


@pytest.mark.parametrize("symbolic", [False, True], ids=["two-intervals", "symbolic"])
def test_operator_outputs_keep_the_trusted_invariant(symbolic):
    # every output is what the checking constructor would build from it, and no input is touched
    engine = FockEngine.poisson() if symbolic else FockEngine.brownian([(0, 1), (2, F(7, 2))])
    rng = random.Random(53)
    for _ in range(15):
        v = _random_vector(engine, rng, symbolic)
        before = (v.vacuum, dict(v.terms))
        for name, op in _operator_outputs(engine, rng, v):
            out = op()
            assert out == FockVector(out.vacuum, out.terms), name
            assert isinstance(out.vacuum, MultiPoly), name
            for word, c in out.terms.items():
                assert isinstance(c, MultiPoly) and not c.is_zero, name
                for cell in word:
                    checked = CellFunction(cell.interval, cell.poly)
                    assert cell.poly and cell == checked and hash(cell) == hash(checked), name
                    assert all(isinstance(x, MultiPoly) for x in cell.poly), name
            assert (v.vacuum, v.terms) == before and out.terms is not v.terms, name


def test_moment_drivers_never_call_the_checking_constructor(monkeypatch):
    sig = IntervalSignature((F(1), F(2)), (0, 1, 1, 0))
    engine = FockEngine.poisson()
    tags = parse_word("a*na*maa")
    want = (position_moment(sig), poisson_moment_by_operators(5), engine.word_vacuum_moment(tags))

    def refuse(self, *args, **kwargs):
        raise AssertionError("an operator output went through the checking constructor")

    monkeypatch.setattr(FockVector, "__init__", refuse)
    monkeypatch.setattr(CellFunction, "__init__", refuse)
    assert (position_moment(sig), poisson_moment_by_operators(5), engine.word_vacuum_moment(tags)) == want


def test_zero_caller_polynomial_gives_the_zero_result():
    # without the entry checks, a zero f or h would leave words with a zero cell
    engine = FockEngine.brownian([(0, 1), (2, 3)])
    chi0, chi1 = engine.indicator(0), engine.indicator(1)
    # (chi0, chi0): the next cell is on the annihilated interval, so the fold makes a ramp
    v = FockVector(P, {(chi0, chi0): ONE, (chi0, chi1): Q, (chi1,): P + Q, (chi0,): T})
    zero = CellFunction(0, ())
    assert engine.create(zero, v) == FockVector()
    assert engine.annihilate(zero, v) == FockVector()
    assert engine.gauge(0, (), _c(3), v) == FockVector(P * 3, {})
    assert engine.gauge(1, (), ZERO, v) == FockVector()
    symbolic = FockEngine.poisson()
    w = symbolic.create(0, symbolic.create(CellFunction(0, (T, P)), FockVector.unit()))
    assert symbolic.create(CellFunction(0, ()), w).is_zero
    assert symbolic.annihilate(CellFunction(0, ()), w).is_zero
    assert symbolic.gauge(0, (), T, w) == FockVector()


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
            ramp = (Q * iv.hi - P * iv.lo, P - Q)
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
    h = (ONE, P)  # 1 + p x
    for i in (0, 1):
        f = CellFunction(i, (Q, ONE))
        fh = CellFunction(i, (Q, ONE + P * Q, P))  # (q + x)(1 + p x)
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
    x0 = CellFunction(0, (ZERO, ONE))
    # head on a cell to the right picks up p, to the left q
    assert engine.annihilate(0, FockVector(ZERO, {(chi0, chi1): ONE})) == FockVector(ZERO, {(chi1,): P})
    assert engine.annihilate(1, FockVector(ZERO, {(chi1, chi0): ONE})) == FockVector(ZERO, {(chi0,): Q})
    # same cell: p int_0^u x dx + q int_u^1 x dx = q/2 + (p - q)/2 u^2
    folded = engine.annihilate(0, FockVector(ZERO, {(x0, chi0): ONE}))
    ramp = CellFunction(0, (Q / F(2), ZERO, (P - Q) / F(2)))
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


def test_poisson_operator_route_at_the_limit_is_narayana_at_p_equal_q_equal_1():
    # p = q = 1 is the free Poisson law: T^k carries the Narayana number N(10, k)
    coeffs = poisson_moment_by_operators(10).t_coefficients()
    assert POISSON_OPERATOR_LIMIT == 10
    assert {k: c.evaluate(1, 1) for k, c in coeffs.items()} == {
        k: math.comb(10, k) * math.comb(10, k - 1) // 10 for k in range(1, 11)
    }


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


# -- horizon pruning is exact: the drivers against their unpruned oracles ----------------


def test_pruned_poisson_moment_matches_unpruned_oracle():
    engine = FockEngine.poisson()
    for n in range(1, 10):
        want = oracles.unpruned_poisson_moment(engine, FockVector.unit(), n)
        assert poisson_moment_by_operators(n) == want, n


def test_pruned_position_moment_matches_unpruned_oracle():
    rng = random.Random(1307)
    for n in range(1, 13):
        k = rng.randint(1, 3)
        lengths = tuple(F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(k))
        assignment = tuple(rng.randrange(k) for _ in range(n))
        sig = IntervalSignature(lengths, assignment)
        want = oracles.unpruned_position_moment(FockEngine.from_signature(sig), FockVector.unit(), assignment)
        assert position_moment(sig) == want, (lengths, assignment)


def _assert_word_family_matches_unpruned_oracle(engine, alphabet):
    # word by word, and as one suffix tree: the tree yields exactly the nonzero words, once each
    nonzero = {}
    for length in range(1, 7):
        for tags in itertools.product(alphabet, repeat=length):
            want = oracles.unpruned_word_moment(engine, FockVector.unit(), tags)
            assert engine.word_vacuum_moment(tags) == want, tags
            if not want.is_zero:
                nonzero[tags] = want
    family = list(fock._walk([engine._choices(alphabet)] * 6))
    assert len(family) == len(nonzero) and dict(family) == nonzero
    return len(nonzero)


def test_pruned_word_moment_matches_unpruned_oracle():
    alphabet = [(kind, 0) for kind in ("a", "a*", "m", "n")]
    assert _assert_word_family_matches_unpruned_oracle(FockEngine.poisson(), alphabet) == 196


def test_pruned_word_moment_matches_unpruned_oracle_on_two_intervals():
    engine = FockEngine.brownian([(0, 1), (2, F(7, 2))])
    alphabet = [(kind, i) for kind in ("a", "a*") for i in (0, 1)]
    assert _assert_word_family_matches_unpruned_oracle(engine, alphabet) == 50


# -- position moments at the free (1, 1) and boolean (0, 0) corners ------------------------


def _corner_signatures():
    # palindromes pair off nested, doubled letters pair off adjacent, and random draws mostly vanish
    rng = random.Random(3109)
    for shape in itertools.islice(itertools.cycle(("mirror", "doubled", "random")), 120):
        k = rng.randint(1, 3)
        lengths = tuple(F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(k))
        half = [rng.randrange(k) for _ in range(rng.randint(1, 5))]
        assignment = {"mirror": half + half[::-1], "doubled": [i for i in half for _ in range(2)],
                      "random": [rng.randrange(k) for _ in range(rng.randint(1, 10))]}[shape]
        yield IntervalSignature(lengths, tuple(assignment))
    lengths = (F(1), F(2), F(3, 2), F(1, 3))
    for assignment in ((0, 0, 1, 1, 2, 2, 2, 2, 1, 1, 0, 0), (0, 1, 2, 2, 1, 0, 0, 1, 3, 3, 1, 0),
                       (2, 0, 1, 0, 1, 2, 3, 3, 2, 2, 2, 2), (3, 3, 0, 0, 3, 3, 1, 1, 1, 1, 2, 2)):
        yield IntervalSignature(lengths, assignment)


def test_position_moments_at_the_free_and_boolean_corners():
    nonzero = {"free": 0, "boolean": 0}
    for sig in _corner_signatures():
        args = (sig.assignment, sig.lengths)
        operator, combinatorial = position_moment(sig), mixed_moment_brownian(sig)
        for corner, pq, want in (("free", (1, 1), oracles.free_position_moment(*args)),
                                 ("boolean", (0, 0), oracles.boolean_position_moment(*args))):
            assert operator.evaluate(*pq) == combinatorial.evaluate(*pq) == want, (corner, sig)
            nonzero[corner] += want != 0
    assert nonzero["free"] >= 90 and nonzero["boolean"] >= 80, nonzero  # 97 and 85 of 124


# -- verify's word check walks one suffix tree -----------------------------------------------


def test_word_vanishing_check_walks_the_tree_once(monkeypatch):
    calls = 0

    def counting(method):
        def wrapper(*args, **kwargs):
            nonlocal calls
            calls += 1
            return method(*args, **kwargs)

        return wrapper

    for name in ("create", "annihilate", "gauge_m", "gauge_n"):
        monkeypatch.setattr(FockEngine, name, counting(getattr(FockEngine, name)))
    assert verify._check_word_vanishing(6, None)[0]
    assert 0 < calls <= 1000  # 892 applications; word by word it took 10,906


def _patch_admissibility(monkeypatch, word, verdict):
    real = word_admits_partition
    special = parse_word(word)
    monkeypatch.setattr(fock, "word_admits_partition", lambda tags: verdict if tuple(tags) == special else real(tags))


def test_word_vanishing_check_fails_on_a_nonzero_word_without_a_partition(monkeypatch):
    _patch_admissibility(monkeypatch, "a*a", False)
    assert verify._check_word_vanishing(6, None) == (False, "word a*a admits no partition yet evaluates to T")


def test_word_vanishing_check_fails_on_a_zero_word_with_a_partition(monkeypatch):
    _patch_admissibility(monkeypatch, "aa*", True)
    assert verify._check_word_vanishing(6, None) == (False, "word aa* admits a partition but evaluates to 0")
