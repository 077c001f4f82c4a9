"""Acceptance suite: the eleven headline guarantees, one test and one line each.

Each test is self-contained (it rebuilds whatever it compares) and closes by
printing a single ``criterion NN: PASS`` line; on any assertion failure the
matching FAIL line is printed before the error propagates.
"""

from __future__ import annotations

import itertools
import math
import random
from contextlib import contextmanager
from fractions import Fraction

from onckesten.algebra import MultiPoly, ONE, P, Q, T, ZERO
from onckesten.discrete import clt_leading_term, clt_moment
from onckesten.fock import (
    FockEngine,
    parse_word,
    poisson_moment_by_operators,
    position_moment,
    word_admits_partition,
)
from onckesten.kesten import KestenMeasure
from onckesten.moments import (
    catalan,
    factorization_checks,
    gen_euler,
    gen_euler_histogram,
    mixed_moment_brownian,
    moment_report,
    poisson_moment,
    r_by_closed_form,
    r_by_jacobi,
    sequences_by_recursion,
    series_identity_checks,
    word_moment_by_enumeration,
)
from onckesten.partitions import IntervalSignature
from onckesten.verify import paper_errata

F = Fraction


@contextmanager
def criterion(num: int, verdict: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d}: FAIL - {verdict}")
        raise
    print(f"criterion {num:02d}: PASS - {verdict}")


def _c(x) -> MultiPoly:
    return MultiPoly.constant(F(x))


def test_criterion_01_five_routes_agree():
    with criterion(1, "all five moment routes agree exactly for n = 1..6"):
        for n in range(1, 7):
            report = moment_report(n, route="all")
            assert len(report.routes) == 5
            assert report.agreement, (n, {k: str(v) for k, v in report.routes.items()})


def test_criterion_02_specializations():
    with criterion(
        2, "free/arcsine/order-free specializations hold for n = 1..8 on three routes"
    ):
        table = sequences_by_recursion(8)
        closed = r_by_closed_form(8)
        jacobi = r_by_jacobi(8)
        for n in range(1, 9):
            rn = table.r[n]
            assert closed[n] == rn and jacobi[n] == rn
            assert rn.evaluate(F(1), F(1)) == catalan(n)
            arcsine = F(math.comb(2 * n, n), 2**n)
            assert rn.evaluate(F(0), F(1)) == arcsine
            assert rn.evaluate(F(1), F(0)) == arcsine
            assert rn.evaluate(F(0), F(0)) == 1


def test_criterion_03_single_interval_word_table():
    with criterion(3, "the five length-six words match on both engines and sum to r_3"):
        expected = {
            "a*aa*aa*a": ONE,
            "a*a*aaa*a": (P + Q) / F(2),
            "a*aa*a*aa": (P + Q) / F(2),
            "a*a*aa*aa": (P * P + P * Q + Q * Q) / F(3),
            "a*a*a*aaa": (P * P + P * Q * F(4) + Q * Q) / F(6),
        }
        sig = IntervalSignature.single(6)
        engine = FockEngine.brownian([(0, 1)])
        total = ZERO
        for text, want in expected.items():
            stars = tuple(tag[0] == "a*" for tag in parse_word(text))
            by_enumeration = word_moment_by_enumeration(stars, sig)
            by_operators = engine.word_vacuum_moment(parse_word(text))
            assert by_enumeration == want, text
            assert by_operators == want, text
            total = total + want
        assert total == sequences_by_recursion(3).r[3]


def test_criterion_04_mixed_moments_operator_vs_combinatorial():
    with criterion(
        4, "operator and combinatorial mixed moments agree on 25 random signatures"
    ):
        worked = IntervalSignature.from_named_intervals(
            ("f", "f", "g", "g", "f", "f"), {"g": (0, 1), "f": (1, 2)}
        )
        value = mixed_moment_brownian(worked)
        assert value == (P * P + P * Q + _c(2)) / F(2)
        assert position_moment(worked) == value
        entry = {e.name: e for e in paper_errata()}["two-interval-sixth-moment"]
        assert entry.published == "(pq + p + 2)/2"
        assert entry.computed == str(value)

        rng = random.Random(2026)
        checked = 0
        while checked < 25:
            k = rng.randint(1, 3)
            n = rng.randint(k, 8)
            lengths = tuple(F(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(k))
            assignment = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
            rng.shuffle(assignment)
            sig = IntervalSignature(lengths=lengths, assignment=tuple(assignment))
            assert position_moment(sig) == mixed_moment_brownian(sig), sig
            checked += 1


def test_criterion_05_pyramid_factorizations():
    with criterion(5, "monotone pyramid moments factor into pure powers for m <= 5"):
        rows = factorization_checks(5)
        assert rows, "no factorization rows produced"
        for row in rows:
            assert row["ok"], row
        by_kind = {(row["kind"], row["size"]): row["moment"] for row in rows}
        for m in range(1, 6):
            assert by_kind[("increasing", m)] == Q ** (m - 1)
            assert by_kind[("decreasing", m)] == P ** (m - 1)


def test_criterion_06_generalized_euler_numbers():
    with criterion(
        6, "weighted coloring counts match the ballot-number formula for n <= 6"
    ):
        for n in range(1, 7):
            hist = gen_euler_histogram(n)
            assert sum(hist.values()) == math.factorial(n) * catalan(n)
            for k in range(n):
                for j in range(n):
                    formula = gen_euler(n, k, j)
                    assert formula == hist.get((k, j), 0), (n, k, j)


def test_criterion_07_compound_moments():
    with criterion(
        7, "compound moments agree on both routes for n <= 7 with verbatim low orders"
    ):
        for n in range(1, 8):
            assert poisson_moment_by_operators(n) == poisson_moment(n), n
        assert poisson_moment(1) == T
        assert poisson_moment(2) == T + T ** 2
        assert poisson_moment(3) == T + (P + Q + _c(4)) / F(2) * T ** 2 + T ** 3
        cubic = poisson_moment(4).t_coefficients()[3]
        assert cubic == (P * P + P * Q + Q * Q + P * F(3) + Q * F(3) + _c(9)) / F(3)
        entry = {e.name: e for e in paper_errata()}["compound-fourth-moment-cubic-coefficient"]
        assert entry.published == "(p^2 + pq + q^2 + 3p + 3q)/3"
        assert entry.computed == str(cubic)


def test_criterion_08_clt_convergence():
    with criterion(
        8, "normalized sums reproduce the moments with O(1/N) error, exactly"
    ):
        table = sequences_by_recursion(3)
        for k in (1, 2, 3):
            assert clt_leading_term(2 * k) == table.r[k]
        r3 = table.r[3]
        sixth = {N: clt_moment(N, 6) for N in (100, 1000, 10000)}
        for p, q in ((F(0), F(1)), (F(1), F(1)), (F(1, 2), F(1, 3))):
            limit = r3.evaluate(p, q)
            for N, momN in sixth.items():
                gap = abs(momN.evaluate(p, q) - limit)
                assert gap <= F(10, N), (p, q, N, gap)


def test_criterion_09_quadrature_and_analytics():
    with criterion(
        9, "quadrature, masses, atoms and Stieltjes inversion meet their tolerances"
    ):
        table = sequences_by_recursion(5)
        points = (
            (F(1), F(1)),
            (F(0), F(1)),
            (F(1), F(0)),
            (F(1, 2), F(1, 2)),
            (F(3, 10), F(1, 5)),  # atomic: p + q < 1
            (F(3, 2), F(2, 5)),
        )
        saw_atoms = False
        for p, q in points:
            mu = KestenMeasure(float(p), float(q))
            for k in range(1, 6):
                exact = float(table.r[k].evaluate(p, q))
                assert abs(mu.quadrature_moment(2 * k) - exact) <= 1e-8, (p, q, k)
                assert abs(mu.quadrature_moment(2 * k - 1)) <= 1e-8, (p, q, k)
            assert abs(mu.total_mass() - 1.0) <= 1e-10, (p, q)
            saw_atoms = saw_atoms or bool(mu.atoms())
            for frac in (0.0, 0.31, 0.62):
                x = frac * mu.edge
                assert abs(mu.stieltjes_density(x) - mu.density(x)) <= 1e-4, (p, q, x)
        assert saw_atoms, "no atomic measure among the sample points"
        boolean = KestenMeasure(0, 0)
        atoms = dict(boolean.atoms())
        assert abs(atoms[1.0] - 0.5) <= 1e-10 and abs(atoms[-1.0] - 0.5) <= 1e-10


def test_criterion_10_series_identities():
    with criterion(10, "generating-series identities hold exactly through order 6"):
        checks = series_identity_checks(6)
        assert checks, "no series identities produced"
        for check in checks:
            assert check.passed, check.name


def test_criterion_11_vanishing_moments():
    with criterion(
        11, "non-adapted pairings and non-partition words vanish identically"
    ):
        alternating = IntervalSignature(lengths=(F(1), F(1)), assignment=(0, 1, 0, 1))
        assert mixed_moment_brownian(alternating) == ZERO
        assert position_moment(alternating) == ZERO
        crossing_rich = IntervalSignature(
            lengths=(F(1), F(2)), assignment=(0, 1, 0, 1, 0, 1)
        )
        assert mixed_moment_brownian(crossing_rich) == ZERO
        assert position_moment(crossing_rich) == ZERO

        engine = FockEngine.poisson()
        letters = ("a", "a*", "m", "n")
        words = realizable = 0
        for length in range(1, 7):
            for combo in itertools.product(letters, repeat=length):
                tags = tuple((kind, 0) for kind in combo)
                value = engine.word_vacuum_moment(tags)
                admits = word_admits_partition(tags)
                if admits:
                    assert not value.is_zero, combo
                    realizable += 1
                else:
                    assert value == ZERO, combo
                words += 1
        assert words == 4 + 16 + 64 + 256 + 1024 + 4096
        assert realizable == 196
