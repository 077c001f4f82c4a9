"""Moment routes, sequences, Euler numbers, mixed and compound moments."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest

import oracles
from onckesten import moments
from onckesten.algebra import MultiPoly, ONE, P, Q, T, ZERO
from onckesten.fock import poisson_moment_by_operators
from onckesten.moments import (
    MomentMismatchError,
    _coloring_histogram,
    _div_by_x_minus_2,
    _grouped_histogram,
    catalan,
    covered_weight_sum,
    delaney,
    factorization_checks,
    gen_euler,
    gen_euler_histogram,
    mixed_moment_brownian,
    moment_report,
    pairing_from_stars,
    poisson_moment,
    r_by_closed_form,
    r_by_delaney,
    r_by_enumeration,
    r_by_jacobi,
    sequences_by_recursion,
    series_identity_checks,
    word_moment_by_enumeration,
)
from onckesten.partitions import (
    GENERAL_ENUM_LIMIT,
    PAIR_ENUM_LIMIT,
    IntervalSignature,
    enumerate_nc,
    nesting_forest,
)

F = Fraction


def _c(x) -> MultiPoly:
    return MultiPoly.constant(F(x))


def _half(poly):
    return poly / F(2)


# -- the five routes ------------------------------------------------------------------


def test_low_order_moments_frozen():
    table = sequences_by_recursion(3)
    assert table.r[1] == ONE
    assert table.r[2] == _half(_c(2) + P + Q)
    assert str(table.r[3]) == "1 + p + q + 1/2p^2 + pq + 1/2q^2"


def test_routes_agree_exactly():
    for n in range(1, 6):
        report = moment_report(n, route="all")
        assert report.agreement, report.routes
        assert len(report.routes) == 5


def test_single_route_selection():
    rep = moment_report(4, route="jacobi")
    assert list(rep.routes) == ["jacobi"] and rep.agreement


def test_enumeration_matches_oracle_weight_histograms():
    # independent recomputation of r_n and of the covered sum n! s_n from the
    # definitional oracle; a covered base pairs 1 with 2n
    for n in range(1, 5):
        acc: dict = {}
        covered: dict = {}
        for blocks in oracles.nc_pair_partitions(2 * n):
            for (e, ep), count in oracles.weight_histogram(blocks).items():
                acc[(e, ep, 0)] = acc.get((e, ep, 0), F(0)) + F(count, math.factorial(n))
                if (1, 2 * n) in blocks:
                    covered[(e, ep, 0)] = covered.get((e, ep, 0), 0) + count
        assert r_by_enumeration(n) == MultiPoly(acc)
        assert covered_weight_sum(n) == MultiPoly(covered)


def _shape(edges, k) -> tuple:
    """Unlabeled shape of a forest on blocks 0..k-1, for grouping bases."""
    kids = [[] for _ in range(k)]
    for parent, child in edges:
        kids[parent].append(child)

    def tree(v):
        return tuple(sorted(tree(c) for c in kids[v]))

    roots = set(range(k)) - {child for _, child in edges}
    return tuple(sorted(tree(v) for v in roots))


def test_coloring_histogram_matches_permutations_on_every_small_forest():
    # every forest on at most 7 blocks is the nesting forest of some pairing
    # of [2k]; the brute count runs once per shape, every base is compared
    bases = [sp for n in range(1, 8) for sp in enumerate_nc(2 * n, pair_only=True)]
    bases += [sp for n in range(1, 8) for sp in enumerate_nc(n)]
    brute: dict = {}
    for sp in bases:
        edges, k = nesting_forest(sp).edges, sp.block_count
        shape = _shape(edges, k)
        if shape not in brute:
            brute[shape] = oracles.coloring_histogram(edges, k)
        assert _coloring_histogram(edges, k) == brute[shape], sp
    assert len(brute) == sum((1, 2, 4, 9, 20, 48, 115))  # rooted forests on 1..7 nodes
    assert _coloring_histogram((), 0) == {0: 1}


def test_grouped_histogram_matches_concatenated_permutations():
    rng = random.Random(11)
    seen = set()
    for n in range(1, 7):
        for sp in enumerate_nc(2 * n, pair_only=True):
            edges = nesting_forest(sp).edges
            for _ in range(3):
                groups = [[] for _ in range(3)]
                for b in range(n):
                    groups[rng.randrange(3)].append(b)
                for g in groups:
                    rng.shuffle(g)
                rank = {b: r for r, g in enumerate(groups) for b in g}
                seen |= {len(g) for g in groups if len(g) < 2}
                for parent, child in edges:
                    if rank[child] != rank[parent]:
                        seen.add("child first" if rank[child] < rank[parent] else "parent first")
                assert _grouped_histogram(edges, groups) == oracles.grouped_histogram(edges, groups), (sp, groups)
    assert seen == {0, 1, "child first", "parent first"}
    assert _grouped_histogram((), []) == {0: 1}


GOLDEN_R7 = (
    "1 + 3p + 3q + 5p^2 + 10pq + 5q^2 + 6p^3 + 18p^2q + 18pq^2 + 6q^3 + 45/8p^4 + 45/2p^3q + "
    "135/4p^2q^2 + 45/2pq^3 + 45/8q^4 + 33/8p^5 + 165/8p^4q + 165/4p^3q^2 + 165/4p^2q^3 + "
    "165/8pq^4 + 33/8q^5 + 33/16p^6 + 99/8p^5q + 495/16p^4q^2 + 165/4p^3q^3 + 495/16p^2q^4 + "
    "99/8pq^5 + 33/16q^6"
)
GOLDEN_COVERED6 = "945p^5 + 4725p^4q + 9450p^3q^2 + 9450p^2q^3 + 4725pq^4 + 945q^5"
GOLDEN_EULER6 = [
    ((0, 0), 720), ((0, 1), 1800), ((0, 2), 2520), ((0, 3), 2520), ((0, 4), 1890), ((0, 5), 945),
    ((1, 0), 1800), ((1, 1), 5040), ((1, 2), 7560), ((1, 3), 7560), ((1, 4), 4725),
    ((2, 0), 2520), ((2, 1), 7560), ((2, 2), 11340), ((2, 3), 9450),
    ((3, 0), 2520), ((3, 1), 7560), ((3, 2), 9450),
    ((4, 0), 1890), ((4, 1), 4725),
    ((5, 0), 945),
]
GOLDEN_POISSON8 = (
    "T + 7T^2 + 21/2pT^2 + 21/2qT^2 + 21T^3 + 35pT^3 + 35qT^3 + 35T^4 + 175/6p^2T^3 + "
    "140/3pqT^3 + 105/2pT^4 + 175/6q^2T^3 + 105/2qT^4 + 35T^5 + 595/12p^2T^4 + 455/6pqT^4 + "
    "42pT^5 + 595/12q^2T^4 + 42qT^5 + 21T^6 + 245/8p^3T^4 + 455/8p^2qT^4 + 147/4p^2T^5 + "
    "455/8pq^2T^4 + 105/2pqT^5 + 35/2pT^6 + 245/8q^3T^4 + 147/4q^2T^5 + 35/2qT^6 + 7T^7 + "
    "105/4p^3T^5 + 175/4p^2qT^5 + 77/6p^2T^6 + 175/4pq^2T^5 + 49/3pqT^6 + 3pT^7 + "
    "105/4q^3T^5 + 77/6q^2T^6 + 3qT^7 + T^8 + 203/15p^4T^5 + 1477/60p^3qT^5 + 35/4p^3T^6 + "
    "287/10p^2q^2T^5 + 49/4p^2qT^6 + 5/3p^2T^7 + 1477/60pq^3T^5 + 49/4pq^2T^6 + 5/3pqT^7 + "
    "203/15q^4T^5 + 35/4q^3T^6 + 5/3q^2T^7 + 959/180p^4T^6 + 707/90p^3qT^6 + p^3T^7 + "
    "259/30p^2q^2T^6 + p^2qT^7 + 707/90pq^3T^6 + pq^2T^7 + 959/180q^4T^6 + q^3T^7 + "
    "49/20p^5T^6 + 56/15p^4qT^6 + 3/5p^4T^7 + 259/60p^3q^2T^6 + 3/5p^3qT^7 + "
    "259/60p^2q^3T^6 + 3/5p^2q^2T^7 + 56/15pq^4T^6 + 3/5pq^3T^7 + 49/20q^5T^6 + 3/5q^4T^7 + "
    "1/3p^5T^7 + 1/3p^4qT^7 + 1/3p^3q^2T^7 + 1/3p^2q^3T^7 + 1/3pq^4T^7 + 1/3q^5T^7 + "
    "1/7p^6T^7 + 1/7p^5qT^7 + 1/7p^4q^2T^7 + 1/7p^3q^3T^7 + 1/7p^2q^4T^7 + 1/7pq^5T^7 + "
    "1/7q^6T^7"
)


@pytest.mark.parametrize(
    "compute, golden",
    [
        (lambda: str(r_by_enumeration(7)), GOLDEN_R7),
        (lambda: str(covered_weight_sum(6)), GOLDEN_COVERED6),
        (lambda: sorted(gen_euler_histogram(6).items()), GOLDEN_EULER6),
        (lambda: str(poisson_moment(8)), GOLDEN_POISSON8),
    ],
    ids=["r_by_enumeration-7", "covered_weight_sum-6", "gen_euler_histogram-6", "poisson_moment-8"],
)
def test_enumeration_goldens_at_the_default_limits(compute, golden):
    assert compute() == golden


def test_enumeration_limit_guard():
    for compute in (r_by_enumeration, covered_weight_sum, gen_euler_histogram):
        for n in (0, PAIR_ENUM_LIMIT // 2 + 1):
            with pytest.raises(ValueError):
                compute(n)
    # the pair sums count their own n, the pairs of [2n]
    with pytest.raises(ValueError, match=r"pair enumeration of \[2n\]: n = 8 exceeds the limit 7;"):
        r_by_enumeration(8)
    for n in (0, GENERAL_ENUM_LIMIT + 1):
        with pytest.raises(ValueError):
            poisson_moment(n)
    for n in (0, PAIR_ENUM_LIMIT + 2):
        with pytest.raises(ValueError):
            mixed_moment_brownian(IntervalSignature.single(n))
    # odd length is zero before any size check
    assert mixed_moment_brownian(IntervalSignature.single(PAIR_ENUM_LIMIT + 1)) == ZERO


def test_sequences_frozen_values():
    table = sequences_by_recursion(4, r_max=3)
    assert table.s[1] == ONE
    assert table.s[2] == _half(P + Q)
    assert table.s[3] == _half((P + Q) ** 2)
    assert table.a[1] == P
    assert table.s_rows[2][2] == ONE  # S^2 starts at z^2
    assert table.s_rows[2][3] == P + Q


# sha256 of every r, s, a and s_rows entry of sequences_by_recursion(16, r_max=4),
# one canonical string per line; rows 2-4 are pinned nowhere else past n = 3
GOLDEN_RECURSION_16_4 = "82b58d4eccc6fcfbaac72ecf8fae12cc36d3a04b1ab7473241f2ff7704a70d91"


def test_recursion_table_golden_digest():
    table = sequences_by_recursion(16, r_max=4)
    text = "\n".join(str(x) for seq in (table.r, table.s, table.a) + table.s_rows for x in seq)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_RECURSION_16_4


def test_covered_weight_sum_is_n_factorial_s_n():
    table = sequences_by_recursion(5)
    for n in range(1, 6):
        assert covered_weight_sum(n) == table.s[n] * F(math.factorial(n))


def test_closed_form_and_jacobi_prefixes():
    closed = r_by_closed_form(6)
    jacobi = r_by_jacobi(6)
    table = sequences_by_recursion(6)
    assert closed[0] == ONE and jacobi[0] == ONE
    for n in range(1, 7):
        assert closed[n] == table.r[n]
        assert jacobi[n] == table.r[n]
    # the golden digest stops at 24; the sqrt(1-2z) coefficients and the
    # pruned walks run on to 40
    assert r_by_closed_form(40) == r_by_jacobi(40) == [r_by_delaney(n) for n in range(41)]


# sha256 of r_by_closed_form(24), r_by_jacobi(24) and r_by_delaney(n) for n <= 24,
# one canonical string per line in that order
GOLDEN_S_ROUTES_24 = "a5eab7ab897fe2def35ac30f90352690b0c89a66ba637ad698c0b311835b0add"


def test_s_only_routes_golden_digest():
    seqs = (r_by_closed_form(24), r_by_jacobi(24), [r_by_delaney(n) for n in range(25)])
    text = "\n".join(str(x) for seq in seqs for x in seq)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_S_ROUTES_24


def test_division_by_x_minus_2_is_exact_or_raises():
    # coefficient lists of rationals, constant term first
    assert _div_by_x_minus_2([F(-4), F(0), F(1)]) == [2, 1]
    assert _div_by_x_minus_2([]) == []
    for f in ([F(-3), F(0), F(1)], [F(1)]):
        with pytest.raises(ArithmeticError, match="remainder"):
            _div_by_x_minus_2(f)


def test_specialization_rays():
    table = sequences_by_recursion(8)
    for n in range(1, 9):
        rn = table.r[n]
        assert rn.evaluate(F(1), F(1)) == catalan(n)
        assert rn.evaluate(F(0), F(1)) == F(math.comb(2 * n, n), 2**n)
        assert rn.evaluate(F(1), F(0)) == F(math.comb(2 * n, n), 2**n)
        assert rn.evaluate(F(0), F(0)) == 1


def test_arcsine_moments_verbatim():
    expected = [F(1), F(3, 2), F(5, 2), F(35, 8), F(63, 8), F(231, 16), F(429, 16), F(6435, 128)]
    table = sequences_by_recursion(8)
    assert [table.r[n].evaluate(F(0), F(1)) for n in range(1, 9)] == expected


# -- ballot numbers and generalized Euler numbers ------------------------------------------


def test_delaney_numbers_match_nesting_counts():
    for n in range(1, 6):
        hist: dict = {}
        for blocks in oracles.nc_pair_partitions(2 * n):
            k = len(oracles.forest_edges(blocks))
            hist[k] = hist.get(k, 0) + 1
        for k in range(n + 1):
            assert delaney(n, k) == hist.get(k, 0), (n, k)
        assert sum(hist.values()) == catalan(n)
    assert delaney(3, -1) == 0 and delaney(3, 3) == 0


def test_delaney_route_sums_histogram():
    t = F(2, 3)
    for n in range(1, 7):
        poly = r_by_delaney(n)
        direct = sum(F(delaney(n, k)) * t**k for k in range(n))
        assert poly.evaluate(t, t) == direct  # p = q = t collapses the weight to t^in


def test_gen_euler_examples_and_totals():
    assert gen_euler(2, 0, 0) == 2
    assert gen_euler(2, 1, 0) == 1
    assert gen_euler(2, 0, 1) == 1
    assert gen_euler(3, 1, 1) == 6
    assert gen_euler(3, 2, 0) == 3
    assert gen_euler(2, 2, 0) == 0  # outside the k + j <= n - 1 support
    for n in range(1, 6):
        hist = gen_euler_histogram(n)
        assert sum(hist.values()) == math.factorial(n) * catalan(n)
        for (k, j), count in hist.items():
            assert gen_euler(n, k, j) == count


def test_gen_euler_closed_form_past_the_default_limit():
    # the Delaney/Euler relation where the histogram needs the override
    for n in (8, 9):
        hist = gen_euler_histogram(n, override_limits=True)
        assert sum(hist.values()) == math.factorial(n) * catalan(n)
        assert hist == {(k, j): gen_euler(n, k, j) for k in range(n) for j in range(n - k)}


def test_gen_euler_histogram_matches_oracle():
    for n in range(1, 5):
        acc: dict = {}
        for blocks in oracles.nc_pair_partitions(2 * n):
            for key, count in oracles.weight_histogram(blocks).items():
                acc[key] = acc.get(key, 0) + count
        assert gen_euler_histogram(n) == acc


def test_singleton_to_pair_substitution_preserves_statistics():
    # expanding every singleton {i} into an adjacent pair leaves the nesting
    # forest and all coloring statistics unchanged
    for n in range(1, 6):
        for blocks in oracles.nc_partitions(n):
            relabel = {}
            x = 1
            for i in range(1, n + 1):
                width = 2 if (i,) in blocks else 1
                relabel[i] = x
                x += width
            doubled = tuple(
                tuple(sorted({relabel[i] for i in b} | ({relabel[i] + 1 for i in b} if len(b) == 1 else set())))
                for b in blocks
            )
            doubled = tuple(sorted(doubled))
            assert oracles.weight_histogram(blocks) == oracles.weight_histogram(doubled)


# -- series identities ----------------------------------------------------------------


def test_series_identities_all_pass():
    checks = series_identity_checks(6)
    assert len(checks) >= 7
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


@pytest.mark.parametrize("field", ["s", "a", "r", "s_rows[2]", "s_rows[3]"])
def test_series_identities_catch_a_wrong_top_coefficient(monkeypatch, field):
    # one wrong z^8 coefficient of an order-8 table must fail a check at z^8:
    # every side of every identity is known through the top order it claims
    real = moments.sequences_by_recursion

    def spoiled(order, r_max=1):
        table = real(order, r_max)
        name, _, row = field.partition("[")
        seq = getattr(table, name)
        if row:
            r = int(row[:-1])
            seq = seq[:r] + (seq[r][:8] + (seq[r][8] + 1,) + seq[r][9:],) + seq[r + 1:]
        else:
            seq = seq[:8] + (seq[8] + 1,) + seq[9:]
        return dataclasses.replace(table, **{name: seq})

    monkeypatch.setattr(moments, "sequences_by_recursion", spoiled)
    with pytest.raises(MomentMismatchError, match=r"first mismatch at z\^8: "):
        series_identity_checks(8)


# -- word and mixed moments ---------------------------------------------------------------


def test_pairing_from_stars():
    assert pairing_from_stars((True, True, False, False)) == ((1, 4), (2, 3))
    assert pairing_from_stars((True, False, True, False)) == ((1, 2), (3, 4))
    assert pairing_from_stars((True, False, False)) is None
    assert pairing_from_stars((False, True)) is None


WORD_TABLE = (
    ((True, False, True, False, True, False), ONE),
    ((True, True, False, False, True, False), None),  # (p+q)/2, built below
    ((True, False, True, True, False, False), None),
    ((True, True, False, True, False, False), None),
    ((True, True, True, False, False, False), None),
)


def test_table_word_moments_single_interval():
    sig = IntervalSignature.single(6)
    expected = [
        ONE,
        _half(P + Q),
        _half(P + Q),
        (P * P + P * Q + Q * Q) / F(3),
        (P * P + P * Q * F(4) + Q * Q) / F(6),
    ]
    total = ZERO
    for (stars, _), want in zip(WORD_TABLE, expected):
        got = word_moment_by_enumeration(stars, sig)
        assert got == want
        total = total + got
    assert total == sequences_by_recursion(3).r[3]


def test_word_moment_scales_with_interval_volume():
    sig = IntervalSignature((F(1, 2),), (0,) * 4)
    # two blocks on one interval of length 1/2: lambda^2/2! = 1/8 per coloring pair
    got = word_moment_by_enumeration((True, True, False, False), sig)
    assert got == (P + Q) / F(8)


def test_mixed_moment_worked_two_interval_case():
    sig = IntervalSignature.from_named_intervals(
        ("f", "f", "g", "g", "f", "f"), {"g": (0, 1), "f": (1, 2)}
    )
    assert mixed_moment_brownian(sig) == _half(P * P + P * Q + _c(2))


def test_mixed_moment_matches_oracle_on_interval_ladders():
    # 2 and 3 intervals up to 8 positions; in (0, 0, 1, 1) the base
    # {1,4},{2,3} straddles both intervals and only {1,2},{3,4} is adapted.
    # The random signatures put each block of a random pairing on a random
    # interval, so at least that base is adapted.
    rng = random.Random(7)
    cases = [
        ((F(1), F(2)), (0, 0, 1, 1)),
        ((F(1), F(1), F(1)), (0, 1, 2, 2, 1, 0)),
        ((F(1, 2), F(3), F(2)), (2, 2, 0, 1, 1, 0, 2, 2)),
    ]
    for n in (2, 4, 6, 8):
        pairings = list(oracles.nc_pair_partitions(n))
        for k in (2, 3):
            for _ in range(4):
                assignment = [0] * n
                for block in rng.choice(pairings):
                    rank = rng.randrange(k)
                    for x in block:
                        assignment[x - 1] = rank
                lengths = tuple(F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(k))
                cases.append((lengths, tuple(assignment)))
    assert mixed_moment_brownian(IntervalSignature(*cases[0])) == _c(2)
    for lengths, assignment in cases:
        got = mixed_moment_brownian(IntervalSignature(lengths, assignment))
        assert got == MultiPoly(oracles.mixed_moment(assignment, lengths)), (lengths, assignment)


def test_mixed_moment_vanishes_for_odd_data():
    assert mixed_moment_brownian(IntervalSignature.single(3)) == ZERO
    sig = IntervalSignature(lengths=(F(1), F(1)), assignment=(0, 0, 0, 1))
    assert mixed_moment_brownian(sig) == ZERO


def test_mixed_moment_single_interval_recovers_r():
    table = sequences_by_recursion(3)
    for n in (1, 2, 3):
        sig = IntervalSignature.single(2 * n)
        assert mixed_moment_brownian(sig) == table.r[n]


def test_non_adapted_signature_vanishes():
    # alternating intervals admit no adapted pairing at all
    sig = IntervalSignature(lengths=(F(1), F(1)), assignment=(0, 1, 0, 1))
    assert mixed_moment_brownian(sig) == ZERO


def test_factorization_checks_all_ok():
    rows = factorization_checks(4)
    assert all(row["ok"] for row in rows)
    up = [r for r in rows if r["kind"] == "increasing" and r["size"] == 3][0]
    assert up["moment"] == Q * Q


# -- compound moments ----------------------------------------------------------------------


def test_poisson_moments_verbatim_low_orders():
    assert poisson_moment(1) == T
    assert poisson_moment(2) == T + T ** 2
    assert poisson_moment(3) == T + (P + Q + _c(4)) / F(2) * T ** 2 + T ** 3


def test_poisson_fourth_moment_worked_value():
    got = poisson_moment(4)
    expected = (
        T
        + (P * F(3) + Q * F(3) + _c(6)) / F(2) * T ** 2
        + (P * P + P * Q + Q * Q + P * F(3) + Q * F(3) + _c(9)) / F(3) * T ** 3
        + T ** 4
    )
    assert got == expected


def test_poisson_moment_extreme_t_coefficients():
    for n in range(2, 7):
        parts = poisson_moment(n).t_coefficients()
        assert parts[1] == ONE  # the single-block partition
        assert parts[n] == ONE  # the all-singletons partition
        assert 0 not in parts


def test_poisson_moment_free_specialization_counts_ordered_partitions():
    # at p = q = 1 every coloring has weight 1: sum of T^b/b! * b! over NC(n)
    for n in range(1, 6):
        got = poisson_moment(n).evaluate(F(1), F(1), F(1))
        count = sum(1 for _ in oracles.nc_partitions(n))
        assert got == sum(
            1 for _ in oracles.nc_partitions(n)
        ) == count and count == catalan(n)


def test_poisson_moment_past_the_limit_equals_the_operator_route():
    assert poisson_moment(9, override_limits=True) == poisson_moment_by_operators(9)


def test_poisson_moment_past_the_limit_is_narayana_at_p_equal_q_equal_1():
    # p = q = 1 is the free Poisson law: T^k carries the Narayana number N(10, k)
    coeffs = poisson_moment(10, override_limits=True).t_coefficients()
    assert {k: c.evaluate(1, 1) for k, c in coeffs.items()} == {
        k: math.comb(10, k) * math.comb(10, k - 1) // 10 for k in range(1, 11)
    }
