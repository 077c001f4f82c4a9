"""Cross-verification suite: every identity checked by two independent routes.

Each check recomputes one family of facts along disagreeing-by-construction
code paths (brute enumeration vs recursion, operator engine vs combinatorial
sum, quadrature vs exact polynomial) and demands exact agreement, or float
agreement at the stated tolerance for the quadrature check.  ``run_all``
executes the checks in a fixed order with a seeded generator for the
randomized signatures, stops at the first failure, and always appends the
``paper_errata`` section: two places where the source document's printed
value disagrees with its own method, resolved here in favor of the value
that every independent route reproduces.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Callable, List, Tuple

from . import discrete, fock, moments
from .algebra import MultiPoly, ONE, P, Q, T, ZERO
from .kesten import KestenMeasure
from .moments import ROUTE_NAMES, catalan, sequences_by_recursion
from .partitions import (
    PAIR_ENUM_LIMIT,
    IntervalSignature,
    OrderedPartition,
    SetPartition,
    disorder_order_counts,
    enumerate_nc,
    enumerate_ordered,
    nesting_forest,
    weight,
)

DEFAULT_ORDER = 6
DEFAULT_SEED = 7


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ErrataEntry:
    """A printed value in the source document vs what every route computes."""

    name: str
    published: str
    computed: str
    resolution: str


@dataclass(frozen=True)
class VerifyReport:
    order: int
    seed: int
    checks: Tuple[CheckResult, ...]
    errata: Tuple[ErrataEntry, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _half(poly: MultiPoly) -> MultiPoly:
    return poly / Fraction(2)


def _swap_pq(poly: MultiPoly) -> MultiPoly:
    return MultiPoly({(dq, dp, dt): c for (dp, dq, dt), c in poly.items()})


def _weight_sum(sp: SetPartition) -> MultiPoly:
    total = ZERO
    for perm in permutations(range(sp.block_count)):
        total = total + weight(OrderedPartition(sp, perm))
    return total


# -- individual checks -----------------------------------------------------------


def _check_route_agreement(order: int, rng) -> Tuple[bool, str]:
    for n in range(1, order + 1):
        report = moments.moment_report(n, route="all")
        if set(report.routes) != set(ROUTE_NAMES):
            return False, f"n={n}: route set degraded to {sorted(report.routes)}"
        if not report.agreement:
            vals = {k: str(v) for k, v in report.routes.items()}
            return False, f"n={n}: routes disagree: {vals}"
    return True, f"r_n identical along {'/'.join(ROUTE_NAMES)} for n = 1..{order}"


def _check_specializations(order: int, rng) -> Tuple[bool, str]:
    top = max(order, 8)
    table = sequences_by_recursion(top)
    for n in range(1, top + 1):
        rn = table.r[n]
        cases = (
            ((1, 1), Fraction(catalan(n))),
            ((0, 1), Fraction(math.comb(2 * n, n), 2**n)),
            ((1, 0), Fraction(math.comb(2 * n, n), 2**n)),
            ((0, 0), Fraction(1)),
        )
        for (pv, qv), expected in cases:
            got = rn.evaluate(Fraction(pv), Fraction(qv))
            if got != expected:
                return False, f"r_{n}({pv},{qv}) = {got}, expected {expected}"
    return True, f"free/arcsine/monotone/degenerate rays match for n = 1..{top}"


_WORD_TABLE = (
    ("a*aa*aa*a", ONE),
    ("a*a*aaa*a", _half(P + Q)),
    ("a*aa*a*aa", _half(P + Q)),
    ("a*a*aa*aa", (P * P + P * Q + Q * Q) / Fraction(3)),
    ("a*a*a*aaa", (P * P + P * Q * Fraction(4) + Q * Q) / Fraction(6)),
)


def _check_word_table(order: int, rng) -> Tuple[bool, str]:
    engine = fock.FockEngine.brownian([(0, 1)])
    sig = IntervalSignature.single(6)
    total = ZERO
    for text, expected in _WORD_TABLE:
        tags = fock.parse_word(text)
        by_engine = engine.word_vacuum_moment(tags)
        stars = tuple(kind == "a*" for kind, _ in tags)
        by_enum = moments.word_moment_by_enumeration(stars, sig)
        if by_engine != expected or by_enum != expected:
            return False, f"{text}: engine {by_engine}, enumeration {by_enum}, expected {expected}"
        total = total + by_engine
    expected_total = _half((P + Q) ** 2 + (P + Q) * Fraction(2) + MultiPoly.constant(Fraction(2)))
    if total != expected_total:
        return False, f"word-table sum {total} != {expected_total}"
    if total != sequences_by_recursion(3).r[3]:
        return False, "word-table sum does not reproduce r_3"
    return True, "all five length-6 single-interval words and their sum match on both routes"


def _random_signature(rng) -> IntervalSignature:
    intervals = rng.randint(1, 3)
    n = rng.randint(intervals, 8)
    lengths = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(intervals))
    assignment = list(range(intervals)) + [rng.randrange(intervals) for _ in range(n - intervals)]
    rng.shuffle(assignment)
    return IntervalSignature(lengths=lengths, assignment=tuple(assignment))


def _check_mixed_moment_engines(order: int, rng) -> Tuple[bool, str]:
    worked = IntervalSignature.from_named_intervals(
        ("f", "f", "g", "g", "f", "f"), {"g": (0, 1), "f": (1, 2)}
    )
    expected = _half(P * P + P * Q + MultiPoly.constant(Fraction(2)))
    operator = fock.position_moment(worked)
    combinatorial = moments.mixed_moment_brownian(worked)
    if operator != expected or combinatorial != expected:
        return False, (
            f"two-interval sixth moment: operator {operator}, "
            f"combinatorial {combinatorial}, expected {expected}"
        )
    trials = 25
    for k in range(trials):
        sig = _random_signature(rng)
        lhs = fock.position_moment(sig)
        rhs = moments.mixed_moment_brownian(sig)
        if lhs != rhs:
            return False, f"random signature #{k} {sig.assignment} lengths {sig.lengths}: {lhs} != {rhs}"
    return True, f"operator = combinatorial on the worked two-interval case and {trials} random signatures"


def _check_factorizations(order: int, rng) -> Tuple[bool, str]:
    rows = moments.factorization_checks(5)
    bad = [r for r in rows if not r["ok"]]
    if bad:
        r = bad[0]
        return False, f"size {r['size']} {r['kind']}: {r['moment']} != {r['expected']}"
    return True, "pyramid moments factor into q^(m-1) / p^(m-1) for m = 1..5"


def _check_gen_euler(order: int, rng) -> Tuple[bool, str]:
    for n in range(1, order + 1):
        hist = moments.gen_euler_histogram(n)
        total = sum(hist.values())
        if total != math.factorial(n) * catalan(n):
            return False, f"n={n}: histogram total {total} != n! * Catalan"
        for k in range(n):
            for j in range(n - k):
                formula = moments.gen_euler(n, k, j, route="formula")
                counted = Fraction(hist.get((k, j), 0))
                if formula != counted:
                    return False, f"E({n},{k},{j}): formula {formula} != count {counted}"
        if any(k + j > n - 1 for k, j in hist):
            return False, f"n={n}: histogram exceeds the k+j <= n-1 support"
    return True, f"E(n,k,j) formula = direct count with n!*Catalan(n) totals for n = 1..{order}"


def _check_poisson_routes(order: int, rng) -> Tuple[bool, str]:
    top = max(order, 7)
    for n in range(1, top + 1):
        combinatorial = moments.poisson_moment(n)
        operator = fock.poisson_moment_by_operators(n)
        if combinatorial != operator:
            return False, f"n={n}: combinatorial {combinatorial} != operator {operator}"
    return True, f"compound moments agree between operator and partition routes for n = 1..{top}"


def _check_partition_words(order: int, rng) -> Tuple[bool, str]:
    engine = fock.FockEngine.poisson()
    for n in range(1, 6):
        total = ZERO
        for sp in enumerate_nc(n):
            tags = fock.word_for_partition(sp)
            if not fock.word_admits_partition(tags):
                return False, f"{sp}: its own word fails the admissibility scan"
            b = sp.block_count
            expected = (T**b) * _weight_sum(sp) / Fraction(math.factorial(b))
            got = engine.word_vacuum_moment(tags)
            if got != expected:
                return False, f"{sp}: engine {got} != (T^b/b!) weight sum {expected}"
            total = total + got
        if total != moments.poisson_moment(n):
            return False, f"n={n}: sum of per-partition words misses the compound moment"
    deep = SetPartition.from_blocks(10, [[1, 10], [2, 3], [4, 7], [5], [6], [8, 9]])
    tags = fock.word_for_partition(deep)
    expected = (T**6) * _weight_sum(deep) / Fraction(math.factorial(6))
    if engine.word_vacuum_moment(tags) != expected:
        return False, "nested 10-point example disagrees with its ordered weight sum"
    return True, "c_pi words reproduce (T^b/b!) weight sums for all NC partitions, n <= 5, plus a 6-block case"


def _check_word_vanishing(order: int, rng) -> Tuple[bool, str]:
    engine = fock.FockEngine.poisson()
    letters = ("a", "a*", "m", "n")
    scanned = realizable = 0
    for length in range(1, 7):
        for kinds in product(letters, repeat=length):
            tags = tuple((k, 0) for k in kinds)
            value = engine.word_vacuum_moment(tags)
            admits = fock.word_admits_partition(tags)
            scanned += 1
            realizable += admits
            if admits and value.is_zero:
                return False, f"word {''.join(kinds)} admits a partition but evaluates to 0"
            if not admits and not value.is_zero:
                return False, f"word {''.join(kinds)} admits no partition yet evaluates to {value}"
    return True, f"{scanned} words of length <= 6 scanned; moment is nonzero iff a partition exists ({realizable} realizable)"


def _check_covered_sums(order: int, rng) -> Tuple[bool, str]:
    table = sequences_by_recursion(5, r_max=4)
    for n in range(1, 6):
        lhs = moments.covered_weight_sum(n)
        rhs = table.s[n] * Fraction(math.factorial(n))
        if lhs != rhs:
            return False, f"n={n}: covered weight sum {lhs} != n! s_n = {rhs}"
    for n in range(1, 5):
        for r in range(1, n + 1):
            total = ZERO
            for op in enumerate_ordered(2 * n, pair_only=True, outer_blocks=r):
                total = total + weight(op)
            expected = table.s_r(r, n) * Fraction(math.factorial(n))
            if total != expected:
                return False, f"n={n}, r={r}: outer-block weight sum {total} != n! s^({r})_{n}"
    return True, "covered sums equal n! s_n (n <= 5) and r-root sums equal n! s^(r)_n (n <= 4)"


def _check_nesting_distribution(order: int, rng) -> Tuple[bool, str]:
    for n in range(1, order + 1):
        hist: dict = {}
        for sp in enumerate_nc(2 * n, pair_only=True):
            k = nesting_forest(sp).inner_count
            hist[k] = hist.get(k, 0) + 1
        ballot = {k: moments.delaney(n, k) for k in range(n)}
        ballot = {k: v for k, v in ballot.items() if v}
        if hist != ballot:
            return False, f"n={n}: nesting histogram {hist} != ballot numbers {ballot}"
    return True, f"in(pi) over NC2(2n) is D(n,k)-distributed for n = 1..{order}"


def _check_reversal_symmetry(order: int, rng) -> Tuple[bool, str]:
    for n, pair_only in ((4, True), (6, True), (4, False)):
        total = ZERO
        for op in enumerate_ordered(n, pair_only=pair_only):
            w = weight(op)
            reverse = OrderedPartition(op.base, tuple(reversed(op.order)))
            if weight(reverse) != _swap_pq(w):
                return False, f"{op}: reversed coloring weight is not the p<->q swap"
            e, ep = disorder_order_counts(op)
            re, rep = disorder_order_counts(reverse)
            if (re, rep) != (ep, e):
                return False, f"{op}: reversal swapped (e, e') to ({re}, {rep})"
            total = total + w
        if total != _swap_pq(total):
            return False, f"n={n} pair_only={pair_only}: total weight sum not p<->q symmetric"
    return True, "reversing a coloring exchanges disorders and orders (pairs n <= 3, general n = 4)"


def _check_series_identities(order: int, rng) -> Tuple[bool, str]:
    # a mismatch raises MomentMismatchError, which run_all records as a failed check
    results = moments.series_identity_checks(order, r_max=3)
    return True, "; ".join(c.name for c in results)


def _check_clt(order: int, rng) -> Tuple[bool, str]:
    table = sequences_by_recursion(3)
    for n in (2, 4, 6):
        if discrete.clt_leading_term(n) != table.r[n // 2]:
            return False, f"leading term of the {n}-th moment is not r_{n // 2}"
    for N in (10, 100):
        expected = table.r[2] * Fraction(N - 1, N) + MultiPoly.constant(Fraction(2, N))
        if discrete.clt_moment(N, 4) != expected:
            return False, f"N={N}: fourth moment differs from (1-1/N) r_2 + 2/N"
    r3 = table.r[3]
    worst = Fraction(0)
    for pv, qv in ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 3))):
        limit = r3.evaluate(pv, qv)
        for N in (100, 1000, 10000):
            diff = abs(discrete.clt_moment(N, 6).evaluate(pv, qv) - limit)
            if diff > Fraction(10, N):
                return False, f"|phi(S_{N}^6) - r_3| = {diff} exceeds 10/{N} at ({pv},{qv})"
            worst = max(worst, diff * N)
    return True, f"leading terms equal r_n (n <= 3); sixth-moment gap <= C/N with observed C = {float(worst):.3f} <= 10"


_KESTEN_POINTS = (
    (Fraction(1), Fraction(1)),
    (Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(3, 10), Fraction(1, 5)),
    (Fraction(3, 2), Fraction(2, 5)),
)


def _check_kesten(order: int, rng) -> Tuple[bool, str]:
    table = sequences_by_recursion(5)
    for pv, qv in _KESTEN_POINTS:
        mu = KestenMeasure(float(pv), float(qv))
        s = float(pv + qv)
        if abs(mu.total_mass() - 1.0) > 1e-10:
            return False, f"({pv},{qv}): total mass {mu.total_mass()!r} is not 1"
        for k in range(1, 6):
            exact = float(table.r[k].evaluate(pv, qv))
            got = mu.quadrature_moment(2 * k)
            if abs(got - exact) > 1e-8:
                return False, f"({pv},{qv}): m_{2 * k} = {got!r} vs exact {exact!r}"
            if abs(mu.quadrature_moment(2 * k - 1)) > 1e-10:
                return False, f"({pv},{qv}): odd moment {2 * k - 1} did not vanish"
        atoms = mu.atoms()
        if (s < 1) != bool(atoms):
            return False, f"({pv},{qv}): atom presence contradicts p+q < 1"
        if atoms:
            z0 = 1.0 / math.sqrt(1.0 - s / 2.0)
            mass = (1.0 - s) / (2.0 - s)
            if abs(atoms[0][0] - z0) > 1e-12 or abs(atoms[0][1] - mass) > 1e-12:
                return False, f"({pv},{qv}): atoms {atoms} off the closed form"
        for frac in (0.0, 0.31, 0.62):
            x = frac * mu.edge
            if abs(mu.stieltjes_density(x) - mu.density(x)) > 1e-4:
                return False, f"({pv},{qv}): Stieltjes inversion off at x = {x!r}"
        for re_z, im_z in ((-2.0, 0.1), (0.0, 1.0), (1.5, 0.5), (3.0, 10.0)):
            if mu.cauchy(complex(re_z, im_z)).imag > 1e-15:
                return False, f"({pv},{qv}): G maps {re_z}+{im_z}i out of the lower half plane"
    boolean = KestenMeasure.boolean_limit()
    atoms = boolean.atoms()
    if len(atoms) != 2 or abs(atoms[0][0] - 1.0) > 1e-10 or abs(atoms[0][1] - 0.5) > 1e-10:
        return False, f"boolean limit atoms {atoms} are not +-1 with mass 1/2"
    if abs(boolean.quadrature_moment(2) - 1.0) > 1e-12 or abs(boolean.total_mass() - 1.0) > 1e-12:
        return False, "boolean limit moments are off"
    if abs(boolean.cauchy(2.0) - 2.0 / 3.0) > 1e-12:
        return False, "boolean limit Cauchy transform at z = 2 is not 2/3"
    return True, "quadrature (k <= 5, 1e-8), mass (1e-10), atoms, Stieltjes inversion (1e-4) and the boolean limit all agree"


_CHECKS: Tuple[Tuple[str, Callable], ...] = (
    ("five-route-agreement", _check_route_agreement),
    ("moment-specializations", _check_specializations),
    ("single-interval-word-table", _check_word_table),
    ("mixed-moment-engines", _check_mixed_moment_engines),
    ("pyramid-factorizations", _check_factorizations),
    ("generalized-euler-numbers", _check_gen_euler),
    ("poisson-route-equivalence", _check_poisson_routes),
    ("partition-word-correspondence", _check_partition_words),
    ("word-vanishing-criterion", _check_word_vanishing),
    ("covered-and-outer-block-sums", _check_covered_sums),
    ("nesting-depth-distribution", _check_nesting_distribution),
    ("ordered-reversal-symmetry", _check_reversal_symmetry),
    ("series-identities", _check_series_identities),
    ("clt-moments-and-rate", _check_clt),
    ("kesten-quadrature-analytics", _check_kesten),
)

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def paper_errata() -> Tuple[ErrataEntry, ...]:
    """The two printed values our routes contradict, with the resolved values.

    Neither is a failure: in both spots the document's own surrounding
    computation supports the value recomputed here, and every independent
    route in this package reproduces it.
    """
    sig = IntervalSignature.from_named_intervals(
        ("f", "f", "g", "g", "f", "f"), {"g": (0, 1), "f": (1, 2)}
    )
    sixth = moments.mixed_moment_brownian(sig)
    entries = [
        ErrataEntry(
            name="two-interval-sixth-moment",
            published="(pq + p + 2)/2",
            computed=str(sixth),
            resolution=(
                "the fully nested summand is p * (p+q)/2, not (pq+p)/2; operator and "
                "combinatorial routes both give (p^2 + pq + 2)/2"
            ),
        )
    ]
    cubic = moments.poisson_moment(4).t_coefficients()[3]
    entries.append(
        ErrataEntry(
            name="compound-fourth-moment-cubic-coefficient",
            published="(p^2 + pq + q^2 + 3p + 3q)/3",
            computed=str(cubic),
            resolution=(
                "the stated moment table omits the +9/3 constant that the worked "
                "computation (and both routes here) produce: (p^2 + pq + q^2 + 3p + 3q + 9)/3"
            ),
        )
    )
    return tuple(entries)


def run_all(order: int = DEFAULT_ORDER, seed: int = DEFAULT_SEED) -> VerifyReport:
    """Run every check in order, stopping at the first failure."""
    # route agreement runs the enumeration route at every order up to this one
    if not 1 <= order <= PAIR_ENUM_LIMIT // 2:
        raise ValueError(f"verification order must be between 1 and {PAIR_ENUM_LIMIT // 2}")
    rng = random.Random(seed)
    results: List[CheckResult] = []
    for name, fn in _CHECKS:
        try:
            passed, detail = fn(order, rng)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {exc!r}"
        results.append(CheckResult(name, passed, detail))
        if not passed:
            break
    try:
        errata = paper_errata()
    except Exception as exc:
        errata = (
            ErrataEntry(
                name="errata-computation",
                published="",
                computed="",
                resolution=f"raised {exc!r}",
            ),
        )
    return VerifyReport(order=order, seed=seed, checks=tuple(results), errata=errata)
