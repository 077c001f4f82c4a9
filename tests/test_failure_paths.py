"""Failure paths: every failing branch of the verify checks, and the input checks.

Each verify case rebinds one route or helper at call time, so the check it
feeds sees a wrong value (or an exception) and must report it.  The input
checks are called with one bad argument each and must name what is wrong.
"""

from __future__ import annotations

import argparse
import json
import random
import re
from fractions import Fraction as F

import pytest

from onckesten import cli, discrete, fock, moments, verify
from onckesten.algebra import MultiPoly, ONE, P, ZERO
from onckesten.fock import FockEngine, Interval, word_admits_partition
from onckesten.kesten import KestenMeasure
from onckesten.partitions import IntervalSignature, OrderedPartition, SetPartition, is_adapted


def _constant_table(value):
    return lambda order, r_max=1: moments.SequenceTable(r=(value,) * (order + 1), s=(), a=(), s_rows=())


def _measure(**methods):
    """KestenMeasure with some methods replaced; each replacement gets the real method first."""

    def override(name, fn):
        real = getattr(KestenMeasure, name)
        return lambda self, *args: fn(self, real.__get__(self), *args)

    return type("Measure", (KestenMeasure,), {name: override(name, fn) for name, fn in methods.items()})


def _boolean(self):
    return self.p == self.q == 0


_FIRST_POINT = verify._KESTEN_POINTS[:1]
_ATOMIC_POINT = ((F(3, 10), F(1, 5)),)

# check, {(owner, name): replacement(real)}, the detail the failing check gives (a regex)
_FAILURES = {
    "route-set-degraded": (
        verify._check_route_agreement,
        {(moments, "moment_report"): lambda real: lambda n, route: moments.MomentReport(n, {"enum": ONE}, True)},
        r"n=1: route set degraded to \['enum'\]",
    ),
    "routes-disagree": (
        verify._check_route_agreement,
        {(moments, "r_by_delaney"): lambda real: lambda n: ZERO},
        r"n=1: routes disagree: \{'enum': '1', 'rec': '1', 'closed': '1', 'jacobi': '1', 'delaney': '0'\}",
    ),
    "specialization": (
        verify._check_specializations,
        {(verify, "sequences_by_recursion"): lambda real: _constant_table(ONE)},
        r"r_2\(1,1\) = 1, expected 2",
    ),
    "word-table-entry": (
        verify._check_word_table,
        {(moments, "word_moment_by_enumeration"): lambda real: lambda stars, sig: ZERO},
        r"a\*aa\*aa\*a: engine 1, enumeration 0, expected 1",
    ),
    "word-table-sum": (
        verify._check_word_table,
        {(verify, "_WORD_TABLE"): lambda real: real[:1]},
        r"word-table sum 1 != .*",
    ),
    "word-table-r3": (
        verify._check_word_table,
        {(verify, "sequences_by_recursion"): lambda real: _constant_table(ZERO)},
        r"word-table sum does not reproduce r_3",
    ),
    "worked-mixed-moment": (
        verify._check_mixed_moment_engines,
        {(moments, "mixed_moment_brownian"): lambda real: lambda sig, override_limits=False: ZERO},
        r"two-interval sixth moment: operator 1 \+ 1/2p\^2 \+ 1/2pq, combinatorial 0, expected .*",
    ),
    "random-mixed-moment": (
        verify._check_mixed_moment_engines,
        {(fock, "position_moment"): lambda real: lambda sig: real(sig) if sig is verify._WORKED_SIGNATURE else P**99},
        r"random signature #0 \(.*\) lengths \(.*\): p\^99 != .*",
    ),
    "factorization": (
        verify._check_factorizations,
        {(moments, "factorization_checks"): lambda real: lambda m: [
            {"size": 1, "kind": "increasing", "moment": ZERO, "expected": ONE, "ok": False}
        ]},
        r"size 1 increasing: 0 != 1",
    ),
    "euler-total": (
        verify._check_gen_euler,
        {(moments, "gen_euler_histogram"): lambda real: lambda n: {}},
        r"n=1: histogram total 0 != n! \* Catalan",
    ),
    "euler-formula": (
        verify._check_gen_euler,
        {(moments, "gen_euler"): lambda real: lambda n, k, j: F(-1)},
        r"E\(1,0,0\): formula -1 != count 1",
    ),
    "euler-support": (
        verify._check_gen_euler,
        {(moments, "gen_euler_histogram"): lambda real: lambda n: {**real(n), (n, n): 0}},
        r"n=1: histogram exceeds the k\+j <= n-1 support",
    ),
    "poisson-routes": (
        verify._check_poisson_routes,
        {(fock, "poisson_moment_by_operators"): lambda real: lambda n: ZERO},
        r"n=1: combinatorial T != operator 0",
    ),
    "partition-word-scan": (
        verify._check_partition_words,
        {(fock, "word_admits_partition"): lambda real: lambda tags: False},
        r".*: its own word fails the admissibility scan",
    ),
    "partition-word-engine": (
        verify._check_partition_words,
        {(FockEngine, "word_vacuum_moment"): lambda real: lambda self, tags: ZERO},
        r".*: engine 0 != \(T\^b/b!\) weight sum T",
    ),
    "partition-word-sum": (
        verify._check_partition_words,
        {(moments, "poisson_moment"): lambda real: lambda n: ZERO},
        r"n=1: sum of per-partition words misses the compound moment",
    ),
    "partition-word-deep": (
        verify._check_partition_words,
        {(FockEngine, "word_vacuum_moment"): lambda real: lambda self, tags: ZERO if len(tags) == 10 else real(self, tags)},
        r"nested 10-point example disagrees with its ordered weight sum",
    ),
    "covered-sum": (
        verify._check_covered_sums,
        {(moments, "covered_weight_sum"): lambda real: lambda n: ZERO},
        r"n=1: covered weight sum 0 != n! s_n = 1",
    ),
    "outer-block-sum": (
        verify._check_covered_sums,
        {(verify, "enumerate_ordered"): lambda real: lambda n, pair_only, outer_blocks: ()},
        r"n=1, r=1: outer-block weight sum 0 != n! s\^\(1\)_1",
    ),
    "nesting-distribution": (
        verify._check_nesting_distribution,
        {(moments, "delaney"): lambda real: lambda n, k: 0},
        r"n=1: nesting histogram \{0: 1\} != ballot numbers \{\}",
    ),
    "reversal-weight": (
        verify._check_reversal_symmetry,
        {(verify, "_swap_pq"): lambda real: lambda poly: poly + ONE},
        r".*: reversed coloring weight is not the p<->q swap",
    ),
    "reversal-counts": (
        verify._check_reversal_symmetry,
        {(verify, "disorder_order_counts"): lambda real: lambda op: (0, 1)},
        r".*: reversal swapped \(e, e'\) to \(0, 1\)",
    ),
    "reversal-total": (
        verify._check_reversal_symmetry,
        {
            (verify, "weight"): lambda real: lambda op: ONE,
            (verify, "_swap_pq"): lambda real: lambda poly: poly if poly == ONE else ZERO,
        },
        r"n=4 pair_only=True: total weight sum not p<->q symmetric",
    ),
    "clt-leading-term": (
        verify._check_clt,
        {(discrete, "clt_leading_term"): lambda real: lambda n: ZERO},
        r"leading term of the 2-th moment is not r_1",
    ),
    "clt-fourth-moment": (
        verify._check_clt,
        {(discrete, "clt_moment"): lambda real: lambda N, n: ZERO},
        r"N=10: fourth moment differs from \(1-1/N\) r_2 \+ 2/N",
    ),
    "clt-rate": (
        verify._check_clt,
        {(discrete, "clt_moment"): lambda real: lambda N, n: real(N, n) if n == 4 else ZERO},
        r"\|phi\(S_100\^6\) - r_3\| = 5/2 exceeds 10/100 at \(0,1\)",
    ),
    "kesten-mass": (
        verify._check_kesten,
        {(verify, "KestenMeasure"): lambda real: _measure(total_mass=lambda self, real: 0.0)},
        r"\(1,1\): total mass 0\.0 is not 1",
    ),
    "kesten-moment": (
        verify._check_kesten,
        {(verify, "KestenMeasure"): lambda real: _measure(quadrature_moment=lambda self, real, n, *tol: real(n, *tol) if n == 0 else 0.0)},
        r"\(1,1\): m_2 = 0\.0 vs exact 1\.0",
    ),
    "kesten-odd-moment": (
        verify._check_kesten,
        {(verify, "KestenMeasure"): lambda real: _measure(quadrature_moment=lambda self, real, n, *tol: real(n, *tol) if n % 2 == 0 else 1.0)},
        r"\(1,1\): odd moment 1 did not vanish",
    ),
    "kesten-atom-presence": (
        verify._check_kesten,
        {
            (verify, "_KESTEN_POINTS"): lambda real: _FIRST_POINT,
            (verify, "KestenMeasure"): lambda real: _measure(atoms=lambda self, real: [(1.0, 0.0)]),
        },
        r"\(1,1\): atom presence contradicts p\+q < 1",
    ),
    "kesten-atom-position": (
        verify._check_kesten,
        {
            (verify, "_KESTEN_POINTS"): lambda real: _ATOMIC_POINT,
            (verify, "KestenMeasure"): lambda real: _measure(atoms=lambda self, real: [(9.0, 0.0)] + real()),
        },
        r"\(3/10,1/5\): atoms \[.*\] off the closed form",
    ),
    "kesten-stieltjes": (
        verify._check_kesten,
        {
            (verify, "_KESTEN_POINTS"): lambda real: _FIRST_POINT,
            (verify, "KestenMeasure"): lambda real: _measure(stieltjes_density=lambda self, real, x: 99.0),
        },
        r"\(1,1\): Stieltjes inversion off at x = 0\.0",
    ),
    "kesten-cauchy": (
        verify._check_kesten,
        {
            (verify, "_KESTEN_POINTS"): lambda real: _FIRST_POINT,
            (verify, "KestenMeasure"): lambda real: _measure(cauchy=lambda self, real, z: 1j if z == complex(-2.0, 0.1) else real(z)),
        },
        r"\(1,1\): G maps -2\.0\+0\.1i out of the lower half plane",
    ),
    "boolean-atoms": (
        verify._check_kesten,
        {
            (verify, "_KESTEN_POINTS"): lambda real: (),
            (verify, "KestenMeasure"): lambda real: _measure(atoms=lambda self, real: [] if _boolean(self) else real()),
        },
        r"boolean limit atoms \[\] are not \+-1 with mass 1/2",
    ),
    "boolean-moments": (
        verify._check_kesten,
        {
            (verify, "_KESTEN_POINTS"): lambda real: (),
            (verify, "KestenMeasure"): lambda real: _measure(total_mass=lambda self, real: 0.5 if _boolean(self) else real()),
        },
        r"boolean limit moments are off",
    ),
    "boolean-cauchy": (
        verify._check_kesten,
        {
            (verify, "_KESTEN_POINTS"): lambda real: (),
            (verify, "KestenMeasure"): lambda real: _measure(cauchy=lambda self, real, z: 0j if _boolean(self) else real(z)),
        },
        r"boolean limit Cauchy transform at z = 2 is not 2/3",
    ),
}


@pytest.mark.parametrize("case", list(_FAILURES))
def test_each_check_reports_its_failure(monkeypatch, case):
    check, rebind, detail = _FAILURES[case]
    for (owner, name), replacement in rebind.items():
        monkeypatch.setattr(owner, name, replacement(getattr(owner, name)))
    passed, got = check(verify.DEFAULT_ORDER, random.Random(verify.DEFAULT_SEED))
    assert passed is False and re.fullmatch(detail, got), got


def _run_all_with_delaney(monkeypatch, route):
    monkeypatch.setattr(moments, "r_by_delaney", route)
    return verify.run_all()


def test_a_wrong_route_fails_the_report_and_the_command(monkeypatch, capsys):
    report = _run_all_with_delaney(monkeypatch, lambda n: ZERO)
    assert not report.ok and len(report.checks) == 1  # run_all stops at the first failure
    (check,) = report.checks
    assert check.name == "five-route-agreement" and not check.passed
    assert check.detail.startswith("n=1: routes disagree: ")
    assert [e.name for e in report.errata] == [e.name for e in verify.paper_errata()]
    assert cli.main(["verify"]) == 1
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert err == "" and doc["ok"] is False
    assert [c["status"] for c in doc["checks"]] == ["fail"] and len(doc["paper_errata"]) == 2


def test_a_raising_route_is_a_failed_check(monkeypatch):
    def broken(n):
        raise ArithmeticError("broken route")

    report = _run_all_with_delaney(monkeypatch, broken)
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [
        ("five-route-agreement", False, "raised ArithmeticError('broken route')")
    ]


def test_a_failing_errata_computation_is_one_entry(monkeypatch):
    def broken(sig, override_limits=False):
        raise ArithmeticError("broken mixed moment")

    monkeypatch.setattr(moments, "mixed_moment_brownian", broken)
    report = _run_all_with_delaney(monkeypatch, lambda n: ZERO)
    assert [vars(e) for e in report.errata] == [
        {"name": "errata-computation", "published": "", "computed": "", "resolution": "raised ArithmeticError('broken mixed moment')"}
    ]


# -- input checks ------------------------------------------------------------------


def _brownian_args(signature):
    return argparse.Namespace(signature=signature, intervals="f=[0,1]", override_limits=False)


# the call, the error it raises and its message
_INPUT_CHECKS = [
    (lambda: MultiPoly({(-1, 0, 0): 1}), ValueError, "MultiPoly exponents must be nonnegative ints, not (-1, 0, 0)"),
    (lambda: P ** -1, ValueError, "exponent must be a nonnegative integer"),
    (lambda: P / P, TypeError, "MultiPoly division is only defined for rational scalars"),
    (lambda: FockEngine([]), ValueError, "engine needs at least one interval"),
    (lambda: FockEngine([Interval(F(1), F(1))]), ValueError, "empty interval [1, 1]"),
    (lambda: word_admits_partition([("x", 0)]), ValueError, "unknown operator tag ('x', 0)"),
    (lambda: KestenMeasure(1, 1).quadrature_moment(-1), ValueError, "moment index must be >= 0"),
    (lambda: moments.sequences_by_recursion(-1), ValueError, "order must be >= 0 and r_max >= 1"),
    (lambda: moments.r_by_closed_form(-1), ValueError, "order must be >= 0"),
    (lambda: moments.r_by_jacobi(-1), ValueError, "order must be >= 0"),
    (lambda: moments.r_by_delaney(-1), ValueError, "n must be >= 0"),
    (lambda: moments.series_identity_checks(1), ValueError, "order must be >= 2"),
    (
        lambda: moments.word_moment_by_enumeration((True,), IntervalSignature.single(2)),
        ValueError,
        "word length does not match signature length",
    ),
    (lambda: moments.moment_report(1, route="nope"), ValueError, "unknown route 'nope'"),
    (lambda: IntervalSignature(lengths=(F(0),), assignment=(0,)), ValueError, "interval lengths must be positive"),
    (lambda: IntervalSignature(lengths=(F(1),), assignment=(1,)), ValueError, "assignment refers to an unknown interval"),
    (
        lambda: is_adapted(OrderedPartition(SetPartition.from_blocks(2, [[1, 2]]), (0,)), IntervalSignature.single(4)),
        ValueError,
        "partition size does not match signature length",
    ),
    (lambda: cli._parse_intervals("f=[a,1]"), ValueError, "interval endpoints in 'f=[a,1]' must be rationals"),
    (lambda: cli._cmd_brownian(_brownian_args(" ")), ValueError, "--signature must list at least one interval name"),
]


@pytest.mark.parametrize("call, error, message", _INPUT_CHECKS, ids=[message for _, _, message in _INPUT_CHECKS])
def test_input_checks_name_what_is_wrong(call, error, message):
    with pytest.raises(error, match=re.escape(message) + "$"):
        call()
