"""Command-line surface: enumeration, moments, verification, measure reports.

Output contracts, kept deliberately rigid so runs are byte-reproducible:

- ``enumerate``    JSON lines, one ordered partition per line with fields
                   blocks / e / eprime / weight / inner / outer / covered.
- ``moments``      one JSON document with canonical polynomial strings per
                   route (exact rational strings when --p/--q are given).
- ``verify``       one JSON document listing every named check plus the
                   paper_errata section; exit 1 on the first failing check.
- ``density``      CSV "x,density" over a symmetric grid, a blank line, then
                   an "atom,mass" CSV block (empty when there are no atoms).
- ``quadcheck``    one JSON document; per row the float quadrature value, the
                   exact rational as a string, and their absolute error.
- ``brownian``     one JSON document comparing operator and combinatorial
                   routes for a mixed-interval word; exit 1 on disagreement.
                   --intervals declares each name once.
- ``poisson``      the canonical polynomial in p, q, T as plain text.
- ``clt``          one JSON document with the exact moment of the normalized
                   sum, its limit, and (under --p/--q) the exact distance.

Exit codes: 0 success, 1 any oracle/equality failure, failed computation
(one stderr line, no stdout) or reader that closed stdout early (no
traceback), 2 usage errors.
Rationals parse as "a/b" or decimal strings, with at most 10,000 digits in
numerator and denominator; --p and --q must be nonnegative.

A process imports only the layers its subcommand runs: enumerate partitions
and algebra; moments and poisson moments; quadcheck moments and kesten;
brownian fock and moments; clt discrete; verify everything; density only
kesten.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

SCHEMA = "onc-kesten/1"


_DIGITS = 10_000  # rendering an exact value takes time quadratic in its digits
_DIGIT_CAP = 10**_DIGITS


def _exact(text: str, what: str) -> Fraction:
    """Fraction(text) with at most _DIGITS digits in numerator and denominator, else ValueError. A nonzero
    value with exponent E has over |E| - len(text) digits, so a larger |E| is refused before 10^|E| is built."""
    exp = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
    huge = exp.isdecimal() and (len(exp) > 12 or int(exp) > _DIGITS + len(text))
    digits_limit = sys.get_int_max_str_digits()  # CPython's int <-> str guard stops at 4,300
    sys.set_int_max_str_digits(0)
    try:
        value = None if huge else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(what)
    finally:
        sys.set_int_max_str_digits(digits_limit)
    if huge or max(abs(value.numerator), value.denominator) >= _DIGIT_CAP:
        raise ValueError(f"exact inputs are bounded at {_DIGITS:,} digits in numerator and denominator")
    return value


def _rational(text: str) -> Fraction:
    try:
        value = _exact(text, f"{text!r} is not a rational (use a/b or a decimal)")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if value < 0:
        raise argparse.ArgumentTypeError("parameters must be nonnegative")
    return value


def _print_json(payload: dict):
    print(json.dumps(payload, indent=2))


# -- subcommands ---------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    from .algebra import MultiPoly
    from .partitions import enumerate_nc, nesting_forest

    # Each row is the text json.dumps would give: block and weight strings hold
    # only digits and "{},^pq", so nothing in them needs escaping.  A base's
    # colorings are walked in lexicographic order, the order of
    # permutations(range(k)); a prefix's text is built once, and placing block
    # b adds its already placed children to the disorders (child before parent).
    def walk(head, placed, e, rest):
        if len(rest) > 2:
            for i, b in enumerate(rest):
                walk(head + texts[b] + ",", placed | 1 << b, e + (kids[b] & placed).bit_count(), rest[:i] + rest[i + 1:])
        elif len(rest) == 2:
            a, b = rest
            e += (kids[a] & placed).bit_count() + (kids[b] & placed).bit_count()
            rows.append(head + texts[a] + "," + texts[b] + ends[e + (kids[b] >> a & 1)])
            rows.append(head + texts[b] + "," + texts[a] + ends[e + (kids[a] >> b & 1)])
        else:
            rows.append(head + texts[rest[0]] + ends[e])

    weights = {}  # (e, e') -> weight string
    for sp in enumerate_nc(args.n, pair_only=not args.general, override_limits=args.override_limits):
        forest = nesting_forest(sp)
        texts = ["{" + ",".join(map(str, b)) + "}" for b in sp.blocks]
        kids = [0] * sp.block_count  # kids[b]: bitmask of b's children
        for pa, ch in forest.edges:
            kids[pa] |= 1 << ch
        tail = f', "inner": {forest.inner_count}, "outer": {forest.outer_count}, "covered": {json.dumps(sp.is_covered)}}}\n'
        ends = []  # ends[e]: the rest of a row after its blocks, for e disorders
        for e in range(forest.inner_count + 1):
            ep = forest.inner_count - e
            if (e, ep) not in weights:
                weights[e, ep] = str(MultiPoly.monomial(1, e, ep))
            ends.append(f']", "e": {e}, "eprime": {ep}, "weight": "{weights[e, ep]}"{tail}')
        rows = []
        walk('{"blocks": "[', 0, 0, tuple(range(sp.block_count)))
        sys.stdout.write("".join(rows))
    return 0


def _cmd_moments(args) -> int:
    from .moments import moment_report
    report = moment_report(args.n, route=args.route, override_limits=args.override_limits)
    routes = {name: str(poly if args.p is None else poly.evaluate(args.p, args.q))
              for name, poly in report.routes.items()}
    _print_json(
        {"schema": SCHEMA, "n": report.n, "routes": routes, "agreement": report.agreement}
    )
    return 0 if report.agreement else 1


def _cmd_verify(args) -> int:
    from .verify import run_all
    report = run_all(order=args.order, seed=args.seed)
    _print_json(
        {
            "schema": SCHEMA,
            "order": report.order,
            "seed": report.seed,
            "checks": [
                {"name": c.name, "status": "pass" if c.passed else "fail", "detail": c.detail}
                for c in report.checks
            ],
            "paper_errata": [vars(e) for e in report.errata],
            "ok": report.ok,
        }
    )
    return 0 if report.ok else 1


def _cmd_density(args) -> int:
    from .kesten import KestenMeasure
    mu = KestenMeasure(args.p, args.q)
    steps = args.grid - 1
    xs = [-mu.edge + (2.0 * mu.edge) * i / steps for i in range(args.grid)] if mu.edge > 0 else []
    lines = ["x,density"] + [f"{x!r},{mu.density(x)!r}" for x in xs] + ["", "atom,mass"]
    lines += [f"{pos!r},{mass!r}" for pos, mass in mu.atoms()]
    print("\n".join(lines))
    return 0


def _cmd_quadcheck(args) -> int:
    from .kesten import KestenMeasure
    from .moments import sequences_by_recursion
    mu = KestenMeasure(args.p, args.q)
    table = sequences_by_recursion(max(1, (args.nmax + 1) // 2))
    rows = []
    ok = True
    for n in range(1, args.nmax + 1):
        exact = Fraction(0) if n % 2 else table.r[n // 2].evaluate(args.p, args.q)
        got = mu.quadrature_moment(n)
        err = abs(got - float(exact))
        ok = ok and err <= args.tol
        rows.append({"n": n, "quadrature": got, "exact": str(exact), "abs_error": err})
    _print_json(
        {"schema": SCHEMA, "p": str(args.p), "q": str(args.q), "tolerance": args.tol, "rows": rows, "ok": ok}
    )
    return 0 if ok else 1


_INTERVAL_RE = re.compile(r"(\w+)=\[([^,\[\]]+),([^,\[\]]+)\]")


def _parse_intervals(text: str) -> dict:
    found = {}
    for m in _INTERVAL_RE.finditer(text):
        if m.group(1) in found:
            raise ValueError(f"--intervals declares {m.group(1)!r} twice; declare each name once")
        found[m.group(1)] = (m.group(2), m.group(3))
    residue = re.sub(r"[,\s]", "", _INTERVAL_RE.sub("", text))
    if not found or residue:
        raise ValueError(f"cannot parse --intervals {text!r}; expected name=[lo,hi],...")
    what = f"interval endpoints in {text!r} must be rationals"
    return {name: (_exact(lo, what), _exact(hi, what)) for name, (lo, hi) in found.items()}


def _cmd_brownian(args) -> int:
    from .fock import position_moment
    from .moments import mixed_moment_brownian
    from .partitions import IntervalSignature
    names = tuple(args.signature.split())
    if not names:
        raise ValueError("--signature must list at least one interval name")
    intervals = _parse_intervals(args.intervals)
    sig = IntervalSignature.from_named_intervals(names, intervals)
    operator = position_moment(sig, override_limits=args.override_limits)
    combinatorial = mixed_moment_brownian(sig, override_limits=args.override_limits)
    equal = operator == combinatorial
    _print_json(
        {
            "schema": SCHEMA,
            "signature": list(names),
            "intervals": {name: [str(lo), str(hi)] for name, (lo, hi) in sorted(intervals.items())},
            "operator_route": str(operator),
            "combinatorial_route": str(combinatorial),
            "equal": equal,
        }
    )
    return 0 if equal else 1


def _cmd_poisson(args) -> int:
    from .moments import poisson_moment
    print(str(poisson_moment(args.n, override_limits=args.override_limits)))
    return 0


def _cmd_clt(args) -> int:
    from .discrete import clt_leading_term, clt_moment
    value = clt_moment(args.N, args.moment, override_limits=args.override_limits)
    limit = clt_leading_term(args.moment, override_limits=args.override_limits)
    payload = {"schema": SCHEMA, "N": args.N, "moment": args.moment}
    if args.p is not None:
        v = value.evaluate(args.p, args.q)
        l = limit.evaluate(args.p, args.q)
        payload.update({"value": str(v), "limit": str(l), "distance": str(abs(v - l))})
    else:
        payload.update({"value": str(value), "limit": str(limit), "distance": None})
    _print_json(payload)
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser(argv) -> argparse.ArgumentParser:
    """Every subcommand is listed, but only the one named in argv (its first
    word) gets its arguments: adding them loads only the layers it runs."""
    parser = argparse.ArgumentParser(
        prog="onckesten",
        description="Exact two-parameter interpolation lab: ordered non-crossing "
        "partitions, Kesten-type moments, and symbolic Fock-space engines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pq(p, required=False):
        p.add_argument("--p", type=_rational, required=required, default=None, help="order weight p (a/b or decimal)")
        p.add_argument("--q", type=_rational, required=required, default=None, help="order weight q (a/b or decimal)")

    def add_override(p):
        p.add_argument("--override-limits", action="store_true", help="lift the built-in size guards (runtimes grow factorially)")

    def enumerate_args(p):
        p.add_argument("--n", type=int, required=True, help="ground-set size")
        p.add_argument("--general", action="store_true", help="all block sizes, not only pairs")
        add_override(p)

    def moments_args(p):
        from .moments import ROUTE_NAMES
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--route", choices=("all",) + ROUTE_NAMES, default="all")
        add_pq(p)
        add_override(p)

    def verify_args(p):
        from .verify import DEFAULT_ORDER, DEFAULT_SEED, MAX_ORDER
        p.add_argument("--order", type=int, default=DEFAULT_ORDER, help=f"moment order for the agreement checks (1..{MAX_ORDER})")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for the randomized signatures")

    def density_args(p):
        add_pq(p, required=True)
        p.add_argument("--grid", type=int, default=101, help="number of grid points (>= 2)")

    def quadcheck_args(p):
        add_pq(p, required=True)
        p.add_argument("--nmax", type=int, default=10, help="check moments 1..nmax")
        p.add_argument("--tol", type=float, default=1e-8)

    def brownian_args(p):
        p.add_argument("--signature", required=True, help="space-separated interval names, one per factor")
        p.add_argument("--intervals", required=True, help='declarations like "g=[0,1],f=[1,2]", each name once')
        add_override(p)

    def poisson_args(p):
        p.add_argument("--n", type=int, required=True)
        add_override(p)

    def clt_args(p):
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--moment", type=int, required=True)
        add_pq(p)
        add_override(p)

    named = next((word for word in argv if not word.startswith("-")), None)
    for name, fn, add_args, help_line, description in (
        ("enumerate", _cmd_enumerate, enumerate_args, "ordered non-crossing partitions as JSON lines",
         "One JSON object per ordered partition, blocks listed in coloring order, with disorder/order counts, "
         "weight monomial, nesting statistics and coveredness."),
        ("moments", _cmd_moments, moments_args, "moment r_n by one or all routes",
         "Canonical polynomial per route; with --p/--q, exact rational values."),
        ("verify", _cmd_verify, verify_args, "run the full cross-verification suite",
         "Named identity checks (stopping at the first failure) plus the paper_errata section; exit 1 unless "
         "everything passes."),
        ("density", _cmd_density, density_args, "measure density as CSV plus an atom table",
         "CSV section 'x,density' on a uniform grid over the support, a blank line, then CSV section "
         "'atom,mass' (two rows when p+q < 1, none otherwise)."),
        ("quadcheck", _cmd_quadcheck, quadcheck_args, "quadrature moments vs exact rational moments",
         "JSON rows (n, quadrature, exact, abs_error); exit 1 if any error exceeds the tolerance."),
        ("brownian", _cmd_brownian, brownian_args, "mixed-interval moment by both routes",
         'Example: brownian --signature "f f g g f f" --intervals "g=[0,1],f=[1,2]"'),
        ("poisson", _cmd_poisson, poisson_args, "compound moment as a polynomial in p, q, T", None),
        ("clt", _cmd_clt, clt_args, "exact moment of the normalized sum of N positions",
         "Exact phi(S_N^n) and its N -> infinity limit; with --p/--q both are evaluated and the exact "
         "distance reported."),
    ):
        p = sub.add_parser(name, help=help_line, description=description)
        if name == named:
            add_args(p)
            p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    # exact values may run past CPython's 4,300-digit int <-> str guard; lift
    # it while the command runs and give an in-process caller its setting back
    digits_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        parser = build_parser(sys.argv[1:] if argv is None else argv)
        args = parser.parse_args(argv)
        if getattr(args, "grid", 2) < 2:
            parser.error("--grid must be at least 2")
        if getattr(args, "nmax", 1) < 1:
            parser.error("--nmax must be at least 1")
        if not 0 <= getattr(args, "tol", 0.0) < float("inf"):
            parser.error("--tol must be a finite nonnegative number")
        if (getattr(args, "p", None) is None) != (getattr(args, "q", None) is None):
            parser.error("--p and --q must be given together")
        try:
            return args.fn(args)
        except ValueError as exc:
            parser.error(str(exc))
        except BrokenPipeError:
            # The reader closed stdout.  Point it at the null device so that the
            # flush at interpreter exit cannot fail a second time.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        except Exception as exc:  # a failed computation: a QuadratureError or any other
            print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
            return 1
    finally:
        sys.set_int_max_str_digits(digits_limit)


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
