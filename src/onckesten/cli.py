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
- ``poisson``      the canonical polynomial in p, q, T as plain text.
- ``clt``          one JSON document with the exact moment of the normalized
                   sum, its limit, and (under --p/--q) the exact distance.

Exit codes: 0 success, 1 any oracle/equality failure, 2 usage errors.
Rationals parse as "a/b" or decimal strings and must be nonnegative.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import discrete, fock, moments, verify as verify_mod
from .algebra import MultiPoly
from .kesten import KestenMeasure
from .partitions import IntervalSignature, disorder_order_counts, enumerate_ordered, nesting_forest

SCHEMA = "onc-kesten/1"


def _rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational (use a/b or a decimal)")
    if value < 0:
        raise argparse.ArgumentTypeError("parameters must be nonnegative")
    return value


def _require_pq_pair(parser: argparse.ArgumentParser, args) -> bool:
    if (args.p is None) != (args.q is None):
        parser.error("--p and --q must be given together")
    return args.p is not None


def _print_json(payload: dict):
    print(json.dumps(payload, indent=2))


# -- subcommands ---------------------------------------------------------------


def _cmd_enumerate(args, parser) -> int:
    for op in enumerate_ordered(
        args.n, pair_only=not args.general, override_limits=args.override_limits
    ):
        e, eprime = disorder_order_counts(op)
        forest = nesting_forest(op.base)
        print(
            json.dumps(
                {
                    "blocks": str(op),
                    "e": e,
                    "eprime": eprime,
                    "weight": str(MultiPoly.monomial(1, e, eprime)),
                    "inner": forest.inner_count,
                    "outer": forest.outer_count,
                    "covered": op.base.is_covered,
                }
            )
        )
    return 0


def _cmd_moments(args, parser) -> int:
    report = moments.moment_report(args.n, route=args.route, override_limits=args.override_limits)
    if _require_pq_pair(parser, args):
        routes = {name: str(poly.evaluate(args.p, args.q)) for name, poly in report.routes.items()}
    else:
        routes = {name: str(poly) for name, poly in report.routes.items()}
    _print_json(
        {"schema": SCHEMA, "n": report.n, "routes": routes, "agreement": report.agreement}
    )
    return 0 if report.agreement else 1


def _cmd_verify(args, parser) -> int:
    report = verify_mod.run_all(order=args.order, seed=args.seed)
    _print_json(
        {
            "schema": SCHEMA,
            "order": report.order,
            "seed": report.seed,
            "checks": [
                {"name": c.name, "status": "pass" if c.passed else "fail", "detail": c.detail}
                for c in report.checks
            ],
            "paper_errata": [
                {
                    "name": e.name,
                    "published": e.published,
                    "computed": e.computed,
                    "resolution": e.resolution,
                }
                for e in report.errata
            ],
            "ok": report.ok,
        }
    )
    return 0 if report.ok else 1


def _measure(p: Fraction, q: Fraction) -> KestenMeasure:
    if p + q == 0:
        return KestenMeasure.boolean_limit()
    return KestenMeasure(float(p), float(q))


def _cmd_density(args, parser) -> int:
    mu = _measure(args.p, args.q)
    print("x,density")
    if mu.edge > 0:
        steps = args.grid - 1
        for i in range(args.grid):
            x = -mu.edge + (2.0 * mu.edge) * i / steps
            print(f"{x!r},{mu.density(x)!r}")
    print()
    print("atom,mass")
    for pos, mass in mu.atoms():
        print(f"{pos!r},{mass!r}")
    return 0


def _cmd_quadcheck(args, parser) -> int:
    mu = _measure(args.p, args.q)
    table = moments.sequences_by_recursion(max(1, (args.nmax + 1) // 2))
    rows = []
    ok = True
    for n in range(1, args.nmax + 1):
        exact = Fraction(0) if n % 2 else table.r[n // 2].evaluate(args.p, args.q)
        got = mu.quadrature_moment(n)
        err = abs(got - float(exact))
        ok = ok and err <= args.tol
        rows.append({"n": n, "quadrature": got, "exact": str(exact), "abs_error": err})
    _print_json(
        {
            "schema": SCHEMA,
            "p": str(args.p),
            "q": str(args.q),
            "tolerance": args.tol,
            "rows": rows,
            "ok": ok,
        }
    )
    return 0 if ok else 1


_INTERVAL_RE = re.compile(r"(\w+)=\[([^,\[\]]+),([^,\[\]]+)\]")


def _parse_intervals(parser, text: str) -> dict:
    found = {}
    for m in _INTERVAL_RE.finditer(text):
        found[m.group(1)] = (m.group(2), m.group(3))
    residue = re.sub(r"[,\s]", "", _INTERVAL_RE.sub("", text))
    if not found or residue:
        parser.error(f"cannot parse --intervals {text!r}; expected name=[lo,hi],...")
    try:
        return {name: (Fraction(lo), Fraction(hi)) for name, (lo, hi) in found.items()}
    except (ValueError, ZeroDivisionError):
        parser.error(f"interval endpoints in {text!r} must be rationals")


def _cmd_brownian(args, parser) -> int:
    names = tuple(args.signature.split())
    if not names:
        parser.error("--signature must list at least one interval name")
    intervals = _parse_intervals(parser, args.intervals)
    sig = IntervalSignature.from_named_intervals(names, intervals)
    operator = fock.position_moment(sig, override_limits=args.override_limits)
    combinatorial = moments.mixed_moment_brownian(sig, override_limits=args.override_limits)
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


def _cmd_poisson(args, parser) -> int:
    print(str(moments.poisson_moment(args.n, override_limits=args.override_limits)))
    return 0


def _cmd_clt(args, parser) -> int:
    value = discrete.clt_moment(args.N, args.moment, override_limits=args.override_limits)
    limit = discrete.clt_leading_term(args.moment, override_limits=args.override_limits)
    payload = {"schema": SCHEMA, "N": args.N, "moment": args.moment}
    if _require_pq_pair(parser, args):
        v = value.evaluate(args.p, args.q)
        l = limit.evaluate(args.p, args.q)
        payload.update({"value": str(v), "limit": str(l), "distance": str(abs(v - l))})
    else:
        payload.update({"value": str(value), "limit": str(limit), "distance": None})
    _print_json(payload)
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument(
            "--override-limits",
            action="store_true",
            help="lift the built-in size guards (runtimes grow factorially)",
        )

    p_enum = sub.add_parser(
        "enumerate",
        help="ordered non-crossing partitions as JSON lines",
        description="One JSON object per ordered partition, blocks listed in coloring "
        "order, with disorder/order counts, weight monomial, nesting statistics and coveredness.",
    )
    p_enum.add_argument("--n", type=int, required=True, help="ground-set size")
    p_enum.add_argument("--general", action="store_true", help="all block sizes, not only pairs")
    add_override(p_enum)
    p_enum.set_defaults(fn=_cmd_enumerate)

    p_mom = sub.add_parser(
        "moments",
        help="moment r_n by one or all routes",
        description="Canonical polynomial per route; with --p/--q, exact rational values.",
    )
    p_mom.add_argument("--n", type=int, required=True)
    p_mom.add_argument("--route", choices=("all",) + moments.ROUTE_NAMES, default="all")
    add_pq(p_mom)
    add_override(p_mom)
    p_mom.set_defaults(fn=_cmd_moments)

    p_ver = sub.add_parser(
        "verify",
        help="run the full cross-verification suite",
        description="Named identity checks (stopping at the first failure) plus the "
        "paper_errata section; exit 1 unless everything passes.",
    )
    p_ver.add_argument("--order", type=int, default=verify_mod.DEFAULT_ORDER, help="moment order for the agreement checks (1..7)")
    p_ver.add_argument("--seed", type=int, default=verify_mod.DEFAULT_SEED, help="seed for the randomized signatures")
    p_ver.set_defaults(fn=_cmd_verify)

    p_den = sub.add_parser(
        "density",
        help="measure density as CSV plus an atom table",
        description="CSV section 'x,density' on a uniform grid over the support, a blank "
        "line, then CSV section 'atom,mass' (two rows when p+q < 1, none otherwise).",
    )
    add_pq(p_den, required=True)
    p_den.add_argument("--grid", type=int, default=101, help="number of grid points (>= 2)")
    p_den.set_defaults(fn=_cmd_density)

    p_quad = sub.add_parser(
        "quadcheck",
        help="quadrature moments vs exact rational moments",
        description="JSON rows (n, quadrature, exact, abs_error); exit 1 if any error "
        "exceeds the tolerance.",
    )
    add_pq(p_quad, required=True)
    p_quad.add_argument("--nmax", type=int, default=10, help="check moments 1..nmax")
    p_quad.add_argument("--tol", type=float, default=1e-8)
    p_quad.set_defaults(fn=_cmd_quadcheck)

    p_br = sub.add_parser(
        "brownian",
        help="mixed-interval moment by both routes",
        description='Example: brownian --signature "f f g g f f" --intervals "g=[0,1],f=[1,2]"',
    )
    p_br.add_argument("--signature", required=True, help="space-separated interval names, one per factor")
    p_br.add_argument("--intervals", required=True, help='declarations like "g=[0,1],f=[1,2]"')
    add_override(p_br)
    p_br.set_defaults(fn=_cmd_brownian)

    p_poi = sub.add_parser(
        "poisson",
        help="compound moment as a polynomial in p, q, T",
    )
    p_poi.add_argument("--n", type=int, required=True)
    add_override(p_poi)
    p_poi.set_defaults(fn=_cmd_poisson)

    p_clt = sub.add_parser(
        "clt",
        help="exact moment of the normalized sum of N positions",
        description="Exact phi(S_N^n) and its N -> infinity limit; with --p/--q both are "
        "evaluated and the exact distance reported.",
    )
    p_clt.add_argument("--N", type=int, required=True)
    p_clt.add_argument("--moment", type=int, required=True)
    add_pq(p_clt)
    add_override(p_clt)
    p_clt.set_defaults(fn=_cmd_clt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "grid", 2) < 2:
        parser.error("--grid must be at least 2")
    if getattr(args, "nmax", 1) < 1:
        parser.error("--nmax must be at least 1")
    try:
        return args.fn(args, parser)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
