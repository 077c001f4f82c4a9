"""Answers the benchmark checks the package against, derived without it.

Nothing here imports ``onckesten``.  Every expected value comes from a closed
form built on ``math.comb`` or from a brute-force count over non-crossing
pairings generated here:

* r_n(p, q) = sum_k D(n, k) ((p+q)/2)^k with the ballot numbers
  D(n, k) = C(n+k-1, k) - C(n+k-1, k-1), so r_n(1,1) = Catalan(n),
  r_n(0,1) = r_n(1,0) = C(2n,n)/2^n and r_n(0,0) = 1;
* E(n, k, j) totals: sum over e + e' = k of the (e, e') histogram is
  n! D(n, k), and the whole histogram sums to n! Catalan(n);
* the covered weight sum at p = q = 1 is n! Catalan(n-1);
* the compound moment at p = q = 1 has the Narayana numbers as its
  T-coefficients;
* a mixed interval moment at p = q = 1 (free case) is the number of
  non-crossing pairings joining positions of the same interval times
  prod lambda_i^{b_i}, and at p = q = 0 only the pairing of neighbours
  survives;
* the Kesten density, atoms and masses follow their closed forms.

Each ``check_*`` function returns ``None`` when an output is right and a
one-line reason when it is wrong.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from math import comb, factorial

# -- closed forms ------------------------------------------------------------------


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def ballot(n: int, k: int) -> int:
    """D(n, k): non-crossing pairings of [2n] with k nested blocks."""
    if n < 1 or not 0 <= k <= n - 1:
        return 0
    return comb(n + k - 1, k) - (comb(n + k - 1, k - 1) if k else 0)


def narayana(n: int, k: int) -> int:
    return comb(n, k) * comb(n, k - 1) // n


def r_poly(n: int) -> dict:
    """r_n as {(dp, dq, 0): coefficient}: D(n,k) C(k,j) / 2^k at p^j q^(k-j)."""
    if n == 0:
        return {(0, 0, 0): Fraction(1)}
    out = {}
    for k in range(n):
        for j in range(k + 1):
            out[(j, k - j, 0)] = Fraction(ballot(n, k) * comb(k, j), 2**k)
    return out


def r_value(n: int, p: Fraction, q: Fraction) -> Fraction:
    t = (p + q) / 2
    return sum((ballot(n, k) * t**k for k in range(n)), Fraction(0)) if n else Fraction(1)


def evaluate(poly: dict, p, q, t=1):
    return sum((c * p**dp * q**dq * t**dt for (dp, dq, dt), c in poly.items()), Fraction(0))


def kesten_density(p: float, q: float, x: float) -> float:
    s = p + q
    if abs(x) >= math.sqrt(2.0 * s):
        return 0.0
    return math.sqrt(2.0 * s - x * x) / (math.pi * (2.0 - (2.0 - s) * x * x))


def kesten_atoms(p: float, q: float) -> list:
    s = p + q
    if s >= 1.0:
        return []
    z0 = 1.0 / math.sqrt(1.0 - s / 2.0)
    mass = (1.0 - s) / (2.0 - s)
    return [(z0, mass), (-z0, mass)]


# -- pairings, counted from the definition -------------------------------------------


def nc_pairings(points: tuple):
    """Non-crossing pairings of ``points``: the first point pairs with a
    partner that leaves an even number of points on each side."""
    if not points:
        yield ()
        return
    for idx in range(1, len(points), 2):
        for inside in nc_pairings(points[1:idx]):
            for outside in nc_pairings(points[idx + 1:]):
                yield ((points[0], points[idx]),) + inside + outside


def mixed_moment_at(assignment: tuple, lengths: tuple, pq: int) -> Fraction:
    """Mixed interval moment at p = q = 1 (``pq=1``) or p = q = 0 (``pq=0``)."""
    n = len(assignment)
    counts = [assignment.count(i) for i in range(len(lengths))]
    if n % 2 or any(c % 2 for c in counts):
        return Fraction(0)
    measure = Fraction(1)
    for lam, c in zip(lengths, counts):
        measure *= lam ** (c // 2)
    if pq == 0:
        neighbours = all(assignment[i] == assignment[i + 1] for i in range(0, n, 2))
        return measure if neighbours else Fraction(0)
    same = sum(
        all(assignment[a] == assignment[b] for a, b in pairing)
        for pairing in nc_pairings(tuple(range(n)))
    )
    return same * measure


# -- output formats -----------------------------------------------------------------


def poly_from_terms(terms) -> dict:
    """The client's [[dp, dq, dt, "a/b"], ...] list as a coefficient dict."""
    return {(dp, dq, dt): Fraction(c) for dp, dq, dt, c in terms}


_TERM = re.compile(r"^(\d+(?:/\d+)?)?((?:[pqT](?:\^\d+)?)*)$")
_FACTOR = re.compile(r"([pqT])(?:\^(\d+))?")


def parse_poly(text: str) -> dict:
    """Parse the package's canonical polynomial text, e.g. ``1/2p^2T - q + 3``."""
    text = text.strip()
    if text == "0":
        return {}
    sign, out = 1, {}
    if text.startswith("-"):
        sign, text = -1, text[1:]
    for piece in re.split(r" ([+-]) ", text):
        if piece in "+-":
            sign = 1 if piece == "+" else -1
            continue
        m = _TERM.match(piece)
        if not m or not piece:
            raise ValueError(f"cannot parse polynomial term {piece!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        degree = {"p": 0, "q": 0, "T": 0}
        for name, exp in _FACTOR.findall(m.group(2)):
            degree[name] += int(exp or 1)
        key = (degree["p"], degree["q"], degree["T"])
        out[key] = out.get(key, Fraction(0)) + sign * coeff
    return out


def _rationals(point) -> tuple:
    return Fraction(point[0]), Fraction(point[1])


def _poly_mismatch(label: str, got: dict, want: dict):
    if got == want:
        return None
    for key in sorted(set(got) | set(want)):
        if got.get(key, 0) != want.get(key, 0):
            return f"{label}: coefficient {key} is {got.get(key, 0)}, expected {want.get(key, 0)}"
    return f"{label}: differs"


def _check_r(label: str, n: int, poly: dict):
    bad = _poly_mismatch(label, poly, r_poly(n))
    if bad:
        return bad
    special = (
        ((1, 1), Fraction(catalan(n))),
        ((0, 1), Fraction(comb(2 * n, n), 2**n)),
        ((1, 0), Fraction(comb(2 * n, n), 2**n)),
        ((0, 0), Fraction(1)),
    )
    for (pv, qv), want in special:
        if evaluate(poly, pv, qv) != want:
            return f"{label}: value at ({pv},{qv}) is not {want}"
    return None


# -- in-process calls (series, enumeration) -----------------------------------------------


def check_call(name: str, result, spec: dict):
    """Check one public call's serialized result; ``name`` is "function:arg"."""
    func, _, arg = name.partition(":")
    if func in ("sequences_by_recursion", "r_by_closed_form", "r_by_jacobi"):
        if len(result) != spec["order"] + 1:
            return f"{func}: {len(result)} coefficients, expected {spec['order'] + 1}"
        for n, terms in enumerate(result):
            bad = _check_r(f"{func} r_{n}", n, poly_from_terms(terms))
            if bad:
                return bad
        return None
    if func == "r_by_delaney":
        return _check_r(name, int(arg), poly_from_terms(result))
    if func == "r_by_enumeration":
        n, poly = int(arg), poly_from_terms(result)
        for p, q in map(_rationals, spec["points"]):
            if evaluate(poly, p, q) != r_value(n, p, q):
                return f"{name}: value at ({p},{q}) is not {r_value(n, p, q)}"
        return _check_r(name, n, poly)
    if func == "evaluate":
        n, i = map(int, arg.split("/"))
        p, q = _rationals(spec["points"][i])
        want = r_value(n, p, q)
        return None if Fraction(result) == want else f"{name}: {result} != {want}"
    if func == "series_identity_checks":
        if len(result) != spec["identity_expected"]:
            return f"{len(result)} identities reported, expected {spec['identity_expected']}"
        failed = [label for label, passed in result if passed is not True]
        return f"identity {failed[0]} failed" if failed else None
    if func == "gen_euler_histogram":
        n = spec["euler_n"]
        by_inner: dict = {}
        for e, ep, count in result:
            by_inner[e + ep] = by_inner.get(e + ep, 0) + count
        want = {k: factorial(n) * ballot(n, k) for k in range(n) if ballot(n, k)}
        if by_inner != want:
            return f"histogram by e+e' {by_inner} != n! D(n,k) {want}"
        total = sum(by_inner.values())
        return None if total == factorial(n) * catalan(n) else f"histogram total {total}"
    if func == "covered_weight_sum":
        n = spec["covered_n"]
        got = evaluate(poly_from_terms(result), 1, 1)
        want = factorial(n) * catalan(n - 1)
        return None if got == want else f"covered sum at (1,1) is {got}, expected {want}"
    if func == "poisson_moment":
        return _check_compound(poly_from_terms(result), spec["poisson_n"])
    if func == "mixed_moment_brownian":
        return _check_mixed(name, poly_from_terms(result), spec["signatures"][int(arg)])
    return f"no oracle for {name}"


def _check_mixed(label: str, poly: dict, sig: dict):
    lengths = tuple(Fraction(x) for x in sig["lengths"])
    assignment = tuple(sig["assignment"])
    for pq in (1, 0):
        got, want = evaluate(poly, pq, pq), mixed_moment_at(assignment, lengths, pq)
        if got != want:
            return f"{label} {assignment}: value at p=q={pq} is {got}, expected {want}"
    return None


def _check_compound(poly: dict, n: int):
    by_t: dict = {}
    for (dp, dq, dt), c in poly.items():
        by_t[dt] = by_t.get(dt, 0) + c
    want = {k: narayana(n, k) for k in range(1, n + 1)}
    return None if by_t == want else f"compound moment T-coefficients {by_t} != Narayana {want}"


# -- processes (verify, cli) ------------------------------------------------------------

CHECK_NAMES = (
    "five-route-agreement",
    "moment-specializations",
    "single-interval-word-table",
    "mixed-moment-engines",
    "pyramid-factorizations",
    "generalized-euler-numbers",
    "poisson-route-equivalence",
    "partition-word-correspondence",
    "word-vanishing-criterion",
    "covered-and-outer-block-sums",
    "nesting-depth-distribution",
    "ordered-reversal-symmetry",
    "series-identities",
    "clt-moments-and-rate",
    "kesten-quadrature-analytics",
)

ERRATA = {
    "two-interval-sixth-moment": "1 + 1/2p^2 + 1/2pq",
    "compound-fourth-moment-cubic-coefficient": "3 + p + q + 1/3p^2 + 1/3pq + 1/3q^2",
}


def _check_verify(out: str, job: dict):
    doc = json.loads(out)
    if doc.get("ok") is not True or doc.get("seed") != job["seed"]:
        return f"verify reported ok={doc.get('ok')} for seed {doc.get('seed')}"
    names = tuple(c["name"] for c in doc["checks"])
    if names != CHECK_NAMES:
        return f"verify ran checks {names}"
    failed = [c["name"] for c in doc["checks"] if c["status"] != "pass"]
    if failed:
        return f"verify check {failed[0]} failed"
    errata = {e["name"]: e["computed"] for e in doc["paper_errata"]}
    return None if errata == ERRATA else f"verify errata {errata}"


def check_cli(out: str, job: dict):
    """Check one CLI subcommand's stdout against the job that produced it."""
    kind = job["command"]
    if kind == "enumerate":
        return _check_enumerate(out, job["n"])
    if kind == "poisson":
        return _check_compound(parse_poly(out), job["n"])
    if kind == "verify":
        return _check_verify(out, job)
    if kind == "density":
        return _check_density(out, job)
    doc = json.loads(out)
    if kind == "moments":
        p, q = _rationals(job["point"])
        want = str(r_value(job["n"], p, q))
        wrong = {k: v for k, v in doc["routes"].items() if v != want}
        if doc["agreement"] is not True or wrong or len(doc["routes"]) != 4:
            return f"moments routes {doc['routes']} (agreement {doc['agreement']}), expected {want}"
        return None
    if kind == "clt":
        p, q = _rationals(job["point"])
        value, limit = Fraction(doc["value"]), Fraction(doc["limit"])
        if limit != r_value(job["moment"] // 2, p, q):
            return f"clt limit {limit} is not r_{job['moment'] // 2}"
        if Fraction(doc["distance"]) != abs(value - limit):
            return "clt distance is not |value - limit|"
        return None if abs(value - limit) * job["N"] <= 50 else f"clt gap {abs(value - limit)} exceeds 50/N"
    if kind == "brownian":
        if doc["equal"] is not True or doc["operator_route"] != doc["combinatorial_route"]:
            return "brownian routes disagree"
        return _check_mixed("brownian", parse_poly(doc["operator_route"]), job)
    if kind == "quadcheck":
        p, q = _rationals(job["point"])
        rows = doc["rows"]
        if doc["ok"] is not True or len(rows) != job["nmax"]:
            return f"quadcheck ok={doc['ok']} with {len(rows)} rows"
        for row in rows:
            n = row["n"]
            want = r_value(n // 2, p, q) if n % 2 == 0 else Fraction(0)
            if Fraction(row["exact"]) != want or not row["abs_error"] <= 1e-8:
                return f"quadcheck row {n}: exact {row['exact']} (want {want}), error {row['abs_error']}"
        return None
    return f"no oracle for {kind}"


def _check_enumerate(out: str, n: int):
    lines = out.splitlines()
    half = n // 2
    if len(lines) != factorial(half) * catalan(half):
        return f"enumerate printed {len(lines)} lines"
    inner: dict = {}
    seen = set()
    for line in lines:
        row = json.loads(line)
        if row["e"] + row["eprime"] != row["inner"] or row["inner"] + row["outer"] != half:
            return f"enumerate row {line} is inconsistent"
        inner[row["inner"]] = inner.get(row["inner"], 0) + 1
        seen.add(row["blocks"])
    want = {k: factorial(half) * ballot(half, k) for k in range(half) if ballot(half, k)}
    if inner != want:
        return f"enumerate nesting counts {inner} != n! D(n,k) {want}"
    return None if len(seen) == len(lines) else "enumerate repeated an ordered partition"


def _check_density(out: str, job: dict):
    p, q = (float(x) for x in _rationals(job["point"]))
    curve, _, atoms = out.partition("\n\n")
    rows = curve.splitlines()
    if rows[0] != "x,density" or len(rows) != job["grid"] + 1:
        return f"density printed {len(rows) - 1} grid rows"
    xs, ys = zip(*((float(a), float(b)) for a, b in (r.split(",") for r in rows[1:])))
    for x, y in zip(xs, ys):
        if abs(y - kesten_density(p, q, x)) > 1e-12 * max(1.0, y):
            return f"density at {x!r} is {y!r}"
    atom_rows = atoms.splitlines()
    if atom_rows[0] != "atom,mass":
        return "density atom table is missing"
    got = [tuple(float(v) for v in r.split(",")) for r in atom_rows[1:]]
    want = kesten_atoms(p, q)
    if len(got) != len(want) or any(abs(a - b) > 1e-12 for g, w in zip(got, want) for a, b in zip(g, w)):
        return f"density atoms {got} != {want}"
    area = sum((xs[i + 1] - xs[i]) * (ys[i] + ys[i + 1]) / 2 for i in range(len(xs) - 1))
    mass = area + sum(m for _, m in got)
    return None if abs(mass - 1.0) < 1e-2 else f"density mass {mass}"
