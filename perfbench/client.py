"""One cold pass of a workload in a fresh interpreter.

``run.py`` starts this file once per pass, so the package's process-wide
caches (``nesting_forest``, ``clt_class_sums``) start empty every time.

    client.py series|enumeration MODE PATH SPEC_JSON
    client.py cli MODE PATH SUBCOMMAND ARGS...

MODE is ``plain``, ``trace`` or ``profile``; PATH receives the trace or the
profile summary and is ignored (pass ``-``) in ``plain`` mode.

``series`` and ``enumeration`` make the workload's public calls in a closed
loop, time each one and print one JSON object with, per call, its time and
its result in a plain form the oracle can read.  ``cli`` runs the
command-line entry point in this process, so its output is the subcommand's
own stdout; it exists for the traced run, which has to wrap the package
before the subcommand runs.

``trace`` wraps the layer boundaries (see ``spans.py``) and writes the spans
and counts to PATH.  ``profile`` runs the pass under cProfile and writes the
kernel's call counts and self time to PATH.
"""

import cProfile
import json
import sys
import time
from fractions import Fraction

import onckesten
import spans


def _terms(poly) -> list:
    return [[dp, dq, dt, str(c)] for (dp, dq, dt), c in poly.items()]


class Calls:
    """Times each public call and keeps its serialized result."""

    def __init__(self):
        self.ops = []

    def __call__(self, name, fn, encode):
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed call is a failed operation, not a crash
            self.ops.append({"name": name, "s": time.perf_counter() - start, "error": repr(exc)})
            return None
        elapsed = time.perf_counter() - start
        self.ops.append({"name": name, "s": elapsed, "result": encode(result)})
        return result


def series(spec: dict, call: Calls):
    ok = onckesten
    order = spec["order"]
    points = [(Fraction(p), Fraction(q)) for p, q in spec["points"]]
    table = call("sequences_by_recursion", lambda: ok.sequences_by_recursion(order),
                 lambda t: [_terms(r) for r in t.r])
    call("r_by_closed_form", lambda: ok.r_by_closed_form(order), lambda rs: [_terms(r) for r in rs])
    call("r_by_jacobi", lambda: ok.r_by_jacobi(order), lambda rs: [_terms(r) for r in rs])
    for n in range(1, order + 1):
        call(f"r_by_delaney:{n}", lambda: ok.r_by_delaney(n), _terms)
    call("series_identity_checks", lambda: ok.series_identity_checks(spec["identity_order"]),
         lambda checks: [[c.name, c.passed] for c in checks])
    for n in range(1, order + 1):
        poly = table.r[n] if table is not None else None
        for i, (p, q) in enumerate(points):
            call(f"evaluate:{n}/{i}", lambda: poly.evaluate(p, q), str)


def enumeration(spec: dict, call: Calls):
    ok = onckesten
    from onckesten import moments
    from onckesten.partitions import IntervalSignature

    for n in range(1, spec["max_n"] + 1):
        call(f"r_by_enumeration:{n}", lambda: ok.r_by_enumeration(n), _terms)
    call("gen_euler_histogram", lambda: moments.gen_euler_histogram(spec["euler_n"]),
         lambda hist: [[e, ep, c] for (e, ep), c in hist.items()])
    call("covered_weight_sum", lambda: moments.covered_weight_sum(spec["covered_n"]), _terms)
    call("poisson_moment", lambda: ok.poisson_moment(spec["poisson_n"]), _terms)
    for i, sig in enumerate(spec["signatures"]):
        signature = IntervalSignature(tuple(Fraction(x) for x in sig["lengths"]), tuple(sig["assignment"]))
        call(f"mixed_moment_brownian:{i}", lambda: ok.mixed_moment_brownian(signature), _terms)


def run_cli(argv: list) -> int:
    from onckesten import cli

    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        return exc.code if isinstance(exc.code, int) else 1


JOBS = {"series": series, "enumeration": enumeration}


def main(args: list) -> int:
    job, mode, path, payload = args[0], args[1], args[2], args[3:]
    tracer = spans.Tracer() if mode == "trace" else None
    originals = spans.install(tracer) if tracer else None
    profile = cProfile.Profile() if mode == "profile" else None

    if profile:
        profile.enable()
    if job == "cli":
        rc = run_cli(payload)
    else:
        call = Calls()
        JOBS[job](json.loads(payload[0]), call)
        rc = 0
    if profile:
        profile.disable()
    if job != "cli":
        json.dump({"ops": call.ops}, sys.stdout)
    sys.stdout.flush()

    if tracer:
        spans.cache_counts(tracer, originals)
        with open(path, "w") as fh:
            json.dump(tracer.report(), fh)
    if profile:
        with open(path, "w") as fh:
            json.dump(spans.profile_summary(profile), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
