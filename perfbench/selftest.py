"""Self-test of the benchmark: its oracles, its failure counting, its counts.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that

1. the import-free oracles agree with brute force over pairings, and the
   polynomial parser reads the package's canonical text;
2. a wrong answer or stray stderr output raises the failure count: passes
   run through the real pipeline, with an interpreter that first replaces
   one package function by a wrong one;
3. the exact per-layer counts are identical across two traced runs with the
   same seed, on every workload.

It exits 0 when every check holds.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import oracle
import run
import workloads

SEED = 11


def check_oracles():
    for n in range(1, 7):
        nested = {}
        for pairing in oracle.nc_pairings(tuple(range(2 * n))):
            inner = sum(any(a < c < d < b for a, b in pairing) for c, d in pairing)
            nested[inner] = nested.get(inner, 0) + 1
        want = {k: oracle.ballot(n, k) for k in range(n) if oracle.ballot(n, k)}
        assert nested == want, f"ballot numbers disagree with brute force at n={n}: {nested} != {want}"
        assert sum(oracle.narayana(n, k) for k in range(1, n + 1)) == oracle.catalan(n)
        assert oracle.evaluate(oracle.r_poly(n), 1, 1) == oracle.catalan(n)
    text = "T + 3T^2 + 3/2pT^2 - 1/3p^2q^3T^3 + 2"
    assert oracle.parse_poly(text) == {
        (0, 0, 1): 1, (0, 0, 2): 3, (1, 0, 2): Fraction(3, 2), (2, 3, 3): Fraction(-1, 3), (0, 0, 0): 2,
    }
    assert oracle.parse_poly("-p") == {(1, 0, 0): -1} and oracle.parse_poly("0") == {}
    assert oracle.mixed_moment_at((0, 0, 0, 0), (Fraction(2),), 1) == 2 * 4  # two pairings, lambda^2
    print("oracles: ok")


_PATCH = "import sys; sys.path.insert(0, {here!r}); import onckesten, onckesten.moments as m; {patch}; import runpy; "

# Each fault makes one operation wrong: a route returns r_5 + 1, or a
# subcommand writes to stderr, or a route disagrees with the others.
FAULTS = {
    "series": "_j = m.r_by_jacobi; onckesten.r_by_jacobi = m.r_by_jacobi = "
              "lambda n: [r + 1 if i == 5 else r for i, r in enumerate(_j(n))]",
    "enumeration": "_e = m.r_by_enumeration; onckesten.r_by_enumeration = m.r_by_enumeration = "
                   "lambda n, *a: _e(n, *a) * 2 if n == 3 else _e(n, *a)",
    "verify": "_d = m.r_by_delaney; m.r_by_delaney = lambda n: _d(n) + 1 if n == 4 else _d(n)",
    "cli": "_p = m.poisson_moment; m.poisson_moment = "
           "lambda n, **k: (sys.stderr.write('warning\\n'), _p(n, **k))[1]",
}


def check_failures_counted():
    inject = {name: _PATCH.format(here=str(run.HERE), patch=patch) for name, patch in FAULTS.items()}
    for name in workloads.NAMES:
        inputs = workloads.inputs(name, SEED)
        clean = run.run_pass(name, inputs, "plain", f"selftest.{name}")
        assert clean.failed == 0, f"{name}: clean pass failed: {clean.reasons}"
        saved = run.CLIENT_ARGS, run.CLI_ARGS
        run.CLIENT_ARGS = ["-c", inject[name] + f"runpy.run_path({str(run.HERE / 'client.py')!r}, run_name='__main__')"]
        run.CLI_ARGS = ["-c", inject[name] + "runpy.run_module('onckesten.cli', run_name='__main__', alter_sys=True)"]
        try:
            broken = run.run_pass(name, inputs, "plain", f"selftest.{name}.fault")
        finally:
            run.CLIENT_ARGS, run.CLI_ARGS = saved
        assert broken.failed == 1 and broken.attempted == clean.attempted, (
            f"{name}: injected fault gave {broken.failed} failures of {broken.attempted}: {broken.reasons}"
        )
        print(f"{name}: fail_rate 0/{clean.attempted} clean, 1/{broken.attempted} with one wrong answer "
              f"({broken.reasons[0][:100]})")


def check_exact_counts():
    for name in workloads.NAMES:
        inputs = workloads.inputs(name, SEED)
        first, second = (run.traced_run(name, inputs, 0, SEED) for _ in range(2))
        for passes, metrics, problems in (first, second):
            assert not problems, problems
            assert all(p.failed == 0 for p in passes), [p.reasons for p in passes]
        diff = {key: (first[1][key][0], second[1][key][0]) for key in run.EXACT
                if first[1][key][0] != second[1][key][0]}
        assert not diff, f"{name}: exact counts differ between traced runs: {diff}"
        shown = {key: first[1][key][0] for key in run.EXACT if first[1][key][0]}
        print(f"{name}: exact counts identical across two traced runs: {shown}")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    check_oracles()
    check_failures_counted()
    check_exact_counts()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
