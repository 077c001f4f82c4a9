"""The public surface: every parameter a caller may leave out, pinned.

A new default (an option) shows up here as an edit of the literal set, so
it is reviewed as an interface change rather than slipping in with a body.
"""

from __future__ import annotations

import inspect

import onckesten

DEFAULTED = {
    "FockVector(terms=None)",
    "FockVector(vacuum=MultiPoly(0))",
    "KestenMeasure.quadrature_moment(tol=1e-10)",
    "MultiPoly(terms=())",
    "MultiPoly.coeff(dq=0)",
    "MultiPoly.coeff(dt=0)",
    "MultiPoly.evaluate(t=None)",
    "MultiPoly.monomial(dp=0)",
    "MultiPoly.monomial(dq=0)",
    "MultiPoly.monomial(dt=0)",
    "UniPoly(coeffs=())",
    "clt_leading_term(override_limits=False)",
    "clt_moment(override_limits=False)",
    "enumerate_nc(override_limits=False)",
    "enumerate_nc(pair_only=False)",
    "enumerate_ordered(outer_blocks=None)",
    "enumerate_ordered(override_limits=False)",
    "enumerate_ordered(pair_only=False)",
    "mixed_moment_brownian(override_limits=False)",
    "moment_report(override_limits=False)",
    "moment_report(route='all')",
    "poisson_moment(override_limits=False)",
    "poisson_moment_by_operators(override_limits=False)",
    "position_moment(override_limits=False)",
    "r_by_enumeration(override_limits=False)",
    "run_all(order=6)",
    "run_all(seed=7)",
    "sequences_by_recursion(r_max=1)",
}


def _defaulted(prefix: str, fn) -> set:
    return {
        f"{prefix}({p.name}={p.default!r})"
        for p in inspect.signature(fn).parameters.values()
        if p.default is not inspect.Parameter.empty
    }


def test_defaulted_public_parameters_are_pinned():
    found = set()
    for name in onckesten.__all__:
        obj = getattr(onckesten, name)
        if not callable(obj):
            continue
        found |= _defaulted(name, obj)
        if not inspect.isclass(obj):
            continue
        for attr in dir(obj):
            member = getattr(obj, attr)
            if attr.startswith("_") or not callable(member):
                continue
            if getattr(member, "__module__", "").startswith("onckesten"):
                found |= _defaulted(f"{name}.{attr}", member)
    assert found == DEFAULTED
