"""The public surface, pinned: its names, each name's home module, and every
parameter a caller may leave out.

A new default (an option) shows up here as an edit of the literal set, so
it is reviewed as an interface change rather than slipping in with a body.
"""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import onckesten

PUBLIC = {
    "MultiPoly", "SetPartition", "OrderedPartition", "NestingForest",
    "IntervalSignature", "enumerate_nc", "enumerate_ordered", "is_noncrossing", "nesting_forest",
    "disorder_order_counts", "weight", "is_adapted", "MomentReport", "moment_report", "r_by_enumeration",
    "r_by_closed_form", "r_by_jacobi", "r_by_delaney", "sequences_by_recursion", "series_identity_checks",
    "delaney", "gen_euler", "mixed_moment_brownian", "word_moment_by_enumeration", "poisson_moment",
    "FockEngine", "FockVector", "position_moment", "poisson_moment_by_operators", "word_for_partition",
    "word_admits_partition", "parse_word", "discrete_word_moment", "clt_moment", "clt_leading_term",
    "KestenMeasure", "QuadratureError", "run_all", "__version__",
}
SUBMODULES = ("algebra", "cli", "discrete", "fock", "kesten", "moments", "partitions", "verify")

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


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True)


def test_public_names_are_unchanged():
    assert set(onckesten.__all__) == PUBLIC
    assert len(onckesten.__all__) == len(PUBLIC)


def test_each_name_is_the_object_its_home_module_defines():
    for home, names in onckesten._EXPORTS.items():
        module = importlib.import_module(f"onckesten.{home}")
        for name in names:
            obj = getattr(onckesten, name)
            assert obj is getattr(module, name)
            assert (obj.__module__, obj.__name__) == (module.__name__, name)


def test_bare_import_loads_no_submodule():
    code = (
        "import sys, onckesten\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'onckesten'))\n"
        "print(onckesten.kesten.__name__)"
    )
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['onckesten']", "onckesten.kesten"]


def test_dir_lists_the_surface_and_unknown_names_raise():
    assert set(onckesten.__all__) <= set(dir(onckesten))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        onckesten.no_such_name


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_submodule_imports_first(module):
    # the package root imports nothing, so each entry point must resolve its own imports
    proc = _fresh_python(f"import onckesten.{module}")
    assert (proc.returncode, proc.stderr) == (0, "")
