"""Exact laboratory for the two-parameter ordered-partition interpolation.

Ordered non-crossing partitions carry a weight p^e q^e' counting disordered
and ordered nesting pairs of their coloring; summing these weights gives the
moments of a Kesten-type limit law that interpolates between the free,
monotone, arcsine and Bernoulli regimes.  The package computes those moments
by five independent routes, realizes them through symbolic Fock-space and
discrete operator engines, and cross-checks everything exactly.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name's home submodule, imported the first time the name is read
_EXPORTS = {
    "algebra": ("MultiPoly",),
    "partitions": ("SetPartition", "OrderedPartition", "NestingForest", "IntervalSignature", "enumerate_nc",
                   "enumerate_ordered", "is_noncrossing", "nesting_forest", "disorder_order_counts", "weight",
                   "is_adapted"),
    "moments": ("MomentReport", "moment_report", "r_by_enumeration", "r_by_closed_form", "r_by_jacobi",
                "r_by_delaney", "sequences_by_recursion", "series_identity_checks", "delaney", "gen_euler",
                "mixed_moment_brownian", "word_moment_by_enumeration", "poisson_moment"),
    "fock": ("FockEngine", "FockVector", "position_moment", "poisson_moment_by_operators", "word_for_partition",
             "word_admits_partition", "parse_word"),
    "discrete": ("discrete_word_moment", "clt_moment", "clt_leading_term"),
    "kesten": ("KestenMeasure", "QuadratureError"),
    "verify": ("run_all",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    # not stored here: the home module's binding is the only one, so a rebinding there shows through
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
