"""Spans and counts around every call into the package's layers.

The traced run installs these wrappers from outside the package: each public
function is replaced at every module attribute that refers to it, so a
callee bound with ``from ... import`` is traced at each binding site, not
only in its home module.  A span is kept in memory with its name, start,
end and parent; a layer's self time is the time of its spans minus the
part covered by their child spans.  Hot private helpers get a counter, not
a span, and the exact kernel (``algebra``) gets neither: its call counts
and self time come from a separate profiled pass.

Generators are traced per resumption, so the time a consumer spends
between items is not charged to the generator.  Only the first
``RECORDS_PER_NAME`` spans of each name are kept as records; the per-name
totals cover every call.
"""

from __future__ import annotations

import cProfile
import fractions
import functools
import inspect
import math
import pstats
import time

RECORDS_PER_NAME = 50

# Spanned public functions, by module.
FUNCTIONS = {
    "partitions": ("enumerate_nc", "enumerate_ordered", "nesting_forest", "disorder_order_counts",
                   "weight", "is_noncrossing", "is_adapted"),
    "moments": ("r_by_enumeration", "covered_weight_sum", "sequences_by_recursion", "r_by_closed_form",
                "r_by_jacobi", "r_by_delaney", "gen_euler_histogram", "gen_euler", "series_identity_checks",
                "mixed_moment_brownian", "word_moment_by_enumeration", "poisson_moment",
                "factorization_checks", "moment_report"),
    "fock": ("position_moment", "poisson_moment_by_operators", "word_for_partition",
             "word_admits_partition", "parse_word"),
    "discrete": ("discrete_word_moment", "clt_class_sums", "clt_moment", "clt_leading_term",
                 "order_patterns"),
    "verify": ("run_all", "paper_errata"),
    "cli": ("main",),
}
# Spanned public methods, by (module, class).
METHODS = {
    ("fock", "FockEngine"): ("word_vacuum_moment",),
    ("kesten", "KestenMeasure"): ("atoms", "density", "cauchy", "stieltjes_density",
                                  "quadrature_moment", "total_mass"),
}
# Base enumerators that ``moments`` imports privately from ``partitions``;
# wrapped only where ``moments`` binds them, because ``partitions`` recurses
# through its own binding.
MOMENTS_PRIVATE_ENUMERATORS = ("_nc_pairings", "_set_partitions")

class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list = []
        self.totals: dict = {}  # span name -> [calls, total_s, self_s]
        self.records: list = []
        self.kept: dict = {}
        self.counts: dict = {}
        self.next_id = 0

    def count(self, key: str, k: int = 1):
        self.counts[key] = self.counts.get(key, 0) + k

    def peak(self, key: str, value: int):
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def _begin(self, name: str) -> list:
        self.next_id += 1
        frame = [name, self.next_id, 0.0, self.clock()]
        self.stack.append(frame)
        return frame

    def _end(self, frame: list):
        end = self.clock()
        self.stack.pop()
        name, span_id, child, start = frame
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        kept = self.kept.get(name, 0)
        if kept < RECORDS_PER_NAME:
            self.kept[name] = kept + 1
            self.records.append(
                {"id": span_id, "name": name, "start": start, "end": end,
                 "parent": parent[1] if parent else None}
            )

    def span(self, name: str, fn, after=None):
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(frame)
            if after is not None:
                after(result)
            return result

        return wrapper

    def span_generator(self, name: str, fn, counter: str = None):
        begin, end, count = self._begin, self._end, self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                frame = begin(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    end(frame)
                if counter:
                    count(counter)
                yield item

        return wrapper

    def counted(self, fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(args, result)
            return result

        return wrapper

    def report(self) -> dict:
        return {"totals": self.totals, "records": self.records, "counts": self.counts}


def _rebind(modules, original, wrapper):
    """Point every module attribute that holds ``original`` at ``wrapper``."""
    found = 0
    for mod in modules:
        for attr in [k for k, v in vars(mod).items() if v is original]:
            setattr(mod, attr, wrapper)
            found += 1
    return found


def install(tracer: Tracer) -> dict:
    """Wrap the package's layer boundaries; return the replaced originals."""
    import onckesten
    from onckesten import algebra, cli, discrete, fock, kesten, moments, partitions, verify

    mods = {"partitions": partitions, "moments": moments, "fock": fock, "discrete": discrete,
            "kesten": kesten, "verify": verify, "cli": cli}
    every = [onckesten, algebra] + list(mods.values())
    MultiPoly = algebra.MultiPoly

    def terms(result):
        if isinstance(result, MultiPoly):
            tracer.count("algebra.result_terms", len(result.items()))
        elif isinstance(result, (list, tuple)):
            for item in result:
                if isinstance(item, MultiPoly):
                    tracer.count("algebra.result_terms", len(item.items()))

    def nonzero_word(result):
        if not result.is_zero:
            tracer.count("discrete.nonzero_words")
        terms(result)

    originals = {}
    yields = {"enumerate_nc": "partitions.bases", "enumerate_ordered": "partitions.ordered_emitted",
              "order_patterns": "discrete.patterns"}
    for layer, names in FUNCTIONS.items():
        for fname in names:
            fn = getattr(mods[layer], fname)
            label = f"{layer}.{fname}"
            if inspect.isgeneratorfunction(fn):
                wrapper = tracer.span_generator(label, fn, yields.get(fname))
            else:
                wrapper = tracer.span(label, fn, nonzero_word if fname == "discrete_word_moment" else terms)
            if not _rebind(every, fn, wrapper):
                raise RuntimeError(f"no binding of {label} found")
            originals[label] = fn
    for (layer, cls_name), names in METHODS.items():
        cls = getattr(mods[layer], cls_name)
        for mname in names:
            fn = cls.__dict__[mname]
            setattr(cls, mname, tracer.span(f"{layer}.{cls_name}.{mname}", fn, terms))
    for name in MOMENTS_PRIVATE_ENUMERATORS:
        fn = getattr(moments, name)
        setattr(moments, name, tracer.span_generator(f"partitions.{name}", fn, "partitions.bases"))

    # Counters on hot helpers: one dictionary update per call, no span.
    def operator(args, result):
        tracer.count("fock.operator_calls")
        tracer.peak("fock.peak_words", len(result.terms))

    for mname in ("create", "annihilate", "gauge", "gauge_pair"):
        setattr(fock.FockEngine, mname, tracer.counted(fock.FockEngine.__dict__[mname], operator))
    kesten.KestenMeasure._integrand = tracer.counted(
        kesten.KestenMeasure._integrand, lambda args, result: tracer.count("kesten.integrand_evals")
    )

    def plain_colorings(args, result):
        edges, k = args
        if edges:
            tracer.count("moments.colorings", math.factorial(k))

    def grouped_colorings(args, result):
        tracer.count("moments.colorings", math.prod(math.factorial(len(g)) for g in args[1]))

    moments._coloring_histogram = tracer.counted(moments._coloring_histogram, plain_colorings)
    moments._grouped_histogram = tracer.counted(moments._grouped_histogram, grouped_colorings)

    verify._CHECKS = tuple((name, tracer.span(f"verify.check.{name}", fn)) for name, fn in verify._CHECKS)
    return originals


def cache_counts(tracer: Tracer, originals: dict):
    info = originals["partitions.nesting_forest"].cache_info()
    tracer.count("partitions.forest_hits", info.hits)
    tracer.count("partitions.forest_misses", info.misses)


def profile_summary(profile: cProfile.Profile) -> dict:
    """Kernel call counts and profiler-attributed self time."""
    from onckesten import algebra

    out = {"algebra.self_s": 0.0, "algebra.fraction_s": 0.0, "algebra.mul_calls": 0,
           "algebra.add_calls": 0, "algebra.fraction_ops": 0}
    for (path, _, func), (_, calls, self_s, _, _) in pstats.Stats(profile).stats.items():
        if path == algebra.__file__:
            out["algebra.self_s"] += self_s
            if func in ("__mul__", "__rmul__"):
                out["algebra.mul_calls"] += calls
            elif func in ("__add__", "__radd__", "__sub__", "__rsub__"):
                out["algebra.add_calls"] += calls
        elif path == fractions.__file__:
            out["algebra.fraction_s"] += self_s
            if func in ("_add", "_sub", "_mul", "_div"):
                out["algebra.fraction_ops"] += calls
    return out
