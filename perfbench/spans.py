"""Per-layer spans recorded from outside the library.

``Tracer.install`` wraps every public function, and every public method of
the public classes, of each alphanml module (the layers), plus
``TypeClassTable.__init__`` (the table build). A module that did
``from .x import y`` holds its own binding of ``y``, so each wrapper replaces
the original in every loaded alphanml module that binds it; otherwise calls
from ``regret`` or ``luckiness`` into ``typeclass`` would go untraced.
``scipy.optimize.minimize`` gets a counting wrapper for Nelder-Mead
iterations. ``Tracer.uninstall`` puts every original back, so untraced runs
execute the library unchanged.

A span is one call, or one ``next()`` of a generator. Spans are aggregated
in memory per name into calls, total seconds and self seconds (total minus
the time of child spans). The tracer assumes one thread; the workloads call
the library with threads=1.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import warnings
from collections import Counter
from time import perf_counter

LAYERS = ("numerics", "typeclass", "predictors", "regret", "luckiness", "oracle", "cli")

ENUM = ("typeclass.iter_with_log_multiplicity", "typeclass.enumerate_count_vectors")
REDUCE = "typeclass.reduce_over_type_classes"
OBJECTIVE = (
    "regret.TypeClassTable.log_ptheta",
    "regret.TypeClassTable.renyi_values",
    "regret.TypeClassTable.kl_values",
)
QUADRATURE = "regret.integrate_unit_interval"
CACHE_LOOKUP = "predictors.NormalizerCache.get_or_compute"
NORMALIZER_MISS = "predictors.normalizer.miss"

# (name, unit) of every per-layer metric, in output order. Counts and times
# marked "/op" are means over the traced ops.
PER_LAYER = [
    ("numerics.log_gamma.calls", "count/op"),
    ("numerics.log_gamma.self_s", "s/op"),
    ("numerics.log_multivariate_beta.calls", "count/op"),
    ("numerics.log_sum_exp.calls", "count/op"),
    ("numerics.log_sum_exp.terms", "count/op"),
    ("numerics.log_sum_exp.self_s", "s/op"),
    ("numerics.gamma_table.entries", "count"),
    ("typeclass.scans", "count/op"),
    ("typeclass.classes", "count/scan"),
    ("typeclass.classes_per_op", "count/op"),
    ("typeclass.chunks", "count/op"),
    ("typeclass.enum.self_s", "s/op"),
    ("typeclass.reduce.self_s", "s/op"),
    ("typeclass.scaling_2t", "x"),
    ("predictors.log_normalizer.calls", "count/op"),
    ("predictors.cache.hits", "count/op"),
    ("predictors.cache.misses", "count/op"),
    ("predictors.cache.hit_ratio", "ratio"),
    ("predictors.cache.entries", "count"),
    ("predictors.normalizer.miss_s", "s/op"),
    ("predictors.log_joint.calls", "count/op"),
    ("predictors.log_joint.self_s", "s/op"),
    ("predictors.conditional.calls", "count/op"),
    ("predictors.conditional.self_s", "s/op"),
    ("regret.worst_case.self_s", "s/op"),
    ("regret.sibson.self_s", "s/op"),
    ("regret.table.builds", "count/op"),
    ("regret.table.self_s", "s/op"),
    ("regret.objective.rows", "count/op"),
    ("regret.objective.cells", "count/op"),
    ("regret.objective.self_s", "s/op"),
    ("regret.simplex.self_s", "s/op"),
    ("regret.nelder_mead.iters", "count/op"),
    ("regret.nelder_mead.fevals", "count/op"),
    ("regret.quadrature.calls", "count/op"),
    ("regret.quadrature.self_s", "s/op"),
    ("regret.quadrature.err_max", "abs"),
    ("regret.quadrature.warnings", "count/op"),
    ("luckiness.calls", "count/op"),
    ("luckiness.self_s", "s/op"),
    ("oracle.brute.sequences", "count/op"),
    ("oracle.brute.self_s", "s/op"),
    ("cli.interp_s", "s"),
    ("cli.import_s", "s"),
    ("cli.import.scipy_s", "s"),
    ("cli.main_s", "s"),
    ("cli.exit_s", "s"),
    *[(f"{layer}.{kind}_warnings", "count/op") for layer in LAYERS for kind in ("integration", "runtime")],
    ("trace.ops", "count"),
    ("trace.overhead", "x"),
]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # span name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.err_max = 0.0
        self.stack: list[list] = []  # open spans as [name, child_s]
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _close(self, frame: list, elapsed: float) -> None:
        self.stack.pop()
        st = self.stats.get(frame[0])
        if st is None:
            st = self.stats[frame[0]] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += elapsed
        st[2] += elapsed - frame[1]
        if self.stack:
            self.stack[-1][1] += elapsed

    def span(self, name: str, fn, *args, **kwargs):
        frame = [name, 0.0]
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, perf_counter() - t0)

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        hook = self._hooks().get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is None:
                return self.span(name, fn, *args, **kwargs)
            return hook(name, fn, args, kwargs)

        return wrapper

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".starts"] += 1
            it = fn(*args, **kwargs)
            while True:
                frame = [name, 0.0]
                self.stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(frame, perf_counter() - t0)
                self.counts[name + ".items"] += 1
                yield item

        return wrapper

    # -- hooks for the spans that also count work ----------------------------

    def _hooks(self) -> dict:
        hooks = {
            "numerics.log_sum_exp": self._log_sum_exp,
            REDUCE: self._reduce,
            CACHE_LOOKUP: self._cache_lookup,
            QUADRATURE: self._quadrature,
            "oracle.brute_sequence_sum": self._brute_sequences,
        }
        hooks.update({name: self._objective for name in OBJECTIVE})
        return hooks

    def _log_sum_exp(self, name, fn, args, kwargs):
        terms = args[0] if args else kwargs.pop("terms")
        if not isinstance(terms, (list, tuple)):
            terms = list(terms)
        self.counts["numerics.log_sum_exp.terms"] += len(terms)
        return self.span(name, fn, terms, *args[1:], **kwargs)

    def _reduce(self, name, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        n, m = bound.arguments["n"], bound.arguments["m"]
        if bound.arguments.get("serial"):
            chunks = 1
        else:
            chunks = math.ceil(math.comb(n + m - 1, m - 1) / bound.arguments["chunk_size"])
        self.counts["typeclass.chunks"] += chunks
        return self.span(name, fn, *args, **kwargs)

    def _cache_lookup(self, name, fn, args, kwargs):
        if "compute" in kwargs:
            head, compute = args, kwargs.pop("compute")
        else:
            *head, compute = args
        missed = []

        def timed_compute():
            missed.append(True)
            return self.span(NORMALIZER_MISS, compute)

        value = self.span(name, fn, *head, timed_compute, **kwargs)
        self.counts["predictors.cache.misses" if missed else "predictors.cache.hits"] += 1
        return value

    def _quadrature(self, name, fn, args, kwargs):
        value, err = self.span(name, fn, *args, **kwargs)
        self.err_max = max(self.err_max, float(err))
        return value, err

    def _brute_sequences(self, name, fn, args, kwargs):
        n, m = args[0], args[1]
        self.counts["oracle.brute.sequences"] += m**n
        return self.span(name, fn, *args, **kwargs)

    def _objective(self, name, fn, args, kwargs):
        nested = any(frame[0] in OBJECTIVE for frame in self.stack)
        result = self.span(name, fn, *args, **kwargs)
        if not nested:
            table, thetas = args[0], args[1]
            rows = len(thetas) if getattr(thetas, "ndim", 1) > 1 else 1
            self.counts["regret.objective.rows"] += rows
            self.counts["regret.objective.cells"] += rows * len(table.log_mult)
        return result

    # -- installation ----------------------------------------------------------

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        import scipy.optimize

        import alphanml.cli  # noqa: F401  (the cli layer must be loaded to be traced)

        modules = [mod for name, mod in sys.modules.items() if name == "alphanml" or name.startswith("alphanml.")]
        for layer in LAYERS:
            module = sys.modules[f"alphanml.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._replace(modules, obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        traced = not meth_name.startswith("_") or (attr, meth_name) == ("TypeClassTable", "__init__")
                        if traced and inspect.isfunction(meth):
                            self._patched.append((obj, meth_name, meth))
                            setattr(obj, meth_name, self._wrap(f"{layer}.{attr}.{meth_name}", meth))
        minimize = scipy.optimize.minimize

        @functools.wraps(minimize)
        def counting_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            self.counts["regret.nelder_mead.iters"] += int(getattr(res, "nit", 0))
            self.counts["regret.nelder_mead.fevals"] += int(getattr(res, "nfev", 0))
            return res

        self._replace([scipy.optimize, *modules], minimize, counting_minimize)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- warnings ----------------------------------------------------------------

    def record_warning(self, kind: str) -> None:
        """Attribute a warning to the layer of the innermost open span."""
        if not self.stack:
            return
        layer = self.stack[-1][0].split(".")[0]
        self.counts[f"{layer}.{kind}_warnings"] += 1
        if kind == "integration" and any(frame[0] == QUADRATURE for frame in self.stack):
            self.counts["regret.quadrature.warnings"] += 1

    # -- metrics -----------------------------------------------------------------

    def _sum(self, names, field: int) -> float:
        return sum(self.stats[n][field] for n in names if n in self.stats)

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics over ``ops`` traced ops (state metrics excluded)."""
        calls = lambda *names: self._sum(names, 0) / ops  # noqa: E731
        self_s = lambda *names: self._sum(names, 2) / ops  # noqa: E731
        per_op = lambda key: self.counts[key] / ops  # noqa: E731
        luckiness = [n for n in self.stats if n.startswith("luckiness.")]
        items = sum(self.counts[n + ".items"] for n in ENUM)
        scans = sum(self.counts[n + ".starts"] for n in ENUM)
        hits, misses = self.counts["predictors.cache.hits"], self.counts["predictors.cache.misses"]
        out = {
            "numerics.log_gamma.calls": calls("numerics.log_gamma"),
            "numerics.log_gamma.self_s": self_s("numerics.log_gamma"),
            "numerics.log_multivariate_beta.calls": calls("numerics.log_multivariate_beta"),
            "numerics.log_sum_exp.calls": calls("numerics.log_sum_exp"),
            "numerics.log_sum_exp.terms": per_op("numerics.log_sum_exp.terms"),
            "numerics.log_sum_exp.self_s": self_s("numerics.log_sum_exp"),
            "typeclass.scans": scans / ops,
            "typeclass.classes": items / scans if scans else 0.0,
            "typeclass.classes_per_op": items / ops,
            "typeclass.chunks": per_op("typeclass.chunks"),
            "typeclass.enum.self_s": self_s(*ENUM),
            "typeclass.reduce.self_s": self_s(REDUCE),
            "predictors.log_normalizer.calls": calls("predictors.log_normalizer"),
            "predictors.cache.hits": hits / ops,
            "predictors.cache.misses": misses / ops,
            "predictors.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "predictors.normalizer.miss_s": self._sum([NORMALIZER_MISS], 1) / ops,
            "predictors.log_joint.calls": calls("predictors.log_joint"),
            "predictors.log_joint.self_s": self_s("predictors.log_joint"),
            "predictors.conditional.calls": calls("predictors.conditional_distribution"),
            "predictors.conditional.self_s": self_s("predictors.conditional_distribution"),
            "regret.worst_case.self_s": self_s("regret.worst_case_regret"),
            "regret.sibson.self_s": self_s("regret.sibson_mi_infinity", "regret.sibson_mi_alpha"),
            "regret.table.builds": calls("regret.TypeClassTable.__init__"),
            "regret.table.self_s": self_s("regret.TypeClassTable.__init__"),
            "regret.objective.rows": per_op("regret.objective.rows"),
            "regret.objective.cells": per_op("regret.objective.cells"),
            "regret.objective.self_s": self_s(*OBJECTIVE),
            "regret.simplex.self_s": self_s("regret.maximize_on_simplex"),
            "regret.nelder_mead.iters": per_op("regret.nelder_mead.iters"),
            "regret.nelder_mead.fevals": per_op("regret.nelder_mead.fevals"),
            "regret.quadrature.calls": calls(QUADRATURE),
            "regret.quadrature.self_s": self_s(QUADRATURE),
            "regret.quadrature.err_max": self.err_max,
            "regret.quadrature.warnings": per_op("regret.quadrature.warnings"),
            "luckiness.calls": calls(*luckiness),
            "luckiness.self_s": self_s(*luckiness),
            "oracle.brute.sequences": per_op("oracle.brute.sequences"),
            "oracle.brute.self_s": self_s("oracle.brute_sequence_sum", "oracle.brute_simplex_max"),
        }
        for layer in LAYERS:
            for kind in ("integration", "runtime"):
                key = f"{layer}.{kind}_warnings"
                out[key] = per_op(key)
        return out


class WarningCounter:
    """Counts IntegrationWarning and RuntimeWarning instead of printing them.

    Every occurrence is counted (filter "always"); while a tracer is active
    the warning is also attributed to the layer of its innermost span.
    """

    def __init__(self):
        from scipy.integrate import IntegrationWarning

        self._integration = IntegrationWarning
        self.totals: Counter = Counter()
        self.tracer: Tracer | None = None

    def install(self) -> None:
        warnings.simplefilter("always")
        warnings.showwarning = self._show

    def _show(self, message, category, filename, lineno, file=None, line=None):
        if issubclass(category, self._integration):
            kind = "integration"
        elif issubclass(category, RuntimeWarning):
            kind = "runtime"
        else:
            kind = "other"
        self.totals[kind] += 1
        if self.tracer is not None:
            self.tracer.record_warning(kind)
