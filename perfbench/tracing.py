"""Spans and counters around bandlim's public functions, from outside.

`Tracer.install` replaces each traced function under every bandlim module
attribute that binds it (``bandlim.build_gram``, ``bandlim.cli.build_gram``,
``bandlim.stochastic.build_gram`` ...), so calls between modules are seen
too. A span records name, start, end, parent span and op id; spans stay in
memory until `write` at the end of the run. Self time is a span's duration
minus its direct children, which never overlap in a single thread. Counts
are taken in the same wrappers.
"""

import json
import time
from collections import defaultdict

import numpy as np

MODULES = ("bsplines", "weights", "kernel", "quadrature", "interpolate", "bounds",
           "signals", "stochastic", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _psi_counts(args, kwargs):
    kernel, t = _arg(args, kwargs, 0, "kernel"), _arg(args, kwargs, 1, "t")
    entries = int(np.size(t))
    M = kernel.spec.half_count_M if kernel.spec is not None else 0
    return {"entries": entries, "bytes_computed": 8 * M * entries}


def _matched_key(args, kwargs):
    sig = _arg(args, kwargs, 0, "sig")
    return (sig.kind, sig.bandwidth_B, args[1:], tuple(sorted(kwargs.items())))


# (module, function) -> counter extractor; each gets a ``calls`` count.
TRACED = {
    ("cli", "main"): None,
    ("signals", "matched_weights"): None,
    ("signals", "eval_signal"):
        lambda a, k: {"points": int(np.size(_arg(a, k, 1, "t")))},
    ("weights", "fit_weights"): None,
    ("bsplines", "bspline_eval"):
        lambda a, k: {"points": int(np.size(_arg(a, k, 1, "x")))},
    ("kernel", "psi_closed_form"): _psi_counts,
    ("interpolate", "build_gram"):
        lambda a, k: {"gram_rows": 2 * int(_arg(a, k, 2, "N")) + 1},
    ("interpolate", "solve"): None,
    ("interpolate", "evaluate"): None,
    ("interpolate", "cardinal"): None,
    ("bounds", "weighted_pointwise_bound"): None,
    ("bounds", "power_function"):
        lambda a, k: {"points": int(np.size(_arg(a, k, 1, "t")))},
    ("stochastic", "squared_errors"):
        lambda a, k: {"realizations": int(_arg(a, k, 5, "realizations"))},
    ("stochastic", "lmmse_interpolate"):
        lambda a, k: {"points": int(np.size(_arg(a, k, 2, "t")))},
    ("stochastic", "autocorrelation"):
        lambda a, k: {"taus": int(np.size(_arg(a, k, 1, "tau")))},
    ("quadrature", "adaptive_simpson"): None,
}

# Exceptions counted as a layer's failures: (module, function) -> (counter, class path)
FAILURES = {
    ("interpolate", "build_gram"): ("not_pd_errors", "interpolate", "NotPositiveDefiniteError"),
    ("quadrature", "adaptive_simpson"): ("errors", "quadrature", "QuadratureError"),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        # bandlim.cli is only there when the workload imported it.
        self.modules = [package] + [getattr(package, name) for name in MODULES
                                    if hasattr(package, name)]
        self.spans = []          # (name, start, end, parent index, op id)
        self.stack = []
        self.op_id = None
        self.counts = defaultdict(float)
        self.distinct = defaultdict(set)
        self._originals = []

    # -- installation ---------------------------------------------------

    def install(self):
        for (mod, fname), extract in TRACED.items():
            if not hasattr(self.package, mod):
                continue
            original = getattr(getattr(self.package, mod), fname)
            wrapper = self._wrap(f"{mod}.{fname}", original, extract,
                                 FAILURES.get((mod, fname)))
            for module in self.modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals = []

    def _wrap(self, name, fn, extract, failure):
        tracer = self
        error_cls = None
        if failure is not None:
            error_cls = getattr(getattr(self.package, failure[1]), failure[2])
        quadrature = name == "quadrature.adaptive_simpson"

        def traced(*args, **kwargs):
            counts = tracer.counts
            counts[name + ".calls"] += 1
            if extract is not None:
                for key, value in extract(args, kwargs).items():
                    counts[f"{name}.{key}"] += value
            if name == "signals.matched_weights":
                tracer.distinct[name].add(_matched_key(args, kwargs))
            if quadrature:
                f = _arg(args, kwargs, 0, "f")

                def integrand(x):
                    counts[name + ".integrand_points"] += np.size(x)
                    return f(x)

                args = (integrand,) + args[1:] if args else args
                if "f" in kwargs:
                    kwargs = dict(kwargs, f=integrand)
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if error_cls is not None and isinstance(exc, error_cls):
                    counts[f"{name}.{failure[0]}"] += 1
                raise
            finally:
                tracer.end(index)

        traced.__wrapped__ = fn
        return traced

    # -- spans ----------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def reset_counts(self):
        self.counts = defaultdict(float)
        self.distinct = defaultdict(set)

    def self_times(self, first_span):
        """Self time per span name over spans[first_span:]."""
        selfs = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first_span:]:
            selfs[name] += end - start
            if parent >= first_span:
                selfs[self.spans[parent][0]] -= end - start
        return selfs

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}))
                fh.write("\n")
