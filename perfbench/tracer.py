"""In-memory span and call-count recorder for traced benchmark jobs.

The recorder wraps public ``opahbt`` functions from outside the package:
each wrapper replaces every binding of the original function in every
``opahbt`` module, so calls through a caller's own namespace (for example
``opahbt.cli.sweep_ratios`` or ``opahbt.oracle_checks.two_mode_squeeze``)
are seen.  Functions that run once per scalar only count calls, because a
span per call would cost more than the call itself.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import pkgutil
import time
from collections import Counter

CHECKS = (
    "check_thermal_closed_forms",
    "check_published_third_moment",
    "check_thermal_closure",
    "check_squeeze_propagation",
    "check_wick_vs_fock",
    "check_normal_ordered_correlator",
    "check_ordering_gap",
    "check_noise_consistency",
    "check_amplified_noise_swap",
)


def _sweep_attrs(args, kwargs, result):
    return {"points": int(result.n_bar.size)}


def _phi_attrs(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _squeeze_attrs(args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    g = args[1] if len(args) > 1 else kwargs["g"]
    digest = hashlib.blake2b(state.rho.diagonal().tobytes(), digest_size=8).hexdigest()
    return {"dim": state.dim, "key": f"{digest}:{float(g)!r}:{state.dim}"}


SPANNED = {
    ("cli", "main"): None,
    ("analysis", "sweep_ratios"): _sweep_attrs,
    ("analysis", "fit_inverse_law"): None,
    ("analysis", "estimate_phi"): _phi_attrs,
    ("hbt", "consistency_report"): None,
    ("photon_stats", "geometric_summation_moments"): None,
    ("fock", "two_mode_squeeze"): _squeeze_attrs,
    ("fock", "hbt_two_mode_correlation"): None,
    ("fock", "reduced_moments"): None,
    ("wick", "number_moments"): None,
    ("oracle_checks", "run_oracle_checks"): None,
    **{("oracle_checks", name): None for name in CHECKS},
}

COUNTED = (
    ("cli", "format_float"),
    ("hbt", "snr_ratio"),
    ("hbt", "signal_ratio"),
    ("hbt", "opa_noise_avg_printed"),
    ("opa", "coeffs"),
    ("opa", "propagate_moments"),
    ("photon_stats", "thermal_moments"),
    ("wick", "gaussian_wick_moment"),
)


class Tracer:
    """Spans ``[name, start, end, parent, job, attrs]`` and call counts of one job."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _span(self, name, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [name, 0.0, 0.0, parent, self.job, {}]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                record[5] = attrs(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every binding of each traced function in ``opahbt``."""
        import opahbt

        modules = [opahbt] + [
            importlib.import_module(f"opahbt.{info.name}")
            for info in pkgutil.iter_modules(opahbt.__path__)
        ]
        wrappers = {}
        for (module, name), attrs in SPANNED.items():
            fn = getattr(importlib.import_module(f"opahbt.{module}"), name)
            wrappers[id(fn)] = self._span(f"{module}.{name}", fn, attrs)
        for module, name in COUNTED:
            fn = getattr(importlib.import_module(f"opahbt.{module}"), name)
            wrappers[id(fn)] = self._counter(f"{module}.{name}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one parent run one after another, so their durations add.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, *_rest) in enumerate(spans)]
