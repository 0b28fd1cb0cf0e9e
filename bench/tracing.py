"""Spans around calls into the package's public functions, recorded from outside.

``instrument(tracer)`` replaces selected public functions, in every loaded
``nlcorr`` module that holds them, with wrappers that record a span while the
tracer is on and cost one attribute test while it is off. Calls between the
package's own functions go through module globals and class attributes, so
they are wrapped as well and nest under the operation that made them.

A span is ``[name, start, end, parent, round]``; spans stay in memory and are
written out when the run ends. In a memory round no spans are kept, and the
functions marked ``peak`` record the tracemalloc peak above the memory in use
when they were entered.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, attribute, peak); attributes with a dot are classmethods
SPANNED = [
    ("groups", "nested_sums_joint", True),
    ("groups", "group_sums_joint", False),
    ("groups", "extreme_symm", False),
    ("groups", "assumption_c_check", False),
    ("groups", "hoeffding_decompose", False),
    ("maxcorr", "exact_extremes", False),
    ("maxcorr", "pair_max_corr", False),
    ("maxcorr", "ace_estimate", True),
    ("maxcorr", "DiscreteJoint.from_atoms", False),
    ("maxcorr", "DiscreteJoint.from_samples", False),
    ("additive", "sample_design", False),
    ("additive", "empirical_phi_star", False),
    ("additive", "sandwich_check", False),
    ("spectra", "brownian_lambda_max", True),
    ("spectra", "nystrom_eigs", False),
    ("spectra", "extreme_eigs", False),
    ("stationary", "spectral_extremes", False),
    ("stationary", "spectral_density", False),
    ("stationary", "circulant_cross_check", True),
]

# the stationary scans split by the kernel's domain, the first argument
BY_DOMAIN = {"spectral_extremes", "spectral_density"}


class Tracer:
    def __init__(self):
        self.on = False
        self.memory = False
        self.round = -1
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.peaks: dict[str, float] = {}

    def start_round(self, index: int, *, memory: bool = False) -> None:
        self.round, self.memory, self.on = index, memory, True
        if memory:
            tracemalloc.start()

    def stop_round(self) -> None:
        if self.memory:
            tracemalloc.stop()
        self.on = self.memory = False

    def call(self, name: str, fn, args, kwargs, peak: bool):
        if self.memory:
            if not peak:
                return fn(*args, **kwargs)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                used = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peaks[name] = max(self.peaks.get(name, 0.0), used)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.round]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def op(self, name: str, fn):
        """Top-level span around one operation of the workload."""
        return self.call(f"op:{name}", fn, (), {}, False)

    def round_totals(self, index: int) -> dict[str, float]:
        """Inclusive seconds per span name in one round."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, rnd in self.spans:
            if rnd == index:
                out[name] += end - start
        return dict(out)

    def summary(self) -> dict[str, dict]:
        """Calls, inclusive seconds and self seconds per span name, over all rounds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out


def _wrap(tracer: Tracer, fn, name: str, peak: bool, by_domain: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        label = f"{name}_{args[0].domain}" if by_domain else name
        return tracer.call(label, fn, args, kwargs, peak)

    return wrapper


def instrument(tracer: Tracer) -> None:
    """Wrap every function in SPANNED wherever an ``nlcorr`` module refers to it."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "nlcorr" or n.startswith("nlcorr."))]
    for mod_name, attr, peak in SPANNED:
        module = sys.modules[f"nlcorr.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth].__func__
            setattr(cls, meth, classmethod(_wrap(tracer, orig, f"{mod_name}.{attr}", peak, False)))
            continue
        orig = getattr(module, attr)
        wrapped = _wrap(tracer, orig, f"{mod_name}.{attr}", peak, attr in BY_DOMAIN)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
