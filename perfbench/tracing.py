"""Spans around the program's layer functions, installed from outside.

The program source is not changed.  :class:`Tracer` replaces each traced
function at every name an ``mcqkd`` module binds it to (so both
``mcqkd.cli.rate_report`` and ``mcqkd.rates.rate_report`` record), and puts
the originals back on :meth:`Tracer.uninstall`.

A span is (id, name, start, end, parent, error, size, nbytes); ``size`` and
``nbytes`` describe an ndarray result and are 0 otherwise.  The parent is the
innermost open span of the calling thread.  A call on a thread with no open
span (a Monte Carlo pool worker) takes the innermost open span of the thread
that installed the tracer: the benchmark is a single closed-loop client, so
the only other threads are workers started by its current operation.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import math
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# module -> functions (``Class.method`` for methods) wrapped in a traced run
TRACED = {
    "cli": ("build_parser", "_emit", "_run_tradeoff", "_run_perr", "_run_rates",
            "_run_svd", "_run_constellation", "_run_mc"),
    "montecarlo": ("estimate_mean_fade_outage", "estimate_rate_outage", "_count_events",
                   "_block_fades", "_assemble", "wilson_interval", "EmpiricalOutage.to_csv"),
    "rates": ("rate_report", "optimal_attack_noise", "subchannel_capacity",
              "private_capacity_complex"),
    "channel": ("load_channel_model", "total_input_noise"),
    "manifold": ("tradeoff_curve", "tradeoff_multiaccess", "perr_single", "perr_amqd"),
    "singular_layer": ("load_matrix_csv", "svd_decompose", "reconstruct"),
    "constellation": ("build_constellation", "permute_constellation"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
OP = "op"
_MARK = "_perfbench_span"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mcqkd" or name.startswith("mcqkd."))]


def wrapped_names() -> list:
    """Every binding in an ``mcqkd`` module, or method of a traced class,
    that still holds a tracing wrapper."""
    found = []
    for module in _package_modules():
        for attr, value in vars(module).items():
            if getattr(value, _MARK, None) is not None:
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__.startswith("mcqkd"):
                for meth, fn in vars(value).items():
                    if getattr(fn, _MARK, None) is not None:
                        found.append(f"{module.__name__}.{attr}.{meth}")
    return found


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []
        self._restore: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else 0)
            sid = next(tracer._ids)
            stack.append(sid)
            result, error = None, True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                array = isinstance(result, np.ndarray)
                tracer.spans.append((sid, name, start, end, parent, error,
                                     result.size if array else 0, result.nbytes if array else 0))

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._stack()
        modules = _package_modules()
        for mod_name, fns in TRACED.items():
            module = importlib.import_module(f"mcqkd.{mod_name}")
            for qual in fns:
                name = f"{mod_name}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name)
                    original = vars(cls)[meth]
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(name, original))
                    continue
                original = getattr(module, qual)
                wrapper = self._wrap(name, original)
                for target in modules:
                    for attr, value in list(vars(target).items()):
                        if value is original:
                            self._restore.append((target, attr, original))
                            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def op(self):
        """One root span around one benchmark operation."""
        sid = next(self._ids)
        self._main_stack.append(sid)
        start = perf_counter()
        error = True
        try:
            yield
            error = False
        finally:
            self._main_stack.pop()
            self.spans.append((sid, OP, start, perf_counter(), 0, error, 0, 0))


def _union_length(intervals) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans) -> dict:
    """Per span name: calls, busy seconds, self seconds (busy minus the union
    of its children's spans, clipped to its own interval), errors, and the
    summed ndarray result size and bytes."""
    children = defaultdict(list)
    for sid, _, start, end, parent, *_ in spans:
        children[parent].append((start, end))
    out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0,
                               "size": 0, "nbytes": 0})
    for sid, name, start, end, _, error, size, nbytes in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end]
        agg = out[name]
        agg["calls"] += 1
        agg["busy_s"] += end - start
        agg["self_s"] += end - start - _union_length(kids)
        agg["errors"] += int(error)
        agg["size"] += size
        agg["nbytes"] += nbytes
    return dict(out)
