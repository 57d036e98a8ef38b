"""Span and count tracing of dcgof's public functions, installed from outside
the package.

Each traced function is replaced by a wrapper that records a span
``(name, start, end, parent, call)`` in memory, where ``parent`` is the index
of the enclosing traced span (-1 at the top) and ``call`` numbers the
``dcgof.cli.main`` invocation the span belongs to.  A wrapper is installed on
every dcgof module that bound the function's name at import (``boot`` holds
its own reference to ``fit_mle``, ``stats`` to ``law_path``, and so on), so a
call is seen whichever module makes it.

A layer's self time is its span's duration minus the time covered by its
child spans.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import time
import tracemalloc

MODULES = (
    "dcgof", "dcgof.model", "dcgof.estimate", "dcgof.transform",
    "dcgof.stats", "dcgof.boot", "dcgof.cli", "dcgof.rng",
)

# (defining module, function, span name); stats.cvm/stats.ks split by kind.
TRACED = (
    ("dcgof.cli", "load_series", "cli.load_series"),
    ("dcgof.model", "simulate", "model.simulate"),
    ("dcgof.model", "law_path", "model.law_path"),
    ("dcgof.estimate", "fit_mle", "estimate.fit"),
    ("dcgof.estimate", "score", "estimate.score"),
    ("dcgof.estimate", "loglik", "estimate.loglik"),
    ("dcgof.transform", "randomized_pit", "transform.pit"),
    ("dcgof.stats", "cvm_stat", "stats.cvm"),
    ("dcgof.stats", "ks_stat", "stats.ks"),
    ("dcgof.stats", "box_pierce", "stats.bp"),
    ("dcgof.stats", "jarque_bera", "stats.jb"),
    ("dcgof.stats", "residuals_discrete", "stats.resid_discrete"),
    ("dcgof.boot", "bootstrap_test", "boot"),
    ("dcgof.boot", "run_scenario", "boot"),
    ("dcgof.rng", "substream", "rng.substream"),
)

# Spans whose tracemalloc peak is recorded (the T-by-T kernels).
MEMORY_SPANS = ("stats.cvm2d", "stats.ks2d")


def _stat_span(base: str, args, kwargs) -> str:
    kind = kwargs["kind"] if "kind" in kwargs else args[1]
    one_dim = kind.tag in ("CvM_p", "KS_p") and kind.p == 1
    return f"{base}{'1d' if one_dim else '2d'}"


def _result_counts(name: str, result) -> dict[str, float]:
    """Counts read from a traced function's return value."""
    if name == "estimate.fit":
        return {"newton_iters": result.iterations, "converged_fits": int(result.converged)}
    if name == "model.simulate":
        return {"simulated_periods": result.T}
    if name == "boot":
        if hasattr(result, "failed_fits"):
            return {"failed_fits": result.failed_fits}
        return {"failed_fits": result.R - result.R_effective}
    return {}


class Tracer:
    """Records spans and counts of traced dcgof functions in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: collections.Counter = collections.Counter()
        self.peak_bytes: dict[str, int] = {}
        self.call_id = -1
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, attr, span in TRACED:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, span)
            for name in MODULES:
                module = importlib.import_module(name)
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)

    def _wrap(self, fn, span: str):
        per_kind = span in ("stats.cvm", "stats.ks")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = _stat_span(span, args, kwargs) if per_kind else span
            return self.run(name, fn, *args, **kwargs)

        return wrapper

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.call_id))
        self._stack.append(idx)
        track = name in MEMORY_SPANS
        if track:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if track:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.call_id)
        self.counts.update(_result_counts(name, result))
        return result

    def traced_call(self, fn, *args):
        """Run one ``dcgof.cli.main`` call as a root span; return its result
        and the per-layer numbers of that call alone."""
        self.call_id += 1
        first = len(self.spans)
        before = dict(self.counts)
        self.peak_bytes.clear()
        result = self.run("cli.main", fn, *args)
        counts = {k: v - before.get(k, 0) for k, v in self.counts.items()}
        return result, self._layers(first, counts)

    def _layers(self, first: int, counts: dict[str, float]) -> dict[str, float]:
        spans = self.spans[first:]
        self_time = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= first:
                self_time[parent - first] -= end - start
        seconds: collections.Counter = collections.Counter()
        calls: collections.Counter = collections.Counter()
        for (name, *_), own in zip(spans, self_time):
            seconds[name] += own
            calls[name] += 1
        out = {f"{name}_s": value for name, value in seconds.items()}
        out.update({f"{name}_calls": value for name, value in calls.items()})
        out.update({f"{name}_peak_mb": b / 2**20 for name, b in self.peak_bytes.items()})
        out.update(counts)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "call"],
                       "spans": self.spans}, fh, separators=(",", ":"))
