"""Layer spans for the traced run, recorded from outside the library.

Each layer's entry point is wrapped where its caller binds it, so the
library runs unchanged:

    verify    run_job, called by the benchmark
    sampler   ellsum.verify._sample_with_values
    catalog   ellsum.sampler.solve_balancing
    evaluate  ellsum.sampler.evaluate_lhs / evaluate_rhs
    theta     ellsum.evaluate.theta

A span adds its duration to its layer and to its parent's child time, so a
layer's self time is its duration minus its child spans.  Hot inner
functions are counted but not timed, since per-call timers there would
dominate what they measure: EvalContext.theta lookups, the kernels
enumerators evaluate draws summation indices from, and the terms evaluate
sums.  Worker processes do not report back, so only serial runs are traced.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

_verify = importlib.import_module("ellsum.verify")
_sampler = importlib.import_module("ellsum.sampler")
_evaluate = importlib.import_module("ellsum.evaluate")

#: theta as evaluate binds it, unwrapped.
original_theta = _evaluate.theta

_ENUMERATORS = ("compositions_exact", "compositions_bounded", "box_indices")


@contextmanager
def _patched(patches):
    """Apply (owner, name, replacement) patches; restore the originals."""
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


class Tracer:
    """Per-layer calls, inclusive and self seconds, and work counts."""

    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()  # theta_lookups, indices, terms
        self._stack: list[float] = []

    def span(self, layer: str, fn):
        stack = self._stack
        calls, inclusive, self_s = self.calls, self.inclusive, self.self_s

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                child = stack.pop()
                calls[layer] += 1
                inclusive[layer] += elapsed
                self_s[layer] += elapsed - child
                if stack:
                    stack[-1] += elapsed
        return timed

    def _counted(self, key: str, iterable):
        counts = self.counts
        for item in iterable:
            counts[key] += 1
            yield item

    @contextmanager
    def installed(self):
        """Wrap the verify path's layers for the duration of the block."""
        counts = self.counts
        lookup = _evaluate.EvalContext.theta
        sum_terms = _evaluate._sum_terms

        def counted_lookup(ctx, z):
            counts["theta_lookups"] += 1
            return lookup(ctx, z)

        def counted_sum_terms(ctx, inst, domain, term_fn):
            return sum_terms(ctx, inst,
                             lambda i: self._counted("terms", domain(i)), term_fn)

        def enumerator(fn):
            return lambda *args: self._counted("indices", fn(*args))

        patches = [
            (_verify, "_sample_with_values", self.span("sampler", _verify._sample_with_values)),
            (_sampler, "solve_balancing", self.span("catalog", _sampler.solve_balancing)),
            (_sampler, "evaluate_lhs", self.span("evaluate", _sampler.evaluate_lhs)),
            (_sampler, "evaluate_rhs", self.span("evaluate", _sampler.evaluate_rhs)),
            (_evaluate, "theta", self.span("theta", _evaluate.theta)),
            (_evaluate.EvalContext, "theta", counted_lookup),
            (_evaluate, "_sum_terms", counted_sum_terms),
        ] + [(_evaluate, name, enumerator(getattr(_evaluate, name))) for name in _ENUMERATORS]
        with _patched(patches):
            yield


@contextmanager
def capture_theta_args(into: list):
    """Record every (z, nome) that evaluate passes to theta."""
    theta = _evaluate.theta

    def capturing(z, nome):
        into.append((z, nome))
        return theta(z, nome)

    with _patched([(_evaluate, "theta", capturing)]):
        yield
