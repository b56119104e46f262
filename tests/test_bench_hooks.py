"""The benchmark in perfbench/ measures layers by patching the library where
its callers bind them.  These are the names it relies on: a rename makes the
benchmark fail.  Tracing must not change a report."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from ellsum import SampleConfig, VerificationJob, report_to_json, run_job
from ellsum import evaluate as evaluate_module

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Two p = 0 cells (box and exact-weight domains) and one p = 0.2 cell
# (bounded-weight domain).
JOBS = (
    VerificationJob(identities=("rs-jackson", "gr-sum"), n_values=(2,), N_values=(1,),
                    trials=2, config=SampleConfig(seed=42, p_values=(0.0,))),
    VerificationJob(identities=("gr-corollary",), n_values=(2,), N_values=(1,),
                    trials=2, config=SampleConfig(seed=42, p_values=(0.2,))),
)
ENUMERATORS = ("compositions_exact", "compositions_bounded", "box_indices")


def _report(job) -> dict:
    report = json.loads(report_to_json(run_job(job, jobs=1)))
    del report["timing"]
    return report


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    return spans


def test_benchmark_hooks_are_reached_and_tracing_changes_nothing(spans, monkeypatch):
    enumerated = dict.fromkeys(ENUMERATORS, 0)
    for name in ENUMERATORS:
        def counted(*args, _name=name, _fn=getattr(evaluate_module, name)):
            enumerated[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(evaluate_module, name, counted)
    # every left side here sums over an enumerator's domain; count the sums
    # that walk their domain
    sums = {"lhs": 0, "walked": 0}
    sum_terms = evaluate_module._sum_terms

    def counted_sum_terms(ctx, inst, domain, side):
        walked = []

        def walking(instance):
            walked.append(True)
            return domain(instance)
        result = sum_terms(ctx, inst, walking, side)
        if side is inst.entry.sides[0]:
            sums["lhs"] += 1
            sums["walked"] += bool(walked)
        return result
    monkeypatch.setattr(evaluate_module, "_sum_terms", counted_sum_terms)

    for job in JOBS:
        untraced = _report(job)
        tracer, captured = spans.Tracer(), []
        with tracer.installed(), spans.capture_theta_args(captured):
            traced = _report(job)
        assert traced == untraced
        assert {nome.p for _, nome in captured} == set(job.config.p_values)
        assert all(isinstance(z, np.ndarray) for z, _ in captured)
        assert tracer.calls["sampler"] == len(traced["trials"])
        assert tracer.calls["catalog"] > 0
        assert tracer.calls["evaluate"] >= 2 * len(traced["trials"])
        assert 0 < tracer.calls["theta"] <= tracer.counts["theta_lookups"]
        assert tracer.counts["terms"] > 0 and tracer.counts["indices"] > 0
    assert all(enumerated.values()), enumerated
    assert sums["lhs"] > 0 and sums["walked"] == sums["lhs"] == sum(enumerated.values())
