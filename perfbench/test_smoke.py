"""Smoke test of the benchmark: every workload, at its shortest length,
emits each metric BENCHMARK.json names and passes the correctness gate.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "42",
         "--seconds", "1", "--trace", trace],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    named = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in named}
    assert result["correct"], done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_tracer_counts_layers_and_restores_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans
    from ellsum import run_job
    from workloads import make_job

    patched = [(spans._verify, "_sample_with_values"), (spans._sampler, "solve_balancing"),
               (spans._sampler, "evaluate_lhs"), (spans._sampler, "evaluate_rhs"),
               (spans._evaluate, "theta"), (spans._evaluate.EvalContext, "theta"),
               (spans._evaluate, "_sum_terms"), (spans._evaluate, "compositions_bounded")]
    before = [getattr(owner, name) for owner, name in patched]
    tracer = spans.Tracer()
    with tracer.installed():
        report = tracer.span("verify", run_job)(make_job("shallow", 42, 0), jobs=1)
    assert [getattr(owner, name) for owner, name in patched] == before
    assert tracer.calls["verify"] == 1
    assert tracer.calls["sampler"] == len(report.trials)
    assert tracer.calls["evaluate"] >= 2 * len(report.trials)
    assert 0 < tracer.calls["theta"] <= tracer.counts["theta_lookups"]
    assert 0 < tracer.counts["indices"] <= tracer.counts["terms"]
    assert tracer.self_s["verify"] < tracer.inclusive["verify"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "grid", "0")
    assert done.returncode != 0
    assert done.stdout == ""
