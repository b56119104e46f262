"""End-to-end and per-layer measurement of one workload.

Both modes drive the library only through what `ellsum verify` uses:
VerificationJob, run_job and report_to_json.  A job's clock runs from the
run_job call until the JSON report text is in hand.  Every report passes
the correctness gate (Gate) before it counts.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from ellsum import report_to_json, run_job
from spans import Tracer, capture_theta_args, original_theta
from workloads import CONDITION_CAP, TOLERANCE, WORKLOADS, make_job

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 12
THETA_REPEATS = 3
REJECTION_REASONS = ("pole", "separation", "magnitude", "condition")

# Run in a fresh interpreter: import ellsum and build the workload's first
# job, and print how long that took.  numpy is imported before the clock
# starts: it is about 70% of a fresh import of ellsum, it is not this
# repo's code, and on a shared machine its import time swings by half.
SETUP_CODE = """
import sys, time
import numpy
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
from workloads import make_job
make_job(sys.argv[3], int(sys.argv[4]), 0)
print(time.perf_counter() - t0)
"""


def relative_error(lhs: complex, rhs: complex) -> float:
    """ellsum's definition, restated so the gate does not trust the library's."""
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


class Gate:
    """Correctness gate over every report of a run.

    A trial fails when its status is not "pass"; failures are counted, as
    an identity that does not verify at the tolerance is an outcome of the
    program.  Each job's trials count once, however often the job runs, so
    `attempted` and `failed` depend on the seed only, not on how many passes
    the machine's speed allowed.  The report itself must be right: it keeps the unchanged
    tolerance 1e-8 and condition_cap 1e6, every cell and trial, statuses
    that agree with the relative error recomputed from lhs and rhs, and a
    verdict that agrees with the statuses.  Reports of the same job must be
    byte-identical once `timing` is dropped, whichever path produced them.
    Any of these going wrong is a problem, and a run with a problem is not
    correct.
    """

    def __init__(self, workload: str):
        self.workload = WORKLOADS[workload]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.max_rel_err = 0.0
        self.report_bytes: dict[int, int] = {}
        self._digests: dict[int, str] = {}

    def check(self, index: int, text: str, path: str) -> dict:
        """Gate job `index`'s report; returns it without `timing`."""
        report = json.loads(text)
        del report["timing"]
        w = self.workload
        trials = report["trials"]
        where = f"job {index} ({path})"
        if report["job"]["tolerance"] != TOLERANCE \
                or report["job"]["sample_config"]["condition_cap"] != CONDITION_CAP:
            self.problems.append(f"{where}: tolerance or condition_cap changed")
        if len(report["cells"]) != w.cells or len(trials) != w.cells * w.trials:
            self.problems.append(f"{where}: {len(report['cells'])} cells, {len(trials)} trials")
        failed = 0
        for trial in trials:
            status = trial["status"]
            failed += status != "pass"
            if status == "resample-exhausted":
                continue
            error = relative_error(complex(trial["lhs"]["re"], trial["lhs"]["im"]),
                                   complex(trial["rhs"]["re"], trial["rhs"]["im"]))
            self.max_rel_err = max(self.max_rel_err, error)
            expected = "pass" if error <= TOLERANCE else "fail"
            if status != expected or not trial["condition_ratio"] <= CONDITION_CAP:
                self.problems.append(f"{where}: trial status {status!r} at relative error "
                                     f"{error!r}, condition {trial['condition_ratio']!r}")
        if (report["verdict"] == "pass") != (failed == 0):
            self.problems.append(f"{where}: verdict {report['verdict']!r} "
                                 f"with {failed} failing trials")
        stripped = json.dumps(report, indent=2).encode()
        digest = hashlib.sha256(stripped).hexdigest()
        if index not in self._digests:
            self._digests[index] = digest
            self.report_bytes[index] = len(stripped)
            self.attempted += len(trials)
            self.failed += failed
        elif self._digests[index] != digest:
            self.problems.append(f"{where}: report differs from the first one of this job")
        return report

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def timed_job(name: str, seed: int, index: int, jobs: int) -> tuple[str, float, float]:
    """Run job `index`; returns (report text, total seconds, serialize seconds)."""
    job = make_job(name, seed, index)
    t0 = perf_counter()
    report = run_job(job, jobs=jobs)
    t1 = perf_counter()
    text = report_to_json(report)
    t2 = perf_counter()
    return text, t2 - t0, t2 - t1


def setup_seconds(name: str, seed: int, count: int) -> list[float]:
    """Set-up times of `count` fresh interpreters."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), name, str(seed)]
    return [float(subprocess.run(cmd, capture_output=True, text=True, check=True,
                                 timeout=120).stdout)
            for _ in range(count)]


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced serial passes over the workload's jobs until `seconds` have
    passed, after an untimed warm-up on job 0.

    The warm-up runs job 0 serially and with 2 worker processes, so every
    run checks that both paths give the same report.  The passes are timed
    serially only: with 2 workers on a 2-core machine the scheduler, not
    the program, sets the pace.  Every pass does the same work, and the
    speed of a shared machine drifts by tens of percent over seconds, so
    trials_per_s is the median over passes; set-up samples are taken at the
    start, middle and end of the run.
    """
    gate = Gate(name)
    group = SETUP_REPEATS // 3
    setup = setup_seconds(name, seed, group + 1)[1:]  # the first compiles bytecode
    for jobs, path in ((1, "serial"), (2, "jobs=2")):
        text, _, _ = timed_job(name, seed, 0, jobs)
        gate.check(0, text, path)

    w = WORKLOADS[name]
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        elapsed = 0.0
        for index in range(w.jobs):
            text, seconds_taken, _ = timed_job(name, seed, index, 1)
            gate.check(index, text, "serial")
            elapsed += seconds_taken
        passes.append(elapsed)
        if len(setup) == group and perf_counter() - start >= seconds / 2:
            setup += setup_seconds(name, seed, group)
    setup += setup_seconds(name, seed, group)

    per_pass = w.cells * w.trials * w.jobs
    metrics = {
        "trials_per_s": (per_pass / statistics.median(passes), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "report_bytes": (gate.report_bytes[0], "bytes"),
    }
    detail = {"passes": len(passes), "trials_per_pass": per_pass, "pass_s": passes,
              "setup_s": setup, "max_rel_err": gate.max_rel_err, "problems": gate.problems}
    return gate.result(_named(metrics)), detail


def theta_us_per_call(seed: int) -> dict[str, float]:
    """µs per untraced theta call at each p, over the arguments that the
    grid workload's first job passes to theta."""
    captured = []
    with capture_theta_args(captured):
        run_job(make_job("grid", seed, 0), jobs=1)
    by_p = defaultdict(list)
    for z, nome in captured:
        by_p[nome.p.real].append((z, nome))
    out = {}
    for p in WORKLOADS["grid"].p_values:
        calls = by_p[p]
        runs = []
        for _ in range(THETA_REPEATS):
            t0 = perf_counter()
            for z, nome in calls:
                original_theta(z, nome)
            runs.append(perf_counter() - t0)
        out[f"theta.us_p{p:g}"] = statistics.median(runs) / len(calls) * 1e6
    return out


def per_layer(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Rounds of untraced serial, untraced jobs=2 and traced serial runs of
    the workload's first job, until `seconds` have passed."""
    gate = Gate(name)
    theta_us = theta_us_per_call(seed)
    untraced, serialize, parallel, traced, tracers = [], [], [], [], []
    end = perf_counter() + seconds
    while True:
        text, elapsed, serializing = timed_job(name, seed, 0, 1)
        report = gate.check(0, text, "serial")
        untraced.append(elapsed)
        serialize.append(serializing)
        text, elapsed, _ = timed_job(name, seed, 0, 2)
        gate.check(0, text, "jobs=2")
        parallel.append(elapsed)
        tracer = Tracer()
        with tracer.installed():
            job = make_job(name, seed, 0)
            t0 = perf_counter()
            text = report_to_json(tracer.span("verify", run_job)(job, jobs=1))
            traced.append(perf_counter() - t0)
        gate.check(0, text, "traced")
        tracers.append(tracer)
        if perf_counter() >= end:
            break

    def median_of(field: str, layer: str) -> float:
        return statistics.median(getattr(t, field)[layer] for t in tracers)

    first = tracers[0]
    trials = len(report["trials"])
    rejections = {reason: sum(cell["rejections"].get(reason, 0) for cell in report["cells"])
                  for reason in REJECTION_REASONS}
    attempts = sum(sum(cell["rejections"].values()) for cell in report["cells"])
    theta_calls = first.calls["theta"]
    lookups = first.counts["theta_lookups"]
    serial_s = statistics.median(untraced)
    metrics = {
        "theta.calls": (theta_calls, "count"),
        "theta.self_s": (median_of("self_s", "theta"), "s"),
        "theta.us_per_call": (median_of("self_s", "theta") / max(theta_calls, 1) * 1e6, "us"),
        **{key: (value, "us") for key, value in theta_us.items()},
        "kernels.indices": (first.counts["indices"], "count"),
        "evaluate.calls": (first.calls["evaluate"], "count"),
        "evaluate.self_s": (median_of("self_s", "evaluate"), "s"),
        "evaluate.terms_per_s": (first.counts["terms"] / median_of("inclusive", "evaluate"), "1/s"),
        "evaluate.theta_cache_hit_ratio": (1 - theta_calls / lookups if lookups else 0.0, "ratio"),
        "catalog.solve_calls": (first.calls["catalog"], "count"),
        "catalog.solve_us_per_call": (
            median_of("inclusive", "catalog") / max(first.calls["catalog"], 1) * 1e6, "us"),
        "sampler.self_us_per_trial": (median_of("self_s", "sampler") / trials * 1e6, "us"),
        "sampler.attempts_per_trial": (attempts / trials, "ratio"),
        **{f"sampler.rejections.{reason}": (count, "count")
           for reason, count in rejections.items()},
        "verify.self_s": (median_of("self_s", "verify"), "s"),
        "verify.serialize_s": (statistics.median(serialize), "s"),
        "verify.serialize_share": (statistics.median(serialize) / serial_s, "ratio"),
        "verify.trials_per_s_jobs2": (trials / statistics.median(parallel), "1/s"),
        "verify.parallel_efficiency": (serial_s / (2 * statistics.median(parallel)), "ratio"),
        "tracing.overhead": (statistics.median(traced) / serial_s - 1, "ratio"),
        "max_rel_err": (gate.max_rel_err, "ratio"),
        "failed_share": (gate.failed / gate.attempted, "ratio"),
    }
    detail = {"rounds": len(tracers), "trials_per_job": trials,
              "untraced_s": untraced, "jobs2_s": parallel, "traced_s": traced,
              "problems": gate.problems}
    return gate.result(_named(metrics)), detail


def _named(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }
