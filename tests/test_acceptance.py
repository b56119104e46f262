"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; plain `pytest` shows them for failing criteria only.
"""

from __future__ import annotations

import importlib
import json
import time

import pytest

from ellsum import (
    SampleConfig,
    VerificationJob,
    evaluate_lhs,
    reduction_check,
    relative_error,
    report_to_dict,
    run_job,
    sample_instance,
)
from ellsum.selfcheck import (
    check_balanced_sum,
    check_interpolation,
    check_negative_shift,
    check_quadratic_factorization,
    check_ratio_equivalence,
    check_shift_addition,
    check_theta_inversion,
    check_theta_quasi_periodicity,
)

SEED = 42

theta_module = importlib.import_module("ellsum.theta")


def _announce(number: int, name: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


def _report_max_error(report) -> float:
    return max((cell["max_relative_error"] or 0.0) for cell in report.cells)


def test_criterion_1_identity_suite():
    # 11 identities, n in 1..4 where applicable, N in 0..4 (box totals <= 4),
    # p in {0, 0.05, 0.2}, 25 seeded trials per cell, default SampleConfig.
    job = VerificationJob(identities="all", n_values=(1, 2, 3, 4),
                          N_values=(0, 1, 2, 3, 4), trials=25,
                          tolerance=1e-8, config=SampleConfig(seed=SEED))
    start = time.perf_counter()
    report = run_job(job)
    elapsed = time.perf_counter() - start
    worst = _report_max_error(report)
    passed = report.verdict == "pass" and worst <= 1e-8 and elapsed < 300.0
    _announce(1, "identity suite", passed,
              f"{len(report.trials)} trials, max rel err {worst:.3e}, "
              f"{elapsed:.1f}s")
    # stash for criterion 6 (trigonometric cells of the same run)
    test_criterion_1_identity_suite.report = report


def test_criterion_2_theta_property_suite():
    results = [
        check_theta_inversion(1000, SEED, 1e-12),
        check_theta_quasi_periodicity(1000, SEED, 1e-12),
        check_shift_addition(1000, SEED, 1e-12),
        check_negative_shift(1000, SEED, 1e-12),
        check_quadratic_factorization(1000, SEED, 1e-12),
    ]
    worst = max(r.max_rel_err for r in results)
    passed = all(r.passed for r in results)
    _announce(2, "theta/shifted-factorial properties", passed,
              f"{' + '.join(str(r.samples) for r in results)} samples, "
              f"max rel err {worst:.3e}")


def test_criterion_3_ratio_cross_formula():
    result = check_ratio_equivalence(500, SEED, 1e-10, max_n=5, max_weight=8)
    _announce(3, "A-type ratio cross-formula", result.passed,
              f"{result.samples} samples, max rel err {result.max_rel_err:.3e}")


def test_criterion_4_balanced_sum_and_interpolation():
    balanced = check_balanced_sum(500, SEED, 1e-10, max_n=5)
    interp = check_interpolation(500, SEED, 1e-10)
    passed = balanced.passed and interp.passed
    worst = max(balanced.max_rel_err, interp.max_rel_err)
    _announce(4, "balanced sum and interpolation", passed,
              f"{balanced.samples} + {interp.samples} samples, max rel err {worst:.3e}")


def test_criterion_5_reduction_cross_checks():
    config = SampleConfig(seed=SEED)
    worst = 0.0

    def run(kind, identity, trial, *, n=None, N=None, pinned=None):
        nonlocal worst
        inst = sample_instance(identity, n=n, N=N, config=config,
                               trial_index=trial, p=0.05, pinned=pinned)
        result = reduction_check(kind, inst, tolerance=1e-8)
        worst = max(worst, result.residual)
        assert result.ok, (kind, n, N, result.residual)

    def pin_aq_bc(ctx):
        return ctx["params"]["a"] * ctx["q"] / ctx["params"]["b"]

    def pin_general_c(ctx):
        P = ctx["params"]
        return (P["a"] ** 2 * ctx["q"] ** (ctx["N"] + 1)
                / (P["b"] * P["f"] * P["g"] * ctx["Z"] ** 2))

    for trial in range(25):
        n123 = trial % 3 + 1
        run("gr-sum-to-theta-lemma", "gr-sum", trial, n=trial % 4 + 1, N=1)
        run("gr-corollary-to-gr-sum", "gr-corollary", trial,
            n=n123, N=trial % 3 + 1)
        run("bt-unit-lhs", "bt-transform", trial, n=n123, N=trial % 3 + 1,
            pinned={"b": 1.0})
        run("bt-to-gr-corollary", "bt-transform", trial, n=n123,
            N=trial % 3 + 1, pinned={"c": pin_aq_bc})
        run("gr-corollary-to-frenkel-turaev", "gr-corollary", trial,
            n=1, N=trial % 5)
        n_gj = trial % 2 + 2
        pins = ({"d": (lambda ctx: ctx["params"]["f"] * ctx["Z"]),
                 "c": pin_general_c} if n_gj % 2 == 1 else
                {"d": (lambda ctx: ctx["Z"]), "c": pin_general_c})
        run("general-to-jts", "general-jackson", trial, n=n_gj,
            N=trial % 3 + 1, pinned=pins)
    _announce(5, "reduction cross-checks", True,
              f"6 kinds x 25 trials, max residual {worst:.3e}")


def test_criterion_6_trigonometric_degeneration(monkeypatch):
    # p = 0 cells must pass, and must be bit-identical when the truncation
    # machinery is crippled (its factor count raises): the p = 0 path never
    # touches it.
    def crippled(*args):
        raise AssertionError("the p = 0 path reached theta's truncation code")

    job = VerificationJob(
        identities="all", trials=25, tolerance=1e-8,
        config=SampleConfig(seed=SEED, p_values=(0.0,)))
    report_a = run_job(job)
    monkeypatch.setattr(theta_module, "_factor_counts", crippled)
    report_b = run_job(job, jobs=1)  # worker processes would not see the patch

    def comparable(report):
        data = report_to_dict(report)
        return json.dumps({"cells": data["cells"], "trials": data["trials"],
                           "verdict": data["verdict"]})

    identical = comparable(report_a) == comparable(report_b)
    passed = (report_a.verdict == "pass" and identical
              and _report_max_error(report_a) <= 1e-8)
    _announce(6, "trigonometric degeneration", passed,
              f"{len(report_a.trials)} p=0 trials, "
              f"max rel err {_report_max_error(report_a):.3e}, "
              f"truncation-independent={identical}")


def test_criterion_7_c_e_swap_invariance():
    config = SampleConfig(seed=SEED)
    worst = 0.0
    for trial in range(50):
        inst = sample_instance("bt-transform", n=trial % 4 + 1,
                               N=trial % 3 + 1, config=config,
                               trial_index=trial, p=0.05)
        lhs, _ = evaluate_lhs(inst)
        swapped = inst.with_params(c=inst.params["e"], e=inst.params["c"])
        lhs_swapped, _ = evaluate_lhs(swapped)
        worst = max(worst, relative_error(lhs, lhs_swapped))
    _announce(7, "c/e swap invariance", worst <= 1e-9,
              f"50 instances, max rel err {worst:.3e}")


def test_criterion_8_report_determinism():
    job = VerificationJob(identities=("gr-sum", "theta-lemma", "rs-jackson"),
                          n_values=(1, 2, 3), N_values=(0, 1, 2), trials=5,
                          config=SampleConfig(seed=SEED))

    def stripped(report) -> bytes:
        data = report_to_dict(report)
        data.pop("timing")
        return json.dumps(data, indent=2).encode()

    first = stripped(run_job(job))
    second = stripped(run_job(job))
    parallel = stripped(run_job(job, jobs=2))
    passed = first == second == parallel
    _announce(8, "report determinism", passed,
              f"{len(first)} bytes, serial and parallel reruns identical")


@pytest.mark.slow
def test_wide_grid_passes():
    # every identity at n 1..6, N 0..8 and the default p values, 5 trials per
    # cell: 456 shapes (9 per scalar identity, 6 for theta-lemma, 54 for each
    # of the other 8) times 3 p values make 1,368 cells and 6,840 trials.  A
    # failure here is a program defect: never shrink the grid to pass it.
    job = VerificationJob(identities="all", n_values=tuple(range(1, 7)),
                          N_values=tuple(range(9)), trials=5, tolerance=1e-8,
                          config=SampleConfig(seed=SEED, condition_cap=1e6))
    report = run_job(job)
    worst = _report_max_error(report)
    assert report.verdict == "pass", worst
    assert len(report.cells) == 1368
    assert len(report.trials) == 6840
    assert sum(cell["trials"] for cell in report.cells) == 6840
    assert all(trial.status == "pass" for trial in report.trials)
    assert worst <= 1e-8
