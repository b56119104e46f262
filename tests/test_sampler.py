"""Tests for the seeded instance sampler and its rejection gates."""

from __future__ import annotations

import math

import pytest

from ellsum import (
    BalancingError,
    NonFiniteError,
    ResampleExhaustedError,
    SampleConfig,
    TruncationBudgetError,
    VerificationJob,
    rejection_report,
    run_job,
    sample_instance,
)
from ellsum import sampler
from ellsum.catalog import Shape


def test_sampling_is_deterministic():
    config = SampleConfig(seed=7)
    first = sample_instance("gr-sum", n=3, N=2, config=config, trial_index=5, p=0.2)
    second = sample_instance("gr-sum", n=3, N=2, config=config, trial_index=5, p=0.2)
    assert first.params == second.params
    assert first.z == second.z
    assert first.nome.q == second.nome.q


def test_different_trials_differ():
    config = SampleConfig(seed=7)
    a = sample_instance("gr-sum", n=3, N=2, config=config, trial_index=0, p=0.2)
    b = sample_instance("gr-sum", n=3, N=2, config=config, trial_index=1, p=0.2)
    assert a.params != b.params


def test_different_seeds_differ():
    a = sample_instance("gr-sum", n=3, N=2, config=SampleConfig(seed=1),
                        trial_index=0, p=0.2)
    b = sample_instance("gr-sum", n=3, N=2, config=SampleConfig(seed=2),
                        trial_index=0, p=0.2)
    assert a.params != b.params


def test_trigonometric_p_passes_through():
    inst = sample_instance("gr-sum", n=2, N=1, config=SampleConfig(seed=3),
                           trial_index=0, p=0.0)
    assert inst.nome.p == 0.0


def test_hundred_samples_satisfy_constraint():
    config = SampleConfig(seed=11)
    for trial in range(100):
        inst = sample_instance("gr-sum", n=3, N=3, config=config,
                               trial_index=trial, p=0.05)
        assert max(inst.constraint_residuals()) <= 1e-13


def test_modulus_window_respected():
    config = SampleConfig(seed=5, modulus_range=(0.5, 0.9))
    inst = sample_instance("theta-lemma", n=2, config=config, trial_index=0, p=0.2)
    for name in inst.entry.free_params:
        assert 0.5 - 1e-12 <= abs(inst.params[name]) <= 0.9 + 1e-12
    for z in inst.z:
        assert 0.5 - 1e-12 <= abs(z) <= 0.9 + 1e-12


def test_rejection_report_reasons():
    config = SampleConfig(seed=13)
    hist = rejection_report("gr-sum", n=4, N=4, config=config, count=60)
    assert sum(hist.values()) == 60
    assert set(hist) == {"pass", "pole", "separation", "magnitude", "condition"}
    # pass rate SLO for the default config on the largest grid cell
    assert hist["pass"] / 60 > 0.2


def test_pole_floor_zero_disables_pole_rejections():
    config = SampleConfig(seed=13, pole_floor=0.0)
    hist = rejection_report("gr-sum", n=4, N=4, config=config, count=60)
    assert hist["pole"] == 0


def test_condition_cap_infinite_disables_condition_rejections():
    config = SampleConfig(seed=13, condition_cap=math.inf)
    hist = rejection_report("gr-sum", n=4, N=4, config=config, count=60)
    assert hist["condition"] == 0


def test_resample_exhaustion_reports_histogram():
    config = SampleConfig(seed=1, condition_cap=1e-12, max_resamples=5)
    with pytest.raises(ResampleExhaustedError) as excinfo:
        sample_instance("gr-sum", n=2, N=2, config=config, trial_index=0, p=0.2)
    histogram = excinfo.value.histogram
    assert sum(histogram.values()) == 5
    assert histogram["condition"] > 0


def test_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(modulus_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        SampleConfig(q_range=(1.5, 0.2))
    with pytest.raises(ValueError):
        SampleConfig(max_resamples=0)
    with pytest.raises(ValueError):
        SampleConfig(p_values=(1.5,))


def test_seed_change_does_not_change_verdict():
    # identities hold for all valid instances, so the suite's pass/fail
    # status is seed-independent
    for seed in (21, 22):
        job = VerificationJob(identities=("theta-lemma", "frenkel-turaev"),
                              n_values=(1, 2), N_values=(0, 1, 2), trials=5,
                              config=SampleConfig(seed=seed))
        assert run_job(job).verdict == "pass"


@pytest.mark.parametrize("n, N", [(0, 2), (2, -1), (None, 2), (2, None)])
def test_bad_shape_fails_before_any_draw(n, N, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew for a bad shape")
    monkeypatch.setattr(sampler, "_draws", no_draw)
    with pytest.raises(BalancingError):
        sample_instance("gr-sum", n=n, N=N, config=SampleConfig(), trial_index=0, p=0.2)
    with pytest.raises(BalancingError):
        rejection_report("gr-sum", n=n, N=N, config=SampleConfig(), count=3, p=0.2)


def test_negative_trial_index_raises():
    # SeedSequence entropy must be non-negative
    with pytest.raises(ValueError):
        sample_instance("gr-sum", n=2, N=1, config=SampleConfig(), trial_index=-1, p=0.2)


def test_p_near_one_raises_truncation_budget_error():
    # theta at p = 0.97 needs more than the policy's 1000 factors: a bad
    # configuration, not a draw to reject as badly conditioned
    with pytest.raises(TruncationBudgetError, match="more than 1000 factors"):
        sample_instance("gr-sum", n=2, N=1, config=SampleConfig(), trial_index=0, p=0.97)


def test_overflow_is_a_condition_rejection(monkeypatch):
    def overflowing(*args, **kwargs):
        raise NonFiniteError("sum overflowed")
    monkeypatch.setattr(sampler, "evaluate_lhs", overflowing)
    hist = rejection_report("gr-sum", n=2, N=1, config=SampleConfig(seed=3), count=5, p=0.2)
    assert hist["condition"] + hist["separation"] + hist["magnitude"] == 5
    assert hist["condition"] > 0


@pytest.mark.parametrize("field, value", [
    ("modulus_range", (math.nan, 1.5)), ("modulus_range", (0.2, math.inf)),
    ("q_range", (0.2, math.nan)), ("q_range", (0.0, 1.5)),
    ("pole_floor", math.nan), ("pole_floor", -1e-4),
    ("condition_cap", math.nan), ("condition_cap", -1.0), ("condition_cap", 0.0),
    ("min_z_separation", math.nan), ("min_z_separation", -0.05),
    ("p_values", ()), ("p_values", (complex(math.nan),)),
    ("seed", 1.5), ("max_resamples", 2.5),
])
def test_config_rejects_bad_numbers(field, value):
    with pytest.raises(ValueError, match=field.split("_")[0]):
        SampleConfig(**{field: value})


def _uniform_draw(rng, lo, hi):
    """One value drawn with a scalar rng.uniform per uniform."""
    modulus = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return complex(modulus * math.cos(phase), modulus * math.sin(phase))


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


@pytest.mark.parametrize("ranges", [
    "attempt",  # q_range, then modulus_range for the free parameters and z
    ((1e-3, 0.5), (1e-3, 1e3), (0.3, 1.4), (0.2, 0.2)),
])
def test_block_draws_equal_scalar_uniform_draws(ranges):
    config = SampleConfig()
    if ranges == "attempt":
        ranges = (config.q_range, *[config.modulus_range] * 11)
    log_ranges = [(math.log(lo), math.log(hi)) for lo, hi in ranges]
    for trial in range(1000):
        def stream():
            return sampler._rng_for(config, "bt-transform", Shape(4, 2, None), trial, 0.2)
        block_rng, scalar_rng, single_rng = stream(), stream(), stream()
        scalar = [_uniform_draw(scalar_rng, lo, hi) for lo, hi in ranges]
        assert _bits(sampler._draws(block_rng, log_ranges)) == _bits(scalar)
        assert _bits(sampler._draw(single_rng, lo, hi) for lo, hi in ranges) == _bits(scalar)
        # and each leaves the stream where the scalar draws leave it
        assert block_rng.random() == scalar_rng.random() == single_rng.random()
