"""Tests for the seeded instance sampler and its rejection gates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ellsum import (
    BalancingError,
    NonFiniteError,
    ResampleExhaustedError,
    SampleConfig,
    TruncationBudgetError,
    VerificationJob,
    run_job,
    sample_instance,
    solve_balancing,
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


def _cell_rejections(**config):
    """The rejections of the one cell gr-sum, n 4, N 4, p 0 over 60 trials."""
    job = VerificationJob(identities="gr-sum", n_values=(4,), N_values=(4,), trials=60,
                          config=SampleConfig(seed=13, p_values=(0.0,), **config))
    (cell,) = run_job(job).cells
    return cell["rejections"]


def test_rejection_report_reasons():
    hist = _cell_rejections()
    assert hist["pass"] == 60  # every trial passes once, after its rejections
    assert set(hist) == {"pass", "pole", "separation", "magnitude", "condition"}
    # pass rate SLO for the default config on the largest grid cell
    assert hist["pass"] / sum(hist.values()) > 0.2


def test_pole_floor_zero_disables_pole_rejections():
    assert _cell_rejections(pole_floor=0.0)["pole"] == 0


def test_condition_cap_infinite_disables_condition_rejections():
    assert _cell_rejections(condition_cap=math.inf)["condition"] == 0


def test_resample_exhaustion_reports_histogram():
    config = SampleConfig(seed=1, condition_cap=1e-12, max_resamples=5)
    with pytest.raises(ResampleExhaustedError) as excinfo:
        sample_instance("gr-sum", n=2, N=2, config=config, trial_index=0, p=0.2)
    histogram = excinfo.value.histogram
    assert sum(histogram.values()) == 5
    assert histogram["condition"] > 0


@pytest.mark.parametrize("reason, pole_floor, pinned", [
    ("pole", 1e3, None),  # no denominator is that far from zero
    ("magnitude", 1e-4, {"a": 1e-200}),  # the solve underflows to e = 0
])
def test_every_draw_rejected_for_one_reason(reason, pole_floor, pinned, monkeypatch):
    solve_errors = []

    def solve(*args, **kwargs):
        try:
            return solve_balancing(*args, **kwargs)
        except BalancingError as exc:
            solve_errors.append(str(exc))
            raise
    monkeypatch.setattr(sampler, "solve_balancing", solve)
    config = SampleConfig(seed=1, pole_floor=pole_floor, max_resamples=3)
    with pytest.raises(ResampleExhaustedError) as excinfo:
        sample_instance("frenkel-turaev", N=2, p=0.2, trial_index=0, config=config,
                        pinned=pinned)
    assert excinfo.value.histogram == {**dict.fromkeys(sampler.REJECTION_REASONS, 0),
                                       reason: 3}
    expected = ["frenkel-turaev: constraint forces e = 0"] * 3 if reason == "magnitude" else []
    assert solve_errors == expected


@pytest.mark.parametrize("pins", [{"e": 0.5}, {"zz": 0.5}, {"a": 0.5, "e": 0.5}])
def test_pin_of_no_free_parameter_rejected_before_any_draw(pins, monkeypatch):
    # e is frenkel-turaev's dependent and zz no parameter at all: no draw
    # could pass, so this is a bad request, not 200 "magnitude" rejections
    monkeypatch.setattr(sampler, "_draws", None)
    with pytest.raises(BalancingError, match=r"\['(e|zz)'\] are not free"):
        sample_instance("frenkel-turaev", N=2, config=SampleConfig(seed=1),
                        trial_index=0, p=0.2, pinned=pins)


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


@pytest.mark.parametrize("n, N, trial_index", [(2, 0.7, 0), (2.5, 1, 0), (2, 1, 1.5)])
def test_non_integral_request_raises_value_error(n, N, trial_index):
    with pytest.raises(ValueError, match="must be an integer"):
        sample_instance("gr-sum", n=n, N=N, config=SampleConfig(),
                        trial_index=trial_index, p=0.2)


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
    with pytest.raises(ResampleExhaustedError) as excinfo:
        sample_instance("gr-sum", n=2, N=1, config=SampleConfig(seed=3, max_resamples=5),
                        trial_index=0, p=0.2)
    hist = excinfo.value.histogram
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


#: Trial 0 at seed 42 and p 0.2 of one shape per arity, as literals: a change
#: to any word of a trial's stream entropy (the seed, the identity, n, the
#: trial, p, N or a box limit) changes these draws.
#: (identity, request, q, params, z, rejection histogram)
PINNED_TRIALS = [
    ("frenkel-turaev", {"N": 3}, -1.333128611011459 - 0.07365118339191645j,
     {"a": -0.6241000502438355 + 0.03682592356128698j,
      "b": -0.18918364898825346 - 0.21982336398675503j,
      "c": 0.3488986435956907 - 0.19961882041176043j,
      "d": 0.05086906694113888 - 0.29980164813787596j,
      "e": -13.827252352017343 - 32.19375330631778j},
     None, {"pass": 1}),
    ("gr-sum", {"n": 3, "N": 2}, 0.47970129186390725 + 1.0461364415364771j,
     {"b1": -1.4497119652922534 - 0.3073727684502612j,
      "b2": 0.3429182476517228 + 0.1941996272781556j,
      "b3": -0.33997438053563656 + 0.024672110977442697j,
      "b4": 1249.1613247037105 + 1086.113530944651j},
     (-0.5086782759331324 - 0.3649709396749861j, 0.23705294209511343 - 0.30744651139434287j,
      0.12072445521300941 - 0.17338080755582083j), {"pass": 1}),
    ("rs-jackson", {"n": 3, "N": 4}, -0.0017552320882935428 - 0.31143696616703576j,
     {"a": -0.35349079993141175 - 0.1934599172295294j,
      "b": 0.5363729118884011 + 0.3599815302910105j,
      "c": -0.29597896367900184 + 0.7953117235290716j,
      "d": 0.43132339139856246 + 0.7878327368634586j,
      "e": -0.0004859226014392507 + 0.0008353161677958655j},
     (-0.3957291564209463 + 0.11800119957683196j, 0.21764362469472429 + 0.18001227721177984j,
      0.3572198050585006 + 0.02781517074521093j), {"pass": 1}),
    ("theta-lemma", {"n": 2}, 0.2008791275477545 - 0.8375404168667075j,
     {"b1": 0.1251584729440939 + 0.5595023407104632j,
      "b2": -0.5720167774723989 - 0.25957636021338154j,
      "b3": -0.11517963967739743 - 0.31825449764093056j,
      "b4": -98.4361246714073 + 545.1273806892085j},
     (-0.1690022820422972 - 0.1387309215896165j, -0.5548285948912842 - 0.0441388731952246j),
     {"pass": 1, "separation": 1}),
]


@pytest.mark.parametrize("identity_id, request_, q, params, z, rejections", PINNED_TRIALS,
                         ids=[row[0] for row in PINNED_TRIALS])
def test_seeded_streams_are_pinned(identity_id, request_, q, params, z, rejections):
    inst, _, _, _, histogram = sampler._sample_with_values(
        identity_id, config=SampleConfig(seed=42), trial_index=0, p=0.2, **request_)
    if identity_id == "rs-jackson":
        assert inst.box == (2, 1, 1)
    assert inst.nome.q == pytest.approx(q, rel=1e-12)
    assert inst.params == pytest.approx(params, rel=1e-12)
    assert inst.z == (None if z is None else pytest.approx(z, rel=1e-12))
    assert histogram == {**dict.fromkeys(sampler.REJECTION_REASONS, 0), **rejections}


def test_stream_is_the_seed_sequence_pcg64_stream():
    words = (2**64 + 5, 3, 0, 7)
    expected = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [words[0] & 0xFFFFFFFFFFFFFFFF, *words[1:]])))
    assert sampler._stream(*words).random(4).tolist() == expected.random(4).tolist()


@pytest.fixture
def exact_zero_draw(monkeypatch):
    """theta-lemma at n 1 and p 0 with z_0 b1 = 1 exactly, so that both sides
    carry theta(z_0 b1) = 0 and evaluate to exactly (0j, 0.0)."""
    drawn = [complex(0.7), complex(2.0), 0.3 + 0.1j, complex(0.4), complex(0.5)]  # q, b1..b3, z_0
    monkeypatch.setattr(sampler, "_draws", lambda rng, log_ranges: list(drawn))
    return dict(identity_id="theta-lemma", shape=Shape(1, None, None),
                config=SampleConfig(), p=0j, rng=None, pinned=None)


def test_two_exactly_zero_sides_pass_with_condition_zero(exact_zero_draw):
    reason, (inst, lhs, rhs, condition) = sampler._attempt(**exact_zero_draw)
    assert inst.z[0] * inst.params["b1"] == 1
    assert (reason, lhs, rhs, condition) == ("pass", 0j, 0j, 0.0)


def test_an_exactly_zero_side_with_nonzero_terms_is_a_condition_rejection(exact_zero_draw,
                                                                         monkeypatch):
    monkeypatch.setattr(sampler, "evaluate_rhs", lambda inst, pole_floor: (0j, 1.0))
    assert sampler._attempt(**exact_zero_draw) == ("condition", None)
