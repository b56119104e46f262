"""Tests for the theta product and the elliptic shifted factorial."""

from __future__ import annotations

import cmath
import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, qp

from ellsum import (
    EllipticNome,
    NonFiniteError,
    PochhammerPoleError,
    ThetaDomainError,
    TruncationBudgetError,
    elliptic_pochhammer,
    ipow,
    relative_error,
    theta,
)
from ellsum.theta import _BLOCK, _COLUMNS, _block, _factor_counts

theta_module = importlib.import_module("ellsum.theta")


def nome(p, q=0.5):
    return EllipticNome(p, q)


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


def test_theta_trigonometric_value():
    assert theta(0.5, nome(0.0)) == 0.5


def test_theta_vanishes_at_one():
    assert theta(1.0, nome(0.2)) == 0.0


def test_theta_direct_product_oracle():
    # Oracle: multiply (1 - p^j z)(1 - p^{j+1}/z) until |p|^j < 1e-17.
    p, z = 0.1, 2.0
    expected = 1.0
    pj = 1.0
    while pj >= 1e-17:
        expected *= (1.0 - pj * z) * (1.0 - pj * p / z)
        pj *= p
    frozen = -0.7390187237138385  # the oracle's value, high-precision checked
    assert abs(expected - frozen) < 1e-12 * abs(frozen)
    value = theta(2.0, nome(0.1))
    assert abs(value - frozen) < 1e-12 * abs(frozen)


def test_theta_zero_argument_rejected():
    with pytest.raises(ThetaDomainError):
        theta(0.0, nome(0.2))


def test_theta_zero_argument_allowed_trigonometric():
    assert theta(0.0, nome(0.0)) == 1.0


def test_theta_truncation_budget():
    with pytest.raises(TruncationBudgetError, match="more than 1000 factors"):
        theta(0.7, nome(0.99))


def test_theta_deterministic_for_fixed_policy():
    n = nome(0.37 + 0.11j)
    assert theta(1.7 - 0.4j, n) == theta(1.7 - 0.4j, n)


def test_nome_validation():
    with pytest.raises(ValueError):
        EllipticNome(1.0, 0.5)
    with pytest.raises(ValueError):
        EllipticNome(0.2, 0.0)
    for p, q in ((math.nan, 0.5), (complex(0.1, math.nan), 0.5), (0.2, math.nan),
                 (0.2, math.inf)):
        with pytest.raises(ValueError):
            EllipticNome(p, q)


# ---------------------------------------------------------------------------
# batched theta
# ---------------------------------------------------------------------------


def _unreachable(*args):
    raise AssertionError("the truncation code was reached")


def _arguments(count, seed=7):
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(-2, 2, count)) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))


@pytest.mark.parametrize("p", [0.05, 0.2, 0.2 + 0.1j, 0.9])
def test_theta_batch_matches_scalar(p):
    # a scalar argument is a batch of one, returned as a Python complex
    z = _arguments(300)
    batch = theta(z, nome(p))
    for zk, value in zip(z.tolist(), batch.tolist()):
        scalar = theta(zk, nome(p))
        assert type(scalar) is complex and scalar == value


@pytest.mark.parametrize("p", [0.05, 0.2, 0.2 + 0.1j, 0.9])
def test_theta_batch_value_independent_of_batch(p):
    z = _arguments(64)
    full = theta(z, nome(p))
    for k in range(len(z)):
        assert theta(z[k:k + 1], nome(p))[0] == full[k]
    for width in (2, 5, 17):
        for k in range(len(z) - width):
            assert (theta(z[k:k + width], nome(p)) == full[k:k + width]).all()


def _full_block_theta(z, nome):
    """The reference product: every block multiplies all 32 rows for every
    argument, the factors past an argument's count set to 1, and halves
    each block to one row."""
    counts = theta_module._factor_counts(np.abs(z), nome)
    inv_z = 1.0 / z
    result = None
    for k in range(-(-int(counts.max()) // _BLOCK)):
        powers, next_powers, rows, _ = _block(nome.p, k)
        done = rows >= counts
        factors = np.where(done, 1.0, (1.0 - powers * z) * (1.0 - next_powers * inv_z))
        while len(factors) > 1:
            half = len(factors) // 2
            factors = factors[:half] * factors[half:]
        result = factors[0] if result is None else result * factors[0]
    return np.ones(len(z), dtype=complex) if result is None else result


def _mixed_batches(seed=11):
    """Batches of 1 to 200 arguments, |z| from 1e-6 to 1e6, half of them
    within 1e-4 of the real axis."""
    rng = np.random.default_rng(seed)
    for size in (1, 2, 7, 33, 200, *rng.integers(1, 200, 20)):
        phase = np.where(rng.random(size) < 0.5, rng.uniform(0, 2 * np.pi, size),
                         np.pi * rng.integers(0, 2, size) + 10 ** rng.uniform(-12, -4, size))
        yield 10 ** rng.uniform(-6, 6, size) * np.exp(1j * phase)


@pytest.mark.parametrize("fewer", [0, 12, 30])
@pytest.mark.parametrize("p", [0.05, 0.2, 0.2 + 0.1j, 0.5, 0.9])
def test_theta_equals_the_full_block_product(p, fewer, monkeypatch):
    # theta multiplies whole blocks, but a block past an argument's count
    # leaves that argument out: the same pairs in the same order as the
    # full product, so the same bits.  The factors next to a count differ
    # from 1 by less than 1e-18, so most of them leave the bits alone;
    # cutting `fewer` factors off every count (down to none) puts factors
    # far from 1 there, where a row not masked or an argument left out of
    # a block it needs shows.
    counts_of = theta_module._factor_counts
    monkeypatch.setattr(theta_module, "_factor_counts",
                        lambda abs_z, nome: np.maximum(counts_of(abs_z, nome) - fewer, 0))
    skips = set()
    for z in _mixed_batches():
        with np.errstate(over="ignore", invalid="ignore"):
            z = z[np.isfinite(_full_block_theta(z, nome(p)))]  # theta raises on overflow
        assert theta(z, nome(p)).tobytes() == _full_block_theta(z, nome(p)).tobytes()
        counts = theta_module._factor_counts(np.abs(z), nome(p)).astype(int)
        skips.add((counts.min() - 1) // _BLOCK != (counts.max() - 1) // _BLOCK)
    if not fewer:
        # some batches have arguments that skip blocks others need, except at
        # p = 0.05 (every count is below 32) and 0.5 (every count is 65 to 96)
        assert (True in skips) == (p not in (0.05, 0.5))


@pytest.mark.parametrize("p", [0.2, 0.9])
def test_theta_does_not_depend_on_call_history(p, monkeypatch):
    # blocks are multiplied in a workspace sized by the largest batch so far:
    # from an empty one, a small batch, a big one (both grow it), the small
    # one again (stale rows left past it) and the big one again each equal
    # the full block product
    monkeypatch.setattr(theta_module, "_workspace", [np.empty(0, dtype=complex)] * 3)
    small, big = _arguments(5, seed=3), _arguments(400, seed=4) ** 3
    for z in (small, big, small, big):
        assert theta(z, nome(p)).tobytes() == _full_block_theta(z, nome(p)).tobytes()
    assert theta_module._workspace[0].size == _BLOCK * len(big)


@pytest.mark.parametrize("p", [0.2, 0.9])
def test_theta_batch_wider_than_the_workspace_runs_in_chunks(p, monkeypatch):
    # a batch of more than _COLUMNS arguments runs in column chunks, so the
    # workspace stays at _BLOCK x _COLUMNS and the bits stay those of one pass
    monkeypatch.setattr(theta_module, "_workspace", [np.empty(0, dtype=complex)] * 3)
    z = _arguments(2 * _COLUMNS + 5, seed=5)
    assert theta(z, nome(p)).tobytes() == _full_block_theta(z, nome(p)).tobytes()
    assert [w.size for w in theta_module._workspace] == [_BLOCK * _COLUMNS] * 3


@pytest.mark.parametrize("p", [0.2, 0.9])
def test_theta_array_is_not_changed_by_a_later_call(p):
    z = _arguments(50)
    value = theta(z, nome(p))
    kept = value.copy()
    theta(_arguments(50, seed=8), nome(p))
    theta(_arguments(500, seed=9), nome(p))
    assert value.tobytes() == kept.tobytes()
    assert not any(np.shares_memory(value, w) for w in theta_module._workspace)


def test_theta_overflow_raises_non_finite_error_not_a_warning():
    # theta multiplies under np.errstate, so where RuntimeWarnings are
    # errors (tier-1, the selftest, the demos) an overflow is still the
    # NonFiniteError a sampler counts as a "condition" rejection
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteError, match="theta overflowed"):
            theta(np.array([0.5, 1e200]), nome(0.2))


@pytest.mark.parametrize("p", [0.0, 0.2])
@pytest.mark.parametrize("shape", [(), (2, 2)])
def test_theta_array_keeps_its_shape(shape, p):
    # any array is evaluated flat: each value equals its value in the flat batch
    z = _arguments(4)[:math.prod(shape)].reshape(shape)
    value = theta(z, nome(p))
    assert isinstance(value, np.ndarray) and value.shape == shape
    assert value.ravel().tolist() == theta(z.ravel(), nome(p)).tolist()


def test_theta_batch_trigonometric_is_exactly_one_minus_z(monkeypatch):
    # p = 0 never reaches the truncation code
    monkeypatch.setattr(theta_module, "_factor_counts", _unreachable)
    z = np.append(_arguments(50), 0.0)
    batch = theta(z, nome(0.0))
    assert np.array_equal(batch, 1.0 - z)
    assert batch.tolist() == [1.0 - zk for zk in z.tolist()]


def test_theta_batch_truncation_budget():
    with pytest.raises(TruncationBudgetError):
        theta(np.array([0.7, 0.5j]), nome(0.99))
    with pytest.raises(TruncationBudgetError):
        theta(np.array([0.7]), nome(0.9999999))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(math.inf, 1.0),
                                 complex(0.5, math.nan)])
@pytest.mark.parametrize("p", [0.2, 0.9])
def test_theta_non_finite_argument_raises_non_finite_error(bad, p):
    # not TruncationBudgetError, which means p is too close to 1
    with pytest.raises(NonFiniteError):
        theta(bad, nome(p))
    with pytest.raises(NonFiniteError):
        theta(np.array([0.7, bad]), nome(p))


def test_theta_batch_zero_argument_rejected():
    with pytest.raises(ThetaDomainError):
        theta(np.array([0.5, 0.0]), nome(0.2))


# ---------------------------------------------------------------------------
# independent oracle: theta(z; p) = (z; p)_inf (p/z; p)_inf in mpmath
# ---------------------------------------------------------------------------

ORACLE_P = [0.05, 0.2, 0.2 + 0.1j, 0.5, 0.9]
# |z| from 1e-2 to 1e2, phases in golden-angle steps
ORACLE_Z = (np.geomspace(1e-2, 1e2, 25) * np.exp(1j * (0.3 + 2.399963 * np.arange(25)))).tolist()


@pytest.mark.parametrize("p", ORACLE_P)
def test_theta_matches_mpmath_oracle(p):
    batch = theta(np.array(ORACLE_Z), nome(p)).tolist()
    with mp.workdps(40):
        for z, batched in zip(ORACLE_Z, batch):
            exact = qp(mpc(z), mpc(p)) * qp(mpc(p) / mpc(z), mpc(p))
            for value in (theta(z, nome(p)), batched):
                assert abs(value - exact) < 1e-13 * abs(exact), (z, value)


@pytest.mark.parametrize("p", ORACLE_P)
def test_theta_truncated_tail_is_below_contract(p):
    # theta multiplies the factors j < _factor_counts(|z|), scalar and batched;
    # the factors it drops, j onwards, multiply to within 1e-18 of 1 (README,
    # numerical contracts) for |p| <= 0.9.
    counts = _factor_counts(np.abs(ORACLE_Z), nome(p))
    with mp.workdps(40):
        for z, j in zip(ORACLE_Z, counts.astype(int).tolist()):
            assert j == _factor_counts(abs(z), nome(p))
            P, Z = mpc(p), mpc(z)
            tail = qp(P ** j * Z, P) * qp(P ** (j + 1) / Z, P)
            assert abs(tail - 1) < 1e-18, (z, j)


# ---------------------------------------------------------------------------
# elliptic shifted factorial
# ---------------------------------------------------------------------------


def test_pochhammer_shift_zero_and_one():
    n = nome(0.2)
    assert elliptic_pochhammer(0.7, 0, n) == 1.0
    assert elliptic_pochhammer(0.7, 1, n) == theta(0.7, n)


def test_pochhammer_negative_one():
    n = nome(0.2, 0.6)
    value = elliptic_pochhammer(0.7, -1, n)
    assert value == pytest.approx(1.0 / theta(0.7 / 0.6, n))


def test_pochhammer_trigonometric_oracle():
    # (0.3)_3 at p = 0, q = 0.5 is (1 - 0.3)(1 - 0.15)(1 - 0.075).
    value = elliptic_pochhammer(0.3, 3, nome(0.0, 0.5))
    assert value == pytest.approx(0.7 * 0.85 * 0.925, rel=1e-15)


def test_pochhammer_zero_base_rejected():
    with pytest.raises(ThetaDomainError):
        elliptic_pochhammer(0.0, 2, nome(0.2))


def test_pochhammer_overflow_raises_non_finite_error():
    # (1e200)_2 = (1 - 1e200)(1 - 5e199): each factor is finite, the product not
    with pytest.raises(NonFiniteError) as excinfo:
        elliptic_pochhammer(1e200, 2, nome(0.0))
    assert str(excinfo.value) == "((1e+200+0j))_2 overflowed"


def test_pochhammer_pole_reports_factor_index():
    # (q)_{-1} = 1/theta(1) divides by the zero of theta at 1.
    n = nome(0.2, 0.6)
    with pytest.raises(PochhammerPoleError) as excinfo:
        elliptic_pochhammer(0.6, -1, n)
    assert excinfo.value.factor_index == -1
    assert excinfo.value.shift == -1


def test_pochhammer_shift_must_be_whole():
    n = nome(0.2, 0.6)
    for k in (2, -2):
        assert elliptic_pochhammer(0.7, float(k), n) == elliptic_pochhammer(0.7, k, n)
    for bad in (2.5, math.nan):
        with pytest.raises(ValueError, match="k must be an integer"):
            elliptic_pochhammer(0.7, bad, n)


# ---------------------------------------------------------------------------
# integer powers
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-40, max_value=40),
       st.integers(min_value=-40, max_value=40))
def test_ipow_adds_exponents(m, k):
    z = 0.8 + 0.3j
    assert relative_error(ipow(z, m + k), ipow(z, m) * ipow(z, k)) < 1e-12


def test_ipow_matches_builtin():
    for exponent in range(-12, 13):
        assert cmath.isclose(ipow(1.1 - 0.2j, exponent), (1.1 - 0.2j) ** exponent,
                             rel_tol=1e-13)
