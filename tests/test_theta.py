"""Tests for the theta product and the elliptic shifted factorial."""

from __future__ import annotations

import cmath
import math

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
    TruncationPolicy,
    elliptic_pochhammer,
    ipow,
    relative_error,
    theta,
)
from ellsum.theta import _factor_counts


def nome(p, q=0.5, **policy):
    return EllipticNome(p, q, TruncationPolicy(**policy) if policy else TruncationPolicy())


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
    tight = EllipticNome(0.99, 0.5, TruncationPolicy(max_terms=5))
    with pytest.raises(TruncationBudgetError):
        theta(0.7, tight)


def test_theta_deterministic_for_fixed_policy():
    n = nome(0.37 + 0.11j)
    assert theta(1.7 - 0.4j, n) == theta(1.7 - 0.4j, n)


def test_nome_validation():
    with pytest.raises(ValueError):
        EllipticNome(1.0, 0.5)
    with pytest.raises(ValueError):
        EllipticNome(0.2, 0.0)
    with pytest.raises(ValueError):
        TruncationPolicy(epsilon=0.0)
    with pytest.raises(ValueError):
        TruncationPolicy(max_terms=0)
    for p, q in ((math.nan, 0.5), (complex(0.1, math.nan), 0.5), (0.2, math.nan),
                 (0.2, math.inf)):
        with pytest.raises(ValueError):
            EllipticNome(p, q)
    for max_terms in (math.nan, 2.5):
        with pytest.raises(ValueError):
            TruncationPolicy(max_terms=max_terms)


# ---------------------------------------------------------------------------
# batched theta
# ---------------------------------------------------------------------------


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


@pytest.mark.parametrize("p", [0.0, 0.2])
@pytest.mark.parametrize("shape", [(), (2, 2)])
def test_theta_array_keeps_its_shape(shape, p):
    # any array is evaluated flat: each value equals its value in the flat batch
    z = _arguments(4)[:math.prod(shape)].reshape(shape)
    value = theta(z, nome(p))
    assert isinstance(value, np.ndarray) and value.shape == shape
    assert value.ravel().tolist() == theta(z.ravel(), nome(p)).tolist()


def test_theta_batch_trigonometric_is_exactly_one_minus_z():
    z = np.append(_arguments(50), 0.0)
    batch = theta(z, nome(0.0, max_terms=1))
    assert np.array_equal(batch, 1.0 - z)
    assert batch.tolist() == [1.0 - zk for zk in z.tolist()]


def test_theta_batch_truncation_budget():
    with pytest.raises(TruncationBudgetError):
        theta(np.array([0.7, 0.5j]), EllipticNome(0.99, 0.5, TruncationPolicy(max_terms=5)))
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


def test_pochhammer_pole_reports_factor_index():
    # (q)_{-1} = 1/theta(1) divides by the zero of theta at 1.
    n = nome(0.2, 0.6)
    with pytest.raises(PochhammerPoleError) as excinfo:
        elliptic_pochhammer(0.6, -1, n)
    assert excinfo.value.factor_index == -1
    assert excinfo.value.shift == -1


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
