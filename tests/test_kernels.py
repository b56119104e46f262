"""Tests for the A-type ratio, interpolation identities, and enumerators."""

from __future__ import annotations

import math
from types import GeneratorType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsum import (
    BalancingError,
    EllipticNome,
    PoleError,
    box_indices,
    compositions_bounded,
    compositions_exact,
    delta_ratio,
    delta_ratio_alt,
    relative_error,
    theta,
    tpf_lhs,
    tpf_rhs,
    weierstrass_rhs,
)
from ellsum import selfcheck
from ellsum.selfcheck import (
    check_balanced_sum,
    check_interpolation,
    check_ratio_equivalence,
)


def nome(p, q=0.5):
    return EllipticNome(p, q)


# ---------------------------------------------------------------------------
# delta_ratio and its shifted-factorial form
# ---------------------------------------------------------------------------


def test_delta_ratio_zero_index_is_one():
    n = nome(0.2, 0.7)
    assert delta_ratio((0.7, 1.2, 0.4), (0, 0, 0), n) == 1.0


def test_delta_ratio_single_variable_is_one():
    assert delta_ratio((0.9,), (5,), nome(0.1, 0.8)) == 1.0


def test_delta_ratio_two_variable_arithmetic():
    # p = 0, q = 0.5, z = (1.0, 0.4), x = (1, 0):
    # q^1 * (1 - q^-1 * 0.4) / (1 - 0.4) = 0.5 * 0.2 / 0.6 = 1/6.
    value = delta_ratio((1.0, 0.4), (1, 0), nome(0.0, 0.5))
    assert value == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_delta_ratio_alt_zero_index_is_one():
    assert delta_ratio_alt((0.7, 1.2), (0, 0), nome(0.2, 0.7)) == 1.0


def test_delta_ratio_alt_one_variable_simplifies_to_one():
    n = nome(0.15, 0.73)
    for m in range(7):
        assert relative_error(delta_ratio_alt((0.9,), (m,), n), 1.0) < 1e-12


def test_delta_ratio_mismatched_lengths():
    with pytest.raises(ValueError):
        delta_ratio((0.7, 1.2), (1,), nome(0.1))


@pytest.mark.parametrize("kernel", [delta_ratio, delta_ratio_alt])
def test_delta_ratio_shifts_must_be_whole(kernel):
    z, n = (0.7, 1.2, 0.4), nome(0.2, 0.7)
    assert kernel(z, (2.0, 0.0, 1.0), n) == kernel(z, (2, 0, 1), n)
    for bad in (2.5, math.nan):
        with pytest.raises(ValueError, match=r"x\[1\] must be an integer"):
            kernel(z, (2, bad, 0), n)


def test_ratio_equivalence_seeded():
    result = check_ratio_equivalence(100, seed=3)
    assert result.passed, result.line()


def test_incomplete_suite_fails(monkeypatch):
    # no z-vector clears the lattice, so every draw is rejected: no sample
    # completes, so no PASS
    monkeypatch.setattr(selfcheck, "_draw_clear_vector", lambda *args: None)
    result = check_ratio_equivalence(5, seed=0)
    assert (result.requested, result.samples) == (5, 0)
    assert not result.passed
    assert result.line().startswith("FAIL A-type ratio equivalence: 0 of 5 samples")


def test_suite_retries_a_draw_whose_trial_raises(monkeypatch):
    # a trial that raises an EllipticError rejects its draw, and the suite
    # draws again until the requested samples complete
    calls = []

    def pole_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise PoleError("theta factor on its zero set")
        return delta_ratio(*args)

    monkeypatch.setattr(selfcheck, "delta_ratio", pole_once)
    result = check_ratio_equivalence(5, seed=0)
    assert len(calls) == 6
    assert (result.requested, result.samples) == (5, 5)
    assert result.passed, result.line()


# ---------------------------------------------------------------------------
# balanced partial-fraction sum
# ---------------------------------------------------------------------------


def test_tpf_one_variable_direct():
    n = nome(0.15, 0.6)
    z1, b1, b2 = 0.8, 0.5, 1.3
    t = b1 * b2 / z1  # balancing for n = 1
    lhs = tpf_lhs((z1,), (b1, b2), t, n)
    assert lhs == pytest.approx(
        theta(z1 / b1, n) * theta(z1 / b2, n) / theta(z1 / t, n), rel=1e-14)
    rhs = tpf_rhs((z1,), (b1, b2), t, n)
    assert relative_error(lhs, rhs) < 1e-12


def test_tpf_balancing_enforced():
    with pytest.raises(BalancingError):
        tpf_lhs((0.8,), (0.5, 1.3), 0.9, nome(0.1))


def test_tpf_needs_one_extra_b():
    with pytest.raises(ValueError):
        tpf_lhs((0.8, 0.9), (0.5, 1.3), 0.9, nome(0.1))


# A denominator theta(1) = 0: z_1/z_0 = 1 for delta_ratio, and z_0 = t
# (with b balanced) for the interpolation pair.
POLE_TPF = ((0.9, 0.6), (0.5, 1.3, 0.9 * 0.9 * 0.6 / (0.5 * 1.3)), 0.9)


@pytest.mark.parametrize("kernel, args, description", [
    (delta_ratio, ((0.7, 0.7), (1, 0)), "theta(z[1]/z[0])"),
    (tpf_lhs, POLE_TPF, "theta(z[0]/t)"),
    (tpf_rhs, POLE_TPF, "theta(z[j]/t)"),
    # (q^-1 z_1/z_0)_1 = theta(1); and theta(z_0/z_1) = theta(1) in a balanced sum
    (delta_ratio_alt, ((1.0, 0.5), (1, 1)), "(q^-x[0] z[1]/z[0])_x[1]"),
    (tpf_lhs, ((0.5, 0.5), (0.5, 0.5, 1.0), 1.0), "theta(z[0]/z[1])"),
], ids=["delta_ratio", "tpf_lhs", "tpf_rhs", "delta_ratio_alt", "tpf_lhs_z_pair"])
def test_kernel_pole_names_the_factor(kernel, args, description):
    with pytest.raises(PoleError) as excinfo:
        kernel(*args, nome(0.2))
    assert excinfo.value.description == description


def test_tpf_random_balanced_instances():
    result = check_balanced_sum(120, seed=5)
    assert result.passed, result.line()


# ---------------------------------------------------------------------------
# two-point interpolation
# ---------------------------------------------------------------------------


def test_weierstrass_endpoints_exact():
    # at a node one term vanishes exactly (theta(1) = 0) and the other is a
    # ratio of identical products, so the value matches to rounding
    n = nome(0.2, 0.5)
    a, b, c = 0.7, 0.9 + 0.2j, 1.3

    def f(u):
        return theta(a * u, n) * theta(a / u, n)

    assert relative_error(weierstrass_rhs(f(b), f(c), b, c, b, n), f(b)) < 1e-15
    assert relative_error(weierstrass_rhs(f(b), f(c), b, c, c, n), f(c)) < 1e-15


def test_weierstrass_reproduces_function():
    result = check_interpolation(120, seed=11)
    assert result.passed, result.line()


def test_weierstrass_degenerate_nodes():
    n = nome(0.2, 0.5)
    with pytest.raises(PoleError):
        weierstrass_rhs(1.0, 1.0, 0.8, 1.0 / 0.8, 0.9, n)  # theta(bc) = theta(1) = 0


# ---------------------------------------------------------------------------
# enumerators
# ---------------------------------------------------------------------------


def test_compositions_exact_trivial():
    assert list(compositions_exact(0, 3)) == [(0, 0, 0)]


def test_compositions_exact_order_and_count():
    got = list(compositions_exact(2, 2))
    assert got == [(2, 0), (1, 1), (0, 2)]


def test_compositions_exact_large_count():
    assert sum(1 for _ in compositions_exact(5, 4)) == math.comb(8, 3)


def test_compositions_bounded_trivial():
    assert list(compositions_bounded(0, 2)) == [(0, 0)]
    assert list(compositions_bounded(1, 2)) == [(0, 0), (1, 0), (0, 1)]


def test_compositions_bounded_count():
    assert sum(1 for _ in compositions_bounded(4, 3)) == math.comb(7, 3)


def test_box_indices_counts():
    assert sum(1 for _ in box_indices((0, 0))) == 1
    assert sum(1 for _ in box_indices((1, 2))) == 6
    assert sum(1 for _ in box_indices((2, 2, 2))) == 27


def test_enumerators_are_lazy_generators():
    assert isinstance(compositions_exact(3, 2), GeneratorType)
    assert isinstance(compositions_bounded(3, 2), GeneratorType)
    assert isinstance(box_indices((1, 1)), GeneratorType)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=4))
def test_compositions_exact_distinct_and_complete(total, parts):
    seen = list(compositions_exact(total, parts))
    assert len(seen) == len(set(seen)) == math.comb(total + parts - 1, parts - 1)
    assert all(sum(x) == total and min(x) >= 0 for x in seen)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=4))
def test_compositions_bounded_distinct_and_complete(total, parts):
    seen = list(compositions_bounded(total, parts))
    assert len(seen) == len(set(seen)) == math.comb(total + parts, parts)
    assert all(sum(x) <= total for x in seen)


def _exact_reference(total, parts):
    """The recursion the memoised compositions_exact replaced."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _exact_reference(total - head, parts - 1):
            yield (head,) + tail


def _box_reference(limits):
    """The odometer the memoised box_indices replaced."""
    x = [0] * len(limits)
    while True:
        yield tuple(x)
        i = len(limits) - 1
        while i >= 0 and x[i] == limits[i]:
            x[i] = 0
            i -= 1
        if i < 0:
            return
        x[i] += 1


def test_memoised_enumerators_match_their_references():
    for parts in range(1, 6):
        for total in range(9):
            exact = list(_exact_reference(total, parts))
            bounded = [x for w in range(total + 1) for x in _exact_reference(w, parts)]
            for _ in range(2):  # first call builds the tuple, the second reuses it
                got = compositions_exact(total, parts)
                assert isinstance(got, GeneratorType) and list(got) == exact
                got = compositions_bounded(total, parts)
                assert isinstance(got, GeneratorType) and list(got) == bounded
    for limits in [(0,), (3,), (1, 2), (2, 0, 3), (1, 1, 1, 2)]:
        for _ in range(2):
            got = box_indices(list(limits))
            assert isinstance(got, GeneratorType) and list(got) == list(_box_reference(limits))


def test_enumerator_replay_determinism():
    first = list(compositions_bounded(4, 3))
    second = list(compositions_bounded(4, 3))
    assert first == second


def test_enumerator_argument_validation():
    with pytest.raises(ValueError):
        list(compositions_exact(-1, 2))
    with pytest.raises(ValueError):
        list(compositions_exact(2, 0))
    with pytest.raises(ValueError):
        list(compositions_bounded(2, 0))
    with pytest.raises(ValueError):
        list(box_indices(()))
    with pytest.raises(ValueError):
        list(box_indices((1, -1)))
    # checked at the call, before anything is iterated
    for enumerate_, args in [(compositions_exact, (-1, 2)), (compositions_exact, (2.5, 2)),
                             (compositions_bounded, (2, 1.5)), (box_indices, ((1.5, 1),))]:
        with pytest.raises(ValueError):
            enumerate_(*args)
