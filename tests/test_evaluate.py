"""Tests for the identity evaluators: trivial values, branch transcription,
symmetry invariances, a factor-by-factor scalar cross-check of every spec,
range safety at large N, and pole reporting."""

from __future__ import annotations

import itertools
import math

import pytest

from ellsum import (
    CATALOG,
    EllipticNome,
    PoleError,
    SampleConfig,
    VerificationJob,
    elliptic_pochhammer,
    evaluate_lhs,
    evaluate_rhs,
    ipow,
    relative_error,
    run_job,
    sample_instance,
    solve_balancing,
    theta,
)
from ellsum.catalog import _bindings, _form, _monomial, _parse
from ellsum.evaluate import DOMAINS, _symbol_names, _symbol_values

CONFIG = SampleConfig(seed=123)


def _grid_instance(identity_id, n, N, trial=0, p=0.2):
    return sample_instance(identity_id, n=n, N=N, config=CONFIG, trial_index=trial, p=p)


# ---------------------------------------------------------------------------
# Trivial single-index sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("identity_id", sorted(CATALOG))
def test_every_identity_is_exactly_one_at_level_zero(identity_id):
    shape = CATALOG[identity_id].shape(2, 0)
    if shape.N is None and shape.box is None:
        pytest.skip("no truncation level")
    inst = _grid_instance(identity_id, 2, 0)
    lhs, lhs_max = evaluate_lhs(inst)
    rhs, _ = evaluate_rhs(inst)
    # single all-zero index: every factor is a shift-0 product or a ratio of
    # identical cached values, so both sides are 1 up to complex-division ulps
    assert relative_error(lhs, 1.0) < 1e-14
    assert relative_error(rhs, 1.0) < 1e-14
    assert abs(lhs_max - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# Transcription pins
# ---------------------------------------------------------------------------


def test_theta_lemma_single_variable_display():
    inst = sample_instance("theta-lemma", n=1, config=CONFIG, trial_index=0, p=0.2)
    z1 = inst.z[0]
    nome = inst.nome
    expected = (theta(z1 * inst.params["b1"], nome)
                * theta(z1 * inst.params["b2"], nome)
                * theta(z1 * inst.params["b3"], nome)
                * theta(z1 * inst.params["b4"], nome) / z1)
    lhs, _ = evaluate_lhs(inst)
    assert relative_error(lhs, expected) < 1e-14
    rhs, _ = evaluate_rhs(inst)
    assert relative_error(rhs, expected) < 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_gr_sum_rhs_branch_display(n):
    # odd n: (Zb1..Zb4)_N / (Z^N (q)_N); even n uses (Z, Zb1b2, Zb1b3, Zb1b4)
    # over ((Zb1)^N (q)_N).
    inst = _grid_instance("gr-sum", n, 3)
    nome = inst.nome
    N = inst.N
    Z = inst.Z
    b = [inst.params[name] for name in ("b1", "b2", "b3", "b4")]
    if n % 2 == 1:
        expected = complex(1.0)
        for bj in b:
            expected *= elliptic_pochhammer(Z * bj, N, nome)
        expected /= ipow(Z, N) * elliptic_pochhammer(nome.q, N, nome)
    else:
        expected = elliptic_pochhammer(Z, N, nome)
        for bj in b[1:]:
            expected *= elliptic_pochhammer(Z * b[0] * bj, N, nome)
        expected /= ipow(Z * b[0], N) * elliptic_pochhammer(nome.q, N, nome)
    rhs, _ = evaluate_rhs(inst)
    assert relative_error(rhs, expected) < 1e-13


def test_gr_sum_single_variable_collapses():
    # n = 1: the single composition (N,) must reproduce the closed form.
    inst = _grid_instance("gr-sum", 1, 4)
    lhs, _ = evaluate_lhs(inst)
    rhs, _ = evaluate_rhs(inst)
    assert relative_error(lhs, rhs) < 1e-12


def test_frenkel_turaev_rhs_is_oracle_for_sum():
    inst = sample_instance("frenkel-turaev", N=3, config=CONFIG, trial_index=1, p=0.05)
    lhs, _ = evaluate_lhs(inst)
    rhs, _ = evaluate_rhs(inst)
    assert relative_error(lhs, rhs) < 1e-11


def test_gr_sum_rhs_matches_lhs_small_case():
    inst = _grid_instance("gr-sum", 2, 1)
    lhs, _ = evaluate_lhs(inst)
    rhs, _ = evaluate_rhs(inst)
    assert relative_error(lhs, rhs) < 1e-11


# ---------------------------------------------------------------------------
# Identity sweep (small): every entry holds on seeded instances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("identity_id", sorted(CATALOG))
def test_identity_holds_on_seeded_instances(identity_id):
    # the grid points an arity ignores resolve to one shape, drawn once
    shape_of = CATALOG[identity_id].shape
    for n, N, box in dict.fromkeys(shape_of(n, N) for n in (1, 2, 3) for N in (1, 2)):
        for p in (0.0, 0.2):
            inst = sample_instance(identity_id, n=n, N=N, box=box, config=CONFIG,
                                   trial_index=2, p=p)
            lhs, _ = evaluate_lhs(inst)
            rhs, _ = evaluate_rhs(inst)
            assert relative_error(lhs, rhs) < 1e-8, (identity_id, n, N, box, p)


# ---------------------------------------------------------------------------
# Invariances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("identity_id", ["theta-lemma", "gr-sum", "gr-corollary",
                                         "njc-jackson", "bt-transform"])
def test_sum_invariant_under_z_permutation(identity_id):
    # permuting z permutes the terms, so compare on well-conditioned draws
    config = SampleConfig(seed=123, condition_cap=1e2)
    inst = sample_instance(identity_id, n=3, N=2, config=config, trial_index=4, p=0.2)
    lhs, _ = evaluate_lhs(inst)
    for perm in itertools.permutations(range(3)):
        shuffled = solve_balancing(
            identity_id,
            {name: inst.params[name] for name in inst.entry.free_params},
            nome=inst.nome, z=tuple(inst.z[i] for i in perm), N=inst.N)
        lhs_perm, _ = evaluate_lhs(shuffled)
        assert relative_error(lhs, lhs_perm) < 1e-10, perm


def test_rs_jackson_invariant_under_paired_permutation():
    inst = sample_instance("rs-jackson", box=(2, 1, 0), config=CONFIG,
                           trial_index=1, p=0.2)
    lhs, _ = evaluate_lhs(inst)
    rhs, _ = evaluate_rhs(inst)
    for perm in itertools.permutations(range(3)):
        shuffled = solve_balancing(
            "rs-jackson",
            {name: inst.params[name] for name in inst.entry.free_params},
            nome=inst.nome, z=tuple(inst.z[i] for i in perm),
            box=tuple(inst.box[i] for i in perm))
        lhs_perm, _ = evaluate_lhs(shuffled)
        rhs_perm, _ = evaluate_rhs(shuffled)
        assert relative_error(lhs, lhs_perm) < 1e-10
        assert relative_error(rhs, rhs_perm) < 1e-10


@pytest.mark.parametrize("n", [2, 4])
def test_gr_sum_rhs_invariant_under_b_permutations(n):
    # the even-n closed form singles out b1, but its value cannot depend on
    # the labeling when the constraint holds
    inst = _grid_instance("gr-sum", n, 2, trial=5)
    baseline, _ = evaluate_rhs(inst)
    b = [inst.params[name] for name in ("b1", "b2", "b3", "b4")]
    for perm in itertools.permutations(range(4)):
        permuted = inst.with_params(**{f"b{i + 1}": b[j] for i, j in enumerate(perm)})
        assert max(permuted.constraint_residuals()) < 1e-12
        value, _ = evaluate_rhs(permuted)
        assert relative_error(baseline, value) < 1e-9, perm


def test_bt_lhs_invariant_under_c_e_swap():
    inst = _grid_instance("bt-transform", 2, 2, trial=6)
    lhs, _ = evaluate_lhs(inst)
    swapped = inst.with_params(c=inst.params["e"], e=inst.params["c"])
    assert max(swapped.constraint_residuals()) < 1e-12
    lhs_swapped, _ = evaluate_lhs(swapped)
    assert relative_error(lhs, lhs_swapped) < 1e-9


# ---------------------------------------------------------------------------
# Mechanics: scalar cross-check, range safety, relative error, pole reporting
# ---------------------------------------------------------------------------


def _reference_side(side, inst) -> tuple[complex, float]:
    """(sum, max |term|) of the side term by term, every factor from its own
    theta or elliptic_pochhammer call: no plan, table, gather or exponent
    bookkeeping.  theta itself is the planner's (one product for scalars
    and batches); test_theta checks it against mpmath."""
    nome = inst.nome
    n = len(inst.z) if inst.z is not None else 1
    symbols = {name: k for k, name in enumerate(_symbol_names(inst))}
    values = _symbol_values(inst)
    texts = (*side.common, *(side.odd if n % 2 else side.even))
    terms = []
    for x in DOMAINS[side.domain](inst):
        x = (x,) if isinstance(x, int) else tuple(x) or (0,) * n
        term = complex(1.0)
        for factor in (f for text in texts for f in _parse(text)):
            for binding in _bindings(factor.over, n):
                env = {"|x|": sum(x), "N": inst.level, **binding}
                for key, index in binding.items():
                    env[f"x_{key}"] = x[index]
                    if inst.box is not None:
                        env[f"N_{key}"] = inst.box[index]
                base = complex(1.0)
                for name, power in _monomial(factor.base, env).items():
                    base *= ipow(values[symbols[name]], power)
                shift = _form(factor.shift, env)
                if factor.kind == "theta":
                    value = theta(base * ipow(nome.q, shift), nome)
                elif factor.kind == "poch":
                    value = elliptic_pochhammer(base, shift, nome)
                else:
                    value = ipow(base, shift)
                term = term / value if factor.den else term * value
        terms.append(term)
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return total, max(map(abs, terms))


@pytest.mark.parametrize("identity_id", sorted(CATALOG))
def test_spec_matches_scalar_reference(identity_id):
    # well-conditioned draws, so plain summation of the reference is good to 1e-12
    config = SampleConfig(seed=11, condition_cap=10.0)
    for n, N, p in ((1, 2, 0.2), (2, 3, 0.05), (3, 2, 0.2), (4, 1, 0.0)):
        # a scalar identity drops n, so n picks its trial instead
        trial = 0 if CATALOG[identity_id].shape(n, N).n else n
        inst = sample_instance(identity_id, n=n, N=N, config=config, trial_index=trial, p=p)
        for side, evaluate in zip(inst.entry.sides, (evaluate_lhs, evaluate_rhs)):
            value, largest = evaluate(inst)
            expected, expected_largest = _reference_side(side, inst)
            assert relative_error(value, expected) < 1e-12, (n, N, p)
            assert relative_error(largest, expected_largest) < 1e-12, (n, N, p)


# Well-conditioned trials whose shifted factorials reach 1e210: products of
# unscaled doubles over- and underflowed here before assembly was range-safe.
@pytest.mark.parametrize("identity_id, n, N, trial, seed", [
    ("gr-corollary", 4, 6, 0, 820338754536),
    ("gr-corollary", 3, 7, 0, 523986011112),
    ("gr-corollary", 3, 8, 2, 12884901911),
    ("gr-corollary", 4, 8, 0, 60129542188),
    ("bt-transform", 4, 8, 2, 51539607598),
    ("bt-transform", 4, 8, 0, 12884901936),
])
def test_large_N_trials_pass(identity_id, n, N, trial, seed):
    report = run_job(VerificationJob(
        identities=("bt-transform", "gr-corollary", "njc-jackson", "general-jackson"),
        n_values=(3, 4), N_values=(N,), trials=3, tolerance=1e-8,
        config=SampleConfig(seed=seed, p_values=(0.2,), condition_cap=1e6)), jobs=1)
    result, = (r for r in report.trials
               if (r.identity_id, r.n, r.trial_index) == (identity_id, n, trial))
    assert result.status == "pass", result.relative_error


def test_relative_error_contract():
    assert relative_error(1.0, 1.0) == 0.0
    assert relative_error(1.0, 1.0 + 1e-9) == pytest.approx(1e-9, rel=1e-3)
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1.0, 2.0) == relative_error(2.0, 1.0)


def test_pole_reported_with_index_and_description():
    # coincident z entries put theta(z_k/z_j) exactly on its zero at 1
    nome = EllipticNome(0.2, 0.5)
    inst = solve_balancing("theta-lemma", {"b1": 0.3, "b2": 0.4, "b3": 0.5},
                           nome=nome, z=(0.7, 0.7))
    with pytest.raises(PoleError) as excinfo:
        evaluate_lhs(inst)
    assert excinfo.value.index is not None
    assert "theta" in excinfo.value.description


def test_unused_lattice_point_is_not_a_pole():
    # b = a q^(N+1) puts theta's zero at (aq/b) q^N, one factor past the
    # longest (aq/b)_|x| any term multiplies: no term uses it, so no pole.
    nome = EllipticNome(0.2, 0.6)
    a, N = 0.7, 2
    inst = solve_balancing("frenkel-turaev", {"a": a, "b": a * ipow(0.6, N + 1),
                                              "c": 0.9 + 0.2j, "d": 1.1 - 0.3j},
                           nome=nome, N=N)
    aq_b = a * nome.q / inst.params["b"]
    assert abs(theta(aq_b * ipow(nome.q, N), nome)) < 1e-12
    lhs, _ = evaluate_lhs(inst, pole_floor=1e-4)
    rhs, _ = evaluate_rhs(inst, pole_floor=1e-4)
    assert relative_error(lhs, rhs) < 1e-10


def test_near_pole_raises_only_with_floor():
    nome = EllipticNome(0.2, 0.5)
    inst = solve_balancing("theta-lemma", {"b1": 0.3, "b2": 0.4, "b3": 0.5},
                           nome=nome, z=(0.7, 0.7 * (1 + 1e-7)))
    value, _ = evaluate_lhs(inst)  # exact evaluation is fine
    assert value == value  # finite
    with pytest.raises(PoleError) as excinfo:
        evaluate_lhs(inst, pole_floor=1e-4)
    assert excinfo.value.near
