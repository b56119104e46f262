"""Tests for the identity evaluators: trivial values, branch transcription,
symmetry invariances, a factor-by-factor scalar cross-check of every spec,
range safety at large N, and pole reporting."""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import re
import warnings

import numpy as np
import pytest

from ellsum import (
    CATALOG,
    EllipticNome,
    NonFiniteError,
    PoleError,
    ProductBudgetError,
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
from ellsum import evaluate as evaluate_module
from ellsum.catalog import Factor, _form, _monomial
from ellsum.evaluate import (
    _PLANS,
    DOMAINS,
    EvalContext,
    _Plan,
    _raise_pole,
    _scaled,
    _sum_terms,
    _symbol_names,
    _symbol_values,
)

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
        permuted = dataclasses.replace(inst, params={
            **inst.params, **{f"b{i + 1}": b[j] for i, j in enumerate(perm)}})
        assert max(permuted.constraint_residuals()) < 1e-12
        value, _ = evaluate_rhs(permuted)
        assert relative_error(baseline, value) < 1e-9, perm


def test_bt_lhs_invariant_under_c_e_swap():
    inst = _grid_instance("bt-transform", 2, 2, trial=6)
    lhs, _ = evaluate_lhs(inst)
    swapped = dataclasses.replace(
        inst, params={**inst.params, "c": inst.params["e"], "e": inst.params["c"]})
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
    terms = []
    for x in DOMAINS[side.domain](inst):
        x = (x,) if isinstance(x, int) else tuple(x) or (0,) * n
        env = {"|x|": sum(x), "N": inst.level, **{f"x_{k}": v for k, v in enumerate(x)}}
        if inst.box is not None:
            env.update({f"N_{k}": limit for k, limit in enumerate(inst.box)})
        term = complex(1.0)
        for factor in side.factors(n):
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
    paths = set()  # one-term side (True), gathered side (False)
    for n, N, p in ((1, 2, 0.2), (2, 3, 0.05), (3, 2, 0.2), (4, 1, 0.0), (3, 4, 0.2)):
        # a scalar identity drops n, so n picks its trial instead
        trial = 0 if CATALOG[identity_id].shape(n, N).n else n
        inst = sample_instance(identity_id, n=n, N=N, config=config, trial_index=trial, p=p)
        for side, evaluate in zip(inst.entry.sides, (evaluate_lhs, evaluate_rhs)):
            value, largest = evaluate(inst)
            expected, expected_largest = _reference_side(side, inst)
            assert relative_error(value, expected) < 1e-12, (n, N, p)
            assert relative_error(largest, expected_largest) < 1e-12, (n, N, p)
            paths.add(len(tuple(DOMAINS[side.domain](inst))) == 1)
    # every sum here has N >= 1, so only a closed side has one term
    sides = CATALOG[identity_id].sides
    assert paths == {False} | {any(side.domain == "x=()" for side in sides)}


def _list_assembly(ctx, inst, domain, side) -> tuple[complex, float]:
    """_sum_terms with its slot values held in one Python list, the runs
    appended to it and the list turned into arrays for a numpy gather with
    the int16 slot matrices: the reference for the array-built slots, and
    for the one-term side, which _sum_terms takes as an exact 1 ungathered."""
    xs = tuple(domain(inst))
    key = (id(side), inst.n, inst.N, inst.box)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _Plan(side, inst, xs)
    symbols = np.array(_symbol_values(inst))
    monomials = np.multiply.reduce(symbols[plan.mono_sym] ** plan.mono_exp, axis=1)
    bases = monomials[:plan.base_count]
    values = np.concatenate((ctx.theta(bases[plan.arg_base] * ctx.q ** plan.arg_q),
                             monomials[plan.base_count:]))
    size = np.abs(values)
    if plan.den_args.size:
        low = size[plan.den_args].min()
        if low == 0.0 or low < ctx.pole_floor:
            _raise_pole(_Plan(side, inst, xs, detail=True), xs, size, ctx.pole_floor)
    exps = np.frexp(size)[1]
    mant = (values * np.ldexp(1.0, -exps)).tolist()
    exps = exps.tolist()
    mant.append(complex(1.0))
    exps.append(0)
    for row in plan.tables.tolist():
        m, e = mant[row[0]], exps[row[0]]
        mant.append(m)
        exps.append(e)
        for k in row[1:]:
            m *= mant[k]
            e += exps[k]
            if abs(m) < 0.5:
                m *= 2.0
                e -= 1
            mant.append(m)
            exps.append(e)
    get_m, get_e = mant.__getitem__, exps.__getitem__
    c_mant = math.prod(map(get_m, plan.const_num)) / math.prod(map(get_m, plan.const_den))
    c_exp = sum(map(get_e, plan.const_num)) - sum(map(get_e, plan.const_den))
    mant, exps = np.array(mant), np.array(exps)
    m = mant[plan.num].prod(axis=1) / mant[plan.den].prod(axis=1)
    e = exps[plan.num].sum(axis=1) - exps[plan.den].sum(axis=1)
    top = int(e[m != 0].max(initial=0))
    terms = m * np.ldexp(1.0, e - top)
    re, im = math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist())
    largest = float(np.abs(terms).max())
    total = complex(re, im) * c_mant
    value = complex(_scaled(total.real, top + c_exp), _scaled(total.imag, top + c_exp))
    return value, _scaled(largest * abs(c_mant), top + c_exp)


@pytest.mark.parametrize("identity_id", sorted(CATALOG))
def test_assembly_equals_the_list_reference(identity_id):
    # bit for bit, on gathered sides (n 3-4, N 5; n 6, N 8, where the wide
    # grid's longest products are; n 1-2, N 1; n 2-3, N 2, whose longest runs
    # have 2 arguments, so rows padded to 3) and on one-term sides (N 0, and
    # the closed products)
    paths = set()  # one-term side (True), gathered side (False)
    requests = [(n, 5, 0.2) for n in (3, 4)] + [(6, 8, 0.2)] + [(2, 2, 0.2), (3, 2, 0.2)]
    requests += [(n, N, p) for n in (1, 2) for N in (0, 1) for p in (0.0, 0.2)]
    for n, N, p in requests:
        inst = sample_instance(identity_id, n=n, N=N, config=CONFIG, trial_index=0, p=p)
        ctx = EvalContext(inst.nome)
        for side in inst.entry.sides:
            domain = DOMAINS[side.domain]
            got, expected = (np.array([(v.real, v.imag, largest)]).tobytes()
                             for v, largest in (_sum_terms(ctx, inst, domain, side),
                                                _list_assembly(ctx, inst, domain, side)))
            assert got == expected, (n, N, p, side.domain)
            paths.add(len(tuple(domain(inst))) == 1)
    assert paths == {False, True}


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


@pytest.mark.parametrize("width", [1, *range(3, 17)])
def test_row_accumulate_equals_the_running_product(width):
    # _sum_terms builds every (B)_2 .. (B)_K with one np.multiply.accumulate
    # along rows at least 3 wide: at width 1 and from 3 on, numpy's loop
    # rounds as Python's running product does (at width 2 it need not, so
    # plans never use it)
    rng = np.random.default_rng(width)
    for rows in (1, 2, 7, 40, 200):
        x = rng.uniform(0.5, 1, (rows, width)) * np.exp(2j * np.pi * rng.random((rows, width)))
        expected = [list(itertools.accumulate(row, operator.mul)) for row in x.tolist()]
        assert np.multiply.accumulate(x, axis=1).tolist() == expected


def test_theta_overflow_in_a_side_raises_non_finite_error():
    # at p = 0.2 both sides' thetas overflow at N 100; with RuntimeWarnings
    # as errors they raise NonFiniteError, which the sampler rejects
    nome = EllipticNome(0.2, 0.5)
    params = {"a": 0.6 + 0.1j, "b": 0.7, "c": 0.8 - 0.2j, "d": 1.3}
    inst = solve_balancing("frenkel-turaev", params, nome=nome, N=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for evaluate in (evaluate_lhs, evaluate_rhs):
            with pytest.raises(NonFiniteError, match="theta overflowed"):
                evaluate(inst)


def test_sum_past_the_double_range_overflows():
    # both sides have one term, whose shared product is the whole value: its
    # exponent is range-safe, but past N 40 (2.9e248 there) the final scaling
    # leaves the double range, which raises NonFiniteError, not a warning
    params = {"b1": 0.9, "b2": 1.1j, "b3": 0.8}
    nome = EllipticNome(0.0, 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        inst = solve_balancing("gr-sum", params, nome=nome, z=(0.7,), N=40)
        lhs, rhs = evaluate_lhs(inst)[0], evaluate_rhs(inst)[0]
        assert lhs == rhs and 1e248 < abs(lhs) < 1e249
        for N in (60, 80):
            inst = solve_balancing("gr-sum", params, nome=nome, z=(0.7,), N=N)
            for evaluate in (evaluate_lhs, evaluate_rhs):
                with pytest.raises(NonFiniteError, match="gr-sum: sum overflowed"):
                    evaluate(inst)


def test_term_past_the_double_range_is_refused():
    # at p = 0 frenkel-turaev's terms multiply shifted factorials of up to N
    # theta values.  A table row multiplies K mantissas of modulus in [1/2, 1),
    # above 2^-K, and each entry (B)_s is split again, so a term multiplies one
    # mantissa per factor: the sides agree up to a run of MAX_PRODUCT - 1
    nome = EllipticNome(0.0, 0.5)
    params = {"a": 0.6 + 0.1j, "b": 0.7, "c": 0.8 - 0.2j, "d": 1.3}
    for N in (166, 167, 320, 999):
        inst = solve_balancing("frenkel-turaev", params, nome=nome, N=N)
        assert relative_error(evaluate_lhs(inst)[0], evaluate_rhs(inst)[0]) < 1e-14, N
    inst = solve_balancing("frenkel-turaev", params, nome=nome, N=1000)
    for evaluate in (evaluate_lhs, evaluate_rhs):
        with pytest.raises(ProductBudgetError,
                           match="N=1000: a shifted factorial runs over 1000 theta values, "
                                 "limit 1000"):
            evaluate(inst)


def _wide_instance(identity_id: str, n: int, p: float):
    """Fixed parameters and z at n, with N = 1 (box (1, 0, .., 0) for rs-jackson)."""
    partial = {name: 0.7 + 0.05 * k + 0.1j * k
               for k, name in enumerate(CATALOG[identity_id].free_params)}
    z = tuple((1 + 0.01 * k) * complex(math.cos(0.3 * k), math.sin(0.3 * k)) for k in range(n))
    shape = {"box": (1,) + (0,) * (n - 1)} if identity_id == "rs-jackson" else {"N": 1}
    return solve_balancing(identity_id, partial, nome=EllipticNome(p, 0.5), z=z, **shape)


@pytest.mark.parametrize("p", [0.0, 0.2])
def test_term_of_too_many_factors_is_refused(p):
    # a term multiplies one mantissa of modulus in [1/2, 1) per factor, so a
    # numerator or denominator of MAX_PRODUCT or more factors could leave the
    # double range.  The count leaves out the slots of the shared exact 1: at
    # n 25 bt-transform's left side has 778/1,030 num/den slot columns but at
    # most 382/381 factors per term.  It grows about as n^2/2 and does not
    # depend on N.  Past n 25 these parameters grow ill-conditioned (the
    # condition ratio is above 4e7 at n 30, p 0.2), so agreement is checked at n 25.
    for identity_id in ("bt-transform", "rs-jackson"):
        inst = _wide_instance(identity_id, 25, p)
        assert relative_error(evaluate_lhs(inst)[0], evaluate_rhs(inst)[0]) < 1e-12
    # the message names a box by its sum and its nonzero entries, not all n of them
    refused = [("bt-transform", evaluate_rhs, 42, "N=1", 1001),
               ("bt-transform", evaluate_lhs, 43, "N=1", 1039),
               ("rs-jackson", evaluate_lhs, 43, "|N|=1 (N_0=1)", 1037)]
    for identity_id, evaluate, n, level, count in refused:
        evaluate(_wide_instance(identity_id, n - 1, p))  # n is the first refused
        with pytest.raises(ProductBudgetError, match=re.escape(
                f"{identity_id} at n={n}, {level}: a term is a product of {count} factors, "
                "limit 1000; take a")):
            evaluate(_wide_instance(identity_id, n, p))
    evaluate_rhs(_wide_instance("rs-jackson", 43, p))  # 4 factors


@pytest.mark.parametrize("N", [84, 200])
def test_trigonometric_bailey_transformation_at_large_N(N):
    # elliptic-bailey at p = 0: a left-side term multiplies about 16 shifted
    # factorials of up to N theta values, all within the double range
    inst = sample_instance("elliptic-bailey", N=N, config=CONFIG, trial_index=0, p=0.0)
    assert relative_error(evaluate_lhs(inst)[0], evaluate_rhs(inst)[0]) < 1e-10


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
    assert excinfo.value.index == (1, 0)
    assert excinfo.value.description == "theta factor 0 of (z_0 / z_1)_(x_0)"
    assert str(excinfo.value) == ("vanishing denominator theta factor 0 of "
                                  "(z_0 / z_1)_(x_0) at index (1, 0)")
    assert not excinfo.value.near


def test_pole_free_plans_build_no_labels(monkeypatch):
    # factor labels are text for PoleError only: a cold plan build without a
    # pole formats none of them
    def label(factor):
        raise AssertionError(f"label of {factor} built without a pole")

    monkeypatch.setattr(evaluate_module, "_PLANS", {})
    monkeypatch.setattr(Factor, "label", label)
    for identity_id in sorted(CATALOG):
        for n, N in ((1, 1), (2, 2), (3, 1)):
            inst = _grid_instance(identity_id, n, N)
            evaluate_lhs(inst, pole_floor=1e-4)
            evaluate_rhs(inst, pole_floor=1e-4)
    assert len(evaluate_module._PLANS) > len(CATALOG)


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
