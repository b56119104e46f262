"""Tests for the identity catalog and balancing-constraint solving."""

from __future__ import annotations

import dataclasses

import pytest

from ellsum import (
    BalancingError,
    CATALOG,
    EllipticNome,
    IDENTITY_IDS,
    SampleConfig,
    relative_error,
    sample_instance,
    solve_balancing,
)
from ellsum import catalog as catalog_module
from ellsum import evaluate as evaluate_module
from ellsum.catalog import Constraint
from ellsum.evaluate import DOMAINS, EvalContext, _sum_terms


NOME = EllipticNome(0.1, 0.5)


def test_catalog_has_eleven_entries():
    assert len(CATALOG) == 11
    assert len(IDENTITY_IDS) == 11


def test_every_entry_has_one_dependent_per_constraint():
    for entry in CATALOG.values():
        assert len(entry.constraints) >= 1
        for constraint in entry.constraints:
            assert constraint.dependent in entry.params
        # dependents are distinct parameters
        deps = entry.dependents
        assert len(set(deps)) == len(deps)


def _pairs(encoded):
    return tuple((name, int(e)) for name, e in (t.split(":") for t in encoded.split()))


# (exponents, q coefficient of N, q constant, Z power, dependent) of each
# constraint, typed out independently of its text
EQUATIONS = {
    "frenkel-turaev": [(_pairs("a:2 b:-1 c:-1 d:-1 e:-1"), 1, 1, 0, "e")],
    "elliptic-bailey": [(_pairs("a:3 b:-1 c:-1 d:-1 e:-1 f:-1 g:-1"), 1, 2, 0, "g")],
    "rs-jackson": [(_pairs("a:2 b:-1 c:-1 d:-1 e:-1"), 1, 1, 0, "e")],
    "theta-lemma": [(_pairs("b1:1 b2:1 b3:1 b4:1"), 0, 0, 2, "b4")],
    "gr-sum": [(_pairs("b1:1 b2:1 b3:1 b4:1"), 1, -1, 2, "b4")],
    "gr-corollary": [(_pairs("a:2 b1:-1 b2:-1 b3:-1 b4:-1"), 1, 1, -2, "b4")],
    "bt-transform": [(_pairs("a:3 b:-1 c:-1 d:-1 e:-1 f:-1 g:-1"), 1, 2, -2, "g")],
    "bc-transform": [(_pairs("a:3 b:-1 c:-1 d:-1 e:-1 f:-1 g:-1"), 1, 2, -2, "g")],
    "njc-jackson": [(_pairs("a:2 b:-1 c:-1 d:-1 e:-1"), 1, 1, -2, "e")],
    "jts-jackson": [(_pairs("a:2 b:-1 c:-1 d:-1 e:-1"), 1, 1, -2, "e")],
    "general-jackson": [(_pairs("a:2 b:-1 c:-1 d:-1 e:-1"), 1, 1, 0, "e"),
                        (_pairs("f:1 g:1 h:1 t:-1"), 0, 0, 2, "h")],
}


def test_constraint_text_reads_to_its_equation():
    assert set(EQUATIONS) == set(CATALOG)
    for identity_id, equations in EQUATIONS.items():
        read = [(c.exponents, c.q_n_coeff, c.q_const, c.z_power, c.dependent)
                for c in CATALOG[identity_id].constraints]
        assert read == equations, identity_id
    assert CATALOG["general-jackson"].constraint_text == (
        "a^2 q^(N+1) = b c d e  and  f g h Z^2 = t")


def test_constraint_text_read_once(monkeypatch):
    def unread(*args):
        raise AssertionError("constraint text read at solve time")
    monkeypatch.setattr(catalog_module, "_monomial", unread)
    inst = solve_balancing("gr-sum", {"b1": 0.3, "b2": 0.4, "b3": 0.5},
                           nome=NOME, z=(0.7, 1.1), N=2)
    assert max(inst.constraint_residuals()) <= 1e-13


@pytest.mark.parametrize("identity_id", ["gr-corollary", "rs-jackson"])
def test_side_text_read_once_per_n(identity_id, monkeypatch):
    # fresh copies of the sides start unread; their plans at n = 3 for four
    # levels N (four boxes for rs-jackson) read each factor string once
    insts = [sample_instance(identity_id, n=3, N=N, config=SampleConfig(seed=5),
                             trial_index=0, p=0.2) for N in range(4)]
    read = []
    parse = catalog_module._parse

    def counted(text, *n):
        read.append(text)
        return parse(text, *n)
    # wherever the reader is imported, its calls are counted
    monkeypatch.setattr(catalog_module, "_parse", counted)
    monkeypatch.setattr(evaluate_module, "_parse", counted, raising=False)
    monkeypatch.setattr(evaluate_module, "_PLANS", {})
    sides = [dataclasses.replace(side) for side in CATALOG[identity_id].sides]
    for inst in insts:
        for side in sides:
            _sum_terms(EvalContext(inst.nome), inst, DOMAINS[side.domain], side)
    assert len(evaluate_module._PLANS) == 4 * len(sides)
    assert sorted(read) == sorted(text for side in sides for text in (*side.common, *side.odd))


def test_constraint_exponents_other_than_q_must_not_depend_on_N():
    with pytest.raises(ValueError, match="only q"):
        Constraint("a^N q = b", "b")


def test_gr_sum_dependent_solved_from_direct_arithmetic():
    q, N = 0.5, 2
    z = (0.7, 1.1)
    inst = solve_balancing(
        "gr-sum", {"b1": 0.3, "b2": 0.3, "b3": 0.3},
        nome=EllipticNome(0.1, q), z=z, N=N)
    Z = z[0] * z[1]
    oracle = 1.0 / (q ** (N - 1) * 0.3 * 0.3 * 0.3 * Z * Z)
    assert oracle == pytest.approx(124.9351898702548)
    assert relative_error(inst.params["b4"], oracle) < 1e-14
    assert max(inst.constraint_residuals()) <= 1e-13


def test_frenkel_turaev_N0_rearrangement():
    a, b, c, d = 0.9, 0.4, 0.7, 1.2
    inst = solve_balancing("frenkel-turaev", {"a": a, "b": b, "c": c, "d": d},
                           nome=NOME, N=0)
    assert relative_error(inst.params["e"], a * a * 0.5 / (b * c * d)) < 1e-14


def test_general_jackson_two_independent_dependents():
    q = 0.5
    params = {"a": 0.9, "b": 0.4, "c": 0.7, "d": 1.2, "f": 0.5, "g": 0.8, "t": 1.1}
    z = (0.6, 1.3)
    inst = solve_balancing("general-jackson", dict(params),
                           nome=EllipticNome(0.1, q), z=z, N=2)
    Z = z[0] * z[1]
    e_oracle = params["a"] ** 2 * q ** 3 / (params["b"] * params["c"] * params["d"])
    h_oracle = params["t"] / (params["f"] * params["g"] * Z * Z)
    assert relative_error(inst.params["e"], e_oracle) < 1e-14
    assert relative_error(inst.params["h"], h_oracle) < 1e-14
    assert max(inst.constraint_residuals()) <= 1e-13


def test_missing_parameter_rejected():
    with pytest.raises(BalancingError, match="missing"):
        solve_balancing("frenkel-turaev", {"a": 0.9, "b": 0.4, "c": 0.7},
                        nome=NOME, N=1)


def test_dependent_parameter_rejected_as_input():
    with pytest.raises(BalancingError, match="unexpected"):
        solve_balancing("frenkel-turaev",
                        {"a": 0.9, "b": 0.4, "c": 0.7, "d": 1.2, "e": 2.0},
                        nome=NOME, N=1)


def test_zero_z_entry_rejected():
    with pytest.raises(BalancingError, match="^gr-sum: z entries must be nonzero$"):
        solve_balancing("gr-sum", {"b1": 0.9, "b2": 1.1, "b3": 0.8},
                        nome=EllipticNome(0.2, 0.5), z=(0.7, 0.0), N=1)


def test_zero_parameter_rejected():
    with pytest.raises(BalancingError, match="nonzero"):
        solve_balancing("frenkel-turaev", {"a": 0.9, "b": 0.0, "c": 0.7, "d": 1.2},
                        nome=NOME, N=1)


@pytest.mark.parametrize("identity_id, partial, shape", [
    # b1 b2 underflow to 0, so b4 = 1 / (... b1 b2 b3) is infinite
    ("theta-lemma", {"b1": 1e-200, "b2": 1e-200, "b3": 0.5}, {"z": (0.7, 1.1)}),
    # b c underflow to 0 and e comes out NaN
    ("frenkel-turaev", {"a": 0.5, "b": 1e-200, "c": 1e-200, "d": 0.5}, {"N": 2}),
])
def test_dependent_past_the_double_range_rejected(identity_id, partial, shape):
    with pytest.raises(BalancingError, match="constraint forces"):
        solve_balancing(identity_id, partial, nome=EllipticNome(0.2, 0.5), **shape)


def test_unknown_identity_rejected():
    with pytest.raises(BalancingError, match="unknown identity"):
        solve_balancing("nope", {}, nome=NOME, N=1)


def test_arity_validation():
    good = {"b1": 0.3, "b2": 0.4, "b3": 0.5}
    with pytest.raises(BalancingError):  # theta-lemma takes no N
        solve_balancing("theta-lemma", good, nome=NOME, z=(0.7, 1.1), N=2)
    with pytest.raises(BalancingError):  # gr-sum needs z
        solve_balancing("gr-sum", good, nome=NOME, N=2)
    with pytest.raises(BalancingError):  # scalar identity takes no z
        solve_balancing("frenkel-turaev", {"a": 0.9, "b": 0.4, "c": 0.7, "d": 1.2},
                        nome=NOME, N=1, z=(0.5,))
    with pytest.raises(BalancingError):  # box length must match z
        solve_balancing("rs-jackson", {"a": 0.9, "b": 0.4, "c": 0.7, "d": 1.2},
                        nome=NOME, z=(0.5,), box=(1, 2))
    with pytest.raises(BalancingError):  # negative N
        solve_balancing("frenkel-turaev", {"a": 0.9, "b": 0.4, "c": 0.7, "d": 1.2},
                        nome=NOME, N=-1)


def test_lambda_recomputed_from_parameters():
    inst = solve_balancing(
        "bt-transform",
        {"a": 0.9, "b": 0.4, "c": 0.7, "d": 1.2, "e": 0.5, "f": 0.8},
        nome=NOME, z=(0.6, 1.3), N=1)
    lam_oracle = 0.9 ** 2 * 0.5 / (0.4 * 0.7 * 1.2)
    assert relative_error(inst.lam, lam_oracle) < 1e-14
    moved = dataclasses.replace(inst, params={**inst.params, "b": 0.5})
    assert relative_error(moved.lam, 0.9 ** 2 * 0.5 / (0.5 * 0.7 * 1.2)) < 1e-14


def test_Z_recomputed_from_z():
    inst = solve_balancing("theta-lemma", {"b1": 0.3, "b2": 0.4, "b3": 0.5},
                           nome=NOME, z=(0.7, 1.1, 0.9))
    assert relative_error(inst.Z, 0.7 * 1.1 * 0.9) < 1e-15


def test_scalar_identity_has_no_vector_attributes():
    inst = solve_balancing("frenkel-turaev", {"a": 0.9, "b": 0.4, "c": 0.7, "d": 1.2},
                           nome=NOME, N=1)
    assert inst.n is None
    with pytest.raises(AttributeError):
        inst.Z
    with pytest.raises(AttributeError):
        inst.lam


def test_shape_resolves_each_arity():
    def shape(identity_id, *request):
        return tuple(CATALOG[identity_id].shape(*request))
    assert shape("frenkel-turaev", 3, 2) == (None, 2, None)  # n ignored
    assert shape("theta-lemma", 3, 2) == (3, None, None)  # N ignored
    assert shape("gr-sum", 3, 2, (1, 1)) == (3, 2, None)  # box ignored
    assert shape("rs-jackson", 3, 4) == (3, None, (2, 1, 1))  # N spread over the box
    given = CATALOG["rs-jackson"].shape(None, 7, (1, 0))  # a given box wins over N
    assert tuple(given) == (2, None, (1, 0))
    assert given.level == 1
    bad = [("gr-sum", 0, 2), ("gr-sum", 2, -1), ("gr-sum", None, 2), ("gr-sum", 2),
           ("frenkel-turaev", 1), ("rs-jackson", 2, None, (1, -1)),
           ("rs-jackson", 3, None, (1, 2)), ("rs-jackson", None, None, ()),
           ("rs-jackson", 0, 2)]
    for identity_id, *request in bad:
        with pytest.raises(BalancingError):
            CATALOG[identity_id].shape(*request)
    # a value that is not whole is a ValueError, not truncated
    for identity_id, *request in [("gr-sum", 2.5, 1), ("gr-sum", 2, 0.7),
                                  ("rs-jackson", None, None, (1.5, 1))]:
        with pytest.raises(ValueError, match="must be an integer"):
            CATALOG[identity_id].shape(*request)
