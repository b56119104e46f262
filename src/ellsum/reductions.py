"""Cross-checks that mirror how the identities reduce to one another.

Six reduction relations connect catalog entries:

  gr-sum-to-theta-lemma      at N = 1 the gr-sum summand collapses onto the
                             theta-lemma summand up to a factor theta(q):
                             theta(q) * gr-sum side == theta-lemma side.
  gr-corollary-to-gr-sum     appending z_{n+1} = q^(-N)/a to a gr-corollary
                             instance gives a valid gr-sum instance whose
                             sides are proportional to the original ones
                             with one common factor; the cross ratio
                             LHS_gs * RHS_gc == LHS_gc * RHS_gs tests it.
  bt-unit-lhs                when b = 1, every |x| > 0 term of the
                             bt-transform left side carries (1)_{|x|} = 0,
                             so the left side is exactly 1.
  bt-to-gr-corollary         when aq = bc, the bt-transform left side is
                             the gr-corollary left side with
                             (b1..b4) = (d, e, f, g); both sides match.
  gr-corollary-to-frenkel-turaev
                             at n = 1 the substitution (a, b..e) ->
                             (a z1, z1 b1, .., z1 b4) turns the identity
                             into the one-variable Jackson summation.
  general-to-jts             pinning (d, e) = (fZ, gZ) for odd n, (Z, fgZ)
                             for even n makes the general-jackson summand
                             equal the jts-jackson summand with
                             (d, e) -> (f, g) and the same spectator t.

Each check evaluates both members of the reduced relation and reports the
worst relative error as the residual.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import IdentityInstance, solve_balancing
from .errors import BalancingError
from .evaluate import evaluate_lhs, evaluate_rhs, relative_error
from .theta import ipow, theta

@dataclass(frozen=True)
class ReductionResult:
    kind: str
    residual: float
    tolerance: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.residual <= self.tolerance


def _require(condition: bool, message: str):
    if not condition:
        raise BalancingError(f"reduction premise violated: {message}")


def _sides(inst):
    return evaluate_lhs(inst)[0], evaluate_rhs(inst)[0]


def _against(inst, identity, given, dependent, expected, *,
             scale=None, cross=False, **shape):
    """Solve the companion `identity` instance from `given`, require its
    `dependent` to equal `expected`, and return the worst error between the
    left sides and between the right sides (inst's times `scale` if given),
    or with `cross` the error of the cross ratio of the four sides."""
    companion = solve_balancing(identity, given, nome=inst.nome, **shape)
    _require(relative_error(companion.params[dependent], expected) < 1e-10,
             f"constraints disagree on {dependent}")
    lhs, rhs = _sides(inst)
    other_lhs, other_rhs = _sides(companion)
    if cross:
        return relative_error(other_lhs * rhs, lhs * other_rhs)
    if scale is not None:
        lhs, rhs = scale * lhs, scale * rhs
    return max(relative_error(lhs, other_lhs), relative_error(rhs, other_rhs))


def _check_gr_sum_to_theta_lemma(inst):
    _require(inst.N == 1, "gr-sum instance must have N = 1")
    # Same b4 must come out: the N = 1 constraint coincides with the lemma's.
    residual = _against(inst, "theta-lemma",
                        {name: inst.params[name] for name in ("b1", "b2", "b3")},
                        "b4", inst.params["b4"], z=inst.z,
                        scale=theta(inst.nome.q, inst.nome))
    return residual, "theta(q) * gr-sum sides vs theta-lemma sides"


def _check_gr_corollary_to_gr_sum(inst):
    extra = ipow(inst.nome.q, -inst.N) / inst.params["a"]
    residual = _against(inst, "gr-sum",
                        {name: inst.params[name] for name in ("b1", "b2", "b3")},
                        "b4", inst.params["b4"], z=inst.z + (extra,), N=inst.N,
                        cross=True)
    return residual, "cross ratio of gr-sum (n+1 vars) vs gr-corollary sides"


def _check_bt_unit_lhs(inst):
    _require(inst.params["b"] == 1, "bt-transform instance must have b = 1")
    lhs, _ = evaluate_lhs(inst)
    return relative_error(lhs, 1.0), "bt-transform left side vs 1"


def _check_bt_to_gr_corollary(inst):
    p_ = inst.params
    aq = p_["a"] * inst.nome.q
    _require(relative_error(aq, p_["b"] * p_["c"]) < 1e-10,
             "bt-transform instance must have aq = bc")
    residual = _against(inst, "gr-corollary",
                        {"a": p_["a"], "b1": p_["d"], "b2": p_["e"], "b3": p_["f"]},
                        "b4", p_["g"], z=inst.z, N=inst.N)
    return residual, "bt-transform sides vs gr-corollary sides at aq = bc"


def _check_gr_corollary_to_frenkel_turaev(inst):
    _require(inst.n == 1, "gr-corollary instance must have n = 1")
    p_ = inst.params
    z1 = inst.z[0]
    residual = _against(inst, "frenkel-turaev",
                        {"a": p_["a"] * z1, "b": z1 * p_["b1"], "c": z1 * p_["b2"],
                         "d": z1 * p_["b3"]},
                        "e", z1 * p_["b4"], N=inst.N)
    return residual, "gr-corollary n=1 sides vs frenkel-turaev sides"


def _check_general_to_jts(inst):
    p_ = inst.params
    Z = inst.Z
    if inst.n % 2 == 1:
        want_d, want_e = p_["f"] * Z, p_["g"] * Z
    else:
        want_d, want_e = Z, p_["f"] * p_["g"] * Z
    _require(relative_error(p_["d"], want_d) < 1e-10,
             "general-jackson d is not at its parity pin")
    _require(relative_error(p_["e"], want_e) < 1e-10,
             "general-jackson e is not at its parity pin")
    residual = _against(inst, "jts-jackson",
                        {"a": p_["a"], "b": p_["b"], "c": p_["c"], "d": p_["f"],
                         "t": p_["t"]},
                        "e", p_["g"], z=inst.z, N=inst.N)
    return residual, "general-jackson sides vs jts-jackson sides at the pin"


#: Reduction kind -> (the identity it expects as input, its check).
_REDUCTIONS = {
    "gr-sum-to-theta-lemma": ("gr-sum", _check_gr_sum_to_theta_lemma),
    "gr-corollary-to-gr-sum": ("gr-corollary", _check_gr_corollary_to_gr_sum),
    "bt-unit-lhs": ("bt-transform", _check_bt_unit_lhs),
    "bt-to-gr-corollary": ("bt-transform", _check_bt_to_gr_corollary),
    "gr-corollary-to-frenkel-turaev": ("gr-corollary", _check_gr_corollary_to_frenkel_turaev),
    "general-to-jts": ("general-jackson", _check_general_to_jts),
}

REDUCTION_KINDS = tuple(_REDUCTIONS)


def reduction_check(kind: str, inst: IdentityInstance, *,
                    tolerance: float = 1e-8) -> ReductionResult:
    """Verify one reduction relation on an instance satisfying its premise.

    Raises BalancingError when the instance does not match the premise
    (wrong identity, wrong n/N, pinned parameter not at its pinned value).
    """
    if kind not in _REDUCTIONS:
        raise ValueError(f"unknown reduction kind {kind!r}; "
                         f"choose from {REDUCTION_KINDS}")
    expected, check = _REDUCTIONS[kind]
    if inst.identity_id != expected:
        raise BalancingError(
            f"reduction {kind} expects a {expected} instance, "
            f"got {inst.identity_id}")
    residual, detail = check(inst)
    return ReductionResult(kind=kind, residual=residual,
                           tolerance=tolerance, detail=detail)
