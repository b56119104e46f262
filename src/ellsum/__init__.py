"""Numerical toolkit for multivariable elliptic hypergeometric summation
and transformation identities: theta/shifted-factorial primitives, an
identity catalog with balancing-constraint solving, seeded instance
sampling, and a randomized verification driver."""

from ._version import __version__
from .catalog import (
    CATALOG,
    IDENTITY_IDS,
    CatalogEntry,
    IdentityInstance,
    solve_balancing,
)
from .errors import (
    BalancingError,
    EllipticError,
    NonFiniteError,
    PochhammerPoleError,
    PoleError,
    ProductBudgetError,
    ResampleExhaustedError,
    ThetaDomainError,
    TruncationBudgetError,
)
from .evaluate import EvalContext, evaluate_lhs, evaluate_rhs, relative_error
from .kernels import (
    box_indices,
    compositions_bounded,
    compositions_exact,
    delta_ratio,
    delta_ratio_alt,
    tpf_lhs,
    tpf_rhs,
    weierstrass_rhs,
)
from .reductions import REDUCTION_KINDS, ReductionResult, reduction_check
from .sampler import SampleConfig, sample_instance
from .theta import (
    EllipticNome,
    elliptic_pochhammer,
    ipow,
    theta,
)
from .verify import (
    TrialResult,
    VerificationJob,
    VerificationReport,
    report_to_dict,
    report_to_json,
    report_to_table,
    run_bench,
    run_job,
)

__all__ = [
    "BalancingError",
    "CATALOG",
    "CatalogEntry",
    "EllipticError",
    "EllipticNome",
    "EvalContext",
    "IDENTITY_IDS",
    "IdentityInstance",
    "NonFiniteError",
    "PochhammerPoleError",
    "PoleError",
    "ProductBudgetError",
    "REDUCTION_KINDS",
    "ReductionResult",
    "ResampleExhaustedError",
    "SampleConfig",
    "ThetaDomainError",
    "TrialResult",
    "TruncationBudgetError",
    "VerificationJob",
    "VerificationReport",
    "box_indices",
    "compositions_bounded",
    "compositions_exact",
    "delta_ratio",
    "delta_ratio_alt",
    "elliptic_pochhammer",
    "evaluate_lhs",
    "evaluate_rhs",
    "ipow",
    "reduction_check",
    "relative_error",
    "report_to_dict",
    "report_to_json",
    "report_to_table",
    "run_bench",
    "run_job",
    "sample_instance",
    "solve_balancing",
    "theta",
    "tpf_lhs",
    "tpf_rhs",
    "weierstrass_rhs",
    "__version__",
]
