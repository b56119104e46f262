"""Multiplicative theta function and elliptic shifted factorials.

The atomic quantities of the library are

    theta(z; p) = prod_{j>=0} (1 - p^j z)(1 - p^{j+1}/z),        |p| < 1,

and the two-branch shifted factorial with step q

    (z)_k = theta(z) theta(qz) ... theta(q^{k-1} z),                  k >= 0,
    (z)_k = 1 / [theta(q^k z) theta(q^{k+1} z) ... theta(q^{-1} z)],  k < 0.

theta vanishes exactly on z in p^Z, which is where every pole handled by
the rest of the library ultimately comes from.

Truncation contract: factors of the infinite product are included until
both |p^j z| and |p^{j+1}/z| fall below the policy cutoff
0.01 * epsilon * u (u = double-precision unit roundoff), so the neglected
tail is below ~1e-18 relative for |p| <= 0.9 at the default epsilon.  The
cutoff is argument-aware and deterministic: the same (z, p, policy) always
multiplies the same factors.

p = 0 short-circuits to the exact trigonometric value 1 - z and touches
none of the truncation machinery.

theta evaluates a numpy array of arguments in one vectorised pass over
blocks of the factors (1 - p^j z)(1 - p^{j+1}/z), one column per argument;
any other argument is a batch of one, returned as a Python complex.  Each
argument stops at its own factor count and later factors are exactly 1, so
a value does not depend on which other arguments share its batch.  A
block's tables (the columns p^j and p^(j+1) and the row indices j) depend
on p alone: they are built on first use, by repeated multiplication, and
kept.  Callers that need several thetas pass them in one array.

A non-finite argument raises NonFiniteError at p != 0 (at p = 0 the value
1 - z is returned as it is).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    NonFiniteError,
    PochhammerPoleError,
    ThetaDomainError,
    TruncationBudgetError,
)

#: Unit roundoff of IEEE double precision.
UNIT_ROUNDOFF = 2.220446049250313e-16


def ipow(base: complex, exponent: int) -> complex:
    """base**exponent by binary exponentiation from an exact integer exponent.

    Negative exponents invert once at the end, so q^(-N) and q^(binom(k,2))
    are reproducible products of the same squarings everywhere.
    """
    if exponent < 0:
        return 1.0 / ipow(base, -exponent)
    result = complex(1.0)
    b = complex(base)
    e = exponent
    while e:
        if e & 1:
            result *= b
        e >>= 1
        if e:
            b *= b
    return result


def _integer(value, name: str) -> int:
    """value as an int; ValueError unless it is whole (2.0 is; 2.5, NaN are not)."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class TruncationPolicy:
    """Deterministic cutoff rule for the theta product tail.

    epsilon scales the tail cutoff (smaller = more factors); max_terms
    bounds the number of factors per sub-product and turns |p| -> 1
    non-convergence into an error instead of a hang.
    """

    epsilon: float = 0.01
    max_terms: int = 1000

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if _integer(self.max_terms, "max_terms") < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")

    @property
    def cutoff(self) -> float:
        """Tail threshold on |p^j z| and |p^{j+1}/z|."""
        return 0.01 * self.epsilon * UNIT_ROUNDOFF


@dataclass(frozen=True)
class EllipticNome:
    """The fixed pair (p, q) plus the truncation policy used by theta.

    |p| < 1 is required; p = 0 is the permitted trigonometric degeneration.
    q only needs to be nonzero (the sums the library evaluates are finite).
    """

    p: complex
    q: complex
    truncation: TruncationPolicy = field(default_factory=TruncationPolicy)

    def __post_init__(self):
        p = complex(self.p)
        q = complex(self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if not abs(p) < 1.0:  # NaN fails too
            raise ValueError(f"|p| must be < 1, got |p| = {abs(p)}")
        if q == 0 or not cmath.isfinite(q):
            raise ValueError(f"q must be finite and nonzero, got {q}")


def _factor_counts(abs_z, nome: EllipticNome):
    """How many factors (1 - p^j z)(1 - p^(j+1)/z) the product multiplies for
    |z| = abs_z, a float or an array: j runs while |p^j z| or |p^(j+1)/z| is
    at least the cutoff.  Raises TruncationBudgetError past max_terms."""
    log_z = np.log(abs_z)
    log_cut, log_inv_p = math.log(nome.truncation.cutoff), -math.log(abs(nome.p))
    # the larger reach is at least -log_cut / log_inv_p - 1/2 > -1/2, so >= 0
    counts = np.floor(np.maximum(log_z - log_cut, -log_z - log_cut - log_inv_p)
                      / log_inv_p) + 1
    if not counts.max() < nome.truncation.max_terms:  # NaN fails too
        raise TruncationBudgetError(
            f"theta product needs more than {nome.truncation.max_terms} factors "
            f"(|p| = {abs(nome.p):.6g}, |z| up to {np.max(abs_z):.6g})")
    return counts


#: Factors per block of the batched product; a power of two.
_BLOCK = 32


@lru_cache(maxsize=256)
def _block(p: complex, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, complex]:
    """Tables of block k at p: the columns p^j and p^(j+1) and the row
    indices j for j in [k _BLOCK, (k+1) _BLOCK), and p^j of the next row.
    p^j is built by repeated multiplication, continuing block k - 1."""
    pj = complex(1.0) if k == 0 else _block(p, k - 1)[3]
    powers = []
    for _ in range(_BLOCK):
        powers.append(pj)
        pj *= p
    column = np.array(powers)[:, None]
    tables = (column, column * p, np.arange(k * _BLOCK, (k + 1) * _BLOCK)[:, None])
    for table in tables:
        table.flags.writeable = False
    return (*tables, pj)


def theta(z, nome: EllipticNome):
    """Evaluate theta(z; p) under the nome's truncation policy.

    z is an ndarray, evaluated elementwise into an array of its shape, or a
    complex scalar, evaluated as a batch of one and returned as a Python
    complex.
    """
    if not isinstance(z, np.ndarray):
        return complex(theta(np.array([z], dtype=complex), nome)[0])
    if z.ndim != 1:  # any other shape is evaluated flat
        return theta(z.ravel(), nome).reshape(z.shape)
    z = np.asarray(z, dtype=complex)
    p = nome.p
    if p == 0 or not z.size:
        return 1.0 - z
    if not z.all():
        raise ThetaDomainError("theta(0) is undefined for p != 0")
    if not np.isfinite(z).all():
        raise NonFiniteError("theta of a non-finite argument")
    counts = _factor_counts(np.abs(z), nome)
    inv_z = 1.0 / z
    result = None
    for k in range(-(-int(counts.max()) // _BLOCK)):
        powers, next_powers, rows, _ = _block(p, k)
        done = rows >= counts
        # Factors past an argument's count are exactly 1.  Halving a block
        # multiplies the same pairs for every batch, and contiguous halves
        # keep numpy on one rounding path whatever len(z) is.
        factors = np.where(done, 1.0, (1.0 - powers * z) * (1.0 - next_powers * inv_z))
        while len(factors) > 1:
            half = len(factors) // 2
            factors = factors[:half] * factors[half:]
        result = factors[0] if result is None else result * factors[0]
    if result is None:
        return np.ones(len(z), dtype=complex)
    if not np.isfinite(result).all():
        raise NonFiniteError("theta overflowed")
    return result


def elliptic_pochhammer(z: complex, k: int, nome: EllipticNome) -> complex:
    """The shifted factorial (z)_k with step q, for any integer k.

    For k < 0 a vanishing reciprocal factor raises PochhammerPoleError
    carrying the index of the offending factor, so callers can resample
    around the pole instead of aborting.
    """
    z = complex(z)
    if z == 0:
        raise ThetaDomainError("(0)_k is undefined")
    if k == 0:
        return complex(1.0)
    # k > 0: theta(z) ... theta(q^(k-1) z); k < 0: the reciprocal of
    # theta(q^k z) ... theta(q^-1 z).  One theta call takes every factor.
    q = nome.q
    w = z if k > 0 else ipow(q, k) * z
    arguments = []
    for _ in range(abs(k)):
        arguments.append(w)
        w *= q
    factors = theta(np.array(arguments), nome).tolist()
    if k > 0:
        result = math.prod(factors)
    elif 0 in factors:
        raise PochhammerPoleError(z, k, k + factors.index(0))
    else:
        result = 1.0 / math.prod(factors)
    if not cmath.isfinite(result):
        raise NonFiniteError(f"({z})_{k} overflowed")
    return result
