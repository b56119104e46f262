"""Multiplicative theta function and elliptic shifted factorials.

The atomic quantities of the library are

    theta(z; p) = prod_{j>=0} (1 - p^j z)(1 - p^{j+1}/z),        |p| < 1,

and the two-branch shifted factorial with step q

    (z)_k = theta(z) theta(qz) ... theta(q^{k-1} z),                  k >= 0,
    (z)_k = 1 / [theta(q^k z) theta(q^{k+1} z) ... theta(q^{-1} z)],  k < 0.

theta vanishes exactly on z in p^Z, which is where every pole handled by
the rest of the library ultimately comes from.

Truncation contract: factors of the infinite product are included until
both |p^j z| and |p^{j+1}/z| fall below the fixed cutoff CUTOFF =
0.01 * EPSILON * u = 1e-4 u (u = double-precision unit roundoff), so the
neglected tail is below ~1e-18 relative for |p| <= 0.9.  The cutoff is
argument-aware and deterministic: the same (z, p) always multiplies the
same factors.  A product that needs more than MAX_FACTORS factors raises
TruncationBudgetError, so |p| -> 1 fails instead of hanging.

p = 0 short-circuits to the exact trigonometric value 1 - z and touches
none of the truncation machinery.

theta evaluates a numpy array of arguments in one vectorised pass over
blocks of 32 factors (1 - p^j z)(1 - p^{j+1}/z), one column per argument;
any other argument is a batch of one, returned as a Python complex.  Each
argument stops at its own factor count: a block multiplies all 32 rows of
every argument it takes, the rows past that argument's count set to exactly
1, and halves them to one row, row i times row i + half.  Block 0 takes
every argument and a later block only those whose count exceeds its first
row, and writes back through that one selection, so a value does not depend
on which other arguments share its batch.  (Against a product that takes
every argument into every block, and so multiplies a block wholly past an
argument's count as 1 + 0i, a value on the real or imaginary axis can
differ in the sign of its zero part.)  A block's tables (the columns p^j
and p^(j+1) and the row indices j) depend on p alone: they are built on
first use, by repeated multiplication, and kept.  Its factors and halving
tree are written into a workspace of three buffers, reused from call to
call, and never into an operand's own buffer, where numpy rounds some
complex products differently; a batch of more than _COLUMNS arguments
runs through it in chunks of _COLUMNS.

A non-finite argument raises NonFiniteError at p != 0 (at p = 0 the value
1 - z is returned as it is).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat

import numpy as np

from .errors import (
    NonFiniteError,
    PochhammerPoleError,
    ThetaDomainError,
    TruncationBudgetError,
)

#: Unit roundoff of IEEE double precision.
UNIT_ROUNDOFF = 2.220446049250313e-16

#: Scale of the tail cutoff.
EPSILON = 0.01

#: Most factors (1 - p^j z)(1 - p^(j+1)/z) one theta product may multiply.
MAX_FACTORS = 1000

#: Tail threshold on |p^j z| and |p^(j+1)/z|.
CUTOFF = 0.01 * EPSILON * UNIT_ROUNDOFF


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
class EllipticNome:
    """The fixed pair (p, q).

    |p| < 1 is required; p = 0 is the permitted trigonometric degeneration.
    q only needs to be nonzero (the sums the library evaluates are finite).
    """

    p: complex
    q: complex

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
    at least CUTOFF.  Raises TruncationBudgetError past MAX_FACTORS."""
    log_z = np.log(abs_z)
    log_cut, log_inv_p = math.log(CUTOFF), -math.log(abs(nome.p))
    # the larger reach is at least -log_cut / log_inv_p - 1/2 > -1/2, so >= 0
    counts = np.floor(np.maximum(log_z - log_cut, -log_z - log_cut - log_inv_p)
                      / log_inv_p) + 1
    if not counts.max() < MAX_FACTORS:  # NaN fails too
        raise TruncationBudgetError(
            f"theta product needs more than {MAX_FACTORS} factors "
            f"(|p| = {abs(nome.p):.6g}, |z| up to {np.max(abs_z):.6g})")
    return counts


#: Factors per block of the batched product; a power of two.
_BLOCK = 32
#: Most arguments one pass over the blocks takes; a wider batch runs in chunks.
_COLUMNS = 4096
#: Three complex buffers for a block's factors and halving tree, grown to
#: the largest chunk seen, at most _BLOCK x _COLUMNS.
_workspace = [np.empty(0, dtype=complex)] * 3


@lru_cache(maxsize=256)
def _block(p: complex, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, complex]:
    """Tables of block k at p: the columns p^j and p^(j+1) and the row
    indices j for j in [k _BLOCK, (k+1) _BLOCK), and p^j of the next row.
    p^j is built by repeated multiplication, continuing block k - 1."""
    pj = complex(1.0) if k == 0 else _block(p, k - 1)[3]
    *powers, pj = accumulate(repeat(p, _BLOCK), operator.mul, initial=pj)
    column = np.array(powers)[:, None]
    tables = (column, column * p, np.arange(k * _BLOCK, (k + 1) * _BLOCK)[:, None])
    for table in tables:
        table.flags.writeable = False
    return (*tables, pj)


def theta(z, nome: EllipticNome):
    """Evaluate theta(z; p), truncated as the module docstring states.

    z is an ndarray, evaluated elementwise into a new array of its shape, or
    a complex scalar, evaluated as a batch of one and returned as a Python
    complex.  At p != 0 the blocks are multiplied in the module's workspace,
    so theta is neither reentrant nor thread-safe within a process, and
    under np.errstate: an overflow raises NonFiniteError, never a warning.
    """
    if not isinstance(z, np.ndarray):
        return complex(theta(np.array([z], dtype=complex), nome)[0])
    if z.ndim != 1:  # any other shape is evaluated flat
        return theta(z.ravel(), nome).reshape(z.shape)
    z = np.asarray(z, dtype=complex)
    p = nome.p
    if p == 0 or not z.size:
        return 1.0 - z
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(z)
        if not size.all():
            raise ThetaDomainError("theta(0) is undefined for p != 0")
        if not np.isfinite(size).all():
            raise NonFiniteError("theta of a non-finite argument")
        counts = _factor_counts(size, nome)
        if len(z) > _COLUMNS:  # a value does not depend on its batch
            return np.concatenate([theta(z[k:k + _COLUMNS], nome)
                                   for k in range(0, len(z), _COLUMNS)])
        if _workspace[0].size < _BLOCK * len(z):
            _workspace[:] = [np.empty(_BLOCK * len(z), dtype=complex) for _ in range(3)]
        inv_z = 1.0 / z
        result = np.ones(len(z), dtype=complex)  # an argument with no factors
        for start in range(0, int(counts.max()), _BLOCK):
            powers, next_powers, rows, _ = _block(p, start // _BLOCK)
            # Block 0 takes every argument; a later block only those whose
            # count exceeds its first row, all 32 rows of each.
            take = slice(None) if start == 0 else np.flatnonzero(counts > start)
            zs, inv_zs = z[take], inv_z[take]
            # Contiguous views, each out= never an operand of its own call,
            # keep numpy on a new array's rounding path whatever len(z).
            a, b, c = (w[:_BLOCK * len(zs)].reshape(_BLOCK, -1) for w in _workspace)
            np.subtract(1.0, np.multiply(powers, zs, out=a), out=b)
            np.subtract(1.0, np.multiply(next_powers, inv_zs, out=a), out=c)
            factors, spare = np.multiply(b, c, out=a), b
            np.copyto(factors, 1.0, where=rows >= counts[take])  # past the count: 1
            while len(factors) > 1:  # row i times row i + half, to one row
                half = len(factors) // 2
                factors, spare = np.multiply(factors[:half], factors[half:], spare[:half]), factors
            result[take] = factors[0] if start == 0 else result[take] * factors[0]
    if not np.isfinite(result).all():
        raise NonFiniteError("theta overflowed")
    return result


def elliptic_pochhammer(z: complex, k: int, nome: EllipticNome) -> complex:
    """The shifted factorial (z)_k with step q, for any integer k.

    For k < 0 a vanishing reciprocal factor raises PochhammerPoleError
    carrying the index of the offending factor, so callers can resample
    around the pole instead of aborting.  A k that is not whole (2.5, NaN)
    is a ValueError; 2.0 counts as 2.
    """
    k = _integer(k, "k")
    z = complex(z)
    if z == 0:
        raise ThetaDomainError("(0)_k is undefined")
    if k == 0:
        return complex(1.0)
    # k > 0: theta(z) ... theta(q^(k-1) z); k < 0: the reciprocal of
    # theta(q^k z) ... theta(q^-1 z).  One theta call takes every factor.
    q = nome.q
    w = z if k > 0 else ipow(q, k) * z
    arguments = list(accumulate(repeat(q, abs(k) - 1), operator.mul, initial=w))
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
