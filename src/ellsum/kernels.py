"""Shared structural kernels: index enumeration, the A-type theta-Vandermonde
ratio, and two classical theta interpolation identities.

Every multivariable sum in the catalog carries the factor

    delta_ratio(z, x) = prod_{i<j} q^{x_i} theta(q^{x_j - x_i} z_j / z_i)
                                   / theta(z_j / z_i),

the ratio of shifted to unshifted Vandermonde-like theta products.  An
equivalent form, delta_ratio_alt, rewrites it through shifted factorials:

    (-1)^|x| q^(-binom(|x|,2) - |x|)
        prod_{i,j} (q z_i/z_j)_{x_i} / (q^{-x_j} z_i/z_j)_{x_i}.

The two agree wherever both are pole-free.  The evaluator calls neither: the
catalog's factor specs write the ratio out as their _DELTA block.  The two
forms stay as each other's cross-check in the selftest's ratio suite.
delta_ratio and the interpolation sides below each take all their thetas
in one theta call, then check the denominators in the formula's order, so a
PoleError names the first one that vanishes.

The interpolation identities: a partial-fraction sum

    sum_k prod_j theta(z_k/b_j) / [theta(z_k/t) prod_{j != k} theta(z_k/z_j)]
        = prod_j theta(b_j/t) / prod_j theta(z_j/t)

valid when t z_1...z_n = b_1...b_{n+1}, and the two-point interpolation for
functions of the form f(w) = C theta(aw, a/w):

    f(w) = f(b) theta(cw, c/w)/theta(cb, c/b)
         + f(c) theta(bw, b/w)/theta(bc, b/c).

Index enumeration is in a fixed total order so that runs replay
identically.  The enumerators check their arguments when called and return
generators over index tuples built on the first request for a (total, parts)
or a box and kept, so a repeated domain costs a walk over a stored tuple.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import BalancingError, PoleError
from .theta import EllipticNome, _integer, elliptic_pochhammer, ipow, theta

# ---------------------------------------------------------------------------
# A-type ratio
# ---------------------------------------------------------------------------


def _shifts(z: Sequence[complex], x: Sequence[int]) -> list[int]:
    """x as ints, one per variable of z; ValueError otherwise."""
    if len(z) != len(x):
        raise ValueError(f"dimension mismatch: {len(z)} variables, {len(x)} indices")
    return [_integer(v, f"x[{i}]") for i, v in enumerate(x)]


def delta_ratio(z: Sequence[complex], x: Sequence[int], nome: EllipticNome) -> complex:
    """Ratio of the shifted to the unshifted theta Vandermonde over (z, x)."""
    x = _shifts(z, x)
    q = nome.q
    pairs = [(i, j) for i in range(len(z)) for j in range(i + 1, len(z))]
    ratios = [z[j] / z[i] for i, j in pairs]
    shifted = [ipow(q, x[j] - x[i]) * ratio for (i, j), ratio in zip(pairs, ratios)]
    values = theta(np.array(ratios + shifted), nome).tolist()
    result = complex(1.0)
    for (i, j), den, num in zip(pairs, values, values[len(pairs):]):
        if den == 0:
            raise PoleError(f"theta(z[{j}]/z[{i}])")
        result *= ipow(q, x[i]) * num / den
    return result


def delta_ratio_alt(z: Sequence[complex], x: Sequence[int], nome: EllipticNome) -> complex:
    """The shifted-factorial form of delta_ratio (cross-check evaluator)."""
    x = _shifts(z, x)
    q = nome.q
    n = len(z)
    total = sum(x)
    sign = -1.0 if total % 2 else 1.0
    result = sign * ipow(q, -(math.comb(total, 2) + total))
    for i in range(n):
        for j in range(n):
            ratio = z[i] / z[j]
            num = elliptic_pochhammer(q * ratio, x[i], nome)
            den = elliptic_pochhammer(ipow(q, -x[j]) * ratio, x[i], nome)
            if den == 0:
                raise PoleError(f"(q^-x[{j}] z[{i}]/z[{j}])_x[{i}]")
            result *= num / den
    return result


# ---------------------------------------------------------------------------
# Interpolation identities
# ---------------------------------------------------------------------------


def _check_partial_fraction_balance(zs, bs, t):
    if len(bs) != len(zs) + 1:
        raise ValueError(f"need len(bs) == len(zs) + 1, got {len(bs)} and {len(zs)}")
    left, right = math.prod(zs, start=complex(t)), math.prod(bs, start=complex(1.0))
    scale = max(abs(left), abs(right))
    if abs(left - right) > 1e-12 * scale:
        raise BalancingError(
            f"t*z_1...z_n = b_1...b_(n+1) violated: {left} vs {right}"
        )


def tpf_lhs(zs: Sequence[complex], bs: Sequence[complex], t: complex,
            nome: EllipticNome) -> complex:
    """Partial-fraction sum side of the balanced theta interpolation identity."""
    return _tpf_sum(zs, bs, t, nome)[0]


def _tpf_sum(zs, bs, t, nome) -> tuple[complex, float]:
    """tpf_lhs and the largest modulus of its terms."""
    _check_partial_fraction_balance(zs, bs, t)
    n = len(zs)
    # per k: theta(z_k/b_j) for every j, theta(z_k/t), theta(z_k/z_j) for j != k
    rows = [[zk / b for b in bs] + [zk / t] + [zk / zs[j] for j in range(n) if j != k]
            for k, zk in enumerate(zs)]
    values = theta(np.array(rows, dtype=complex).reshape(-1), nome).tolist()
    width = len(bs) + n
    total = complex(0.0)
    largest = 0.0
    for k in range(n):
        row = values[k * width:(k + 1) * width]
        num = math.prod(row[:len(bs)])
        den = row[len(bs)]
        if den == 0:
            raise PoleError(f"theta(z[{k}]/t)")
        for j, factor in zip((j for j in range(n) if j != k), row[len(bs) + 1:]):
            if factor == 0:
                raise PoleError(f"theta(z[{k}]/z[{j}])")
            den *= factor
        term = num / den
        total += term
        largest = max(largest, abs(term))
    return total, largest


def tpf_rhs(zs: Sequence[complex], bs: Sequence[complex], t: complex,
            nome: EllipticNome) -> complex:
    """Closed product side of the balanced theta interpolation identity."""
    _check_partial_fraction_balance(zs, bs, t)
    values = theta(np.array([b / t for b in bs] + [z / t for z in zs]), nome).tolist()
    dens = values[len(bs):]
    if 0 in dens:
        raise PoleError("theta(z[j]/t)")
    return math.prod(values[:len(bs)]) / math.prod(dens)


def weierstrass_rhs(f_b: complex, f_c: complex, b: complex, c: complex,
                    w: complex, nome: EllipticNome) -> complex:
    """Two-point interpolation of f(w) = C theta(aw, a/w) from f(b), f(c)."""
    cb, c_b, bc, b_c, cw, c_w, bw, b_w = theta(
        np.array([c * b, c / b, b * c, b / c, c * w, c / w, b * w, b / w]), nome).tolist()
    den_b = cb * c_b
    den_c = bc * b_c
    if den_b == 0 or den_c == 0:
        raise PoleError("theta(bc) or theta(b/c): degenerate interpolation nodes")
    term_b = f_b * cw * c_w / den_b
    term_c = f_c * bw * b_w / den_c
    return term_b + term_c


# ---------------------------------------------------------------------------
# Index enumeration
# ---------------------------------------------------------------------------


def _sizes(total, parts) -> tuple[int, int]:
    """(total, parts) as ints; ValueError unless total >= 0 and parts >= 1."""
    total, parts = _integer(total, "total"), _integer(parts, "parts")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    return total, parts


def compositions_exact(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All x in Z_{>=0}^parts with sum(x) == total, first entry descending.

    Yields count = binom(total + parts - 1, parts - 1) tuples, each exactly
    once, in a stable total order.
    """
    return (x for x in _exact(*_sizes(total, parts)))


@lru_cache(maxsize=256)
def _exact(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    if parts == 1:
        return ((total,),)
    return tuple((head,) + tail for head in range(total, -1, -1)
                 for tail in _exact(total - head, parts - 1))


def compositions_bounded(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All x in Z_{>=0}^parts with sum(x) <= total, by increasing weight.

    Count = binom(total + parts, parts).
    """
    return (x for x in _bounded(*_sizes(total, parts)))


@lru_cache(maxsize=256)
def _bounded(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    return tuple(x for weight in range(total + 1) for x in _exact(weight, parts))


def box_indices(limits: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All x with 0 <= x_i <= limits_i, last coordinate fastest.

    Count = prod(limits_i + 1).
    """
    limits = tuple(_integer(m, "box limit") for m in limits)
    if not limits:
        raise ValueError("limits must be nonempty")
    if any(m < 0 for m in limits):
        raise ValueError(f"limits must be >= 0, got {limits}")
    return (x for x in _box(limits))


@lru_cache(maxsize=256)
def _box(limits: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(product(*(range(m + 1) for m in limits)))
