"""Seeded property suites for the theta/shifted-factorial layer and the
structural kernels.  The CLI `selftest` subcommand and the test suite both
run these.

Checked properties:

  * inversion            theta(1/z) = -theta(z)/z
  * quasi-periodicity    theta(pz)  = -theta(z)/z          (p != 0)
  * shift addition       (a)_{n+k} = (a)_n (a q^n)_k
  * negative shift       (a)_{n-k} = (-1)^k q^binom(k,2) (q^(1-n)/a)^k
                                     (a)_n / (q^(1-n)/a)_k
  * quadratic split      theta(z^2) = theta(z, -z, r z, -r z),  r = sqrt(p)
                         and 2 = theta(-1, r, -r)
                         (principal square-root branch, used consistently)
  * trigonometric limit  theta(z; 0) == 1 - z exactly, and (z)_k at p = 0
                         matches the classical q-shifted factorial
  * ratio equivalence    delta_ratio == delta_ratio_alt on pole-free draws
  * balanced sum         tpf_lhs == tpf_rhs under the balancing condition
  * interpolation        weierstrass_rhs reproduces f(w) = theta(aw, a/w),
                         and is exact at the interpolation nodes

Draws are gated away from the zero lattice p^Z of theta, since poles are
excluded by the properties' statements, and every suite is a pure function
of its seed (PCG64 streams, one per suite).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EllipticError
from .kernels import delta_ratio, delta_ratio_alt, tpf_lhs, tpf_rhs, weierstrass_rhs
from .sampler import _draw, _lattice_distance
from .theta import EllipticNome, elliptic_pochhammer, ipow, theta
from .evaluate import relative_error


@dataclass(frozen=True)
class PropertyResult:
    name: str
    samples: int
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: {self.samples} samples, "
                f"max rel err {self.max_rel_err:.3e} (tol {self.tolerance:g})")


def _rng(seed: int, suite: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, suite])))


def _draw_p(rng, lo: float = 1e-3, hi: float = 0.5) -> complex:
    return _draw(rng, lo, hi)


# ---------------------------------------------------------------------------
# Theta / shifted-factorial properties
# ---------------------------------------------------------------------------


def check_theta_inversion(samples: int = 1000, seed: int = 0,
                          tolerance: float = 1e-12) -> PropertyResult:
    rng = _rng(seed, 1)
    worst = 0.0
    for _ in range(samples):
        p = _draw_p(rng)
        nome = EllipticNome(p, 0.5)
        z = _draw(rng, 1e-3, 1e3)
        worst = max(worst, relative_error(theta(1.0 / z, nome),
                                          -theta(z, nome) / z))
    return PropertyResult("theta inversion", samples, worst, tolerance)


def check_theta_quasi_periodicity(samples: int = 1000, seed: int = 0,
                                  tolerance: float = 1e-12) -> PropertyResult:
    rng = _rng(seed, 2)
    worst = 0.0
    for _ in range(samples):
        p = _draw_p(rng)
        nome = EllipticNome(p, 0.5)
        z = _draw(rng, 1e-3, 1e3)
        worst = max(worst, relative_error(theta(p * z, nome),
                                          -theta(z, nome) / z))
    return PropertyResult("theta quasi-periodicity", samples, worst, tolerance)


def check_shift_addition(samples: int = 1000, seed: int = 0,
                         tolerance: float = 1e-12) -> PropertyResult:
    rng = _rng(seed, 3)
    worst = 0.0
    done = 0
    attempts = 0
    while done < samples and attempts < 100 * samples:
        attempts += 1
        p = _draw_p(rng)
        q = _draw(rng, 0.3, 1.4)
        nome = EllipticNome(p, q)
        a = _draw(rng, 0.3, 1.3)
        m = int(rng.integers(-6, 7))
        k = int(rng.integers(-6, 7))
        try:
            left = elliptic_pochhammer(a, m + k, nome)
            right = (elliptic_pochhammer(a, m, nome)
                     * elliptic_pochhammer(a * ipow(q, m), k, nome))
        except EllipticError:
            continue
        scale = max(abs(left), abs(right))
        if scale < 1e-8 or scale > 1e8:  # keep the comparison well scaled
            continue
        worst = max(worst, relative_error(left, right))
        done += 1
    return PropertyResult("shift addition", done, worst, tolerance)


def check_negative_shift(samples: int = 1000, seed: int = 0,
                         tolerance: float = 1e-12) -> PropertyResult:
    rng = _rng(seed, 4)
    worst = 0.0
    done = 0
    attempts = 0
    while done < samples and attempts < 100 * samples:
        attempts += 1
        p = _draw_p(rng)
        q = _draw(rng, 0.3, 1.4)
        nome = EllipticNome(p, q)
        a = _draw(rng, 0.3, 1.3)
        m = int(rng.integers(0, 6))
        k = int(rng.integers(0, m + 1))
        w = ipow(q, 1 - m) / a
        try:
            left = elliptic_pochhammer(a, m - k, nome)
            den = elliptic_pochhammer(w, k, nome)
            if den == 0:
                continue
            sign = -1.0 if k % 2 else 1.0
            right = (sign * ipow(q, math.comb(k, 2)) * ipow(w, k)
                     * elliptic_pochhammer(a, m, nome) / den)
        except EllipticError:
            continue
        scale = max(abs(left), abs(right))
        if scale < 1e-8 or scale > 1e8:
            continue
        worst = max(worst, relative_error(left, right))
        done += 1
    return PropertyResult("negative shift", done, worst, tolerance)


def check_quadratic_factorization(samples: int = 1000, seed: int = 0,
                                  tolerance: float = 1e-12) -> PropertyResult:
    rng = _rng(seed, 5)
    worst = 0.0
    for index in range(samples):
        p = complex(0.0) if index % 10 == 0 else _draw_p(rng)
        nome = EllipticNome(p, 0.5)
        root = cmath.sqrt(p)
        z = _draw(rng, 0.2, 2.0)
        left = theta(z * z, nome)
        right = theta(z, nome) * theta(-z, nome)
        if root != 0:
            right *= theta(root * z, nome) * theta(-root * z, nome)
        worst = max(worst, relative_error(left, right))
        two = theta(-1.0, nome)
        if root != 0:
            two *= theta(root, nome) * theta(-root, nome)
        worst = max(worst, relative_error(two, 2.0))
    return PropertyResult("quadratic factorization", samples, worst, tolerance)


def check_trigonometric_limit(samples: int = 200, seed: int = 0,
                              tolerance: float = 1e-14) -> PropertyResult:
    """p = 0: theta is exactly 1 - z and (z)_k matches the classical
    q-shifted factorial prod_j (1 - z q^j)."""
    rng = _rng(seed, 6)
    worst = 0.0
    for _ in range(samples):
        q = _draw(rng, 0.3, 1.4)
        nome = EllipticNome(0.0, q)
        z = _draw(rng, 1e-3, 1e3)
        if theta(z, nome) != 1.0 - z:  # exact, not approximate
            worst = max(worst, 1.0)
        k = int(rng.integers(-6, 7))
        try:
            value = elliptic_pochhammer(z, k, nome)
        except EllipticError:
            continue
        if k >= 0:
            oracle = complex(1.0)
            for j in range(k):
                oracle *= 1.0 - z * ipow(q, j)
        else:
            oracle = complex(1.0)
            for j in range(k, 0):
                oracle *= 1.0 - z * ipow(q, j)
            oracle = 1.0 / oracle
        worst = max(worst, relative_error(value, oracle))
    return PropertyResult("trigonometric limit", samples, worst, tolerance)


# ---------------------------------------------------------------------------
# Kernel properties
# ---------------------------------------------------------------------------


def _draw_clear_vector(rng, n, q, p, weights, *, max_weight, tries=200):
    """z-vector whose ratios stay clear of p^Z under all relevant q-shifts."""
    span = max(max_weight, max(weights, default=0))
    for _ in range(tries):
        z = tuple(_draw(rng, 0.3, 1.2) for _ in range(n))
        clear = True
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                ratio = z[i] / z[j]
                for m in range(-span, span + 1):
                    if _lattice_distance(ipow(q, m) * ratio, p) < 0.02:
                        clear = False
                        break
                if not clear:
                    break
            if not clear:
                break
        if clear:
            return z
    return None


def check_ratio_equivalence(samples: int = 500, seed: int = 0,
                            tolerance: float = 1e-10, *, max_n: int = 5,
                            max_weight: int = 8) -> PropertyResult:
    rng = _rng(seed, 7)
    worst = 0.0
    done = 0
    attempts = 0
    while done < samples and attempts < 100 * samples:
        attempts += 1
        n = int(rng.integers(1, max_n + 1))
        p = _draw_p(rng, 1e-3, 0.35)
        q = _draw(rng, 0.4, 1.3)
        nome = EllipticNome(p, q)
        x = tuple(int(v) for v in rng.integers(0, 4, size=n))
        if sum(x) > max_weight:
            continue
        z = _draw_clear_vector(rng, n, q, p, x, max_weight=max_weight)
        if z is None:
            continue
        try:
            left = delta_ratio(z, x, nome)
            right = delta_ratio_alt(z, x, nome)
        except EllipticError:
            continue
        worst = max(worst, relative_error(left, right))
        done += 1
    return PropertyResult("A-type ratio equivalence", done, worst, tolerance)


def check_balanced_sum(samples: int = 500, seed: int = 0,
                       tolerance: float = 1e-10, *, max_n: int = 5) -> PropertyResult:
    rng = _rng(seed, 8)
    worst = 0.0
    done = 0
    attempts = 0
    while done < samples and attempts < 100 * samples:
        attempts += 1
        n = int(rng.integers(1, max_n + 1))
        p = _draw_p(rng, 1e-3, 0.35)
        nome = EllipticNome(p, 0.5)
        zs = tuple(_draw(rng, 0.3, 1.2) for _ in range(n))
        bs = [_draw(rng, 0.3, 1.2) for _ in range(n)]
        t = _draw(rng, 0.3, 1.2)
        last = t
        for z in zs:
            last *= z
        for b in bs:
            last /= b
        bs.append(last)
        # keep every denominator theta comfortably away from its zero set
        clear = all(
            _lattice_distance(zk / t, p) > 0.05 for zk in zs
        ) and all(
            _lattice_distance(zs[i] / zs[j], p) > 0.05
            for i in range(n) for j in range(n) if i != j
        ) and 1e-3 < abs(last) < 1e3
        if not clear:
            continue
        try:
            left = tpf_lhs(zs, bs, t, nome)
            right = tpf_rhs(zs, bs, t, nome)
            # gate out catastrophic cancellation between the sum's terms;
            # the property under test is the identity, not float heroics
            largest = 0.0
            for k in range(n):
                num = complex(1.0)
                for b in bs:
                    num *= theta(zs[k] / b, nome)
                den = theta(zs[k] / t, nome)
                for j in range(n):
                    if j != k:
                        den *= theta(zs[k] / zs[j], nome)
                largest = max(largest, abs(num / den))
        except EllipticError:
            continue
        scale = max(abs(left), abs(right))
        if scale < 1e-10 or largest > 1e3 * scale:
            continue
        worst = max(worst, relative_error(left, right))
        done += 1
    return PropertyResult("balanced partial-fraction sum", done, worst, tolerance)


def check_interpolation(samples: int = 500, seed: int = 0,
                        tolerance: float = 1e-10) -> PropertyResult:
    rng = _rng(seed, 9)
    worst = 0.0
    done = 0
    attempts = 0
    while done < samples and attempts < 100 * samples:
        attempts += 1
        p = _draw_p(rng, 1e-3, 0.35)
        nome = EllipticNome(p, 0.5)
        a = _draw(rng, 0.3, 1.2)
        b = _draw(rng, 0.3, 1.2)
        c = _draw(rng, 0.3, 1.2)
        w = _draw(rng, 0.3, 1.2)
        if (_lattice_distance(b * c, p) < 0.05
                or _lattice_distance(b / c, p) < 0.05
                or _lattice_distance(c / b, p) < 0.05):
            continue

        def f(u):
            return theta(a * u, nome) * theta(a / u, nome)

        try:
            value = weierstrass_rhs(f(b), f(c), b, c, w, nome)
        except EllipticError:
            continue
        worst = max(worst, relative_error(value, f(w)))
        # interpolation nodes are exact (one term vanishes, the other is u/u)
        worst = max(worst, relative_error(
            weierstrass_rhs(f(b), f(c), b, c, b, nome), f(b)))
        worst = max(worst, relative_error(
            weierstrass_rhs(f(b), f(c), b, c, c, nome), f(c)))
        done += 1
    return PropertyResult("two-point interpolation", done, worst, tolerance)


def run_all(seed: int = 0, *, theta_samples: int = 1000,
            kernel_samples: int = 500) -> list[PropertyResult]:
    """Run every property suite; used by the CLI selftest subcommand."""
    return [
        check_theta_inversion(theta_samples, seed),
        check_theta_quasi_periodicity(theta_samples, seed),
        check_shift_addition(theta_samples, seed),
        check_negative_shift(theta_samples, seed),
        check_quadratic_factorization(theta_samples, seed),
        check_trigonometric_limit(max(theta_samples // 5, 1), seed),
        check_ratio_equivalence(kernel_samples, seed),
        check_balanced_sum(kernel_samples, seed),
        check_interpolation(kernel_samples, seed),
    ]
