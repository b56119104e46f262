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

Every suite is a trial function run by one loop, _suite: the trial
draws, gates (None rejects the draw) and returns (value, expected) pairs.
The loop owns the suite's stream, sampler._stream(seed, the suite's
number), the budget of 100 x samples draws, the worst relative error and
the count of completed samples.  A suite passes when every requested
sample completed and its worst error is within tolerance.  Draws are gated
away from the zero lattice p^Z of theta, which the properties exclude.

theta has one product, the batched one the verifier multiplies, so these
suites certify the values the verifier uses.  A trial that takes several
thetas passes them to one theta call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EllipticError
from .kernels import _tpf_sum, delta_ratio, delta_ratio_alt, tpf_rhs, weierstrass_rhs
from .sampler import _draw, _lattice, _lattice_distance, _stream
from .theta import EllipticNome, elliptic_pochhammer, ipow, theta
from .evaluate import relative_error


@dataclass(frozen=True)
class PropertyResult:
    name: str
    requested: int
    samples: int  # completed
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.samples == self.requested and self.max_rel_err <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        count = (self.samples if self.samples == self.requested
                 else f"{self.samples} of {self.requested}")
        return (f"{status} {self.name}: {count} samples, "
                f"max rel err {self.max_rel_err:.3e} (tol {self.tolerance:g})")


def _suite(name: str, stream: int, samples: int, tolerance: float):
    """Make a property suite check(samples, seed, tolerance) ->
    PropertyResult from trial(rng, index), which returns the (value,
    expected) pairs of sample number index, or rejects the draw by returning
    None or raising EllipticError.  Each suite draws from its own stream,
    _stream(seed, stream)."""
    def wrap(trial):
        def check(samples: int = samples, seed: int = 0,
                  tolerance: float = tolerance) -> PropertyResult:
            rng = _stream(seed, stream)
            worst = 0.0
            done = 0
            for _ in range(100 * samples):
                if done == samples:
                    break
                try:
                    pairs = trial(rng, done)
                except EllipticError:
                    continue
                if pairs is None:
                    continue
                for value, expected in pairs:
                    worst = max(worst, relative_error(value, expected))
                done += 1
            return PropertyResult(name, samples, done, worst, tolerance)

        check.__name__ = check.__qualname__ = trial.__name__
        check.__doc__ = trial.__doc__
        return check
    return wrap


# ---------------------------------------------------------------------------
# Theta / shifted-factorial properties
# ---------------------------------------------------------------------------


@_suite("theta inversion", 1, samples=1000, tolerance=1e-12)
def check_theta_inversion(rng, _):
    nome = EllipticNome(_draw(rng, 1e-3, 0.5), 0.5)
    z = _draw(rng, 1e-3, 1e3)
    inverted, value = theta(np.array([1.0 / z, z]), nome).tolist()
    return [(inverted, -value / z)]


@_suite("theta quasi-periodicity", 2, samples=1000, tolerance=1e-12)
def check_theta_quasi_periodicity(rng, _):
    p = _draw(rng, 1e-3, 0.5)
    nome = EllipticNome(p, 0.5)
    z = _draw(rng, 1e-3, 1e3)
    shifted, value = theta(np.array([p * z, z]), nome).tolist()
    return [(shifted, -value / z)]


@_suite("shift addition", 3, samples=1000, tolerance=1e-12)
def check_shift_addition(rng, _):
    p = _draw(rng, 1e-3, 0.5)
    q = _draw(rng, 0.3, 1.4)
    nome = EllipticNome(p, q)
    a = _draw(rng, 0.3, 1.3)
    m = int(rng.integers(-6, 7))
    k = int(rng.integers(-6, 7))
    left = elliptic_pochhammer(a, m + k, nome)
    right = (elliptic_pochhammer(a, m, nome)
             * elliptic_pochhammer(a * ipow(q, m), k, nome))
    scale = max(abs(left), abs(right))
    if scale < 1e-8 or scale > 1e8:  # keep the comparison well scaled
        return None
    return [(left, right)]


@_suite("negative shift", 4, samples=1000, tolerance=1e-12)
def check_negative_shift(rng, _):
    p = _draw(rng, 1e-3, 0.5)
    q = _draw(rng, 0.3, 1.4)
    nome = EllipticNome(p, q)
    a = _draw(rng, 0.3, 1.3)
    m = int(rng.integers(0, 6))
    k = int(rng.integers(0, m + 1))
    w = ipow(q, 1 - m) / a
    left = elliptic_pochhammer(a, m - k, nome)
    den = elliptic_pochhammer(w, k, nome)
    if den == 0:
        return None
    sign = -1.0 if k % 2 else 1.0
    right = (sign * ipow(q, math.comb(k, 2)) * ipow(w, k)
             * elliptic_pochhammer(a, m, nome) / den)
    scale = max(abs(left), abs(right))
    if scale < 1e-8 or scale > 1e8:
        return None
    return [(left, right)]


@_suite("quadratic factorization", 5, samples=1000, tolerance=1e-12)
def check_quadratic_factorization(rng, index):
    p = complex(0.0) if index % 10 == 0 else _draw(rng, 1e-3, 0.5)
    nome = EllipticNome(p, 0.5)
    root = cmath.sqrt(p)
    z = _draw(rng, 0.2, 2.0)
    # at p = 0, r = 0 and the factors theta(0) are exactly 1
    square, *values = theta(np.array([z * z, z, -z, root * z, -root * z,
                                      -1.0, root, -root]), nome).tolist()
    return [(square, math.prod(values[:4])), (math.prod(values[4:]), 2.0)]


@_suite("trigonometric limit", 6, samples=200, tolerance=1e-14)
def check_trigonometric_limit(rng, _):
    """p = 0: theta is exactly 1 - z and (z)_k matches the classical
    q-shifted factorial prod_j (1 - z q^j)."""
    q = _draw(rng, 0.3, 1.4)
    nome = EllipticNome(0.0, q)
    z = _draw(rng, 1e-3, 1e3)
    exact = float(theta(z, nome) == 1.0 - z)  # error 1 unless exact
    k = int(rng.integers(-6, 7))
    value = elliptic_pochhammer(z, k, nome)
    oracle = complex(1.0)
    for j in range(min(k, 0), max(k, 0)):
        oracle *= 1.0 - z * ipow(q, j)
    return [(exact, 1.0), (value, oracle if k >= 0 else 1.0 / oracle)]


# ---------------------------------------------------------------------------
# Kernel properties
# ---------------------------------------------------------------------------


def _draw_clear_vector(rng, n, q, p, span):
    """z-vector whose ratios stay clear of p^Z under the q-shifts q^-span .. q^span."""
    shifts = [ipow(q, m) for m in range(-span, span + 1)]
    lattice = _lattice(p)
    for _ in range(200):
        z = tuple(_draw(rng, 0.3, 1.2) for _ in range(n))
        if not any(_lattice_distance(shift * (z[i] / z[j]), lattice) < 0.02
                   for i in range(n) for j in range(n) if i != j
                   for shift in shifts):
            return z
    return None


@_suite("A-type ratio equivalence", 7, samples=500, tolerance=1e-10)
def check_ratio_equivalence(rng, _):
    n = int(rng.integers(1, 6))
    p = _draw(rng, 1e-3, 0.35)
    q = _draw(rng, 0.4, 1.3)
    nome = EllipticNome(p, q)
    x = tuple(int(v) for v in rng.integers(0, 4, size=n))
    if sum(x) > 8:
        return None
    z = _draw_clear_vector(rng, n, q, p, max(x))  # the shifts delta_ratio takes
    if z is None:
        return None
    return [(delta_ratio(z, x, nome), delta_ratio_alt(z, x, nome))]


@_suite("balanced partial-fraction sum", 8, samples=500, tolerance=1e-10)
def check_balanced_sum(rng, _):
    n = int(rng.integers(1, 6))
    p = _draw(rng, 1e-3, 0.35)
    nome = EllipticNome(p, 0.5)
    zs = tuple(_draw(rng, 0.3, 1.2) for _ in range(n))
    bs = [_draw(rng, 0.3, 1.2) for _ in range(n)]
    t = _draw(rng, 0.3, 1.2)
    last = math.prod(zs, start=t)
    for b in bs:
        last /= b
    bs.append(last)
    # keep every denominator theta comfortably away from its zero set
    lattice = _lattice(p)
    clear = all(
        _lattice_distance(zk / t, lattice) > 0.05 for zk in zs
    ) and all(
        _lattice_distance(zs[i] / zs[j], lattice) > 0.05
        for i in range(n) for j in range(n) if i != j
    ) and 1e-3 < abs(last) < 1e3
    if not clear:
        return None
    left, largest = _tpf_sum(zs, bs, t, nome)
    right = tpf_rhs(zs, bs, t, nome)
    # gate out catastrophic cancellation between the sum's terms;
    # the property under test is the identity, not float heroics
    scale = max(abs(left), abs(right))
    if scale < 1e-10 or largest > 1e3 * scale:
        return None
    return [(left, right)]


@_suite("two-point interpolation", 9, samples=500, tolerance=1e-10)
def check_interpolation(rng, _):
    p = _draw(rng, 1e-3, 0.35)
    nome = EllipticNome(p, 0.5)
    a, b, c, w = (_draw(rng, 0.3, 1.2) for _ in range(4))
    lattice = _lattice(p)
    if any(_lattice_distance(u, lattice) < 0.05 for u in (b * c, b / c, c / b)):
        return None

    def f(u):
        left, right = theta(np.array([a * u, a / u]), nome).tolist()
        return left * right

    f_b, f_c = f(b), f(c)
    value = weierstrass_rhs(f_b, f_c, b, c, w, nome)
    # interpolation nodes are exact (one term vanishes, the other is u/u)
    return [(value, f(w)),
            (weierstrass_rhs(f_b, f_c, b, c, b, nome), f_b),
            (weierstrass_rhs(f_b, f_c, b, c, c, nome), f_c)]


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
