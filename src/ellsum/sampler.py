"""Seeded generation of valid, well-conditioned identity instances.

Free parameters get log-uniform moduli and uniform phases; the dependent
parameter comes from solve_balancing.  A draw is rejected and retried when

  * any denominator theta factor of either side has modulus below
    pole_floor -> reason "pole",
  * pairwise z ratios sit closer than min_z_separation to the zero set
    p^Z of theta (exactly where the A-type denominators vanish)
    -> reason "separation",
  * the solved dependent parameter has modulus outside [1e-6, 1e6]
    -> reason "magnitude",
  * the cancellation ratio max|term| / |sum| of either side exceeds
    condition_cap, or a side overflows -> reason "condition".

Other errors propagate, such as the TruncationBudgetError of a p too close
to 1: that is a bad configuration, not a bad draw.

Randomness comes from numpy's PCG64 bit generator.  Each trial derives its
own stream from SeedSequence entropy built out of (seed, catalog index of
the identity, n, N or box, trial index, bit pattern of p), so trials are
independent, reorderable, and reproducible across runs: the same
(config, identity, n, N, p, trial_index) always yields the same instance.

An attempt draws q, the free parameters and z, in that order, each from
two uniforms (modulus, then phase).  It takes all of them from the stream
in one rng.random call: these are the same doubles, in the same order,
that one rng.uniform call per uniform would return, and _polar maps them
with the same lo + (hi - lo) u, so the values are bit-identical.  The
lattice p^Z of the separation gate is built once per p.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .catalog import IDENTITY_IDS, IdentityInstance, Shape, catalog_entry, solve_balancing
from .errors import BalancingError, NonFiniteError, PoleError, ResampleExhaustedError
from .evaluate import evaluate_lhs, evaluate_rhs
from .theta import EllipticNome, TruncationPolicy, _integer

#: Allowed modulus window for a solved dependent parameter.
DEPENDENT_MAGNITUDE_RANGE = (1e-6, 1e6)

REJECTION_REASONS = ("pass", "pole", "separation", "magnitude", "condition")


@dataclass(frozen=True)
class SampleConfig:
    """Knobs of the instance sampler; the whole stream is a pure function
    of this object plus the identity/arity identifiers."""

    seed: int = 0
    modulus_range: tuple[float, float] = (0.2, 1.5)
    p_values: tuple[complex, ...] = (0.0, 0.05, 0.2)
    q_range: tuple[float, float] = (0.2, 1.5)
    pole_floor: float = 1e-4
    condition_cap: float = 1e6
    max_resamples: int = 200
    min_z_separation: float = 0.05
    truncation: TruncationPolicy = field(default_factory=TruncationPolicy)

    def __post_init__(self):
        for name in ("seed", "max_resamples"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        # each check passes only on a good value, so NaN fails every one
        for name in ("modulus_range", "q_range"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi < math.inf:
                raise ValueError(f"{name} needs 0 < lo <= hi, got {(lo, hi)}")
        for name, rule, ok in (("pole_floor", ">= 0", self.pole_floor >= 0),
                               ("condition_cap", "> 0", self.condition_cap > 0),
                               ("max_resamples", ">= 1", self.max_resamples >= 1),
                               ("min_z_separation", ">= 0", self.min_z_separation >= 0)):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")
        if not self.p_values:
            raise ValueError("p_values must not be empty")
        for p in self.p_values:
            if not abs(complex(p)) < 1:
                raise ValueError(f"|p| must be < 1, got {p}")


def _float_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _rng_for(config: SampleConfig, identity_id: str, shape: Shape, trial_index: int,
             p: complex) -> np.random.Generator:
    entropy = [
        config.seed & 0xFFFFFFFFFFFFFFFF,
        IDENTITY_IDS.index(identity_id),
        0 if shape.n is None else shape.n + 1,
        trial_index,
        _float_bits(complex(p).real),
        _float_bits(complex(p).imag),
        *shape.level_code,
    ]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


_TWO_PI = 2.0 * math.pi


def _polar(log_lo: float, log_hi: float, u_modulus: float, u_phase: float) -> complex:
    """The value of two uniforms u in [0, 1): modulus exp(log_lo + (log_hi -
    log_lo) u_modulus), phase 2 pi u_phase, as rng.uniform maps them."""
    modulus = math.exp(log_lo + (log_hi - log_lo) * u_modulus)
    phase = _TWO_PI * u_phase  # rng.uniform(0, 2 pi) is 0 + (2 pi - 0) u, the same double
    return complex(modulus * math.cos(phase), modulus * math.sin(phase))


def _draws(rng: np.random.Generator, log_ranges) -> list[complex]:
    """One _polar value per (log lo, log hi) range, from one rng.random call."""
    u = rng.random(2 * len(log_ranges)).tolist()
    return [_polar(log_lo, log_hi, u[2 * k], u[2 * k + 1])
            for k, (log_lo, log_hi) in enumerate(log_ranges)]


def _draw(rng: np.random.Generator, lo: float, hi: float) -> complex:
    """Log-uniform modulus in [lo, hi], uniform phase."""
    return _draws(rng, [(math.log(lo), math.log(hi))])[0]


@lru_cache(maxsize=64)
def _lattice(p: complex) -> tuple[complex, ...]:
    """The points of modulus 1e-6 .. 1e6 of the zero set p^Z of theta(.; p)."""
    points = [complex(1.0)]
    if p == 0:
        return tuple(points)
    pk = complex(p)
    while abs(pk) > 1e-6:
        points.append(pk)
        pk *= p
    pk = 1.0 / complex(p)
    while abs(pk) < 1e6:
        points.append(pk)
        pk /= p
    return tuple(points)


def _lattice_distance(w: complex, lattice: tuple[complex, ...]) -> float:
    """Distance from w to the nearest point of a _lattice."""
    return min(abs(w - point) for point in lattice)


def _z_separated(z: tuple[complex, ...], p: complex, min_sep: float) -> bool:
    """Pairwise ratios and their inverses must stay min_sep away from the
    zero set p^Z of theta."""
    lattice = _lattice(p)
    ratios = [z[j] / z[i] for i in range(len(z)) for j in range(i + 1, len(z))]
    return all(_lattice_distance(w, lattice) >= min_sep
               for ratio in ratios for w in (ratio, 1.0 / ratio))


PinnedValue = complex | Callable[[dict], complex]


def _apply_pins(drawn: dict[str, complex], pinned: Mapping[str, PinnedValue] | None,
                context: dict) -> dict[str, complex]:
    """Replace drawn values by pins; callables see {params, z, q, N, Z}."""
    if not pinned:
        return drawn
    out = dict(drawn)
    for name, value in pinned.items():
        if callable(value):
            out[name] = complex(value({**context, "params": dict(out)}))
        else:
            out[name] = complex(value)
    return out


def _attempt(identity_id: str, shape: Shape, *, config: SampleConfig, p: complex,
             rng: np.random.Generator, pinned: Mapping[str, PinnedValue] | None):
    """One sampling attempt: (REJECTION_REASONS entry, result), where result
    is (instance, lhs, rhs, condition) on a pass and None otherwise."""
    entry = catalog_entry(identity_id)
    free = entry.free_params
    modulus = tuple(map(math.log, config.modulus_range))
    values = _draws(rng, [tuple(map(math.log, config.q_range)),
                          *[modulus] * (len(free) + (shape.n or 0))])
    q = values[0]
    nome = EllipticNome(p, q, config.truncation)

    drawn = dict(zip(free, values[1:]))

    z = None if shape.n is None else tuple(values[1 + len(free):])
    Z = complex(1.0)
    if z is not None:
        for v in z:
            Z *= v
    params = _apply_pins(drawn, pinned, {"z": z, "q": q, "N": shape.level, "Z": Z})

    if z is not None and not _z_separated(z, complex(p), config.min_z_separation):
        return "separation", None

    try:
        instance = solve_balancing(identity_id, params, nome=nome, z=z, N=shape.N,
                                   box=shape.box)
    except BalancingError:
        return "magnitude", None

    lo_mag, hi_mag = DEPENDENT_MAGNITUDE_RANGE
    for name in entry.dependents:
        if not lo_mag <= abs(instance.params[name]) <= hi_mag:
            return "magnitude", None

    try:
        lhs, lhs_max = evaluate_lhs(instance, pole_floor=config.pole_floor)
        rhs, rhs_max = evaluate_rhs(instance, pole_floor=config.pole_floor)
    except PoleError:
        return "pole", None
    except NonFiniteError:
        return "condition", None

    condition = 0.0
    for value, max_abs in ((lhs, lhs_max), (rhs, rhs_max)):
        magnitude = abs(value)
        if magnitude == 0.0:
            if max_abs == 0.0:
                continue
            return "condition", None
        condition = max(condition, max_abs / magnitude)
    if condition > config.condition_cap:
        return "condition", None
    return "pass", (instance, lhs, rhs, condition)


def _sample_with_values(identity_id: str, *, n=None, N=None, box=None,
                        config: SampleConfig, trial_index: int,
                        p: complex | None = None,
                        pinned: Mapping[str, PinnedValue] | None = None):
    """Sampling loop; returns (instance, lhs, rhs, condition, histogram)."""
    shape = catalog_entry(identity_id).shape(n, N, box)
    p = complex(config.p_values[0] if p is None else p)
    rng = _rng_for(config, identity_id, shape, trial_index, p)
    histogram = dict.fromkeys(REJECTION_REASONS, 0)
    for _ in range(config.max_resamples):
        reason, result = _attempt(identity_id, shape, config=config, p=p, rng=rng,
                                  pinned=pinned)
        histogram[reason] += 1
        if result is not None:
            return (*result, histogram)
    raise ResampleExhaustedError(
        f"{identity_id}: no acceptable instance in {config.max_resamples} attempts",
        histogram)


def sample_instance(identity_id: str, *, n=None, N=None, box=None,
                    config: SampleConfig, trial_index: int,
                    p: complex | None = None,
                    pinned: Mapping[str, PinnedValue] | None = None) -> IdentityInstance:
    """Deterministically sample one gated instance of an identity.

    The result is a pure function of (config, identity_id, n, N/box,
    trial_index, p).  The request (n, N, box) is resolved by
    CatalogEntry.shape first, so a bad one raises BalancingError before any
    draw.  Raises ResampleExhaustedError with the rejection histogram when
    max_resamples draws all fail a gate.
    """
    instance, _, _, _, _ = _sample_with_values(
        identity_id, n=n, N=N, box=box, config=config,
        trial_index=trial_index, p=p, pinned=pinned)
    return instance


def rejection_report(identity_id: str, *, n=None, N=None, box=None,
                     config: SampleConfig, count: int,
                     p: complex | None = None) -> dict[str, int]:
    """Tally pass/pole/separation/magnitude/condition over the first
    attempt of `count` trials."""
    shape = catalog_entry(identity_id).shape(n, N, box)
    p = complex(config.p_values[0] if p is None else p)
    histogram = dict.fromkeys(REJECTION_REASONS, 0)
    for trial_index in range(count):
        rng = _rng_for(config, identity_id, shape, trial_index, p)
        histogram[_attempt(identity_id, shape, config=config, p=p, rng=rng,
                           pinned=None)[0]] += 1
    return histogram
