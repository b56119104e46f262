"""Exception hierarchy shared across the library.

Everything derives from :class:`EllipticError` so callers can catch the
library's failures with a single except clause.  Pole-type errors carry
enough detail (which factor, at which summation index) for a sampler to
resample instead of aborting.
"""

from __future__ import annotations


class EllipticError(Exception):
    """Base class for all errors raised by this package."""


class ThetaDomainError(EllipticError):
    """Argument outside the domain of the theta product (z = 0 with p != 0)."""


class TruncationBudgetError(EllipticError):
    """The theta product needs more than theta.MAX_FACTORS factors to reach its tail cutoff."""


class ProductBudgetError(EllipticError):
    """A run, or a term's numerator or denominator, of evaluate.MAX_PRODUCT or more factors."""


class NonFiniteError(EllipticError):
    """An operation produced NaN or an overflowed infinity."""


class PochhammerPoleError(EllipticError):
    """A reciprocal theta factor of a shifted factorial vanished.

    Attributes record the base argument, the requested shift and the factor
    index j (the vanishing factor is theta(q^j * base)).
    """

    def __init__(self, base: complex, shift: int, factor_index: int):
        self.base = base
        self.shift = shift
        self.factor_index = factor_index
        super().__init__(
            f"pole of ({base})_{shift}: theta(q^{factor_index} * base) vanishes"
        )


class PoleError(EllipticError):
    """A denominator theta factor vanished (or fell below a pole floor).

    ``near`` distinguishes an exact zero from a floor violation; ``index``
    is the summation index at which the factor was hit, when applicable.
    """

    def __init__(self, description: str, *, near: bool = False, index=None):
        self.description = description
        self.near = near
        self.index = index
        where = f" at index {index}" if index is not None else ""
        kind = "near-vanishing" if near else "vanishing"
        super().__init__(f"{kind} denominator {description}{where}")


class BalancingError(EllipticError):
    """Parameter set violates an identity's balancing constraint or arity."""


class ResampleExhaustedError(EllipticError):
    """The sampler ran out of attempts; carries the rejection histogram."""

    def __init__(self, message: str, histogram: dict):
        self.histogram = dict(histogram)
        super().__init__(f"{message} (rejections: {self.histogram})")
