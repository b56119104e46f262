"""Registry of the eleven summation/transformation identities, written in
one factor language that this module documents and reads.

Each catalog entry records the identity's scalar parameter names in a fixed
order, its balancing constraint(s) and its two sides, so one _register call
shows the constraint next to both sides.  The left side's summation domain
gives its arity: scalar-N for 0<=x<=N, vector-box (box limits N_1..N_n) for
x<=N_i, vector-only for |x|=1, else vector-N.  catalog_entry looks up an id.

A constraint is display text, an equation between products of powers:

    a^2 q^(N+1) = b c d e Z^2,     Z = z_1...z_n, N (or |N|) the level.

Exactly one parameter per constraint is dependent: the one the constraint
names (b4, e, g, h; general-jackson's f g h Z^2 = t solves h, not the
later-listed t).  It enters with exponent 1 or -1 and solve_balancing
solves it in closed form.  Instances recompute every derived quantity (Z,
the Bailey-shift lambda, constraint residuals) from their stored
parameters rather than trusting caller input.

A side is a summation domain (a key of evaluate.DOMAINS) and a list of
factor strings, with parity branches where the closed form depends on
n mod 2.  A factor string reads

    [1/]theta(B1, B2; S)    theta(B q^S) for each base B (S = 0 if omitted)
    [1/](B1, B2)_S          the shifted factorial (B)_S with step q
    [1/](B)^S               the monomial B^S
    ... for i | i<j | i!=j | i,j    a product over z indices

where a base is a monomial in the parameters, q, Z, lam and z_i, z_j
("a q^(N+1) / e z_i") and a shift an integer form in |x|, x_i, x_j, N, N_i,
N_j ("|x|-x_i", "x_i*x_j").  Side.factors(n) reads a side once per n, its
z indices bound: "1/theta(z_j / z_i) for i<j" at n = 3 is 1/theta(z_1 / z_0),
1/theta(z_2 / z_0), 1/theta(z_2 / z_1).

The arity decides the index shape an instance carries, and only
CatalogEntry.shape decides it: it maps a request (n, N, box) to the Shape
(n, N, box) of an instance, dropping what the arity ignores and spreading a
grid N over the box of the box-arity identity.  The sampler and the verifier
resolve every request through it; solve_balancing accepts only a request
that is already a shape.

The _register calls below are the closed enumeration of identity ids, in
the order the CLI lists them (`ellsum list` prints each constraint).
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Mapping, NamedTuple

from .errors import BalancingError
from .theta import EllipticNome, _integer, ipow

#: Residual ceiling that every constructed instance must satisfy.
CONSTRAINT_RESIDUAL_TOL = 1e-13

# Arity descriptors.
SCALAR_N = "scalar-N"      # scalar parameters and a truncation level N only
VECTOR_N = "vector-N"      # z-vector plus scalar N
VECTOR_BOX = "vector-box"  # z-vector plus per-coordinate limits N_1..N_n
VECTOR_ONLY = "vector-only"  # z-vector, no truncation level


# The reader of the factor language (see the module docstring).


@dataclass(frozen=True, slots=True)
class Factor:
    kind: str  # "theta", "poch" or "pow"
    base: str  # a monomial such as 'a q^(N+1) / e z_2'
    shift: str  # an integer form such as '|x|-x_2'
    den: bool

    def label(self) -> str:
        text = {"theta": "theta({0}; {1})", "poch": "({0})_({1})", "pow": "({0})^({1})"}
        return text[self.kind].format(self.base, self.shift)


_FACTOR = r"(1/)?(theta)?\((.*)\)([_^]?)(\S*)(?: for (\S+))?$"
_TOKEN = r"([A-Za-z]\w*)(?:\^\(?([^)\s]+)\)?)?"
_TERM = r"([+-]?)(\d*)([^+-]*)"


def _bind(text: str, env: dict) -> str:
    """Substitute the bound z indices: 'z_i / z_j' -> 'z_2 / z_0'."""
    return re.sub(r"_([ij])\b", lambda m: f"_{env[m.group(1)]}", text)


def _parse(text: str, n: int) -> list[Factor]:
    """A factor string's factors for n variables: one per base and binding."""
    den, is_theta, inner, mark, shift, over = re.match(_FACTOR, text).groups()
    kind = "theta" if is_theta else "poch" if mark == "_" else "pow"
    if is_theta:
        inner, _, shift = inner.partition("; ")
    return [Factor(kind, _bind(base.strip(), env), _bind(shift or "0", env), bool(den))
            for base in inner.split(",") for env in _bindings(over, n)]


def _form(text: str, env: dict):
    """Value of an integer form such as 'N+1-N_i' or 'x_i*x_j' (ints or arrays)."""
    total = 0
    for sign, coefficient, names in re.findall(_TERM, text):
        if not (coefficient or names):
            continue
        value = -int(coefficient or 1) if sign == "-" else int(coefficient or 1)
        for name in filter(None, names.split("*")):
            value = value * env[name]
        total = total + value
    return total


def _monomial(text: str, env: dict) -> dict[str, int]:
    """{name: exponent} of a base such as 'a q^(N+1) / e z_2'."""
    out: dict[str, int] = {}
    numerator, _, denominator = text.partition("/")
    for sign, part in ((1, numerator), (-1, denominator)):
        for name, power in re.findall(_TOKEN, part):
            out[name] = out.get(name, 0) + sign * (_form(power, env) if power else 1)
    return {k: e for k, e in out.items() if e}


def _bindings(over: str | None, n: int) -> list[dict]:
    if not over:
        return [{}]
    if over == "i":
        return [{"i": i} for i in range(n)]
    keep = {"i<j": int.__lt__, "i!=j": int.__ne__, "i,j": lambda i, j: True}[over]
    return [{"i": i, "j": j} for i, j in product(range(n), repeat=2) if keep(i, j)]


@dataclass(frozen=True)
class Constraint:
    """One balancing equation as display text, "a^2 q^(N+1) = b c d e Z^2",
    and the parameter it solves.  The text is read once, here, into the
    equation prod p^e * q^(q_n_coeff N + q_const) * Z^z_power = 1, with
    exponents ((p, e), ...) in the order the text names them and
    dependent_exponent the dependent's e (1 or -1 when solvable)."""

    text: str
    dependent: str

    def __post_init__(self):
        # read at levels 0 and 1: only q's exponent may depend on the level
        at = [_monomial(self.text.replace("=", "/"), {"N": k, "|N|": k}) for k in (0, 1)]
        q = [monomial.pop("q", 0) for monomial in at]
        if at[0] != at[1]:
            raise ValueError(f"{self.text!r}: only q's exponent may depend on N")
        z_power = at[0].pop("Z", 0)
        self.__dict__.update(exponents=tuple(at[0].items()), q_n_coeff=q[1] - q[0],
                             q_const=q[0], z_power=z_power,
                             dependent_exponent=at[0][self.dependent])

    def monomial(self, params: Mapping[str, complex], q: complex,
                 n_level: int, Z: complex) -> complex:
        """Evaluate the full left-hand monomial (should be 1 when balanced)."""
        value = ipow(q, self.q_n_coeff * n_level + self.q_const)
        if self.z_power:
            value *= ipow(Z, self.z_power)
        for name, exponent in self.exponents:
            value *= ipow(params[name], exponent)
        return value


@dataclass(frozen=True)
class Side:
    """One side of an identity: a summation domain (a key of
    evaluate.DOMAINS) and its factor strings, common to every n or only for
    odd or even n, in the factor language this module documents and reads."""

    domain: str
    common: tuple[str, ...]
    odd: tuple[str, ...] = ()
    even: tuple[str, ...] = ()
    _read: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def factors(self, n: int) -> tuple[Factor, ...]:
        """Factors for n variables (1 if scalar): the common strings, then
        n's parity branch; read once per n, then kept."""
        if n not in self._read:
            texts = (*self.common, *(self.odd if n % 2 else self.even))
            self._read[n] = tuple(f for text in texts for f in _parse(text, n))
        return self._read[n]


def spread_box(n: int, total: int) -> tuple[int, ...]:
    """Round-robin spread of a total over n box coordinates."""
    base, extra = divmod(total, n)
    return tuple(base + (1 if i < extra else 0) for i in range(n))


class Shape(NamedTuple):
    """The index shape of an instance: n z-variables (None for a scalar
    identity), then the truncation level N or the box limits N_1..N_n."""

    n: int | None
    N: int | None
    box: tuple[int, ...] | None

    @property
    def level(self) -> int:
        """The N that enters the balancing constraint (|box| for a box)."""
        if self.box is not None:
            return sum(self.box)
        return 0 if self.N is None else self.N


@dataclass(frozen=True)
class CatalogEntry:
    """Static description of one identity.  Its derived tuples are built on
    first use and kept."""

    identity_id: str
    label: str
    params: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    sides: tuple[Side, Side]  # (left, right)
    lambda_rule: str | None = None  # "bcd" or "bde": lambda = a^2 q / (...)

    @cached_property
    def arity(self) -> str:  # read from the left side's summation domain
        return {"0<=x<=N": SCALAR_N, "x<=N_i": VECTOR_BOX,
                "|x|=1": VECTOR_ONLY}.get(self.sides[0].domain, VECTOR_N)

    @property
    def constraint_text(self) -> str:
        return "  and  ".join(constraint.text for constraint in self.constraints)

    @cached_property
    def dependents(self) -> tuple[str, ...]:
        return tuple(c.dependent for c in self.constraints)

    @cached_property
    def free_params(self) -> tuple[str, ...]:
        deps = set(self.dependents)
        return tuple(name for name in self.params if name not in deps)

    def shape(self, n: int | None = None, N: int | None = None,
              box: tuple[int, ...] | None = None) -> Shape:
        """The shape an instance of this identity carries for a request.

        Drops what the arity ignores (n of a scalar identity, N of a
        vector-only one, the box of all but the box arity, N when a box is
        given) and spreads N over n box coordinates when no box is given.
        Raises ValueError for a given n, N or box limit that is not whole,
        and BalancingError for n < 1, N < 0 or bad box limits.
        """
        name, arity = self.identity_id, self.arity
        n, N = (None if v is None else _integer(v, label) for v, label in ((n, "n"), (N, "N")))
        if arity == VECTOR_BOX and box is not None:
            box = tuple(_integer(m, "box limit") for m in box)
            if not box or min(box) < 0 or n not in (None, len(box)):
                raise BalancingError(f"{name}: bad box limits {box} for n = {n}")
            return Shape(len(box), None, box)
        if arity != SCALAR_N and (n is None or n < 1):
            raise BalancingError(f"{name}: needs n >= 1 variables, got {n}")
        if arity != VECTOR_ONLY and (N is None or N < 0):
            raise BalancingError(f"{name}: needs a truncation level N >= 0, got {N}")
        if arity == VECTOR_BOX:
            return Shape(n, None, spread_box(n, N))
        return Shape(None if arity == SCALAR_N else n,
                     None if arity == VECTOR_ONLY else N, None)


# Blocks several sides share: the A-type theta-Vandermonde ratio
# prod_{i<j} q^{x_i} theta(q^{x_j-x_i} z_j/z_i) / theta(z_j/z_i), the pair and
# cross factors, and the well-poised parts in a, a z_i and lam.
_DELTA = ("theta(z_j / z_i; x_j-x_i) for i<j", "1/theta(z_j / z_i) for i<j", "(q)^x_i for i<j")
_PAIR = ("(z_i z_j)_x_i+x_j for i<j",)
_CROSS = ("1/(q z_i / z_j)_x_i for i,j",)
_WELL_POISED = ("theta(a; 2|x|)", "1/theta(a)", "(q)^|x|")
_A_Z = ("theta(a z_i; |x|+x_i) for i", "1/theta(a z_i) for i", "(a z_i)_|x| for i",
        "1/(a q / z_i)_|x|-x_i for i", "(q)^|x|")
_LAM = ("theta(lam; 2|x|)", "1/theta(lam)", "(lam b / a z_i)_|x| for i",
        "1/(lam b / a z_i)_|x|-x_i for i", "(q)^|x|")
_JACKSON_RHS = ("(a q, a q / b c, a q / b d, a q / c d)_N",
                "1/(a q / b, a q / c, a q / d, a q / b c d)_N")

CATALOG: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry):
    CATALOG[entry.identity_id] = entry


_register(CatalogEntry(
    identity_id="frenkel-turaev",
    label="one-variable elliptic Jackson summation",
    params=("a", "b", "c", "d", "e"),
    constraints=(Constraint("a^2 q^(N+1) = b c d e", "e"),),
    sides=(
        Side("0<=x<=N", (*_WELL_POISED, "(a, b, c, d, e, q^(-N))_|x|",
                              "1/(q, a q / b, a q / c, a q / d, a q / e, a q^(N+1))_|x|")),
        Side("x=()", _JACKSON_RHS)),
))

_register(CatalogEntry(
    identity_id="elliptic-bailey",
    label="one-variable elliptic Bailey transformation",
    params=("a", "b", "c", "d", "e", "f", "g"),
    constraints=(Constraint("a^3 q^(N+2) = b c d e f g", "g"),),
    lambda_rule="bcd",
    sides=(
        Side("0<=x<=N", (*_WELL_POISED, "(a, b, c, d, e, f, g, q^(-N))_|x|",
                              "1/(q, a q / b, a q / c, a q / d, a q / e, a q / f, a q / g,"
                              " a q^(N+1))_|x|")),
        Side("0<=x<=N", (
            "(a q, a q / e f, lam q / e, lam q / f)_N",
            "1/(lam q, lam q / e f, a q / e, a q / f)_N",
            "theta(lam; 2|x|)", "1/theta(lam)", "(q)^|x|",
            "(lam, lam b / a, lam c / a, lam d / a, e, f, g, q^(-N))_|x|",
            "1/(q, a q / b, a q / c, a q / d, lam q / e, lam q / f, lam q / g,"
            " lam q^(N+1))_|x|"))),
))

_register(CatalogEntry(
    identity_id="rs-jackson",
    label="multivariable Jackson summation over a box of indices",
    params=("a", "b", "c", "d", "e"),
    constraints=(Constraint("a^2 q^(|N|+1) = b c d e", "e"),),
    sides=(
        Side("x<=N_i", (
            *_DELTA, *_WELL_POISED, "(a, b, c)_|x|", "(d / z_i)_|x| for i",
            "1/(a q / b, a q / c, a q^(N+1))_|x|", "1/(a q^(N+1-N_i) / e z_i)_|x| for i",
            "(a q^(N+1) / e z_i)_|x|-x_i for i", "(e z_i)_x_i for i",
            "(q^(-N_j) z_i / z_j)_x_i for i,j", "1/(d / z_i)_|x|-x_i for i",
            "1/(a q z_i / d)_x_i for i", *_CROSS)),
        Side("x=()", (
            "(a q, a q / b c)_N", "1/(a q / b, a q / c)_N",
            "(a q z_i / b d, a q z_i / c d)_N_i for i",
            "1/(a q z_i / d, a q z_i / b c d)_N_i for i"))),
))

_register(CatalogEntry(
    identity_id="theta-lemma",
    label="n-point theta function identity",
    params=("b1", "b2", "b3", "b4"),
    constraints=(Constraint("b1 b2 b3 b4 Z^2 = 1", "b4"),),
    sides=(
        # x is a unit vector e_k, so (B)_x_i is theta(B) at i = k and 1 elsewhere.
        Side("|x|=1", ("(z_i b1, z_i b2, z_i b3, z_i b4)_x_i for i", "(z_i)^-x_i for i",
                            "(z_i z_j)_x_i for i!=j", "1/(z_i / z_j)_x_i for i!=j")),
        Side("x=()", (),
             odd=("theta(Z b1, Z b2, Z b3, Z b4)", "(Z)^-1"),
             even=("theta(Z, Z b1 b2, Z b1 b3, Z b1 b4)", "(Z b1)^-1"))),
))

_register(CatalogEntry(
    identity_id="gr-sum",
    label="Gustafson-Rakha-type summation over |x| = N",
    params=("b1", "b2", "b3", "b4"),
    constraints=(Constraint("q^(N-1) b1 b2 b3 b4 Z^2 = 1", "b4"),),
    sides=(
        Side("|x|=N", (*_DELTA, "(q)^x_i*x_j for i<j", *_PAIR,
                             "(z_i b1, z_i b2, z_i b3, z_i b4)_x_i for i", "(z_i)^-x_i for i",
                             *_CROSS)),
        Side("x=()", ("1/(q)_N",),
             odd=("(Z b1, Z b2, Z b3, Z b4)_N", "(Z)^-N"),
             even=("(Z, Z b1 b2, Z b1 b3, Z b1 b4)_N", "(Z b1)^-N"))),
))

_register(CatalogEntry(
    identity_id="gr-corollary",
    label="Gustafson-Rakha-type summation over |x| <= N",
    params=("a", "b1", "b2", "b3", "b4"),
    constraints=(Constraint("a^2 q^(N+1) = b1 b2 b3 b4 Z^2", "b4"),),
    sides=(
        Side("|x|<=N", (
            *_DELTA, *_A_Z, *_PAIR, "(q^(-N))_|x|",
            "1/(a q / b1, a q / b2, a q / b3, a q / b4)_|x|",
            "(z_i b1, z_i b2, z_i b3, z_i b4)_x_i for i", "1/(a q^(N+1) z_i)_x_i for i",
            *_CROSS)),
        Side("x=()", (
            "(a q z_i)_N for i", "1/(a q / b1, a q / b2, a q / b3, a q / b1 b2 b3 Z^2)_N",
            "1/(a q / z_i)_N for i"),
            odd=("(a q / Z, a q / b1 b2 Z, a q / b1 b3 Z, a q / b2 b3 Z)_N",),
            even=("(a q / b1 Z, a q / b2 Z, a q / b3 Z, a q / b1 b2 b3 Z)_N",))),
))

_register(CatalogEntry(
    identity_id="bt-transform",
    label="multivariable Bailey transformation (lambda = a^2 q/bcd)",
    params=("a", "b", "c", "d", "e", "f", "g"),
    constraints=(Constraint("a^3 q^(N+2) = b c d e f g Z^2", "g"),),
    lambda_rule="bcd",
    sides=(
        Side("|x|<=N", (
            *_DELTA, *_A_Z, *_PAIR, "(q^(-N), b)_|x|",
            "1/(a q / c, a q / d, a q / e, a q / f, a q / g)_|x|",
            "(c z_i, d z_i, e z_i, f z_i, g z_i)_x_i for i",
            "1/(a q^(N+1) z_i, a q z_i / b)_x_i for i", *_CROSS)),
        Side("|x|<=N", (
            "(Z)^N", "(a q z_i)_N for i", "1/(lam q, a q / e, a q / f, a q / g)_N",
            "1/(a q / z_i)_N for i",
            *_DELTA, *_LAM, *_PAIR, "(lam, q^(-N), lam c / a, lam d / a)_|x|",
            "1/(lam q^(N+1), a q / c, a q / d)_|x|",
            "(e z_i, f z_i, g z_i, q^(-N) z_i / a)_x_i for i", "1/(a q z_i / b)_x_i for i",
            *_CROSS),
            odd=("(a / lam)^N", "(a q / Z, lam q / e Z, lam q / f Z, lam q / g Z)_N",
                 "1/(q^(-N) Z / a, lam q / e Z, lam q / f Z, lam q / g Z)_|x|"),
            even=("(lam q / Z, a q / e Z, a q / f Z, a q / g Z)_N",
                  "1/(lam q / Z, lam q / e f Z, lam q / e g Z, lam q / f g Z)_|x|"))),
))

_register(CatalogEntry(
    identity_id="bc-transform",
    label="multivariable Bailey transformation (lambda = a^2 q/bde)",
    params=("a", "b", "c", "d", "e", "f", "g"),
    constraints=(Constraint("a^3 q^(N+2) = b c d e f g Z^2", "g"),),
    lambda_rule="bde",
    sides=(
        Side("|x|<=N", (
            *_DELTA, *_WELL_POISED, *_PAIR, "1/(b / z_i)_|x|-x_i for i",
            "(a, q^(-N), c, d)_|x|", "(b / z_i)_|x| for i",
            "1/(a q^(N+1), a q / c, a q / d)_|x|",
            "(e z_i, f z_i, g z_i, a q z_i / e f g Z^2)_x_i for i",
            "1/(a q z_i / b)_x_i for i", *_CROSS),
            odd=("1/(a q / e Z, a q / f Z, a q / g Z, a q / e f g Z)_|x|",),
            even=("1/(a q / Z, a q / e f Z, a q / e g Z, a q / f g Z)_|x|",)),
        Side("|x|<=N", (
            "(a q, lam q / c)_N", "1/(lam q, a q / c)_N",
            *_DELTA, *_LAM, *_PAIR, "(lam, q^(-N), c, lam d / a)_|x|",
            "1/(lam q^(N+1), lam q / c, a q / d)_|x|",
            "(lam e z_i / a, f z_i, g z_i, a q z_i / e f g Z^2)_x_i for i",
            "1/(a q z_i / b)_x_i for i", *_CROSS),
            odd=("(a q / c f Z, lam q / f Z)_N", "1/(a q / f Z, lam q / c f Z)_N",
                 "1/(a q / e Z, lam q / f Z, lam q / g Z, a q / e f g Z)_|x|"),
            even=("(a q / c Z, lam q / Z)_N", "1/(a q / Z, lam q / c Z)_N",
                  "1/(lam q / Z, a q / e f Z, a q / e g Z, lam q / f g Z)_|x|"))),
))

_register(CatalogEntry(
    identity_id="njc-jackson",
    label="inverted multivariable Jackson summation",
    params=("a", "b", "c", "d", "e"),
    constraints=(Constraint("a^2 q^(N+1) = b c d e Z^2", "e"),),
    sides=(
        Side("|x|<=N", (
            *_DELTA, *_WELL_POISED, *_PAIR, "1/(e / z_i)_|x|-x_i for i", "(a, q^(-N))_|x|",
            "(e / z_i)_|x| for i", "1/(a q^(N+1))_|x|",
            "(b z_i, c z_i, d z_i, q^(-N) e z_i / a)_x_i for i",
            "1/(a q z_i / e)_x_i for i", *_CROSS),
            odd=("1/(q^(-N) e Z / a, a q / b Z, a q / c Z, a q / d Z)_|x|",),
            even=("1/(a q / Z, a q / b c Z, a q / b d Z, a q / c d Z)_|x|",)),
        Side("x=()", (
            "(a q, a q / b e, a q / c e, a q / d e)_N", "(a q / e z_i)_N for i", "(Z)^-N",
            "1/(a q z_i / e)_N for i"),
            odd=("(e)^N", "1/(a q / b Z, a q / c Z, a q / d Z, a q / e Z)_N"),
            even=("1/(a q / Z, a q / b e Z, a q / c e Z, a q / d e Z)_N",))),
))

_register(CatalogEntry(
    identity_id="jts-jackson",
    label="multivariable Jackson summation with free spectator t",
    params=("a", "b", "c", "d", "e", "t"),
    constraints=(Constraint("a^2 q^(N+1) = b c d e Z^2", "e"),),
    sides=(
        Side("|x|<=N", (
            *_DELTA, *_WELL_POISED, *_PAIR, "1/(t / z_i)_|x|-x_i for i",
            "(a, q^(-N), b, c)_|x|", "(t / z_i)_|x| for i",
            "1/(a q^(N+1), a q / b, a q / c)_|x|",
            "(d z_i, e z_i, t z_i / d e Z^2)_x_i for i", *_CROSS),
            odd=("1/(a q / d Z, a q / e Z, t / Z, t / d e Z)_|x|",),
            even=("1/(a q / Z, a q / d e Z, t / d Z, t / e Z)_|x|",)),
        Side("x=()", ("(a q, a q / b c)_N", "1/(a q / b, a q / c)_N"),
             odd=("(a q / b d Z, a q / c d Z)_N", "1/(a q / d Z, a q / b c d Z)_N"),
             even=("(a q / b Z, a q / c Z)_N", "1/(a q / Z, a q / b c Z)_N"))),
))

_register(CatalogEntry(
    identity_id="general-jackson",
    label="two-constraint multivariable Jackson summation",
    params=("a", "b", "c", "d", "e", "f", "g", "h", "t"),
    constraints=(
        Constraint("a^2 q^(N+1) = b c d e", "e"),
        Constraint("f g h Z^2 = t", "h"),
    ),
    sides=(
        Side("|x|<=N", (
            *_DELTA, *_WELL_POISED, *_PAIR, "(a, q^(-N), b, c, d, e)_|x|",
            "1/(a q^(N+1), a q / b, a q / c, a q / d, a q / e)_|x|",
            "(t / z_i)_|x| for i", "(f z_i, g z_i, h z_i)_x_i for i",
            "1/(t / z_i)_|x|-x_i for i", *_CROSS),
            odd=("1/(f Z, g Z, h Z, t / Z)_|x|",),
            even=("1/(Z, f g Z, f h Z, g h Z)_|x|",)),
        Side("x=()", _JACKSON_RHS)),
))

#: Stable ordering of identity ids (also the CLI listing order).
IDENTITY_IDS: tuple[str, ...] = tuple(CATALOG)


def catalog_entry(identity_id: str) -> CatalogEntry:
    """The entry of an identity id; BalancingError for an unknown id."""
    try:
        return CATALOG[identity_id]
    except KeyError:
        raise BalancingError(f"unknown identity id {identity_id!r}") from None


@dataclass(frozen=True)
class IdentityInstance:
    """One fully determined parameter assignment for one identity.

    params holds every scalar parameter including the solved dependents;
    z is the variable vector where the identity has one; N is the scalar
    truncation level and box the per-coordinate limits (rs-jackson only).
    Derived quantities are recomputed on access, never stored.
    """

    identity_id: str
    params: dict[str, complex]
    nome: EllipticNome
    z: tuple[complex, ...] | None = None
    N: int | None = None
    box: tuple[int, ...] | None = None

    @property
    def entry(self) -> CatalogEntry:
        return CATALOG[self.identity_id]

    @property
    def n(self) -> int | None:
        return None if self.z is None else len(self.z)

    @property
    def Z(self) -> complex:
        if self.z is None:
            raise AttributeError(f"{self.identity_id} has no variable vector")
        return math.prod(self.z, start=complex(1.0))

    @property
    def lam(self) -> complex:
        rule = self.entry.lambda_rule
        if rule is None:
            raise AttributeError(f"{self.identity_id} has no lambda parameter")
        denom = math.prod(map(self.params.__getitem__, rule), start=complex(1.0))
        a = self.params["a"]
        return a * a * self.nome.q / denom

    @property
    def level(self) -> int:
        """The N that enters the balancing constraint (|box| for box arity)."""
        return Shape(self.n, self.N, self.box).level

    def constraint_residuals(self) -> tuple[float, ...]:
        """Relative residual |monomial - 1| of each balancing constraint."""
        return _residuals(self.entry, self.params, self.nome.q, self.level,
                          self.Z if self.z is not None else complex(1.0))


def _residuals(entry: CatalogEntry, params: Mapping[str, complex], q: complex,
               level: int, Z: complex) -> tuple[float, ...]:
    return tuple(abs(constraint.monomial(params, q, level, Z) - 1.0)
                 for constraint in entry.constraints)


def solve_balancing(identity_id: str, partial: Mapping[str, complex], *,
                    nome: EllipticNome,
                    z: tuple[complex, ...] | None = None,
                    N: int | None = None,
                    box: tuple[int, ...] | None = None) -> IdentityInstance:
    """Fill in the dependent parameter(s) of an identity in closed form.

    partial must contain exactly the free parameters (all nonzero) and no
    dependent one.  The returned instance satisfies every constraint to
    CONSTRAINT_RESIDUAL_TOL relative.
    """
    entry = catalog_entry(identity_id)
    free = entry.free_params
    if partial.keys() != set(free):
        given, wanted = set(partial), set(free)
        if given - wanted:
            raise BalancingError(
                f"{identity_id}: unexpected parameters {sorted(given - wanted)} "
                f"(dependent: {entry.dependents})")
        raise BalancingError(
            f"{identity_id}: missing parameters {sorted(wanted - given)}")
    params = {name: complex(partial[name]) for name in free}
    for name, value in params.items():
        if value == 0:
            raise BalancingError(f"{identity_id}: parameter {name} must be nonzero")

    z = None if z is None else tuple(complex(v) for v in z)
    if z is not None and any(v == 0 for v in z):
        raise BalancingError(f"{identity_id}: z entries must be nonzero")
    request = (None if z is None else len(z), N, None if box is None else tuple(box))
    shape = entry.shape(*request)
    if shape != request:
        raise BalancingError(f"{identity_id}: takes (n, N, box) of the form "
                             f"{tuple(shape)}, got {request}")

    instance = IdentityInstance(identity_id=identity_id, params=params, nome=nome,
                                z=z, N=shape.N, box=shape.box)
    level = shape.level
    Z = instance.Z if z is not None else complex(1.0)
    for constraint in entry.constraints:
        # the monomial with the dependent set to 1 is its inverse when it enters
        # with exponent 1 (infinite for 0), itself when -1; the residual check catches the rest
        rest = constraint.monomial({**params, constraint.dependent: 1.0}, nome.q, level, Z)
        value = (1.0 / rest if rest else cmath.inf) if constraint.dependent_exponent == 1 else rest
        if value == 0 or not cmath.isfinite(value):
            raise BalancingError(
                f"{identity_id}: constraint forces {constraint.dependent} = {value or 0}")
        params[constraint.dependent] = value
    residuals = _residuals(entry, params, nome.q, level, Z)
    if not max(residuals) <= CONSTRAINT_RESIDUAL_TOL:  # NaN fails too
        raise BalancingError(
            f"{identity_id}: constraint residual {max(residuals):.3e} "
            f"exceeds {CONSTRAINT_RESIDUAL_TOL}")
    return instance
