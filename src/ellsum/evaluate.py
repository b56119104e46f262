"""Left- and right-hand-side evaluators for every identity in the catalog.

Each side of each identity is data, held by its catalog entry and written
in the factor language that catalog documents and reads.  An evaluation
runs in three steps:

  * plan (built on first use, then cached): per (side, indices, N or box),
    every theta argument B q^j some term multiplies, each shifted
    factorial's run of them as a row of a padded gather, and each term's slots;
  * batch: all theta arguments of the side in one vectorised call, then
    (B)_2 .. (B)_K of every run in one accumulate along the gathered rows;
    (B)_0 is one shared exact 1 and (B)_1 is theta(B)'s own slot;
  * assemble: gather each term with numpy (a one-term side shares every slot,
    so its term is an exact 1) and math.fsum the real and imaginary parts.

Assembly is range-safe: theta values, powers and table entries (B)_s are
split into a mantissa of modulus in [1/2, 1) and a binary exponent; tables
and terms multiply mantissas and add exponents, and only the sum returns to
a float.  k mantissas multiply to above 2^-k: a plan raises ProductBudgetError
for a run or a term's numerator or denominator of MAX_PRODUCT or more factors,
not counting the slots that read the shared exact 1.
The gather rows are at least 3 wide, padded with the 1: numpy's accumulate
along rows of width 2 can round differently from Python's running product,
and at width 1 and 3 or more it matches it bit for bit, as the tests check.

A draw is rejected for a pole when some term uses a denominator theta
factor of modulus below the pole floor (or zero); PoleError names the factor
and the first summation index that uses it.  Each evaluation returns the
sum and the largest |term|, for the cancellation diagnostic max|term|/|sum|.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from .catalog import IdentityInstance, Side, _form, _monomial
from .errors import NonFiniteError, PoleError, ProductBudgetError
from .kernels import box_indices, compositions_bounded, compositions_exact
from .theta import EllipticNome, theta

#: Runs and terms multiply fewer mantissas than this: 2^-MAX_PRODUCT is normal.
MAX_PRODUCT = 1000


class EvalContext:
    """Per-evaluation state: the nome and the pole floor."""

    __slots__ = ("nome", "q", "pole_floor")

    def __init__(self, nome: EllipticNome, *, pole_floor: float = 0.0):
        self.nome = nome
        self.q = nome.q
        self.pole_floor = pole_floor

    def theta(self, z: np.ndarray) -> np.ndarray:
        """theta of every argument in one batch."""
        return theta(z, self.nome)


def relative_error(lhs: complex, rhs: complex) -> float:
    """|lhs - rhs| / max(|lhs|, |rhs|, floor); symmetric, floor = 1e-300."""
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


# ---------------------------------------------------------------------------
# Summation domains
# ---------------------------------------------------------------------------


# Summation domains by the index set they run over; the enumerators are looked
# up on every call.  A closed side is a sum over the single empty index.
DOMAINS: dict[str, Callable] = {
    "0<=x<=N": lambda inst: range(inst.N + 1),
    "|x|=N": lambda inst: compositions_exact(inst.N, len(inst.z)),
    "|x|<=N": lambda inst: compositions_bounded(inst.N, len(inst.z)),
    "|x|=1": lambda inst: compositions_exact(1, len(inst.z)),
    "x<=N_i": lambda inst: box_indices(inst.box),
    "x=()": lambda inst: ((),),
}


# ---------------------------------------------------------------------------
# Plan
# ---------------------------------------------------------------------------


def _symbol_names(inst: IdentityInstance) -> list[str]:
    names = [*inst.entry.params, "q"]
    if inst.z is not None:
        names += ["Z", *(f"z_{k}" for k in range(len(inst.z)))]
    return names + (["lam"] if inst.entry.lambda_rule else [])


def _symbol_values(inst: IdentityInstance) -> list[complex]:
    values = [*map(inst.params.__getitem__, inst.entry.params), inst.nome.q]
    if inst.z is not None:
        values += [inst.Z, *inst.z]
    return values + ([inst.lam] if inst.entry.lambda_rule else [])


class _Plan:
    """Everything about a side's evaluation that does not depend on values.

    A term's (B)_s reads the shared 1, theta(B)'s slot or, for s >= 2, its
    run's row of `tables`; a term reads one slot per column of num and den.
    Only a plan built with detail keeps den_uses, which _raise_pole reads.
    """

    def __init__(self, side: Side, inst: IdentityInstance, xs: tuple, detail=False):
        n = len(inst.z) if inst.z is not None else 1
        symbols = {name: k for k, name in enumerate(_symbol_names(inst))}
        count = len(xs)
        x = np.array(xs, dtype=np.int64).reshape(count, -1)
        if not x.size:  # the empty index of a closed side is x = 0
            x = np.zeros((count, n), dtype=np.int64)
        env = {"|x|": x.sum(axis=1), "N": inst.level, **{f"x_{k}": x[:, k] for k in range(n)}}
        env.update({f"N_{k}": limit for k, limit in enumerate(inst.box or ())})
        bases: dict[tuple, int] = {}  # monomial -> index; q apart for theta arguments
        uses = []  # (factor, base, q offset, shift per term)
        pows: dict[int, np.ndarray] = {}  # base -> total exponent per term
        for factor in side.factors(n):
            mono = _monomial(factor.base, env)
            shift = np.broadcast_to(_form(factor.shift, env), (count,))
            offset = 0 if factor.kind == "pow" else mono.pop("q", 0)
            key = tuple(sorted((symbols[name], e) for name, e in mono.items()))
            b = bases.setdefault(key, len(bases))
            if factor.kind == "pow":
                pows[b] = pows.get(b, 0) + (-shift if factor.den else shift)
            else:
                uses.append((factor, b, offset, shift))

        # theta arguments B q^j: exactly those some term multiplies
        needed: dict[int, set] = {}
        lengths: dict[tuple, int] = {}  # (base, q offset) -> longest shifted factorial
        for factor, b, offset, shift in uses:
            if factor.kind == "poch":
                lengths[b, offset] = max(lengths.get((b, offset), 0), int(shift.max()))
                needed.setdefault(b, set()).update(range(offset, offset + lengths[b, offset]))
            else:
                needed.setdefault(b, set()).update((offset + shift).tolist())
        args = [(b, j) for b in sorted(needed) for j in sorted(needed[b])]
        self.arg_base, self.arg_q = np.array(args, dtype=np.intp).reshape(-1, 2).T.copy()

        def arg_index(b, q_offsets):  # B's args sit together, sorted by q offset
            start, stop = np.searchsorted(self.arg_base, (b, b + 1))
            return start + np.searchsorted(self.arg_q[start:stop], q_offsets)
        powers = sorted({(b, k) for b, e in pows.items() for k in set(e.tolist())})
        # monomials to evaluate: every base, then every power B^k the terms use
        monomials = list(bases)
        monomials += [tuple((s, e * k) for s, e in monomials[b]) for b, k in powers]
        width = max(map(len, monomials), default=0)
        padded = np.array([[*m, *[(0, 0)] * (width - len(m))] for m in monomials], np.intp)
        self.mono_sym, self.mono_exp = np.moveaxis(padded.reshape(len(monomials), width, 2), 2, 0)
        self.base_count = len(bases)

        # value slots: theta values, powers, the 1, then per run B, .. Bq^(K-1)
        # (contiguous args) with K >= 2 the running products of its row in `tables`
        pow_slot = {key: len(args) + k for k, key in enumerate(powers)}
        one = len(args) + len(powers)
        runs = {key: range(f := int(arg_index(*key)), f + k) for key, k in sorted(lengths.items())}
        long = [key for key, run in runs.items() if len(run) > 1]
        width = max([3, *lengths.values()])
        table = {key: one + r * width for r, key in enumerate(long)}  # (B)_s is table[B] + s
        gather = [[*runs[key], *[one] * (width - len(runs[key]))] for key in long]

        num, den, den_args, self.den_uses = [], [], set(), []
        for factor, b, offset, shift in uses:
            if factor.kind == "poch":
                run = runs[b, offset]
                slots = np.where(shift > 1, table.get((b, offset), 0) + shift,
                                 np.where(shift == 1, run.start, one))
                touched, per_term = run[:int(shift.max())], shift
            else:
                run, slots = None, arg_index(b, offset + shift)
                touched = per_term = slots.tolist()
            if factor.den:
                den_args.update(touched)
                if detail:  # what _raise_pole reads to name the factor and term
                    self.den_uses.append((factor, run, per_term))
            (den if factor.den else num).append(slots)
        num += [np.array([pow_slot[b, k] for k in e.tolist()])
                for b, e in pows.items() if np.any(e)]
        # a term's factors: its num and den slots other than the shared 1
        factors = max(int((np.array(slots) != one).sum(axis=0).max(initial=0))
                      for slots in (num, den))
        if max(width, factors) >= MAX_PRODUCT:
            what = (f"a shifted factorial runs over {width} theta values" if width >= factors
                    else f"a term is a product of {factors} factors")
            at = f"n={inst.n}, " * (inst.n is not None) + f"N={inst.N}"
            if inst.box is not None:  # a box by its sum and its nonzero entries
                nonzero = ", ".join(f"N_{k}={v}" for k, v in enumerate(inst.box) if v)
                at = f"n={inst.n}, |N|={inst.level}" + f" ({nonzero})" * bool(nonzero)
            raise ProductBudgetError(f"{inst.identity_id} at {at}: {what}, "
                                     f"limit {MAX_PRODUCT}; take a smaller N or n")
        self.den_args = np.array(sorted(den_args), dtype=np.intp)
        dtype = np.int16 if one + 1 + width * len(long) < 2 ** 15 else np.int32  # slot count
        self.tables = np.array(gather, dtype).reshape(len(gather), width)
        self.const_num, self.num = _split_constant(num, count, dtype)
        self.const_den, self.den = _split_constant(den, count, dtype)


def _split_constant(columns: list, count: int, dtype) -> tuple[tuple, np.ndarray]:
    """(slots every term shares, per-term slot matrix of the rest).

    The shared slots are multiplied once, after the fsum, so their rounding
    is not amplified by the cancellation within the sum: multiplied into
    every term, they raised the default grid's worst relative error from
    2.80e-9 to 3.42e-9 at seed 42 and from 3.51e-9 to 5.04e-9 at seed 6.
    """
    matrix = np.array(columns, dtype=np.intp).reshape(len(columns), count).T
    same = (matrix == matrix[:1]).all(axis=0)
    return tuple(matrix[0, same].tolist()), np.ascontiguousarray(matrix[:, ~same], dtype)


_PLANS: dict[tuple, _Plan] = {}


# ---------------------------------------------------------------------------
# Batch and assemble
# ---------------------------------------------------------------------------


def _raise_pole(plan: _Plan, xs: tuple, size: np.ndarray, floor: float):
    """PoleError for the first term, then first factor, that uses a bad theta."""
    for term, index in enumerate(xs):
        for factor, run, per_term in plan.den_uses:
            touched = run[:per_term[term]] if run is not None else (per_term[term],)
            for j, k in enumerate(touched):
                if size[k] == 0.0 or size[k] < floor:
                    label = factor.label()
                    what = label if run is None else f"theta factor {j} of {label}"
                    raise PoleError(what, near=bool(size[k]), index=index)


def _scaled(value: float, exponent: int) -> float:
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        return math.inf


def _sum_terms(ctx: EvalContext, inst: IdentityInstance, domain, side: Side
               ) -> tuple[complex, float]:
    """(sum over domain(inst) of side's terms, max |term|)."""
    xs = tuple(domain(inst))
    key = (id(side), inst.n, inst.N, inst.box)  # these fix the domain
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _Plan(side, inst, xs)

    # batch: bases, one theta call, powers; mantissas in [1/2, 1) and exponents
    symbols = np.array(_symbol_values(inst))
    monomials = np.multiply.reduce(symbols[plan.mono_sym] ** plan.mono_exp, axis=1)
    bases = monomials[:plan.base_count]
    values = np.concatenate((ctx.theta(bases[plan.arg_base] * ctx.q ** plan.arg_q),
                             monomials[plan.base_count:], [1.0]))
    size = np.abs(values)
    if plan.den_args.size:
        low = size[plan.den_args].min()
        if low == 0.0 or low < ctx.pole_floor:
            _raise_pole(_Plan(side, inst, xs, detail=True), xs, size, ctx.pole_floor)
    exps = np.frexp(size)[1]
    mant = values * np.ldexp(1.0, -exps)
    mant[-1], exps[-1] = 1.0, 0  # every (B)_0: an exact 1, not frexp's 0.5 * 2
    tables = plan.tables
    if tables.size:  # (B)_1 .. (B)_K: running products along each padded row, split again
        runs = np.multiply.accumulate(mant.take(tables), axis=1).ravel()
        shift = np.frexp(np.abs(runs))[1]
        mant = np.concatenate((mant, runs * np.ldexp(1.0, -shift)))
        exps = np.concatenate((exps, np.add.accumulate(exps.take(tables), axis=1).ravel() + shift))

    # assemble: gather, scale every term to the largest exponent, fsum
    shared, split = plan.const_num + plan.const_den, len(plan.const_num)
    if len(xs) == 1:  # every slot is shared, so the one term is an exact 1
        re, im, largest, top = 1.0, 0.0, 1.0, 0
    else:
        # take() converts the int16 slot matrices to intp on every call; they are
        # int16 for plan memory (0.26 MB against 1.03 MB over grid's 348 plans)
        m = mant.take(plan.num).prod(axis=1) / mant.take(plan.den).prod(axis=1)
        e = exps.take(plan.num).sum(axis=1) - exps.take(plan.den).sum(axis=1)
        top = int(e[m != 0].max(initial=0))  # exponents of zero terms are arbitrary
        terms = m * np.ldexp(1.0, e - top)
        re, im = math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist())
        largest = float(np.abs(terms).max())
    c_m, c_e = mant.take(shared).tolist(), exps.take(shared).tolist()
    # the slots every term shares, multiplied as Python numbers
    c_mant = math.prod(c_m[:split]) / math.prod(c_m[split:])
    c_exp = sum(c_e[:split]) - sum(c_e[split:])
    total = complex(re, im) * c_mant
    value = complex(_scaled(total.real, top + c_exp), _scaled(total.imag, top + c_exp))
    if not cmath.isfinite(value):
        raise NonFiniteError(f"{inst.identity_id}: sum overflowed")
    return value, _scaled(largest * abs(c_mant), top + c_exp)


def _evaluate(inst: IdentityInstance, which: int, pole_floor: float) -> tuple[complex, float]:
    side = inst.entry.sides[which]
    ctx = EvalContext(inst.nome, pole_floor=pole_floor)
    return _sum_terms(ctx, inst, DOMAINS[side.domain], side)


def evaluate_lhs(inst: IdentityInstance, *, pole_floor: float = 0.0) -> tuple[complex, float]:
    """Left side; returns (value, max |term| encountered)."""
    return _evaluate(inst, 0, pole_floor)


def evaluate_rhs(inst: IdentityInstance, *, pole_floor: float = 0.0) -> tuple[complex, float]:
    """Right side; a closed product, or a prefactor times a sum for the
    transformations.  Returns (value, max |term| seen, prefactor included;
    |value| for closed products)."""
    return _evaluate(inst, 1, pole_floor)


def count_terms(inst: IdentityInstance) -> int:
    """Number of terms in the left-side sum."""
    return sum(1 for _ in DOMAINS[inst.entry.sides[0].domain](inst))
