"""Left- and right-hand-side evaluators for every identity in the catalog.

Each side of each identity is data, held by its catalog entry and written
in the factor language that catalog documents and reads.  An evaluation
runs in three steps:

  * plan (built on first use, then cached): per (side, indices, N or box),
    every theta argument B q^j some term multiplies, the shifted-factorial
    tables built from them, and each term's table slots (as Python lists
    too, for a small sum);
  * batch: all theta arguments of the side in one vectorised call, then
    each table (B)_0 .. (B)_K by a running product;
  * assemble: gather each term from the tables and sum the terms with
    math.fsum on the real and imaginary parts; numpy gathers large sums,
    Python small ones.

Assembly is range-safe: every value is carried as a mantissa of modulus in
[1/2, 1) and a separate binary exponent, so a product of a hundred factors
near 1e200 neither overflows nor underflows; only the sum returns to a float.

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

from .catalog import IdentityInstance, Side, _bindings, _form, _monomial, _parse
from .errors import NonFiniteError, PoleError
from .kernels import box_indices, compositions_bounded, compositions_exact
from .theta import EllipticNome, theta

#: Sums with at least this many terms are gathered with numpy, fewer in Python.
NUMPY_TERMS = 12


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
    """Everything about a side's evaluation that does not depend on values."""

    def __init__(self, side: Side, inst: IdentityInstance, xs: tuple, detail=False):
        n = len(inst.z) if inst.z is not None else 1
        symbols = {name: k for k, name in enumerate(_symbol_names(inst))}
        count = len(xs)
        x = np.array(xs, dtype=np.int64).reshape(count, -1)
        if not x.size:  # the empty index of a closed side is x = 0
            x = np.zeros((count, n), dtype=np.int64)
        bases: dict[tuple, int] = {}  # monomial -> index; q apart for theta arguments
        uses = []  # (factor, env, base, q offset, shift per term)
        pows: dict[int, np.ndarray] = {}  # base -> total exponent per term
        for factor in (f for text in (*side.common, *(side.odd if n % 2 else side.even))
                       for f in _parse(text)):
            for binding in _bindings(factor.over, n):
                env = {"|x|": x.sum(axis=1), "N": inst.level, **binding}
                for key, index in binding.items():
                    env[f"x_{key}"] = x[:, index]
                    if inst.box is not None:
                        env[f"N_{key}"] = inst.box[index]
                mono = _monomial(factor.base, env)
                shift = np.broadcast_to(_form(factor.shift, env), (count,))
                offset = 0 if factor.kind == "pow" else mono.pop("q", 0)
                key = tuple(sorted((symbols[name], e) for name, e in mono.items()))
                b = bases.setdefault(key, len(bases))
                if factor.kind == "pow":
                    pows[b] = pows.get(b, 0) + (-shift if factor.den else shift)
                else:
                    uses.append((factor, env, b, offset, shift))

        # theta arguments B q^j: exactly those some term multiplies
        needed: dict[int, set] = {}
        lengths: dict[tuple, int] = {}  # (base, q offset) -> longest shifted factorial
        for factor, _, b, offset, shift in uses:
            if factor.kind == "poch":
                lengths[b, offset] = max(lengths.get((b, offset), 0), int(shift.max()))
                needed.setdefault(b, set()).update(range(offset, offset + lengths[b, offset]))
            else:
                needed.setdefault(b, set()).update((offset + shift).tolist())
        args = [(b, j) for b in sorted(needed) for j in sorted(needed[b])]
        arg_of = {key: k for k, key in enumerate(args)}
        self.arg_base, self.arg_q = np.array(args, dtype=np.intp).reshape(-1, 2).T.copy()
        powers = sorted({(b, k) for b, e in pows.items() for k in set(e.tolist())})
        # monomials to evaluate: every base, then every power B^k the terms use
        monomials = list(bases)
        monomials += [tuple((s, e * k) for s, e in monomials[b]) for b, k in powers]
        width = max(map(len, monomials), default=0)
        padded = np.array([[*m, *[(0, 0)] * (width - len(m))] for m in monomials], np.intp)
        self.mono_sym, self.mono_exp = np.moveaxis(padded.reshape(len(monomials), width, 2), 2, 0)
        self.base_count = len(bases)

        # value slots: theta values, powers, 1, then (B)_2 .. (B)_K of each run;
        # (B)_1 is the theta value theta(B) itself
        pow_slot = {key: len(args) + k for k, key in enumerate(powers)}
        one = len(args) + len(powers)
        slot, run_slot, runs = one + 1, {}, {}
        for (b, offset), length in sorted(lengths.items()):  # a run's args are contiguous
            first = arg_of.get((b, offset), 0)
            runs[b, offset] = range(first, first + length)
            run_slot[b, offset], slot = slot, slot + max(length - 1, 0)

        num, den, den_args, den_uses = [], [], set(), []
        for factor, env, b, offset, shift in uses:
            if factor.kind == "poch":
                slots = np.select([shift == 0, shift == 1], [one, runs[b, offset].start],
                                  run_slot[b, offset] + shift - 2)
                run = runs[b, offset][:int(shift.max())]
                touched, use = run, (factor.label(env), run, shift)
            else:
                slots = np.array([arg_of[b, offset + s] for s in shift.tolist()])
                touched, use = slots.tolist(), (factor.label(env), None, slots)
            if factor.den:
                den_args.update(touched)
                den_uses.append(use)
            (den if factor.den else num).append(slots)
        num += [np.array([pow_slot[b, k] for k in e.tolist()])
                for b, e in pows.items() if np.any(e)]
        self.den_args = np.array(sorted(den_args), dtype=np.intp)
        self.den_uses = den_uses if detail else None  # (label, run, per term) for errors
        self.runs = [(r.start, r.stop) for r in runs.values() if len(r) > 1]
        dtype = np.int16 if slot < 2 ** 15 else np.int32
        self.const_num, self.num = _split_constant(num, count, dtype)
        self.const_den, self.den = _split_constant(den, count, dtype)
        # a small sum gathers in Python, from per-term slot lists
        self.rows = (list(zip(self.num.tolist(), self.den.tolist()))
                     if count < NUMPY_TERMS else None)


def _split_constant(columns: list, count: int, dtype) -> tuple[tuple, np.ndarray]:
    """(slots every term shares, per-term slot matrix of the rest)."""
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
        for label, run, per_term in plan.den_uses:
            touched = run[:per_term[term]] if run is not None else (per_term[term],)
            for j, k in enumerate(touched):
                if size[k] == 0.0 or size[k] < floor:
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
                             monomials[plan.base_count:]))
    size = np.abs(values)
    if plan.den_args.size:
        low = size[plan.den_args].min()
        if low == 0.0 or low < ctx.pole_floor:
            _raise_pole(_Plan(side, inst, xs, detail=True), xs, size, ctx.pole_floor)
    exps = np.frexp(size)[1]
    mant = (values * np.ldexp(1.0, -exps)).tolist()
    exps = exps.tolist()
    mant.append(complex(1.0))
    exps.append(0)
    for first, stop in plan.runs:  # (B)_k for k = 2 .. stop - first, kept normalised
        m, e = mant[first], exps[first]
        for k in range(first + 1, stop):
            m *= mant[k]
            e += exps[k]
            if abs(m) < 0.5:
                m *= 2.0
                e -= 1
            mant.append(m)
            exps.append(e)

    # assemble: gather, scale every term to the largest exponent, fsum
    get_m, get_e = mant.__getitem__, exps.__getitem__
    c_mant = math.prod(map(get_m, plan.const_num)) / math.prod(map(get_m, plan.const_den))
    c_exp = sum(map(get_e, plan.const_num)) - sum(map(get_e, plan.const_den))
    if len(xs) >= NUMPY_TERMS:
        mant, exps = np.array(mant), np.array(exps)
        m = mant[plan.num].prod(axis=1) / mant[plan.den].prod(axis=1)
        e = exps[plan.num].sum(axis=1) - exps[plan.den].sum(axis=1)
        top = int(e[m != 0].max(initial=0))  # exponents of zero terms are arbitrary
        terms = m * np.ldexp(1.0, e - top)
        re, im = math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist())
        largest = float(np.abs(terms).max())
    else:
        m = [math.prod(map(get_m, a)) / math.prod(map(get_m, b)) for a, b in plan.rows]
        e = [sum(map(get_e, a)) - sum(map(get_e, b)) for a, b in plan.rows]
        top = max((k for v, k in zip(m, e) if v), default=0)
        terms = [v * math.ldexp(1.0, k - top) for v, k in zip(m, e)]
        re, im = math.fsum(v.real for v in terms), math.fsum(v.imag for v in terms)
        largest = max(map(abs, terms))
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
