#!/usr/bin/env python3
"""Walk through the atomic layer: the multiplicative theta function and the
two-branch elliptic shifted factorial.

Run:  python3 demos/01_theta_and_shifted_factorials.py
"""

import cmath
import math

from ellsum import (
    EllipticNome,
    elliptic_pochhammer,
    relative_error,
    theta,
)

# A nome is the pair of the deformation parameter p (|p| < 1) and the
# shift base q.
nome = EllipticNome(p=0.15, q=0.5)
print(f"nome: p = {nome.p}, q = {nome.q}")

# theta(z) = prod (1 - p^j z)(1 - p^{j+1}/z).  It vanishes exactly on p^Z.
z = 1.7 - 0.4j
print(f"theta({z}) = {theta(z, nome)}")
print(f"theta(1)   = {theta(1.0, nome)}   (zero: 1 is a lattice point)")
print(f"theta(1/p) = {theta(1.0 / nome.p, nome)}   (another lattice point)")

# Two identities the whole library leans on, both exact:
lhs_inv = theta(1.0 / z, nome)
rhs_inv = -theta(z, nome) / z
print(f"inversion      theta(1/z) vs -theta(z)/z : "
      f"rel err {relative_error(lhs_inv, rhs_inv):.2e}")
lhs_qp = theta(nome.p * z, nome)
print(f"quasi-period   theta(pz) vs -theta(z)/z  : "
      f"rel err {relative_error(lhs_qp, rhs_inv):.2e}")

# The square of theta's argument factors through the half-lattice:
root = cmath.sqrt(nome.p)
quad = math.prod(theta(w, nome) for w in (z, -z, root * z, -root * z))
print(f"quadratic      theta(z^2) vs 4-factor    : "
      f"rel err {relative_error(theta(z * z, nome), quad):.2e}")

# Shifted factorials: (z)_k multiplies theta along the q-geometric ladder;
# negative k divides along it.
for k in (0, 1, 3, -1, -3):
    print(f"(z)_{k:+d} = {elliptic_pochhammer(z, k, nome)}")

# Setting p = 0 collapses everything to the trigonometric world: theta is
# literally 1 - z and (z)_k is the classical q-shifted factorial.
trig = EllipticNome(0.0, 0.5)
print(f"p = 0: theta(z) = {theta(z, trig)} = 1 - z exactly")
print(f"p = 0: (0.3)_3  = {elliptic_pochhammer(0.3, 3, trig):.9f} "
      f"= (1-0.3)(1-0.15)(1-0.075)")
