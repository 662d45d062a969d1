"""The numerical kernels: truncated-jet arithmetic and adaptive quadrature.

Everything derivative-shaped in this library flows through degree-5 truncated
Taylor jets (exact to roundoff), and every profile integral flows through an
adaptive Gauss-Kronrod integrator whose values a brute-force composite
Simpson rule can audit.
"""

import math

import numpy as np

from cmc_lab import Jet2, VectorFieldJet, integrate, iterated_field_derivative
from cmc_lab import jets as jt
from cmc_lab.quadrature import simpson_oracle

# jets: Maclaurin coefficients of sin fall out of composition
u, v = Jet2.variables((0.0, 0.0))
print("sin(u) jet coefficients:", jt.sin(u).c[:, 0], "(0, 1, 0, -1/6, 0, 1/120)")

# iterated vector-field derivatives of the standard (2,5) model, exactly
X = (u, v * v, v**5)
d_v = VectorFieldJet.constant(0.0, 1.0, (0.0, 0.0))
for k in (2, 3, 4, 5):
    print(f"eta^{k} X at the origin:", iterated_field_derivative(X, d_v, k))

# a transcendental composite against Richardson finite differences
f = jt.sin(0.7 * u + v * v) / jt.sqrt(2.0 + jt.cos(v))


def sample(uu, vv):
    return math.sin(0.7 * uu + vv * vv) / math.sqrt(2.0 + math.cos(vv))


h = 1e-3
fd = (4 * (sample(h / 2, 0) - sample(-h / 2, 0)) / h - (sample(h, 0) - sample(-h, 0)) / (2 * h)) / 3
print(f"\nd/du of a sin/sqrt composite: jet {f.c[1, 0]:.12f}, finite differences {fd:.12f}")

# quadrature: the k = 2 profile integrand, adaptive GK vs composite Simpson
g = lambda x: (x * x + 1) / np.sqrt((x * x + 3) ** 2 - 8)
val, err = integrate(g, 0.0, 1.0, 1e-12)
oracle = simpson_oracle(g, 0.0, 1.0, panels=1_000_000)
print(f"\nprofile integral on [0,1]: adaptive {val:.15f} (est err {err:.1e})")
print(f"                           Simpson  {oracle:.15f} (1e6 panels)")
print(f"                           |diff| = {abs(val - oracle):.2e}")
