"""The numerical kernels: truncated-jet arithmetic and Carlson's elliptic integrals.

Everything derivative-shaped in this library flows through degree-5 truncated
Taylor jets (exact to roundoff), and every profile integral is a closed form in
Carlson's symmetric elliptic integrals R_F, R_D and R_J, which one duplication
loop (`cmc_lab.quadrature.carlson`) evaluates to roundoff.
"""

import math

from cmc_lab import Jet2, VectorFieldJet, iterated_field_derivative
from cmc_lab import jets as jt
from cmc_lab.quadrature import carlson

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

# Carlson's R_F against the lemniscate constant: R_F(0, 1, 2) = Gamma(1/4)^2 / (4 sqrt(2 pi))
# (DLMF 19.20.2)
rf = carlson(0.0, 1.0, 2.0)[0]
want = math.gamma(0.25) ** 2 / (4 * math.sqrt(2 * math.pi))
print(f"\nR_F(0, 1, 2): duplication loop {rf:.16f}")
print(f"              Gamma(1/4)^2 / (4 sqrt(2 pi)) {want:.16f}")
print(f"              relative |diff| = {abs(rf / want - 1):.2e}")
