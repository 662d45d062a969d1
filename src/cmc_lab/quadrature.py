"""Adaptive Gauss-Kronrod quadrature and jet-aware primitives F(r) = int_0^r f.

The profile coordinates of every rotational surface here are antiderivatives
of closed-form integrands.  A Primitive pairs adaptive integration (for the
value) with the integrand's jet (for all higher Taylor coefficients, via
F' = f), so surfaces can serve exact degree-5 jets whose only inexactness is
the quadrature tolerance in the value coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .jets import Jet1, MAX_DEGREE

DEFAULT_TOL = 1e-10
PRIMITIVE_TOL = 1e-11


class QuadratureError(Exception):
    pass


class IntegrandSingularError(QuadratureError):
    """A sample of the integrand was not finite ("integrand singular on interval")."""


class ToleranceNotMetError(QuadratureError):
    """Subdivision limit reached; carries the best estimate."""

    def __init__(self, message, value, error_estimate):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1].
_GK_NODES = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_K_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_G_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])


def _gk15(f, a, b):
    """(K15 value, |K15 - G7| estimate) on [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = np.empty(15)
    xs[0:8] = mid - half * _GK_NODES
    xs[8:15] = mid + half * _GK_NODES[:7]
    vals = np.empty(15)
    for i, x in enumerate(xs):
        v = f(x)
        if not np.isfinite(v):
            raise IntegrandSingularError(f"integrand singular on interval: f({x}) = {v}")
        vals[i] = v
    k = _K_WEIGHTS[7] * vals[7]
    g = _G_WEIGHTS[3] * vals[7]
    for i in range(7):
        pair = vals[i] + vals[8 + i]
        k += _K_WEIGHTS[i] * pair
        if i % 2 == 1:  # Gauss nodes are the odd-indexed Kronrod abscissae
            g += _G_WEIGHTS[i // 2] * pair
    return half * k, half * abs(k - g)


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    limit: int = 2048,
):
    """Adaptive bisection with a Gauss-Kronrod rule per panel.

    Returns (value, error_estimate) with |value - true| <= max(tol, estimate).
    Deterministic: the panel with the worst estimate (leftmost on ties) is
    split until the summed estimate meets tol, and the result is accumulated
    in interval order.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a == b:
        return 0.0, 0.0
    if b < a:
        value, err = integrate(f, b, a, tol, limit)
        return -value, err

    panels = [(a, b, *_gk15(f, a, b))]
    while True:
        panels.sort(key=lambda p: p[0])
        total = math.fsum(p[2] for p in panels)
        err = math.fsum(p[3] for p in panels)
        if err <= max(tol, 1e-15 * abs(total)):
            return total, err
        if len(panels) >= limit:
            raise ToleranceNotMetError(
                f"tolerance not met: estimate {err:.3e} > {tol:.3e} "
                f"after {len(panels)} panels",
                total,
                err,
            )
        worst = max(range(len(panels)), key=lambda i: (panels[i][3], -panels[i][0]))
        lo, hi, _, _ = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        panels.append((lo, mid, *_gk15(f, lo, mid)))
        panels.append((mid, hi, *_gk15(f, mid, hi)))


def simpson_oracle(f, a, b, panels=1_000_000):
    """Composite Simpson with a fixed (large) panel count.

    Brute-force reference kept independent of the adaptive path; tests compare
    the two routes.
    """
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = np.array([f(x) for x in xs]) if not _vectorizable(f, xs) else f(xs)
    h = (b - a) / (2 * panels)
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())


def _vectorizable(f, xs):
    try:
        out = f(xs[:3])
        return isinstance(out, np.ndarray) and out.shape == (3,)
    except Exception:
        return False


@dataclass
class Integrand:
    """A scalar function of one variable that can also be evaluated as a jet.

    `expr` must be written in terms of the generic operations of cmc_lab.jets
    (which dispatch on floats and jets alike), so the two evaluation modes
    cannot drift apart.
    """

    expr: Callable

    def __call__(self, x: float) -> float:
        return float(self.expr(x))

    def jet(self, x0: float, degree: int = MAX_DEGREE) -> Jet1:
        return self.expr(Jet1.coordinate(float(x0), degree))


@dataclass
class Primitive:
    """F(r) = int_base^r f(tau) dtau with jets supplied through F' = f.

    Values are cached per evaluation point: rotational surfaces re-evaluate
    the same profile radius for every grid row.
    """

    integrand: Integrand
    base: float = 0.0
    tol: float = PRIMITIVE_TOL
    _cache: dict = field(default_factory=dict, repr=False)

    def value(self, r: float) -> float:
        r = float(r)
        hit = self._cache.get(r)
        if hit is None:
            hit, _ = integrate(self.integrand, self.base, r, self.tol)
            self._cache[r] = hit
        return hit

    __call__ = value

    def jet(self, r0: float, degree: int = MAX_DEGREE) -> Jet1:
        """Value coefficient from quadrature; coefficient of x^j is f^(j-1)(r0)/j!."""
        coeffs = np.zeros(degree + 1)
        coeffs[0] = self.value(r0)
        if degree >= 1:
            fj = self.integrand.jet(r0, degree - 1)
            for j in range(1, degree + 1):
                coeffs[j] = fj.c[j - 1] / j
        return Jet1(float(r0), degree, coeffs)
