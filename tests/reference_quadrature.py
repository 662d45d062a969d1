"""The quadrature the tests hold the closed-form profiles to: adaptive
Gauss-Kronrod, one panel at a time, and composite Simpson with a fixed panel
count.

`reference_integrate` bisects the panel with the worst |K15 - G7| estimate
(leftmost on ties) until the summed estimate meets tol, and sums the panels
exactly rounded (math.fsum), so no order of the panels changes a bit.  An
integrand is called on each panel's 15 nodes as one array.
"""

import math

import numpy as np

# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1].
GK_NODES = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
K_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
G_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# the abscissae of a panel in sampling order: from a towards the midpoint, then from b
GK_T = np.concatenate([-GK_NODES, GK_NODES[:7]])


class IntegrandSingularError(Exception):
    """A sample of the integrand was not finite ("integrand singular on interval")."""


class ToleranceNotMetError(Exception):
    """Subdivision limit reached; carries the best estimate."""

    def __init__(self, message, value, error_estimate):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


def reference_gk15(f, a, b):
    """The one-panel rule: (K15 value, |K15 - G7| estimate) on [a, b], with f
    called on that panel's 15 nodes."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = mid + half * GK_T
    with np.errstate(all="ignore"):
        vals = np.asarray(f(xs), dtype=float)
    if not np.isfinite(vals).all():
        i = int(np.argmin(np.isfinite(vals)))
        raise IntegrandSingularError(f"integrand singular on interval: f({xs[i]}) = {vals[i]}")
    v = vals.tolist()
    k = K_WEIGHTS[7] * v[7]
    g = G_WEIGHTS[3] * v[7]
    for i in range(7):
        pair = v[i] + v[8 + i]
        k += K_WEIGHTS[i] * pair
        if i % 2 == 1:  # Gauss nodes are the odd-indexed Kronrod abscissae
            g += G_WEIGHTS[i // 2] * pair
    return half * k, half * abs(k - g)


def reference_adaptive(f, a, b, tol, limit):
    """The adaptive loop panel by panel: the panels of [a, b] in interval
    order, their summed value and summed error."""
    def panel(lo, hi):
        return lo, hi, *reference_gk15(f, lo, hi)

    panels = [panel(a, b)]
    while True:
        panels.sort(key=lambda p: p[0])
        total = math.fsum(p[2] for p in panels)
        err = math.fsum(p[3] for p in panels)
        if err <= max(tol, 1e-15 * abs(total)):
            return panels, total, err
        if len(panels) >= limit:
            raise ToleranceNotMetError(
                f"tolerance not met: estimate {err:.3e} > {tol:.3e} after {len(panels)} panels",
                total, err)
        worst = max(range(len(panels)), key=lambda i: (panels[i][3], -panels[i][0]))
        lo, hi = panels.pop(worst)[:2]
        mid = 0.5 * (lo + hi)
        panels.append(panel(lo, mid))
        panels.append(panel(mid, hi))


def reference_integrate(f, a, b, tol=1e-10, limit=2048):
    """(value, error estimate) of the integral of f from a to b, reversed by
    recursion: |value - true| <= max(tol, estimate)."""
    if a == b:
        return 0.0, 0.0
    if b < a:
        value, err = reference_integrate(f, b, a, tol, limit)
        return -value, err
    return reference_adaptive(f, a, b, tol, limit)[1:]


def simpson_oracle(f, a, b, panels=1_000_000):
    """Composite Simpson with a fixed (large) panel count: a brute-force
    reference independent of the adaptive loop.  `f` is called once, on the
    array of all nodes."""
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = f(xs)
    h = (b - a) / (2 * panels)
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())
