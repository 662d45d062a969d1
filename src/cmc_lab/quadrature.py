"""Carlson's symmetric elliptic integrals R_F, R_D and R_J, jet-aware
primitives F(r) = int_0^r f, and adaptive Gauss-Kronrod quadrature.

Every profile of the rotational surfaces reduces to R_F, R_D and R_J, which
`carlson` evaluates in one duplication loop (see cmc_lab.surfaces); a
Primitive pairs that closed form (the value) with the integrand's jet (every
higher Taylor coefficient, via F' = f).  `integrate` and `simpson_oracle`
are the references the tests hold the closed forms to.  An integrand is an
array function: `_gk15` samples the 15 Kronrod nodes of the panels of a
refinement sweep with one call f(xs) on a (P*15,) array, and
`simpson_oracle` calls f once on all its nodes.  Written with the generic
operations of cmc_lab.jets (or NumPy ufuncs), an integrand serves arrays and
jets alike; a function of one float only (math.cos) is not an integrand.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .jets import Jet1, MAX_DEGREE

DEFAULT_TOL = 1e-10


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

# the abscissae of _gk15 in its sampling order
_GK_T = np.concatenate([-_GK_NODES, _GK_NODES[:7]])


def _gk15(f, lo, hi):
    """K15 values and |K15 - G7| estimates ((P,) arrays) of the panels
    [lo[p], hi[p]], and per panel None or the message naming its first node
    (in the order of `_GK_T`) where a value is not finite.  `f` is called
    once, on the (P*15,) array of all nodes, with NumPy's floating-point
    warnings silenced."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    xs = mid[:, None] + half[:, None] * _GK_T
    with np.errstate(all="ignore"):
        vals = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
        k = _K_WEIGHTS[7] * vals[:, 7]
        g = _G_WEIGHTS[3] * vals[:, 7]
        for i in range(7):
            pair = vals[:, i] + vals[:, 8 + i]
            k = k + _K_WEIGHTS[i] * pair
            if i % 2 == 1:  # Gauss nodes are the odd-indexed Kronrod abscissae
                g = g + _G_WEIGHTS[i // 2] * pair
        k, g = half * k, half * np.abs(k - g)
    bad = ~np.isfinite(vals)
    singular = [f"integrand singular on interval: f({xs[p, i]}) = {vals[p, i]}"
                if bad[p, i] else None for p, i in enumerate(bad.argmax(axis=1).tolist())]
    return k, g, singular


def _adaptive(f, a, b, tol, limit):
    """(value, error) of the integral of f over [a, b], a < b: bisects the panel
    with the worst |K15 - G7| estimate (leftmost on ties) until the summed error
    meets tol; one `_gk15` call (one call of f) samples both new panels."""
    vs, es, heap = [0.0], [0.0], []  # values and errors by slot, a heap of (-error, lo, slot, hi)
    todo = [(0, a, b)]  # (slot, lo, hi)
    while True:
        slots, los, his = zip(*todo)
        values, ests, singular = _gk15(f, np.array(los, float), np.array(his, float))
        for slot, lo, hi, value, err, bad in zip(slots, los, his, values.tolist(), ests.tolist(), singular):
            if bad:
                raise IntegrandSingularError(bad)
            vs[slot], es[slot] = value, err
            heapq.heappush(heap, (-err, lo, slot, hi))
        total, err = math.fsum(vs), math.fsum(es)
        if err <= max(tol, 1e-15 * abs(total)):
            return total, err
        if len(vs) >= limit:
            raise ToleranceNotMetError(f"tolerance not met: estimate {err:.3e} > {tol:.3e} "
                                       f"after {len(vs)} panels", total, err)
        _, lo, slot, hi = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        todo = [(slot, lo, mid), (len(vs), mid, hi)]
        vs.append(None)
        es.append(None)


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, tol: float = DEFAULT_TOL,
              limit: int = 2048):
    """Adaptive bisection with a Gauss-Kronrod rule per panel.

    Returns (value, error_estimate) with |value - true| <= max(tol, estimate).
    Deterministic: the panel with the worst estimate (leftmost on ties) is
    split until the summed estimate meets tol, and the sums are exactly
    rounded (math.fsum), so no order of the panels changes a bit.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a == b:
        return 0.0, 0.0
    value, err = _adaptive(f, min(a, b), max(a, b), tol, limit)
    return (-value if b < a else value), err


_RF_Q = (3.0 * 1e-16) ** (-1.0 / 6.0)  # (3r)^(-1/6): R_F's truncation error stays below about r
_RJ_Q = (0.25 * 1e-16) ** (-1.0 / 6.0)  # (r/4)^(-1/6), R_J's


def _rc1(e):
    """R_C(1, 1 + e) = arctan(sqrt e)/sqrt e (artanh(sqrt -e)/sqrt -e for real
    e < 0, 1 at e = 0), elementwise."""
    if e.dtype.kind == "c":
        s = np.sqrt(e)
        t = np.arctan(s)
    else:
        s = np.sqrt(abs(e))
        t = np.where(e > 0, np.arctan(s), np.arctanh(s))
    zero = s == 0
    return np.where(zero, 1.0, t / np.where(zero, 1.0, s))


def carlson(x, y, z, *rhos):
    """R_F(x, y, z) = 1/2 int_0^inf dt / (sqrt(t + x) sqrt(t + y) sqrt(t + z)) and,
    for each rho, R_J(x, y, z, rho) = 3/2 int_0^inf dt / ((t + rho) sqrt(t + x)
    sqrt(t + y) sqrt(t + z)), elementwise on broadcast real or complex arrays (or
    numbers) off the cut (-inf, 0], at most one of x, y, z zero; R_J(x, y, z, x)
    is R_D(y, z, x).

    One duplication loop (DLMF 19.36.1 and 19.36.2; B. C. Carlson, Numer.
    Algorithms 10 (1995) 13-26): each element takes x <- (x + lam)/4, and y, z,
    every rho and every A likewise, lam = sqrt(x) sqrt(y) + sqrt(y) sqrt(z) +
    sqrt(z) sqrt(x), and adds 4^-m R_C(1, 1 + e_m)/d_m to each R_J's sum,
    d_m = (sqrt rho + sqrt x)(sqrt rho + sqrt y)(sqrt rho + sqrt z), e_m =
    4^-3m (rho - x)(rho - y)(rho - z)/d_m^2, until 4^-m Q <= |A_m| for R_F's
    A_0 = (x + y + z)/3 and Q = (3r)^(-1/6) max |A_0 - x| (and y, z), and for
    each R_J's A_0 = (x + y + z + 2 rho)/5 and Q = (r/4)^(-1/6) max |A_0 - x|
    (and y, z, rho); then it sums the fifth-order series of each.  An element's
    steps depend on its own arguments alone, so a batch gives every element the
    bits it gets alone; without rho they are the steps of R_F alone."""
    v = np.array(np.broadcast_arrays(x, y, z, *rhos))
    shape, v = v.shape[1:], v.reshape(len(v), -1)
    n, sum3 = len(rhos), v[0] + v[1] + v[2]
    a0 = np.concatenate([[sum3 / 3], (sum3 + 2 * v[3:]) / 5])
    q = np.array([_RF_Q * abs(a0[0] - v[:3]).max(axis=0)]
                 + [_RJ_Q * abs(a0[j] - v[[0, 1, 2, j + 2]]).max(axis=0) for j in range(1, n + 1)])
    delta = (v[3:] - v[0]) * (v[3:] - v[1]) * (v[3:] - v[2])
    # per element x, y, z, the rhos and the A's, duplicated alike; they end as the state
    # in which the element met its stopping rule, and four_m with them
    state = np.concatenate([v, a0])
    ends, four_m = state.copy(), np.ones(v.shape[1])
    live = np.flatnonzero((q > abs(a0)).any(axis=0))
    w, ql, f = state[:, live], q[:, live], 1.0  # the live elements, packed
    terms = []  # per step: the live elements, 4^m d_m of each R_J and 4^m
    while live.size:
        root = np.sqrt(w[:3 + n])
        lam = root[0] * (root[1] + root[2]) + root[1] * root[2]
        if n:
            terms.append((live, f * (root[3:, None] + root[:3]).prod(axis=1), np.full(live.size, f)))
        w, f = 0.25 * (w + lam), 4.0 * f
        done = ql <= f * abs(w[3 + n:])
        done = done.all(axis=0) if n else done[0]
        if done.any():
            at, on = live[done], ~done
            ends[:, at], four_m[at] = w[:, done], f
            live, w, ql = live[on], w[:, on], ql[:, on]
    sums = np.zeros(delta.shape, np.result_type(v, 1.0))
    if terms:  # the sums of the R_J, each element's terms added in step order from 0.0
        at, fd, four = (np.concatenate(x, axis=-1) for x in zip(*terms))
        term = (_rc1(delta[:, at] / (fd * fd * four)) if delta.any() else 1.0) / fd
        bins, size = (np.arange(n)[:, None] * v.shape[1] + at).ravel(), n * v.shape[1]
        sums = np.bincount(bins, term.real.ravel(), size).reshape(n, -1)
        if term.dtype.kind == "c":
            sums = sums + 1j * np.bincount(bins, term.imag.ravel(), size).reshape(n, -1)
    a = ends[3 + n:]
    X, Y = (a0[0] - v[:2]) / (four_m * a[0])
    Z = -X - Y
    e2, e3 = X * Y - Z * Z, X * Y * Z
    out = [(1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / np.sqrt(a[0])]
    if n:  # every R_J at once: (n, N) arrays
        X, Y, Z = (a0[1:] - v[:3, None]) / (four_m * a[1:])
        P = -(X + Y + Z) / 2
        xy, p2 = X * Y, P * P
        xyz, e2 = xy * Z, xy + (X + Y) * Z - 3 * p2
        e2p, p3 = e2 * P, p2 * P
        e3, e4, e5 = xyz + 2 * e2p + 4 * p3, (2 * xyz + e2p + 3 * p3) * P, xyz * p2
        series = 1 - 3 * e2 / 14 + e3 / 6 + 9 * e2 * e2 / 88 - 3 * e4 / 22 - 9 * e2 * e3 / 52 + 3 * e5 / 26
        out += list(series / (four_m * a[1:] * np.sqrt(a[1:])) + 6 * sums)
    return tuple(o.reshape(shape)[()] for o in out)  # NumPy scalars for scalar arguments


def simpson_oracle(f, a, b, panels=1_000_000):
    """Composite Simpson with a fixed (large) panel count: a brute-force
    reference independent of the adaptive path.  `f` is called once, on the
    array of all nodes."""
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = f(xs)
    h = (b - a) / (2 * panels)
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())


@dataclass
class Integrand:
    """A function of one variable that can also be evaluated as a jet: `expr` is
    written with the generic operations of cmc_lab.jets (which dispatch on jets,
    floats and arrays alike), so the two evaluation modes cannot drift apart."""

    expr: Callable

    def __call__(self, x):
        """The values at x, a number or an array of points (as _gk15 passes)."""
        return self.expr(x)

    def jet(self, x0, degree: int = MAX_DEGREE) -> Jet1:
        """The jet at x0, a number or a (B,) array (a batched jet)."""
        return self.expr(Jet1.coordinate(x0, degree))


def primitive_jet(integrand, r0, value, degree: int = MAX_DEGREE) -> Jet1:
    """The jet at r0 of a primitive F of `integrand` with F(r0) = value: the
    coefficient of x^j (j >= 1) is f^(j-1)(r0)/j!, from F' = f.  With a (B,)
    array r0 (and value) the jet is batched; it is complex where the value or
    the integrand is."""
    F = Jet1.constant(0.0, r0, degree)
    f, j = integrand.jet(r0, max(degree - 1, 0)).c[..., :degree], np.arange(1, degree + 1)
    higher = np.empty(f.shape, f.dtype)  # a complex f part by part: NumPy's complex division
    higher.real = f.real / j  # multiplies by 1/j, which rounds apart
    if f.dtype.kind == "c":
        higher.imag = f.imag / j
    F.c = np.concatenate([np.reshape(value, F.c.shape[:-1] + (1,)), higher], axis=-1)
    return F


@dataclass
class Primitive:
    """F(r) = int_0^r f(tau) dtau, F' = f: `closed_form` gives the values of F
    (elementwise on an array of radii), the integrand's jet the higher
    coefficients (`primitive_jet`).  F(0) is +0.0, the integral over no
    interval (a closed form with a negative factor gives -0.0 there).  A
    complex F is two primitives, its real and its imaginary part, that share
    one closed form."""

    integrand: Integrand
    closed_form: Callable[[np.ndarray], np.ndarray]

    def _values(self, rs):
        """F at the radii rs (an array); a batch of zeros runs no closed form."""
        on = rs != 0
        return np.where(on, self.closed_form(rs), 0.0) if on.any() else np.zeros(rs.shape)

    def value(self, r: float):
        """F(r), a float or a complex, as a batch of one gives it."""
        return self._values(np.array([float(r)]))[0].item()

    def jet(self, r0, degree: int = MAX_DEGREE) -> Jet1:
        """Value coefficient from the closed form, the others from the integrand's
        jet.  For a (B,) array r0 the closed form runs once per distinct r (a mesh
        repeats r along every row), the integrand once on the batch."""
        if isinstance(r0, np.ndarray) and r0.ndim:
            rs, at = np.unique(r0, return_inverse=True)
            value = self._values(rs)[at]
        else:
            value = self.value(r0)
        return primitive_jet(self.integrand, r0, value, degree)
