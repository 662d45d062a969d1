"""Adaptive Gauss-Kronrod quadrature, jet-aware primitives F(r) = int_0^r f,
and Carlson's symmetric elliptic integral R_F.

The profile coordinates of every rotational surface here are antiderivatives
of closed-form integrands.  A Primitive pairs adaptive integration (for the
value) with the integrand's jet (for all higher Taylor coefficients, via
F' = f), so surfaces can serve exact degree-5 jets whose only inexactness is
the quadrature tolerance in the value coefficient.  `carlson_rf` evaluates
the primitives that reduce to R_F (the conformal chart's, see
cmc_lab.representation) in closed form.

Array contract.  An integrand is an array function: `_gk15` samples the 15
Kronrod nodes of the P panels of a refinement sweep with one call f(xs) on a
(P*15,) array and reads a (P*15,) array of values back, and `simpson_oracle`
calls f once on all its nodes.  Written with the generic operations of
cmc_lab.jets (or NumPy ufuncs), an integrand serves arrays and jets alike; a
function of one float only (math.cos) is not an integrand.
"""

from __future__ import annotations

import heapq
import math
from contextlib import contextmanager
from contextvars import ContextVar
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


def _adaptive(f, ends, tol, limit):
    """Per interval (a, b) of `ends` (a < b): its summed value and summed
    error, or the QuadratureError it raised.  Each interval, on its own,
    bisects its panel with the worst |K15 - G7| estimate (leftmost on ties)
    until its summed error meets tol; they run in lockstep: a sweep bisects a
    panel of every unfinished interval, and one `_gk15` call (one call of f)
    samples all the new panels."""
    out = [None] * len(ends)
    # per interval: values and errors by slot, a heap of (-error, lo, slot, hi)
    state = [([0.0], [0.0], []) for _ in ends]
    todo = [(i, 0, a, b) for i, (a, b) in enumerate(ends)]  # (interval, slot, lo, hi)
    while todo:
        who, slots, los, his = zip(*todo)
        values, ests, singular = _gk15(f, np.array(los, float), np.array(his, float))
        for p, (i, slot, lo, hi, value, err) in enumerate(zip(who, slots, los, his, values.tolist(),
                                                             ests.tolist())):
            if out[i] is not None:
                continue
            if singular[p]:
                out[i] = IntegrandSingularError(singular[p])
                continue
            vs, es, heap = state[i]
            vs[slot], es[slot] = value, err
            heapq.heappush(heap, (-err, lo, slot, hi))
        todo = []
        for i in [i for i in dict.fromkeys(who) if out[i] is None]:
            vs, es, heap = state[i]
            total, err = math.fsum(vs), math.fsum(es)
            if err <= max(tol, 1e-15 * abs(total)):
                out[i] = total, err
            elif len(vs) >= limit:
                out[i] = ToleranceNotMetError(f"tolerance not met: estimate {err:.3e} > {tol:.3e} "
                                              f"after {len(vs)} panels", total, err)
            else:
                _, lo, slot, hi = heapq.heappop(heap)
                mid = 0.5 * (lo + hi)
                todo += [(i, slot, lo, mid), (i, len(vs), mid, hi)]
                vs.append(None)
                es.append(None)
    return out


def _integrals(f, ends, tol, limit=2048):
    """`integrate` over each (a, b) of `ends`, in one lockstep `_adaptive` run:
    per interval (value, error estimate), or the QuadratureError it raised."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    out = [(0.0, 0.0)] * len(ends)
    run = [i for i, (a, b) in enumerate(ends) if a != b]
    for i, res in zip(run, _adaptive(f, [sorted(ends[i]) for i in run], tol, limit)):
        flip = ends[i][1] < ends[i][0]
        out[i] = res if isinstance(res, QuadratureError) else (-res[0] if flip else res[0], res[1])
    return out


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, tol: float = DEFAULT_TOL,
              limit: int = 2048):
    """Adaptive bisection with a Gauss-Kronrod rule per panel.

    Returns (value, error_estimate) with |value - true| <= max(tol, estimate).
    Deterministic: the panel with the worst estimate (leftmost on ties) is
    split until the summed estimate meets tol, and the sums are exactly
    rounded (math.fsum), so no order of the panels changes a bit.
    """
    (result,) = _integrals(f, [(a, b)], tol, limit)
    if isinstance(result, QuadratureError):
        raise result
    return result


_RF_Q = (3.0 * 1e-16) ** (-1.0 / 6.0)  # (3r)^(-1/6): R_F's truncation error stays below about r


def carlson_rf(x, y, z):
    """R_F(x, y, z) = 1/2 int_0^inf dt / (sqrt(t + x) sqrt(t + y) sqrt(t + z)),
    elementwise on broadcast real or complex arrays (or numbers) off the cut
    (-inf, 0], at most one of x, y, z zero.

    Duplication (DLMF 19.36.1; B. C. Carlson, Numer. Algorithms 10 (1995)
    13-26): each element takes x <- (x + lam)/4, and y, z and A likewise,
    lam = sqrt(x) sqrt(y) + sqrt(y) sqrt(z) + sqrt(z) sqrt(x), until
    4^-m Q <= |A_m|, Q = (3r)^(-1/6) max |A_0 - x_0| (and y, z), then sums the
    fifth-order series in E2 and E3.  An element's steps depend on its own
    arguments alone, so a batch gives every element the bits it gets alone."""
    v = np.array(np.broadcast_arrays(x, y, z))
    shape, v = v.shape[1:], v.reshape(3, -1)
    a0 = (v[0] + v[1] + v[2]) / 3
    q = _RF_Q * abs(a0 - v).max(axis=0)
    a, four_m, live = a0.copy(), np.ones(q.shape), np.flatnonzero(q > abs(a0))
    w, al, ql, f = v[:, live], a0[live], q[live], 1.0  # the elements still duplicating, packed
    while live.size:
        root = np.sqrt(w)
        lam = root[0] * (root[1] + root[2]) + root[1] * root[2]
        w, al, f = 0.25 * (w + lam), 0.25 * (al + lam), 4.0 * f
        done = ql <= f * abs(al)
        if done.any():
            a[live[done]], four_m[live[done]] = al[done], f
            live, w, al, ql = live[~done], w[:, ~done], al[~done], ql[~done]
    X, Y = (a0 - v[:2]) / (four_m * a)
    Z = -X - Y
    e2, e3 = X * Y - Z * Z, X * Y * Z
    rf = (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / np.sqrt(a)
    return rf.reshape(shape)[()]  # a NumPy scalar for scalar arguments


def simpson_oracle(f, a, b, panels=1_000_000):
    """Composite Simpson with a fixed (large) panel count.

    Brute-force reference kept independent of the adaptive path; tests compare
    the two routes.  `f` is called once, on the array of all nodes.
    """
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = f(xs)
    h = (b - a) / (2 * panels)
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())


@dataclass
class Integrand:
    """A function of one variable that can also be evaluated as a jet.

    `expr` must be written in terms of the generic operations of cmc_lab.jets
    (which dispatch on jets, floats and arrays alike), so the two evaluation
    modes cannot drift apart.
    """

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
    array r0 (and value) the jet is batched."""
    F = Jet1.constant(value, r0, degree)
    if degree >= 1:
        F.c[..., 1:] = integrand.jet(r0, degree - 1).c[..., :degree] / np.arange(1, degree + 1)
    return F


_NO_VALUES = ContextVar("_NO_VALUES", default=False)


@contextmanager
def _without_values():
    """A scope in which Primitive.jet neither integrates nor touches its cache
    and leaves the value coefficient NaN, for callers that read only
    derivatives (the tangents of representation._tangents): a value read
    after all shows as NaN.  Primitive.value called directly is unchanged."""
    token = _NO_VALUES.set(True)
    try:
        yield
    finally:
        _NO_VALUES.reset(token)


@dataclass
class Primitive:
    """F(r) = int_base^r f(tau) dtau with jets supplied through F' = f.

    Values are integrated per radius (a batch's new radii in lockstep) and
    cached: rotational surfaces re-evaluate the same profile radius for every
    grid row.  A surface profile is not integrated once over its whole domain
    and stored: its domain ends where a radicand of the integrand vanishes, and there the integrand can blow up too fast for the
    adaptive loop (for the conjugate of the spacelike-axis Delaunay surface
    the whole-domain integral fails at 39 of 62 sampled k in [-3, 4], all
    above -0.6), while the interior values that classification reads converge.
    A failed integral is cached as well: the same r raises the same error
    again without integrating.  Inside `_without_values` a jet's value
    coefficient is NaN and nothing is integrated: the tangents of a Gauss
    map read only derivatives.
    """

    integrand: Integrand
    base: float = 0.0
    tol: float = PRIMITIVE_TOL
    _cache: dict = field(default_factory=dict, repr=False)

    def value(self, r: float) -> float:
        """F(r); a failed integral is cached too, and raises again for that r."""
        r = float(r)
        hit = self._cache.get(r)
        if hit is None:
            try:
                hit, _ = integrate(self.integrand, self.base, r, self.tol)
            except QuadratureError as e:
                hit = e
            self._cache[r] = hit
        if isinstance(hit, QuadratureError):
            raise hit.with_traceback(None)
        return hit

    def jet(self, r0, degree: int = MAX_DEGREE) -> Jet1:
        """Value coefficient from quadrature, the others from the integrand's jet.

        r0 may be a (B,) array: its distinct r not cached are integrated in one
        lockstep run and cached, values or failures (the smallest failing r
        raises), and coefficients 1..degree come from one batched integrand
        jet.  Inside `_without_values` the value coefficient is NaN."""
        batch = isinstance(r0, np.ndarray) and r0.ndim
        if _NO_VALUES.get():
            value = np.full(r0.shape, math.nan) if batch else math.nan
        elif batch:
            rs, at = np.unique(r0, return_inverse=True)
            new = [r for r in rs.tolist() if r not in self._cache]
            ends = [(self.base, r) for r in new]
            for r, hit in zip(new, _integrals(self.integrand, ends, self.tol)):
                self._cache[r] = hit if isinstance(hit, QuadratureError) else hit[0]
            value = np.array([self.value(r) for r in rs])[at]
        else:
            value = self.value(r0)
        return primitive_jet(self.integrand, r0, value, degree)
