"""Carlson's symmetric elliptic integrals R_F, R_D and R_J, and jet-aware
primitives F(r) = int_0^r f.

Every profile of the rotational surfaces reduces to R_F, R_D and R_J, which
`carlson` evaluates in one duplication loop (see cmc_lab.surfaces); a
Primitive pairs that closed form (the value) with the integrand's jet (every
higher Taylor coefficient, via F' = f).  An integrand is a function written
with the generic operations of cmc_lab.jets (or NumPy ufuncs), so it serves
jets and arrays alike; a function of one float only (math.cos) is not an
integrand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .jets import Jet1, MAX_DEGREE

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


def primitive_jet(integrand, r0, value, degree: int = MAX_DEGREE) -> Jet1:
    """The jet at r0 of a primitive F of `integrand` with F(r0) = value: the
    coefficient of x^j (j >= 1) is f^(j-1)(r0)/j!, from F' = f, with f's jet
    the integrand of the coordinate jet.  With a (B,) array r0 (and value) the
    jet is batched; it is complex where the value or the integrand is."""
    F = Jet1.constant(0.0, r0, degree)
    f = integrand(Jet1.coordinate(r0, max(degree - 1, 0))).c[..., :degree]
    j = np.arange(1, degree + 1)
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

    integrand: Callable
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
