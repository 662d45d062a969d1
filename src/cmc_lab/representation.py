"""Gauss maps, harmonic-map residuals, and the integral representation of
spacelike CMC surfaces.

The Gauss map g is the stereographic image of the oriented Lorentzian unit
normal.  On a conformal chart z = u + iv the map g of a CMC surface satisfies
the harmonic-map equation, the 1-form coefficient omega_hat = conj(g)_z /
(1 - |g|^2)^2 is its representation datum, and the surface is recovered (up to
a Lorentz motion) as X = (2/H) Re int (-2g, 1+g^2, i(1-g^2)) omega_hat dz.
Everything here is residual-checked: harmonicity, closedness of the integrand,
the compatibility (curvature) equations, and the Laplace identity
Delta X = -2 H nu.

Array contract.  The chart integrand sqrt(E/G) is an array function (see
cmc_lab.quadrature): a quadrature sweep is one batched surface jet at the 15
radii of each new panel.  `gauss_data_from_surface` solves r(s) once per grid
row, inverts the rows' jets of s(r) in one batched call, and evaluates the
whole grid in one batched chart call (within 1e-13 of a node-by-node
evaluation, where NumPy's elementary functions on arrays differ in the last bits).
GaussData keeps that batch: g_jet is one batched jet whose element i * nv + j
is node (i, j), and g and omega_hat are (nu, nv) arrays.  The residuals
return (nu, nv) arrays, and `integrate_representation` takes the integrand
jets of the whole grid at once; its edge integrals, path sums and loop check
are the same roundings as a loop over nodes and edges, bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import jets as jt
from .jets import Jet1, Jet2, MAX_DEGREE, partial_values
from .lorentz import (
    ExtComplex,
    NotSpacelikeError,
    first_fundamental_form,
    lorentz_inner,
    lorentz_normal,
)
from .quadrature import TabulatedPrimitive, _without_values, primitive_jet
from .surfaces import Surface, _promote_r

UNIT_CIRCLE_TOL = 1e-8

# chart orientation: the rotation parameter of a surface of orientation +1
# enters the conformal chart as t = CHART_T_SIGN * v, which orients z = u + iv so
# that X_z is proportional to (-2g, 1+g^2, i(1-g^2)) omega_hat (in the opposite
# orientation no scalar proportionality holds); see ConformalProfile.t_sign
CHART_T_SIGN = -1.0


def representation_constant(H: float) -> float:
    """The constant c in the derivative identity X_z = c (-2g, 1+g^2, i(1-g^2)) omega_hat.

    Fixed here once, by differentiating the reconstruction formula
    X = 2 c Re int (...) omega_hat dz, and verified against exact surface
    jets: with the unit normal oriented to make H_mean = +H (so |g| < 1 on the
    sampled side) the constant is c = -1/H.  Nothing else hard-codes it.
    """
    return -1.0 / H


# -- Gauss maps as jets ---------------------------------------------------------


def _frame(X):
    """(X_u, X_v) of the jets X, one degree lower."""
    return [c.du() for c in X], [c.dv() for c in X]


def _tangents(S: Surface, r, t, degree: int):
    """(X_u, X_v) at (r, t) as jets of degree - 1, from S.jet(r, t, degree).

    The tangents need no profile value, so S.jet runs in `_without_values`
    first and integrates none.  A surface whose tangents read a profile value
    gets NaN there (or an error from it); then S.jet runs again as usual."""
    try:
        with _without_values():
            Xu, Xv = _frame(S.jet(r, t, degree))
        if np.isfinite([c.c for c in Xu + Xv]).all():
            return Xu, Xv
    except (jt.JetError, ArithmeticError, ValueError):  # what a NaN value can break
        pass
    return _frame(S.jet(r, t, degree))


def _gauss_of_frame(Xu, Xv, sign) -> Jet2:
    """Complex jet of g = (nu1 + i nu2)/(1 - nu0), nu the normal of the frame
    (Xu, Xv) oriented by `sign`; batched if the frame is."""
    nu = lorentz_normal(Xu, Xv, sign)
    num = nu[1] + 1j * nu[2]
    den = 1.0 - nu[0]
    if np.any(abs(den.value) < 1e-14):
        raise ZeroDivisionError("Gauss map at infinity (nu0 = 1)")
    return num / den


def _gauss_values(S: Surface, u, v):
    """g = (nu1 + i nu2)/(1 - nu0) at the points (u, v), numbers or (B,) arrays,
    from the tangents alone: no profile value is integrated."""
    return _gauss_of_frame(*_tangents(S, u, v, 1), S.orientation).value


def gauss_map_of(S: Surface, p) -> ExtComplex:
    """g = stereographic(nu) at a spacelike regular point."""
    try:
        return ExtComplex.of(complex(_gauss_values(S, p[0], p[1])))
    except ZeroDivisionError:
        return ExtComplex.infinity()


def _abs_g_limit(S: Surface, p, direction, h: float):
    """|g| at p + x direction for x = h, h/2, h/4, (R, 3) for the rows of the
    (R, 2) arrays p and direction, and its (R,) limits as x -> 0."""
    q = p[:, None] + np.array([h, h / 2, h / 4])[:, None] * direction[:, None]
    ys = abs(_gauss_values(S, q[..., 0].ravel(), q[..., 1].ravel())).reshape(-1, 3)
    return ys, _richardson(ys)


def _richardson(ys):
    """The limit as x -> 0 of values at x = h, h/2, h/4 (the last axis): (8 y2 - 6 y1 + y0)/3."""
    return (8 * ys[..., 2] - 6 * ys[..., 1] + ys[..., 0]) / 3.0


def _z_derivative(g: Jet2) -> Jet2:
    return (g.du() - 1j * g.dv()) * 0.5


def _zbar_derivative(g: Jet2) -> Jet2:
    return (g.du() + 1j * g.dv()) * 0.5


def omega_hat_jet(g: Jet2) -> Jet2:
    """omega_hat = conj(g)_z / (1 - |g|^2)^2, as a jet (two degrees below g)."""
    gbar = g.conjugate()
    gbar_z = _z_derivative(gbar)
    m = (1.0 - (g * gbar).real_part()).truncated(gbar_z.degree)
    return gbar_z / (m * m)


# -- conformal profile chart ---------------------------------------------------


class _ProfileIntegrand:
    """sqrt(E(r)/G(r)) along t = t0, evaluable as value or univariate jet.

    An array function (see cmc_lab.quadrature): the values at a (B,) array of
    radii come from one batched surface jet."""

    def __init__(self, S: Surface, t0: float):
        self.S = S
        self.t0 = t0

    def metric(self, r, degree):
        """(E, G) along t = t0 as univariate jets in r (the integrand needs no F),
        batched for a (B,) array r."""
        degree = min(degree, MAX_DEGREE - 1)  # metric jets sit one below X jets
        Xu, Xv = _tangents(self.S, r, np.full(np.shape(r), self.t0), degree + 1)
        return tuple(Jet1(r, degree, m.c[..., : degree + 1, 0].copy())
                     for m in (lorentz_inner(Xu, Xu), lorentz_inner(Xv, Xv)))

    def __call__(self, r):
        E, G = self.metric(r, 0)
        return np.sqrt(E.value / G.value)

    def jet(self, r0, degree: int = MAX_DEGREE) -> Jet1:
        E, G = self.metric(r0, degree)
        return jt.sqrt(E / G)


@dataclass
class ConformalProfile:
    """Reparametrization s(r) making (s, t) a conformal chart of a rotational
    surface; carries sigma with e^(2 sigma) = G(r(s)).

    s(r) is integrated once over the chart's r-range and read from the stored
    panels (see TabulatedPrimitive); r(s) inverts it there by safeguarded
    Newton on one panel's interpolant.  The surface sees the chart's t as
    t_sign * t, t_sign = CHART_T_SIGN * orientation: a reversed normal conjugates z."""

    surface: Surface
    r_anchor: float
    r_range: tuple
    s_table: TabulatedPrimitive
    t0: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def t_sign(self) -> float:
        return CHART_T_SIGN * self.surface.orientation

    def s_of_r(self, r: float) -> float:
        return self.s_table.value(r)

    def s_jet(self, r: float, degree=MAX_DEGREE) -> Jet1:
        return primitive_jet(self.s_table.integrand, r, self.s_of_r(r), degree)

    def r_of_s(self, s: float) -> float:
        """ValueError when s is outside s_range."""
        return self.s_table.solve(s)

    def r_jet_of_s(self, s, degree=MAX_DEGREE) -> Jet1:
        """The jet of r(s) at s, the inverse of the jet of s(r) at r = r(s).

        For a (B,) array s one batched jet: r(s) is solved per element, and
        the jets of s(r) and their inversion are batched."""
        r = np.array([self.r_of_s(x) for x in s]) if isinstance(s, np.ndarray) else self.r_of_s(s)
        return primitive_jet(self.s_table.integrand, r, s, degree).compose_inverse()

    @property
    def s_range(self):
        return (self.s_of_r(self.r_range[0]), self.s_of_r(self.r_range[1]))

    def surface_jets(self, s: float, t: float, degree=MAX_DEGREE):
        """Jets of X in the oriented chart (s, t)."""
        return _chart_jets(self, self.r_jet_of_s(s, degree), s, t, degree)

    def sigma_jet(self, s, degree=3) -> Jet1:
        """sigma(s) = 0.5 log G(r(s)) (the conformal factor exponent); one
        batched jet for a (B,) array s."""
        rj = self.r_jet_of_s(s, degree)
        _, G = self.s_table.integrand.metric(rj.value, degree)
        series = [G.c[..., n] for n in range(G.degree + 1)]  # (B,) arrays for a batch
        return jt.log(jt._compose(rj, series, G.base)) * 0.5

    def conformality_residual(self, s: float, t: float) -> float:
        X = self.surface_jets(s, t, 2)
        E, F, G = first_fundamental_form(partial_values(X, 1, 0), partial_values(X, 0, 1))
        return (abs(E - G) + abs(F)) / abs(E)


def _chart_jets(profile: ConformalProfile, rj: Jet1, s, t, degree: int):
    """Jets of X in the oriented chart (s, t) of `profile`, given the jet of
    r(s) at s (batched for (B,) arrays s and t)."""
    X = profile.surface.jet(rj.value, profile.t_sign * t, degree)
    R = _promote_r(rj, (s, t), degree)
    T = profile.t_sign * Jet2.coordinate((s, t), degree, 1)
    return tuple(jt.compose2(c, R, T) for c in X)


def conformal_profile_chart(
    S: Surface, r_min: float, r_max: float, r_anchor: Optional[float] = None, t0: float = 0.0
) -> ConformalProfile:
    """s(r) = int_anchor^r sqrt(E/G), from a regular anchor radius.

    The chart needs G > 0; a range reaching the rotation axis is clipped with
    a notice rather than rejected.
    """
    notes = []
    if r_min <= 0:
        notes.append(f"r_min {r_min} clipped to 1e-3 (G vanishes on the axis)")
        r_min = 1e-3
    if r_anchor is None:
        r_anchor = 0.5 * (r_min + r_max)
    Xu, Xv = _tangents(S, r_anchor, t0, 1)
    E, F, G = first_fundamental_form(partial_values(Xu, 0, 0), partial_values(Xv, 0, 0))
    if abs(F) > 1e-9:
        raise ValueError(f"chart requires F = 0 in (r, t); got F = {F}")
    if not (E > 0 and G > 0):
        raise NotSpacelikeError("chart requires a spacelike rotational surface")
    r_min, r_anchor, r_max = float(r_min), float(r_anchor), float(r_max)
    table = TabulatedPrimitive(_ProfileIntegrand(S, t0), r_min, r_anchor, r_max)
    return ConformalProfile(S, r_anchor, (r_min, r_max), table, t0, notes)


# -- Gauss data on a grid --------------------------------------------------------


@dataclass
class GaussData:
    """Gauss data on a conformal-chart grid: node (i, j) sits at
    (u0 + i du, v0 + j dv); g and omega_hat are (nu, nv) arrays, and g_jet is
    one batched complex jet (degree >= 2) whose element i * nv + j is node
    (i, j)."""

    u0: float
    v0: float
    du: float
    dv: float
    nu: int
    nv: int
    H: float
    g_jet: Jet2
    g: np.ndarray
    omega_hat: np.ndarray
    extension_notes: dict = field(default_factory=dict)

    def on_unit_circle(self, tol=UNIT_CIRCLE_TOL) -> np.ndarray:
        return abs(np.hypot(self.g.real, self.g.imag) - 1.0) < tol

    def derivatives(self):
        """(g_z, g_zbar, g_zzbar) at every node, (nu, nv) arrays."""
        gj = self.g_jet
        g_zzbar = (gj.partial(2, 0) + gj.partial(0, 2)) / 4.0
        return tuple(np.reshape(d, (self.nu, self.nv)) for d in (
            _z_derivative(gj).value, _zbar_derivative(gj).value, g_zzbar))

    def validate(self, circle_tol=UNIT_CIRCLE_TOL, gzbar_tol=1e-6):
        """Unit-circle nodes must have g_zbar ~ 0; omega_hat must be finite."""
        bad_omega = ~np.isfinite(self.omega_hat)
        g_zbar = abs(self.derivatives()[1])
        bad_zbar = self.on_unit_circle(circle_tol) & (g_zbar >= gzbar_tol)
        problems = []
        for i, j in np.argwhere(bad_omega | bad_zbar).tolist():
            if bad_omega[i, j]:
                problems.append((i, j, "omega_hat not finite"))
            if bad_zbar[i, j]:
                problems.append((i, j, f"|g_zbar| = {g_zbar[i, j]:.3e} at |g| = 1"))
        return problems

    def to_json(self) -> str:
        """Strict JSON (RFC 8259): a non-finite component is written as null."""

        def pairs(z):  # [re, im] per complex entry
            x = np.stack([np.real(z), np.imag(z)], -1)
            return np.where(np.isfinite(x), x, None).tolist()

        nodes = zip(pairs(self.g), pairs(self.omega_hat),
                    pairs(self.g_jet.c.reshape(self.nu, self.nv, -1)))
        payload = {
            "grid": {"u0": self.u0, "v0": self.v0, "du": self.du, "dv": self.dv,
                     "nu": self.nu, "nv": self.nv},
            "H": self.H,
            "degree": self.g_jet.degree,
            "nodes": [[{"g": g, "omega_hat": om, "g_jet": gj} for g, om, gj in zip(*row)]
                      for row in nodes],
        }
        return json.dumps(payload, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "GaussData":
        """Reads what to_json writes; a null component reads back as nan."""
        data = json.loads(text)
        grid = data["grid"]
        nu, nv, deg = grid["nu"], grid["nv"], int(data["degree"])

        def field_of(key):  # [re, im] pairs (null -> nan) to a complex array
            x = np.array([[nd[key] for nd in row] for row in data["nodes"]], dtype=float)
            if x.shape[-1:] != (2,):
                raise ValueError(f"{key}: expected [re, im] pairs")
            return x.view(complex)[..., 0]

        g, om, c = field_of("g"), field_of("omega_hat"), field_of("g_jet")
        if g.shape != (nu, nv) or om.shape != g.shape or c.shape != g.shape + ((deg + 1) ** 2,):
            raise ValueError(f"nodes do not form a {nu} x {nv} grid of degree-{deg} jets")
        i, j = np.divmod(np.arange(nu * nv), nv)
        base = (grid["u0"] + i * grid["du"], grid["v0"] + j * grid["dv"])
        g_jet = Jet2(base, deg, c.reshape(nu * nv, deg + 1, deg + 1))
        return cls(grid["u0"], grid["v0"], grid["du"], grid["dv"], nu, nv, data["H"], g_jet, g, om)


def gauss_data_from_surface(
    profile: ConformalProfile, s0, s1, t0, t1, ns: int, nt: int, degree: int = 4
) -> GaussData:
    """Sample g and omega_hat (with jets) on a conformal-chart grid.

    r(s) is solved once per row and its jets come from one batched inversion;
    the jets of all ns * nt nodes then come from one batched chart evaluation
    (node (i, j) is batch element i * nt + j)."""
    du = (s1 - s0) / (ns - 1)
    dv = (t1 - t0) / (nt - 1)
    ss = s0 + np.arange(ns) * du
    ts = t0 + np.arange(nt) * dv
    rows = profile.r_jet_of_s(ss, min(degree + 1, MAX_DEGREE))
    s_at = np.repeat(ss, nt)
    rj = Jet1(s_at, rows.degree, np.repeat(rows.c, nt, axis=0))
    gj = _gauss_jet_in_chart(profile, rj, s_at, np.tile(ts, ns), degree)
    g, om = (x.reshape(ns, nt).copy() for x in (gj.value, omega_hat_jet(gj).value))
    return GaussData(s0, t0, du, dv, ns, nt, profile.surface.H, gj, g, om)


def _gauss_jet_in_chart(profile: ConformalProfile, rj: Jet1, s, t, degree: int) -> Jet2:
    """The Gauss map's jet in the chart (s, t) of `profile`, given the jet of
    r(s) at s; for (B,) arrays s and t (and rj batched at s) one batched jet."""
    X = _chart_jets(profile, rj, s, t, min(degree + 1, MAX_DEGREE))
    # a t flip reverses the chart's cross product; undo it so nu stays the
    # surface-oriented normal (the one with H_mean = +H)
    return _gauss_of_frame(*_frame(X), profile.surface.orientation * profile.t_sign)


# -- residuals -------------------------------------------------------------------


# The residuals are roundoff-level sums of products, so they are evaluated on
# (re, im) pairs with the roundings of scalar complex arithmetic (and of
# Python's x ** 2): NumPy's complex array kernels may fuse a multiply-add or
# take |z| another way, and moving the last bit moves a residual of 1e-14.


def _times(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _one_minus_abs2(g):
    return 1.0 - np.float_power(np.hypot(g.real, g.imag), 2.0)


def harmonic_residual(gd: GaussData) -> np.ndarray:
    """|g_zzbar + 2 conj(g) g_z g_zbar / (1 - |g|^2)| at every node, a (nu, nv)
    array; nan where |g| = 1 (there use extended_harmonic_residual)."""
    on = gd.on_unit_circle()
    scale = 1.0 / np.where(on, 1.0, _one_minus_abs2(gd.g))
    g_z, g_zbar, g_zzbar = gd.derivatives()
    t = _times((2.0 * gd.g.real, -2.0 * gd.g.imag), (g_z.real, g_z.imag))
    t = _times(t, (g_zbar.real, g_zbar.imag))
    res = np.hypot(g_zzbar.real + t[0] * scale, g_zzbar.imag + t[1] * scale)
    return np.where(on, np.nan, res)


def extended_harmonic_residual(gd: GaussData) -> np.ndarray:
    """|g_zzbar + 2 (1 - |g|^2) conj(g) g_z conj(omega_hat)| at every node, a
    (nu, nv) array; defined across |g| = 1, nan where omega_hat is not finite."""
    m2 = 2.0 * _one_minus_abs2(gd.g)
    g_z, _, g_zzbar = gd.derivatives()
    with np.errstate(invalid="ignore"):  # an infinite omega_hat gives nan, as documented
        t = _times((m2 * gd.g.real, m2 * -gd.g.imag), (g_z.real, g_z.imag))
        t = _times(t, (gd.omega_hat.real, -gd.omega_hat.imag))
    res = np.hypot(g_zzbar.real + t[0], g_zzbar.imag + t[1])
    return np.where(np.isfinite(gd.omega_hat), res, np.nan)


def omega_hat(gd: GaussData, i: int, j: int) -> complex:
    """The representation 1-form coefficient at a node; unit-circle nodes are
    extended by a one-sided limit along the grid."""
    if not gd.on_unit_circle()[i, j]:
        return complex(gd.omega_hat[i, j])
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ii, jj = i + 3 * di, j + 3 * dj
        if 0 <= ii < gd.nu and 0 <= jj < gd.nv:
            w1, w2, w3 = (gd.omega_hat[i + n * di, j + n * dj] for n in (1, 2, 3))
            if np.isfinite([w1.real, w2.real, w3.real]).all():
                limit = 3 * w1 - 3 * w2 + w3  # quadratic one-sided extrapolation
                gd.extension_notes[(i, j)] = "limit-extrapolated"
                return complex(limit)
    raise ValueError("not regular extended harmonic: no usable neighbors for the limit")


def _integrand_jets(g: Jet2) -> tuple:
    """V = (-2g, 1+g^2, i(1-g^2)) * omega_hat as complex jets, from the jet of
    g (batched if g is)."""
    om = omega_hat_jet(g)
    gt = g.truncated(om.degree)
    return ((-2.0 * gt) * om, (1.0 + gt * gt) * om, (1j * (1.0 - gt * gt)) * om)


def _walk(start, steps, k0: int, axis: int):
    """Partial sums along `axis` out from index k0, where they equal `start`:
    step k is added going from k to k + 1 and subtracted going back, one step
    after the other."""
    steps = np.moveaxis(steps, axis, 0)
    up = np.cumsum(np.concatenate([start[None], steps[k0:]]), axis=0)
    down = np.cumsum(np.concatenate([start[None], -steps[:k0][::-1]]), axis=0)[::-1]
    return np.moveaxis(np.concatenate([down[:-1], up]), 0, axis)


def integrate_representation(gd: GaussData, H: Optional[float] = None, z0=(0, 0)):
    """Rebuild X on the grid by edgewise corrected-trapezoid path integration.

    Returns a dict with the (nu, nv, 3) vertex array, the worst oriented loop
    integral over grid cells (relative to the cell scale), and the integrand
    magnitude.  Holomorphic data (omega_hat = 0) is rejected: the
    representation needs a non-holomorphic harmonic map.
    """
    H = gd.H if H is None else H
    nu, nv = gd.nu, gd.nv
    jets = _integrand_jets(gd.g_jet)

    def grid(f):  # a value per component of the integrand jets, as (nu, nv, 3)
        return np.stack([f(jet) for jet in jets], -1).reshape(nu, nv, 3)

    V = grid(lambda jet: jet.value)
    Vu = grid(lambda jet: jet.du().value)
    Vv = grid(lambda jet: jet.dv().value)
    third = jets[0].degree >= 3
    Vu3 = grid(lambda jet: jet.partial(3, 0)) if third else np.zeros_like(V)
    Vv3 = grid(lambda jet: jet.partial(0, 3)) if third else np.zeros_like(V)
    if not (abs(gd.omega_hat) >= 1e-14).any():
        raise ValueError("holomorphic Gauss map excluded (omega_hat = 0 on the grid)")

    du, dv = gd.du, gd.dv
    # Euler-Maclaurin corrected trapezoid per edge, the derivatives from jets:
    # edge_u[i, j] is the integral of V dz from (i, j) to (i+1, j), dz = du,
    # and edge_v[i, j] from (i, j) to (i, j+1), dz = i dv
    edge_u = (
        du / 2 * (V[:-1] + V[1:])
        - du**2 / 12 * (Vu[1:] - Vu[:-1])
        + du**4 / 720 * (Vu3[1:] - Vu3[:-1])
    )
    edge_v = 1j * (
        dv / 2 * (V[:, :-1] + V[:, 1:])
        - dv**2 / 12 * (Vv[:, 1:] - Vv[:, :-1])
        + dv**4 / 720 * (Vv3[:, 1:] - Vv3[:, :-1])
    )

    # path integral along the z0 row, then along columns
    i0, j0 = z0
    row = _walk(np.zeros(3, complex), edge_u[:, j0], i0, 0)
    I = _walk(row, edge_v, j0, 1)
    X = 2.0 * representation_constant(H) * np.real(I)

    # the reconstruction only uses Re int V dz, and only that part is a closed
    # form (d Re(V dz) = -2 Im(V_zbar) du dv); the loop check measures it
    # (np.vecdot rounds each norm as np.linalg.norm of one vector does: by dot products)
    loop = np.real(edge_u[:, :-1] + edge_v[1:] - edge_u[:, 1:] - edge_v[:-1])
    W = V[:-1, :-1]
    scale = np.sqrt(np.vecdot(W.real, W.real) + np.vecdot(W.imag, W.imag)) * (abs(du) + abs(dv))
    rel = np.fmax(np.sqrt(np.vecdot(loop, loop)) / np.maximum(scale, 1e-300), 0.0)  # nan: 0
    worst, loop_max = (0, 0), 0.0
    if rel.size:
        k = int(np.argmax(rel))  # the first worst cell in row-major order
        worst, loop_max = divmod(k, nv - 1), float(rel.flat[k])

    return {
        "X": X,
        "loop_max_rel": loop_max,
        "worst_cell": worst,
        "integrand": V,
        "z0": (i0, j0),
        "H": H,
    }


def reconstruction_surface(gd: GaussData, rec=None):
    """The reconstruction as a Surface with exact jets at the grid nodes.

    Positions come from the path integral; all derivatives come from the
    integrand jets through X_u = 2 Re(c V), X_v = -2 Im(c V).  Off-node
    requests snap to the nearest node (the data is a grid, not a germ), which
    is enough for fundamental_forms on the reconstruction.  A batch of points
    (from mesh_export) indexes the batch of integrand jets, each point based
    at its own node.
    """
    from .surfaces import custom_surface, _probe_orientation

    if rec is None:
        rec = integrate_representation(gd)
    X = rec["X"]
    c = representation_constant(gd.H)
    cV = [c * comp.c for comp in _integrand_jets(gd.g_jet)]  # element i * nv + j: node (i, j)
    d = cV[0].shape[-1] - 1

    def builder(u, v, degree):
        i = np.clip(np.rint((np.asarray(u) - gd.u0) / gd.du).astype(int), 0, gd.nu - 1)
        j = np.clip(np.rint((np.asarray(v) - gd.v0) / gd.dv).astype(int), 0, gd.nv - 1)
        D = min(degree, d + 1)
        n = np.arange(1, D + 1)
        # d/du X = 2 Re(cV): row a of cV integrates in u to row a + 1; and
        # d/dv X = -2 Im(cV): on u = u0 row 0 integrates in v
        inside = np.add.outer(np.arange(D), np.arange(D)) < D  # a + 1 + b <= D
        out = []
        for comp in range(3):
            cv = cV[comp][i * gd.nv + j]
            arr = np.zeros(cv.shape[:-2] + (D + 1, D + 1))
            arr[..., 0, 0] = X[i, j, comp]
            arr[..., 1:, :D] = np.where(inside, 2.0 * cv[..., :D, :D].real / n[:, None], 0.0)
            arr[..., 0, 1:] = -2.0 * cv[..., 0, :D].imag / n
            out.append(Jet2((gd.u0 + i * gd.du, gd.v0 + j * gd.dv), D, arr))
        return tuple(out)

    S = custom_surface(
        builder,
        u_range=(gd.u0, gd.u0 + (gd.nu - 1) * gd.du),
        v_range=(gd.v0, gd.v0 + (gd.nv - 1) * gd.dv),
        H=gd.H,
        meta={"source": "representation"},
    )
    S.orientation = _probe_orientation(S, gd.H)
    return S


def derivative_identity_residual(gd: GaussData, i: int, j: int, X_u: np.ndarray, X_v: np.ndarray) -> float:
    """|X_z - c V| / max(|c V|, tiny) with X_z = (X_u - i X_v)/2 in the chart."""
    c = representation_constant(gd.H)
    V = np.array([complex(comp.value) for comp in _integrand_jets(gd.g_jet.element(i * gd.nv + j))])
    Xz = (X_u - 1j * X_v) / 2.0
    scale = max(float(np.linalg.norm(V)) * abs(c), 1e-300)
    return float(np.linalg.norm(Xz - c * V)) / scale


# -- round trip -------------------------------------------------------------------


def align_lorentz(Y_frame, X_frame):
    """The linear map sending the reconstruction frame to the original frame.

    Both frames are [X_u, X_v, nu] columns at the base node; with matching
    first fundamental forms their Gram matrices agree, so the map is a Lorentz
    isometry.
    """
    return np.asarray(Y_frame) @ np.linalg.inv(np.asarray(X_frame))


def representation_roundtrip(profile: ConformalProfile, gd: GaussData, rec=None):
    """Reconstruct from the Gauss data, align the frame at the base node, and
    return the worst vertex discrepancy against the original surface."""
    S = profile.surface
    if rec is None:
        rec = integrate_representation(gd)
    X = rec["X"]
    i0, j0 = rec["z0"]
    nu_, nv_ = gd.nu, gd.nv

    # original vertices (r(s) solved per row) and base frame in the chart
    r = [profile.r_of_s(s) for s in gd.u0 + np.arange(nu_) * gd.du]
    t = gd.v0 + np.arange(nv_) * gd.dv
    Y = np.stack([c.value for c in S.jet(np.repeat(r, nv_), profile.t_sign * np.tile(t, nu_), 0)],
                 -1).reshape(nu_, nv_, 3)

    Yj = profile.surface_jets(gd.u0 + i0 * gd.du, gd.v0 + j0 * gd.dv, 2)
    Yu, Yv = partial_values(Yj, 1, 0), partial_values(Yj, 0, 1)
    nuY = lorentz_normal(Yu, Yv)

    c = representation_constant(gd.H)
    V0 = rec["integrand"][i0, j0]
    Xu = 2.0 * np.real(c * V0)
    Xv = -2.0 * np.imag(c * V0)
    nuX = lorentz_normal(Xu, Xv)

    A = align_lorentz(np.column_stack([Yu, Yv, nuY]), np.column_stack([Xu, Xv, nuX]))
    aligned = np.einsum("ab,ijb->ija", A, X - X[i0, j0]) + Y[i0, j0]
    disc = np.linalg.norm(aligned - Y, axis=2).max()
    return {"discrepancy": float(disc), "aligned": aligned, "original": Y, "rec": rec}


# -- compatibility equations and the Laplace identity -------------------------------


def compatibility_residuals(sigma_zzbar4, sigma_val, q_val, q_zbar, H):
    """Residual moduli of 4 sigma_zzbar = e^(2 sigma) H^2 - 4 e^(-2 sigma)|q|^2
    and q_zbar = e^(2 sigma) H_z (constant H: the second is |q_zbar|)."""
    e2s = math.exp(2 * sigma_val)
    gauss = abs(sigma_zzbar4 - e2s * H * H + 4 / e2s * abs(q_val) ** 2)
    codazzi = abs(q_zbar)
    return gauss, codazzi


def gauss_codazzi_residual(profile: ConformalProfile, s: float, t: float, H=None):
    """Both compatibility residuals at a chart node, from jets.

    The Hopf coefficient is q = <X_zz, nu> = -2 c omega_hat g_z with c the
    derivative-identity constant (differentiate X_z = c V omega_hat once and
    pair with nu; <dV/dg, nu> = -2)."""
    S = profile.surface
    H = S.H if H is None else H
    sig = profile.sigma_jet(s, 3)
    sigma_zzbar4 = sig.derivative_value(2)  # sigma is t-independent: 4 s_zzbar = s_ss
    gj = _gauss_jet_in_chart(profile, profile.r_jet_of_s(s, 4), s, t, 3)
    om = omega_hat_jet(gj)
    q_jet = (-2.0 * representation_constant(H)) * (om * _z_derivative(gj).truncated(om.degree))
    q_zbar = complex(_zbar_derivative(q_jet).value)
    return compatibility_residuals(sigma_zzbar4, sig.value, complex(q_jet.value), q_zbar, H)


def laplacian_identity_residual(S: Surface, p):
    """Euclidean norm of Delta_{ds^2} X + 2 H nu at a spacelike regular point:
    a float, or a (B,) array for a pair p of (B,) arrays.

    The Laplacian is assembled from metric jets in the given chart:
    Delta f = ((G f_u - F f_v)/W)_u/W + ((E f_v - F f_u)/W)_v/W, W^2 = EG - F^2.
    A point off the spacelike regular set raises NotSpacelikeError; in a
    batch it reads NaN.
    """
    if S.H is None:
        raise ValueError("surface has no assigned mean curvature H")
    Xu, Xv = _tangents(S, p[0], p[1], 3)
    E, F, G = first_fundamental_form(Xu, Xv)
    disc = E * G - F * F
    spacelike = (disc.value > 0) & (E.value > 0)
    if np.ndim(spacelike) == 0 and not spacelike:
        raise NotSpacelikeError("not a spacelike regular point")
    if not np.all(spacelike):  # a batch: evaluate the spacelike points only
        norm = np.full(spacelike.shape, np.nan)
        if spacelike.any():
            norm[spacelike] = laplacian_identity_residual(S, (p[0][spacelike], p[1][spacelike]))
        return norm
    W = jt.sqrt(disc)
    lap = []
    for i in range(3):
        fu = (G * Xu[i] - F * Xv[i]) / W
        fv = (E * Xv[i] - F * Xu[i]) / W
        lap.append((fu.du().value + fv.dv().value) / W.value)
    # the normal from the frame's values, in floating point
    nu = lorentz_normal([c.value for c in Xu], [c.value for c in Xv], S.orientation)
    res = np.stack(lap, -1) + 2.0 * S.H * np.stack(nu, -1)
    norm = np.sqrt(np.vecdot(res, res))  # np.linalg.norm of each row, to the bit
    return float(norm) if np.ndim(norm) == 0 else norm


# -- locus characterization ----------------------------------------------------------


def singular_locus_characterization(S: Surface, box=None, n_grid: int = 41) -> dict:
    """Classify the singular loci in a region by the Gauss-map alternative:
    |g| = 1 (rank-1 loci), omega = 0, or |g| = infinity, with dX ranks sampled
    alongside."""
    from .singularities import trace_singular_curve

    records = trace_singular_curve(S, box=box, n_grid=n_grid)  # box None: the scan's default
    locus = []
    g_inf = []
    omega_zero = []
    for rec in records:
        p = np.asarray(rec.location)
        dlam = np.asarray(rec.dlam)
        T = dlam / max(np.linalg.norm(dlam), 1e-300)
        entry = {"location": list(map(float, rec.location)), "rank": rec.rank}
        try:
            vals = _abs_g_limit(S, np.array([p, p]), np.array([T, -T]), 1e-3)[1].tolist()
            entry["abs_g_limits"] = vals
            entry["type"] = "unit_circle" if max(abs(v - 1) for v in vals) < 1e-4 else "other"
            if any(not np.isfinite(v) or v > 1e6 for v in vals):
                entry["type"] = "g_infinity"
                entry["note"] = "untested against reference examples"
                g_inf.append(entry)
            elif rec.rank == 0:
                entry["type"] = "omega_zero"
                omega_zero.append(entry)
            else:
                locus.append(entry)
        except NotSpacelikeError:
            entry["type"] = "undetermined"
            locus.append(entry)
    return {
        "surface": S.family,
        "unit_circle_locus": locus,
        "omega_zero_locus": omega_zero,
        "g_infinity_locus": g_inf,
        "grid": n_grid,
    }
