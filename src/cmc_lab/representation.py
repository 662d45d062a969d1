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

Array contract.  The chart's speed sqrt(E/G) and s(r) itself are closed forms
of r on each Delaunay family (see `_chart_speed` and ConformalProfile), array
functions that read no surface jet.  `gauss_data_from_surface` solves r(s)
for all grid rows in one Newton solve, inverts the rows' jets of s(r) in one
batched call, and evaluates the whole grid in one batched chart call (within
1e-13 of a node-by-node evaluation, where NumPy's elementary functions on
arrays differ in the last bits).
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
from typing import Callable

import numpy as np

from . import jets as jt
from .jets import Jet1, Jet2, MAX_DEGREE, partial_values
from .lorentz import (
    ExtComplex,
    NotSpacelikeError,
    first_fundamental_form,
    lorentz_cross,
    lorentz_inner,
    lorentz_normal,
)
from .quadrature import primitive_jet
from .surfaces import Surface, _basis

UNIT_CIRCLE_TOL = 1e-8
R_OF_S_STEP = 1e-14  # above the rounding noise of s(r) in r: up to about 1e-15 r next to k = 1

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
    from the tangents.

    A point off the spacelike regular set raises NotSpacelikeError, and one
    where nu0 = 1 (g at infinity) ZeroDivisionError; in a batch the first
    reads NaN and the second inf.
    """
    Xu, Xv = _frame(S.jet(u, v, 1))
    if not np.ndim(u):
        return _gauss_of_frame(Xu, Xv, S.orientation).value
    w = lorentz_cross([c.value for c in Xu], [c.value for c in Xv])
    ok = spacelike = lorentz_inner(w, w) < 0  # the test of lorentz_normal
    if spacelike.all():
        try:
            return _gauss_of_frame(Xu, Xv, S.orientation).value
        except ZeroDivisionError:  # the test of _gauss_of_frame
            ok = abs(1.0 - lorentz_normal(Xu, Xv, S.orientation)[0].value) >= 1e-14
    g = np.where(spacelike, complex(np.inf, 0.0), complex(np.nan, np.nan))
    if ok.any():  # evaluate the other points only
        g[ok] = _gauss_values(S, u[ok], v[ok])
    return g


def gauss_map_of(S: Surface, p) -> ExtComplex:
    """g = (nu1 + i nu2)/(1 - nu0), the stereographic image of nu, at a spacelike
    regular point; the tagged infinity where nu0 = 1."""
    try:
        return ExtComplex.of(complex(_gauss_values(S, p[0], p[1])))
    except ZeroDivisionError:
        return ExtComplex.infinity()


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


def _chart_speed(S: Surface):
    """s'(r) = sqrt(E/G) of the conformal chart of a Delaunay surface, in
    closed form (a function of a jet or an array); ValueError for any other
    surface.

    G = r^2 on all four families.  About an axis E = |1 - F'^2|/(4 H^2) and
    |1 - F'^2| = 4 r^2/delta, so s' = 1/(|H| sqrt(delta)); about the lightlike axis
    E = 4 zeta' = r^2/(H^2 (1 +- r^2)^2), so s' = 1/(|H| (1 +- r^2)), + on
    variant i and - on variant ii."""
    if "radicand" not in S.meta:  # the factors (p, q) of a Delaunay surface's radicand
        raise ValueError(f"no conformal profile chart for {S.family}: the chart takes a "
                         "rotational Delaunay surface")
    H, (e, _) = abs(S.H), S.meta["radicand"]
    if S.family.startswith("delaunay_lightlike"):  # e = p = q = +-1
        return lambda x: 1.0 / (H * (1.0 + e * x * x))
    delta = S.meta["delta"]
    return lambda x: 1.0 / (H * jt.sqrt(delta(x)))


@dataclass
class ConformalProfile:
    """Reparametrization s(r) making (s, t) a conformal chart of a rotational
    surface; carries sigma with e^(2 sigma) = G(r(s)).

    s(r) = (J(r) - J(r_anchor))/|H| in closed form, J(r) = int_0^r dx /
    sqrt((x^2 + p)(x^2 + q)), the basis integral I0 of the surface's profiles
    (surfaces._basis, Carlson's R_F) over its radicand factors (p, q)
    (S.meta["radicand"], see surfaces._axis_delta);
    r(s) solves it by Newton, safeguarded by bisection, on all rows at once.
    The surface sees the chart's t as t_sign * t, t_sign = CHART_T_SIGN *
    orientation: a reversed normal conjugates z."""

    surface: Surface
    r_anchor: float
    r_range: tuple
    speed: Callable
    radicand: tuple
    notes: list = field(default_factory=list)

    def __post_init__(self):
        self._s_anchor, r = 0.0, np.linspace(*self.r_range, 9)  # where r(s) starts from
        s = self.s_of_r(np.append(self.r_anchor, r))
        self._s_anchor, self._nodes = s[0], (s[1:] - s[0], r)
        self.s_range = (float(self._nodes[0][0]), float(self._nodes[0][-1]))

    @property
    def t_sign(self) -> float:
        return CHART_T_SIGN * self.surface.orientation

    def s_of_r(self, r):
        """s(r) for a number or an array r."""
        return _basis(self.radicand, r)[0] / abs(self.surface.H) - self._s_anchor

    def s_jet(self, r: float, degree=MAX_DEGREE) -> Jet1:
        return primitive_jet(self.speed, r, self.s_of_r(r), degree)

    def r_of_s(self, s):
        """r(s) for a number or an array s; ValueError when s is outside
        s_range.  Newton from the broken line through s(r) at 9 radii of the
        chart, kept in the bracket of the radii tried so far, each element until
        its step is at most R_OF_S_STEP r or lands on an end of its bracket (a
        radius tried already, where s(r) is noisier than the step).  Every other
        step lands strictly inside the bracket, which then shrinks, so each
        element stops."""
        (s_lo, s_hi), (r_lo, r_hi) = self.s_range, self.r_range
        s = np.asarray(s, float)
        if not np.all((s_lo <= s) & (s <= s_hi)):
            raise ValueError(f"{s} outside the range [{s_lo}, {s_hi}]")
        r = np.array(np.interp(s, *self._nodes))
        live = np.arange(s.size)  # the elements still stepping, and their x, target, bracket
        x, target, lo, hi = r.ravel(), s.ravel(), np.full(s.size, r_lo), np.full(s.size, r_hi)
        while live.size:
            g = self.s_of_r(x) - target
            lo, hi = np.where(g < 0, x, lo), np.where(g > 0, x, hi)
            new = x - g / self.speed(x)
            new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
            on = (np.abs(new - x) > R_OF_S_STEP * x) & (lo < new) & (new < hi)
            r.flat[live] = new
            live, x, target, lo, hi = live[on], new[on], target[on], lo[on], hi[on]
        return r[()]

    def r_jet_of_s(self, s, degree=MAX_DEGREE) -> Jet1:
        """The jet of r(s) at s, the inverse of the jet of s(r) at r = r(s);
        for a (B,) array s one batched jet from one solve."""
        return primitive_jet(self.speed, self.r_of_s(s), s, degree).compose_inverse()

    def surface_jets(self, s: float, t: float, degree=MAX_DEGREE):
        """Jets of X in the oriented chart (s, t)."""
        return _chart_jets(self, self.r_jet_of_s(s, degree), s, t, degree)

    def sigma_jet(self, s, degree=3) -> Jet1:
        """sigma(s) = 0.5 log G(r(s)) = log r(s) (the conformal factor
        exponent; G = r^2, see _chart_speed); one batched jet for a (B,) array s."""
        return jt.log(self.r_jet_of_s(s, degree))

    def conformality_residual(self, s: float, t: float) -> float:
        X = self.surface_jets(s, t, 2)
        E, F, G = first_fundamental_form(partial_values(X, 1, 0), partial_values(X, 0, 1))
        return (abs(E - G) + abs(F)) / abs(E)


def _chart_jets(profile: ConformalProfile, rj: Jet1, s, t, degree: int):
    """Jets of X in the oriented chart (s, t) of `profile`, given the jet of
    r(s) at s (batched for (B,) arrays s and t)."""
    X = profile.surface.jet(rj.value, profile.t_sign * t, degree)
    R = Jet2.lift(rj, (s, t), degree)
    T = profile.t_sign * Jet2.coordinate((s, t), degree, 1)
    return jt.compose2(X, R, T)


def conformal_profile_chart(S: Surface, r_min: float, r_max: float) -> ConformalProfile:
    """s(r) = int_anchor^r sqrt(E/G), from the anchor radius (r_min + r_max)/2,
    for a Delaunay surface (ValueError for any other; see _chart_speed).

    The chart needs G > 0; a range reaching the rotation axis is clipped with
    a notice rather than rejected.
    """
    speed = _chart_speed(S)
    notes = []
    if r_min <= 0:
        notes.append(f"r_min {r_min} clipped to 1e-3 (G vanishes on the axis)")
        r_min = 1e-3
    if not r_min < r_max:
        raise ValueError(f"need r_min < r_max, got {r_min}, {r_max}")
    r_anchor = 0.5 * (r_min + r_max)
    Xu, Xv = _frame(S.jet(r_anchor, 0.0, 1))
    E, F, G = first_fundamental_form(partial_values(Xu, 0, 0), partial_values(Xv, 0, 0))
    if abs(F) > 1e-9:
        raise ValueError(f"chart requires F = 0 in (r, t); got F = {F}")
    if not (E > 0 and G > 0):
        raise NotSpacelikeError("chart requires a spacelike rotational surface")
    return ConformalProfile(S, r_anchor, (r_min, r_max), speed, S.meta["radicand"], notes)


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

    def on_unit_circle(self, tol=UNIT_CIRCLE_TOL) -> np.ndarray:
        return abs(np.hypot(self.g.real, self.g.imag) - 1.0) < tol

    def derivatives(self):
        """(g_z, g_zbar, g_zzbar) at every node, (nu, nv) arrays."""
        gj = self.g_jet
        g_zzbar = (gj.partial(2, 0) + gj.partial(0, 2)) / 4.0
        return tuple(np.reshape(d, (self.nu, self.nv)) for d in (
            _z_derivative(gj).value, _zbar_derivative(gj).value, g_zzbar))

    def validate(self):
        """Unit-circle nodes must have |g_zbar| < 1e-6; omega_hat must be finite."""
        bad_omega = ~np.isfinite(self.omega_hat)
        g_zbar = abs(self.derivatives()[1])
        bad_zbar = self.on_unit_circle() & (g_zbar >= 1e-6)
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

    r(s) is solved for all rows at once and its jets come from one batched inversion;
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


def integrate_representation(gd: GaussData, z0=(0, 0)):
    """Rebuild X on the grid by edgewise corrected-trapezoid path integration.

    Returns a dict with the (nu, nv, 3) vertex array, the worst oriented loop
    integral over grid cells (relative to the cell scale), and the integrand
    magnitude.  Holomorphic data (omega_hat = 0) is rejected: the
    representation needs a non-holomorphic harmonic map.
    """
    H, nu, nv = gd.H, gd.nu, gd.nv
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

    # original vertices (r(s) solved for all rows at once) and base frame in the chart
    r = profile.r_of_s(gd.u0 + np.arange(nu_) * gd.du)
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


def gauss_codazzi_residual(profile: ConformalProfile, s: float, t: float):
    """Both compatibility residuals at a chart node, from jets.

    The Hopf coefficient is q = <X_zz, nu> = -2 c omega_hat g_z with c the
    derivative-identity constant (differentiate X_z = c V omega_hat once and
    pair with nu; <dV/dg, nu> = -2)."""
    H = profile.surface.H
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
    Xu, Xv = _frame(S.jet(p[0], p[1], 3))
    E, F, G = first_fundamental_form(Xu, Xv)
    disc = E * G - F * F
    w = lorentz_cross([c.value for c in Xu], [c.value for c in Xv])
    spacelike = (disc.value > 0) & (E.value > 0) & (lorentz_inner(w, w) < 0)  # lorentz_normal's test
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
