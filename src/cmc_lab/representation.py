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
cmc_lab.quadrature): one GK15 panel is one batched surface jet at its 15
radii.  `gauss_data_from_surface` inverts r(s) once per grid row and then
evaluates the whole grid in one batched chart call; each node's g_jet is an
element of that batch (within 1e-13 of a node-by-node evaluation, where the
elementary functions of NumPy's array kernels differ in the last bits).
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
from .quadrature import TabulatedPrimitive, primitive_jet
from .surfaces import Surface, _promote_r

UNIT_CIRCLE_TOL = 1e-8

# chart orientation: the surface's rotation parameter enters the conformal
# chart as t = CHART_T_SIGN * v, which orients z = u + iv so that X_z is
# proportional to (-2g, 1+g^2, i(1-g^2)) omega_hat (in the opposite
# orientation no scalar proportionality holds at all)
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


def _gauss_of_frame(X, sign) -> Jet2:
    """Complex jet of g = (nu1 + i nu2)/(1 - nu0), nu the normal of the X jets
    oriented by `sign`; one degree below X, and batched if X is."""
    nu = lorentz_normal([c.du() for c in X], [c.dv() for c in X], sign)
    num = nu[1] + 1j * nu[2]
    den = 1.0 - nu[0]
    if np.any(abs(den.value) < 1e-14):
        raise ZeroDivisionError("Gauss map at infinity (nu0 = 1)")
    return num / den


def gauss_jet(S: Surface, p, degree=3) -> Jet2:
    """Complex jet of g = (nu1 + i nu2)/(1 - nu0) in the surface parameters."""
    return _gauss_of_frame(S.jet(p[0], p[1], min(degree + 1, MAX_DEGREE)), S.orientation)


def gauss_map_of(S: Surface, p) -> ExtComplex:
    """g = stereographic(nu) at a spacelike regular point."""
    try:
        g = gauss_jet(S, p, degree=0)
    except ZeroDivisionError:
        return ExtComplex.infinity()
    return ExtComplex.of(complex(g.value))


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
        X = self.S.jet(r, np.full(np.shape(r), self.t0), degree + 1)
        Xu, Xv = [c.du() for c in X], [c.dv() for c in X]
        return tuple(Jet1(r, degree, m.c[..., : degree + 1, 0].copy())
                     for m in (lorentz_inner(Xu, Xu), lorentz_inner(Xv, Xv)))

    def __call__(self, r):
        E, G = self.metric(r, 0)
        return np.sqrt(E.value / G.value)

    def jet(self, r0: float, degree: int = MAX_DEGREE) -> Jet1:
        E, G = self.metric(float(r0), degree)
        return jt.sqrt(E / G)


@dataclass
class ConformalProfile:
    """Reparametrization s(r) making (s, t) a conformal chart of a rotational
    surface; carries sigma with e^(2 sigma) = G(r(s)).

    s(r) is integrated once over the chart's r-range and read from the stored
    panels (see TabulatedPrimitive); r(s) inverts it there by safeguarded
    Newton on one panel's interpolant."""

    surface: Surface
    r_anchor: float
    r_range: tuple
    s_table: TabulatedPrimitive
    t0: float = 0.0
    notes: list = field(default_factory=list)

    def s_of_r(self, r: float) -> float:
        return self.s_table.value(r)

    def s_jet(self, r: float, degree=MAX_DEGREE) -> Jet1:
        return primitive_jet(self.s_table.integrand, r, self.s_of_r(r), degree)

    def r_of_s(self, s: float) -> float:
        """ValueError when s is outside s_range."""
        return self.s_table.solve(s)

    def r_jet_of_s(self, s: float, degree=MAX_DEGREE) -> Jet1:
        r = self.r_of_s(s)
        return self.s_jet(r, degree).compose_inverse()

    @property
    def s_range(self):
        return (self.s_of_r(self.r_range[0]), self.s_of_r(self.r_range[1]))

    def surface_jets(self, s: float, t: float, degree=MAX_DEGREE):
        """Jets of X in the oriented chart (s, t); the surface sees t flipped."""
        return _chart_jets(self.surface, self.r_jet_of_s(s, degree), s, t, degree)

    def sigma_jet(self, s: float, degree=3) -> Jet1:
        """sigma(s) = 0.5 log G(r(s)) (the conformal factor exponent)."""
        rj = self.r_jet_of_s(s, degree)
        _, G = self.s_table.integrand.metric(rj.value, degree)
        return jt.log(jt._compose(rj, G.c, G.base)) * 0.5

    def conformality_residual(self, s: float, t: float) -> float:
        X = self.surface_jets(s, t, 2)
        E, F, G = first_fundamental_form(partial_values(X, 1, 0), partial_values(X, 0, 1))
        return (abs(E - G) + abs(F)) / abs(E)


def _chart_jets(S: Surface, rj: Jet1, s, t, degree: int):
    """Jets of X in the oriented chart (s, t), given the jet of r(s) at s
    (batched for (B,) arrays s and t)."""
    X = S.jet(rj.value, CHART_T_SIGN * t, degree)
    R = _promote_r(rj, (s, t), degree)
    T = CHART_T_SIGN * Jet2.coordinate((s, t), degree, 1)
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
    X = S.jet(r_anchor, t0, 1)
    E, F, G = first_fundamental_form(partial_values(X, 1, 0), partial_values(X, 0, 1))
    if abs(F) > 1e-9:
        raise ValueError(f"chart requires F = 0 in (r, t); got F = {F}")
    if not (E > 0 and G > 0):
        raise NotSpacelikeError("chart requires a spacelike rotational surface")
    r_min, r_anchor, r_max = float(r_min), float(r_anchor), float(r_max)
    table = TabulatedPrimitive(_ProfileIntegrand(S, t0), r_min, r_anchor, r_max)
    return ConformalProfile(S, r_anchor, (r_min, r_max), table, t0, notes)


# -- Gauss data on a grid --------------------------------------------------------


@dataclass
class GaussNode:
    g: complex
    g_jet: Jet2  # complex jet in the chart coordinates, degree >= 2
    omega_hat: complex

    def derivatives(self):
        gj = self.g_jet
        g_z = complex(_z_derivative(gj).value)
        g_zbar = complex(_zbar_derivative(gj).value)
        g_zzbar = complex((gj.partial(2, 0) + gj.partial(0, 2)) / 4.0)
        return g_z, g_zbar, g_zzbar


@dataclass
class GaussData:
    u0: float
    v0: float
    du: float
    dv: float
    nu: int
    nv: int
    H: float
    nodes: list  # nested [i][j] -> GaussNode
    extension_notes: dict = field(default_factory=dict)

    def node(self, i, j) -> GaussNode:
        return self.nodes[i][j]

    def z(self, i, j) -> complex:
        return complex(self.u0 + i * self.du, self.v0 + j * self.dv)

    def validate(self, circle_tol=UNIT_CIRCLE_TOL, gzbar_tol=1e-6):
        """Unit-circle nodes must have g_zbar ~ 0; omega_hat must be finite."""
        problems = []
        for i in range(self.nu):
            for j in range(self.nv):
                nd = self.node(i, j)
                if not np.isfinite([nd.omega_hat.real, nd.omega_hat.imag]).all():
                    problems.append((i, j, "omega_hat not finite"))
                if abs(abs(nd.g) - 1.0) < circle_tol:
                    _, g_zbar, _ = nd.derivatives()
                    if abs(g_zbar) >= gzbar_tol:
                        problems.append((i, j, f"|g_zbar| = {abs(g_zbar):.3e} at |g| = 1"))
        return problems

    def to_json(self) -> str:
        """Strict JSON (RFC 8259): a non-finite component is written as null."""

        def cj(z):
            return [x if math.isfinite(x) else None for x in (float(np.real(z)), float(np.imag(z)))]

        payload = {
            "grid": {"u0": self.u0, "v0": self.v0, "du": self.du, "dv": self.dv,
                     "nu": self.nu, "nv": self.nv},
            "H": self.H,
            "degree": self.nodes[0][0].g_jet.degree,
            "nodes": [
                [
                    {
                        "g": cj(nd.g),
                        "omega_hat": cj(nd.omega_hat),
                        "g_jet": [cj(z) for z in nd.g_jet.c.ravel()],
                    }
                    for nd in row
                ]
                for row in self.nodes
            ],
        }
        return json.dumps(payload, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "GaussData":
        """Reads what to_json writes; a null component reads back as nan."""

        def cj(pair):
            return complex(*(math.nan if x is None else x for x in pair))

        data = json.loads(text)
        grid = data["grid"]
        deg = int(data["degree"])
        nodes = []
        for i, row in enumerate(data["nodes"]):
            out = []
            for j, nd in enumerate(row):
                base = (grid["u0"] + i * grid["du"], grid["v0"] + j * grid["dv"])
                c = np.array([cj(z) for z in nd["g_jet"]]).reshape(deg + 1, deg + 1)
                out.append(GaussNode(cj(nd["g"]), Jet2(base, deg, c), cj(nd["omega_hat"])))
            nodes.append(out)
        return cls(grid["u0"], grid["v0"], grid["du"], grid["dv"],
                   grid["nu"], grid["nv"], data["H"], nodes)


def gauss_data_from_surface(
    profile: ConformalProfile, s0, s1, t0, t1, ns: int, nt: int, degree: int = 4
) -> GaussData:
    """Sample g and omega_hat (with jets) on a conformal-chart grid.

    r(s) is inverted once per row; the jets of all ns * nt nodes then come
    from one batched chart evaluation (node (i, j) is batch element i * nt + j)."""
    S = profile.surface
    du = (s1 - s0) / (ns - 1)
    dv = (t1 - t0) / (nt - 1)
    ss = [s0 + i * du for i in range(ns)]
    ts = [t0 + j * dv for j in range(nt)]
    r_degree = min(degree + 1, MAX_DEGREE)
    rows = np.array([profile.r_jet_of_s(s, r_degree).c for s in ss])
    s_at = np.repeat(ss, nt)
    rj = Jet1(s_at, r_degree, np.repeat(rows, nt, axis=0))
    gj = _gauss_jet_in_chart(S, rj, s_at, np.tile(ts, ns), degree)
    g, om = gj.value, omega_hat_jet(gj).value
    nodes = [[GaussNode(complex(g[n]), gj.element(n), complex(om[n]))
              for n in range(i * nt, (i + 1) * nt)] for i in range(ns)]
    return GaussData(s0, t0, du, dv, ns, nt, S.H, nodes)


def _gauss_jet_in_chart(S: Surface, rj: Jet1, s, t, degree: int) -> Jet2:
    """The Gauss map's jet in the chart (s, t), given the jet of r(s) at s; for
    (B,) arrays s and t (and rj batched at s) one batched jet."""
    X = _chart_jets(S, rj, s, t, min(degree + 1, MAX_DEGREE))
    # the t flip reverses the chart's cross product; undo it so nu stays the
    # surface-oriented normal (the one with H_mean = +H)
    return _gauss_of_frame(X, S.orientation * CHART_T_SIGN)


# -- residuals -------------------------------------------------------------------


def harmonic_residual(gd: GaussData, i: int, j: int) -> float:
    """|g_zzbar + 2 conj(g) g_z g_zbar / (1 - |g|^2)| at a node with |g| != 1."""
    nd = gd.node(i, j)
    m = 1.0 - abs(nd.g) ** 2
    if abs(abs(nd.g) - 1.0) < UNIT_CIRCLE_TOL:
        raise ValueError("|g| = 1: use extended_harmonic_residual")
    g_z, g_zbar, g_zzbar = nd.derivatives()
    return abs(g_zzbar + 2.0 * np.conj(nd.g) * g_z * g_zbar / m)


def extended_harmonic_residual(gd: GaussData, i: int, j: int) -> float:
    """|g_zzbar + 2 (1 - |g|^2) conj(g) g_z conj(omega_hat)|; defined across |g| = 1."""
    nd = gd.node(i, j)
    if not np.isfinite([nd.omega_hat.real, nd.omega_hat.imag]).all():
        raise ValueError("not regular extended harmonic: omega_hat not extendable")
    m = 1.0 - abs(nd.g) ** 2
    g_z, _, g_zzbar = nd.derivatives()
    return abs(g_zzbar + 2.0 * m * np.conj(nd.g) * g_z * np.conj(nd.omega_hat))


def omega_hat(gd: GaussData, i: int, j: int) -> complex:
    """The representation 1-form coefficient at a node; unit-circle nodes are
    extended by a one-sided limit along the grid."""
    nd = gd.node(i, j)
    if abs(abs(nd.g) - 1.0) >= UNIT_CIRCLE_TOL:
        return nd.omega_hat
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ii, jj = i + 3 * di, j + 3 * dj
        if 0 <= ii < gd.nu and 0 <= jj < gd.nv:
            w1 = gd.node(i + di, j + dj).omega_hat
            w2 = gd.node(i + 2 * di, j + 2 * dj).omega_hat
            w3 = gd.node(i + 3 * di, j + 3 * dj).omega_hat
            if np.isfinite([w1.real, w2.real, w3.real]).all():
                limit = 3 * w1 - 3 * w2 + w3  # quadratic one-sided extrapolation
                gd.extension_notes[(i, j)] = "limit-extrapolated"
                return complex(limit)
    raise ValueError("not regular extended harmonic: no usable neighbors for the limit")


def _integrand_jets(nd: GaussNode) -> tuple:
    """V = (-2g, 1+g^2, i(1-g^2)) * omega_hat as complex jets."""
    g = nd.g_jet
    om = omega_hat_jet(g)
    D = om.degree
    gt = g.truncated(D)
    return ((-2.0 * gt) * om, (1.0 + gt * gt) * om, (1j * (1.0 - gt * gt)) * om)


def integrate_representation(gd: GaussData, H: Optional[float] = None, z0=(0, 0)):
    """Rebuild X on the grid by edgewise corrected-trapezoid path integration.

    Returns a dict with the (nu, nv, 3) vertex array, the worst oriented loop
    integral over grid cells (relative to the cell scale), and the integrand
    magnitude.  Holomorphic data (omega_hat = 0) is rejected: the
    representation needs a non-holomorphic harmonic map.
    """
    H = gd.H if H is None else H
    nu, nv = gd.nu, gd.nv
    V = np.empty((nu, nv, 3), dtype=complex)
    Vu = np.empty_like(V)
    Vv = np.empty_like(V)
    Vu3 = np.zeros_like(V)
    Vv3 = np.zeros_like(V)
    om_scale = 0.0
    for i in range(nu):
        for j in range(nv):
            jets = _integrand_jets(gd.node(i, j))
            for c in range(3):
                V[i, j, c] = jets[c].value
                Vu[i, j, c] = jets[c].du().value
                Vv[i, j, c] = jets[c].dv().value
                if jets[c].degree >= 3:
                    Vu3[i, j, c] = jets[c].partial(3, 0)
                    Vv3[i, j, c] = jets[c].partial(0, 3)
            om_scale = max(om_scale, abs(gd.node(i, j).omega_hat))
    if om_scale < 1e-14:
        raise ValueError("holomorphic Gauss map excluded (omega_hat = 0 on the grid)")

    du, dv = gd.du, gd.dv

    # Euler-Maclaurin corrected trapezoid per edge, the derivatives from jets
    def edge_u(i, j):  # integral of V dz from (i,j) to (i+1,j); dz = du
        return (
            du / 2 * (V[i, j] + V[i + 1, j])
            - du**2 / 12 * (Vu[i + 1, j] - Vu[i, j])
            + du**4 / 720 * (Vu3[i + 1, j] - Vu3[i, j])
        )

    def edge_v(i, j):  # from (i,j) to (i,j+1); dz = i dv
        return 1j * (
            dv / 2 * (V[i, j] + V[i, j + 1])
            - dv**2 / 12 * (Vv[i, j + 1] - Vv[i, j])
            + dv**4 / 720 * (Vv3[i, j + 1] - Vv3[i, j])
        )

    # path integral along the z0 row, then along columns
    I = np.zeros((nu, nv, 3), dtype=complex)
    i0, j0 = z0
    for i in range(i0 + 1, nu):
        I[i, j0] = I[i - 1, j0] + edge_u(i - 1, j0)
    for i in range(i0 - 1, -1, -1):
        I[i, j0] = I[i + 1, j0] - edge_u(i, j0)
    for i in range(nu):
        for j in range(j0 + 1, nv):
            I[i, j] = I[i, j - 1] + edge_v(i, j - 1)
        for j in range(j0 - 1, -1, -1):
            I[i, j] = I[i, j + 1] - edge_v(i, j)

    X = 2.0 * representation_constant(H) * np.real(I)

    # the reconstruction only uses Re int V dz, and only that part is a closed
    # form (d Re(V dz) = -2 Im(V_zbar) du dv); the loop check measures it
    loop_max = 0.0
    worst_cell = (0, 0)
    for i in range(nu - 1):
        for j in range(nv - 1):
            loop = edge_u(i, j) + edge_v(i + 1, j) - edge_u(i, j + 1) - edge_v(i, j)
            scale = max(
                np.linalg.norm(V[i, j]) * (abs(du) + abs(dv)), 1e-300
            )
            rel = float(np.linalg.norm(np.real(loop))) / scale
            if rel > loop_max:
                loop_max, worst_cell = rel, (i, j)

    return {
        "X": X,
        "loop_max_rel": loop_max,
        "worst_cell": worst_cell,
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
    (from mesh_export) is served node by node.
    """
    from .surfaces import custom_surface, _probe_orientation

    if rec is None:
        rec = integrate_representation(gd)
    X = rec["X"]
    c = representation_constant(gd.H)

    def node_jets(u, v, degree):
        i = int(round((u - gd.u0) / gd.du))
        j = int(round((v - gd.v0) / gd.dv))
        i = min(max(i, 0), gd.nu - 1)
        j = min(max(j, 0), gd.nv - 1)
        V = _integrand_jets(gd.node(i, j))
        D = min(degree, V[0].degree + 1)
        base = (gd.u0 + i * gd.du, gd.v0 + j * gd.dv)
        out = []
        for comp in range(3):
            arr = np.zeros((D + 1, D + 1))
            arr[0, 0] = X[i, j, comp]
            cv = (c * V[comp].c).astype(complex)
            for a in range(D):
                for b in range(D - a):
                    if a + b > V[comp].degree:
                        continue
                    # d/du X = 2 Re(cV); column b of row a integrates in u
                    arr[a + 1, b] = 2.0 * cv[a, b].real / (a + 1)
            for b in range(D):
                if b <= V[comp].degree:
                    arr[0, b + 1] = -2.0 * cv[0, b].imag / (b + 1)
            out.append(Jet2(base, D, arr))
        return tuple(out)

    def builder(u, v, degree):
        if not isinstance(u, np.ndarray):
            return node_jets(u, v, degree)
        # a batch of points: each snaps to its own node, based there
        per_point = [node_jets(a, b, degree) for a, b in zip(u.tolist(), v.tolist())]
        return tuple(
            Jet2(tuple(np.array([p[comp].base[axis] for p in per_point]) for axis in (0, 1)),
                 per_point[0][comp].degree, np.stack([p[comp].c for p in per_point]))
            for comp in range(3))

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
    nd = gd.node(i, j)
    c = representation_constant(gd.H)
    V = np.array([complex(comp.value) for comp in _integrand_jets(nd)])
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

    # original vertices and base frame in the chart
    Y = np.empty((nu_, nv_, 3))
    for i in range(nu_):
        s = gd.u0 + i * gd.du
        r = profile.r_of_s(s)
        for j in range(nv_):
            t = gd.v0 + j * gd.dv
            Y[i, j] = S.point(r, CHART_T_SIGN * t)

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
    gj = _gauss_jet_in_chart(S, profile.r_jet_of_s(s, 4), s, t, 3)
    om = omega_hat_jet(gj)
    q_jet = (-2.0 * representation_constant(H)) * (om * _z_derivative(gj).truncated(om.degree))
    q_zbar = complex(_zbar_derivative(q_jet).value)
    return compatibility_residuals(sigma_zzbar4, sig.value, complex(q_jet.value), q_zbar, H)


def laplacian_identity_residual(S: Surface, p) -> float:
    """Euclidean norm of Delta_{ds^2} X + 2 H nu at a spacelike regular point.

    The Laplacian is assembled from metric jets in the given chart:
    Delta f = ((G f_u - F f_v)/W)_u/W + ((E f_v - F f_u)/W)_v/W, W^2 = EG - F^2.
    """
    if S.H is None:
        raise ValueError("surface has no assigned mean curvature H")
    X = S.jet(p[0], p[1], 3)
    Xu = [c.du() for c in X]
    Xv = [c.dv() for c in X]
    E, F, G = first_fundamental_form(Xu, Xv)
    disc = E * G - F * F
    if not (disc.value > 0 and E.value > 0):
        raise NotSpacelikeError("not a spacelike regular point")
    W = jt.sqrt(disc)
    lap = np.empty(3)
    for i in range(3):
        fu = (G * Xu[i] - F * Xv[i]) / W
        fv = (E * Xv[i] - F * Xu[i]) / W
        lap[i] = (fu.du().value + fv.dv().value) / W.value
    # the normal from the frame's values, in floating point
    nu = np.array(lorentz_normal([c.value for c in Xu], [c.value for c in Xv], S.orientation))
    res = lap + 2.0 * S.H * nu
    return float(np.linalg.norm(res))


# -- locus characterization ----------------------------------------------------------


def singular_locus_characterization(S: Surface, box=None, n_grid: int = 41) -> dict:
    """Classify the singular loci in a region by the Gauss-map alternative:
    |g| = 1 (rank-1 loci), omega = 0, or |g| = infinity, with dX ranks sampled
    alongside."""
    from .singularities import trace_singular_curve

    if box is None:
        (ulo, uhi), (vlo, vhi) = S.u_range, S.v_range
        s = 1e-6 * (uhi - ulo)
        box = (ulo + s, uhi - s, vlo, vhi)
    records = trace_singular_curve(S, box=box, n_grid=n_grid)
    locus = []
    g_inf = []
    omega_zero = []
    for rec in records:
        p = np.asarray(rec.location)
        dlam = np.asarray(rec.dlam)
        T = dlam / max(np.linalg.norm(dlam), 1e-300)
        entry = {"location": list(map(float, rec.location)), "rank": rec.rank}
        try:
            vals = []
            for side in (1.0, -1.0):
                ys = [abs(complex(gauss_map_of(S, tuple(p + side * h * T))))
                      for h in (1e-3, 5e-4, 2.5e-4)]
                vals.append((8 * ys[2] - 6 * ys[1] + ys[0]) / 3.0)
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
