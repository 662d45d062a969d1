"""Constructors for the surface zoo: rotational spacelike CMC (Delaunay)
surfaces with timelike, spacelike, or lightlike axis, their conjugates, and
the standard local singularity models.

Every surface exposes the same contract: degree-5 bivariate jets of the three
components at any admissible parameter point, plus Lorentzian fundamental
forms at spacelike regular points.  The profile integrals are Primitives
(adaptive quadrature for values, integrand jets for derivatives), so jet
coefficients are exact up to the quadrature tolerance in the value slot.

Batches.  `Surface.jet` (and `analytic_normal_jet`) also take (B,) arrays u
and v: every builder then returns three jets with a batch axis (see
cmc_lab.jets): `mesh_export` evaluates its whole grid in one such call, and the
singular-curve scan its grid, its root-bracketing steps and its records.
Profile values are read per distinct r from the Primitive cache, so they are
the very numbers a point-by-point evaluation reads.  The batched coefficients
agree with point-by-point ones to 1e-13 relative; they are bit-identical
wherever the elementary functions involved give NumPy's array and scalar
kernels the same result (sums, products and quotients always are).  A domain
error at any point of the batch fails the whole call, naming the first u
outside u_range when the domain check fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import jets as jt
from .jets import Jet1, Jet2, MAX_DEGREE, partial_values
from .lorentz import H2Point, NotSpacelikeError, first_fundamental_form, lorentz_inner, lorentz_normal
from .quadrature import Integrand, Primitive

DOMAIN_TOL = 1e-8  # admissible interval: where the guarded quantities exceed this
R_CAP = 2.0  # default half-width of the r-interval served to grids/meshes
# conjugate_of refuses 0 < |k + 1| < K_BRANCH_TOL: measured over both axes, both
# sides of -1, H in {0.3, 0.5, 0.9, 1.3} and 8 probe points, the worst relative
# error of the mean curvature is about 1e-14/|k + 1| (1e-5 at |k + 1| = 1e-9, 1e-2
# at 1e-12; one ulp from -1 the surface cannot be oriented at all)
K_BRANCH_TOL = 1e-9


class SurfaceParameterError(ValueError):
    """A surface parameter outside its admissible set; `param` names the
    parameter at fault ("k", "H"), when it is one."""

    def __init__(self, message, param=None):
        super().__init__(message)
        self.param = param


class SurfaceDomainError(ValueError):
    pass


class MeshEvaluationError(RuntimeError):
    """Surface evaluation failed while building a mesh; carries the grid index."""


def _promote_r(j1: Jet1, base, degree: int) -> Jet2:
    """Lift a univariate jet in the first variable to a bivariate jet at `base`,
    constant in the second variable (batched if j1 is)."""
    c = np.zeros(j1.c.shape[:-1] + (degree + 1, degree + 1), dtype=j1.c.dtype)
    n = min(degree, j1.degree) + 1
    c[..., :n, 0] = j1.c[..., :n]
    return Jet2(base, degree, c)


def _coordinates(u, v):
    """A parameter point as floats, or a batch of points as two float arrays."""
    if isinstance(u, np.ndarray) and u.ndim:
        return np.asarray(u, float), np.asarray(v, float)
    return float(u), float(v)


def _positive_root(a, b, c):
    """Smallest positive x at which a x^4 + b x^2 + c falls to DOMAIN_TOL, or None.

    Every guarded radicand is a polynomial of degree <= 2 in y = x^2, so its
    roots come in closed form (the quadratic's in the form without
    cancellation); a root where the radicand rises through DOMAIN_TOL does not
    end the domain.  A radicand that starts at or below DOMAIN_TOL and does not
    rise leaves no admissible radius.
    """
    if c <= DOMAIN_TOL and b <= 0:
        raise SurfaceParameterError(
            f"no admissible radius: a radicand of the profile is <= {DOMAIN_TOL} at r = 0 "
            "(k too close to 1)", param="k")
    c -= DOMAIN_TOL
    if a == 0:
        ys = [-c / b] if b != 0 else []
    else:
        disc = b * b - 4 * a * c
        if disc < 0:
            return None
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        ys = [q / a, c / q] if q != 0 else []
    ys = [y for y in ys if y > 0 and 2 * a * y + b < 0]
    return math.sqrt(min(ys)) if ys else None


@dataclass
class Surface:
    """Immutable parametric surface with a degree-5 jet evaluator.

    The evaluator serves jets of the three components of X at (u, v); the
    optional analytic-normal evaluator serves jets of a smooth Euclidean unit
    normal (a frontal normal: defined across singular points).
    """

    family: str
    builder: Callable[[float, float, int], tuple]
    u_range: tuple
    v_range: tuple
    H: Optional[float] = None
    k: Optional[float] = None
    variant: Optional[str] = None
    normal_builder: Optional[Callable[[float, float, int], tuple]] = None
    orientation: int = 1
    meta: dict = field(default_factory=dict)

    def _check_domain(self, u, v):
        """Raise on the first u (of a batch, in order) outside u_range."""
        lo, hi = self.u_range
        if isinstance(u, np.ndarray):
            outside = np.flatnonzero(~((lo <= u) & (u <= hi)))  # NaN is outside too
            if not outside.size:
                return
            u = float(u[outside[0]])
        elif lo <= u <= hi:
            return
        raise SurfaceDomainError(
            f"u = {u} outside admissible interval {self.u_range} for {self.family}"
        )

    def jet(self, u, v, degree: int = MAX_DEGREE):
        """Jets of the three components of X at (u, v); for (B,) arrays u, v
        one batched jet per component."""
        u, v = _coordinates(u, v)
        self._check_domain(u, v)
        return self.builder(u, v, degree)

    def point(self, u: float, v: float) -> np.ndarray:
        X = self.jet(u, v, degree=0)
        return np.array([comp.value for comp in X])

    @property
    def has_analytic_normal(self) -> bool:
        return self.normal_builder is not None

    def analytic_normal_jet(self, u: float, v: float, degree: int = MAX_DEGREE):
        if self.normal_builder is None:
            raise ValueError(f"surface {self.family} has no analytic normal")
        u, v = _coordinates(u, v)
        self._check_domain(u, v)
        return self.normal_builder(u, v, degree)

    def __repr__(self):
        ps = ", ".join(
            f"{n}={v}" for n, v in (("H", self.H), ("k", self.k), ("variant", self.variant)) if v is not None
        )
        return f"Surface({self.family}{', ' + ps if ps else ''})"


# -- fundamental forms --------------------------------------------------------


@dataclass(frozen=True)
class FundamentalForms:
    E: float
    F: float
    G: float
    L: float
    M: float
    N: float
    H_mean: float
    nu: H2Point
    q: Optional[complex] = None  # Hopf coefficient, filled only in a conformal chart


def fundamental_forms(S: Surface, p, conformal_q: bool = True) -> FundamentalForms:
    """First and second fundamental forms, unit normal, and mean curvature.

    The normal is lorentz_normal(X_u, X_v, S.orientation): oriented by a
    fixed per-surface sign so that H_mean matches the surface's constructed
    mean curvature.  Raising off the spacelike regular set keeps every
    downstream consumer honest about where the metric degenerates.
    """
    X = S.jet(p[0], p[1], 2)
    Xu, Xv, Xuu, Xuv, Xvv = (
        partial_values(X, a, b) for a, b in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    )
    E, F, G = first_fundamental_form(Xu, Xv)
    if E * G - F * F <= 0 or E <= 0:
        raise NotSpacelikeError("not a spacelike regular point")
    nu = np.array(lorentz_normal(Xu, Xv, S.orientation))
    L = lorentz_inner(nu, Xuu)
    M = lorentz_inner(nu, Xuv)
    N = lorentz_inner(nu, Xvv)
    H_mean = (E * N - 2 * F * M + G * L) / (2 * (E * G - F * F))
    q = None
    if conformal_q and abs(E - G) <= 1e-6 * abs(E) and abs(F) <= 1e-6 * abs(E):
        # Hopf coefficient <X_zz, nu> for z = u + iv
        Xzz = (Xuu - Xvv - 2j * Xuv) / 4.0
        q = complex(lorentz_inner(Xzz, nu))
    return FundamentalForms(E, F, G, L, M, N, H_mean, H2Point.of(nu), q)


def _probe_orientation(S: Surface, H: float) -> int:
    """Sign making H_mean = +H, fixed once per surface at construction.

    Mean curvature is smooth and nonvanishing off the singular set, so one
    regular probe orients the whole (connected) chart.
    """
    for frac in (0.5, 0.3, 0.8, 0.65):
        try:
            ff = fundamental_forms(S, (S.u_range[1] * frac, 0.1), conformal_q=False)
        except (NotSpacelikeError, SurfaceDomainError):
            continue
        if abs(ff.H_mean) > 1e-12:
            return 1 if ff.H_mean * H > 0 else -1
    raise SurfaceParameterError("could not orient surface: no usable probe point")


# -- Delaunay families --------------------------------------------------------


def _check_kH(k, H, need_k=True):
    if H == 0:
        raise SurfaceParameterError("H = 0 is excluded (maximal case out of scope)", param="H")
    if need_k and k == 1:
        raise SurfaceParameterError("k=1 degenerate (delta has a double root at r=0 scale)",
                                    param="k")


def delaunay_timelike(k: float, H: float, r_cap: float = R_CAP) -> Surface:
    """Rotational CMC-H surface about a timelike axis; singular cone points on r=0.

    X(r,t) = (1/2H) (int_0^r (tau^2+k-1)/sqrt(delta), r cos 2Ht, r sin 2Ht),
    delta(r) = (r^2+k+1)^2 - 4k.
    """
    _check_kH(k, H)
    return _delaunay_axis(1.0, k, H, r_cap, _about_timelike_axis,
                          family="delaunay_timelike", v_range=(0.0, math.pi / abs(float(H))))


def delaunay_spacelike(k: float, H: float, r_cap: float = R_CAP) -> Surface:
    """Rotational CMC-H surface about a spacelike axis.

    X(r,t) = (1/2H) (r cosh 2Ht, r sinh 2Ht, int_0^r (tau^2-k+1)/sqrt(delta)),
    delta(r) = (r^2-k-1)^2 - 4k; admissible |r| below the first zero of delta.
    """
    _check_kH(k, H)
    return _delaunay_axis(-1.0, k, H, r_cap, _about_spacelike_axis,
                          family="delaunay_spacelike", v_range=(-1.5, 1.5))


def _about_timelike_axis(F, r, phase):
    return (F, r * jt.cos(phase), r * jt.sin(phase))


def _about_spacelike_axis(F, r, phase):
    return (r * jt.cosh(phase), r * jt.sinh(phase), F)


def _axis_delta(sigma: float, k: float):
    """delta(x) = (x^2 + sigma k + sigma)^2 - 4k of the Delaunay surface about
    the timelike (sigma = 1) or the spacelike (sigma = -1) axis, and its
    coefficients in powers of x^2."""

    def delta(x):
        return (x * x + sigma * k + sigma) ** 2 - 4 * k

    return delta, (1.0, 2 * sigma * (k + 1), (k - 1) ** 2)


def _delaunay_axis(sigma: float, k: float, H: float, r_cap: float, coordinates, family: str,
                   v_range: tuple) -> Surface:
    """The Delaunay surface about the axis of sign sigma (checked k and H):
    X = coordinates(profile, r, 2Ht) / 2H."""
    k, H = float(k), float(H)
    delta, radicand = _axis_delta(sigma, k)
    prof = Primitive(Integrand(lambda x: (x * x + sigma * k - sigma) / jt.sqrt(delta(x))))
    root = _positive_root(*radicand)
    r_hi = min(r_cap, root * (1 - 1e-9)) if root else r_cap

    def builder(r0, t0, degree):
        Fj = _promote_r(prof.jet(r0, degree), (r0, t0), degree)
        rj = Jet2.coordinate((r0, t0), degree, 0)
        tj = Jet2.coordinate((r0, t0), degree, 1)
        inv2H = 1.0 / (2 * H)
        return tuple(x * inv2H for x in coordinates(Fj, rj, 2 * H * tj))

    S = Surface(
        family=family,
        builder=builder,
        u_range=(-r_hi, r_hi),
        v_range=v_range,
        H=H,
        k=k,
        meta={"delta": delta, "profile": prof},
    )
    S.orientation = _probe_orientation(S, H)
    return S


def delaunay_lightlike(variant: str, H: float, r_cap: float = R_CAP) -> Surface:
    """Rotational CMC-H surface about a lightlike axis; closed-form profile.

    X(r,t) = (zeta - r(1 + t^2/4), -rt, zeta + r(1 - t^2/4)) with zeta either
    the arctan profile (variant "i", all r) or the artanh profile
    (variant "ii", |r| < 1).
    """
    _check_kH(None, H, need_k=False)
    H = float(H)
    if variant not in ("i", "ii"):
        raise SurfaceParameterError(f"variant must be 'i' or 'ii', got {variant!r}")
    c8 = 1.0 / (8 * H * H)
    if variant == "i":
        zeta = lambda x: c8 * (-x / (1 + x * x) + jt.arctan(x))
        r_hi = r_cap
    else:
        zeta = lambda x: c8 * (x / (1 - x * x) - jt.artanh(x))
        r_hi = min(r_cap, 1.0 - 1e-6)

    def builder(r0, t0, degree):
        rj = Jet2.coordinate((r0, t0), degree, 0)
        tj = Jet2.coordinate((r0, t0), degree, 1)
        zj = zeta(rj)
        quart = tj * tj * 0.25
        return (zj - rj * (1 + quart), -rj * tj, zj + rj * (1 - quart))

    S = Surface(
        family=f"delaunay_lightlike_{variant}",
        builder=builder,
        u_range=(-r_hi, r_hi),
        v_range=(-2.0, 2.0),
        H=H,
        variant=variant,
        meta={"zeta": zeta},
    )
    S.orientation = _probe_orientation(S, H)
    return S


# -- conjugates ----------------------------------------------------------------


def _conjugate_builder(template, lam_jet, rho_jet, Phi_jet, phi_t, h):
    """Jets of X from the profile jets lambda(r), rho(r) and phi = Phi(r) + phi_t t."""

    def builder(r0, t0, degree):
        base = (r0, t0)
        lam = _promote_r(lam_jet(r0, degree), base, degree)
        rho = _promote_r(rho_jet(r0, degree), base, degree)
        tj = Jet2.coordinate(base, degree, 1)
        phi = _promote_r(Phi_jet(r0, degree), base, degree) + phi_t * tj
        return template(lam, rho, phi, h)

    return builder


def _template_T(lam, rho, phi, h):
    return (lam + h * phi, rho * jt.cos(phi), rho * jt.sin(phi))


def _template_S(lam, rho, phi, h):
    return (rho * jt.sinh(phi), rho * jt.cosh(phi), lam + h * phi)


def _template_L(lam, rho, phi, h):
    p2 = phi * phi
    p3 = p2 * phi
    return (
        lam - rho - rho * p2 + h * (p3 / 3.0 + phi),
        -2.0 * rho * phi + h * p2,
        lam + rho - rho * p2 + h * (p3 / 3.0 - phi),
    )


_TEMPLATES = {"T": _template_T, "S": _template_S, "L": _template_L}


def conjugate_of(
    family: str,
    k: Optional[float] = None,
    H: float = 0.5,
    variant: Optional[str] = None,
    r_cap: float = R_CAP,
) -> Surface:
    """The conjugate (quarter-turn associate) of a Delaunay surface, in the
    closed-form templates; rho, lambda, phi per branch of the classification.

    Branches: timelike axis with k > -1 ("I-i", template T), k < -1 ("I-i",
    template S), k = -1 ("I-ii", template L); spacelike axis mirrored
    ("II-i"/"II-ii"); lightlike axis variant i -> T ("III-i"), variant ii -> S
    ("III-ii").
    """
    _check_kH(k, H, need_k=family in ("delaunay_timelike", "delaunay_spacelike"))
    H = float(H)
    normal_builder = None

    if family in ("delaunay_timelike", "delaunay_spacelike"):
        if k is None:
            raise SurfaceParameterError("k is required for Delaunay axis families", param="k")
        k = float(k)
        if 0 < abs(k + 1) < K_BRANCH_TOL:
            raise SurfaceParameterError(
                f"k = {k!r} is within {K_BRANCH_TOL:g} of the branch point k = -1 but not on it: "
                "there the k != -1 templates lose about 1e-14/|k + 1| of relative accuracy "
                "(use k = -1 for the I-ii/II-ii branch)", param="k")
        timelike = family == "delaunay_timelike"
        sigma = 1.0 if timelike else -1.0
        sgn = 1.0 if k + 1 > 0 else -1.0
        absK = abs(k + 1)
        # delta and Delta, and their coefficients in powers of x^2
        delta, delta_coeffs = _axis_delta(sigma, k)
        Delta = lambda x: 2 * sigma * (k + 1) * x * x + (1 - k) ** 2
        radicands = (delta_coeffs, (0.0, 2 * sigma * (k + 1), (1 - k) ** 2))

        if k == -1.0:
            # lightlike template with the quartic profile integrals
            h = H
            rho_jet = lambda r0, d: Jet1.coordinate(r0, d) * 0.5
            lam_p = Primitive(Integrand(
                lambda x: x * x * (jt.sqrt(x**4 + 4) + x * x) / (4 * H * H * jt.sqrt(x**4 + 4))
            ))
            Phi_p = Primitive(Integrand(
                lambda x: (jt.sqrt(x**4 + 4) + x * x) / (2 * H * jt.sqrt(x**4 + 4))
            ))
            lam_jet, Phi_jet, phi_t = lam_p.jet, Phi_p.jet, 1.0
            template, branch = "L", ("I-ii" if timelike else "II-ii")
            r_hi = r_cap
        else:
            h = (1 - k) / (2 * H * absK)
            rho_jet = lambda r0, d: jt.sqrt(
                Jet1.constant(0.0, r0, d) + Delta(Jet1.coordinate(r0, d))
            ) / (2 * H * absK)
            lam_sign = 1.0 if timelike else -sgn
            phi_sign = sgn if timelike else 1.0
            lam_p = Primitive(Integrand(
                lambda x: math.sqrt(2 * absK) * x**4 / (H * jt.sqrt(delta(x)) * Delta(x))
            ))
            Phi_p = Primitive(Integrand(
                lambda x: math.sqrt(2 * absK) * (1 - k) * x * x / (jt.sqrt(delta(x)) * Delta(x))
            ))
            lam_jet = lambda r0, d: lam_p.jet(r0, d) * lam_sign
            Phi_jet = lambda r0, d: Phi_p.jet(r0, d) * phi_sign
            phi_t = -math.sqrt(absK / 2) * (1.0 if timelike else sgn)
            template = ("T" if k > -1 else "S") if timelike else ("S" if k > -1 else "T")
            branch = "I-i" if timelike else "II-i"
            roots = [r for r in (_positive_root(*q) for q in radicands) if r is not None]
            r_hi = min([r_cap] + [r * (1 - 1e-9) for r in roots])

            if timelike and k > -1:
                normal_builder = _conj_Ii_normal(k, H, delta, Delta, Phi_jet, phi_t)
        profiles = (lam_p, Phi_p)

    elif family.startswith("delaunay_lightlike"):
        variant = variant or (family.rsplit("_", 1)[-1] if family[-1] in "i" else None)
        if variant not in ("i", "ii"):
            raise SurfaceParameterError("lightlike conjugate needs variant 'i' or 'ii'")
        s2 = math.sqrt(2.0)
        if variant == "i":
            h = -1.0 / (2 * H)
            rho_jet = lambda r0, d: jt.sqrt(2 * Jet1.coordinate(r0, d) ** 2 + 1) / (2 * H)
            lam_jet = lambda r0, d: (
                -s2 * Jet1.coordinate(r0, d)
                + 2 * s2 * jt.arctan(Jet1.coordinate(r0, d))
                - jt.arctan(s2 * Jet1.coordinate(r0, d))
            ) / (2 * H)
            Phi_jet = lambda r0, d: s2 * jt.arctan(Jet1.coordinate(r0, d)) - jt.arctan(
                s2 * Jet1.coordinate(r0, d)
            )
            template, branch, r_hi = "T", "III-i", r_cap
        else:
            h = 1.0 / (2 * H)
            rho_jet = lambda r0, d: jt.sqrt(1 - 2 * Jet1.coordinate(r0, d) ** 2) / (2 * H)
            lam_jet = lambda r0, d: (
                s2 * Jet1.coordinate(r0, d)
                - 2 * s2 * jt.artanh(Jet1.coordinate(r0, d))
                + jt.artanh(s2 * Jet1.coordinate(r0, d))
            ) / (2 * H)
            Phi_jet = lambda r0, d: s2 * jt.artanh(Jet1.coordinate(r0, d)) - jt.artanh(
                s2 * Jet1.coordinate(r0, d)
            )
            template, branch, r_hi = "S", "III-ii", min(r_cap, 1 / s2 - 1e-6)
        phi_t = 2 * H / s2
        k = None
        profiles = ()
    else:
        raise SurfaceParameterError(f"no conjugate template for family {family!r}")

    builder = _conjugate_builder(_TEMPLATES[template], lam_jet, rho_jet, Phi_jet, phi_t, h)
    period = 2 * math.pi / abs(phi_t) if template == "T" else 3.0
    S = Surface(
        family=f"conjugate_of_{family}",
        builder=builder,
        u_range=(-r_hi, r_hi),
        v_range=(0.0, period) if template == "T" else (-period / 2, period / 2),
        H=H,
        k=k,
        variant=variant,
        normal_builder=normal_builder,
        meta={"template": template, "branch": branch, "h": h,
              "rho0": float(rho_jet(0.0, 0).value), "phi_t": phi_t,
              "profiles": profiles},  # the Primitives of lambda and Phi, if integrated
    )
    S.orientation = _probe_orientation(S, H)
    return S


def _conj_Ii_normal(k, H, delta, Delta, Phi_jet, phi_t):
    """Analytic frontal unit normal of the timelike-axis conjugate, k > -1.

    Co-oriented with X_r x X_t on r > 0 (the closed form whose signed area
    density is r sqrt(delta - (k+1) r^2) / (H sqrt(k+1) sqrt(delta))).
    """
    sK = math.sqrt(k + 1)

    def builder(r0, t0, degree):
        rj1 = Jet1.coordinate(r0, degree)
        d = delta(rj1) + Jet1.constant(0.0, r0, degree)
        D = Delta(rj1) + Jet1.constant(0.0, r0, degree)
        base = (r0, t0)
        sd = _promote_r(jt.sqrt(d), base, degree)
        sD = _promote_r(jt.sqrt(D), base, degree)
        core = _promote_r(jt.sqrt(d - (k + 1) * rj1 * rj1), base, degree)
        rj = Jet2.coordinate(base, degree, 0)
        tj = Jet2.coordinate(base, degree, 1)
        phi = _promote_r(Phi_jet(r0, degree), base, degree) + phi_t * tj
        cphi, sphi = jt.cos(phi), jt.sin(phi)
        pref = -1.0 / (math.sqrt(2) * sD * core)
        r3 = rj * rj * rj
        n0 = pref * (sd * sD)
        n1 = pref * (-math.sqrt(2) * sK * r3 * cphi - (k - 1) * sd * sphi)
        n2 = pref * (-math.sqrt(2) * sK * r3 * sphi + (k - 1) * sd * cphi)
        return (n0, n1, n2)

    return builder


# -- standard local models -----------------------------------------------------


def standard_model(name: str) -> Surface:
    """Polynomial/trigonometric local models with exact jets.

    fold: (u, v^2, 0); cuspidal_edge: (u, v^2, v^3); cusp25: (u, v^2, v^5);
    cone: (v cos u, v sin u, v).  fold and cusp25 carry their smooth frontal
    normals analytically.
    """
    if name == "fold":
        def builder(u0, v0, degree):
            uj = Jet2.coordinate((u0, v0), degree, 0)
            vj = Jet2.coordinate((u0, v0), degree, 1)
            return (uj, vj * vj, Jet2.constant(0.0, (u0, v0), degree))

        def nb(u0, v0, degree):
            z = Jet2.constant(0.0, (u0, v0), degree)
            return (z, z, Jet2.constant(1.0, (u0, v0), degree))

        return Surface("model_fold", builder, (-4.0, 4.0), (-4.0, 4.0), normal_builder=nb)

    if name == "cuspidal_edge":
        def builder(u0, v0, degree):
            uj = Jet2.coordinate((u0, v0), degree, 0)
            vj = Jet2.coordinate((u0, v0), degree, 1)
            return (uj, vj * vj, vj * vj * vj)

        return Surface("model_cuspidal_edge", builder, (-4.0, 4.0), (-4.0, 4.0))

    if name == "cusp25":
        def builder(u0, v0, degree):
            uj = Jet2.coordinate((u0, v0), degree, 0)
            vj = Jet2.coordinate((u0, v0), degree, 1)
            return (uj, vj * vj, vj**5)

        def nb(u0, v0, degree):
            # X_u x X_v = v (0, -5v^3, 2): unit normal (0, -5v^3, 2)/|.|
            vj = Jet2.coordinate((u0, v0), degree, 1)
            z = Jet2.constant(0.0, (u0, v0), degree)
            mag = jt.sqrt(25.0 * vj**6 + 4.0)
            return (z, -5.0 * vj**3 / mag, 2.0 / mag)

        return Surface("model_25", builder, (-4.0, 4.0), (-4.0, 4.0), normal_builder=nb)

    if name == "cone":
        def builder(u0, v0, degree):
            uj = Jet2.coordinate((u0, v0), degree, 0)
            vj = Jet2.coordinate((u0, v0), degree, 1)
            return (vj * jt.cos(uj), vj * jt.sin(uj), vj)

        return Surface("model_cone", builder, (-4.0, 4.0), (-4.0, 4.0))

    raise SurfaceParameterError(f"unknown model {name!r}")


def custom_surface(builder, u_range=(-2.0, 2.0), v_range=(-2.0, 2.0), **kw) -> Surface:
    """A Surface from a builder(u0, v0, degree) returning three Jet2.

    The builder must take (B,) arrays u0 and v0 as well as floats: the
    singular-curve scan calls it only with arrays (one call per grid, per
    root-bracketing step and per set of records), and `mesh_export` with its whole
    grid.  A builder written with `Jet2.coordinate`, `Jet2.constant`, jet
    arithmetic and the `cmc_lab.jets` functions takes both."""
    return Surface("custom", builder, u_range, v_range, **kw)


# -- mesh export ---------------------------------------------------------------


@dataclass
class Mesh:
    vertices: np.ndarray  # (n, 3), (x0, x1, x2) coordinates
    faces: np.ndarray  # (m, 3), 0-based vertex indices
    sidecar: dict

    def write_obj(self, path, sidecar_path=None):
        text = "".join([
            "# cmc-lab surface mesh; vertex order (x1, x2, x0)\n",
            *(f"v {x1!r} {x2!r} {x0!r}\n" for x0, x1, x2 in np.asarray(self.vertices, float).tolist()),
            *(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in self.faces.tolist()),
        ])
        with open(path, "w") as fh:
            fh.write(text)
        if sidecar_path is None:
            sidecar_path = str(path) + ".json"
        with open(sidecar_path, "w") as fh:
            json.dump(self.sidecar, fh, indent=2, sort_keys=True, allow_nan=False)
        return sidecar_path


def mesh_export(S: Surface, nu: int, nv: int, u_range=None, v_range=None) -> Mesh:
    """Sample X on a regular grid; two consistently oriented triangles per cell.

    Conelike axes pinch automatically: all grid vertices with the same image
    coincide in the vertex list (no welding needed for viewers).  The grid is
    evaluated in one batched jet call; if that fails, the points are tried one
    by one and the first that fails is reported with its grid index.
    """
    if nu < 2 or nv < 2:
        raise ValueError("grid must be 2D (at least 2 samples per direction)")
    u_range = u_range or S.u_range
    v_range = v_range or S.v_range
    us = np.linspace(u_range[0], u_range[1], nu)
    vs = np.linspace(v_range[0], v_range[1], nv)
    U, V = np.meshgrid(us, vs, indexing="ij")  # vertex i * nv + j at (us[i], vs[j])
    try:
        verts = np.stack([comp.value for comp in S.jet(U.ravel(), V.ravel(), 0)], axis=1)
    except Exception:
        # name the first grid point, in row-major order, that fails on its own
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                try:
                    S.point(u, v)
                except Exception as e:
                    raise MeshEvaluationError(
                        f"evaluation failed at grid index ({i},{j}), (u,v)=({u},{v}): {e}"
                    ) from e
        raise
    sidecar = {
        "family": S.family,
        "H": S.H,
        "k": S.k,
        "variant": S.variant,
        "grid": {"nu": nu, "nv": nv},
        "domain": {"u": list(map(float, u_range)), "v": list(map(float, v_range))},
    }
    return Mesh(verts, grid_faces(nu, nv), sidecar)


def grid_faces(nu: int, nv: int) -> np.ndarray:
    """Two consistently oriented triangles per cell of an nu x nv vertex grid
    stored row-major (vertex i * nv + j), cell by cell in row-major order."""
    a = (np.arange(nu - 1)[:, None] * nv + np.arange(nv - 1)).reshape(-1, 1)
    tris = np.hstack([a, a + nv, a + nv + 1, a, a + nv + 1, a + 1])
    return tris.reshape(-1, 3)
