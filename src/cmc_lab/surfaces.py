"""Constructors for the surface zoo: rotational spacelike CMC (Delaunay)
surfaces with timelike, spacelike, or lightlike axis, their conjugates, and
the standard local singularity models.

Every surface exposes the same contract: degree-5 bivariate jets of the three
components at any admissible parameter point, plus Lorentzian fundamental
forms at spacelike regular points.  The profile integrals are Primitives:
closed forms in Carlson's R_F, R_D and R_J for the values, integrand jets for
the derivatives.

Batches.  `Surface.jet` (and `analytic_normal_jet`) also take (B,) arrays u
and v: every builder then returns three jets with a batch axis (see
cmc_lab.jets): `mesh_export` evaluates its whole grid in one such call, and the
singular-curve scan its grid, its root-bracketing steps and its records.  A
profile value of a batch is the value of that radius alone, to the bit.  The
batched coefficients agree with point-by-point ones to 1e-13 relative; they
are bit-identical wherever the elementary functions involved give NumPy's
array and scalar kernels the same result (sums, products and quotients always
are).  A domain error at any point of the batch fails the whole call, naming
the first u outside u_range when the domain check fails.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import jets as jt
from .jets import Jet1, Jet2, MAX_DEGREE, partial_values
from .lorentz import H2Point, NotSpacelikeError, first_fundamental_form, lorentz_inner, lorentz_normal
from .quadrature import Primitive, carlson

DOMAIN_TOL = 1e-8  # admissible interval: where the guarded quantities exceed this
R_CAP = 2.0  # default half-width of the r-interval served to grids/meshes
# conjugate_of refuses 0 < |k + 1| < K_BRANCH_TOL: measured over both axes, both
# sides of -1, H in {0.3, 0.5, 0.9, 1.3} and 8 probe points, the worst relative
# error of the mean curvature is about 1e-14/|k + 1| (1e-5 at |k + 1| = 1e-9, 1e-2
# at 1e-12; one ulp from -1 the surface cannot be oriented at all)
K_BRANCH_TOL = 1e-9
# cosh(x) and sinh(x) overflow past |x| = log(2 * max float)
COSH_MAX_ARG = math.log(2.0) + math.log(sys.float_info.max)


class SurfaceParameterError(ValueError):
    """A surface parameter outside its admissible set; `param` names the
    parameter at fault ("k", "H", "r_cap"), or a tuple of the parameters when
    no one of them is."""

    def __init__(self, message, param=None):
        super().__init__(message)
        self.param = param


class SurfaceDomainError(ValueError):
    pass


class MeshEvaluationError(RuntimeError):
    """Surface evaluation failed while building a mesh; carries the grid index."""


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

    def _checked(self, u, v):
        """The point as floats, or a batch of points as two float arrays; raises
        on the first u (of a batch, in order) outside u_range."""
        lo, hi = self.u_range
        if isinstance(u, np.ndarray) and u.ndim:
            u, v = np.asarray(u, float), np.asarray(v, float)
            outside = np.flatnonzero(~((lo <= u) & (u <= hi)))  # NaN is outside too
            if not outside.size:
                return u, v
            bad = float(u[outside[0]])
        else:
            u, v = float(u), float(v)
            if lo <= u <= hi:
                return u, v
            bad = u
        raise SurfaceDomainError(f"u = {bad} outside admissible interval {self.u_range} for {self.family}")

    def jet(self, u, v, degree: int = MAX_DEGREE):
        """Jets of the three components of X at (u, v); for (B,) arrays u, v
        one batched jet per component."""
        return self.builder(*self._checked(u, v), degree)

    def point(self, u: float, v: float) -> np.ndarray:
        X = self.jet(u, v, degree=0)
        return np.array([comp.value for comp in X])

    @property
    def has_analytic_normal(self) -> bool:
        return self.normal_builder is not None

    def analytic_normal_jet(self, u: float, v: float, degree: int = MAX_DEGREE):
        if self.normal_builder is None:
            raise ValueError(f"surface {self.family} has no analytic normal")
        return self.normal_builder(*self._checked(u, v), degree)

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


def _probe_orientation(S: Surface, H: float, r_cap: Optional[float] = None) -> int:
    """Sign making H_mean = +H, fixed once per surface at construction.

    Mean curvature is smooth and nonvanishing off the singular set, so one
    regular probe orients the whole (connected) chart.  The probes sit at
    fractions of the domain end: where a cap `r_cap` other than the default
    R_CAP is that end, a failure names it with the surface's parameters.
    """
    for frac in (0.5, 0.3, 0.8, 0.65):
        try:
            with np.errstate(all="ignore"):  # a probe whose numbers overflow is not usable
                ff = fundamental_forms(S, (S.u_range[1] * frac, 0.1), conformal_q=False)
        except (NotSpacelikeError, SurfaceDomainError):
            continue
        if math.isfinite(ff.H_mean) and abs(ff.H_mean) > 1e-12 * abs(H):
            return 1 if ff.H_mean * H > 0 else -1
    values = {name: getattr(S, name) for name in ("k", "H") if getattr(S, name) is not None}
    if r_cap not in (None, R_CAP) and S.u_range[1] == r_cap:
        values["r_cap"] = r_cap
    raise SurfaceParameterError("could not orient surface: no usable probe point at "
                                + ", ".join(f"{name} = {value!r}" for name, value in values.items()),
                                param=tuple(values))


def _profile_builder(profiles, assemble):
    """The builder of X = assemble(*profiles, r, t) for `profiles` of r, each a
    Primitive (a complex one is two profiles, its real and its imaginary part)
    or a closed form of the coordinate jet in r: each call reads every profile
    once at r0 (all closed forms on one coordinate jet) and lifts it to a jet
    in (r, t)."""

    def builder(r0, t0, degree):
        base = (r0, t0)
        x = None  # the coordinate jet in r, made for the first closed form
        jets = []
        for p in profiles:
            if isinstance(p, Primitive):
                j = p.jet(r0, degree)
                jets += [j] if j.c.dtype.kind != "c" else [Jet1(j.base, degree, part.copy())
                                                           for part in (j.c.real, j.c.imag)]
            else:
                x = Jet1.coordinate(r0, degree) if x is None else x
                jets.append(p(x))
        return assemble(*(Jet2.lift(j, base, degree) for j in jets), *Jet2.variables(base, degree))

    return builder


# -- Delaunay families --------------------------------------------------------


def _check_kH(k, H, need_k=True):
    if H == 0:
        raise SurfaceParameterError("H = 0 is excluded (maximal case out of scope)", param="H")
    c8 = 8.0 * float(H) * float(H)
    if not (c8 > 0 and 0 < 1.0 / c8 < math.inf):
        raise SurfaceParameterError(f"H = {H!r} is out of range: 1/(8 H^2) is not a finite "
                                    "positive float", param="H")
    # E and G at the orientation probe grow like 1/H^2, and E G reaches about 0.6/H^4
    # (a conjugate's): refuse where 4/H^4 = 256 (1/(8 H^2))^2 overflows, |H| below
    # about 1.2e-77, so that the probe never computes on overflowed numbers
    if not 256.0 / c8 / c8 < math.inf:
        raise SurfaceParameterError(f"H = {H!r} is out of range: E G of the first fundamental "
                                    "form, about 1/H^4, overflows", param="H")
    if need_k and k == 1:
        raise SurfaceParameterError("k=1 degenerate (delta has a double root at r=0 scale)",
                                    param="k")


def delaunay_timelike(k: float, H: float, r_cap: float = R_CAP) -> Surface:
    """Rotational CMC-H surface about a timelike axis; singular cone points on r=0.

    X(r,t) = (1/2H) (int_0^r (tau^2+k-1)/sqrt(delta), r cos 2Ht, r sin 2Ht),
    delta(r) = (r^2+k+1)^2 - 4k.
    """
    return _delaunay_axis(1.0, k, H, r_cap)


def delaunay_spacelike(k: float, H: float, r_cap: float = R_CAP) -> Surface:
    """Rotational CMC-H surface about a spacelike axis.

    X(r,t) = (1/2H) (r cosh 2Ht, r sinh 2Ht, int_0^r (tau^2-k+1)/sqrt(delta)),
    delta(r) = (r^2-k-1)^2 - 4k; admissible |r| below the first zero of delta.
    """
    return _delaunay_axis(-1.0, k, H, r_cap)


def _axis_delta(sigma: float, k: float):
    """delta(x) = (x^2 + sigma k + sigma)^2 - 4k of the Delaunay surface about
    the timelike (sigma = 1) or the spacelike (sigma = -1) axis, its
    coefficients in powers of x^2, and its factors (p, q): delta = (x^2 + p)
    (x^2 + q) with p + q = 2 sigma (k + 1) and p q = (k - 1)^2, so q = sigma
    (k + 1 + 2 sqrt k), complex for k < 0, and p = (k - 1)^2 / q: no
    cancellation next to k = 1, and the conjugate of q for k < 0.  Expanded,
    delta(0) = (k - 1)^2 is off by about eps (k + 1)^2 (zero or negative one
    ulp from k = 1): where that is over 1/16 of it (|k - 1| below about
    1.2e-7), delta is the product of its real factors, which does not cancel."""
    try:
        c = (k - 1) ** 2
    except OverflowError:  # |k| from about 1.34e154 on
        raise SurfaceParameterError(f"k = {k!r} is too large: (k - 1)^2 overflows", param="k") from None
    q = sigma * (k + 1.0 + 2.0 * np.emath.sqrt(k))
    p = c / q
    if c < 16 * sys.float_info.epsilon * (k + 1) ** 2:
        fp, fq = float(p), float(q)
        delta = lambda x: (x * x + fp) * (x * x + fq)
    else:
        delta = lambda x: (x * x + sigma * k + sigma) ** 2 - 4 * k
    return delta, (1.0, 2 * sigma * (k + 1), c), (p, q)


def _basis(radicand, r, *cs):
    """I0 = int_0^r dx/sqrt(delta) and, for each c in cs, K_c = int_0^r x^2 dx/((1 +
    c x^2) sqrt(delta)) (K_0 = I2 = int_0^r x^2 dx/sqrt(delta)) at the radii r (a
    number or an array), delta = (x^2 + p)(x^2 + q), p q > 0: x = (t + 1/r^2)^(-1/2)
    (DLMF 19.29) gives r R_F(1, Y, Z) and r^3 R_J(1, Y, Z, 1 + c r^2)/3 (R_D(Y, Z,
    1) at c = 0), over sqrt(pq), Y = 1 + r^2/p and Z = 1 + r^2/q, from one
    `carlson` loop.  I0 alone is the conformal chart's J."""
    p, q = radicand
    r2 = r * r
    root = math.sqrt((p * q).real)
    rhos = (1.0 + c * r2 for c in cs)
    rf, *rj = (x.real for x in carlson(1.0, 1.0 + r2 * (1 / p), 1.0 + r2 * (1 / q), *rhos))
    r3 = r2 * r / (3 * root)
    return (r * rf / root, *(r3 * x for x in rj))


def _moments(radicand, r, I0, I2, count):
    """[I0, I2, ..., I_2(count-1)], I_2m = int_0^r x^2m dx/sqrt(delta), by the
    derivative of x^(2m-3) sqrt(delta), delta = x^4 + a x^2 + p q: (2m - 1) I_2m =
    r^(2m-3) sqrt(delta(r)) - (2m - 2) a I_2m-2 - (2m - 3) p q I_2m-4.  Its terms
    are O(r), so it keeps absolute digits, and it grows errors by sqrt(pq) a step."""
    p, q = radicand
    a, pq, r2 = (p + q).real, (p * q).real, r * r
    term, moments = r * np.sqrt(r2 * r2 + a * r2 + pq), [I0, I2]
    for m in range(2, count):
        moments.append((term - (2 * m - 2) * a * moments[-1] - (2 * m - 3) * pq * moments[-2]) / (2 * m - 1))
        term = term * r2
    return moments


def _delaunay_axis(sigma: float, k: float, H: float, r_cap: float) -> Surface:
    """The Delaunay surface about the timelike (sigma = 1) or the spacelike
    (sigma = -1) axis, from its profile F: X = (F, r cos 2Ht, r sin 2Ht) / 2H
    about the timelike axis, (r cosh 2Ht, r sinh 2Ht, F) / 2H about the other.
    F' = (x^2 + sigma (k - 1))/sqrt(delta), so F = I2 + sigma (k - 1) I0."""
    _check_kH(k, H)
    k, H = float(k), float(H)
    delta, coeffs, radicand = _axis_delta(sigma, k)

    def F(r):
        I0, I2 = _basis(radicand, r, 0.0)
        return I2 + sigma * (k - 1) * I0

    prof = Primitive(lambda x: (x * x + sigma * k - sigma) / jt.sqrt(delta(x)), F)
    root = _positive_root(*coeffs)
    r_hi = min(r_cap, root * (1 - 1e-9)) if root else r_cap
    inv2H = 1.0 / (2 * H)

    def axis_map(F, r, t):
        phase = 2 * H * t
        X = ((F, r * jt.cos(phase), r * jt.sin(phase)) if sigma > 0
             else (r * jt.cosh(phase), r * jt.sinh(phase), F))
        return tuple(x * inv2H for x in X)

    S = Surface(
        family="delaunay_timelike" if sigma > 0 else "delaunay_spacelike",
        builder=_profile_builder((prof,), axis_map),
        u_range=(-r_hi, r_hi),
        v_range=(0.0, math.pi / abs(H)) if sigma > 0 else (-1.5, 1.5),
        H=H,
        k=k,
        meta={"delta": delta, "radicand": radicand, "profile": prof},
    )
    S.orientation = _probe_orientation(S, H, r_cap)
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

    S = Surface(
        family=f"delaunay_lightlike_{variant}",
        builder=_profile_builder((zeta,), _lightlike_map),
        u_range=(-r_hi, r_hi),
        v_range=(-2.0, 2.0),
        H=H,
        variant=variant,
        meta={"zeta": zeta, "radicand": (1.0, 1.0) if variant == "i" else (-1.0, -1.0)},
    )
    S.orientation = _probe_orientation(S, H, r_cap)
    return S


def _lightlike_map(zeta, r, t):
    quart = t * t * 0.25
    return (zeta - r * (1 + quart), -r * t, zeta + r * (1 - quart))


# -- conjugates ----------------------------------------------------------------


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
        # delta and Delta, their coefficients in powers of x^2, and delta's factors
        delta, delta_coeffs, radicand = _axis_delta(sigma, k)
        c0 = delta_coeffs[2]  # (1 - k)^2
        Delta = lambda x: 2 * sigma * (k + 1) * x * x + c0
        radicands = (delta_coeffs, (0.0, 2 * sigma * (k + 1), c0))

        if k == -1.0:
            # lightlike template with the quartic profile integrals: delta = x^4 + 4,
            # lambda' = (x^2 + x^4/sqrt(delta))/(4 H^2) and Phi' = (1 + x^2/sqrt(delta))/(2H)
            h, phi_t = H, 1.0
            rho = lambda x: x * 0.5

            def values(r):  # lambda + i Phi
                I = _moments(radicand, r, *_basis(radicand, r, 0.0), 3)
                return (r * r * r / 3 + I[2]) / (4 * H * H) + 1j * ((r + I[1]) / (2 * H))

            profile = Primitive(
                lambda x: x * x * (jt.sqrt(x**4 + 4) + x * x) / (4 * H * H * jt.sqrt(x**4 + 4))
                + 1j * ((jt.sqrt(x**4 + 4) + x * x) / (2 * H * jt.sqrt(x**4 + 4))), values)
            template, branch = "L", ("I-ii" if timelike else "II-ii")
            r_hi = r_cap
        else:
            # the profile integrands divide by sqrt(delta) Delta and by H sqrt(delta) Delta,
            # which are |k - 1|^3 and H |k - 1|^3 at r = 0 (delta(0) = Delta(0) = (k - 1)^2),
            # grow by a factor 1 + O(1/|k|) over the chart, and exceed their jets' other
            # coefficients: refuse where twice the larger overflows (|k| >= 4.5e102, H <= 1)
            if not math.isfinite(2.0 * max(H, 1.0) * abs(1 - k) * c0):
                raise SurfaceParameterError(f"k = {k!r} is too large at H = {H!r}: max(H, 1) |k - 1|^3, "
                                            "a factor of the profile integrands, overflows",
                                            param=("k", "H"))
            # a degree-5 surface jet takes the reciprocal of lambda's H sqrt(delta) Delta to
            # degree 4, whose top coefficient is (H |k - 1|^3)^-5 at r = 0: refuse where that
            # overflows at half the factor (|H| below about 4.5e-62 at k = 2; classify overflows
            # at (H |k - 1|^3)^-5 itself, measured on both axes for k from -10 to 100)
            if MAX_DEGREE * -math.log(0.5 * abs(H) * abs(1 - k) * c0) > math.log(sys.float_info.max):
                raise SurfaceParameterError(f"H = {H!r} is too small at k = {k!r}: (H |k - 1|^3)^-5, a "
                                            "coefficient of the profile integrands' jets, overflows", param=("k", "H"))
            h = (1 - k) / (2 * H * absK)
            rho = lambda x: jt.sqrt(Delta(x)) / (2 * H * absK)
            # the profile sign_lam lambda + i sign_Phi Phi.  Delta = c0 (1 + c x^2) gives
            # Phi = s K/(1 - k), and x^4/(1 + c x^2) = (x^2 - x^2/(1 + c x^2))/c gives
            # lambda = s (I2 - K)/(c H c0), which loses about 1e-16/|k + 1|: for |k + 1| <=
            # 1/32 and |c| r^2 <= 1/16 it is the series s sum_n (-c)^n I_2n+4/(H c0), 16 terms
            s, c = math.sqrt(2 * absK), 2 * sigma * (k + 1) / c0
            sign_lam, sign_Phi = (1.0, sgn) if timelike else (-sgn, 1.0)

            def values(r):
                I0, I2, K = _basis(radicand, r, 0.0, c)
                L = (I2 - K) / c
                if absK <= 1 / 32:
                    I = _moments(radicand, r, I0, I2, 18)
                    series = sum((-c) ** n * I[n + 2] for n in range(16))
                    L = np.where(abs(c) * r * r <= 1 / 16, series, L)
                return sign_lam * (s / (H * c0) * L) + 1j * (sign_Phi * (s / (1 - k) * K))

            profile = Primitive(
                lambda x: sign_lam * (s * x**4 / (H * jt.sqrt(delta(x)) * Delta(x)))
                + 1j * (sign_Phi * (s * (1 - k) * x * x / (jt.sqrt(delta(x)) * Delta(x)))), values)
            phi_t = -math.sqrt(absK / 2) * (1.0 if timelike else sgn)
            template = ("T" if k > -1 else "S") if timelike else ("S" if k > -1 else "T")
            if template == "S" and abs(phi_t) * 1.5 > COSH_MAX_ARG:
                # the S chart reaches phi = Phi + phi_t t at t = +-1.5, where the jets of
                # sinh(phi) and cosh(phi) overflow: |k + 1| above 2 (COSH_MAX_ARG / 1.5)^2,
                # about 4.49e5 (|Phi| is at most 1.3e-8 there)
                raise SurfaceParameterError(f"k = {k!r} is too large: the conjugate's sinh and cosh "
                                            "of phi overflow on its chart", param="k")
            branch = "I-i" if timelike else "II-i"
            roots = [r for r in (_positive_root(*q) for q in radicands) if r is not None]
            r_hi = min([r_cap] + [r * (1 - 1e-9) for r in roots])

            if timelike and k > -1:
                normal_builder = _conj_Ii_normal(k, delta, Delta, profile, phi_t)
        profiles = (profile,)

    elif family.startswith("delaunay_lightlike"):
        variant = variant or (family.rsplit("_", 1)[-1] if family[-1] in "i" else None)
        if variant not in ("i", "ii"):
            raise SurfaceParameterError("lightlike conjugate needs variant 'i' or 'ii'")
        # variant ii is variant i with arctan -> artanh and e = 1 -> -1
        s2, e = math.sqrt(2.0), (1.0 if variant == "i" else -1.0)
        at = jt.arctan if variant == "i" else jt.artanh
        h = -e / (2 * H)
        rho = lambda x: jt.sqrt(e * 2 * x**2 + 1) / (2 * H)
        lam = lambda x: (-e * s2 * x + 2 * e * s2 * at(x) - e * at(s2 * x)) / (2 * H)
        Phi = lambda x: s2 * at(x) - at(s2 * x)
        profiles, profile = (lam, Phi), None
        template, branch = ("T", "III-i") if variant == "i" else ("S", "III-ii")
        r_hi = r_cap if variant == "i" else min(r_cap, 1 / s2 - 1e-6)
        phi_t = 2 * H / s2
        k = None
    else:
        raise SurfaceParameterError(f"no conjugate template for family {family!r}")

    def template_map(lam, Phi, rho, r, t):
        return _TEMPLATES[template](lam, rho, Phi + phi_t * t, h)

    period = 2 * math.pi / abs(phi_t) if template == "T" else 3.0
    S = Surface(
        family=f"conjugate_of_{family}",
        builder=_profile_builder((*profiles, rho), template_map),
        u_range=(-r_hi, r_hi),
        v_range=(0.0, period) if template == "T" else (-period / 2, period / 2),
        H=H,
        k=k,
        variant=variant,
        normal_builder=normal_builder,
        meta={"template": template, "branch": branch, "h": h,
              "rho0": float(rho(Jet1.coordinate(0.0, 0)).value), "phi_t": phi_t,
              "profile": profile},  # the Primitive of lambda + i Phi (None: closed forms of r)
    )
    S.orientation = _probe_orientation(S, H, r_cap)
    return S


def _conj_Ii_normal(k, delta, Delta, profile, phi_t):
    """Analytic frontal unit normal of the timelike-axis conjugate, k > -1.

    Co-oriented with X_r x X_t on r > 0 (the closed form whose signed area
    density is r sqrt(delta - (k+1) r^2) / (H sqrt(k+1) sqrt(delta))).
    """
    sK = math.sqrt(k + 1)

    def normal(sd, sD, core, lam, Phi, r, t):  # lam and Phi: the parts of `profile`
        phi = Phi + phi_t * t
        cphi, sphi = jt.cos(phi), jt.sin(phi)
        pref = -1.0 / (math.sqrt(2) * sD * core)
        r3 = r * r * r
        return (pref * (sd * sD),
                pref * (-math.sqrt(2) * sK * r3 * cphi - (k - 1) * sd * sphi),
                pref * (-math.sqrt(2) * sK * r3 * sphi + (k - 1) * sd * cphi))

    return _profile_builder((lambda x: jt.sqrt(delta(x)), lambda x: jt.sqrt(Delta(x)),
                             lambda x: jt.sqrt(delta(x) - (k + 1) * x * x), profile), normal)


# -- standard local models -----------------------------------------------------


def standard_model(name: str) -> Surface:
    """Polynomial/trigonometric local models with exact jets.

    fold: (u, v^2, 0); cuspidal_edge: (u, v^2, v^3); cusp25: (u, v^2, v^5);
    cone: (v cos u, v sin u, v).  fold and cusp25 carry their smooth frontal
    normals analytically.
    """
    if name == "fold":
        def builder(u0, v0, degree):
            uj, vj = Jet2.variables((u0, v0), degree)
            return (uj, vj * vj, Jet2.constant(0.0, (u0, v0), degree))

        def nb(u0, v0, degree):
            z = Jet2.constant(0.0, (u0, v0), degree)
            return (z, z, Jet2.constant(1.0, (u0, v0), degree))

        return Surface("model_fold", builder, (-4.0, 4.0), (-4.0, 4.0), normal_builder=nb)

    if name == "cuspidal_edge":
        def builder(u0, v0, degree):
            uj, vj = Jet2.variables((u0, v0), degree)
            return (uj, vj * vj, vj * vj * vj)

        return Surface("model_cuspidal_edge", builder, (-4.0, 4.0), (-4.0, 4.0))

    if name == "cusp25":
        def builder(u0, v0, degree):
            uj, vj = Jet2.variables((u0, v0), degree)
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
            uj, vj = Jet2.variables((u0, v0), degree)
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

_MAGNITUDE_BITS = np.int64(2**63 - 1)  # every bit of a float64 but its sign


def _vertex_lines(vertices) -> str:
    """The OBJ vertex block, "v x1 x2 x0" per vertex, each coordinate its repr.

    repr, the shortest exact digits, runs once per distinct magnitude |x|: a
    grid's coordinates repeat (x0 along a row, values of both signs), and
    repr(x) == "-" + repr(-x) for every x with its sign bit set that is not a
    NaN (-0.0 and -inf too); a NaN keeps its bits as its key and prints "nan".
    The bytes are those of one "%r" per coordinate."""
    verts = np.asarray(vertices, float)[:, [1, 2, 0]]
    xs = verts.ravel()
    bits = xs.view(np.int64)
    neg = (bits < 0) & ~np.isnan(xs)
    keys, index = np.unique(np.where(neg, bits & _MAGNITUDE_BITS, bits), return_inverse=True)
    words = list(map(repr, keys.view(float).tolist()))
    # "-" words only for the magnitudes that occur negated, after the others
    at = index[neg]
    negated = np.zeros(len(keys), bool)
    negated[at] = True
    words += ["-" + words[i] for i in np.flatnonzero(negated).tolist()]
    index[neg] = len(keys) - 1 + np.cumsum(negated)[at]
    return ("v %s %s %s\n" * len(verts)) % tuple(np.array(words, dtype=object)[index].tolist())


def _json_text(payload) -> str:
    """Strict JSON text (RFC 8259) of payload, with null for each non-finite
    float: otherwise the text of json.dumps(payload, indent=2, sort_keys=True),
    built in one walk of the payload."""
    parts = []
    put = parts.append
    quote = json.encoder.encode_basestring_ascii

    def encode(x, newline):
        if isinstance(x, float):  # the most common value first; np.float64 too
            put(float.__repr__(x) if math.isfinite(x) else "null")
        elif isinstance(x, str):
            put(quote(x))
        elif x is None:
            put("null")
        elif x is True:
            put("true")
        elif x is False:
            put("false")
        elif isinstance(x, int):
            put(int.__repr__(x))
        elif isinstance(x, (list, tuple)):
            inner = newline + "  "
            sep = "[" + inner
            for item in x:
                put(sep)
                sep = "," + inner
                encode(item, inner)
            put(newline + "]" if x else "[]")
        elif isinstance(x, dict):
            inner = newline + "  "
            sep = "{" + inner
            for key, item in sorted(x.items()):
                if not isinstance(key, str):  # json's other keys: int, float, bool and None, as JSON text
                    if not (key is None or isinstance(key, (int, float))):
                        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
                    key = json.dumps(key, allow_nan=False)
                put(sep + quote(key) + ": ")
                sep = "," + inner
                encode(item, inner)
            put(newline + "}" if x else "{}")
        else:
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")

    encode(payload, "\n")
    return "".join(parts)


@dataclass
class Mesh:
    vertices: np.ndarray  # (n, 3), (x0, x1, x2) coordinates
    faces: np.ndarray  # (m, 3), 0-based vertex indices
    sidecar: dict

    def write_obj(self, path):
        # one %-format call per block; the vertex block's temporaries are freed
        # before the face block is formatted
        text = "".join([
            "# cmc-lab surface mesh; vertex order (x1, x2, x0)\n",
            _vertex_lines(self.vertices),
            ("f %d %d %d\n" * len(self.faces)) % tuple((self.faces + 1).ravel().tolist()),
        ])
        with open(path, "w") as fh:
            fh.write(text)
        sidecar_path = str(path) + ".json"
        with open(sidecar_path, "w") as fh:
            fh.write(_json_text(self.sidecar))
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
