"""Singular-point analysis: detection, classification, the (2,5)-cuspidal-edge
criterion, fold refutation, and the CMC fold-obstruction certificate.

Conventions fixed here (and relied on by every reported determinant):
the signed area density lambda = det(X_u, X_v, n), the straightened chart puts
the singular curve on {u = 0} with d_u the null direction signed along +dlambda,
and the curve direction d_v is the +dlambda direction rotated -90 degrees in
the parameter plane (a right-handed (curve, transverse) pair).  Determinant
zero tests are relative: det(c1,c2,c3) counts as zero iff
|det| <= tol * |c1||c2||c3|.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .jets import (
    Jet1,
    Jet2,
    MAX_DEGREE,
    VectorFieldJet,
    apply_vector_field,
    compose2 as _compose2,
    iterated_field_derivative,
    partial_values,
)
from .lorentz import NotSpacelikeError, euclid_cross
from .surfaces import Surface, custom_surface

DET_TOL = 1e-8        # relative determinant zero threshold
ANGLE_TOL = 1e-6      # first-kind transversality threshold
IMG_TOL = 1e-9        # conelike image-diameter threshold
RANK_TOL = 1e-7       # rank-1 vs rank-0 of dX
ROOT_TOL = 1e-12      # bisection tolerance for curve roots


class NormalUndefinedError(ValueError):
    """Normal extraction failed ("normal undefined (rank 0 or non-frontal)")."""


class DegenerateZeroSetError(ValueError):
    pass


class SingularTangentError(ValueError):
    """The along-curve tangent degenerates ("singular tangent degenerate")."""


class HypothesisViolationError(ValueError):
    """eta~^2 X vanishes where the criterion needs it nonzero."""


@dataclass
class SingularPointRecord:
    location: tuple
    lam: float
    dlam: tuple
    null_vector: Optional[tuple]
    kind: str  # first_kind | conelike | degenerate_rank0 | other
    rank: int
    normal: Optional[tuple] = None

    def as_dict(self):
        return {
            "location": list(map(float, self.location)),
            "lambda": float(self.lam),
            "dlambda": list(map(float, self.dlam)),
            "null_vector": None if self.null_vector is None else list(map(float, self.null_vector)),
            "kind": self.kind,
            "rank": int(self.rank),
        }


# -- normals and the signed area density --------------------------------------


def _lambda_jet(S: Surface, p, degree=MAX_DEGREE, normal=None, X=None):
    """Jet of lambda = (X_u x X_v) . N at p, one degree below the jets of X.

    N is the analytic normal jet when S carries one; otherwise the fixed unit
    vector `normal` (the anchored or frontal normal at a nearby point).  `X`
    passes the degree-`degree` jets of the surface at p when already at hand.
    The curve scan, the records' dlambda, the curve walk and the straightened
    chart all read lambda from here.
    """
    if X is None:
        X = S.jet(p[0], p[1], degree)
    W = euclid_cross([c.du() for c in X], [c.dv() for c in X])
    N = S.analytic_normal_jet(p[0], p[1], degree - 1) if S.has_analytic_normal else normal
    return W[0] * N[0] + W[1] * N[1] + W[2] * N[2]


def _rank1_normal_and_grad(S: Surface, p):
    """Frontal normal and dlambda at a singular point from the cross-product jet.

    Near a non-degenerate singular point W = lambda * n, so the Jacobian of W
    is n dlambda^T: rank one, column space spanned by the normal.
    """
    X = S.jet(p[0], p[1], 2)
    W = euclid_cross([c.du() for c in X], [c.dv() for c in X])
    J = np.array([w.gradient() for w in W])
    U, sv, Vt = np.linalg.svd(J)
    scale = max(np.max(np.abs(J)), 1e-300)
    if sv[0] <= 1e-10 * max(1.0, scale):
        raise NormalUndefinedError("normal undefined (rank 0 or non-frontal)")
    n = U[:, 0]
    dlam = J.T @ n
    # deterministic sign: largest component of dlambda positive
    i = int(np.argmax(np.abs(dlam)))
    if dlam[i] < 0:
        n, dlam = -n, -dlam
    return n, dlam


def euclidean_normal(S: Surface, p) -> np.ndarray:
    """A Euclidean unit normal at p, smooth across rank-1 singular points.

    Analytic normals are served when the surface carries one; otherwise the
    normalized cross product at regular points, and at singular points the
    direction left in the cross product's jet after its vanishing factor
    (read off as the column space of its Jacobian).
    """
    if S.has_analytic_normal:
        n = np.array([c.value for c in S.analytic_normal_jet(p[0], p[1], 0)])
        return n / np.linalg.norm(n)
    Xu, Xv = _dX(S, p).T
    w = np.array(euclid_cross(Xu, Xv))
    scale = max(np.linalg.norm(Xu) * np.linalg.norm(Xv), 1e-300)
    if np.linalg.norm(w) > 1e-9 * scale:
        return w / np.linalg.norm(w)
    n, _ = _rank1_normal_and_grad(S, p)
    return n


def signed_area_density(S: Surface, p) -> float:
    """det(X_u, X_v, n).

    With an analytic normal this is the smooth signed density; without one the
    pointwise normal makes it |X_u x X_v| at regular points (positive, the
    orientation sign), and the curve tracer anchors the sign locally instead.
    """
    Xu, Xv = _dX(S, p).T
    n = euclidean_normal(S, p)
    return float(np.linalg.det(np.array([Xu, Xv, n])))


def _lambda_and_grad(S: Surface, p):
    """(lambda, dlambda, n) at a singular point, exact from the jet of lambda."""
    if S.has_analytic_normal:
        n = np.array([c.value for c in S.analytic_normal_jet(p[0], p[1], 0)])
    else:
        n, _ = _rank1_normal_and_grad(S, p)
    lj = _lambda_jet(S, p, 2, normal=n)
    return lj.value, lj.gradient(), n


# -- singular curve tracing ----------------------------------------------------


def _dX(S: Surface, p):
    """[X_u X_v] at p (3x2), from degree-1 jets."""
    X = S.jet(p[0], p[1], 1)
    return np.array([partial_values(X, 1, 0), partial_values(X, 0, 1)]).T


def _null_and_rank(S: Surface, p):
    M = _dX(S, p)
    U, sv, Vt = np.linalg.svd(M)
    if sv[0] <= 1e-13:
        return None, 0
    if sv[1] > RANK_TOL * sv[0]:
        return None, 2
    return Vt[1], 1


def trace_singular_curve(
    S: Surface,
    box=None,
    n_grid: int = 33,
    max_records: int = 2000,
) -> list:
    """Sign-change scan on a grid, then bisection transverse to the zero set.

    Each grid node is evaluated once.  Surfaces without an analytic normal
    store W = X_u x X_v there and are scanned edgewise against the normal
    anchored at the edge start: the frontal normal is smooth across the curve
    while the raw cross product flips, so the anchored dot product is a
    locally signed density.
    """
    if box is None:
        (ulo, uhi), (vlo, vhi) = S.u_range, S.v_range
        s = 1e-6 * (uhi - ulo)
        box = (ulo + s, uhi - s, vlo, vhi)
    ulo, uhi, vlo, vhi = box
    nodes = [[(u, v) for v in np.linspace(vlo, vhi, n_grid)] for u in np.linspace(ulo, uhi, n_grid)]
    if S.has_analytic_normal:
        lam = [[_lambda_jet(S, q, 1).value for q in row] for row in nodes]
    else:
        W = [[np.array(euclid_cross(*_dX(S, q).T)) for q in row] for row in nodes]

    records = {}

    def add_root(q):
        key = (round(q[0], 9), round(q[1], 9))
        if key in records or len(records) >= max_records:
            return
        records[key] = _assemble_record(S, q)

    for i in range(n_grid):
        for j in range(n_grid):
            q1 = nodes[i][j]
            for i2, j2 in ((i + 1, j), (i, j + 1)):
                if i2 == n_grid or j2 == n_grid:
                    continue
                anchor = None
                if S.has_analytic_normal:
                    f1, f2 = lam[i][j], lam[i2][j2]
                else:
                    nw = np.linalg.norm(W[i][j])
                    if nw == 0.0:
                        add_root(q1)
                        continue
                    anchor = W[i][j] / nw
                    f1, f2 = float(W[i][j] @ anchor), float(W[i2][j2] @ anchor)
                scale = max(abs(f1), abs(f2), 1e-300)
                if abs(f1) <= 1e-14 * scale and abs(f1) < 1e-13:
                    add_root(q1)
                    continue
                if f1 * f2 >= 0:
                    continue
                a, b = np.asarray(q1, float), np.asarray(nodes[i2][j2], float)
                fa = f1
                while np.linalg.norm(b - a) > ROOT_TOL:
                    m = 0.5 * (a + b)
                    fm = _lambda_jet(S, m, 1, normal=anchor).value
                    if fa * fm <= 0:
                        b = m
                    else:
                        a, fa = m, fm
                add_root(tuple(0.5 * (a + b)))
    return [records[k] for k in sorted(records)]


def _assemble_record(S: Surface, q) -> SingularPointRecord:
    null_vec, rank = _null_and_rank(S, q)
    if rank == 0:
        return SingularPointRecord(q, 0.0, (0.0, 0.0), None, "degenerate_rank0", 0)
    try:
        lam, dlam, n = _lambda_and_grad(S, q)
    except NormalUndefinedError:
        return SingularPointRecord(q, 0.0, (0.0, 0.0), None, "degenerate_rank0", 0)
    rec = SingularPointRecord(
        q, lam, tuple(dlam), None if null_vec is None else tuple(null_vec), "other", min(rank, 1),
        normal=tuple(n),
    )
    if rank == 1:
        rec.kind = classify_kind(S, rec)
    return rec


def classify_kind(S: Surface, record: SingularPointRecord) -> str:
    """first_kind / conelike / degenerate_rank0 / other.

    Conelike is operational: the singular direction is null along the curve
    and the curve's image has diameter below IMG_TOL (the term is used in the
    sources without a displayed definition).
    """
    if record.rank == 0 or record.null_vector is None:
        return "degenerate_rank0"
    dlam = np.asarray(record.dlam)
    if np.linalg.norm(dlam) <= 1e-10:
        return "other"
    tangent = _curve_direction(dlam)
    eta = np.asarray(record.null_vector)
    eta = eta / np.linalg.norm(eta)
    if abs(tangent[0] * eta[1] - tangent[1] * eta[0]) > ANGLE_TOL:
        return "first_kind"
    # null direction tangent: test the conelike alternative along the curve
    pts = _walk_curve(S, record, n_side=3, step=None)
    imgs = np.array([S.point(*q) for q in pts])
    spread = np.max(np.linalg.norm(imgs - imgs[0], axis=1)) if len(imgs) else np.inf
    dtang = max(
        np.linalg.norm(_dX(S, q) @ _tangent_at(S, q, record)) for q in pts
    )
    scale = max(np.linalg.norm(_dX(S, record.location)), 1e-300)
    if spread < IMG_TOL * max(1.0, np.max(np.linalg.norm(imgs, axis=1))) + IMG_TOL and dtang < 1e-7 * scale:
        return "conelike"
    return "other"


def _curve_direction(dlam):
    """Unit curve direction: +dlambda rotated -90 deg (right-handed pair)."""
    T = np.asarray(dlam) / np.linalg.norm(dlam)
    return np.array([T[1], -T[0]])


def _tangent_at(S, q, record):
    try:
        _, dlam, _ = _lambda_and_grad(S, q)
        return _curve_direction(dlam)
    except NormalUndefinedError:
        return _curve_direction(np.asarray(record.dlam))


def _walk_curve(S: Surface, record, n_side=3, step=None):
    """A few curve points on both sides of the record, by tangent stepping plus
    transverse Newton correction on the density anchored at the record."""
    p = np.asarray(record.location, float)
    dlam = np.asarray(record.dlam)
    T = dlam / np.linalg.norm(dlam)
    tang = _curve_direction(dlam)
    if step is None:
        step = 0.02 * min(S.u_range[1] - S.u_range[0], S.v_range[1] - S.v_range[0])
    pts = [tuple(p)]
    lo, hi = S.u_range
    for side in (1.0, -1.0):
        q = p.copy()
        for _ in range(n_side):
            q = q + side * step * tang
            if not lo <= q[0] <= hi:
                break  # the curve leaves the domain on this side
            for _ in range(3):  # transverse Newton on lambda, slope from its jet
                lj = _lambda_jet(S, q, 2, normal=record.normal)
                d = float(lj.gradient() @ T)
                if abs(d) < 1e-300:
                    break
                q = q - (lj.value / d) * T
            pts.append(tuple(q))
    return pts


# -- straightened charts --------------------------------------------------------


@dataclass
class StraightChart:
    """The chart of the null-field lemma at one singular point.

    Psi(u, v) = gamma(v) + u * eta(v): {u = 0} is the singular curve, d_u is
    null along it (signed along +dlambda, unit at p), and v runs along the
    curve in the +dlambda-rotated-(-90deg) direction at unit parameter speed.
    X o Psi is served as degree-5 jets at the origin.
    """

    surface: Surface
    record: SingularPointRecord
    curve_u: Jet1 = field(init=False)
    curve_v: Jet1 = field(init=False)
    eta_u: Jet1 = field(init=False)
    eta_v: Jet1 = field(init=False)

    def __post_init__(self):
        S, rec = self.surface, self.record
        p = np.asarray(rec.location, float)
        dlam = np.asarray(rec.dlam, float)
        nd = np.linalg.norm(dlam)
        if nd <= 1e-12:
            raise DegenerateZeroSetError("degenerate zero set: dlambda vanishes")
        T = dlam / nd
        tang = _curve_direction(dlam)

        deg = MAX_DEGREE - 1  # the scalar density jet has one degree less than X
        X = S.jet(p[0], p[1], MAX_DEGREE)
        n = None if S.has_analytic_normal else _rank1_normal_and_grad(S, p)[0]
        g = _lambda_jet(S, p, MAX_DEGREE, normal=n, X=X)
        gT = float(g.gradient() @ T)
        if abs(gT) <= 1e-12:
            raise DegenerateZeroSetError("degenerate zero set: no transverse slope")

        # solve the curve as gamma(v) = p + v*tang + phi(v)*T with phi = O(v^2)
        def curve_coeffs(phi):
            cu = tang[0] * _lin(deg) + T[0] * phi
            cv = tang[1] * _lin(deg) + T[1] * phi
            cu[0] += p[0]
            cv[0] += p[1]
            return Jet1(0.0, deg, cu), Jet1(0.0, deg, cv)

        phi = np.zeros(deg + 1)
        for m in range(2, deg + 1):
            cu, cv = curve_coeffs(phi)
            G = _compose2(g, cu, cv)
            phi[m] -= G.c[m] / gT
        self.curve_u, self.curve_v = curve_coeffs(phi)

        # null direction along the curve: kernel of dX via the image tangent
        M = _dX(S, tuple(p))
        e = M @ tang
        ne = np.linalg.norm(e)
        if ne <= 1e-12:
            raise SingularTangentError("singular tangent degenerate")
        e = e / ne
        Xu_c = [_compose2(c.du(), self.curve_u, self.curve_v) for c in X]
        Xv_c = [_compose2(c.dv(), self.curve_u, self.curve_v) for c in X]
        eta_u = -(Xv_c[0] * e[0] + Xv_c[1] * e[1] + Xv_c[2] * e[2])
        eta_v = Xu_c[0] * e[0] + Xu_c[1] * e[1] + Xu_c[2] * e[2]
        e0 = np.array([eta_u.value, eta_v.value])
        n0 = np.linalg.norm(e0)
        if n0 <= 1e-12:
            raise SingularTangentError("singular tangent degenerate: null field vanishes")
        sgn = 1.0 if float(e0 @ dlam) > 0 else -1.0
        self.eta_u = eta_u * (sgn / n0)
        self.eta_v = eta_v * (sgn / n0)

    def jets(self, degree: int = MAX_DEGREE):
        """Degree-`degree` jets of X o Psi at the chart origin."""
        p = self.record.location
        psi_u = _lift_chart(self.curve_u, self.eta_u, degree)
        psi_v = _lift_chart(self.curve_v, self.eta_v, degree)
        return tuple(_compose2(c, psi_u, psi_v) for c in self.surface.jet(p[0], p[1], degree))


def _lin(deg):
    out = np.zeros(deg + 1)
    out[1] = 1.0
    return out


def _lift_chart(curve: Jet1, eta: Jet1, degree: int) -> Jet2:
    """Psi component gamma(v) + u * eta(v) as a bivariate jet at the origin."""
    c = np.zeros((degree + 1, degree + 1))
    n = min(degree, curve.degree) + 1
    c[0, :n] = curve.c[:n]
    m = min(degree - 1, eta.degree) + 1
    if degree >= 1:
        c[1, :m] = eta.c[:m]
    return Jet2((0.0, 0.0), degree, c)


# -- criterion machinery ---------------------------------------------------------


def _rel_det(c1, c2, c3):
    d = float(np.linalg.det(np.array([c1, c2, c3])))
    scale = np.linalg.norm(c1) * np.linalg.norm(c2) * np.linalg.norm(c3)
    rel = abs(d) / scale if scale > 0 else (0.0 if d == 0 else math.inf)
    return d, rel


def condition3_det(Y, xi: VectorFieldJet = None, eta: VectorFieldJet = None):
    """det(xi X, eta eta X, eta eta eta X) at the chart origin (raw, relative)."""
    base = Y[0].base
    if xi is None:
        xi = VectorFieldJet.constant(0.0, 1.0, base)
    if eta is None:
        eta = VectorFieldJet.constant(1.0, 0.0, base)
    c1 = iterated_field_derivative(Y, xi, 1)
    c2 = iterated_field_derivative(Y, eta, 2)
    c3 = iterated_field_derivative(Y, eta, 3)
    return _rel_det(c1, c2, c3)


def lemma_special_coefficients(Y):
    """(a, b) of the special null field d_u + (a u + b u^2) d_v in the chart.

    a = -(X_v . X_uu)/(X_v . X_v), b = -(X_v . (X_uuu + 3a X_uv))/(2 X_v . X_v),
    evaluated at the origin of the straightened chart.
    """
    Xv = partial_values(Y, 0, 1)
    Xuu = partial_values(Y, 2, 0)
    Xuuu = partial_values(Y, 3, 0)
    Xuv = partial_values(Y, 1, 1)
    vv = float(Xv @ Xv)
    if vv <= 1e-300:
        raise SingularTangentError("singular tangent degenerate")
    a = -float(Xv @ Xuu) / vv
    b = -float(Xv @ (Xuuu + 3 * a * Xuv)) / (2 * vv)
    return a, b


def special_field(a, b, base=(0.0, 0.0), degree=MAX_DEGREE) -> VectorFieldJet:
    u = Jet2.coordinate(base, degree, 0) - base[0]
    return VectorFieldJet(Jet2.constant(1.0, base, degree), a * u + b * u * u)


def special_null_field(S: Surface, record: SingularPointRecord):
    """The lemma's special null field at a first-kind record.

    Returns ((a, b), eta~ as a VectorFieldJet in the straightened chart, and
    the residuals of the defining orthogonality conditions).
    """
    return _special_null_field_of(StraightChart(S, record).jets())


def _special_null_field_of(Y):
    """special_null_field from the jets Y of X in the straightened chart."""
    a, b = lemma_special_coefficients(Y)
    eta = special_field(a, b)
    xiX = partial_values(Y, 0, 1)
    e2 = iterated_field_derivative(Y, eta, 2)
    e3 = iterated_field_derivative(Y, eta, 3)
    scale = np.linalg.norm(xiX) * max(np.linalg.norm(e2), np.linalg.norm(e3), 1e-300)
    res = (abs(float(xiX @ e2)) / scale, abs(float(xiX @ e3)) / scale)
    return (a, b), eta, res


def constant_C(Y, eta: VectorFieldJet):
    """C with eta~^3 X = C eta~^2 X, by least squares, plus the collinearity residual.

    The sources presuppose exact collinearity; the residual makes the
    presupposition checkable.
    """
    e2 = iterated_field_derivative(Y, eta, 2)
    e3 = iterated_field_derivative(Y, eta, 3)
    n2 = float(e2 @ e2)
    if n2 <= 1e-300:
        raise HypothesisViolationError("hypothesis violated: eta~^2 X vanishes")
    C = float(e3 @ e2) / n2
    residual = float(np.linalg.norm(e3 - C * e2)) / math.sqrt(n2)
    return C, residual


def condition4_det(Y, eta: VectorFieldJet, C: float, xi: VectorFieldJet = None):
    """det(xi X, eta~^2 X, 3 eta~^5 X - 10 C eta~^4 X) at the origin (raw, relative)."""
    base = Y[0].base
    if xi is None:
        xi = VectorFieldJet.constant(0.0, 1.0, base)
    c1 = iterated_field_derivative(Y, xi, 1)
    c2 = iterated_field_derivative(Y, eta, 2)
    c3 = 3 * iterated_field_derivative(Y, eta, 5) - 10 * C * iterated_field_derivative(Y, eta, 4)
    return _rel_det(c1, c2, c3)


@dataclass
class SampleCriterion:
    location: tuple
    cond3_det: float
    cond3_rel: float
    a: float
    b: float
    C: float
    collinearity_residual: float
    special_residuals: tuple
    cond4_det: float
    cond4_rel: float

    def as_dict(self):
        d = dict(self.__dict__)
        d["location"] = list(map(float, self.location))
        d["special_residuals"] = list(map(float, self.special_residuals))
        return d


@dataclass
class CriterionReport:
    condition3_max_abs_det: float  # max relative condition-3 determinant over samples
    special_field: tuple  # (a, b) at the representative sample
    C: float
    collinearity_residual: float
    condition4_det: Optional[float]  # raw determinant at the representative sample; None if not computed
    verdict: str  # cusp25 | rejected_cond3 | rejected_cond4 | not_applicable
    samples: list
    tolerances: dict
    tested_interval: tuple
    reason: str = ""

    def as_dict(self):
        return {
            "condition3_max_abs_det": float(self.condition3_max_abs_det),
            "special_field": list(map(float, self.special_field)),
            "C": float(self.C),
            "collinearity_residual": float(self.collinearity_residual),
            "condition4_det": None if self.condition4_det is None else float(self.condition4_det),
            "verdict": self.verdict,
            "reason": self.reason,
            "tolerances": self.tolerances,
            "tested_interval": list(map(float, self.tested_interval)),
            "samples": [s.as_dict() for s in self.samples],
        }


def conjugate_condition4_det(k: float, H: float) -> float:
    """The closed-form condition-4 determinant of the conjugate of the
    timelike-axis Delaunay surface: -36/(H |k - 1|)^3 on branch I-i, and
    9/H^2 on branch I-ii (k = -1)."""
    if k == -1.0:
        return 9.0 / (H * H)
    return -36.0 / (H * abs(k - 1.0)) ** 3


def criterion_25(
    S: Surface,
    records: Sequence[SingularPointRecord],
    tol3: float = DET_TOL,
    tol4: float = DET_TOL,
    tol_C: float = DET_TOL,
) -> CriterionReport:
    """The (2,5)-cuspidal-edge test on sampled points of a singular curve.

    Each sample is straightened independently; the vanishing condition is
    checked with the plain chart fields, then the special field, the constant
    C, and the order-5 determinant are built at the same point.  All
    determinants come from degree-5 jets: no finite differencing anywhere.
    """
    records = list(records)
    if not records:
        raise ValueError("criterion_25 needs at least one singular sample")
    bad = [r for r in records if r.kind != "first_kind"]
    p0 = np.asarray(records[0].location, float)
    d0 = np.asarray(records[0].dlam, float)
    tang = _curve_direction(d0) if np.linalg.norm(d0) > 0 else np.array([1.0, 0.0])
    ss = [float((np.asarray(r.location) - p0) @ tang) for r in records]
    interval = (min(ss), max(ss))
    tolerances = {"tol3": tol3, "tol4": tol4, "tol_C": tol_C}
    if bad:
        return CriterionReport(
            math.inf, (math.nan, math.nan), math.nan, math.inf, None,
            "not_applicable", [], tolerances, interval,
            reason=f"{len(bad)} sample(s) not of the first kind (e.g. {bad[0].kind})",
        )

    samples = []
    for rec in records:
        chart = StraightChart(S, rec)
        Y = chart.jets()
        d3, r3 = condition3_det(Y)
        (a, b), eta, sres = _special_null_field_of(Y)
        C, collin = constant_C(Y, eta)
        d4, r4 = condition4_det(Y, eta, C)
        samples.append(SampleCriterion(rec.location, d3, r3, a, b, C, collin, sres, d4, r4))

    mid = len(samples) // 2
    rep = samples[mid]
    max3 = max(s.cond3_rel for s in samples)
    maxcol = max(s.collinearity_residual for s in samples)
    if max3 > tol3:
        verdict, reason = "rejected_cond3", f"condition-3 determinant {max3:.3e} above tolerance"
    elif maxcol > tol_C:
        verdict, reason = "not_applicable", f"collinearity residual {maxcol:.3e} above tolerance"
    elif min(s.cond4_rel for s in samples) <= tol4:
        verdict, reason = "rejected_cond4", "condition-4 determinant vanishes"
    else:
        verdict, reason = "cusp25", ""
    return CriterionReport(
        max3, (rep.a, rep.b), rep.C, maxcol, rep.cond4_det, verdict,
        samples, tolerances, interval, reason,
    )


# -- fold tests -------------------------------------------------------------------


@dataclass
class FoldReport:
    verdict: str  # fold_candidate | rejected
    residual: float
    reason: str = ""

    def as_dict(self):
        return {"verdict": self.verdict, "residual": float(self.residual), "reason": self.reason}


def fold_symmetry_test(S: Surface, record: SingularPointRecord) -> FoldReport:
    """Necessary-condition battery for a fold at a first-kind singular point.

    In the chart with the curve on {v = 0} and d_v null, a fold's jet has all
    odd-in-v coefficient vectors inside span(xi X, eta^2 X) (the image plane);
    the residual is the largest orthogonal component over odd monomials.  A
    refutation battery, not an A-equivalence decision.
    """
    if record.kind != "first_kind":
        return FoldReport("rejected", math.inf, f"kind is {record.kind}, not first_kind")
    chart = StraightChart(S, record)
    Y = chart.jets()
    # swap axes: lemma chart has the null direction first, the fold chart last
    Ysw = tuple(Jet2(c.base, c.degree, c.c.T.copy()) for c in Y)
    xiX = partial_values(Ysw, 1, 0)
    e2 = partial_values(Ysw, 0, 2)
    if np.linalg.norm(e2) <= 1e-12 * max(1.0, np.linalg.norm(xiX)):
        return FoldReport("rejected", math.inf, "eta^2 X vanishes (image-plane test failed)")
    B = np.array([xiX, e2]).T  # 3x2 span of the image plane
    Q, _ = np.linalg.qr(B)
    scale = max(np.max(np.abs([c.c for c in Ysw])), 1e-300)
    residual = 0.0
    D = Ysw[0].degree
    for a in range(D + 1):
        for b in range(1, D + 1 - a, 2):
            vec = np.array([c.c[a, b] for c in Ysw])
            perp = vec - Q @ (Q.T @ vec)
            residual = max(residual, float(np.linalg.norm(perp)))
    residual /= scale
    if residual < 1e-8:
        return FoldReport("fold_candidate", residual)
    return FoldReport("rejected", residual, "odd-in-v jet leaves the image plane")


def cmc_fold_obstruction(
    S: Surface,
    record: SingularPointRecord,
    offset: float = 1e-4,
    flank: float = 0.5,
) -> dict:
    """Certificate that a fold is impossible at a non-degenerate CMC singular point.

    Extracts the one-sided limits of |g| toward the curve (Richardson in the
    offset), the sheet flip of the unit normal across the curve (the sign of
    |g| - 1 must differ on the two sides), a nondegeneracy estimate |dg|, and
    the Laplace identity residual Delta X + 2 H nu at flanking regular points.
    """
    from .representation import _abs_g_limit, gauss_map_of, laplacian_identity_residual

    if record.rank == 0:
        return {
            "conclusion": "rank-0 regime (omega = 0): no certificate",
            "regime": "omega_zero_rank0",
        }
    p = np.asarray(record.location, float)
    dlam = np.asarray(record.dlam, float)
    T = dlam / np.linalg.norm(dlam)

    def g_at(q):
        w = gauss_map_of(S, tuple(q))
        return complex(w)

    sides = {}
    for name, sgn in (("plus", 1.0), ("minus", -1.0)):
        ys, limit = _abs_g_limit(S, p, sgn * T, offset)
        sides[name] = {
            "samples": ys,
            "limit_abs_g": limit,
            "abs_g_minus_1": abs(limit - 1.0),
            "sign_abs_g_minus_1": float(np.sign(ys[0] - 1.0)),
        }
    flip = sides["plus"]["sign_abs_g_minus_1"] * sides["minus"]["sign_abs_g_minus_1"] < 0

    h = offset
    gp = g_at(p + h * T)
    gm = g_at(p - h * T)
    tang = _curve_direction(dlam)
    gt1 = g_at(p + h * T + h * tang)
    gt2 = g_at(p + h * T - h * tang)
    dg = math.hypot(abs(gp - gm) / (2 * h), abs(gt1 - gt2) / (2 * h))

    lap = []
    for sgn in (1.0, -1.0):
        q = p + sgn * flank * T
        if S.u_range[0] < q[0] < S.u_range[1]:
            try:
                lap.append(laplacian_identity_residual(S, tuple(q)))
            except NotSpacelikeError:
                pass
    return {
        "location": list(map(float, record.location)),
        "offset": offset,
        "sides": sides,
        "sheet_flip": bool(flip),
        "dg_estimate": dg,
        "laplacian_residual_max": max(lap) if lap else None,
        "conclusion": "fold impossible" if flip else "no flip detected",
    }


# -- field perturbations and ambient diffeomorphisms -------------------------------


def perturb_fields(
    xi: VectorFieldJet,
    eta: VectorFieldJet,
    a1: Jet2,
    a2: Jet2,
    b1: Jet2,
    b2: Jet2,
    special: bool = False,
):
    """Admissible change of extensions: xi_bar = a1 xi + a2 eta, eta_bar = b1 xi + b2 eta.

    In the straightened chart the singular set is {u = 0}: a2 and b1 must
    vanish there, a1 and b2 must not vanish at the origin.  With special=True
    the additional constraints eta b1 = eta eta b1 = 0 at the origin are
    enforced (needed for the order-4/5 covariance).  Returns the transformed
    fields and the predicted condition-4 scale a1(p) * b2(p)^7.
    """
    for name, cjet in (("a2", a2), ("b1", b1)):
        col = np.abs(cjet.c[0, :])
        if col.max() > 1e-10 * max(1.0, np.abs(cjet.c).max()):
            raise ValueError(f"{name} must vanish on the singular set {{u = 0}}")
    if abs(a1.value) < 1e-12 or abs(b2.value) < 1e-12:
        raise ValueError("a1 and b2 must be nonvanishing on the singular set")
    if special:
        for k in (1, 2):
            j = b1
            for _ in range(k):
                j = apply_vector_field(eta, j)
            if abs(j.value) > 1e-10:
                raise ValueError("special variant needs eta b1 = eta eta b1 = 0 at p")
    xi_bar = VectorFieldJet(a1 * xi.e1 + a2 * eta.e1, a1 * xi.e2 + a2 * eta.e2)
    eta_bar = VectorFieldJet(b1 * xi.e1 + b2 * eta.e1, b1 * xi.e2 + b2 * eta.e2)
    predicted_scale = float(a1.value) * float(b2.value) ** 7
    return xi_bar, eta_bar, predicted_scale


def diffeo_push(S: Surface, linear, quadratic=None, cubic=None) -> Surface:
    """Push the surface through a polynomial diffeomorphism germ of R^3.

    Phi(x) = A x + Q(x, x) + C(x, x, x): `linear` is the invertible 3x3 matrix,
    `quadratic[i]` an optional 3x3 symmetric form per component, `cubic[i]` an
    optional 3x3x3 form per component.
    """
    A = np.asarray(linear, float)
    if abs(np.linalg.det(A)) < 1e-12:
        raise ValueError("diffeomorphism germ needs an invertible linear part")
    Q = None if quadratic is None else np.asarray(quadratic, float)
    Cc = None if cubic is None else np.asarray(cubic, float)

    def builder(u, v, degree):
        X = S.jet(u, v, degree)
        # each monomial once per call: XX[j][k] = X_j X_k, XXX[j][k][l] = X_j (X_k X_l)
        if Q is not None or Cc is not None:
            XX = [[X[j] * X[k] for k in range(3)] for j in range(3)]
        if Cc is not None:
            XXX = [[[X[j] * XX[k][l] for l in range(3)] for k in range(3)] for j in range(3)]
        out = []
        for i in range(3):
            acc = A[i, 0] * X[0] + A[i, 1] * X[1] + A[i, 2] * X[2]
            if Q is not None:
                for j in range(3):
                    for k in range(3):
                        if Q[i, j, k] != 0:
                            acc = acc + Q[i, j, k] * XX[j][k]
            if Cc is not None:
                for j in range(3):
                    for k in range(3):
                        for l in range(3):
                            if Cc[i, j, k, l] != 0:
                                acc = acc + Cc[i, j, k, l] * XXX[j][k][l]
            out.append(acc)
        return tuple(out)

    return custom_surface(
        builder, u_range=S.u_range, v_range=S.v_range,
        meta={"pushed_from": S.family},
    )


# -- reports -----------------------------------------------------------------------


def classification_report(S: Surface, records, criterion: CriterionReport, certificates=None):
    """JSON-ready classification report for one surface."""
    return {
        "surface": S.family,
        "parameters": {"H": S.H, "k": S.k, "variant": S.variant},
        "conelike_definition": "operational",
        "samples": [r.as_dict() for r in records],
        "criterion": criterion.as_dict() if criterion is not None else None,
        "certificates": certificates or [],
    }


def sweep_rows_to_csv(rows, fh=None):
    """Flatten sweep rows (one dict per (k, H) case) to CSV."""
    buf = fh or io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return buf if fh else buf.getvalue()
