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
    compose2 as _compose2,
    field_chain,
    partial_values,
)
from .lorentz import euclid_cross
from .surfaces import Surface, custom_surface

DET_TOL = 1e-8        # relative determinant zero threshold
ANGLE_TOL = 1e-6      # first-kind transversality threshold
IMG_TOL = 1e-9        # conelike image-diameter threshold
RANK_TOL = 1e-7       # rank-1 vs rank-0 of dX
ROOT_TOL = 1e-12      # bracket width for curve roots
ROOT_GATE = 1e3       # a scan root needs |lambda| <= ROOT_GATE * ROOT_TOL * max(|dlambda|, 1)


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


def _norm(x):
    """Euclidean norm over the last axis (np.linalg.norm of each row, to the bit)."""
    return np.sqrt(np.vecdot(x, x))


def _cross_jets(X):
    """Jets of W = X_u x X_v, one degree below the jets X."""
    return euclid_cross([c.du() for c in X], [c.dv() for c in X])


def _density(W, N):
    """W . N for the jets W and a normal N: three jets, or three numbers (or
    (B,) arrays, one number per batch element)."""
    return W[0] * N[0] + W[1] * N[1] + W[2] * N[2]


def _lambda_jet(S: Surface, p, degree=MAX_DEGREE, normal=None, W=None):
    """Jet of lambda = (X_u x X_v) . N at p, one degree below the jets of X.

    N is the analytic normal jet when S carries one; otherwise the fixed unit
    vector `normal` (the anchored or frontal normal at a nearby point).  `W`
    passes the jets of X_u x X_v when already at hand.  p may be a pair of
    (B,) arrays, with one normal per point in a (B, 3) `normal`.  The curve
    scan, the curve walk and the straightened chart read lambda from here.
    """
    if W is None:
        W = _cross_jets(S.jet(p[0], p[1], degree))
    if S.has_analytic_normal:
        N = S.analytic_normal_jet(p[0], p[1], degree - 1)
    else:
        N = np.asarray(normal, float).T
    return _density(W, N)


def _frontal_normal(W):
    """The frontal normal from the cross-product jets W (degree >= 1) at a
    singular point, and whether it is defined there.

    Near a non-degenerate singular point W = lambda * n, so the Jacobian of W
    is n dlambda^T: rank one, column space spanned by the normal.  The sign
    makes the largest component of dlambda positive.  The normal is undefined
    (rank 0 or non-frontal) where the Jacobian's largest singular value is at
    most 1e-10 * max(1, its largest entry).  Batched jets give a (B, 3) array
    of normals and a (B,) mask.
    """
    J = np.stack([w.gradient() for w in W], axis=-2)
    U, sv, _ = np.linalg.svd(J)
    scale = np.maximum(np.abs(J).max(axis=(-2, -1)), 1e-300)
    defined = sv[..., 0] > 1e-10 * np.maximum(1.0, scale)
    n = U[..., :, 0]
    dlam = np.vecdot(J, n[..., None], axis=-2)
    i = np.argmax(np.abs(dlam), axis=-1)[..., None]
    flip = np.take_along_axis(dlam, i, axis=-1) < 0
    return np.where(flip, -n, n), defined


def _frontal_at(S: Surface, u, v):
    """One batched degree-2 evaluation at the (B,) points (u, v).

    Returns the jets X, the normal n (B, 3), a (B,) mask of the points where n
    is defined, and lambda (B,) and dlambda (B, 2) of the density on n.  The
    normal is the analytic one when S carries one, otherwise the frontal
    normal of the cross product's jet.
    """
    X = S.jet(u, v, 2)
    W = _cross_jets(X)
    if S.has_analytic_normal:
        N = S.analytic_normal_jet(u, v, 1)
        n = np.stack([c.value for c in N], axis=-1)
        defined = np.ones(np.shape(u), bool)
    else:
        n, defined = _frontal_normal(W)
        N = n.T
    lam = _density(W, N)
    return X, n, defined, lam.value, lam.gradient()


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
    X = S.jet(p[0], p[1], 2)
    Xu, Xv = _dX_of(X).T
    w = np.array(euclid_cross(Xu, Xv))
    scale = max(np.linalg.norm(Xu) * np.linalg.norm(Xv), 1e-300)
    if np.linalg.norm(w) > 1e-9 * scale:
        return w / np.linalg.norm(w)
    n, defined = _frontal_normal(_cross_jets(X))
    if not defined:
        raise NormalUndefinedError("normal undefined (rank 0 or non-frontal)")
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


# -- singular curve tracing ----------------------------------------------------


def _dX(S: Surface, p):
    """[X_u X_v] at p (3x2), from degree-1 jets."""
    return _dX_of(S.jet(p[0], p[1], 1))


def _dX_of(X):
    """[X_u X_v] from the jets X: (3, 2), or (B, 3, 2) for batched jets."""
    return np.stack([c.gradient() for c in X], axis=-2)


class ScanRecords(list):
    """The records of a scan, in key order, and `unconfirmed_roots`: how many
    of the scan's roots the root gate dropped."""

    def __init__(self, records=(), unconfirmed_roots=0):
        super().__init__(records)
        self.unconfirmed_roots = unconfirmed_roots


def trace_singular_curve(
    S: Surface,
    box=None,
    n_grid: int = 33,
    max_records: int = 2000,
) -> ScanRecords:
    """Sign-change scan on a grid, then root bracketing along the edges.

    The grid nodes are evaluated in one batched degree-1 call.  Surfaces
    without an analytic normal store W = X_u x X_v there and are scanned
    edgewise against the normal anchored at the edge start: the frontal
    normal is smooth across the curve while the raw cross product flips, so
    the anchored dot product is a locally signed density.  A node where the
    density vanishes is a root itself: |density| <= 1e-14 times the larger
    of its values at the edge's two ends and |dX|^2 at the node (and below
    1e-13).  The |dX|^2 scale keeps a node on the curve a root when its
    anchor is roundoff and the anchored density at the edge's far end is
    small too.  The other sign-change edges are shrunk in lockstep by
    `_bracketed_roots`, one batched degree-1 call per step over the edges
    still longer than ROOT_TOL.

    The roots are deduplicated on their coordinates rounded to 9 digits, in
    scan order, and assembled from one batched degree-2 call.  The root gate
    drops a root where |lambda| > ROOT_GATE * ROOT_TOL * max(|dlambda|, 1)
    (lambda on the frontal normal): a sign change of the anchored density
    that is not a zero of lambda.  The first `max_records` roots that pass
    the gate become records; the dropped ones are counted in
    `unconfirmed_roots`.
    """
    if box is None:
        (ulo, uhi), (vlo, vhi) = S.u_range, S.v_range
        s = 1e-6 * (uhi - ulo)
        box = (ulo + s, uhi - s, vlo, vhi)
    ulo, uhi, vlo, vhi = box
    us, vs = np.linspace(ulo, uhi, n_grid), np.linspace(vlo, vhi, n_grid)
    u, v = (a.ravel() for a in np.meshgrid(us, vs, indexing="ij"))  # node (i, j) at (us[i], vs[j])
    # the edges in scan order: from node (i, j) to (i + 1, j), then to (i, j + 1)
    i, j, down = (a.ravel() for a in np.meshgrid(
        np.arange(n_grid), np.arange(n_grid), [True, False], indexing="ij"))
    i2, j2 = i + down, j + ~down
    inside = (i2 < n_grid) & (j2 < n_grid)
    i, j, i2, j2 = i[inside], j[inside], i2[inside], j2[inside]

    anchor = None
    X = S.jet(u, v, 1)
    dX = _dX_of(X)
    dx2 = np.sum(dX * dX, axis=(-2, -1)).reshape(n_grid, n_grid)[i, j]  # |dX|^2 at the edge start
    if S.has_analytic_normal:
        lam = _lambda_jet(S, (u, v), 1, W=_cross_jets(X)).value.reshape(n_grid, n_grid)
        f1, f2 = lam[i, j], lam[i2, j2]
    else:
        W = np.stack([w.value for w in _cross_jets(X)], axis=-1)
        W = W.reshape(n_grid, n_grid, 3)
        nw = _norm(W[i, j])
        anchor = W[i, j] / np.where(nw == 0.0, 1.0, nw)[:, None]  # W = 0: f1 = 0, a root
        f1, f2 = np.vecdot(W[i, j], anchor), np.vecdot(W[i2, j2], anchor)
    scale = np.maximum(np.maximum(np.abs(f1), np.abs(f2)), np.maximum(dx2, 1e-300))
    at_node = (np.abs(f1) <= 1e-14 * scale) & (np.abs(f1) < 1e-13)
    crossing = ~at_node & (f1 * f2 < 0)

    roots = np.stack([us[i], vs[j]], axis=-1)
    roots[crossing] = _bracketed_roots(
        S, roots[crossing], np.stack([us[i2], vs[j2]], axis=-1)[crossing], f1[crossing],
        f2[crossing], None if anchor is None else anchor[crossing])
    roots = roots[at_node | crossing]
    first = {}
    for n, key in enumerate(map(tuple, np.round(roots, 9).tolist())):
        first.setdefault(key, n)
    if not first or max_records <= 0:
        return ScanRecords()
    records = _assemble_records(S, roots[list(first.values())])
    kept = [(key, rec) for key, rec in zip(first, records) if rec is not None][:max_records]
    rank1 = [rec for _, rec in kept if rec.rank == 1]
    for rec, kind in zip(rank1, _kinds(S, rank1)):
        rec.kind = kind
    return ScanRecords((rec for _, rec in sorted(kept, key=lambda kr: kr[0])),
                       unconfirmed_roots=records.count(None))


def _bracketed_roots(S: Surface, a, b, fa, fb, anchor):
    """Shrink the sign-change edges [a, b] (rows of (E, 2) arrays) in
    lockstep until each is at most ROOT_TOL long; fa and fb hold the density
    at the ends, `anchor` the (E, 3) anchored normals (None with an analytic
    normal).  Returns the final midpoints.

    Each step is one batched evaluation at one point per open edge: the
    Illinois false-position point (the secant point, with the density at an
    end kept twice in a row halved), kept at least ROOT_TOL / 2 from both
    ends, so that once the secant point is within ROOT_TOL / 2 of the root
    the next step closes the bracket.  An edge that did not halve over its
    last two steps takes the midpoint instead, so no edge needs more than
    about three times the steps of bisection; a smooth density with a simple
    root takes a few steps.
    """
    a, b, fa, fb = a.copy(), b.copy(), fa.copy(), fb.copy()
    kept = np.zeros(len(a), np.int8)  # the end the last step kept: +1 a, -1 b
    width2 = np.full(len(a), np.inf)  # the width two steps back
    width1 = width2.copy()
    while True:
        width = _norm(b - a)
        live = np.flatnonzero(width > ROOT_TOL)
        if not live.size:
            return 0.5 * (a + b)
        w, fl_a, fl_b = width[live], fa[live], fb[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = fl_a / (fl_a - fl_b)
        t = np.where(np.isfinite(t) & (w <= 0.5 * width2[live]), t, 0.5)
        h = 0.5 * ROOT_TOL / w
        t = np.clip(t, h, 1.0 - h)
        m = a[live] + t[:, None] * (b[live] - a[live])
        fm = _lambda_jet(S, (m[:, 0], m[:, 1]), 1,
                         normal=None if anchor is None else anchor[live]).value
        width2[live], width1[live] = width1[live], w
        hit = fm == 0
        left = ~hit & (fl_a * fm < 0)  # the root lies in [a, m]: keep a
        right = ~hit & ~left
        a[live[hit]] = b[live[hit]] = m[hit]
        fa[live[left & (kept[live] == 1)]] *= 0.5
        fb[live[right & (kept[live] == -1)]] *= 0.5
        b[live[left]], fb[live[left]] = m[left], fm[left]
        a[live[right]], fa[live[right]] = m[right], fm[right]
        kept[live] = np.where(left, 1, np.where(right, -1, 0))


def _assemble_records(S: Surface, q) -> list:
    """Records at the (R, 2) roots q, kinds not yet set, from one batched
    degree-2 evaluation; None where the root gate drops the root.

    The rank and null vector come from the singular values of dX, the normal
    and lambda, dlambda from `_frontal_at`.  Rank 0, or an undefined frontal
    normal, gives a degenerate_rank0 record; rank 2 a record of kind other
    with no null vector.
    """
    X, n, defined, lam, dlam = _frontal_at(S, q[:, 0], q[:, 1])
    _, sv, Vt = np.linalg.svd(_dX_of(X))
    rank = np.where(sv[:, 0] <= 1e-13, 0, np.where(sv[:, 1] > RANK_TOL * sv[:, 0], 2, 1))
    degenerate = (rank == 0) | ~defined
    confirmed = np.abs(lam) <= ROOT_GATE * ROOT_TOL * np.maximum(_norm(dlam), 1.0)
    records = []
    for b, loc in enumerate(map(tuple, q.tolist())):
        if degenerate[b]:
            records.append(SingularPointRecord(loc, 0.0, (0.0, 0.0), None, "degenerate_rank0", 0))
        elif not confirmed[b]:
            records.append(None)
        else:
            records.append(SingularPointRecord(
                loc, float(lam[b]), tuple(dlam[b].tolist()),
                tuple(Vt[b, 1].tolist()) if rank[b] == 1 else None, "other", int(rank[b]),
                normal=tuple(n[b].tolist())))
    return records


def classify_kind(S: Surface, record: SingularPointRecord) -> str:
    """first_kind / conelike / degenerate_rank0 / other.

    Conelike is operational: the singular direction is null along the curve
    and the curve's image has diameter below IMG_TOL (the term is used in the
    sources without a displayed definition).  A rank-2 record (dX regular
    there) is other.
    """
    if record.rank != 1 or record.null_vector is None:
        return "other" if record.rank == 2 else "degenerate_rank0"
    return _kinds(S, [record])[0]


def _kinds(S: Surface, records) -> list:
    """classify_kind of rank-1 records with a null vector: first_kind where
    the null direction is transverse to the curve; where it is tangent,
    conelike or other by walks along the curve, run in lockstep."""
    kinds = []
    for rec in records:
        dlam = np.asarray(rec.dlam, float)
        if np.linalg.norm(dlam) <= 1e-10:
            kinds.append("other")
            continue
        t = _curve_direction(dlam)
        eta = np.asarray(rec.null_vector, float)
        eta = eta / np.linalg.norm(eta)
        kinds.append("first_kind" if abs(t[0] * eta[1] - t[1] * eta[0]) > ANGLE_TOL else None)
    tangent = [n for n, kind in enumerate(kinds) if kind is None]
    if tangent:
        for n, cone in zip(tangent, _conelike(S, [records[n] for n in tangent])):
            kinds[n] = "conelike" if cone else "other"
    return kinds


def _curve_direction(dlam):
    """Unit curve direction: +dlambda rotated -90 deg (right-handed pair);
    row by row for a (B, 2) array."""
    T = np.asarray(dlam, float)
    T = T / _norm(T)[..., None]
    return np.stack([T[..., 1], -T[..., 0]], axis=-1)


def _conelike(S: Surface, records, n_side=3) -> np.ndarray:
    """Whether each record's curve is conelike near it: the images of a few
    curve points on both sides lie within IMG_TOL of the record's image, and
    dX kills the curve tangent at each of them.

    The curve points come from tangent steps with a transverse Newton
    correction on the density (the record's normal, or the analytic one).
    All records walk both sides in lockstep: each Newton iteration is one
    batched degree-2 call over the points still inside u_range, and one
    batched call at every walk point then gives the images and the tangents.
    A point where the frontal normal is undefined takes the record's tangent.
    """
    R = len(records)
    p = np.array([r.location for r in records], float)
    dlam = np.array([r.dlam for r in records], float)
    T = dlam / _norm(dlam)[:, None]
    step = 0.02 * min(S.u_range[1] - S.u_range[0], S.v_range[1] - S.v_range[0])
    normal = None if S.has_analytic_normal else np.tile([r.normal for r in records], (2, 1))
    # both sides at once: rows 0..R-1 walk along +tangent, rows R..2R-1 along -tangent
    T2 = np.tile(T, (2, 1))
    move = np.repeat([step, -step], R)[:, None] * np.tile(_curve_direction(dlam), (2, 1))
    lo, hi = S.u_range
    q = np.tile(p, (2, 1))
    inside = np.ones(2 * R, bool)
    points, owner = [p], [np.arange(R)]  # the records come first
    for _ in range(n_side):
        q = q + move
        inside &= (lo <= q[:, 0]) & (q[:, 0] <= hi)  # the curve leaves the domain on this side
        newton = inside.copy()
        for _ in range(3):  # transverse Newton on lambda, slope from its jet
            at = np.flatnonzero(newton)
            if not at.size:
                break
            lj = _lambda_jet(S, (q[at, 0], q[at, 1]), 2,
                             normal=None if normal is None else normal[at])
            d = np.vecdot(lj.gradient(), T2[at])
            flat = np.abs(d) < 1e-300
            newton[at[flat]] = False
            at, d = at[~flat], d[~flat]
            q[at] = q[at] - (lj.value[~flat] / d)[:, None] * T2[at]
        points.append(q[inside])
        owner.append(np.flatnonzero(inside) % R)
    points, owner = np.concatenate(points), np.concatenate(owner)
    X, _, defined, _, dl = _frontal_at(S, points[:, 0], points[:, 1])
    tangent = _curve_direction(np.where(defined[:, None], dl, dlam[owner]))
    M = _dX_of(X)
    img = np.stack([c.value for c in X], axis=-1)

    def largest(values):
        """The largest of `values` over each record's points."""
        out = np.zeros(R)
        np.maximum.at(out, owner, values)
        return out

    spread = largest(_norm(img - img[owner]))
    dtang = largest(_norm(np.vecdot(M, tangent[:, None, :])))
    scale = np.maximum(_norm(M[:R].reshape(R, 6)), 1e-300)
    return ((spread < IMG_TOL * np.maximum(1.0, largest(_norm(img))) + IMG_TOL)
            & (dtang < 1e-7 * scale))


# -- straightened charts --------------------------------------------------------


@dataclass
class StraightChart:
    """The charts of the null-field lemma at singular points.

    Psi(u, v) = gamma(v) + u * eta(v): {u = 0} is the singular curve, d_u is
    null along it (signed along +dlambda, unit at p), and v runs along the
    curve in the +dlambda-rotated-(-90deg) direction at unit parameter speed.
    X o Psi is served as degree-5 jets at the origin.  A sequence of records
    is one batch, each step one array operation over it, with batched jets
    (element i for records[i]); one record runs the same steps on scalar jets.
    A check that fails on any record raises.
    """

    surface: Surface
    records: object  # a sequence of SingularPointRecords, or one record
    curve_u: Jet1 = field(init=False)  # the charts' curves and null fields
    curve_v: Jet1 = field(init=False)
    eta_u: Jet1 = field(init=False)
    eta_v: Jet1 = field(init=False)
    X: tuple = field(init=False, repr=False)  # the degree-5 jets of X at the records

    def __post_init__(self):
        S = self.surface
        rows = [self.records] if isinstance(self.records, SingularPointRecord) else self.records
        p, dlam = (np.array([getattr(r, k) for r in rows], float) for k in ("location", "dlam"))
        if rows is not self.records:  # one record: (2,) vectors, and scalar jets from them
            p, dlam = p[0], dlam[0]
        u, v = p.T
        nd = _norm(dlam)
        if np.any(nd <= 1e-12):
            raise DegenerateZeroSetError("degenerate zero set: dlambda vanishes")
        T = dlam / nd[..., None]
        tang = _curve_direction(dlam)

        deg = MAX_DEGREE - 1  # the scalar density jet has one degree less than X
        X = self.X = S.jet(u, v, MAX_DEGREE)
        W = _cross_jets(X)
        n = None
        if not S.has_analytic_normal:
            n, defined = _frontal_normal(W)
            if not defined.all():
                raise NormalUndefinedError("normal undefined (rank 0 or non-frontal)")
        g = _lambda_jet(S, (u, v), MAX_DEGREE, normal=n, W=W)
        gT = np.vecdot(g.gradient(), T)
        if np.any(np.abs(gT) <= 1e-12):
            raise DegenerateZeroSetError("degenerate zero set: no transverse slope")

        # solve the curves as gamma(v) = p + v*tang + phi(v)*T with phi = O(v^2)
        origin = np.zeros(np.shape(u))
        lin = np.eye(deg + 1)[1]

        def curve_coeffs(phi):  # the (u, v) components of gamma, coefficient rows
            c = tang[..., None] * lin + T[..., None] * phi[..., None, :]
            c[..., 0] += p
            return Jet1(origin, deg, c[..., 0, :]), Jet1(origin, deg, c[..., 1, :])

        phi = np.zeros(np.shape(u) + (deg + 1,))
        for m in range(2, deg + 1):
            G = _compose2(g, *curve_coeffs(phi))
            phi[..., m] -= G.c[..., m] / gT
        self.curve_u, self.curve_v = curve_coeffs(phi)

        # null direction along the curve: kernel of dX via the image tangent
        e = (_dX_of(X) @ tang[..., None])[..., 0]
        ne = _norm(e)
        if np.any(ne <= 1e-12):
            raise SingularTangentError("singular tangent degenerate")
        e = (e / ne[..., None]).T
        Xu_c = [_compose2(c.du(), self.curve_u, self.curve_v) for c in X]
        Xv_c = [_compose2(c.dv(), self.curve_u, self.curve_v) for c in X]
        eta_u, eta_v = -_density(Xv_c, e), _density(Xu_c, e)
        e0 = np.stack([eta_u.value, eta_v.value], axis=-1)
        n0 = _norm(e0)
        if np.any(n0 <= 1e-12):
            raise SingularTangentError("singular tangent degenerate: null field vanishes")
        sgn = np.where(np.vecdot(e0, dlam) > 0, 1.0, -1.0)
        self.eta_u = eta_u * (sgn / n0)
        self.eta_v = eta_v * (sgn / n0)

    def jets(self):
        """Degree-5 jets of X o Psi at the chart origins (scalar for one record)."""
        psi_u = _lift_chart(self.curve_u, self.eta_u)
        psi_v = _lift_chart(self.curve_v, self.eta_v)
        return tuple(_compose2(c, psi_u, psi_v) for c in self.X)


def _lift_chart(curve: Jet1, eta: Jet1) -> Jet2:
    """Psi component gamma(v) + u * eta(v) as a degree-5 jet at the origin
    (curve and eta have degree 4)."""
    c = np.zeros(curve.c.shape[:-1] + (MAX_DEGREE + 1, MAX_DEGREE + 1))
    c[..., 0, :MAX_DEGREE] = curve.c
    c[..., 1, :MAX_DEGREE] = eta.c
    return Jet2((curve.base, curve.base), MAX_DEGREE, c)


# -- criterion machinery ---------------------------------------------------------
# Each formula below takes the vectors of one sample, (3,), or a stack of them, (B, 3).


def _per_sample(*values):
    """Python floats for one sample (as reported), the arrays for a stack."""
    return tuple(float(x) if np.ndim(x) == 0 else x for x in values)


def _rel_det(c1, c2, c3):
    """det(c1, c2, c3) and |det| / (|c1||c2||c3|) (0 for det 0 at scale 0, else inf)."""
    d = np.linalg.det(np.stack([c1, c2, c3], axis=-2))
    scale = _norm(c1) * _norm(c2) * _norm(c3)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(scale > 0, np.abs(d) / scale, np.where(d == 0, 0.0, math.inf))
    return _per_sample(d, rel)


def _xi_X(Y, xi):
    """xi X at the chart origin; the partial X_v for the default xi = d_v."""
    return partial_values(Y, 0, 1) if xi is None else field_chain(Y, xi, 1)[1]


def condition3_det(Y, xi: VectorFieldJet = None, eta: VectorFieldJet = None):
    """det(xi X, eta eta X, eta eta eta X) at the chart origin (raw, relative);
    xi defaults to d_v and eta to d_u."""
    e = field_chain(Y, VectorFieldJet.constant(1.0, 0.0, Y[0].base) if eta is None else eta, 3)
    return _rel_det(_xi_X(Y, xi), e[2], e[3])


def lemma_special_coefficients(Y):
    """(a, b) of the special null field d_u + (a u + b u^2) d_v in the chart.

    a = -(X_v . X_uu)/(X_v . X_v), b = -(X_v . (X_uuu + 3a X_uv))/(2 X_v . X_v),
    evaluated at the origin of the straightened chart.
    """
    Xv = partial_values(Y, 0, 1)
    Xuu = partial_values(Y, 2, 0)
    Xuuu = partial_values(Y, 3, 0)
    Xuv = partial_values(Y, 1, 1)
    vv = np.vecdot(Xv, Xv)
    if np.any(vv <= 1e-300):
        raise SingularTangentError("singular tangent degenerate")
    a = -np.vecdot(Xv, Xuu) / vv
    b = -np.vecdot(Xv, Xuuu + 3 * a[..., None] * Xuv) / (2 * vv)
    return _per_sample(a, b)


def special_field(a, b, base=(0.0, 0.0), degree=MAX_DEGREE) -> VectorFieldJet:
    u = Jet2.coordinate(base, degree, 0) - base[0]
    return VectorFieldJet(Jet2.constant(1.0, base, degree), u * a + u * b * u)  # jet first: a, b may be arrays


def special_null_field(S: Surface, record: SingularPointRecord):
    """The lemma's special null field at a first-kind record.

    Returns ((a, b), eta~ as a VectorFieldJet in the straightened chart, and
    the residuals of the defining orthogonality conditions).
    """
    return _special_null_field_of(StraightChart(S, record).jets())[:3]


def _special_null_field_of(Y, order=3):
    """special_null_field from the jets Y of X in the straightened chart, and
    the special field's chain on Y to `order`."""
    a, b = lemma_special_coefficients(Y)
    eta = special_field(a, b, Y[0].base)
    e = field_chain(Y, eta, order)
    xiX = partial_values(Y, 0, 1)
    scale = _norm(xiX) * np.maximum(np.maximum(_norm(e[2]), _norm(e[3])), 1e-300)
    return (a, b), eta, (np.abs(np.vecdot(xiX, e[2])) / scale, np.abs(np.vecdot(xiX, e[3])) / scale), e


def constant_C(Y, eta: VectorFieldJet):
    """C with eta~^3 X = C eta~^2 X, by least squares, plus the collinearity residual.

    The sources presuppose exact collinearity; the residual makes the
    presupposition checkable.
    """
    return _constant_C(field_chain(Y, eta, 3))


def _constant_C(e):
    """constant_C from the chain e of the field."""
    n2 = np.vecdot(e[2], e[2])
    if np.any(n2 <= 1e-300):
        raise HypothesisViolationError("hypothesis violated: eta~^2 X vanishes")
    C = np.vecdot(e[3], e[2]) / n2
    residual = _norm(e[3] - C[..., None] * e[2]) / np.sqrt(n2)
    return _per_sample(C, residual)


def condition4_det(Y, eta: VectorFieldJet, C: float, xi: VectorFieldJet = None):
    """det(xi X, eta~^2 X, 3 eta~^5 X - 10 C eta~^4 X) at the origin (raw, relative);
    xi defaults to d_v."""
    return _condition4(_xi_X(Y, xi), field_chain(Y, eta, 5), C)


def _condition4(xiX, e, C):
    """condition4_det from xi X and the chain e of eta~ to order 5."""
    return _rel_det(xiX, e[2], 3 * e[5] - 10 * np.asarray(C)[..., None] * e[4])


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
    jets: tuple = field(default=None, repr=False)  # the samples' batched chart jets; not reported

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


# the closed-form condition-4 determinant of the conjugate Delaunay surfaces, by
# branch (Surface.meta["branch"]); k is None on the lightlike-axis branches III
CONDITION4_CLOSED_FORMS = {
    "I-i": lambda k, H: -36.0 / (H * abs(k - 1.0)) ** 3,
    "II-i": lambda k, H: 36.0 / (H * abs(k - 1.0)) ** 3,
    "I-ii": lambda k, H: 9.0 / (H * H),
    "II-ii": lambda k, H: 9.0 / (H * H),
    "III-i": lambda k, H: -72.0 / (H * H),
    "III-ii": lambda k, H: 72.0 / (H * H),
}


def conjugate_condition4_det(branch: str, k: Optional[float], H: float) -> float:
    """The closed-form condition-4 determinant of the conjugate on `branch`
    with parameters k and H (CONDITION4_CLOSED_FORMS)."""
    return CONDITION4_CLOSED_FORMS[branch](k, H)


def _samples(S: Surface, records):
    """The criterion's samples at the records, and the jets Y of the one
    batched chart of them they are read from."""
    Y = StraightChart(S, records).jets()
    d3, r3 = condition3_det(Y)
    (a, b), _, sres, e = _special_null_field_of(Y, 5)
    C, collin = _constant_C(e)
    d4, r4 = _condition4(partial_values(Y, 0, 1), e, C)
    columns = zip(d3.tolist(), r3.tolist(), a.tolist(), b.tolist(), C.tolist(), collin.tolist(),
                  zip(*(r.tolist() for r in sres)), d4.tolist(), r4.tolist())
    return [SampleCriterion(rec.location, *values) for rec, values in zip(records, columns)], Y


def criterion_25(
    S: Surface,
    records: Sequence[SingularPointRecord],
    tol3: float = DET_TOL,
    tol4: float = DET_TOL,
    tol_C: float = DET_TOL,
) -> CriterionReport:
    """The (2,5)-cuspidal-edge test on sampled points of a singular curve.

    The samples are straightened in one batched chart, and all is read from
    its degree-5 jets Y, each formula once over the batch: xi X = X_v from the
    partials, condition 3 from the chain of eta = d_u to order 3, and the
    special field eta~ = d_u + (a u + b u^2) d_v with its chain to order 5 (its
    residuals, C by least squares, condition 4).  No finite differencing.  The
    chart jets stay in `CriterionReport.jets` for the fold tests.  A failure
    raises the first failing check of the first failing record.
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

    try:
        samples, Y = _samples(S, records)
    except Exception:
        for rec in records:  # raise what a loop over the records meets first
            _samples(S, [rec])
        raise
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
        samples, tolerances, interval, reason, Y,
    )


# -- fold tests -------------------------------------------------------------------


@dataclass
class FoldReport:
    verdict: str  # fold_candidate | rejected
    residual: float
    reason: str = ""

    def as_dict(self):
        return {"verdict": self.verdict, "residual": float(self.residual), "reason": self.reason}


def fold_symmetry_test(S: Surface, records: Sequence[SingularPointRecord]) -> list:
    """Necessary-condition battery for a fold at first-kind singular points,
    one FoldReport per record.

    In the straightened chart with its axes swapped (curve on {v = 0}, d_v
    null), a fold's jet has all odd-in-v coefficient vectors inside span(xi X,
    eta^2 X) (the image plane); the residual is the largest orthogonal
    component over odd monomials.  A refutation battery, not an A-equivalence
    decision.  The first-kind records share one batched chart;
    `_fold_symmetry_of` runs the battery on it, or on the criterion's chart.
    """
    reports = [FoldReport("rejected", math.inf, f"kind is {rec.kind}, not first_kind")
               for rec in records]
    first = [i for i, rec in enumerate(records) if rec.kind == "first_kind"]
    if first:
        Y = StraightChart(S, [records[i] for i in first]).jets()
        for i, report in zip(first, _fold_symmetry_of(Y)):
            reports[i] = report
    return reports


def _fold_symmetry_of(Y) -> list:
    """fold_symmetry_test from the batched jets Y of X in the straightened
    charts, one FoldReport per batch element."""
    xiX = partial_values(Y, 0, 1)
    e2 = partial_values(Y, 2, 0)
    Q, _ = np.linalg.qr(np.stack([xiX, e2], axis=-1))  # (B, 3, 2): the image planes
    c = np.stack([y.c for y in Y], axis=1)  # (B, 3, D + 1, D + 1)
    scale = np.maximum(np.abs(c).max(axis=(1, 2, 3)), 1e-300)
    D = Y[0].degree
    a, b = np.array([(a, b) for a in range(1, D + 1, 2) for b in range(D + 1 - a)]).T
    vec = c[:, :, a, b]  # odd in u, the fold chart's v: (B, 3, monomials)
    perp = vec - Q @ (np.swapaxes(Q, -1, -2) @ vec)
    residual = _norm(np.swapaxes(perp, -1, -2)).max(axis=-1) / scale
    vanish = _norm(e2) <= 1e-12 * np.maximum(1.0, _norm(xiX))
    reports = []
    for v, r in zip(vanish.tolist(), residual.tolist()):
        if v:
            reports.append(FoldReport("rejected", math.inf, "eta^2 X vanishes (image-plane test failed)"))
        elif r < 1e-8:
            reports.append(FoldReport("fold_candidate", r))
        else:
            reports.append(FoldReport("rejected", r, "odd-in-v jet leaves the image plane"))
    return reports


def cmc_fold_obstruction(
    S: Surface,
    records: Sequence[SingularPointRecord],
    offset: float = 1e-4,
    flank: float = 0.5,
) -> list:
    """Certificates that a fold is impossible at non-degenerate CMC singular
    points, one dict per record.

    Extracts the one-sided limits of |g| toward the curve (Richardson in the
    offset), the sheet flip of the unit normal across the curve (the sign of
    |g| - 1 must differ on the two sides), a nondegeneracy estimate |dg|, and
    the Laplace identity residual Delta X + 2 H nu at flanking regular points.
    The records share one Gauss-map call and one Laplace call: a probe point
    at infinity or off the spacelike set fails the whole batch, and a flank
    point off that set is left out of the residual.
    """
    from .representation import _gauss_values, _richardson, laplacian_identity_residual

    live = [n for n, rec in enumerate(records) if rec.rank != 0]
    p = np.array([records[n].location for n in live], float).reshape(-1, 2)
    dlam = np.array([records[n].dlam for n in live], float).reshape(-1, 2)
    T = dlam / _norm(dlam)[:, None]
    tang = _curve_direction(dlam)
    h = offset
    x = np.array([h, h / 2, h / 4, -h, -h / 2, -h / 4])[:, None]  # probes p + x T, p + h T +- h tang
    probes = np.concatenate([p[:, None] + x * T[:, None],
                             (p + h * T)[:, None] + np.array([[h], [-h]]) * tang[:, None]], axis=1)
    g = _gauss_values(S, probes[..., 0].ravel(), probes[..., 1].ravel()).reshape(-1, 8)
    ys = np.abs(g[:, :6]).reshape(-1, 2, 3)  # (record, side, step)
    limit = _richardson(ys)
    sign = np.sign(ys[..., 0] - 1.0)
    flip = sign[:, 0] * sign[:, 1] < 0
    dg = np.hypot(abs(g[:, 0] - g[:, 3]) / (2 * h), abs(g[:, 6] - g[:, 7]) / (2 * h))

    q = p + np.array([flank, -flank])[:, None, None] * T  # (side, record, 2): the flanks
    inside = (S.u_range[0] < q[..., 0]) & (q[..., 0] < S.u_range[1])
    lap = np.full(inside.shape, np.nan)
    if inside.any():
        lap[inside] = laplacian_identity_residual(S, tuple(q[inside].T))
    lap_max = np.fmax.reduce(lap, axis=0)  # nan: no spacelike flank inside u_range
    certs = [{"conclusion": "rank-0 regime (omega = 0): no certificate", "regime": "omega_zero_rank0"}
             for _ in records]
    for i, n in enumerate(live):
        certs[n] = {
            "location": list(map(float, records[n].location)),
            "offset": offset,
            "sides": {name: {"samples": ys[i, side].tolist(),
                             "limit_abs_g": float(limit[i, side]),
                             "abs_g_minus_1": abs(float(limit[i, side]) - 1.0),
                             "sign_abs_g_minus_1": float(sign[i, side])}
                      for side, name in enumerate(("plus", "minus"))},
            "sheet_flip": bool(flip[i]),
            "dg_estimate": float(dg[i]),
            "laplacian_residual_max": None if math.isnan(lap_max[i]) else float(lap_max[i]),
            "conclusion": "fold impossible" if flip[i] else "no flip detected",
        }
    return certs


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
    if special and np.any(np.abs(field_chain((b1,), eta, 2)[1:]) > 1e-10):
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
