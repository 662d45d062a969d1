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
import functools
import io
import itertools
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
from .lorentz import euclid_cross, euclid_inner
from .surfaces import Surface, custom_surface

DET_TOL = 1e-8        # relative determinant zero threshold
ANGLE_TOL = 1e-6      # first-kind transversality threshold
CONE_TOL = 1e-8       # conelike: X along the curve moves at most CONE_TOL * |dX| per order
ROOT_TOL = 1e-12      # bracket width for curve roots
ROOT_GATE = 1e3       # a scan root needs |lambda| <= ROOT_GATE * ROOT_TOL * max(|dlambda|, 1)
FOLD_OFFSET = 1e-4    # the fold certificates probe |g| at FOLD_OFFSET, 1/2 and 1/4 of it off the curve


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
    owner: int = field(default=0, repr=False, compare=False)  # its member's index in the scanned stack
    surface: Optional[Surface] = field(default=None, repr=False, compare=False)  # the member itself
    # the scan's coefficients of X (3, 6, 6) and of the analytic normal (3, 5, 5) or None;
    # not copied by dataclasses.replace, so a moved record is evaluated afresh
    jets: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

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


def _lambda_jet(S: Surface, p, degree=MAX_DEGREE, normal=None, W=None):
    """Jet of lambda = (X_u x X_v) . N at p, one degree below the jets of X.

    N is the analytic normal jet when S carries one; otherwise the fixed unit
    vector `normal` (the anchored or frontal normal at a nearby point).  `W`
    passes the jets of X_u x X_v when already at hand.  p may be a pair of
    (B,) arrays, with one normal per point in a (B, 3) `normal`.  The curve
    scan reads lambda from here.
    """
    if W is None:
        W = _cross_jets(S.jet(p[0], p[1], degree))
    if S.has_analytic_normal:
        N = S.analytic_normal_jet(p[0], p[1], degree - 1)
    else:
        N = np.asarray(normal, float).T
    return euclid_inner(W, N)


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
    """One batched evaluation at the (B,) points (u, v): X at degree 5 and,
    when S carries one, the analytic normal N at degree 4 (else None).

    Returns X, N, the normal n (B, 3), a (B,) mask of the points where n is
    defined, and lambda (B,) and dlambda (B, 2) of the density on n, read off
    the jets truncated to degree 2 (N to 1): the jets that evaluations at
    those degrees give.  The normal is the analytic one when S carries one,
    otherwise the frontal normal of the cross product's jet.
    """
    X = S.jet(u, v, MAX_DEGREE)
    W = _cross_jets([c.truncated(2) for c in X])
    N = S.analytic_normal_jet(u, v, MAX_DEGREE - 1) if S.has_analytic_normal else None
    if N is not None:
        n = np.stack([c.value for c in N], axis=-1)
        defined = np.ones(np.shape(u), bool)
    else:
        n, defined = _frontal_normal(W)
    lam = euclid_inner(W, n.T if N is None else [c.truncated(1) for c in N])
    return X, N, n, defined, lam.value, lam.gradient()


# -- stacks of surfaces ----------------------------------------------------------


def _members(S) -> tuple:
    """The surfaces of S: (S,) for one surface, the members of a stack."""
    if isinstance(S, Surface):
        return (S,)
    if len({(tuple(T.u_range), tuple(T.v_range), T.has_analytic_normal) for T in S}) != 1:
        raise ValueError("a stack needs surfaces of one domain, all with an analytic normal or all without")
    return tuple(S)


class _Stack:
    """The members' Surface methods that the scan reads, at points of which
    point i lies on member owner[i].  One member, or one point, is read
    directly; else each member at its own points, the coefficients put back in
    point order (the member's own bits: jets are alike at any batch size)."""

    def __init__(self, members, owner):
        self.members, self.owner = members, owner
        self.has_analytic_normal = members[0].has_analytic_normal
        for name in ("jet", "analytic_normal_jet"):  # a stack of one lends its surface's own
            one = len(members) == 1
            setattr(self, name, getattr(members[0], name) if one else functools.partial(self._gather, name))

    def at(self, rows):
        return self if len(self.members) == 1 else _Stack(self.members, self.owner[rows])

    def _gather(self, name, u, v, degree):
        if np.ndim(u) == 0:
            return getattr(self.members[int(self.owner)], name)(u, v, degree)
        at = [np.flatnonzero(self.owner == m) for m in range(len(self.members))]
        parts = [getattr(T, name)(u[i], v[i], degree) for T, i in zip(self.members, at) if i.size]
        back = np.argsort(np.concatenate(at))
        base = (np.asarray(u, float), np.asarray(v, float))
        return tuple(Jet2(base, degree, np.concatenate([p[k].c for p in parts])[back]) for k in range(3))


# -- singular curve tracing ----------------------------------------------------


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
):
    """Sign-change scan on a grid, then root bracketing along the edges.

    S is a surface or a stack: surfaces of one domain, all with an analytic
    normal or all without.  A stack gives a ScanRecords per member, bit for bit
    its own, with the member's index as each record's `owner`; each step below
    is one pass over all members, raising the first error met in it.

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
    `unconfirmed_roots`.  Deduplication, the gate and `max_records`
    are per member.
    """
    members = _members(S)
    if box is None:
        (ulo, uhi), (vlo, vhi) = members[0].u_range, members[0].v_range
        s = 1e-6 * (uhi - ulo)
        box = (ulo + s, uhi - s, vlo, vhi)
    ulo, uhi, vlo, vhi = box
    us, vs = np.linspace(ulo, uhi, n_grid), np.linspace(vlo, vhi, n_grid)
    M, N = len(members), n_grid * n_grid  # node (i, j) of member m: index m N + i n_grid + j
    u, v = (np.tile(a.ravel(), M) for a in np.meshgrid(us, vs, indexing="ij"))
    # each member's edges in scan order: from node (i, j) to (i + 1, j), then to (i, j + 1)
    i, j, down = (a.ravel() for a in np.meshgrid(
        np.arange(n_grid), np.arange(n_grid), [True, False], indexing="ij"))
    i2, j2 = i + down, j + ~down
    inside = (i2 < n_grid) & (j2 < n_grid)
    e1, e2 = ((N * np.arange(M)[:, None] + (a * n_grid + b)[inside]).ravel() for a, b in ((i, j), (i2, j2)))
    owner = e1 // N

    anchor = None
    nodes = _Stack(members, np.arange(M * N) // N)
    X = nodes.jet(u, v, 1)
    dX = _dX_of(X)
    dx2 = np.sum(dX * dX, axis=(-2, -1))[e1]  # |dX|^2 at the edge start
    if nodes.has_analytic_normal:
        lam = _lambda_jet(nodes, (u, v), 1, W=_cross_jets(X)).value
        f1, f2 = lam[e1], lam[e2]
    else:
        W = np.stack([w.value for w in _cross_jets(X)], axis=-1)
        nw = _norm(W[e1])
        anchor = W[e1] / np.where(nw == 0.0, 1.0, nw)[:, None]  # W = 0: f1 = 0, a root
        f1, f2 = np.vecdot(W[e1], anchor), np.vecdot(W[e2], anchor)
    scale = np.maximum(np.maximum(np.abs(f1), np.abs(f2)), np.maximum(dx2, 1e-300))
    at_node = (np.abs(f1) <= 1e-14 * scale) & (np.abs(f1) < 1e-13)
    crossing = ~at_node & (f1 * f2 < 0)

    roots = np.stack([u[e1], v[e1]], axis=-1)
    roots[crossing] = _bracketed_roots(
        nodes.at(e1[crossing]), roots[crossing], np.stack([u[e2], v[e2]], axis=-1)[crossing],
        f1[crossing], f2[crossing], None if anchor is None else anchor[crossing])
    keep = at_node | crossing
    roots, owner = roots[keep], owner[keep]
    first = {}
    for k, key in enumerate(zip(owner.tolist(), *np.round(roots, 9).T.tolist())):
        first.setdefault(key, k)
    scans, dropped = [[] for _ in members], [0] * len(members)
    if first and max_records > 0:
        at = list(first.values())
        for key, rec in zip(first, _assemble_records(members, roots[at], owner[at])):
            if rec is None:
                dropped[key[0]] += 1
            elif len(scans[key[0]]) < max_records:
                scans[key[0]].append((key, rec))
        rank1 = [rec for kept in scans for _, rec in kept if rec.rank == 1]
        for rec, kind in zip(rank1, _kinds(members, rank1)):
            rec.kind = kind
    out = [ScanRecords((rec for _, rec in sorted(kept, key=lambda kr: kr[0])), unconfirmed_roots=d)
           for kept, d in zip(scans, dropped)]
    return out[0] if isinstance(S, Surface) else out


def _bracketed_roots(S: Surface, a, b, fa, fb, anchor):
    """Shrink the sign-change edges [a, b] (rows of (E, 2) arrays) in
    lockstep until each is at most ROOT_TOL long; fa and fb hold the density
    at the ends, `anchor` the (E, 3) anchored normals (None with an analytic
    normal), S the `_Stack` at the edges.  Returns the midpoints, with 0 in a
    coordinate the last bracket straddles: any point of it is a root to
    ROOT_TOL, and a root on a coordinate axis (a conjugate's axis r = 0, where
    its odd profiles vanish) then lands on the axis whichever edge held it.

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
            return np.where((np.minimum(a, b) <= 0.0) & (np.maximum(a, b) >= 0.0), 0.0, 0.5 * (a + b))
        w, fl_a, fl_b = width[live], fa[live], fb[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = fl_a / (fl_a - fl_b)
        t = np.where(np.isfinite(t) & (w <= 0.5 * width2[live]), t, 0.5)
        h = 0.5 * ROOT_TOL / w
        t = np.clip(t, h, 1.0 - h)
        m = a[live] + t[:, None] * (b[live] - a[live])
        fm = _lambda_jet(S.at(live), (m[:, 0], m[:, 1]), 1,
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


def _assemble_records(members, q, owner) -> list:
    """Records at the (R, 2) roots q, root i on member owner[i], kinds not yet
    set, from one batched evaluation (`_frontal_at`); None where the gate
    drops it.  Each record keeps its rows of the degree-5 jets of X and of
    the analytic normal (degree 4), which its chart and kind are read from.

    The rank and null vector come from the singular values of dX, the normal
    and lambda, dlambda from `_frontal_at`: rank 0 where the larger is at most
    1e-13, rank 2 where their product |X_u x X_v| exceeds the root gate's
    bound on |lambda|.  Rank 0, or an undefined frontal normal, gives a
    degenerate_rank0 record; rank 2 a record of kind other with no null vector.
    """
    X, N, n, defined, lam, dlam = _frontal_at(_Stack(members, owner), q[:, 0], q[:, 1])
    cx = np.stack([c.c for c in X], axis=1)  # (R, 3, 6, 6): row b is record b's
    cn = [None] * len(q) if N is None else np.stack([c.c for c in N], axis=1)
    _, sv, Vt = np.linalg.svd(_dX_of(X))
    gate = ROOT_GATE * ROOT_TOL * np.maximum(_norm(dlam), 1.0)
    rank = np.where(sv[:, 0] <= 1e-13, 0, np.where(sv[:, 0] * sv[:, 1] > gate, 2, 1))
    degenerate = (rank == 0) | ~defined
    confirmed = np.abs(lam) <= gate
    records = []
    for b, (loc, m) in enumerate(zip(map(tuple, q.tolist()), owner.tolist())):
        if degenerate[b]:
            rec = SingularPointRecord(loc, 0.0, (0.0, 0.0), None, "degenerate_rank0", 0,
                                      owner=m, surface=members[m])
        elif not confirmed[b]:
            rec = None
        else:
            rec = SingularPointRecord(
                loc, float(lam[b]), tuple(dlam[b].tolist()),
                tuple(Vt[b, 1].tolist()) if rank[b] == 1 else None, "other", int(rank[b]),
                normal=tuple(n[b].tolist()), owner=m, surface=members[m])
        if rec is not None:
            rec.jets = (cx[b], cn[b])
        records.append(rec)
    return records


def _kinds(S: Surface, records) -> list:
    """The kinds of the scan's rank-1 records: first_kind where the null
    direction is transverse to the curve; where it is tangent, conelike where
    X is constant along the curve to the records' jets (the v-coefficients 1-4
    of X o gamma, gamma from `_curve_jets`, are at most CONE_TOL |dX|), else
    other.  The tangent records are read in one batch."""
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
        X, _, curve, _ = _curve_jets(S, [records[n] for n in tangent])
        moves = np.stack([c.c[:, 1:] for c in _compose2(X, *curve)], axis=-1)  # (B, 4, 3)
        scale = _norm(_dX_of(X).reshape(len(tangent), 6))
        cone = (_norm(moves) <= CONE_TOL * scale[:, None]).all(axis=-1)
        for n, c in zip(tangent, cone.tolist()):
            kinds[n] = "conelike" if c else "other"
    return kinds


def _curve_direction(dlam):
    """Unit curve direction: +dlambda rotated -90 deg (right-handed pair);
    row by row for a (B, 2) array."""
    T = np.asarray(dlam, float)
    T = T / _norm(T)[..., None]
    return np.stack([T[..., 1], -T[..., 0]], axis=-1)


def _curve_jets(S: Surface, records):
    """The jets at singular records that a chart or a kind is read from: the
    degree-5 jets X (the records' kept rows, `_record_jets`), the density's
    jet g (degree 4), the curves through the records as (u, v) Jet1s of
    degree 4, and the records' dlambda.

    The curve through p is gamma(v) = p + v*tang + phi(v)*T, with T the unit
    +dlambda, tang the curve direction and phi = O(v^2) solved order by order
    so that g o gamma is constant: the level curve of lambda through p.  A
    sequence of records is one batch (element i for records[i]); one record
    gives scalar jets.  A check that fails on any record raises.  On a stack of
    two or more members each record is read on its `owner`, which must be the
    member it was scanned on.
    """
    rows = [records] if isinstance(records, SingularPointRecord) else records
    members = _members(S)
    if len(members) > 1 and any(r.owner >= len(members) or members[r.owner] is not r.surface for r in rows):
        raise ValueError("a record is read on a stack member it was not scanned on")
    p, dlam = (np.array([getattr(r, k) for r in rows], float) for k in ("location", "dlam"))
    owner = np.array([r.owner for r in rows])
    if rows is not records:  # one record: (2,) vectors, and scalar jets from them
        p, dlam, owner = p[0], dlam[0], owner[0]
    S = _Stack(members, owner)
    u, v = p.T
    nd = _norm(dlam)
    if np.any(nd <= 1e-12):
        raise DegenerateZeroSetError("degenerate zero set: dlambda vanishes")
    T = dlam / nd[..., None]
    tang = _curve_direction(dlam)

    deg = MAX_DEGREE - 1  # the scalar density jet has one degree less than X
    X, N = _record_jets(S, rows, u, v)
    W = _cross_jets(X)
    if N is None:
        n, defined = _frontal_normal(W)
        if not defined.all():
            raise NormalUndefinedError("normal undefined (rank 0 or non-frontal)")
        N = n.T
    g = euclid_inner(W, N)
    gT = np.vecdot(g.gradient(), T)
    if np.any(np.abs(gT) <= 1e-12):
        raise DegenerateZeroSetError("degenerate zero set: no transverse slope")

    origin = np.zeros(np.shape(u))
    lin = np.eye(deg + 1)[1]

    def curve_coeffs(phi):  # the (u, v) components of gamma, coefficient rows
        c = tang[..., None] * lin + T[..., None] * phi[..., None, :]
        c[..., 0] += p
        return Jet1(origin, deg, c[..., 0, :]), Jet1(origin, deg, c[..., 1, :])

    phi = np.zeros(np.shape(u) + (deg + 1,))
    for m in range(2, deg + 1):  # order m of g o gamma reads the jets to degree m
        G = _compose2(g.truncated(m), *(c.truncated(m) for c in curve_coeffs(phi)))
        phi[..., m] -= G.c[..., m] / gT
    return X, g, curve_coeffs(phi), dlam


def _record_jets(S, rows, u, v):
    """The degree-5 jets of X and the degree-4 jets of the analytic normal
    (None without one) at the records, batched as u and v are: the rows the
    scan kept, the surface evaluated only at the records that carry none or
    were scanned on another surface."""
    fresh = [i for i, r in enumerate(rows) if r.jets is None or all(r.surface is not T for T in S.members)]
    if len(fresh) == len(rows):
        X = S.jet(u, v, MAX_DEGREE)
        return X, S.analytic_normal_jet(u, v, MAX_DEGREE - 1) if S.has_analytic_normal else None
    kept = [r.jets for r in rows]
    if fresh:
        X, N = _record_jets(S.at(fresh), [rows[i] for i in fresh], u[fresh], v[fresh])
        for j, i in enumerate(fresh):
            kept[i] = tuple(None if J is None else np.stack([c.c[j] for c in J]) for J in (X, N))
    X, N = (None if k[0] is None else np.stack(k, axis=1) for k in zip(*kept))  # (3, R, ...)
    if np.ndim(u) == 0:  # one record: scalar jets of its rows
        X, N = (None if c is None else c[:, 0] for c in (X, N))
    return (tuple(Jet2((u, v), MAX_DEGREE, c) for c in X),
            None if N is None else tuple(Jet2((u, v), MAX_DEGREE - 1, c) for c in N))


# -- straightened charts --------------------------------------------------------


@dataclass
class StraightChart:
    """The charts of the null-field lemma at singular points.

    Psi(u, v) = gamma(v) + u * eta(v): {u = 0} is the singular curve, d_u is
    null along it (signed along +dlambda, unit at p), and v runs along the
    curve in the +dlambda-rotated-(-90deg) direction at unit parameter speed.
    X o Psi is served as degree-5 jets at the origin.  The curves and X come
    from `_curve_jets`: a sequence of records is one batch, each step one array
    operation over it, with batched jets (element i for records[i]); one
    record runs the same steps on scalar jets.  A check that fails on any
    record raises.  On a stack, each record is read on its `owner`, the member
    it was scanned on.
    """

    surface: Surface
    records: object  # a sequence of SingularPointRecords, or one record
    curve_u: Jet1 = field(init=False)  # the charts' curves and null fields
    curve_v: Jet1 = field(init=False)
    eta_u: Jet1 = field(init=False)
    eta_v: Jet1 = field(init=False)
    X: tuple = field(init=False, repr=False)  # the degree-5 jets of X at the records

    def __post_init__(self):
        self.X, _, (self.curve_u, self.curve_v), dlam = _curve_jets(self.surface, self.records)
        X, tang = self.X, _curve_direction(dlam)

        # null direction along the curve: kernel of dX via the image tangent
        e = (_dX_of(X) @ tang[..., None])[..., 0]
        ne = _norm(e)
        if np.any(ne <= 1e-12):
            raise SingularTangentError("singular tangent degenerate")
        e = (e / ne[..., None]).T
        X_uv = _compose2([c.du() for c in X] + [c.dv() for c in X], self.curve_u, self.curve_v)
        Xu_c, Xv_c = X_uv[:3], X_uv[3:]
        eta_u, eta_v = -euclid_inner(Xv_c, e), euclid_inner(Xu_c, e)
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
        return _compose2(self.X, psi_u, psi_v)


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


def xi_X(Y, xi):
    """xi X at the chart origin; the partial X_v for xi = None (d_v)."""
    return partial_values(Y, 0, 1) if xi is None else field_chain(Y, xi, 1)[1]


def condition3_det(Y, xi: VectorFieldJet = None, eta: VectorFieldJet = None):
    """det(xi X, eta eta X, eta eta eta X) at the chart origin (raw, relative);
    xi defaults to d_v and eta to d_u."""
    e = field_chain(Y, VectorFieldJet.constant(1.0, 0.0, Y[0].base) if eta is None else eta, 3)
    return _rel_det(xi_X(Y, xi), e[2], e[3])


def special_field(a, b, base=(0.0, 0.0), degree=MAX_DEGREE) -> VectorFieldJet:
    u = Jet2.coordinate(base, degree, 0) - base[0]
    return VectorFieldJet(Jet2.constant(1.0, base, degree), u * a + u * b * u)  # jet first: a, b may be arrays


def special_null_field(Y):
    """The lemma's special null field eta~ = d_u + (a u + b u^2) d_v at the
    origins of the straightened charts with the jets Y of X (StraightChart.jets):
    a = -(X_v . X_uu)/(X_v . X_v), b = -(X_v . (X_uuu + 3a X_uv))/(2 X_v . X_v).

    Returns ((a, b), eta~ as a VectorFieldJet, the residuals of the defining
    orthogonality conditions, and eta~'s chain on Y to order 5).
    """
    xiX, Xuu, Xuuu, Xuv = (partial_values(Y, i, j) for i, j in ((0, 1), (2, 0), (3, 0), (1, 1)))
    vv = np.vecdot(xiX, xiX)
    if np.any(vv <= 1e-300):
        raise SingularTangentError("singular tangent degenerate")
    a = -np.vecdot(xiX, Xuu) / vv
    a, b = _per_sample(a, -np.vecdot(xiX, Xuuu + 3 * a[..., None] * Xuv) / (2 * vv))
    eta = special_field(a, b, Y[0].base)
    e = field_chain(Y, eta, 5)
    scale = _norm(xiX) * np.maximum(np.maximum(_norm(e[2]), _norm(e[3])), 1e-300)
    return (a, b), eta, (np.abs(np.vecdot(xiX, e[2])) / scale, np.abs(np.vecdot(xiX, e[3])) / scale), e


def constant_C(e):
    """C with eta~^3 X = C eta~^2 X, by least squares, plus the collinearity
    residual, from the chain e of the field (rows 2 and 3 are read).

    The sources presuppose exact collinearity; the residual makes the
    presupposition checkable.
    """
    n2 = np.vecdot(e[2], e[2])
    if np.any(n2 <= 1e-300):
        raise HypothesisViolationError("hypothesis violated: eta~^2 X vanishes")
    C = np.vecdot(e[3], e[2]) / n2
    residual = _norm(e[3] - C[..., None] * e[2]) / np.sqrt(n2)
    return _per_sample(C, residual)


def condition4_det(xiX, e, C):
    """det(xi X, eta~^2 X, 3 eta~^5 X - 10 C eta~^4 X) at the origin (raw, relative),
    from xi X (xi_X) and the chain e of eta~ to order 5."""
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
    jets: tuple = field(default=None, repr=False)  # the batched chart jets (criterion_25); not reported

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
    (a, b), _, sres, e = special_null_field(Y)
    C, collin = constant_C(e)
    d4, r4 = condition4_det(partial_values(Y, 0, 1), e, C)
    columns = zip(d3.tolist(), r3.tolist(), a.tolist(), b.tolist(), C.tolist(), collin.tolist(),
                  zip(*(r.tolist() for r in sres)), d4.tolist(), r4.tolist())
    return [SampleCriterion(rec.location, *values) for rec, values in zip(records, columns)], Y


def criterion_25(
    S: Surface,
    records: Sequence[SingularPointRecord],
    tol3: float = DET_TOL,
    tol4: float = DET_TOL,
    tol_C: float = DET_TOL,
):
    """The (2,5)-cuspidal-edge test on sampled points of a singular curve.

    The samples are straightened in one batched chart, and all is read from
    its degree-5 jets Y, each formula once over the batch: xi X = X_v from the
    partials, condition 3 from the chain of eta = d_u to order 3, and the
    special field eta~ = d_u + (a u + b u^2) d_v with its chain to order 5 (its
    residuals, C by least squares, condition 4).  No finite differencing.  The
    chart jets stay in `CriterionReport.jets` for the fold tests.  A failure
    raises the first failing check of the first failing record.

    A stack (see `trace_singular_curve`) takes a record sequence per member and
    gives a report per member, from one chart of the members all of the first
    kind (in member order: their reports' `jets`); it raises what a loop would.
    """
    tolerances = {"tol3": tol3, "tol4": tol4, "tol_C": tol_C}
    groups = [records] if isinstance(S, Surface) else list(records)
    staged, charted = [], []
    for recs in map(list, groups):
        if not recs:
            break  # raised after the chart of the members before it
        bad = [r for r in recs if r.kind != "first_kind"]
        p0, d0 = (np.asarray(getattr(recs[0], k), float) for k in ("location", "dlam"))
        tang = _curve_direction(d0) if np.linalg.norm(d0) > 0 else np.array([1.0, 0.0])
        ss = [float((np.asarray(r.location) - p0) @ tang) for r in recs]
        staged.append((recs, bad, (min(ss), max(ss))))
        charted += [] if bad else recs
    if charted:
        try:
            samples, Y = _samples(S, charted)
        except Exception:
            for rec in charted:  # raise what a loop over the records meets first
                _samples(S, [rec])
            raise
    if len(staged) < len(groups):
        raise ValueError("criterion_25 needs at least one singular sample")
    reports, rows = [], iter(samples if charted else ())
    for recs, bad, interval in staged:
        if bad:
            reports.append(CriterionReport(
                math.inf, (math.nan, math.nan), math.nan, math.inf, None,
                "not_applicable", [], tolerances, interval,
                reason=f"{len(bad)} sample(s) not of the first kind (e.g. {bad[0].kind})",
            ))
            continue
        mine = [next(rows) for _ in recs]
        rep = mine[len(mine) // 2]
        max3 = max(s.cond3_rel for s in mine)
        maxcol = max(s.collinearity_residual for s in mine)
        if max3 > tol3:
            verdict, reason = "rejected_cond3", f"condition-3 determinant {max3:.3e} above tolerance"
        elif maxcol > tol_C:
            verdict, reason = "not_applicable", f"collinearity residual {maxcol:.3e} above tolerance"
        elif min(s.cond4_rel for s in mine) <= tol4:
            verdict, reason = "rejected_cond4", "condition-4 determinant vanishes"
        else:
            verdict, reason = "cusp25", ""
        reports.append(CriterionReport(
            max3, (rep.a, rep.b), rep.C, maxcol, rep.cond4_det, verdict,
            mine, tolerances, interval, reason, Y,
        ))
    return reports[0] if isinstance(S, Surface) else reports


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
    `fold_symmetry_of_chart` runs the battery on it, or on the criterion's chart.
    """
    reports = [FoldReport("rejected", math.inf, f"kind is {rec.kind}, not first_kind")
               for rec in records]
    first = [i for i, rec in enumerate(records) if rec.kind == "first_kind"]
    if first:
        Y = StraightChart(S, [records[i] for i in first]).jets()
        for i, report in zip(first, fold_symmetry_of_chart(Y)):
            reports[i] = report
    return reports


def fold_symmetry_of_chart(Y) -> list:
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


def _richardson(ys):
    """The limit as x -> 0 of values at x = h, h/2, h/4 (the last axis): (8 y2 - 6 y1 + y0)/3."""
    return (8 * ys[..., 2] - 6 * ys[..., 1] + ys[..., 0]) / 3.0


def cmc_fold_obstruction(
    S: Surface,
    records: Sequence[SingularPointRecord],
    flank: float = 0.5,
) -> list:
    """Certificates that a fold is impossible at non-degenerate CMC singular
    points, one dict per record.

    Extracts the one-sided limits of |g| toward the curve (Richardson in
    FOLD_OFFSET), the sheet flip of the unit normal across the curve (the sign
    of |g| - 1 must differ on the two sides), a nondegeneracy estimate |dg|,
    and the Laplace identity residual Delta X + 2 H nu at flanking regular points.
    The records share one Gauss-map call and one Laplace call: a probe point
    at infinity fails the whole batch, a record with a probe point off the
    spacelike set gets the conclusion "undetermined" and the reason, and a
    flank point off that set is left out of the residual.
    """
    from .representation import _gauss_values, laplacian_identity_residual

    live = [n for n, rec in enumerate(records) if rec.rank != 0]
    p = np.array([records[n].location for n in live], float).reshape(-1, 2)
    dlam = np.array([records[n].dlam for n in live], float).reshape(-1, 2)
    T = dlam / _norm(dlam)[:, None]
    tang = _curve_direction(dlam)
    h = FOLD_OFFSET
    x = np.array([h, h / 2, h / 4, -h, -h / 2, -h / 4])[:, None]  # probes p + x T, p + h T +- h tang
    probes = np.concatenate([p[:, None] + x * T[:, None],
                             (p + h * T)[:, None] + np.array([[h], [-h]]) * tang[:, None]], axis=1)
    g = _gauss_values(S, probes[..., 0].ravel(), probes[..., 1].ravel()).reshape(-1, 8)
    probed = ~np.isnan(g).any(axis=1)  # nan: a probe point off the spacelike set
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
        certs[n] = {"location": list(map(float, records[n].location)), "offset": FOLD_OFFSET}
        if not probed[i]:
            certs[n].update(conclusion="undetermined",
                            reason="a probe point is off the spacelike regular set")
            continue
        certs[n].update({
            "sides": {name: {"samples": ys[i, side].tolist(),
                             "limit_abs_g": float(limit[i, side]),
                             "abs_g_minus_1": abs(float(limit[i, side]) - 1.0),
                             "sign_abs_g_minus_1": float(sign[i, side])}
                      for side, name in enumerate(("plus", "minus"))},
            "sheet_flip": bool(flip[i]),
            "dg_estimate": float(dg[i]),
            "laplacian_residual_max": None if math.isnan(lap_max[i]) else float(lap_max[i]),
            "conclusion": "fold impossible" if flip[i] else "no flip detected",
        })
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
    fields and the predicted condition-4 scale a1(p) * b2(p)^7: a (B,) array
    for batched jets, which are checked element by element.
    """
    for name, cjet in (("a2", a2), ("b1", b1)):
        c = np.abs(cjet.c)
        if np.any(c[..., 0, :].max(axis=-1) > 1e-10 * np.maximum(1.0, c.max(axis=(-2, -1)))):
            raise ValueError(f"{name} must vanish on the singular set {{u = 0}}")
    if np.any(np.abs(a1.value) < 1e-12) or np.any(np.abs(b2.value) < 1e-12):
        raise ValueError("a1 and b2 must be nonvanishing on the singular set")
    if special and np.any(np.abs(field_chain((b1,), eta, 2)[1:]) > 1e-10):
        raise ValueError("special variant needs eta b1 = eta eta b1 = 0 at p")
    xi_bar = VectorFieldJet(a1 * xi.e1 + a2 * eta.e1, a1 * xi.e2 + a2 * eta.e2)
    eta_bar = VectorFieldJet(b1 * xi.e1 + b2 * eta.e1, b1 * xi.e2 + b2 * eta.e2)
    # Python's float power: NumPy's vectorized power differs from it in the last bit
    scale = [x * y ** 7 for x, y in zip(np.ravel(a1.value).tolist(), np.ravel(b2.value).tolist())]
    return xi_bar, eta_bar, np.array(scale) if np.ndim(a1.value) else scale[0]


# the distinct monomials of order n in X_0, X_1, X_2 (sorted index tuples), and the 0/1 matrix
# that adds each entry of an n-form to the column of its sorted index tuple, for n = 1, 2, 3
_MONOMIALS = [list(itertools.combinations_with_replacement(range(3), n)) for n in (1, 2, 3)]
_GATHER = [np.eye(len(ms))[[ms.index(tuple(sorted(p))) for p in itertools.product(range(3), repeat=n)]]
           for n, ms in enumerate(_MONOMIALS, 1)]


def diffeo_push(S: Surface, linear, quadratic=None, cubic=None) -> Surface:
    """Push the surface through a polynomial diffeomorphism germ of R^3.

    Phi(x) = A x + Q(x, x) + C(x, x, x): `linear` is the invertible 3x3 matrix,
    `quadratic[i]` an optional 3x3 symmetric form per component, `cubic[i]` an
    optional 3x3x3 form per component.  Phi is applied as one contraction of
    the distinct monomials of X with a matrix of A and the symmetrized forms.
    """
    A = np.asarray(linear, float)
    if abs(np.linalg.det(A)) < 1e-12:
        raise ValueError("diffeomorphism germ needs an invertible linear part")
    forms = [A, quadratic, cubic]
    order = max(n for n, f in enumerate(forms, 1) if f is not None)
    monomials = sum(_MONOMIALS[:order], [])
    M = np.hstack([np.zeros((3, g.shape[1])) if f is None else np.asarray(f, float).reshape(3, -1) @ g
                   for f, g in zip(forms, _GATHER[:order])])  # a missing form counts as zero

    def builder(u, v, degree):
        X = S.jet(u, v, degree)
        jets = {(j,): X[j] for j in range(3)}
        for m in monomials[3:]:  # each a factor times a monomial one order lower
            jets[m] = X[m[0]] * jets[m[1:]]
        W = np.tensordot(M, np.stack([jets[m].c for m in monomials]), axes=1)
        return tuple(Jet2(X[0].base, X[0].degree, w) for w in W)

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
        "conelike_definition": f"jet: X o gamma has v-coefficients 1-4 at most {CONE_TOL:g} |dX|",
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
