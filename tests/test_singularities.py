import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cmc_lab import jets as jt
from cmc_lab import representation as rp
from cmc_lab import singularities as sg
from cmc_lab import surfaces as sf
from cmc_lab.jets import Jet2, VectorFieldJet
from cmc_lab.lorentz import NotSpacelikeError, euclid_inner
from cmc_lab.singularities import (
    HypothesisViolationError,
    NormalUndefinedError,
    StraightChart,
    classification_report,
    cmc_fold_obstruction,
    condition3_det,
    condition4_det,
    constant_C,
    criterion_25,
    diffeo_push,
    fold_symmetry_test,
    perturb_fields,
    special_null_field,
    sweep_rows_to_csv,
    trace_singular_curve,
    xi_X,
)


def _custom_fold():
    """The fold map without its analytic normal: exercises the jet-based path."""

    def builder(u0, v0, degree):
        uj = Jet2.coordinate((u0, v0), degree, 0)
        vj = Jet2.coordinate((u0, v0), degree, 1)
        return (uj, vj * vj, Jet2.constant(0.0, (u0, v0), degree))

    return sf.custom_surface(builder)


def _rank0_model():
    """(u^2, uv, v^2): dX = 0 at the origin."""

    def builder(u0, v0, degree):
        uj = Jet2.coordinate((u0, v0), degree, 0)
        vj = Jet2.coordinate((u0, v0), degree, 1)
        return (uj * uj, uj * vj, vj * vj)

    return sf.custom_surface(builder)


# -- normals -------------------------------------------------------------------


def _frontal(S, *points):
    """_frontal_at at the points (u, v): the normals (B, 3), the mask of
    points where they are defined, lambda and dlambda."""
    u, v = np.array(points, float).T
    _, _, n, defined, lam, dlam = sg._frontal_at(S, u, v)
    return n, defined, lam, dlam


def _unit_density(S, *points):
    """det(X_u, X_v, n / |n|) at the points, from one _frontal_at call."""
    u, v = np.array(points, float).T
    X, _, n, _, _, _ = sg._frontal_at(S, u, v)
    n = n / np.linalg.norm(n, axis=-1, keepdims=True)
    return np.linalg.det(np.concatenate([sg._dX_of(X), n[..., None]], axis=-1))


def _reference_frontal_at(S, u, v):
    """The former _frontal_at, one batched degree-2 evaluation (the analytic
    normal at degree 1): the jets X, the normals, their mask, lambda and
    dlambda.  The scan's degree-5 evaluation must read the same off its jets."""
    X = S.jet(u, v, 2)
    W = sg._cross_jets(X)
    if S.has_analytic_normal:
        N = S.analytic_normal_jet(u, v, 1)
        n = np.stack([c.value for c in N], axis=-1)
        defined = np.ones(np.shape(u), bool)
    else:
        n, defined = sg._frontal_normal(W)
        N = n.T
    lam = euclid_inner(W, N)
    return X, n, defined, lam.value, lam.gradient()


def test_normal_on_fold_from_cross_product_jet():
    """The frontal normal of the fold without its analytic normal is (0, 0, 1)
    on both sides of the singular curve v = 0 and on it, while lambda = 2v
    changes sign."""
    n, defined, lam, dlam = _frontal(_custom_fold(), (0.4, -0.1), (0.4, 0.0), (0.4, 0.1))
    assert defined.all()
    assert np.allclose(n, [0, 0, 1], atol=1e-12)
    assert np.allclose(lam, [-0.2, 0.0, 0.2], atol=1e-12)
    assert np.allclose(dlam, [0, 2], atol=1e-12)


def test_normal_on_cusp25_at_singular_point(cusp25_model):
    n, defined, _, _ = _frontal(cusp25_model, (0.3, 0.0))
    assert defined.all() and np.allclose(n, [[0, 0, 1]], atol=1e-12)


def test_normal_at_cone_vertex_defined(cone_model):
    n, defined, _, _ = _frontal(cone_model, (0.5, 0.0))
    expect = np.array([math.cos(0.5), math.sin(0.5), -1.0]) / math.sqrt(2)
    assert defined.all() and np.allclose(np.abs(n[0]), np.abs(expect), atol=1e-10)


def test_normal_undefined_at_rank0():
    _, defined, _, _ = _frontal(_rank0_model(), (0.0, 0.0), (0.3, 0.2))
    assert defined.tolist() == [False, True]


def test_signed_area_density_fold(fold_model):
    lam = _unit_density(fold_model, (0.3, 0.25), (0.0, -0.1))
    assert abs(lam[0] - 0.5) < 1e-14
    assert abs(lam[1] + 0.2) < 1e-14


def test_signed_area_density_conjugate_closed_form(conj_k2):
    lam = _unit_density(conj_k2, (1.0, 0.3))[0]
    delta1 = (1 + 3) ** 2 - 8
    expect = 1.0 * math.sqrt(delta1 - 3) / (0.5 * math.sqrt(3) * math.sqrt(delta1))
    assert abs(lam - expect) < 1e-9
    assert abs(expect - math.sqrt(5 / 6)) < 1e-15


# -- tracing and kinds ------------------------------------------------------------


def test_trace_fold_curve(fold_model):
    recs = trace_singular_curve(fold_model, box=(-1, 1, -1, 1), n_grid=9)
    assert recs
    assert all(abs(r.location[1]) < 1e-11 for r in recs)
    assert all(r.kind == "first_kind" for r in recs)
    assert all(abs(r.lam) < 1e-10 for r in recs)


def test_trace_conjugate_curve(conj_k2_records):
    recs = conj_k2_records
    assert len(recs) >= 20
    assert all(abs(r.location[0]) < 1e-11 for r in recs)
    assert all(r.kind == "first_kind" for r in recs)
    for r in recs:
        assert abs(r.dlam[0] - 2 / math.sqrt(3)) < 1e-8
        assert abs(r.dlam[1]) < 1e-9


def test_trace_immersion_is_empty():
    def builder(u0, v0, degree):
        uj = Jet2.coordinate((u0, v0), degree, 0)
        vj = Jet2.coordinate((u0, v0), degree, 1)
        return (Jet2.constant(0.0, (u0, v0), degree), uj, vj)

    plane = sf.custom_surface(builder)
    assert trace_singular_curve(plane, box=(-1, 1, -1, 1), n_grid=7) == []


@pytest.mark.parametrize("make, box, bound", [
    (lambda: sf.conjugate_of("delaunay_timelike", k=2.0, H=0.5), None, 2 * 21 * 21),
    (lambda: sf.standard_model("cuspidal_edge"), (-0.5, 0.5, -0.5, 0.5), 21 * 21),
    (lambda: sf.delaunay_timelike(2.0, 0.5), None, 21 * 21),
], ids=["conjugate_k2", "cuspidal_edge", "delaunay_t_k2"])
def test_scan_evaluates_each_grid_node_once(monkeypatch, make, box, bound):
    """One surface jet per node, plus one normal jet with an analytic normal;
    these curves need no bisection at this grid, and max_records=0 leaves out
    the record assembly."""
    S = make()
    calls = []

    def counting(method):
        def wrapper(self, *args, **kw):
            calls.append(method.__name__)
            return method(self, *args, **kw)
        return wrapper

    for name in ("jet", "analytic_normal_jet"):
        monkeypatch.setattr(sf.Surface, name, counting(getattr(sf.Surface, name)))
    assert trace_singular_curve(S, box=box, n_grid=21, max_records=0) == []
    assert len(calls) <= bound


def _pushed_cusp25():
    rng = np.random.default_rng(5)
    A = np.eye(3) + rng.uniform(-0.3, 0.3, (3, 3))
    return diffeo_push(sf.standard_model("cusp25"), A, rng.uniform(-0.1, 0.1, (3, 3, 3)))


def _two_cones():
    """(f cos u, f sin u, v) with f = v (v - 1): cone points on v = 0 and v = 1,
    with two different images."""

    def builder(u0, v0, degree):
        uj, vj = Jet2.variables((u0, v0), degree)
        f = vj * vj - vj
        return (f * jt.cos(uj), f * jt.sin(uj), vj)

    return sf.custom_surface(builder)


# seeded surfaces of every kind the scan serves, (make, box, n_grid): analytic
# normals and none, conelike and cuspidal curves, a pushed and a custom surface
SCAN_CASES = {
    "conjugate_k2": (lambda: sf.conjugate_of("delaunay_timelike", k=2.0, H=0.5),
                     (-0.37, 0.41, 0.1, 2.0), 13),
    "conjugate_k-1": (lambda: sf.conjugate_of("delaunay_timelike", k=-1.0, H=0.3), None, 33),
    "delaunay_t": (lambda: sf.delaunay_timelike(2.0, 0.5), (-0.8, 0.75, 0.1, 2.0), 11),
    "cuspidal_edge": (lambda: sf.standard_model("cuspidal_edge"), (-1.0, 0.9, -0.8, 1.0), 9),
    "pushed_cusp25": (_pushed_cusp25, (-0.4, 0.4, -0.35, 0.45), 9),
    "custom_fold": (_custom_fold, (-1.0, 0.9, -0.7, 1.0), 9),
    "two_cones": (_two_cones, (-1.0, 0.9, -0.45, 1.4), 9),
}


def _point_by_point(S, q):
    """rank, null vector, normal, lambda and dlambda at q from scalar jets."""
    _, sv, Vt = np.linalg.svd(sg._dX_of(S.jet(q[0], q[1], 1)))
    if S.has_analytic_normal:
        n = np.array([c.value for c in S.analytic_normal_jet(q[0], q[1], 0)])
    else:  # the frontal normal of the cross product's scalar jet
        n, defined = sg._frontal_normal(sg._cross_jets(S.jet(q[0], q[1], 2)))
        assert defined
    lj = sg._lambda_jet(S, q, 2, normal=n)
    gate = sg.ROOT_GATE * sg.ROOT_TOL * max(np.linalg.norm(lj.gradient()), 1.0)
    rank = 0 if sv[0] <= 1e-13 else 2 if sv[0] * sv[1] > gate else 1
    return rank, (Vt[1] if rank == 1 else None), n, lj.value, lj.gradient()


@pytest.mark.parametrize("name", list(SCAN_CASES))
def test_batched_records_match_point_by_point(name):
    """Every field of every record equals a scalar recomputation at its
    location to 1e-13 relative, and its kind equals the kind the record gets
    on its own."""
    make, box, n_grid = SCAN_CASES[name]
    S = make()
    recs = trace_singular_curve(S, box=box, n_grid=n_grid)
    assert recs

    def close(a, b):
        a, b = np.asarray(a, float), np.asarray(b, float)
        return np.linalg.norm(a - b) <= 1e-13 * max(1.0, np.linalg.norm(b))

    for rec in recs:
        rank, null, n, lam, dlam = _point_by_point(S, rec.location)
        assert rec.rank == min(rank, 1) and rec.kind != "degenerate_rank0"
        assert (rec.null_vector is None) == (null is None)
        if null is not None:
            assert close(rec.null_vector, null)
        assert close(rec.normal, n)
        assert abs(rec.lam - lam) <= 1e-13 * max(1.0, np.linalg.norm(dlam))
        assert close(rec.dlam, dlam)
        assert _reference_classify_kind(S, rec) == rec.kind


# densities along an edge with a sign change at r: smooth, a triple root, a
# steep one, a jump, and two lopsided ones on which false position alone
# takes about six times bisection's steps
_EDGE_DENSITIES = {
    "linear": lambda x: x,
    "cubic": lambda x: x**3,
    "steep": lambda x: np.tanh(50.0 * x),
    "jump": lambda x: np.where(x > 0, 1.0, -1.0),
    "kink": lambda x: np.where(x > 0, 1e9 * x, x),
    "exp": lambda x: np.expm1(40.0 * x),
}


def _bisect_reference(f, a, b):
    """Point-by-point bisection of [a, b] to ROOT_TOL (the scan's root finder
    before the bracketing steps)."""
    fa = f(a)
    while abs(b - a) > sg.ROOT_TOL:
        m = 0.5 * (a + b)
        fm = f(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


@given(st.sampled_from(sorted(_EDGE_DENSITIES)),
       st.lists(st.tuples(st.floats(0.01, 2.0), st.floats(0.01, 2.0), st.booleans()),
                min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_bracketed_roots_match_bisection(name, edges):
    """The lockstep bracketing lands within ROOT_TOL of a bisection of each
    edge, and takes no more than three times bisection's steps (every three
    steps at least halve an edge); a simple smooth root takes a few."""
    g = _EDGE_DENSITIES[name]
    r = np.array([0.5 * (hi - lo) for lo, hi, _ in edges])  # the root of edge k, on v = k
    ends = np.array([(-lo, hi) if up else (hi, -lo) for lo, hi, up in edges])
    ends += r[:, None]
    k = np.arange(len(edges), dtype=float)
    calls = []

    def fake_lambda_jet(S, p, degree, normal=None):
        calls.append(len(p[0]))
        return SimpleNamespace(value=g(p[0] - r[p[1].astype(int)]))

    a, b = np.stack([ends[:, 0], k], axis=-1), np.stack([ends[:, 1], k], axis=-1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg, "_lambda_jet", fake_lambda_jet)
        at_edges = sg._Stack((_custom_fold(),), np.zeros(len(edges), int))  # the fake density reads no surface
        roots = sg._bracketed_roots(at_edges, a, b, g(a[:, 0] - r), g(b[:, 0] - r), None)
    assert np.array_equal(roots[:, 1], k)
    for n, (lo, hi) in enumerate(ends):
        ref = _bisect_reference(lambda x: g(x - r[n]), lo, hi)
        assert abs(roots[n, 0] - ref) <= sg.ROOT_TOL
        assert abs(roots[n, 0] - r[n]) <= sg.ROOT_TOL
    steps = math.ceil(math.log2(np.abs(ends[:, 1] - ends[:, 0]).max() / sg.ROOT_TOL))
    assert len(calls) <= 3 * (steps + 1)
    if name == "linear":
        assert len(calls) <= 4


@pytest.mark.parametrize("name", ["conjugate_k2", "conjugate_k-1", "delaunay_t", "custom_fold"])
def test_scan_calls_builders_with_arrays_only(name):
    """The scan hands every builder call a batch of points, and a finer grid
    makes no more calls."""
    make, box, _ = SCAN_CASES[name]
    S = make()
    calls = []

    def batched_only(builder):
        def wrapper(u0, v0, degree):
            calls.append(np.ndim(u0))
            return builder(u0, v0, degree)
        return wrapper

    S.builder = batched_only(S.builder)
    if S.has_analytic_normal:
        S.normal_builder = batched_only(S.normal_builder)
    counts = []
    for n_grid in (9, 33):
        calls.clear()
        assert trace_singular_curve(S, box=box, n_grid=n_grid)
        assert calls and set(calls) == {1}
        counts.append(len(calls))
    assert counts[1] <= counts[0]


@given(st.sampled_from(["delaunay_timelike", "delaunay_spacelike"]),
       st.sampled_from([0.2, 0.3, 0.45, 0.6, 0.8, 1.0, 1.2, 1.5]),
       st.sampled_from([5, 9, 13, 21, 33, 41]))
@settings(max_examples=12, deadline=None)
@example("delaunay_timelike", 0.3, 33)
@example("delaunay_timelike", 0.6, 33)
@example("delaunay_timelike", 1.2, 33)
@example("delaunay_spacelike", 0.3, 33)
@example("delaunay_spacelike", 0.6, 33)
@example("delaunay_spacelike", 1.2, 33)
def test_k_minus_1_scan_records_are_roots(axis, H, n_grid):
    """On the k = -1 branches (no analytic normal) every record of the full
    domain scan is a first-kind root, and the verdict is cusp25 with the
    closed-form determinant.  The examples flipped to not_applicable before
    the root gate: a sign change of the anchored density away from the curve."""
    S = sf.conjugate_of(axis, k=-1.0, H=H)
    recs = trace_singular_curve(S, n_grid=n_grid)
    assert recs
    for rec in recs:
        assert abs(rec.lam) <= 1e-10 and rec.rank == 1 and rec.kind == "first_kind"
    rep = criterion_25(S, recs)
    assert rep.verdict == "cusp25", rep.reason
    expect = sg.conjugate_condition4_det(S.meta["branch"], -1.0, H)
    assert abs(rep.condition4_det - expect) <= 1e-9 * abs(expect)


def test_root_gate_drops_sign_changes_off_the_curve():
    """(e^u cos 2u, e^u sin 2u, v) is regular, and its normal turns by two
    radians over each grid cell: the density anchored at an edge start
    changes sign on the edge though lambda does not vanish.  The root gate
    drops and counts every such root."""

    def builder(u0, v0, degree):
        uj, vj = Jet2.variables((u0, v0), degree)
        r = jt.cosh(uj) + jt.sinh(uj)  # e^u
        return (r * jt.cos(2.0 * uj), r * jt.sin(2.0 * uj), vj)

    recs = trace_singular_curve(sf.custom_surface(builder), box=(-1, 1, -1, 1), n_grid=3)
    assert recs == [] and recs.unconfirmed_roots == 6


def test_scan_records_report_their_rank():
    """Without the e^u factor the cylinder's anchored density changes sign on
    the same 6 edges at points where it vanishes (W . n = 0 on a tangent
    "frontal normal"), so the gate keeps them; dX has rank 2 there, and the
    records say so, with kind other."""

    def builder(u0, v0, degree):
        uj, vj = Jet2.variables((u0, v0), degree)
        return (jt.cos(2.0 * uj), jt.sin(2.0 * uj), vj)

    S = sf.custom_surface(builder)
    recs = trace_singular_curve(S, box=(-1, 1, -1, 1), n_grid=3)
    assert len(recs) == 6
    assert all(r.rank == 2 and r.null_vector is None and r.kind == "other" for r in recs)
    assert all(_reference_classify_kind(S, r) == "other" for r in recs)


# every template of every conjugate branch
CONJUGATES = [
    ("delaunay_timelike", 2.0, None),     # I-i, template T
    ("delaunay_timelike", 0.5, None),
    ("delaunay_timelike", -0.5, None),
    ("delaunay_timelike", -2.0, None),    # I-i, template S
    ("delaunay_timelike", -1.0, None),    # I-ii
    ("delaunay_spacelike", 2.0, None),    # II-i, template S
    ("delaunay_spacelike", -0.5, None),
    ("delaunay_spacelike", -2.0, None),   # II-i, template T
    ("delaunay_spacelike", -1.0, None),   # II-ii
    ("delaunay_lightlike_i", None, "i"),  # III-i
    ("delaunay_lightlike_ii", None, "ii"),  # III-ii
]


@pytest.mark.parametrize("H", [0.3, 0.5, 0.8, 1.3])
@pytest.mark.parametrize("family, k, variant", CONJUGATES)
def test_condition4_closed_form_on_every_branch(family, k, variant, H):
    S = sf.conjugate_of(family, k=k, H=H, variant=variant)
    hw = min(0.35, 0.8 * S.u_range[1])
    rep = criterion_25(S, trace_singular_curve(S, box=(-hw, hw, 0.1, 1.2), n_grid=7))
    assert rep.verdict == "cusp25", rep.reason
    expect = sg.conjugate_condition4_det(S.meta["branch"], k, H)
    assert abs(rep.condition4_det - expect) <= 1e-9 * abs(expect), (S.meta["branch"], expect)


def test_classify_conelike_on_timelike_delaunay(delaunay_t_records):
    assert delaunay_t_records
    assert all(r.kind == "conelike" for r in delaunay_t_records)


def test_classify_first_kind_on_fold(fold_model):
    recs = trace_singular_curve(fold_model, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)
    assert recs[0].kind == _reference_classify_kind(fold_model, recs[0]) == "first_kind"


def test_classify_cone_model(cone_model):
    recs = trace_singular_curve(cone_model, box=(-1, 1, -1, 1), n_grid=7)
    assert recs and all(r.kind == "conelike" for r in recs)


IMG_TOL = 1e-9  # the walk's image-diameter threshold


def _reference_conelike(S, records) -> np.ndarray:
    """The former operational conelike test, kept as the reference of the jet
    test: three tangent steps of 0.02 of the smaller range on each side of
    each record, each with a transverse Newton correction on the density, and
    the record is conelike when the images of the walk points lie within
    IMG_TOL of the record's image and dX kills the curve tangent at each of
    them (to 1e-7 |dX|).  A point where the frontal normal is undefined takes
    the record's tangent."""
    members, R = sg._members(S), len(records)
    p = np.array([r.location for r in records], float)
    dlam = np.array([r.dlam for r in records], float)
    T = dlam / sg._norm(dlam)[:, None]
    S = members[0]  # the stack's domain and normal
    step = 0.02 * min(S.u_range[1] - S.u_range[0], S.v_range[1] - S.v_range[0])
    normal = None if S.has_analytic_normal else np.tile([r.normal for r in records], (2, 1))
    # both sides at once: rows 0..R-1 walk along +tangent, rows R..2R-1 along -tangent
    T2 = np.tile(T, (2, 1))
    move = np.repeat([step, -step], R)[:, None] * np.tile(sg._curve_direction(dlam), (2, 1))
    lo, hi = S.u_range
    walk = sg._Stack(members, np.array([r.owner for r in records] * 2))
    q = np.tile(p, (2, 1))
    inside = np.ones(2 * R, bool)
    points, of = [p], [np.arange(R)]  # the records come first; of: each point's record
    for _ in range(3):
        q = q + move
        inside &= (lo <= q[:, 0]) & (q[:, 0] <= hi)  # the curve leaves the domain on this side
        newton = inside.copy()
        for _ in range(3):  # transverse Newton on lambda, slope from its jet
            at = np.flatnonzero(newton)
            if not at.size:
                break
            lj = sg._lambda_jet(walk.at(at), (q[at, 0], q[at, 1]), 2,
                                normal=None if normal is None else normal[at])
            d = np.vecdot(lj.gradient(), T2[at])
            flat = np.abs(d) < 1e-300
            newton[at[flat]] = False
            at, d = at[~flat], d[~flat]
            q[at] = q[at] - (lj.value[~flat] / d)[:, None] * T2[at]
        points.append(q[inside])
        of.append(np.flatnonzero(inside) % R)
    points, of = np.concatenate(points), np.concatenate(of)
    X, _, defined, _, dl = _reference_frontal_at(walk.at(of), points[:, 0], points[:, 1])
    tangent = sg._curve_direction(np.where(defined[:, None], dl, dlam[of]))
    M = sg._dX_of(X)
    img = np.stack([c.value for c in X], axis=-1)

    def largest(values):
        out = np.zeros(R)
        np.maximum.at(out, of, values)
        return out

    spread = largest(sg._norm(img - img[of]))
    dtang = largest(sg._norm(np.vecdot(M, tangent[:, None, :])))
    scale = np.maximum(sg._norm(M[:R].reshape(R, 6)), 1e-300)
    return ((spread < IMG_TOL * np.maximum(1.0, largest(sg._norm(img))) + IMG_TOL)
            & (dtang < 1e-7 * scale))


def _reference_kinds(S, records) -> list:
    """The kinds of rank-1 records with the walk deciding conelike."""
    kinds = []
    for rec in records:
        t = sg._curve_direction(np.asarray(rec.dlam, float))
        eta = np.asarray(rec.null_vector, float) / np.linalg.norm(rec.null_vector)
        kinds.append("first_kind" if abs(t[0] * eta[1] - t[1] * eta[0]) > sg.ANGLE_TOL else None)
    tangent = [n for n, kind in enumerate(kinds) if kind is None]
    if tangent:
        for n, cone in zip(tangent, _reference_conelike(S, [records[n] for n in tangent])):
            kinds[n] = "conelike" if cone else "other"
    return kinds


_LARGE_K = [3000.0, -5000.0, 1e16, 1e100, -1e100]
_K_STRATA = st.one_of(st.sampled_from(_LARGE_K), st.floats(-10.0, 10.0).filter(lambda k: k != 1.0),
                      st.floats(10.0, 1e8), st.floats(-1e8, -10.0))


@st.composite
def _kinds_cases(draw):
    """(surface or stack, box, n_grid) over the conelike families: the four
    Delaunay families, model-cone, the two-cone surface, and a stack of
    delaunay-t surfaces of one H (they share the domain (-r_cap, r_cap) x
    (0, pi/H))."""
    family = draw(st.sampled_from(["delaunay_timelike", "delaunay_spacelike", "lightlike_i",
                                   "lightlike_ii", "cone", "two_cones", "stack"]))
    H, n_grid = draw(st.floats(0.3, 1.5)), draw(st.integers(5, 33))
    try:
        if family in ("delaunay_timelike", "delaunay_spacelike"):
            return getattr(sf, family)(draw(_K_STRATA), H), None, n_grid
        if family.startswith("lightlike"):
            return sf.delaunay_lightlike(family.split("_")[1], H), None, n_grid
        if family == "stack":
            ks = draw(st.lists(_K_STRATA, min_size=2, max_size=4))
            return [sf.delaunay_timelike(k, H) for k in ks], None, n_grid
    except sf.SurfaceParameterError:  # no orientation probe point at some (k, H) of |k| >= 1e16
        assume(False)
    if family == "cone":
        return sf.standard_model("cone"), (-1.0, 1.0, -1.0, 1.0), n_grid
    return _two_cones(), (-1.0, 0.9, -0.45, 1.4), n_grid


@given(_kinds_cases())
@settings(max_examples=100, deadline=None)
@example((sf.delaunay_timelike(3000.0, 0.5), None, 33))
@example((sf.delaunay_spacelike(-5000.0, 0.5), None, 33))
@example((sf.delaunay_timelike(1e16, 0.5), None, 9))
@example((sf.delaunay_spacelike(1e100, 0.5), None, 9))
@example((sf.delaunay_spacelike(-1e100, 0.5), None, 8))
@example(([sf.delaunay_timelike(k, 0.7) for k in _LARGE_K], None, 12))
def test_jet_kinds_are_the_walks_kinds(case):
    """The kinds the scan reads off the records' jets are those the walk
    along the curve gives, on every rank-1 record: a stack's members too."""
    S, box, n_grid = case
    scans = trace_singular_curve(S, box=box, n_grid=n_grid)
    for recs in [scans] if isinstance(S, sf.Surface) else scans:
        rank1 = [r for r in recs if r.rank == 1]
        assert [r.kind for r in rank1] == _reference_kinds(S, rank1)
    assert any(r.kind == "conelike" for recs in ([scans] if isinstance(S, sf.Surface) else scans) for r in recs)


@pytest.mark.parametrize("H", [1e-6, 1e-13, 1e-30])
def test_cone_points_stay_conelike_at_tiny_H(H):
    """The jet test is relative to |dX|, so a homothety keeps its kinds: the
    axis records of delaunay-t stay conelike at tiny H, where the surface
    grows like 1/H.  The scan lands them on the axis r = 0, which their root
    brackets straddle, so the walk agrees although its image tolerance is
    absolute (a record 2.5e-13 off the axis would move its image by about
    2.5e-13/H)."""
    S = sf.delaunay_timelike(2.0, H)
    recs = trace_singular_curve(S, n_grid=21)
    assert len(recs) == 21 and {r.kind for r in recs} == {"conelike"}
    assert {r.location[0] for r in recs} == {0.0}
    assert set(_reference_kinds(S, recs)) == {"conelike"}


def _curve_of_order(n):
    """(v u^2/2 - u^(n+2)/(n+2), v u - u^(n+1)/(n+1), v): X_u = (v - u^n)(u, 1, 0),
    so the singular curve is v = u^n with the null direction d_u, tangent to
    it at the origin only.  Along the curve X moves at order n at the origin:
    the swallowtail for n = 2, and for n = 4 only the last coefficient the
    jets read moves."""

    def builder(u0, v0, degree):
        u, v = Jet2.variables((u0, v0), degree)
        return (v * u * u * 0.5 - u ** (n + 2) / (n + 2.0), v * u - u ** (n + 1) / (n + 1.0), v)

    return sf.custom_surface(builder)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_tangent_record_whose_image_moves_is_not_conelike(n):
    """The origin is a rank-1 record with the null direction along the curve,
    not conelike: X o gamma's coefficient n is 1 relative to |dX| and the
    lower ones vanish.  The walk agrees, and the records elsewhere on the
    curve are of the first kind."""
    S = _curve_of_order(n)
    recs = trace_singular_curve(S, box=(-1.0, 1.0, -1.0, 1.0), n_grid=9)
    origin = [r for r in recs if r.location == (0.0, 0.0)]
    assert len(origin) == 1 and origin[0].rank == 1 and origin[0].kind == "other"
    assert [r.kind for r in recs] == _reference_kinds(S, recs)
    assert {r.kind for r in recs if r is not origin[0]} == {"first_kind"}
    X, _, curve, _ = sg._curve_jets(S, origin)
    moves = sg._norm(np.stack([c.c[0, 1:] for c in jt.compose2(X, *curve)], axis=-1))
    assert moves.tolist() == [0.0] * (n - 1) + [1.0] + moves.tolist()[n:]


def test_rank_deficiency_at_traced_roots(conj_k2_records, conj_k2):
    for rec in conj_k2_records[:5]:
        M = sg._dX_of(conj_k2.jet(*rec.location, 1))
        sv = np.linalg.svd(M, compute_uv=False)
        assert sv[1] < 1e-7 * sv[0]


# -- special field, C, criterion ---------------------------------------------------


def test_special_null_field_cusp25(cusp25_model):
    recs = trace_singular_curve(cusp25_model, box=(-1, 1, -1, 1), n_grid=5)
    (a, b), eta, res, _ = special_null_field(StraightChart(cusp25_model, recs[0]).jets())
    assert abs(a) < 1e-12 and abs(b) < 1e-12
    assert max(res) < 1e-12


def test_special_null_field_conjugate(conj_k2, conj_k2_records):
    (a, b), eta, res, _ = special_null_field(StraightChart(conj_k2, conj_k2_records[0]).jets())
    assert abs(a) < 1e-9
    assert abs(b - 2.0) < 1e-7  # 1/(H(k-1)|k-1|) at k=2, H=1/2
    assert max(res) < 1e-8


def test_special_null_field_fold(fold_model):
    recs = trace_singular_curve(fold_model, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)
    (a, b), _, res, _ = special_null_field(StraightChart(fold_model, recs[0]).jets())
    assert abs(a) < 1e-12 and abs(b) < 1e-12 and max(res) < 1e-12


def test_constant_C_cusp25(cusp25_model):
    recs = trace_singular_curve(cusp25_model, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)
    chart = StraightChart(cusp25_model, recs[0])
    Y = chart.jets()
    C, res = constant_C(special_null_field(Y)[3])
    assert C == 0.0 and res == 0.0


def test_constant_C_conjugate(conj_k2, conj_k2_records):
    chart = StraightChart(conj_k2, conj_k2_records[0])
    Y = chart.jets()
    C, res = constant_C(special_null_field(Y)[3])
    assert abs(C) < 1e-8 and res < 1e-8


def test_constant_C_flags_collinearity_failure(cuspidal_edge_model):
    # with eta~ = d_v on (u, v^2, v^3): eta^2 X = (0,2,0), eta^3 X = (0,0,6)
    recs = trace_singular_curve(cuspidal_edge_model, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)
    chart = StraightChart(cuspidal_edge_model, recs[0])
    Y = chart.jets()
    eta = VectorFieldJet.constant(1.0, 0.0, (0.0, 0.0))
    C, res = constant_C(jt.field_chain(Y, eta, 3))
    assert abs(C) < 1e-12
    assert abs(res - 3.0) < 1e-12  # |(0,0,6)| / |(0,2,0)|


def test_constant_C_hypothesis_violation(fold_model):
    recs = trace_singular_curve(fold_model, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)
    chart = StraightChart(fold_model, recs[0])
    Y = chart.jets()
    bad = VectorFieldJet.constant(0.0, 1.0, (0.0, 0.0))  # along-curve field: eta^2 X = 0
    with pytest.raises(HypothesisViolationError, match="eta~\\^2 X vanishes"):
        constant_C(jt.field_chain(Y, bad, 3))


def _reference_classify_kind(S, record):
    """The kind of one record on its own: the former public classify_kind."""
    if record.rank != 1 or record.null_vector is None:
        return "other" if record.rank == 2 else "degenerate_rank0"
    return sg._kinds(S, [record])[0]


def _reference_special_null_field(S, record):
    """((a, b), eta~, residuals) of one record on a chart of its own, the
    chain of eta~ to order 3: the former special_null_field(S, record)."""
    Y = StraightChart(S, record).jets()
    Xv, Xuu, Xuuu, Xuv = (jt.partial_values(Y, i, j) for i, j in ((0, 1), (2, 0), (3, 0), (1, 1)))
    vv = np.vecdot(Xv, Xv)
    a = -np.vecdot(Xv, Xuu) / vv
    b = -np.vecdot(Xv, Xuuu + 3 * a[..., None] * Xuv) / (2 * vv)
    eta = sg.special_field(float(a), float(b), Y[0].base)
    e = jt.field_chain(Y, eta, 3)
    scale = sg._norm(Xv) * np.maximum(np.maximum(sg._norm(e[2]), sg._norm(e[3])), 1e-300)
    return (float(a), float(b)), eta, (np.abs(np.vecdot(Xv, e[2])) / scale,
                                       np.abs(np.vecdot(Xv, e[3])) / scale)


def _reference_constant_C(Y, eta):
    """(C, collinearity residual) from the chain of eta to order 3: the former
    constant_C(Y, eta)."""
    e = jt.field_chain(Y, eta, 3)
    n2 = np.vecdot(e[2], e[2])
    if np.any(n2 <= 1e-300):
        raise HypothesisViolationError("hypothesis violated: eta~^2 X vanishes")
    C = np.vecdot(e[3], e[2]) / n2
    return sg._per_sample(C, sg._norm(e[3] - C[..., None] * e[2]) / np.sqrt(n2))


def _reference_condition4_det(Y, eta, C, xi=None):
    """The condition-4 determinant (raw, relative) from the chain of eta to
    order 5: the former condition4_det(Y, eta, C, xi)."""
    xiX = jt.partial_values(Y, 0, 1) if xi is None else jt.field_chain(Y, xi, 1)[1]
    e = jt.field_chain(Y, eta, 5)
    return sg._rel_det(xiX, e[2], 3 * e[5] - 10 * np.asarray(C)[..., None] * e[4])


# the surfaces and boxes of the entry-point property: the conjugate at k = 2,
# the two k = -1 conjugates, and the three models of the criterion
ENTRY_POINT_CASES = {
    "conj_k2": (lambda: sf.conjugate_of("delaunay_timelike", k=2.0, H=0.5), (-0.4, 0.4, 0.1, 2.1), 11),
    "conj_t_k-1": (lambda: sf.conjugate_of("delaunay_timelike", k=-1.0, H=0.5), (-0.35, 0.35, 0.1, 1.2), 7),
    "conj_s_k-1": (lambda: sf.conjugate_of("delaunay_spacelike", k=-1.0, H=0.5), (-0.35, 0.35, 0.1, 1.2), 7),
    "cusp25": (lambda: sf.standard_model("cusp25"), (-0.5, 0.5, -0.5, 0.5), 5),
    "fold": (lambda: sf.standard_model("fold"), (-0.5, 0.5, -0.5, 0.5), 5),
    "cuspidal_edge": (lambda: sf.standard_model("cuspidal_edge"), (-0.5, 0.5, -0.5, 0.5), 5),
}


def _bits(*values):
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("name", list(ENTRY_POINT_CASES))
def test_criterion_entry_points_are_the_per_record_wrappers_bit_for_bit(name):
    """special_null_field, constant_C and condition4_det on the batched chart
    of a scan, element by element, and on the chart of each record alone, are
    the per-record references to the bit: with the default fields, and with
    (xi, eta~) changed by special perturbations drawn as in criterion 6."""
    make, box, n_grid = ENTRY_POINT_CASES[name]
    S = make()
    recs = trace_singular_curve(S, box=box, n_grid=n_grid)
    assert recs and all(rec.kind == "first_kind" for rec in recs)
    Y = StraightChart(S, recs).jets()
    (a, b), eta, res, e = special_null_field(Y)
    C, col = constant_C(e)
    d4, r4 = condition4_det(xi_X(Y, None), e, C)
    for i, rec in enumerate(recs):
        Yi = StraightChart(S, rec).jets()
        (ra, rb), reta, rres = _reference_special_null_field(S, rec)
        rC, rcol = _reference_constant_C(Yi, reta)
        rd4, rr4 = _reference_condition4_det(Yi, reta, rC)
        expect = _bits(ra, rb, *rres, rC, rcol, rd4, rr4)
        assert _bits(a[i], b[i], res[0][i], res[1][i], C[i], col[i], d4[i], r4[i]) == expect
        assert eta.e2.element(i).c.tobytes() == reta.e2.c.tobytes()
        (sa, sb), seta, sres, se = special_null_field(Yi)  # one record: scalar jets
        sC, scol = constant_C(se)
        assert _bits(sa, sb, *sres, sC, scol, *condition4_det(xi_X(Yi, None), se, sC)) == expect
        assert seta.e2.c.tobytes() == reta.e2.c.tobytes()

    rng = np.random.default_rng(20240809)
    B = len(recs)
    base = (np.zeros(B), np.zeros(B))
    u, v = Jet2.variables(base, 5)
    c = rng.uniform(-0.8, 0.8, size=(11, B))
    s1, s2 = (rng.uniform(0.5, 2.0, B) * rng.choice([-1.0, 1.0], B) for _ in range(2))
    a1 = Jet2.constant(s1, base) + u * c[0] + v * c[1]  # jets first, as in the fields suite
    b2 = Jet2.constant(s2, base) + u * c[2] + v * c[3]
    a2 = u * (u * c[5] + c[4] + v * c[6])
    b1s = u * u * u * (v * c[10] + c[9])
    xis, etas, _ = perturb_fields(VectorFieldJet.constant(0.0, 1.0, base), eta, a1, a2, b1s, b2,
                                  special=True)
    es = jt.field_chain(Y, etas, 5)
    Cb, colb = constant_C(es)
    d4b, r4b = condition4_det(xi_X(Y, xis), es, Cb)
    for i, rec in enumerate(recs):
        Yi = StraightChart(S, rec).jets()
        xi_i, eta_i = (VectorFieldJet(f.e1.element(i), f.e2.element(i)) for f in (xis, etas))
        rC, rcol = _reference_constant_C(Yi, eta_i)
        rd4, rr4 = _reference_condition4_det(Yi, eta_i, rC, xi=xi_i)
        assert _bits(Cb[i], colb[i], d4b[i], r4b[i]) == _bits(rC, rcol, rd4, rr4)


def _reference_sample(S, rec):
    """A sample of criterion_25 by the formulas written out, with one
    iterated_field_derivative call per order on a chart of its own."""
    Y = StraightChart(S, rec).jets()
    ifd = jt.iterated_field_derivative

    def rel_det(c1, c2, c3):
        d = float(np.linalg.det(np.array([c1, c2, c3])))
        scale = np.linalg.norm(c1) * np.linalg.norm(c2) * np.linalg.norm(c3)
        return d, abs(d) / scale if scale > 0 else (0.0 if d == 0 else math.inf)

    xiX = ifd(Y, VectorFieldJet.constant(0.0, 1.0), 1)
    eta = VectorFieldJet.constant(1.0, 0.0)
    d3, r3 = rel_det(xiX, ifd(Y, eta, 2), ifd(Y, eta, 3))
    Xv, Xuu, Xuuu, Xuv = (jt.partial_values(Y, a, b) for a, b in ((0, 1), (2, 0), (3, 0), (1, 1)))
    vv = float(Xv @ Xv)
    a = -float(Xv @ Xuu) / vv
    b = -float(Xv @ (Xuuu + 3 * a * Xuv)) / (2 * vv)
    special = sg.special_field(a, b)
    e2, e3, e4, e5 = (ifd(Y, special, n) for n in (2, 3, 4, 5))
    scale = np.linalg.norm(Xv) * max(np.linalg.norm(e2), np.linalg.norm(e3), 1e-300)
    n2 = float(e2 @ e2)
    C = float(e3 @ e2) / n2
    d4, r4 = rel_det(xiX, e2, 3 * e5 - 10 * C * e4)
    return Y, {
        "location": list(map(float, rec.location)), "cond3_det": d3, "cond3_rel": r3,
        "a": a, "b": b, "C": C,
        "collinearity_residual": float(np.linalg.norm(e3 - C * e2)) / math.sqrt(n2),
        "special_residuals": [abs(float(Xv @ e2)) / scale, abs(float(Xv @ e3)) / scale],
        "cond4_det": d4, "cond4_rel": r4,
    }


@given(st.sampled_from(CONJUGATES), st.floats(0.3, 1.5), st.integers(5, 21))
@settings(max_examples=15, deadline=None)
def test_criterion_samples_match_the_formulas_bit_for_bit(conjugate, H, n_grid):
    """Every field of every criterion_25 sample, and its kept chart jets, are
    the reference's to the bit."""

    def bits(d):
        return {key: [float(x).hex() for x in np.ravel(v)] for key, v in d.items()}

    family, k, variant = conjugate
    S = sf.conjugate_of(family, k=k, H=H, variant=variant)
    hw = min(0.35, 0.8 * S.u_range[1])
    recs = trace_singular_curve(S, box=(-hw, hw, 0.1, 1.2), n_grid=n_grid)
    rep = criterion_25(S, recs)
    assert rep.samples and len(rep.samples) == len(recs)
    assert "jets" not in rep.as_dict()
    for i, (sample, rec) in enumerate(zip(rep.samples, recs)):
        Y, expect = _reference_sample(S, rec)
        assert bits(sample.as_dict()) == bits(expect)
        assert all(np.array_equal(y.element(i).c, z.c) for y, z in zip(rep.jets, Y))


class _ScalarChart:
    """StraightChart of one record as it was built one record at a time (the
    former __post_init__, jets and _lift_chart): the reference each element of
    the batched chart must match bit for bit."""

    def __init__(self, S, rec):
        p = np.asarray(rec.location, float)
        dlam = np.asarray(rec.dlam, float)
        nd = np.linalg.norm(dlam)
        if nd <= 1e-12:
            raise sg.DegenerateZeroSetError("degenerate zero set: dlambda vanishes")
        T = dlam / nd
        tang = sg._curve_direction(dlam)

        deg = jt.MAX_DEGREE - 1
        X = self.X = S.jet(p[0], p[1], jt.MAX_DEGREE)
        if S.has_analytic_normal:
            N = S.analytic_normal_jet(p[0], p[1], deg)
        else:
            N, defined = sg._frontal_normal(sg._cross_jets(X))
            if not defined:
                raise NormalUndefinedError("normal undefined (rank 0 or non-frontal)")
        g = euclid_inner(sg._cross_jets(X), N)
        gT = float(g.gradient() @ T)
        if abs(gT) <= 1e-12:
            raise sg.DegenerateZeroSetError("degenerate zero set: no transverse slope")

        lin = np.eye(deg + 1)[1]

        def curve_coeffs(phi):
            cu = tang[0] * lin + T[0] * phi
            cv = tang[1] * lin + T[1] * phi
            cu[0] += p[0]
            cv[0] += p[1]
            return jt.Jet1(0.0, deg, cu), jt.Jet1(0.0, deg, cv)

        phi = np.zeros(deg + 1)
        for m in range(2, deg + 1):
            cu, cv = curve_coeffs(phi)
            G = jt.compose2(g, cu, cv)
            phi[m] -= G.c[m] / gT
        self.curve_u, self.curve_v = curve_coeffs(phi)

        e = sg._dX_of(X) @ tang
        ne = np.linalg.norm(e)
        if ne <= 1e-12:
            raise sg.SingularTangentError("singular tangent degenerate")
        e = e / ne
        Xu_c = [jt.compose2(c.du(), self.curve_u, self.curve_v) for c in X]
        Xv_c = [jt.compose2(c.dv(), self.curve_u, self.curve_v) for c in X]
        eta_u, eta_v = -euclid_inner(Xv_c, e), euclid_inner(Xu_c, e)
        e0 = np.array([eta_u.value, eta_v.value])
        n0 = np.linalg.norm(e0)
        if n0 <= 1e-12:
            raise sg.SingularTangentError("singular tangent degenerate: null field vanishes")
        sgn = 1.0 if float(e0 @ dlam) > 0 else -1.0
        self.eta_u = eta_u * (sgn / n0)
        self.eta_v = eta_v * (sgn / n0)

    def jets(self):
        def lift(curve, eta):
            c = np.zeros((jt.MAX_DEGREE + 1, jt.MAX_DEGREE + 1))
            c[0, :jt.MAX_DEGREE] = curve.c
            c[1, :jt.MAX_DEGREE] = eta.c
            return Jet2((0.0, 0.0), jt.MAX_DEGREE, c)

        psi_u, psi_v = lift(self.curve_u, self.eta_u), lift(self.curve_v, self.eta_v)
        return tuple(jt.compose2(c, psi_u, psi_v) for c in self.X)


def _assert_chart_matches_the_scalar_one(S, recs):
    """Every element of the batched chart's jets, and the chart of each record
    alone, are the scalar chart's to the bit; the chart of one record carries
    no batch axis."""
    assert recs
    Y = StraightChart(S, recs).jets()
    for i, rec in enumerate(recs):
        ref = _ScalarChart(S, rec).jets()
        alone = StraightChart(S, rec).jets()
        for y, a, z in zip(Y, alone, ref):
            assert y.element(i).c.tobytes() == z.c.tobytes()
            assert a.c.shape == z.c.shape and a.c.tobytes() == z.c.tobytes()
            assert a.base == z.base == (0.0, 0.0)


@given(st.sampled_from(CONJUGATES), st.floats(0.3, 1.5), st.integers(5, 21))
@example(("delaunay_timelike", 2.0, None), 0.5, 21)  # analytic normal
@example(("delaunay_timelike", -1.0, None), 0.3, 5)  # frontal normal from the jets
@settings(max_examples=15, deadline=None)
def test_batched_chart_matches_the_scalar_chart_bit_for_bit(conjugate, H, n_grid):
    family, k, variant = conjugate
    S = sf.conjugate_of(family, k=k, H=H, variant=variant)
    hw = min(0.35, 0.8 * S.u_range[1])
    _assert_chart_matches_the_scalar_one(S, trace_singular_curve(S, box=(-hw, hw, 0.1, 1.2),
                                                                 n_grid=n_grid))


@pytest.mark.parametrize("model", ["cusp25", "fold", "cuspidal_edge"])
def test_batched_chart_matches_the_scalar_chart_on_pushed_models(model):
    """diffeo_push surfaces carry no analytic normal."""
    rng = np.random.default_rng(5)
    P = diffeo_push(sf.standard_model(model), np.eye(3) + rng.uniform(-0.3, 0.3, (3, 3)),
                    rng.uniform(-0.1, 0.1, (3, 3, 3)), rng.uniform(-0.05, 0.05, (3, 3, 3, 3)))
    assert not P.has_analytic_normal
    _assert_chart_matches_the_scalar_one(P, trace_singular_curve(P, box=(-0.4, 0.4, -0.4, 0.4),
                                                                 n_grid=7))


def test_criterion_raises_for_the_first_failing_record(conj_k2, conj_k2_records):
    """A failing record raises what a loop over the records meets first: the
    first failing check of the first failing record."""

    def failing(changes):
        """The first five records with changes {index: fields}."""
        recs = list(conj_k2_records[:5])
        for i, fields in changes.items():
            recs[i] = dataclasses.replace(recs[i], **fields)
        return recs

    with pytest.raises(sg.DegenerateZeroSetError, match="^degenerate zero set: dlambda vanishes$"):
        criterion_25(conj_k2, failing({2: dict(dlam=(0.0, 0.0))}))
    # record 1 fails a later check than record 3: record 1 raises
    with pytest.raises(sg.DegenerateZeroSetError, match="^degenerate zero set: no transverse slope$"):
        criterion_25(conj_k2, failing({1: dict(dlam=(0.0, 1.0)), 3: dict(dlam=(0.0, 0.0))}))
    with pytest.raises(sf.SurfaceDomainError, match="^u = 9.0 outside"):
        criterion_25(conj_k2, failing({1: dict(location=(9.0, 0.5)), 3: dict(dlam=(0.0, 0.0))}))


def test_one_cross_product_per_chart(monkeypatch):
    """Without an analytic normal the frontal normal and lambda share W = X_u x X_v."""
    S = sf.conjugate_of("delaunay_timelike", k=-1.0, H=0.5)
    recs = trace_singular_curve(S, box=(-0.35, 0.35, 0.1, 1.2), n_grid=9)
    assert not S.has_analytic_normal and len(recs) > 1
    calls = []
    cross = sg._cross_jets
    monkeypatch.setattr(sg, "_cross_jets", lambda X: calls.append(1) or cross(X))
    StraightChart(S, recs)
    assert len(calls) == 1
    StraightChart(S, recs[0])
    assert len(calls) == 2


@pytest.mark.parametrize("n_grid", [5, 21])
def test_criterion_evaluates_the_surface_only_at_records_without_jets(conj_k2, n_grid, monkeypatch):
    """The scan's records carry their jets: the criterion on them evaluates
    nothing.  Copies made with dataclasses.replace carry none and are
    evaluated in one degree-5 call (the normal in one degree-4 call), with
    the scan's records among them read as kept."""
    recs = trace_singular_curve(conj_k2, n_grid=n_grid)
    assert len(recs) > 1 and all(r.jets is not None for r in recs)
    calls = []
    for name in ("jet", "analytic_normal_jet"):
        method = getattr(sf.Surface, name)
        monkeypatch.setattr(sf.Surface, name, lambda S, u, v, degree, m=method, n=name:
                            calls.append((n, degree, np.size(u))) or m(S, u, v, degree))
    assert criterion_25(conj_k2, recs).verdict == "cusp25"
    assert calls == []
    stripped = [dataclasses.replace(r) if i % 2 else r for i, r in enumerate(recs)]
    rep, again = criterion_25(conj_k2, recs), criterion_25(conj_k2, stripped)
    assert repr(again.as_dict()) == repr(rep.as_dict())
    assert [y.c.tobytes() for y in again.jets] == [y.c.tobytes() for y in rep.jets]
    fresh = len(recs) // 2
    assert calls == [("jet", jt.MAX_DEGREE, fresh), ("analytic_normal_jet", jt.MAX_DEGREE - 1, fresh)]


def test_criterion_builds_one_chain_per_field(conj_k2, conj_k2_records, monkeypatch):
    """On the batch of all samples: the plain field's chain to order 3 and the
    special field's to order 5, one field pass per order over all three jets
    of every sample (8 passes however many samples)."""
    passes = []
    field_pass = jt._field_pass
    monkeypatch.setattr(jt, "_field_pass", lambda e, F: passes.append(F.shape) or field_pass(e, F))
    rep = criterion_25(conj_k2, conj_k2_records)
    n = len(rep.samples)
    assert n > 1 and len(passes) == 8
    assert all(shape[:2] == (3, n) for shape in passes)


def test_criterion_cusp25_exact(cusp25_model):
    recs = trace_singular_curve(cusp25_model, box=(-1, 1, -1, 1), n_grid=7)
    rep = criterion_25(cusp25_model, recs)
    assert rep.verdict == "cusp25"
    assert abs(rep.condition4_det - 720.0) < 1e-12 * 720
    assert rep.condition3_max_abs_det < 1e-14
    assert rep.C == 0.0 and rep.collinearity_residual == 0.0


def test_criterion_cuspidal_edge_rejected(cuspidal_edge_model):
    recs = trace_singular_curve(cuspidal_edge_model, box=(-1, 1, -1, 1), n_grid=7)
    rep = criterion_25(cuspidal_edge_model, recs)
    assert rep.verdict == "rejected_cond3"
    assert abs(rep.samples[0].cond3_det - 12.0) < 1e-12


def test_criterion_fold_rejected_cond4(fold_model):
    recs = trace_singular_curve(fold_model, box=(-1, 1, -1, 1), n_grid=7)
    rep = criterion_25(fold_model, recs)
    assert rep.verdict == "rejected_cond4"
    assert rep.condition3_max_abs_det < 1e-14
    assert rep.condition4_det == 0.0


def test_criterion_conjugate(conj_k2, conj_k2_records):
    rep = criterion_25(conj_k2, conj_k2_records)
    assert rep.verdict == "cusp25"
    assert abs(rep.condition4_det + 288.0) < 1e-5 * 288
    assert rep.condition3_max_abs_det < 1e-7
    for s in rep.samples:
        assert abs(s.cond4_det + 288.0) < 1e-5 * 288


def test_criterion_not_applicable_on_conelike(delaunay_t_k2, delaunay_t_records):
    rep = criterion_25(delaunay_t_k2, delaunay_t_records)
    assert rep.verdict == "not_applicable"
    assert "first kind" in rep.reason


@pytest.mark.parametrize(
    "family,k,variant",
    [
        ("delaunay_timelike", -2.0, None),   # template S, jet-based normal
        ("delaunay_timelike", -1.0, None),   # lightlike template
        ("delaunay_spacelike", 2.0, None),
        ("delaunay_spacelike", -2.0, None),
        ("delaunay_lightlike_i", None, "i"),
        ("delaunay_lightlike_ii", None, "ii"),
    ],
)
def test_criterion_on_every_conjugate_branch(family, k, variant):
    """All conjugate branches carry (2,5)-cuspidal edges, and the order-5
    determinant magnitude follows the closed form of the timelike-axis
    conjugate on the branches that have a k."""
    S = sf.conjugate_of(family, k=k, H=0.5, variant=variant)
    hw = min(0.35, 0.8 * S.u_range[1])
    recs = trace_singular_curve(S, box=(-hw, hw, 0.1, 1.2), n_grid=7)
    rep = criterion_25(S, recs)
    assert rep.verdict == "cusp25", (family, k, rep.reason)
    assert all(r.kind == "first_kind" for r in recs)
    if k is not None:
        expect = abs(sg.conjugate_condition4_det(S.meta["branch"], k, 0.5))
        assert abs(abs(rep.condition4_det) - expect) < 1e-5 * expect


# -- fold tests ---------------------------------------------------------------------


def test_fold_symmetry_fold_model(fold_model):
    recs = trace_singular_curve(fold_model, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)
    ft = fold_symmetry_test(fold_model, recs[:1])[0]
    assert ft.verdict == "fold_candidate" and ft.residual < 1e-14


def test_fold_symmetry_rejects_cusp25(cusp25_model):
    recs = trace_singular_curve(cusp25_model, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)
    ft = fold_symmetry_test(cusp25_model, recs[:1])[0]
    assert ft.verdict == "rejected"
    assert ft.residual > 0.1  # the v^5 coefficient leaves the image plane


def test_fold_symmetry_rejects_conjugate(conj_k2, conj_k2_records):
    ft = fold_symmetry_test(conj_k2, conj_k2_records[:1])[0]
    assert ft.verdict == "rejected"


def _reference_fold_symmetry_of(Y):
    """fold_symmetry_of_chart of one record's scalar chart jets Y, as it was run one
    record at a time: the reference of the batched fold test."""
    xiX = sg.partial_values(Y, 0, 1)
    e2 = sg.partial_values(Y, 2, 0)
    if np.linalg.norm(e2) <= 1e-12 * max(1.0, np.linalg.norm(xiX)):
        return sg.FoldReport("rejected", math.inf, "eta^2 X vanishes (image-plane test failed)")
    Q, _ = np.linalg.qr(np.array([xiX, e2]).T)
    scale = max(np.max(np.abs([c.c for c in Y])), 1e-300)
    residual = 0.0
    D = Y[0].degree
    for a in range(1, D + 1, 2):  # odd in u, the fold chart's v
        for b in range(D + 1 - a):
            vec = np.array([c.c[a, b] for c in Y])
            residual = max(residual, float(np.linalg.norm(vec - Q @ (Q.T @ vec))))
    residual /= scale
    if residual < 1e-8:
        return sg.FoldReport("fold_candidate", residual)
    return sg.FoldReport("rejected", residual, "odd-in-v jet leaves the image plane")


def _assert_fold_tests_match_the_reference(got, S, recs):
    """Verdicts and reasons equal, residuals within 1e-14."""
    assert len(got) == len(recs)
    for ft, rec in zip(got, recs):
        if rec.kind == "first_kind":
            ref = _reference_fold_symmetry_of(StraightChart(S, rec).jets())
        else:
            ref = sg.FoldReport("rejected", math.inf, f"kind is {rec.kind}, not first_kind")
        assert (ft.verdict, ft.reason) == (ref.verdict, ref.reason)
        assert ft.residual == ref.residual or abs(ft.residual - ref.residual) <= 1e-14


@pytest.mark.parametrize("conjugate", CONJUGATES)
@pytest.mark.parametrize("H", [0.3, 1.2])
def test_batched_fold_tests_match_the_per_record_reference(conjugate, H):
    family, k, variant = conjugate
    S = sf.conjugate_of(family, k=k, H=H, variant=variant)
    hw = min(0.35, 0.8 * S.u_range[1])
    recs = trace_singular_curve(S, box=(-hw, hw, 0.1, 1.2), n_grid=9)
    assert recs and all(rec.kind == "first_kind" for rec in recs)
    _assert_fold_tests_match_the_reference(fold_symmetry_test(S, recs), S, recs)
    # the criterion's batched chart serves the same tests
    _assert_fold_tests_match_the_reference(sg.fold_symmetry_of_chart(criterion_25(S, recs).jets), S, recs)
    # records of another kind are rejected in place, the others keep their chart
    mixed = [dataclasses.replace(rec, kind="other") if n % 3 == 1 else rec for n, rec in enumerate(recs)]
    _assert_fold_tests_match_the_reference(fold_symmetry_test(S, mixed), S, mixed)


@pytest.mark.parametrize("model", ["cusp25", "fold", "cuspidal_edge"])
def test_batched_fold_tests_match_the_reference_on_models(model):
    S = sf.standard_model(model)
    rng = np.random.default_rng(3)
    P = diffeo_push(S, np.eye(3) + rng.uniform(-0.3, 0.3, (3, 3)), rng.uniform(-0.1, 0.1, (3, 3, 3)))
    for surface in (S, P):
        recs = trace_singular_curve(surface, box=(-0.4, 0.4, -0.4, 0.4), n_grid=7)
        _assert_fold_tests_match_the_reference(fold_symmetry_test(surface, recs), surface, recs)


def test_fold_obstruction_certificate(delaunay_t_k2, delaunay_t_records):
    cert = cmc_fold_obstruction(delaunay_t_k2, delaunay_t_records[:1])[0]
    assert cert["sheet_flip"] is True
    assert cert["conclusion"] == "fold impossible"
    assert cert["sides"]["plus"]["abs_g_minus_1"] < 1e-8
    assert cert["sides"]["minus"]["abs_g_minus_1"] < 1e-8
    assert cert["dg_estimate"] > 0.1
    assert cert["laplacian_residual_max"] < 1e-5


def _reference_certificate(S, record, offset=sg.FOLD_OFFSET, flank=0.5):
    """cmc_fold_obstruction of one record as it was run one record at a time
    (scalar Gauss-map calls, a flank point off the spacelike set skipped, a
    probe point off that set making the record undetermined): the reference
    of the batched certificates."""
    if record.rank == 0:
        return {"conclusion": "rank-0 regime (omega = 0): no certificate",
                "regime": "omega_zero_rank0"}
    p = np.asarray(record.location, float)
    dlam = np.asarray(record.dlam, float)
    T = dlam / np.linalg.norm(dlam)

    def g_at(q):
        return complex(rp._gauss_values(S, q[0], q[1]))  # raises at infinity, as a batch does

    sides = {}
    h = offset
    tang = sg._curve_direction(dlam)
    try:
        for name, sgn in (("plus", 1.0), ("minus", -1.0)):
            ys = [abs(g_at(p + x * (sgn * T))) for x in (offset, offset / 2, offset / 4)]
            limit = (8 * ys[2] - 6 * ys[1] + ys[0]) / 3.0
            sides[name] = {"samples": ys, "limit_abs_g": limit, "abs_g_minus_1": abs(limit - 1.0),
                           "sign_abs_g_minus_1": float(np.sign(ys[0] - 1.0))}
        dg = math.hypot(abs(g_at(p + h * T) - g_at(p - h * T)) / (2 * h),
                        abs(g_at(p + h * T + h * tang) - g_at(p + h * T - h * tang)) / (2 * h))
    except NotSpacelikeError:
        return {"location": list(map(float, record.location)), "offset": offset,
                "conclusion": "undetermined", "reason": "a probe point is off the spacelike regular set"}
    flip = sides["plus"]["sign_abs_g_minus_1"] * sides["minus"]["sign_abs_g_minus_1"] < 0
    lap = []
    for sgn in (1.0, -1.0):
        q = p + sgn * flank * T
        if S.u_range[0] < q[0] < S.u_range[1]:
            try:
                lap.append(rp.laplacian_identity_residual(S, tuple(q)))
            except NotSpacelikeError:
                pass
    return {"location": list(map(float, record.location)), "offset": offset, "sides": sides,
            "sheet_flip": bool(flip), "dg_estimate": dg,
            "laplacian_residual_max": max(lap) if lap else None,
            "conclusion": "fold impossible" if flip else "no flip detected"}


def _assert_certificates_match_the_reference(got, S, recs, **kw):
    """Non-float fields and laplacian_residual_max equal; |g| samples, limits
    and dg_estimate within 1e-14."""

    def close(a, b, path):
        if isinstance(a, dict):
            assert a.keys() == b.keys(), path
            for key in a:
                close(a[key], b[key], path + "/" + key)
        elif isinstance(a, list):
            assert len(a) == len(b), path
            for n, (x, y) in enumerate(zip(a, b)):
                close(x, y, f"{path}[{n}]")
        elif isinstance(a, float) and not path.endswith(("laplacian_residual_max", "offset")):
            assert abs(a - b) <= 1e-14, (path, a, b)
        else:
            assert type(a) is type(b) and a == b, (path, a, b)

    assert len(got) == len(recs)
    for cert, rec in zip(got, recs):
        close(cert, _reference_certificate(S, rec, **kw), "")


# the gauss-limit suite's surfaces, box and grid (verify --trials 40)
GAUSS_LIMIT_SURFACES = [lambda: sf.delaunay_timelike(2.0, 0.5), lambda: sf.delaunay_spacelike(-1.0, 0.5),
                        lambda: sf.delaunay_lightlike("i", 0.5), lambda: sf.delaunay_lightlike("ii", 0.5)]


@pytest.mark.parametrize("build", GAUSS_LIMIT_SURFACES)
def test_batched_certificates_match_the_reference_on_the_gauss_limit_surfaces(build):
    S = build()
    box = (-0.5 * S.u_range[1], 0.5 * S.u_range[1], *S.v_range)
    recs = [r for r in trace_singular_curve(S, box=box, n_grid=10) if r.rank == 1]
    assert recs
    flank = 0.45 * S.u_range[1]
    _assert_certificates_match_the_reference(cmc_fold_obstruction(S, recs, flank=flank), S, recs,
                                             flank=flank)


CERTIFIED_SURFACES = {
    "delaunay-t k=2": lambda: sf.delaunay_timelike(2.0, 0.5),
    "delaunay-t k=-0.5": lambda: sf.delaunay_timelike(-0.5, 0.5),
    "delaunay-s k=-1": lambda: sf.delaunay_spacelike(-1.0, 0.5),
    "delaunay-s k=-2": lambda: sf.delaunay_spacelike(-2.0, 0.5),
    "delaunay-s k=0.3": lambda: sf.delaunay_spacelike(0.3, 0.5),
    "delaunay-l-i": lambda: sf.delaunay_lightlike("i", 0.5),
    "delaunay-l-ii": lambda: sf.delaunay_lightlike("ii", 0.5),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED_SURFACES))
@pytest.mark.parametrize("grid", [5, 9])
def test_batched_certificates_match_the_reference_on_classify_scans(name, grid):
    """Every rank-1 record of classify's scan at --grid 5 and 9, with a
    rank-0 record in the batch."""
    S = CERTIFIED_SURFACES[name]()
    recs = [r for r in trace_singular_curve(S, n_grid=grid) if r.rank == 1]
    assert recs
    rank0 = sg.SingularPointRecord((0.0, 0.0), 0.0, (0.0, 0.0), None, "degenerate_rank0", 0)
    recs.insert(len(recs) // 2, rank0)
    _assert_certificates_match_the_reference(cmc_fold_obstruction(S, recs), S, recs)


def test_certificate_skips_flank_points_off_the_spacelike_set(delaunay_t_k2, delaunay_t_records):
    # a zero flank puts the flank points on the singular curve, inside u_range
    recs = [r for r in delaunay_t_records if r.rank == 1]
    certs = cmc_fold_obstruction(delaunay_t_k2, recs, flank=0.0)
    assert [c["laplacian_residual_max"] for c in certs] == [None] * len(recs)
    _assert_certificates_match_the_reference(certs, delaunay_t_k2, recs, flank=0.0)
    # one such point raises; in a batch it reads NaN beside the spacelike points
    p = recs[0].location
    with pytest.raises(NotSpacelikeError):
        rp.laplacian_identity_residual(delaunay_t_k2, tuple(p))
    u, v = np.array([p[0], 0.5]), np.array([p[1], p[1]])
    lap = rp.laplacian_identity_residual(delaunay_t_k2, (u, v))
    assert math.isnan(lap[0]) and lap[1] == rp.laplacian_identity_residual(delaunay_t_k2, (0.5, p[1]))


@pytest.mark.parametrize("build", [lambda: sf.delaunay_timelike(3000.0, 0.5),
                                   lambda: sf.delaunay_spacelike(-5000.0, 0.5)])
def test_certificates_of_records_probed_off_the_spacelike_set_are_undetermined(build):
    """At large |k| the metric coefficient E, proportional to 4 r^2 / k^2 near the
    curve, cancels to noise at the probe offset: a record with a probe point
    off the spacelike set is undetermined, with the reason, and the others
    keep the certificates they get in a batch without it."""
    S = build()
    recs = [r for r in trace_singular_curve(S, n_grid=21)[:8] if r.rank == 1]
    certs = cmc_fold_obstruction(S, recs)
    assert {c["conclusion"] for c in certs} == {"fold impossible", "undetermined"}
    _assert_certificates_match_the_reference(certs, S, recs)
    probed = [rec for rec, c in zip(recs, certs) if c["conclusion"] != "undetermined"]
    assert [c for c in certs if c["conclusion"] != "undetermined"] == cmc_fold_obstruction(S, probed)


def test_fold_obstruction_rank0_regime():
    S = _rank0_model()
    rec = sg.SingularPointRecord((0.0, 0.0), 0.0, (0.0, 0.0), None, "degenerate_rank0", 0)
    cert, = cmc_fold_obstruction(S, [rec])
    assert cert["regime"] == "omega_zero_rank0"
    assert cmc_fold_obstruction(S, []) == []


# -- invariance machinery --------------------------------------------------------------


def test_perturb_validation():
    base = (0.0, 0.0)
    one = Jet2.constant(1.0, base)
    zero = Jet2.constant(0.0, base)
    v = Jet2.coordinate(base, 5, 1)
    xi = VectorFieldJet.constant(0.0, 1.0, base)
    eta = VectorFieldJet.constant(1.0, 0.0, base)
    with pytest.raises(ValueError, match="vanish on the singular set"):
        perturb_fields(xi, eta, one, v, zero, one)  # a2 = v not vanishing on {u=0}
    with pytest.raises(ValueError, match="nonvanishing"):
        perturb_fields(xi, eta, zero, zero, zero, one)
    u = Jet2.coordinate(base, 5, 0)
    with pytest.raises(ValueError, match="special variant"):
        perturb_fields(xi, eta, one, zero, u, one, special=True)


def test_perturb_validation_checks_each_element_of_a_batch():
    z = np.zeros(3)
    base = (z, z)
    u, v = Jet2.variables(base, 5)
    one = Jet2.constant(1.0, base)
    zero = Jet2.constant(0.0, base)
    xi = VectorFieldJet.constant(0.0, 1.0, base)
    eta = VectorFieldJet.constant(1.0, 0.0, base)
    a1 = one + u * np.array([0.3, -0.2, 0.5])
    b2 = Jet2.constant(np.array([2.0, -0.5, 1.5]), base) + v * np.array([0.1, 0.2, 0.3])
    a2 = u * (v * np.array([0.4, 0.1, -0.3]))
    _, _, pred = perturb_fields(xi, eta, a1, a2, zero, b2)
    assert pred.tolist() == [1.0 * 2.0 ** 7, 1.0 * (-0.5) ** 7, 1.0 * 1.5 ** 7]
    bad = a2 + 0.0
    bad.c[1, 0, 2] = 0.1  # element 1 only: a2 = 0.1 v^2 + ... on {u = 0}
    with pytest.raises(ValueError, match="vanish on the singular set"):
        perturb_fields(xi, eta, a1, bad, zero, b2)
    with pytest.raises(ValueError, match="nonvanishing"):
        perturb_fields(xi, eta, a1, a2, zero, Jet2.constant(np.array([1.0, 0.0, 1.0]), base))
    with pytest.raises(ValueError, match="special variant"):
        perturb_fields(xi, eta, a1, a2, u * np.array([0.0, 0.0, 0.2]), b2, special=True)


def test_identity_perturbation_changes_nothing(cusp25_model):
    recs = trace_singular_curve(cusp25_model, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)
    chart = StraightChart(cusp25_model, recs[0])
    Y = chart.jets()
    base = (0.0, 0.0)
    xi = VectorFieldJet.constant(0.0, 1.0, base)
    (a, b), eta, _, e0 = special_null_field(Y)
    one = Jet2.constant(1.0, base)
    zero = Jet2.constant(0.0, base)
    xib, etab, pred = perturb_fields(xi, eta, one, zero, zero, one, special=True)
    assert pred == 1.0
    eb = jt.field_chain(Y, etab, 5)
    C0, _ = constant_C(e0)
    Cb, _ = constant_C(eb)
    d0, _ = condition4_det(xi_X(Y, None), e0, C0)
    db, _ = condition4_det(xi_X(Y, xib), eb, Cb)
    assert db == d0


def test_b2_scaling_example(cusp25_model):
    # b2 = 2, a1 = 1: condition-4 determinant multiplies by 2^7 = 128
    recs = trace_singular_curve(cusp25_model, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)
    chart = StraightChart(cusp25_model, recs[0])
    Y = chart.jets()
    base = (0.0, 0.0)
    xi = VectorFieldJet.constant(0.0, 1.0, base)
    (_, _), eta, _, _ = special_null_field(Y)
    one = Jet2.constant(1.0, base)
    zero = Jet2.constant(0.0, base)
    two = Jet2.constant(2.0, base)
    xib, etab, pred = perturb_fields(xi, eta, one, zero, zero, two, special=True)
    assert pred == 128.0
    eb = jt.field_chain(Y, etab, 5)
    Cb, _ = constant_C(eb)
    db, _ = condition4_det(xi_X(Y, xib), eb, Cb)
    assert abs(db - 92160.0) < 1e-6


def test_random_field_changes_cusp25_and_conjugate(cusp25_model, conj_k2, conj_k2_records):
    rng = np.random.default_rng(7)
    base = (0.0, 0.0)
    u = Jet2.coordinate(base, 5, 0)
    v = Jet2.coordinate(base, 5, 1)
    xi0 = VectorFieldJet.constant(0.0, 1.0, base)
    targets = [
        (cusp25_model, trace_singular_curve(cusp25_model, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)[0]),
        (conj_k2, conj_k2_records[0]),
    ]
    for S, rec in targets:
        chart = StraightChart(S, rec)
        Y = chart.jets()
        (a, b), eta0, _, e0 = special_null_field(Y)
        C0, _ = constant_C(e0)
        d4_0, _ = condition4_det(xi_X(Y, None), e0, C0)
        for _ in range(10):
            c = rng.uniform(-0.8, 0.8, size=11)
            a1 = Jet2.constant(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]), base) + c[0] * u + c[1] * v
            b2 = Jet2.constant(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]), base) + c[2] * u + c[3] * v
            a2 = u * (c[4] + c[5] * u + c[6] * v)
            b1g = u * (c[7] + c[8] * v)
            b1s = u * u * u * (c[9] + c[10] * v)
            eta_g = VectorFieldJet.constant(1.0, 0.0, base)
            xib, etab, _ = perturb_fields(xi0, eta_g, a1, a2, b1g, b2)
            _, r3 = condition3_det(Y, xi=xib, eta=etab)
            assert r3 < 1e-7
            xis, etas, pred = perturb_fields(xi0, eta0, a1, a2, b1s, b2, special=True)
            es = jt.field_chain(Y, etas, 5)
            Cb, _ = constant_C(es)
            d4b, _ = condition4_det(xi_X(Y, xis), es, Cb)
            assert abs(d4b / d4_0 - pred) / abs(pred) < 1e-6


def test_diffeo_push_preserves_verdicts(cusp25_model, fold_model):
    rng = np.random.default_rng(11)
    A = np.eye(3) + rng.uniform(-0.3, 0.3, (3, 3))
    Q = rng.uniform(-0.1, 0.1, (3, 3, 3))
    Cc = rng.uniform(-0.05, 0.05, (3, 3, 3, 3))
    for S, verdict, foldv in ((cusp25_model, "cusp25", "rejected"), (fold_model, "rejected_cond4", "fold_candidate")):
        P = diffeo_push(S, A, Q, Cc)
        recs = trace_singular_curve(P, box=(-0.4, 0.4, -0.4, 0.4), n_grid=5)
        rep = criterion_25(P, recs)
        assert rep.verdict == verdict
        assert fold_symmetry_test(P, [recs[len(recs) // 2]])[0].verdict == foldv


def _reference_push(S, A, Q=None, Cc=None):
    """diffeo_push as it was written before the contraction: 36 products, then
    one scalar times jet product and one sum per nonzero form entry."""
    A = np.asarray(A, float)

    def builder(u, v, degree):
        X = S.jet(u, v, degree)
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

    return sf.custom_surface(builder, u_range=S.u_range, v_range=S.v_range)


_PUSH_BASES = {name: sf.standard_model(name) for name in ("cusp25", "cuspidal_edge", "cone")}


@given(name=st.sampled_from(sorted(_PUSH_BASES)), degree=st.integers(0, 5),
       batch=st.sampled_from([None, 1, 5]), quadratic=st.sampled_from(["none", "dense", "zeros"]),
       cubic=st.sampled_from(["none", "dense", "zeros"]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
@example(name="cone", degree=0, batch=5, quadratic="zeros", cubic="zeros", seed=2659)  # terms cancel to 1.5e-4
def test_push_contraction_matches_the_per_term_builder(name, degree, batch, quadratic, cubic, seed):
    """At one point or a batch, every degree, with either form missing, dense or
    with zero entries: each coefficient is within 1e-13 of the magnitude of the
    terms summed into its component's element.  The two builders add the same
    terms in different orders, so where the terms cancel to a small value the
    difference is bounded by the terms' size, not by the value's."""
    rng = np.random.default_rng(seed)

    def form(kind, size, ndim):
        if kind == "none":
            return None
        F = rng.uniform(-size, size, (3,) * ndim)
        if kind == "zeros":
            F[rng.random(F.shape) < 0.5] = 0.0
        return F

    A = np.eye(3) + rng.uniform(-0.4, 0.4, (3, 3))
    Q, Cc = form(quadratic, 0.1, 3), form(cubic, 0.05, 4)
    S = _PUSH_BASES[name]
    u, v = rng.uniform(-0.6, 0.6, (2, batch or 1))
    if batch is None:
        u, v = float(u[0]), float(v[0])
    got = diffeo_push(S, A, Q, Cc).jet(u, v, degree)
    want = _reference_push(S, A, Q, Cc).jet(u, v, degree)
    # the same sum of terms with every factor's coefficients made nonnegative: an
    # upper bound on the sum of the terms' magnitudes, coefficient by coefficient
    S_abs = sf.custom_surface(lambda u, v, d: tuple(Jet2(x.base, x.degree, np.abs(x.c)) for x in S.jet(u, v, d)),
                              u_range=S.u_range, v_range=S.v_range)
    terms = _reference_push(S_abs, np.abs(A), *(None if F is None else np.abs(F) for F in (Q, Cc))).jet(u, v, degree)
    for g, w, t in zip(got, want, terms):
        assert g.degree == w.degree == degree and g.c.shape == w.c.shape
        assert type(g.base[0]) is type(w.base[0])
        scale = t.c.max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(g.c - w.c) <= 1e-13 * scale)


@pytest.mark.parametrize("model", ["cusp25", "fold", "cuspidal_edge"])
def test_push_contraction_gives_the_per_term_builders_verdicts(model):
    """20 pushes drawn as the diffeo suite draws them: the same criterion and
    fold verdicts as the per-term builder's surface."""
    from cmc_lab import cli

    rng = np.random.default_rng(18)
    S = sf.standard_model(model)
    for _ in range(20):
        A = rng.uniform(-0.4, 0.4, (3, 3)) + np.eye(3)
        A *= (rng.uniform(0.5, 2.0) / abs(np.linalg.det(A))) ** (1 / 3)
        Q = rng.uniform(-0.1, 0.1, (3, 3, 3))
        Cc = rng.uniform(-0.05, 0.05, (3, 3, 3, 3))
        box = (-0.4, 0.4, -0.4, 0.4)
        assert cli._verdicts(diffeo_push(S, A, Q, Cc), box) == cli._verdicts(_reference_push(S, A, Q, Cc), box)


# -- stacks -------------------------------------------------------------------------

_MODELS = {name: sf.standard_model(name) for name in ("cusp25", "cuspidal_edge", "fold")}
_DIFFEO_BOX = (-0.4, 0.4, -0.4, 0.4)
_OFF_NODES = (-0.37, 0.41, -0.33, 0.45)  # no node line on v = 0: every root is bracketed


def _drawn_pushes(seed, trials):
    """`trials` pushes drawn as the diffeo suite draws them, each of a model drawn from the three."""
    rng = np.random.default_rng(seed)
    pushes = []
    for _ in range(trials):
        S = _MODELS[sorted(_MODELS)[rng.integers(3)]]
        A = rng.uniform(-0.4, 0.4, (3, 3)) + np.eye(3)
        A *= (rng.uniform(0.5, 2.0) / abs(np.linalg.det(A))) ** (1 / 3)
        pushes.append(diffeo_push(S, A, rng.uniform(-0.1, 0.1, (3, 3, 3)), rng.uniform(-0.05, 0.05, (3, 3, 3, 3))))
    return pushes


@given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 40), box=st.sampled_from([_DIFFEO_BOX, _OFF_NODES]))
@settings(max_examples=10, deadline=None)
@example(seed=0, trials=40, box=_DIFFEO_BOX)
@example(seed=1, trials=9, box=_OFF_NODES)
def test_a_stack_gives_each_member_what_it_gives_alone(seed, trials, box):
    """One scan, one criterion pass and one fold pass over a stack of pushes:
    each member's records, unconfirmed roots, samples, verdict, chart and fold
    reports are bit for bit those of the member as a stack of one."""
    from cmc_lab import cli

    pushes = _drawn_pushes(seed, trials)
    scans = trace_singular_curve(pushes, box=box, n_grid=5)
    reports = criterion_25(pushes, scans)
    chart = next((rep.jets for rep in reports if rep.jets), None)
    folds = sg.fold_symmetry_of_chart(chart) if chart else []
    row = 0
    for m, (P, recs, rep) in enumerate(zip(pushes, scans, reports)):
        alone = trace_singular_curve(P, box=box, n_grid=5)
        assert repr(recs) == repr(alone) and recs.unconfirmed_roots == alone.unconfirmed_roots
        assert [r.owner for r in recs] == [m] * len(recs)
        solo = criterion_25(P, alone)
        assert repr(rep) == repr(solo)  # every SampleCriterion, the verdict, the interval
        if solo.jets is None:
            assert rep.jets is None
            continue
        rows = slice(row, row + len(recs))
        assert all(y.c[rows].tobytes() == y1.c.tobytes() for y, y1 in zip(chart, solo.jets))
        assert repr(folds[rows]) == repr(sg.fold_symmetry_of_chart(solo.jets))
        row += len(recs)
    assert row == len(folds)
    assert cli._verdicts(pushes, box) == [cli._verdicts(P, box) for P in pushes]
    if box == _OFF_NODES:  # the roots came from the lockstep bracketing, not from nodes
        assert all(abs(r.location[1]) < 1e-9 for recs in scans for r in recs)
        assert all(r.location[1] not in np.linspace(box[2], box[3], 5) for recs in scans for r in recs)


def test_a_stack_of_one_reads_its_surface_directly(cusp25_model):
    """A stack of one hands its surface the very arrays it is given (no gather,
    no copy), and so does a stack read at one point."""
    seen = []

    def builder(u, v, degree):
        seen.append(u)
        return cusp25_model.jet(u, v, degree)

    S = sf.custom_surface(builder, u_range=cusp25_model.u_range, v_range=cusp25_model.v_range)
    u = np.array([0.1, 0.2])
    got = sg._Stack((S,), np.array([3, 3])).jet(u, u, 2)  # one member: the owner is not read
    assert seen[-1] is u
    assert all(g.c.tobytes() == w.c.tobytes() for g, w in zip(got, cusp25_model.jet(u, u, 2)))
    sg._Stack((cusp25_model, S), 1).jet(0.3, 0.1, 2)
    assert seen[-1] == 0.3


def test_a_stack_reads_each_point_on_its_member(cusp25_model, fold_model):
    """Points in any member order: each gets its member's jets (and analytic
    normal jets) at its own points, bit for bit."""
    rng = np.random.default_rng(4)
    u, v = rng.uniform(-0.5, 0.5, (2, 7))
    owner = np.array([1, 0, 2, 1, 2, 0, 1])
    for members, normal in ((tuple(_drawn_pushes(5, 3)), False), ((cusp25_model, fold_model, cusp25_model), True)):
        stack = sg._Stack(members, owner)
        got = (stack.analytic_normal_jet if normal else stack.jet)(u, v, 3)
        for m, T in enumerate(members):
            at = owner == m
            want = (T.analytic_normal_jet if normal else T.jet)(u[at], v[at], 3)
            assert all(g.c[at].tobytes() == w.c.tobytes() for g, w in zip(got, want))


def test_a_stack_of_models_with_and_without_analytic_normals_is_refused(
        cusp25_model, fold_model, cuspidal_edge_model):
    """The unpushed models mix analytic normals (cusp25, fold) and a frontal one
    (cuspidal_edge): the scan reads lambda differently on the two, so such a
    stack, like one of two domains, is refused with a ValueError that says why.
    The two models with analytic normals stack, and keep their verdicts."""
    from cmc_lab import cli

    mixed = [cusp25_model, fold_model, cuspidal_edge_model]
    recs = [trace_singular_curve(S, box=_DIFFEO_BOX, n_grid=5) for S in mixed]
    two_domains = [_MODELS["cuspidal_edge"], sf.custom_surface(_MODELS["cuspidal_edge"].builder)]
    for run in (lambda: trace_singular_curve(mixed, box=_DIFFEO_BOX, n_grid=5),
                lambda: criterion_25(mixed, recs),
                lambda: StraightChart(mixed, recs[0]),
                lambda: cli._verdicts(mixed, _DIFFEO_BOX),
                lambda: trace_singular_curve(two_domains, n_grid=5),
                lambda: trace_singular_curve([], n_grid=5)):
        with pytest.raises(ValueError, match="surfaces of one domain, all with an analytic normal or all without"):
            run()
    box = (-0.5, 0.5, -0.5, 0.5)
    assert cli._verdicts([cusp25_model, fold_model], box) == [cli.MODEL_VERDICTS[n] for n in ("cusp25", "fold")]


def test_records_read_on_another_member_of_a_stack_are_refused():
    """A record is read on its `owner` in a stack, which must be the member it
    was scanned on: a reordered stack and a subset of the stack raise a
    ValueError in the chart, the criterion and the fold test, before any jet
    is read.  A stack of one reads any record, and the scanning stack's own
    members, in a new list, read theirs."""
    pushes = _drawn_pushes(3, 3)
    scans = trace_singular_curve(pushes, box=_DIFFEO_BOX, n_grid=5)
    assert all(scans) and all(r.surface is P for P, recs in zip(pushes, scans) for r in recs)
    for stack, groups in ((pushes[::-1], scans), (pushes[1:], scans[1:])):
        for run in (lambda: StraightChart(stack, groups[0]),
                    lambda: StraightChart(stack, [r for recs in groups for r in recs]),
                    lambda: criterion_25(stack, groups),
                    lambda: fold_symmetry_test(stack, groups[0])):
            with pytest.raises(ValueError, match="a record is read on a stack member it was not scanned on"):
                run()
    alone = StraightChart(pushes[2], scans[0]).jets()  # a stack of one reads scans[0] on pushes[2]
    assert all(np.isfinite(y.c).all() for y in alone)
    # evaluated there, not read off the jets the records kept from pushes[0]
    bare = StraightChart(pushes[2], [dataclasses.replace(r) for r in scans[0]]).jets()
    assert [y.c.tobytes() for y in alone] == [y.c.tobytes() for y in bare]
    again = criterion_25(list(pushes), scans)
    assert [rep.verdict for rep in again] == [rep.verdict for rep in criterion_25(pushes, scans)]


def _raising(S, degrees, error):
    """S whose builder raises `error` at the listed jet degrees."""

    def builder(u, v, degree):
        if degree in degrees:
            raise error
        return S.jet(u, v, degree)

    return sf.custom_surface(builder, u_range=S.u_range, v_range=S.v_range)


def test_a_failing_stack_raises_what_the_per_member_loop_meets_first():
    """Member 1 raises at degree 5 (the scan's assembly, or the chart of
    records that carry no jets), member 2 already in the scan's first step
    (degree 1): the stack raises member 1's error, as the per-trial loop does;
    criterion_25 on a stack raises its first failing member's error too."""
    from cmc_lab import cli

    good = _drawn_pushes(3, 1)[0]
    fail_at = {5}
    chart_fails = _raising(good, fail_at, ArithmeticError("member 1: no degree-5 jet"))
    scan_fails = _raising(good, {1}, LookupError("member 2: no degree-1 jet"))
    stack = [good, chart_fails, scan_fails]
    with pytest.raises(ArithmeticError) as loop:
        for P in stack:
            cli._verdicts(P, _DIFFEO_BOX)
    with pytest.raises(ArithmeticError) as stacked:
        cli._verdicts(stack, _DIFFEO_BOX)
    assert str(stacked.value) == str(loop.value) == "member 1: no degree-5 jet"
    with pytest.raises(LookupError, match="member 2"):  # the scan alone meets member 2 first
        trace_singular_curve(stack, box=_DIFFEO_BOX, n_grid=5)
    with pytest.raises(ArithmeticError, match="member 1"):
        trace_singular_curve(stack[:2], box=_DIFFEO_BOX, n_grid=5)
    fail_at.clear()  # scanned whole, then charted from copies without jets
    scans = [[dataclasses.replace(r) for r in recs]
             for recs in trace_singular_curve(stack[:2], box=_DIFFEO_BOX, n_grid=5)]
    fail_at.add(5)
    with pytest.raises(ArithmeticError, match="member 1"):
        criterion_25(stack[:2], scans)
    with pytest.raises(ValueError, match="at least one singular sample"):  # after member 0's chart
        criterion_25(stack[:2], [scans[0], []])
    with pytest.raises(ArithmeticError, match="member 1"):  # met before member 2 has no records
        criterion_25(stack[:2] + [good], [*scans, []])


def test_diffeo_push_requires_invertible_linear_part(cusp25_model):
    with pytest.raises(ValueError, match="invertible"):
        diffeo_push(cusp25_model, np.zeros((3, 3)))


# -- the scan's kept jets -------------------------------------------------------


def _reference_assembly(members, q, owner) -> list:
    """The former `_assemble_records`: one batched degree-2 evaluation
    (`_reference_frontal_at`), records that keep no jets."""
    X, n, defined, lam, dlam = _reference_frontal_at(sg._Stack(members, owner), q[:, 0], q[:, 1])
    _, sv, Vt = np.linalg.svd(sg._dX_of(X))
    gate = sg.ROOT_GATE * sg.ROOT_TOL * np.maximum(sg._norm(dlam), 1.0)
    rank = np.where(sv[:, 0] <= 1e-13, 0, np.where(sv[:, 0] * sv[:, 1] > gate, 2, 1))
    degenerate = (rank == 0) | ~defined
    confirmed = np.abs(lam) <= gate
    records = []
    for b, (loc, m) in enumerate(zip(map(tuple, q.tolist()), owner.tolist())):
        if degenerate[b]:
            records.append(sg.SingularPointRecord(loc, 0.0, (0.0, 0.0), None, "degenerate_rank0", 0,
                                                  owner=m, surface=members[m]))
        elif not confirmed[b]:
            records.append(None)
        else:
            records.append(sg.SingularPointRecord(
                loc, float(lam[b]), tuple(dlam[b].tolist()),
                tuple(Vt[b, 1].tolist()) if rank[b] == 1 else None, "other", int(rank[b]),
                normal=tuple(n[b].tolist()), owner=m, surface=members[m]))
    return records


_K_ABOVE = st.floats(-0.9, 6.0).filter(lambda k: abs(k - 1.0) > 0.05)  # k > -1
_K_BELOW = st.floats(-8.0, -1.1)  # k < -1


@st.composite
def _kept_jet_surfaces(draw, pushes=True):
    """(surface or list of stack members, box) with k and H drawn per branch:
    the four Delaunay families, the conjugates on every template and branch
    (T, S and L of either axis, III-i, III-ii; the timelike axis at k > -1
    with its analytic normal), the standard models (fold and cusp25 with
    theirs), and stacks of delaunay-t of one H and of cusp25 with fold; with
    `pushes`, a pushed model and a stack of them too."""
    H = draw(st.floats(0.3, 1.5))
    kind = draw(st.sampled_from(["delaunay_timelike", "delaunay_spacelike", "lightlike", "conjugate",
                                 "conjugate_lightlike", "model", "stack_t", "stack_models"]
                                + ["push", "stack_push"] * pushes))
    if kind in ("delaunay_timelike", "delaunay_spacelike"):
        return getattr(sf, kind)(draw(st.one_of(_K_ABOVE, _K_BELOW, st.just(-1.0))), H), None
    if kind == "lightlike":
        return sf.delaunay_lightlike(draw(st.sampled_from(["i", "ii"])), H), None
    if kind == "conjugate":
        family = draw(st.sampled_from(["delaunay_timelike", "delaunay_spacelike"]))
        return sf.conjugate_of(family, k=draw(st.one_of(_K_ABOVE, _K_BELOW, st.just(-1.0))), H=H), None
    if kind == "conjugate_lightlike":
        variant = draw(st.sampled_from(["i", "ii"]))
        return sf.conjugate_of(f"delaunay_lightlike_{variant}", H=H, variant=variant), None
    if kind == "model":
        return sf.standard_model(draw(st.sampled_from(["fold", "cuspidal_edge", "cusp25", "cone"]))), \
            (-1.0, 1.0, -1.0, 1.0)
    if kind == "push":
        return _drawn_pushes(draw(st.integers(0, 2**32 - 1)), 1)[0], _DIFFEO_BOX
    if kind == "stack_t":
        return [sf.delaunay_timelike(k, H) for k in draw(st.lists(_K_ABOVE, min_size=2, max_size=3))], None
    if kind == "stack_push":
        return _drawn_pushes(draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 3))), _DIFFEO_BOX
    return [sf.standard_model("cusp25"), sf.standard_model("fold")], (-1.0, 1.0, -1.0, 1.0)


@given(_kept_jet_surfaces(pushes=False), st.data())
@settings(max_examples=150, deadline=None)
@example((sf.delaunay_timelike(2.3, 0.5), None), None)
@example(([sf.standard_model("cusp25"), sf.standard_model("fold")], None), None)
def test_degree5_jets_truncated_are_the_lower_degree_jets(case, data):
    """The coefficients of total degree <= d of a degree-5 evaluation are the
    degree-d evaluation to the bit, for d = 0-4 (the analytic normal: its
    degree-4 jets to d = 0-3), at a batch of points and at one point; the
    assembly reads rank, normal, lambda and dlambda off them.  Pushed
    surfaces are left out: diffeo_push contracts its monomials in one BLAS
    product, whose roundings depend on the degree."""
    S, _ = case
    members = sg._members(S)
    (ulo, uhi), (vlo, vhi) = members[0].u_range, members[0].v_range
    if data is None:
        fractions = [(0.2, 0.3), (0.6, 0.9), (0.85, 0.1), (0.5, 0.5)]
    else:
        fractions = data.draw(st.lists(st.tuples(st.floats(0.02, 0.98), st.floats(0.0, 1.0)),
                                       min_size=1, max_size=5))
    u, v = np.array([(ulo + a * (uhi - ulo), vlo + b * (vhi - vlo)) for a, b in fractions]).T
    stack = sg._Stack(members, np.arange(len(u)) % len(members))
    at_one = stack.at(0) if len(members) > 1 else stack
    for name, top in (("jet", jt.MAX_DEGREE), ("analytic_normal_jet", jt.MAX_DEGREE - 1)):
        if name == "analytic_normal_jet" and not stack.has_analytic_normal:
            continue
        for T, p, q in ((stack, u, v), (at_one, float(u[0]), float(v[0]))):
            high = getattr(T, name)(p, q, top)
            for d in range(top):
                for x, y in zip(high, getattr(T, name)(p, q, d)):
                    assert x.truncated(d).c.tobytes() == y.c.tobytes(), (name, d)


def _outcome(run):
    """repr of what run() returns, or the type and message of what it raises."""
    try:
        return repr(run())
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"


def _chart_bytes(S, recs):
    return [y.c.tobytes() for y in StraightChart(S, recs).jets()]


@given(_kept_jet_surfaces(), st.integers(5, 21))
@settings(max_examples=100, deadline=None)
@example((sf.conjugate_of("delaunay_timelike", k=2.0, H=0.5), None), 21)
@example((sf.delaunay_timelike(2.0, 0.5), None), 9)
@example(([sf.delaunay_timelike(k, 0.7) for k in (2.0, -0.5, 4.0)], None), 12)
def test_the_scan_assembles_the_reference_records_and_reads_their_jets(case, n_grid):
    """The scan's records are those of the former degree-2 assembly (whose
    records carry no jets, so their kinds come from an evaluation): in
    location, lambda, dlambda, null vector, normal, rank, kind and
    unconfirmed_roots.  The chart, criterion, kinds and fold reports read off
    the kept jets are those of copies stripped of them, to the bit.  Pushed
    surfaces take the second part only: their degree-2 jets are the degree-5
    jets' to roundoff, not to the bit (see the truncation property)."""
    S, box = case
    scans = trace_singular_curve(S, box=box, n_grid=n_grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg, "_assemble_records", _reference_assembly)
        refs = trace_singular_curve(S, box=box, n_grid=n_grid)
    groups, ref_groups = ([scans], [refs]) if isinstance(S, sf.Surface) else (scans, refs)
    pushed = "pushed_from" in sg._members(S)[0].meta
    stripped = [[dataclasses.replace(r) for r in recs] for recs in groups]
    for recs, ref, bare in zip(groups, ref_groups, stripped):
        if not pushed:
            assert list(recs) == list(ref) and recs.unconfirmed_roots == ref.unconfirmed_roots
        assert all(r.jets is not None for r in recs) and all(r.jets is None for r in ref + bare)
        rank1 = [n for n, r in enumerate(recs) if r.rank == 1]
        assert sg._kinds(S, [recs[n] for n in rank1]) == sg._kinds(S, [bare[n] for n in rank1])
        first = [n for n, r in enumerate(recs) if r.kind == "first_kind"]
        if first:  # the scan's records, the copies, and the two alternating
            mixed = [(bare if n % 2 else recs)[n] for n in first]
            charts = {_outcome(lambda: _chart_bytes(S, rows)) for rows in
                      ([recs[n] for n in first], [bare[n] for n in first], mixed)}
            assert len(charts) == 1
        assert _outcome(lambda: [f.as_dict() for f in fold_symmetry_test(S, recs)]) == \
            _outcome(lambda: [f.as_dict() for f in fold_symmetry_test(S, bare)])
    if all(groups):
        def criterion(gs):
            reports = criterion_25(S, gs[0] if isinstance(S, sf.Surface) else gs)
            reports = [reports] if isinstance(S, sf.Surface) else reports
            return [(rep.as_dict(), None if rep.jets is None else [y.c.tobytes() for y in rep.jets])
                    for rep in reports]

        assert _outcome(lambda: criterion(groups)) == _outcome(lambda: criterion(stripped))


def _former_curves(g, records):
    """The curves of `_curve_jets` as the former loop solved them: each step
    composes g and gamma at the full degree 4."""
    p, dlam = (np.array([getattr(r, k) for r in records], float) for k in ("location", "dlam"))
    T, tang = dlam / sg._norm(dlam)[:, None], sg._curve_direction(dlam)
    gT = np.vecdot(g.gradient(), T)
    deg = jt.MAX_DEGREE - 1
    lin = np.eye(deg + 1)[1]

    def curve_coeffs(phi):
        c = tang[..., None] * lin + T[..., None] * phi[..., None, :]
        c[..., 0] += p
        return jt.Jet1(np.zeros(len(p)), deg, c[..., 0, :]), jt.Jet1(np.zeros(len(p)), deg, c[..., 1, :])

    phi = np.zeros((len(p), deg + 1))
    for m in range(2, deg + 1):
        G = jt.compose2(g, *curve_coeffs(phi))
        phi[..., m] -= G.c[..., m] / gT
    return curve_coeffs(phi)


@given(_kept_jet_surfaces(), st.integers(5, 21))
@settings(max_examples=60, deadline=None)
@example((sf.conjugate_of("delaunay_timelike", k=2.0, H=0.5), None), 21)
@example((sf.delaunay_lightlike("ii", 0.5), None), 13)
def test_the_curve_solve_at_rising_degree_is_the_former_loop(case, n_grid):
    """_curve_jets composes g and gamma to degree m for order m of phi: the
    curves are the former full-degree loop's to the bit, on the scan's rank-1
    records and on copies without jets."""
    S, box = case
    scans = trace_singular_curve(S, box=box, n_grid=n_grid)
    recs = [r for recs in ([scans] if isinstance(S, sf.Surface) else scans) for r in recs if r.rank == 1]
    assume(recs)
    for rows in (recs, [dataclasses.replace(r) for r in recs]):
        try:
            _, g, curve, _ = sg._curve_jets(S, rows)
        except (sg.DegenerateZeroSetError, NormalUndefinedError):
            continue
        for c, ref in zip(curve, _former_curves(g, rows)):
            assert c.c.tobytes() == ref.c.tobytes()


# -- reports -----------------------------------------------------------------------


def test_classification_report_shape(conj_k2, conj_k2_records):
    rep = criterion_25(conj_k2, conj_k2_records[:3])
    doc = classification_report(conj_k2, conj_k2_records[:3], rep, certificates=[{"x": 1}])
    assert doc["surface"] == conj_k2.family
    assert doc["conelike_definition"] == "jet: X o gamma has v-coefficients 1-4 at most 1e-08 |dX|"
    assert len(doc["samples"]) == 3
    assert doc["criterion"]["verdict"] == "cusp25"
    import json

    json.dumps(doc)  # must be JSON-serializable


def test_sweep_csv_flattening():
    rows = [{"k": 2.0, "H": 0.5, "verdict": "cusp25", "cond4_det": "-288.0"}]
    text = sweep_rows_to_csv(rows)
    assert text.splitlines()[0] == "k,H,verdict,cond4_det"
    assert "-288.0" in text
