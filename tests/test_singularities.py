import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cmc_lab import jets as jt
from cmc_lab import quadrature
from cmc_lab import representation as rp
from cmc_lab import singularities as sg
from cmc_lab import surfaces as sf
from cmc_lab.jets import Jet2, VectorFieldJet
from cmc_lab.lorentz import NotSpacelikeError
from cmc_lab.singularities import (
    HypothesisViolationError,
    NormalUndefinedError,
    StraightChart,
    classify_kind,
    classification_report,
    cmc_fold_obstruction,
    condition3_det,
    condition4_det,
    constant_C,
    criterion_25,
    diffeo_push,
    euclidean_normal,
    fold_symmetry_test,
    perturb_fields,
    signed_area_density,
    special_null_field,
    sweep_rows_to_csv,
    trace_singular_curve,
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


def test_normal_on_fold_from_cross_product_jet():
    S = _custom_fold()
    n = euclidean_normal(S, (0.4, 0.0))
    assert np.allclose(np.abs(n), [0, 0, 1], atol=1e-12)


def test_normal_on_cusp25_at_singular_point(cusp25_model):
    n = euclidean_normal(cusp25_model, (0.3, 0.0))
    assert np.allclose(n, [0, 0, 1], atol=1e-12)


def test_normal_at_cone_vertex_defined(cone_model):
    n = euclidean_normal(cone_model, (0.5, 0.0))
    expect = np.array([math.cos(0.5), math.sin(0.5), -1.0]) / math.sqrt(2)
    assert np.allclose(np.abs(n), np.abs(expect), atol=1e-10)


def test_normal_rank0_error():
    with pytest.raises(NormalUndefinedError, match="rank 0"):
        euclidean_normal(_rank0_model(), (0.0, 0.0))


def test_signed_area_density_fold(fold_model):
    assert abs(signed_area_density(fold_model, (0.3, 0.25)) - 0.5) < 1e-14
    assert abs(signed_area_density(fold_model, (0.0, -0.1)) + 0.2) < 1e-14


def test_signed_area_density_conjugate_closed_form(conj_k2):
    lam = signed_area_density(conj_k2, (1.0, 0.3))
    delta1 = (1 + 3) ** 2 - 8
    expect = 1.0 * math.sqrt(delta1 - 3) / (0.5 * math.sqrt(3) * math.sqrt(delta1))
    assert abs(lam - expect) < 1e-9
    assert abs(expect - math.sqrt(5 / 6)) < 1e-15


def test_signed_area_density_positive_at_regular_immersion(delaunay_t_k2):
    assert signed_area_density(delaunay_t_k2, (0.8, 0.5)) > 0


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
    _, sv, Vt = np.linalg.svd(sg._dX(S, q))
    rank = 0 if sv[0] <= 1e-13 else 2 if sv[1] > sg.RANK_TOL * sv[0] else 1
    if S.has_analytic_normal:
        n = np.array([c.value for c in S.analytic_normal_jet(q[0], q[1], 0)])
    else:  # the frontal normal of the cross product's scalar jet
        n, defined = sg._frontal_normal(sg._cross_jets(S.jet(q[0], q[1], 2)))
        assert defined
    lj = sg._lambda_jet(S, q, 2, normal=n)
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
        assert classify_kind(S, rec) == rec.kind


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
        roots = sg._bracketed_roots(None, a, b, g(a[:, 0] - r), g(b[:, 0] - r), None)
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
        r = jt.exp(uj)
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
    assert all(classify_kind(S, r) == "other" for r in recs)


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
    assert classify_kind(fold_model, recs[0]) == "first_kind"


def test_classify_cone_model(cone_model):
    recs = trace_singular_curve(cone_model, box=(-1, 1, -1, 1), n_grid=7)
    assert recs and all(r.kind == "conelike" for r in recs)


def test_rank_deficiency_at_traced_roots(conj_k2_records, conj_k2):
    for rec in conj_k2_records[:5]:
        M = sg._dX(conj_k2, rec.location)
        sv = np.linalg.svd(M, compute_uv=False)
        assert sv[1] < 1e-7 * sv[0]


# -- special field, C, criterion ---------------------------------------------------


def test_special_null_field_cusp25(cusp25_model):
    recs = trace_singular_curve(cusp25_model, box=(-1, 1, -1, 1), n_grid=5)
    (a, b), eta, res = special_null_field(cusp25_model, recs[0])
    assert abs(a) < 1e-12 and abs(b) < 1e-12
    assert max(res) < 1e-12


def test_special_null_field_conjugate(conj_k2, conj_k2_records):
    (a, b), eta, res = special_null_field(conj_k2, conj_k2_records[0])
    assert abs(a) < 1e-9
    assert abs(b - 2.0) < 1e-7  # 1/(H(k-1)|k-1|) at k=2, H=1/2
    assert max(res) < 1e-8


def test_special_null_field_fold(fold_model):
    recs = trace_singular_curve(fold_model, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)
    (a, b), _, res = special_null_field(fold_model, recs[0])
    assert abs(a) < 1e-12 and abs(b) < 1e-12 and max(res) < 1e-12


def test_constant_C_cusp25(cusp25_model):
    recs = trace_singular_curve(cusp25_model, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)
    chart = StraightChart(cusp25_model, recs[0])
    Y = chart.jets()
    (a, b), eta, _ = special_null_field(cusp25_model, recs[0])
    C, res = constant_C(Y, eta)
    assert C == 0.0 and res == 0.0


def test_constant_C_conjugate(conj_k2, conj_k2_records):
    chart = StraightChart(conj_k2, conj_k2_records[0])
    Y = chart.jets()
    (a, b), eta, _ = special_null_field(conj_k2, conj_k2_records[0])
    C, res = constant_C(Y, eta)
    assert abs(C) < 1e-8 and res < 1e-8


def test_constant_C_flags_collinearity_failure(cuspidal_edge_model):
    # with eta~ = d_v on (u, v^2, v^3): eta^2 X = (0,2,0), eta^3 X = (0,0,6)
    recs = trace_singular_curve(cuspidal_edge_model, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)
    chart = StraightChart(cuspidal_edge_model, recs[0])
    Y = chart.jets()
    eta = VectorFieldJet.constant(1.0, 0.0, (0.0, 0.0))
    C, res = constant_C(Y, eta)
    assert abs(C) < 1e-12
    assert abs(res - 3.0) < 1e-12  # |(0,0,6)| / |(0,2,0)|


def test_constant_C_hypothesis_violation(fold_model):
    recs = trace_singular_curve(fold_model, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)
    chart = StraightChart(fold_model, recs[0])
    Y = chart.jets()
    bad = VectorFieldJet.constant(0.0, 1.0, (0.0, 0.0))  # along-curve field: eta^2 X = 0
    with pytest.raises(HypothesisViolationError, match="eta~\\^2 X vanishes"):
        constant_C(Y, bad)


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
        g = sg._density(sg._cross_jets(X), N)
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
        eta_u, eta_v = -sg._density(Xv_c, e), sg._density(Xu_c, e)
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
def test_criterion_makes_one_degree5_jet_call(conj_k2, n_grid, monkeypatch):
    recs = trace_singular_curve(conj_k2, n_grid=n_grid)
    assert len(recs) > 1
    degrees = []
    jet = sf.Surface.jet
    monkeypatch.setattr(sf.Surface, "jet",
                        lambda S, u, v, degree=jt.MAX_DEGREE: degrees.append(degree) or jet(S, u, v, degree))
    assert criterion_25(conj_k2, recs).verdict == "cusp25"
    assert degrees.count(jt.MAX_DEGREE) == 1


def test_criterion_builds_one_chain_per_field(conj_k2, conj_k2_records, monkeypatch):
    """On the batch of all samples: the plain field's chain to order 3 and the
    special field's to order 5, three jets each (24 field applications however
    many samples; 84 per sample with one iterated_field_derivative call per
    order)."""
    calls = []
    apply = jt.apply_vector_field
    monkeypatch.setattr(jt, "apply_vector_field", lambda f, j: calls.append(1) or apply(f, j))
    rep = criterion_25(conj_k2, conj_k2_records)
    assert len(rep.samples) > 1 and len(calls) == 24


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
    """_fold_symmetry_of of one record's scalar chart jets Y, as it was run one
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
    _assert_fold_tests_match_the_reference(sg._fold_symmetry_of(criterion_25(S, recs).jets), S, recs)
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


def _reference_certificate(S, record, offset=1e-4, flank=0.5):
    """cmc_fold_obstruction of one record as it was run one record at a time
    (scalar Gauss-map calls, a flank point off the spacelike set skipped):
    the reference of the batched certificates."""
    if record.rank == 0:
        return {"conclusion": "rank-0 regime (omega = 0): no certificate",
                "regime": "omega_zero_rank0"}
    p = np.asarray(record.location, float)
    dlam = np.asarray(record.dlam, float)
    T = dlam / np.linalg.norm(dlam)

    def g_at(q):
        return complex(rp.gauss_map_of(S, tuple(q)))

    sides = {}
    for name, sgn in (("plus", 1.0), ("minus", -1.0)):
        ys = [abs(g_at(p + x * (sgn * T))) for x in (offset, offset / 2, offset / 4)]
        limit = (8 * ys[2] - 6 * ys[1] + ys[0]) / 3.0
        sides[name] = {"samples": ys, "limit_abs_g": limit, "abs_g_minus_1": abs(limit - 1.0),
                       "sign_abs_g_minus_1": float(np.sign(ys[0] - 1.0))}
    flip = sides["plus"]["sign_abs_g_minus_1"] * sides["minus"]["sign_abs_g_minus_1"] < 0
    h = offset
    tang = sg._curve_direction(dlam)
    dg = math.hypot(abs(g_at(p + h * T) - g_at(p - h * T)) / (2 * h),
                    abs(g_at(p + h * T + h * tang) - g_at(p + h * T - h * tang)) / (2 * h))
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


CERTIFIED_FAMILIES = {"delaunay-t k=2": lambda: sf.delaunay_timelike(2.0, 0.5),
                      "delaunay-s k=-2": lambda: sf.delaunay_spacelike(-2.0, 0.5)}


def _certified_records(S):
    recs = [r for r in trace_singular_curve(S, n_grid=5) if r.rank == 1]
    assert recs
    return recs


@pytest.mark.parametrize("name", sorted(CERTIFIED_FAMILIES))
def test_fold_certificates_integrate_no_profile_value(monkeypatch, name):
    # |g| and the Laplace identity read only X_u and X_v
    S = CERTIFIED_FAMILIES[name]()
    recs = _certified_records(S)
    calls = []  # the intervals entering the quadrature kernel
    kernel = quadrature._adaptive
    monkeypatch.setattr(quadrature, "_adaptive", lambda f, ends, *a: calls.extend(ends) or kernel(f, ends, *a))
    cmc_fold_obstruction(S, recs)
    assert calls == []
    # a full surface jet at a radius not read before integrates its profile value
    S.jet(0.3 * S.u_range[1], 0.0, 2)
    assert calls


@pytest.mark.parametrize("name", sorted(CERTIFIED_FAMILIES))
def test_fold_certificates_equal_those_from_full_surface_jets(monkeypatch, name):
    S, S_full = CERTIFIED_FAMILIES[name](), CERTIFIED_FAMILIES[name]()
    recs = _certified_records(S)
    certificates = cmc_fold_obstruction(S, recs)
    # the tangents of full surface jets, every profile value integrated
    monkeypatch.setattr(rp, "_tangents", lambda S, r, t, degree: rp._frame(S.jet(r, t, degree)))
    assert certificates == cmc_fold_obstruction(S_full, recs)


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


def test_identity_perturbation_changes_nothing(cusp25_model):
    recs = trace_singular_curve(cusp25_model, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)
    chart = StraightChart(cusp25_model, recs[0])
    Y = chart.jets()
    base = (0.0, 0.0)
    xi = VectorFieldJet.constant(0.0, 1.0, base)
    (a, b), eta, _ = special_null_field(cusp25_model, recs[0])
    one = Jet2.constant(1.0, base)
    zero = Jet2.constant(0.0, base)
    xib, etab, pred = perturb_fields(xi, eta, one, zero, zero, one, special=True)
    assert pred == 1.0
    C0, _ = constant_C(Y, eta)
    Cb, _ = constant_C(Y, etab)
    d0, _ = condition4_det(Y, eta, C0)
    db, _ = condition4_det(Y, etab, Cb, xi=xib)
    assert db == d0


def test_b2_scaling_example(cusp25_model):
    # b2 = 2, a1 = 1: condition-4 determinant multiplies by 2^7 = 128
    recs = trace_singular_curve(cusp25_model, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)
    chart = StraightChart(cusp25_model, recs[0])
    Y = chart.jets()
    base = (0.0, 0.0)
    xi = VectorFieldJet.constant(0.0, 1.0, base)
    (_, _), eta, _ = special_null_field(cusp25_model, recs[0])
    one = Jet2.constant(1.0, base)
    zero = Jet2.constant(0.0, base)
    two = Jet2.constant(2.0, base)
    xib, etab, pred = perturb_fields(xi, eta, one, zero, zero, two, special=True)
    assert pred == 128.0
    Cb, _ = constant_C(Y, etab)
    db, _ = condition4_det(Y, etab, Cb, xi=xib)
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
        (a, b), eta0, _ = special_null_field(S, rec)
        C0, _ = constant_C(Y, eta0)
        d4_0, _ = condition4_det(Y, eta0, C0)
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
            Cb, _ = constant_C(Y, etas)
            d4b, _ = condition4_det(Y, etas, Cb, xi=xis)
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


def test_diffeo_push_requires_invertible_linear_part(cusp25_model):
    with pytest.raises(ValueError, match="invertible"):
        diffeo_push(cusp25_model, np.zeros((3, 3)))


# -- reports -----------------------------------------------------------------------


def test_classification_report_shape(conj_k2, conj_k2_records):
    rep = criterion_25(conj_k2, conj_k2_records[:3])
    doc = classification_report(conj_k2, conj_k2_records[:3], rep, certificates=[{"x": 1}])
    assert doc["surface"] == conj_k2.family
    assert doc["conelike_definition"] == "operational"
    assert len(doc["samples"]) == 3
    assert doc["criterion"]["verdict"] == "cusp25"
    import json

    json.dumps(doc)  # must be JSON-serializable


def test_sweep_csv_flattening():
    rows = [{"k": 2.0, "H": 0.5, "verdict": "cusp25", "cond4_det": "-288.0"}]
    text = sweep_rows_to_csv(rows)
    assert text.splitlines()[0] == "k,H,verdict,cond4_det"
    assert "-288.0" in text
