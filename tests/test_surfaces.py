import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cmc_lab import jets as jt
from cmc_lab import surfaces as sf
from cmc_lab.cli import main
from cmc_lab.jets import Jet1, Jet2, JetDomainError
from cmc_lab.lorentz import lorentz_inner
from cmc_lab.quadrature import integrate
from cmc_lab.surfaces import (
    MeshEvaluationError,
    NotSpacelikeError,
    SurfaceDomainError,
    SurfaceParameterError,
    conjugate_of,
    delaunay_lightlike,
    delaunay_spacelike,
    delaunay_timelike,
    fundamental_forms,
    mesh_export,
    standard_model,
)


def test_timelike_axis_passes_through_origin(delaunay_t_k2):
    for t in (0.0, 0.7, 2.0):
        assert np.allclose(delaunay_t_k2.point(0.0, t), 0.0, atol=1e-14)


def test_timelike_radial_derivative_at_origin(delaunay_t_k2):
    X = delaunay_t_k2.jet(0.0, 0.0, 1)
    assert np.allclose([c.du().value for c in X], [1, 1, 0], atol=1e-12)


def test_timelike_delta_at_zero():
    delta = delaunay_timelike(2.0, 0.5).meta["delta"]
    assert delta(0.0) == 1.0  # (0 + 3)^2 - 8


def test_timelike_fundamental_forms(delaunay_t_k2):
    ff = fundamental_forms(delaunay_t_k2, (1.0, 0.3))
    delta1 = delaunay_t_k2.meta["delta"](1.0)
    assert abs(ff.E - 1.0 / (0.25 * delta1)) < 1e-9
    assert abs(ff.F) < 1e-12
    assert abs(ff.G - 1.0) < 1e-10
    assert abs(ff.H_mean - 0.5) < 1e-8
    assert abs(lorentz_inner(ff.nu.point, ff.nu.point) + 1) < 1e-12


def test_spacelike_delta_positive_for_k_minus_one():
    S = delaunay_spacelike(-1.0, 0.5)
    delta = S.meta["delta"]
    rr = np.linspace(-2, 2, 41)
    assert all(math.isclose(delta(r), r**4 + 4, rel_tol=1e-15) for r in rr)
    assert np.allclose(S.point(0.0, 0.9), 0.0, atol=1e-14)


def test_spacelike_delta_at_zero_k2():
    S = delaunay_spacelike(2.0, 1.0)
    assert S.meta["delta"](0.0) == 1.0  # 9 - 8
    # admissible interval ends at the first zero of delta: |r| < sqrt(2) - 1
    assert abs(S.u_range[1] - (math.sqrt(2) - 1)) < 1e-6


def test_lightlike_zeta_values(lightlike_i):
    zeta = lightlike_i.meta["zeta"]
    assert zeta(0.0) == 0.0
    assert abs(zeta(1.0) - 0.5 * (-0.5 + math.pi / 4)) < 1e-14


def test_lightlike_slice_at_t_zero(lightlike_i):
    z = lightlike_i.meta["zeta"](0.8)
    assert np.allclose(lightlike_i.point(0.8, 0.0), [z - 0.8, 0.0, z + 0.8])
    for t in (0.0, 0.6, 1.7):
        assert np.allclose(lightlike_i.point(0.0, t), 0.0, atol=1e-14)


def test_lightlike_variant_ii_domain(lightlike_ii):
    assert lightlike_ii.u_range[1] < 1.0
    with pytest.raises(SurfaceDomainError):
        lightlike_ii.point(1.2, 0.0)


def test_every_family_has_constant_mean_curvature():
    surfaces = [
        delaunay_timelike(2.0, 0.5),
        delaunay_timelike(0.5, 0.5),
        delaunay_spacelike(-1.0, 0.5),
        delaunay_spacelike(2.0, 1.0),
        delaunay_lightlike("i", 0.5),
        delaunay_lightlike("ii", 0.5),
        conjugate_of("delaunay_timelike", k=2.0, H=0.5),
        conjugate_of("delaunay_timelike", k=-1.0, H=0.5),
        conjugate_of("delaunay_timelike", k=-2.0, H=0.5),
        conjugate_of("delaunay_spacelike", k=2.0, H=0.5),
        conjugate_of("delaunay_spacelike", k=-3.0, H=1.0),
        conjugate_of("delaunay_lightlike_i", H=0.5),
        conjugate_of("delaunay_lightlike_ii", H=0.5),
    ]
    for S in surfaces:
        hi = S.u_range[1]
        for fr in (0.35, 0.6, 0.85):
            for t in (0.2, 0.9):
                try:
                    ff = fundamental_forms(S, (fr * hi, t))
                except (NotSpacelikeError, SurfaceDomainError):
                    continue
                assert abs(ff.H_mean - S.H) < 1e-7, (S.family, S.k, fr * hi, t, ff.H_mean)


def test_constant_mean_curvature_on_dense_grid(lightlike_i):
    # 20x20 regular-point grid on the (closed-form) lightlike-axis surface
    S = lightlike_i
    for r in np.linspace(0.1, 0.95 * S.u_range[1], 20):
        for t in np.linspace(*S.v_range, 20):
            ff = fundamental_forms(S, (float(r), float(t)))
            assert abs(ff.H_mean - 0.5) < 1e-7


def test_conjugate_Ii_metadata(conj_k2):
    assert conj_k2.meta["branch"] == "I-i"
    assert conj_k2.meta["template"] == "T"
    assert abs(conj_k2.meta["h"] - (-1 / 3)) < 1e-14  # (1-2)/(2*(1/2)*3)
    assert abs(conj_k2.meta["rho0"] - 1 / 3) < 1e-14  # sqrt(Delta(0))/(2H(k+1))


def test_conjugate_Iii_lightlike_template():
    C = conjugate_of("delaunay_timelike", k=-1.0, H=0.5)
    assert C.meta["branch"] == "I-ii" and C.meta["template"] == "L"
    assert C.meta["h"] == 0.5  # h = H
    rj = C.jet(0.8, 0.0, 0)
    # rho(r) = r/2 enters the template; check a point value stays finite/sane
    assert np.isfinite([c.value for c in rj]).all()


def test_conjugate_branch_dispatch():
    assert conjugate_of("delaunay_timelike", k=-2.0, H=0.5).meta["template"] == "S"
    assert conjugate_of("delaunay_spacelike", k=2.0, H=0.5).meta["template"] == "S"
    assert conjugate_of("delaunay_spacelike", k=-2.0, H=0.5).meta["template"] == "T"
    c3i = conjugate_of("delaunay_lightlike_i", H=0.5)
    assert c3i.meta["template"] == "T" and c3i.meta["h"] == -1.0
    c3ii = conjugate_of("delaunay_lightlike_ii", H=0.5)
    assert c3ii.meta["template"] == "S" and c3ii.meta["h"] == 1.0
    assert c3ii.u_range[1] < 1 / math.sqrt(2)


def test_conjugate_refuses_k_whose_profile_jets_overflow():
    """The S template's sinh and cosh of phi_t t leave the float range at t = +-1.5
    from |k + 1| = 2 (COSH_MAX_ARG / 1.5)^2 on; the profile integrands' factor
    max(H, 1) |k - 1|^3 is refused with a factor 2 of headroom."""
    kb = 2.0 * (sf.COSH_MAX_ARG / 1.5) ** 2
    for family, k in (("delaunay_spacelike", kb * (1 + 1e-12) - 1.0),
                      ("delaunay_timelike", -kb * (1 + 1e-12) - 1.0)):
        with pytest.raises(sf.SurfaceParameterError, match="sinh and cosh") as e:
            conjugate_of(family, k=k, H=0.5)
        assert e.value.param == "k"
    with pytest.raises(sf.SurfaceParameterError, match="could not orient"):  # just below: no overflow
        conjugate_of("delaunay_spacelike", k=kb * (1 - 1e-9) - 1.0, H=0.5)
    kc = (sys.float_info.max / 2.0) ** (1 / 3)
    for k, H in ((1.01 * kc, 0.5), (-1.01 * kc, 0.5), (0.99 * kc, 2.0)):
        with pytest.raises(sf.SurfaceParameterError, match=r"\|k - 1\|\^3") as e:
            conjugate_of("delaunay_timelike", k=k, H=H)
        assert e.value.param == ("k", "H")
    # the T template just below the bound builds (an overflow would raise here)
    assert conjugate_of("delaunay_spacelike", k=-0.99 * kc, H=0.5).meta["template"] == "T"


def test_conjugate_isometry_at_half(delaunay_t_k2, conj_k2):
    for r in (0.4, 1.0, 1.6):
        for t in (0.2, 1.1):
            f1 = fundamental_forms(delaunay_t_k2, (r, t))
            f2 = fundamental_forms(conj_k2, (r, t))
            assert abs(f1.E - f2.E) + abs(f1.F - f2.F) + abs(f1.G - f2.G) < 1e-7


def test_conjugate_analytic_normal_is_unit_and_orthogonal(conj_k2):
    n = np.array([c.value for c in conj_k2.analytic_normal_jet(1.0, 0.3, 1)])
    X = conj_k2.jet(1.0, 0.3, 1)
    Xu = np.array([c.du().value for c in X])
    Xv = np.array([c.dv().value for c in X])
    assert abs(np.linalg.norm(n) - 1) < 1e-12
    assert abs(n @ Xu) < 1e-12 and abs(n @ Xv) < 1e-12


def test_standard_models():
    assert np.allclose(standard_model("cusp25").point(1.0, 2.0), [1, 4, 32])
    assert np.allclose(standard_model("fold").point(3.0, -1.0), [3, 1, 0])
    cone = standard_model("cone")
    for u in (0.0, 0.5, 2.0):
        assert np.allclose(cone.point(u, 0.0), 0.0)
    with pytest.raises(SurfaceParameterError):
        standard_model("swallowtail")


def test_fold_is_never_spacelike(fold_model):
    for p in ((0.5, 0.7), (0.1, -0.2), (1.0, 0.0)):
        with pytest.raises(NotSpacelikeError, match="not a spacelike regular point"):
            fundamental_forms(fold_model, p)


def test_constructor_parameter_validation():
    with pytest.raises(SurfaceParameterError, match="k=1 degenerate"):
        delaunay_timelike(1.0, 0.5)
    with pytest.raises(SurfaceParameterError):
        delaunay_spacelike(1.0, 0.5)
    with pytest.raises(SurfaceParameterError, match="H = 0"):
        delaunay_timelike(2.0, 0.0)
    with pytest.raises(SurfaceParameterError):
        delaunay_lightlike("iii", 0.5)
    with pytest.raises(SurfaceParameterError):
        conjugate_of("model_fold")


def test_jet_value_matches_point_evaluation(delaunay_t_k2, conj_k2):
    for S in (delaunay_t_k2, conj_k2):
        for p in ((0.5, 0.3), (1.2, 1.0)):
            jets = S.jet(*p, 5)
            assert np.allclose([c.value for c in jets], S.point(*p), atol=1e-11)


def _richardson(fn, x, h=1e-3):
    d1 = (fn(x + h) - fn(x - h)) / (2 * h)
    d2 = (fn(x + h / 2) - fn(x - h / 2)) / h
    return (4 * d2 - d1) / 3


def test_jet_derivatives_match_finite_differences(delaunay_t_k2, conj_k2, lightlike_i):
    for S in (delaunay_t_k2, conj_k2, lightlike_i):
        X = S.jet(0.7, 0.4, 1)
        for i in range(3):
            fd = _richardson(lambda r: S.point(r, 0.4)[i], 0.7)
            jv = X[i].du().value
            assert abs(fd - jv) < 1e-7 * max(1, abs(jv)), (S.family, i)


def test_mesh_export_minimal():
    mesh = mesh_export(standard_model("fold"), 2, 2)
    assert mesh.vertices.shape == (4, 3)
    assert mesh.faces.shape == (2, 3)


def test_mesh_pinches_at_cone_axis(delaunay_t_k2):
    mesh = mesh_export(delaunay_t_k2, 5, 6, u_range=(-0.5, 0.5))
    axis = mesh.vertices[2 * 6 : 3 * 6]  # middle row r = 0
    assert np.allclose(axis, 0.0, atol=1e-13)


def test_mesh_grid_must_be_2d(delaunay_t_k2):
    with pytest.raises(ValueError, match="grid must be 2D"):
        mesh_export(delaunay_t_k2, 1, 5)


def test_mesh_error_carries_grid_index(lightlike_ii):
    # the first failing grid point in row-major order, outside the domain ...
    with pytest.raises(MeshEvaluationError) as err:
        mesh_export(lightlike_ii, 3, 3, u_range=(0.0, 1.5))
    assert str(err.value) == (
        "evaluation failed at grid index (2,0), (u,v)=(1.5,-2.0): u = 1.5 outside "
        "admissible interval (-0.999999, 0.999999) for delaunay_lightlike_ii")

    # ... and inside it, where the builder leaves the domain of sqrt for u > 1
    def builder(u0, v0, degree):
        uj, vj = Jet2.variables((u0, v0), degree)
        return (uj, vj, jt.sqrt(1 - uj))

    S = sf.custom_surface(builder, u_range=(0.0, 2.0), v_range=(-1.0, 1.0))
    with pytest.raises(MeshEvaluationError) as err:
        mesh_export(S, 4, 3)
    assert str(err.value) == (
        "evaluation failed at grid index (2,0), (u,v)=(1.3333333333333333,-1.0): "
        "jet domain error: sqrt requires positive value coefficient")
    assert isinstance(err.value.__cause__, JetDomainError)


def test_mesh_error_names_the_one_failing_grid_node():
    # the builder fails only at (u, v) = (1, 0), where sqrt's value coefficient is 0:
    # the batched grid call fails, and the point-by-point retry names that node
    def builder(u0, v0, degree):
        uj, vj = Jet2.variables((u0, v0), degree)
        return (uj, vj, jt.sqrt((uj - 1) * (uj - 1) + vj * vj))

    S = sf.custom_surface(builder, u_range=(-1.0, 2.0), v_range=(-1.0, 1.0))
    with pytest.raises(MeshEvaluationError) as err:
        mesh_export(S, 4, 3)
    assert str(err.value) == (
        "evaluation failed at grid index (2,1), (u,v)=(1.0,0.0): "
        "jet domain error: sqrt requires positive value coefficient")
    assert isinstance(err.value.__cause__, JetDomainError)
    mesh_export(S, 4, 4)  # no grid node at (1, 0)


def test_conjugate_refuses_k_within_roundoff_of_minus_1():
    for family in ("delaunay_timelike", "delaunay_spacelike"):
        for dk in (2.0**-53, -(2.0**-52), 1e-12, -9.9e-10):  # one ulp either side, and more
            with pytest.raises(SurfaceParameterError, match="branch point k = -1") as err:
                conjugate_of(family, -1.0 + dk, 0.5)
            assert err.value.param == "k"
        for k in (-1.0, -1.0 - 1.1e-9, -1.0 + 1.1e-9):
            S = conjugate_of(family, k, 0.5)
            assert S.meta["branch"].endswith("ii" if k == -1.0 else "-i")


# k ranges on which `generate` succeeds over the full default domain (the
# conjugate of delaunay-s fails for k > -1), kept 0.25 away from k = 0 and 1
# and 1e-9 away from the branch point k = -1 (the k = -1 branch is its own
# entry; one ulp from it the conjugates cannot be oriented)
MESH_FAMILIES = {
    "delaunay-t": (lambda k, H: delaunay_timelike(k, H), (-3.0, 4.0)),
    "delaunay-s": (lambda k, H: delaunay_spacelike(k, H), (-3.0, 4.0)),
    "delaunay-l-i": (lambda k, H: delaunay_lightlike("i", H), None),
    "delaunay-l-ii": (lambda k, H: delaunay_lightlike("ii", H), None),
    "conjugate-of-delaunay-t": (lambda k, H: conjugate_of("delaunay_timelike", k, H), (-2.5, 4.0)),
    "conjugate-of-delaunay-s": (lambda k, H: conjugate_of("delaunay_spacelike", k, H), (-3.0, -1.0)),
    "conjugate-k=-1": (lambda k, H: conjugate_of("delaunay_timelike", -1.0, H), None),
}


@given(st.sampled_from(sorted(MESH_FAMILIES)), st.floats(0.0, 1.0), st.floats(0.3, 1.0),
       st.integers(2, 9), st.integers(2, 9))
@settings(max_examples=40, deadline=None)
def test_batched_mesh_matches_point_evaluation(family, t, H, nu, nv):
    build, ks = MESH_FAMILIES[family]
    k = None
    if ks:
        k = ks[0] + t * (ks[1] - ks[0])
        assume(abs(k - 1) >= 0.25 and abs(k) >= 0.25 and abs(k + 1) >= 1e-9)
    S = build(k, H)
    mesh = mesh_export(S, nu, nv)
    us = np.linspace(*S.u_range, nu)
    vs = np.linspace(*S.v_range, nv)
    pointwise = np.array([S.point(u, v) for u in us for v in vs])
    assert mesh.vertices.shape == pointwise.shape
    assert np.all(np.abs(mesh.vertices - pointwise) <= 1e-13 * (1 + np.abs(pointwise)))


def _write_obj_per_line(mesh, path):
    """The OBJ writer as it was: one write per line."""
    with open(path, "w") as fh:
        fh.write("# cmc-lab surface mesh; vertex order (x1, x2, x0)\n")
        for x0, x1, x2 in mesh.vertices:
            fh.write(f"v {float(x1)!r} {float(x2)!r} {float(x0)!r}\n")
        for a, b, c in mesh.faces:
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


def _assert_obj_matches_per_line_writer(mesh, directory):
    mesh.write_obj(directory / "a.obj")
    _write_obj_per_line(mesh, directory / "b.obj")
    assert (directory / "a.obj").read_bytes() == (directory / "b.obj").read_bytes()


# the six CLI mesh families, spelled as `generate` takes them
_CLI_FAMILIES = ("delaunay-t --k 2", "delaunay-s --k -2", "delaunay-l-i", "delaunay-l-ii",
                 "conjugate --of delaunay-t --k 2", "conjugate --of delaunay-s --k -2")


def test_obj_writer_matches_per_line_writer(tmp_path, conj_k2, monkeypatch):
    for S, nu, nv in ((conj_k2, 13, 11), (standard_model("fold"), 2, 3),
                      (standard_model("fold"), 2, 2)):
        _assert_obj_matches_per_line_writer(mesh_export(S, nu, nv), tmp_path)
    # the meshes the CLI writes: generate on every family at 21 x 21, and a
    # rep --gauss-data reconstruction
    meshes, write_obj = [], sf.Mesh.write_obj
    monkeypatch.setattr(sf.Mesh, "write_obj",
                        lambda self, path: (meshes.append(self), write_obj(self, path))[1])
    for spec in _CLI_FAMILIES:
        argv = ["generate", "--family", *spec.split(), "--nr", "21", "--nt", "21"]
        assert main(argv + ["-o", str(tmp_path / "g.obj")]) == 0
    gauss = str(tmp_path / "g.json")
    assert main(["rep", "--export-from", "delaunay-t", "--k", "2", "-o", gauss]) == 0
    assert main(["rep", "--gauss-data", gauss, "-o", str(tmp_path / "r.obj")]) == 0
    assert [m.sidecar.get("family", m.sidecar.get("source")) for m in meshes] == [
        "delaunay_timelike", "delaunay_spacelike", "delaunay_lightlike_i", "delaunay_lightlike_ii",
        "conjugate_of_delaunay_timelike", "conjugate_of_delaunay_spacelike", "representation"]
    assert [len(m.vertices) for m in meshes[:6]] == [21 * 21] * 6
    monkeypatch.undo()
    for mesh in meshes:
        _assert_obj_matches_per_line_writer(mesh, tmp_path)


# -+0.0, NaN with its sign bit clear and set, -+inf, the smallest and largest
# subnormals and -+1e300 besides any float
_EDGE_FLOATS = (0.0, -0.0, math.nan, float(np.copysign(math.nan, -1)), math.inf, -math.inf,
                5e-324, -5e-324, 2.225073858507201e-308, 1e300, -1e300, 0.5)


@st.composite
def _meshes(draw):
    """A mesh of n = 0, 1 or more vertices whose coordinates repeat with either
    sign: each is drawn from a small pool and negated or not, or drawn afresh."""
    n = draw(st.one_of(st.sampled_from((0, 1)), st.integers(2, 30)))
    floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
    pool = draw(st.lists(floats, min_size=1, max_size=6))
    repeated = st.tuples(st.sampled_from(pool), st.booleans()).map(lambda p: -p[0] if p[1] else p[0])
    xs = draw(st.lists(st.one_of(repeated, floats), min_size=3 * n, max_size=3 * n))
    faces = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), max_size=2 * n)) if n else []
    return sf.Mesh(np.array(xs, float).reshape(n, 3), np.array(faces, int).reshape(-1, 3), {})


@given(_meshes())
@example(sf.Mesh(np.array(_EDGE_FLOATS * 2).reshape(8, 3), sf.grid_faces(2, 4), {}))
@example(sf.Mesh(np.array(_EDGE_FLOATS[:3]).reshape(1, 3), np.zeros((0, 3), int), {}))
@example(sf.Mesh(np.zeros((0, 3)), np.zeros((0, 3), int), {}))  # the header line alone
@settings(max_examples=80, deadline=None)
def test_obj_writer_matches_per_line_writer_on_drawn_vertices(tmp_path_factory, mesh):
    _assert_obj_matches_per_line_writer(mesh, tmp_path_factory.mktemp("obj"))


def test_obj_writer_format(tmp_path, fold_model):
    mesh = mesh_export(fold_model, 2, 2, u_range=(0, 1), v_range=(0, 1))
    path = tmp_path / "fold.obj"
    sidecar = mesh.write_obj(path)
    lines = path.read_text().splitlines()
    vs = [l for l in lines if l.startswith("v ")]
    fs = [l for l in lines if l.startswith("f ")]
    assert len(vs) == 4 and len(fs) == 2
    # (x1, x2, x0) order: fold point (u, v^2, 0) at (1,1) -> written "1.0 0.0 1.0"
    assert vs[-1].split()[1:] == ["1.0", "0.0", "1.0"]
    side = json.loads(open(sidecar).read())
    assert side["family"] == "model_fold"
    assert side["grid"] == {"nu": 2, "nv": 2}


def test_surface_repr(conj_k2):
    assert "conjugate_of_delaunay_timelike" in repr(conj_k2)


@pytest.mark.parametrize("build,radicand", [
    (lambda k: sf.delaunay_timelike(k, 0.5, r_cap=50.0), lambda k, x: (x * x + k + 1) ** 2 - 4 * k),
    (lambda k: sf.delaunay_spacelike(k, 0.5, r_cap=50.0), lambda k, x: (x * x - k - 1) ** 2 - 4 * k),
    (lambda k: sf.conjugate_of("delaunay_timelike", k, 0.5, r_cap=50.0),
     lambda k, x: 2 * (k + 1) * x * x + (1 - k) ** 2),
    (lambda k: sf.conjugate_of("delaunay_spacelike", k, 0.5, r_cap=50.0),
     lambda k, x: min(-2 * (k + 1) * x * x + (1 - k) ** 2, (x * x - k - 1) ** 2 - 4 * k)),
])
@pytest.mark.parametrize("k", [0.0, 0.01, 0.5, 2.0, -0.5, -3.0])
def test_domain_ends_at_the_first_root_of_the_radicand(build, radicand, k):
    # the domain ends (1 - 1e-9) short of the smallest positive x where the
    # radicand falls to DOMAIN_TOL, and the radicand stays above it before
    r_hi = build(k).u_range[1]
    if r_hi == 50.0:
        xs = np.linspace(0.0, 50.0, 20001)
    else:
        root = r_hi / (1 - 1e-9)
        assert abs(radicand(k, root) - sf.DOMAIN_TOL) < 1e-12 * max(1.0, root**4)
        xs = np.linspace(0.0, r_hi, 20001)
    assert min(radicand(k, x) for x in xs) > sf.DOMAIN_TOL


# -- the per-family builders that the one profile builder replaced ----------------
# Kept as references: every surface jet and analytic-normal jet of the profile
# builder must equal theirs byte for byte.  They read the surface's own
# Primitives and compute all else afresh.


def _reference_promote_r(j1, base, degree):
    c = np.zeros(j1.c.shape[:-1] + (degree + 1, degree + 1), dtype=j1.c.dtype)
    n = min(degree, j1.degree) + 1
    c[..., :n, 0] = j1.c[..., :n]
    return Jet2(base, degree, c)


def _reference_axis_builder(S):
    prof, H = S.meta["profile"], S.H
    if S.family == "delaunay_timelike":
        coordinates = lambda F, r, phase: (F, r * jt.cos(phase), r * jt.sin(phase))
    else:
        coordinates = lambda F, r, phase: (r * jt.cosh(phase), r * jt.sinh(phase), F)

    def builder(r0, t0, degree):
        Fj = _reference_promote_r(prof.jet(r0, degree), (r0, t0), degree)
        rj = Jet2.coordinate((r0, t0), degree, 0)
        tj = Jet2.coordinate((r0, t0), degree, 1)
        inv2H = 1.0 / (2 * H)
        return tuple(x * inv2H for x in coordinates(Fj, rj, 2 * H * tj))

    return builder


def _reference_lightlike_builder(S):
    c8 = 1.0 / (8 * S.H * S.H)
    if S.variant == "i":
        zeta = lambda x: c8 * (-x / (1 + x * x) + jt.arctan(x))
    else:
        zeta = lambda x: c8 * (x / (1 - x * x) - jt.artanh(x))

    def builder(r0, t0, degree):
        rj = Jet2.coordinate((r0, t0), degree, 0)
        tj = Jet2.coordinate((r0, t0), degree, 1)
        zj = zeta(rj)
        quart = tj * tj * 0.25
        return (zj - rj * (1 + quart), -rj * tj, zj + rj * (1 - quart))

    return builder


def _part(j, i):
    """The real (i = 0) or the imaginary (i = 1) part of the complex jet j."""
    return Jet1(j.base, j.degree, (j.c.real, j.c.imag)[i].copy())


def _reference_conjugate(S):
    """(builder, normal builder or None, rho jet, h, phi_t) of the conjugate S."""
    H, k, of = S.H, S.k, S.family.removeprefix("conjugate_of_")
    normal = None
    if of.startswith("delaunay_lightlike"):
        s2 = math.sqrt(2.0)
        x = Jet1.coordinate
        if S.variant == "i":
            h = -1.0 / (2 * H)
            rho_jet = lambda r0, d: jt.sqrt(2 * x(r0, d) ** 2 + 1) / (2 * H)
            lam_jet = lambda r0, d: (-s2 * x(r0, d) + 2 * s2 * jt.arctan(x(r0, d))
                                     - jt.arctan(s2 * x(r0, d))) / (2 * H)
            Phi_jet = lambda r0, d: s2 * jt.arctan(x(r0, d)) - jt.arctan(s2 * x(r0, d))
        else:
            h = 1.0 / (2 * H)
            rho_jet = lambda r0, d: jt.sqrt(1 - 2 * x(r0, d) ** 2) / (2 * H)
            lam_jet = lambda r0, d: (s2 * x(r0, d) - 2 * s2 * jt.artanh(x(r0, d))
                                     + jt.artanh(s2 * x(r0, d))) / (2 * H)
            Phi_jet = lambda r0, d: s2 * jt.artanh(x(r0, d)) - jt.artanh(s2 * x(r0, d))
        phi_t = 2 * H / s2
    else:
        timelike = of == "delaunay_timelike"
        sigma = 1.0 if timelike else -1.0
        sgn = 1.0 if k + 1 > 0 else -1.0
        absK = abs(k + 1)
        delta = lambda x: (x * x + sigma * k + sigma) ** 2 - 4 * k
        Delta = lambda x: 2 * sigma * (k + 1) * x * x + (1 - k) ** 2
        # the parts of the profile lambda + i Phi, each with its sign
        lam_jet, Phi_jet = (lambda r0, d, i=i: _part(S.meta["profile"].jet(r0, d), i) for i in (0, 1))
        if k == -1.0:
            h, phi_t = H, 1.0
            rho_jet = lambda r0, d: Jet1.coordinate(r0, d) * 0.5
        else:
            h = (1 - k) / (2 * H * absK)
            rho_jet = lambda r0, d: jt.sqrt(
                Jet1.constant(0.0, r0, d) + Delta(Jet1.coordinate(r0, d))) / (2 * H * absK)
            phi_t = -math.sqrt(absK / 2) * (1.0 if timelike else sgn)
            if timelike and k > -1:
                sK = math.sqrt(k + 1)

                def normal(r0, t0, degree):
                    rj1 = Jet1.coordinate(r0, degree)
                    d = delta(rj1) + Jet1.constant(0.0, r0, degree)
                    D = Delta(rj1) + Jet1.constant(0.0, r0, degree)
                    base = (r0, t0)
                    sd = _reference_promote_r(jt.sqrt(d), base, degree)
                    sD = _reference_promote_r(jt.sqrt(D), base, degree)
                    core = _reference_promote_r(jt.sqrt(d - (k + 1) * rj1 * rj1), base, degree)
                    rj = Jet2.coordinate(base, degree, 0)
                    tj = Jet2.coordinate(base, degree, 1)
                    phi = _reference_promote_r(Phi_jet(r0, degree), base, degree) + phi_t * tj
                    cphi, sphi = jt.cos(phi), jt.sin(phi)
                    pref = -1.0 / (math.sqrt(2) * sD * core)
                    r3 = rj * rj * rj
                    n0 = pref * (sd * sD)
                    n1 = pref * (-math.sqrt(2) * sK * r3 * cphi - (k - 1) * sd * sphi)
                    n2 = pref * (-math.sqrt(2) * sK * r3 * sphi + (k - 1) * sd * cphi)
                    return (n0, n1, n2)

    template = sf._TEMPLATES[S.meta["template"]]

    def builder(r0, t0, degree):
        base = (r0, t0)
        lam = _reference_promote_r(lam_jet(r0, degree), base, degree)
        rho = _reference_promote_r(rho_jet(r0, degree), base, degree)
        tj = Jet2.coordinate(base, degree, 1)
        phi = _reference_promote_r(Phi_jet(r0, degree), base, degree) + phi_t * tj
        return template(lam, rho, phi, h)

    return builder, normal, rho_jet, h, phi_t


def _reference_r_hi(family, k, H, variant):
    """The half-width of u_range as the per-family constructors computed it."""
    r_cap = sf.R_CAP
    if family.startswith("delaunay_lightlike"):
        return r_cap if variant == "i" else min(r_cap, 1.0 - 1e-6)
    if family.startswith("conjugate_of_delaunay_lightlike"):
        return r_cap if variant == "i" else min(r_cap, 1 / math.sqrt(2.0) - 1e-6)
    sigma = 1.0 if family.endswith("timelike") else -1.0
    delta_coeffs = (1.0, 2 * sigma * (k + 1), (k - 1) ** 2)
    if not family.startswith("conjugate"):
        root = sf._positive_root(*delta_coeffs)
        return min(r_cap, root * (1 - 1e-9)) if root else r_cap
    if k == -1.0:
        return r_cap
    radicands = (delta_coeffs, (0.0, 2 * sigma * (k + 1), (1 - k) ** 2))
    roots = [r for r in (sf._positive_root(*q) for q in radicands) if r is not None]
    return min([r_cap] + [r * (1 - 1e-9) for r in roots])


# (constructor, k range or None) per Delaunay family and conjugate branch
PROFILE_SURFACES = {
    "delaunay-t": (lambda k, H: delaunay_timelike(k, H), (-3.0, 4.0)),
    "delaunay-s": (lambda k, H: delaunay_spacelike(k, H), (-3.0, 4.0)),
    "delaunay-l-i": (lambda k, H: delaunay_lightlike("i", H), None),
    "delaunay-l-ii": (lambda k, H: delaunay_lightlike("ii", H), None),
    "I-i k>-1": (lambda k, H: conjugate_of("delaunay_timelike", k, H), (-0.99, 4.0)),
    "I-i k<-1": (lambda k, H: conjugate_of("delaunay_timelike", k, H), (-4.0, -1.01)),
    "I-ii": (lambda k, H: conjugate_of("delaunay_timelike", -1.0, H), None),
    "II-i k>-1": (lambda k, H: conjugate_of("delaunay_spacelike", k, H), (-0.99, 4.0)),
    "II-i k<-1": (lambda k, H: conjugate_of("delaunay_spacelike", k, H), (-4.0, -1.01)),
    "II-ii": (lambda k, H: conjugate_of("delaunay_spacelike", -1.0, H), None),
    "III-i": (lambda k, H: conjugate_of("delaunay_lightlike_i", H=H), None),
    "III-ii": (lambda k, H: conjugate_of("delaunay_lightlike_ii", H=H), None),
}


def _outcome(fn, *args):
    """The coefficient bytes of each jet fn returns, or the error it raises."""
    try:
        return [(c.c.dtype, c.c.shape, c.c.tobytes()) for c in fn(*args)]
    except Exception as e:
        return (type(e), str(e))


@given(st.sampled_from(sorted(PROFILE_SURFACES)), st.floats(0.0, 1.0), st.floats(0.3, 1.5),
       st.integers(0, 5), st.lists(st.tuples(st.floats(-0.95, 0.95), st.floats(0.0, 1.0)),
                                   min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
@example("II-i k>-1", 0.75, 0.5, 5, [(0.0, 0.5), (1.0, 0.0)])
@example("delaunay-l-ii", 0.0, 1.5, 0, [(0.0, 0.5), (-1.0, 1.0)])
def test_profile_builder_is_the_per_family_builders_byte_for_byte(name, s, H, degree, points):
    build, ks = PROFILE_SURFACES[name]
    k = None
    if ks:
        k = ks[0] + s * (ks[1] - ks[0])
        assume(abs(k - 1) >= 0.05)
    try:
        S = build(k, H)
    except SurfaceParameterError:  # no admissible radius (k near 1) or no orientation
        assume(False)
    if S.family.startswith("conjugate"):
        builder, normal, rho_jet, h, phi_t = _reference_conjugate(S)
        assert (S.meta["h"], S.meta["phi_t"]) == (h, phi_t)
        assert S.meta["rho0"] == float(rho_jet(0.0, 0).value)
    elif S.family.startswith("delaunay_lightlike"):
        builder, normal = _reference_lightlike_builder(S), None
    else:
        builder, normal = _reference_axis_builder(S), None
    assert S.has_analytic_normal == (normal is not None) == (name == "I-i k>-1")
    r_hi = _reference_r_hi(S.family, S.k, S.H, S.variant)
    assert S.u_range == (-r_hi, r_hi)
    reference = sf.Surface(S.family, builder, S.u_range, S.v_range, H=S.H, k=S.k,
                           variant=S.variant, normal_builder=normal)
    assert S.orientation == sf._probe_orientation(reference, S.H)
    v0, v1 = S.v_range
    us = [a * r_hi for a, _ in points]
    vs = [v0 + b * (v1 - v0) for _, b in points]
    calls = [(S.jet, reference.jet)]
    if normal is not None:
        calls.append((S.analytic_normal_jet, reference.analytic_normal_jet))
    for got, want in calls:
        assert _outcome(got, us[0], vs[0], degree) == _outcome(want, us[0], vs[0], degree)
        batch = (np.array(us), np.array(vs), degree)
        assert _outcome(got, *batch) == _outcome(want, *batch)


# -- profile closed forms against adaptive quadrature -------------------------------

# the profiles of each kind: F about either axis, lambda and Phi of the conjugates on
# the T, S and L templates
PROFILE_KINDS = ("F-t", "F-s", "T", "S", "L")


def _profile_k(stratum, x):
    """k in `stratum` at x in [0, 1], and x's side: k < 0 (a complex pair p, q), 0,
    1 +- [1e-3, 0.25], -1 +- [1e-6, 0.5] and +-[1, 1e16]."""
    side = 1.0 if x >= 0.5 else -1.0
    y = abs(2 * x - 1)
    return {"negative": -3.0 * max(y, 1e-3), "zero": 0.0, "one": 1.0 + side * (1e-3 + 0.249 * y),
            "minus-one": -1.0 + side * 1e-6 * (5e5 ** y), "large": side * 10.0 ** (16 * y)}[stratum]


def _factor(c, b, at):
    """c + b x^2 as a function of x, or for a number `at` as a function of
    w = at - x, for w < at/2 from c + b at^2 rounded once: next to a real root
    at x = at, where the terms of the factor cancel, it then keeps its digits."""
    if at is None:
        return lambda x: c + b * (x * x)
    v0 = c + b * at * at if np.iscomplexobj(c) else float(Fraction(float(c)) + Fraction(b) * Fraction(at) ** 2)
    return lambda w: np.where(w < 0.5 * at, v0 - b * w * (2 * at - w), c + b * ((at - w) * (at - w)))


class _Part:
    """The real (i = 0) or the imaginary (i = 1) part of a complex Primitive."""

    def __init__(self, P, i):
        self.value = lambda r: (P.value(r).real, P.value(r).imag)[i]
        self.integrand = lambda x: (np.real, np.imag)[i](P.integrand(x))


def _profiles(kind, sigma, k, H, at=None):
    """The surface of profile `kind` about the axis sigma at (k, H) and, per
    profile, (Primitive, its integrand with the radicands factored, the terms of
    its reduction at r: a function of an array r), and the radicand factors.
    The integrands are functions of x, or for a number `at` of w = at - x,
    with each factor of the radicands next to x = at rounded once."""
    family = "delaunay_timelike" if sigma > 0 else "delaunay_spacelike"
    p, q = sf._axis_delta(sigma, k)[2]
    X = (lambda x: x) if at is None else (lambda w: at - w)
    fp, fq = _factor(p, 1.0, at), _factor(q, 1.0, at)
    delta = lambda t: np.real(fp(t) * fq(t))
    if kind.startswith("F"):
        S = (delaunay_timelike if sigma > 0 else delaunay_spacelike)(k, H)
        f = lambda t: (X(t) ** 2 + sigma * (k - 1)) / np.sqrt(delta(t))

        def terms(r):
            I0, I2 = sf._basis((p, q), r, 0.0)
            return abs(I2) + abs((k - 1) * I0)

        return S, [(S.meta["profile"], f, terms)], (p, q)
    S = conjugate_of(family, k=k, H=H)
    # lambda and Phi, the parts of the profile, as Primitive-like pairs (value, integrand)
    P = S.meta["profile"]
    lam, Phi = (_Part(P, i) for i in (0, 1))
    if kind == "L":
        def lam_terms(r):
            I0, I2 = sf._basis((p, q), r, 0.0)
            return (r**3 / 3 + (r * np.sqrt(r**4 + 4) + 4 * abs(I0)) / 3) / (4 * H * H)

        return S, [(lam, lambda t: lam.integrand(X(t)), lam_terms),
                   (Phi, lambda t: Phi.integrand(X(t)),
                    lambda r: (r + abs(sf._basis((p, q), r, 0.0)[1])) / (2 * abs(H)))], (p, q)
    c0, a, s = (k - 1) ** 2, 2 * sigma * (k + 1), math.sqrt(2 * abs(k + 1))
    Delta = _factor(c0, a, at)
    sgn = 1.0 if k > -1 else -1.0
    sign_lam, sign_Phi = (1.0, sgn) if sigma > 0 else (-sgn, 1.0)  # as the templates take them

    def lam_terms(r):
        c = a / c0
        I0, I2, K = sf._basis((p, q), r, 0.0, c)
        if abs(k + 1) <= 1 / 32:
            I = sf._moments((p, q), r, I0, I2, 18)
            series = sum(abs(c ** n * I[n + 2]) for n in range(16))
            return s / (abs(H) * c0) * np.where(abs(c) * r * r <= 1 / 16, series, (abs(I2) + abs(K)) / abs(c))
        return s / (abs(H) * c0) * (abs(I2) + abs(K)) / abs(c)

    return S, [(lam, lambda t: sign_lam * s * X(t) ** 4 / (H * np.sqrt(delta(t)) * Delta(t)), lam_terms),
               (Phi, lambda t: sign_Phi * s * (1 - k) * X(t) ** 2 / (np.sqrt(delta(t)) * Delta(t)),
                lambda r: s / abs(1 - k) * abs(sf._basis((p, q), r, 0.0, a / c0)[2]))], (p, q)


def _profile_surface(kind, stratum, x, h, sign, at_end=False):
    """The case drawn, or None where the stratum does not apply to the kind or
    the surface is refused."""
    k = -1.0 if kind == "L" else _profile_k(stratum, x)
    fits = {"F-t": stratum != "zero", "F-s": True, "L": stratum == "negative",
            "T": stratum not in ("large", "zero"), "S": stratum != "large"}[kind]
    # k = -1 itself (drawn in the negative stratum) is the L template's, not T's or S's
    if not fits or 0 < abs(k + 1) < sf.K_BRANCH_TOL or (k == -1.0 and kind in ("T", "S")):
        return None
    sigma = {"F-t": 1.0, "F-s": -1.0, "T": 1.0 if k > -1 else -1.0, "S": 1.0 if k < -1 else -1.0,
             "L": 1.0 if x >= 0.5 else -1.0}[kind]
    try:
        S = _profiles(kind, sigma, k, sign * h)[0]
        return k, *(_profiles(kind, sigma, k, sign * h, S.u_range[1]) if at_end else _profiles(kind, sigma, k, sign * h))
    except SurfaceParameterError:
        return None


@given(st.sampled_from(PROFILE_KINDS), st.sampled_from(["negative", "zero", "one", "minus-one", "large"]),
       st.floats(0.0, 1.0), st.floats(0.3, 1.5), st.sampled_from([1.0, -1.0]), st.floats(0.0, 1.0,
                                                                                           exclude_min=True))
@settings(max_examples=150, deadline=None)
def test_profile_closed_forms_against_quadrature(kind, stratum, x, h, sign, frac):
    """Inside the domain, r in (0, 0.9 r_hi], each closed form is within
    1e-13 max(1, int_0^r |f|) of adaptive quadrature at tol 1e-14 (of the
    integrand written with delta = (x^2 + p)(x^2 + q), whose terms do not cancel
    next to k = 1)."""
    case = _profile_surface(kind, stratum, x, h, sign)
    assume(case is not None)
    _, S, profiles, _ = case
    r = frac * 0.9 * S.u_range[1]
    for P, f, _ in profiles:
        want, _ = integrate(f, 0.0, r, 1e-14)
        scale, _ = integrate(lambda x: abs(f(x)), 0.0, r, 1e-6)
        assert abs(P.value(r) - want) <= 1e-13 * max(1.0, scale)


def _singular_points(kind, k, radicand):
    """The real x > 0 where delta or Delta vanishes."""
    p, q = radicand
    points = [math.sqrt(-z) for z in (p, q) if not np.iscomplexobj(z) and z < 0]
    if kind in ("T", "S") and (p + q).real < 0:  # Delta = (k - 1)^2 + (p + q) x^2
        points.append(math.sqrt((k - 1) ** 2 / -(p + q).real))
    return points


def _value_at_domain_end(f, r_hi, points):
    """int_0^r_hi f for f a function of w = r_hi - x, and the sum of the error
    estimates of its pieces: up to x = 0.9 r_hi by adaptive quadrature, and on
    from there, if a zero x0 of a radicand lies past r_hi within 0.5 r_hi, in
    w = d expm1(tau), d = x0 - r_hi, which makes f dw smooth in tau where f has
    a pole or an inverse square root at x0 (f dw = f d e^tau dtau)."""
    head = integrate(f, 0.1 * r_hi, r_hi, 1e-14)
    x0 = min([x for x in points if r_hi < x < 1.5 * r_hi], default=None)
    if x0 is None:
        tail = integrate(f, 0.0, 0.1 * r_hi, 1e-14)
    else:
        d = x0 - r_hi
        tail = integrate(lambda tau: f(d * np.expm1(tau)) * d * np.exp(tau), 0.0,
                         math.log1p(0.1 * r_hi / d), 1e-14)
    return head[0] + tail[0], head[1] + tail[1]


@given(st.sampled_from(PROFILE_KINDS), st.sampled_from(["negative", "zero", "one", "minus-one", "large"]),
       st.floats(0.0, 1.0), st.floats(0.3, 1.5), st.sampled_from([1.0, -1.0]))
@settings(max_examples=100, deadline=None)
def test_profile_closed_forms_at_the_domain_end(kind, stratum, x, h, sign):
    """At r_hi the closed forms meet the bound of their conditioning: F's change
    under one ulp of r, |f(r_hi)| ulp(r_hi), plus 4 eps times the sum of the
    absolute terms of the reduction (a pole or an inverse square root of f lies
    a relative 1e-9 past r_hi where a radicand ends the domain).  The reference
    takes each factor of the radicands next to r_hi from its value at r_hi
    rounded once, and the last tenth of the domain in a variable in which the
    integrand is smooth (`_value_at_domain_end`); the comparison allows its
    error estimate besides."""
    case = _profile_surface(kind, stratum, x, h, sign, at_end=True)
    assume(case is not None)
    k, S, profiles, radicand = case
    r_hi = S.u_range[1]
    points = _singular_points(kind, k, radicand)
    for P, f, terms in profiles:
        want, estimate = _value_at_domain_end(f, r_hi, points)
        bound = abs(f(np.array([0.0]))[0]) * np.spacing(r_hi) + 4 * 2.0**-52 * terms(np.array([r_hi]))[0]
        assert abs(P.value(r_hi) - want) <= bound + estimate
