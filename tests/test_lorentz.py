import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmc_lab.lorentz import (
    ExtComplex,
    H2Point,
    LVec3,
    NotSpacelikeError,
    euclid_inner,
    lorentz_cross,
    lorentz_inner,
    lorentz_normal,
)
from cmc_lab.jets import Jet2
from cmc_lab.surfaces import fundamental_forms

COORD = st.floats(min_value=-10, max_value=10, allow_nan=False)


def _xyz(v: LVec3) -> list:
    return [v.x0, v.x1, v.x2]


def test_lorentz_inner_signature_examples():
    assert lorentz_inner((1, 0, 0), (1, 0, 0)) == -1  # timelike unit
    assert lorentz_inner((0, 1, 0), (0, 1, 0)) == 1  # spacelike unit
    assert lorentz_inner((1, 1, 0), (1, 1, 0)) == 0  # lightlike


def test_euclid_inner_positive():
    assert euclid_inner((1, 2, 3), (1, 2, 3)) == 14
    assert euclid_inner((0, 0, 0), (0, 0, 0)) == 0


def test_lorentz_cross_examples():
    assert _xyz(lorentz_cross((0, 1, 0), (0, 0, 1))) == [-1, 0, 0]
    assert _xyz(lorentz_cross((1, 0, 0), (1, 0, 0))) == [0, 0, 0]
    assert _xyz(lorentz_cross((1, 0, 0), (0, 1, 0))) == [0, 0, 1]


@given(st.tuples(*[COORD] * 9))
def test_lorentz_cross_defining_identity(vals):
    x, y, z = np.array(vals).reshape(3, 3)
    w = lorentz_cross(x, y)
    with np.errstate(divide="ignore"):  # LU of a singular matrix with a subnormal entry
        d = np.linalg.det(np.array([x, y, z]))
    scale = max(1.0, np.abs(vals).max() ** 3)
    assert abs(lorentz_inner(w, z) - d) <= 1e-12 * scale


@given(st.tuples(*[COORD] * 6))
def test_lorentz_cross_orthogonality(vals):
    x, y = np.array(vals).reshape(2, 3)
    w = lorentz_cross(x, y)
    scale = max(1.0, np.abs(vals).max() ** 2) * max(1.0, np.abs(vals).max())
    assert abs(lorentz_inner(w, x)) <= 1e-12 * scale
    assert abs(lorentz_inner(w, y)) <= 1e-12 * scale


def test_h2point_invariant_enforced():
    with pytest.raises(ValueError, match="not on the hyperboloid"):
        H2Point.of((1.0, 1.0, 0.5))
    with pytest.raises(ValueError, match="sheet"):
        H2Point(LVec3(-1.0, 0.0, 0.0), "upper")


def test_sheet_classification_no_tolerance():
    assert H2Point.of((-1, 0, 0)).sheet == "lower"
    assert H2Point.of((1, 0, 0)).sheet == "upper"
    r = 1e-6
    assert H2Point.of((math.sqrt(1 + r * r), r, 0)).sheet == "upper"
    assert H2Point.of((-math.sqrt(1 + r * r), 0, r)).sheet == "lower"


def test_ext_complex_tags():
    inf = ExtComplex.infinity()
    assert inf.infinite and inf.abs() == math.inf
    z = ExtComplex.of(0.5 + 0.1j)
    assert not z.infinite and z.abs() == abs(0.5 + 0.1j)
    assert ExtComplex.of(z) is z


@pytest.mark.parametrize("surface", ["delaunay_t_k2", "delaunay_s_km1", "lightlike_i", "conj_k2"])
def test_lorentz_normal_jets_are_unit_and_normal(surface, request):
    """At regular points every coefficient of the degree-4 jets of <nu,nu> + 1,
    <nu,X_u> and <nu,X_v> vanishes, and the jet's value is the float normal."""
    S = request.getfixturevalue(surface)
    for p in ((0.5 * S.u_range[1], 0.3), (0.8 * S.u_range[1], 0.7), (-0.3 * S.u_range[1], 0.1)):
        X = S.jet(p[0], p[1], 5)
        Xu, Xv = [c.du() for c in X], [c.dv() for c in X]
        nu = lorentz_normal(Xu, Xv, S.orientation)
        assert nu[0].degree == 4
        for residual in (lorentz_inner(nu, nu) + 1.0, lorentz_inner(nu, Xu), lorentz_inner(nu, Xv)):
            assert np.abs(residual.c).max() <= 1e-12
        assert np.allclose([c.value for c in nu], _xyz(fundamental_forms(S, p).nu.point),
                           rtol=0, atol=1e-13)


@given(st.integers(1, 4), st.integers(0, 5), st.sampled_from([1, -1]), st.data())
@settings(max_examples=100, deadline=None)
def test_batched_lorentz_normal_bit_identical_to_scalar(size, degree, sign, data):
    """The normal of a batched frame, element by element against the scalar one.
    The frame is a perturbation of X_u = e1, X_v = e2, which is spacelike."""
    shape = (size, degree + 1, degree + 1)
    base = (np.linspace(-1.0, 1.0, size), np.linspace(0.5, 0.0, size))
    frames = []
    for axis in (1, 2):
        comps = []
        for comp in range(3):
            c = np.array(data.draw(st.lists(st.floats(-0.3, 0.3), min_size=int(np.prod(shape)),
                                            max_size=int(np.prod(shape))))).reshape(shape)
            if comp == axis:
                c[:, 0, 0] += 1.0
            comps.append(Jet2(base, degree, c))
        frames.append(comps)
    Xu, Xv = frames
    got = lorentz_normal(Xu, Xv, sign)
    for i in range(size):
        want = lorentz_normal([c.element(i) for c in Xu], [c.element(i) for c in Xv], sign)
        for g, w in zip(got, want):
            assert g.c[i].tobytes() == w.c.tobytes(), i


def test_batched_lorentz_normal_rejects_a_timelike_element():
    base = (np.array([0.0, 1.0]), np.zeros(2))
    e = [Jet2.constant(x, base, 1) for x in (0.0, 1.0)]
    Xu = [e[0], e[1], e[0]]
    Xv = [Jet2(base, 1, np.array([[[0.0, 0], [0, 0]], [[2.0, 0], [0, 0]]])), e[0], e[1]]
    with pytest.raises(NotSpacelikeError):
        lorentz_normal(Xu, Xv)  # element 1 has X_v = (2, 0, 1), timelike
    assert all(np.isfinite(c.value).all() for c in lorentz_normal([c.element(0) for c in Xu],
                                                                  [c.element(0) for c in Xv]))
