import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmc_lab import jets as jt
from cmc_lab.jets import Jet1
from cmc_lab.quadrature import Primitive, carlson
from reference_quadrature import (
    IntegrandSingularError,
    ToleranceNotMetError,
    reference_integrate,
    simpson_oracle,
)


def test_polynomial_integral():
    val, err = reference_integrate(lambda t: t * t, 0, 1, 1e-12)
    assert abs(val - 1 / 3) < 1e-12
    assert err < 1e-12


def test_cosine_integral():
    val, _ = reference_integrate(np.cos, 0, 1)
    assert abs(val - math.sin(1)) < 1e-12


def test_timelike_profile_integrand_vs_simpson():
    # (tau^2 + 1)/sqrt((tau^2 + 3)^2 - 8): the k = 2 profile integrand
    f = lambda t: (t * t + 1) / np.sqrt((t * t + 3) ** 2 - 8)
    val, _ = reference_integrate(f, 0, 1, 1e-12)
    oracle = simpson_oracle(f, 0.0, 1.0, panels=1_000_000)
    assert abs(val - oracle) < 1e-9


def test_reversed_and_empty_intervals():
    val, _ = reference_integrate(np.cos, 1, 0)
    assert abs(val + math.sin(1)) < 1e-12
    assert reference_integrate(np.cos, 0.5, 0.5) == (0.0, 0.0)


@given(
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=0.1, max_value=2),
    st.floats(min_value=0.1, max_value=0.9),
    st.integers(min_value=0, max_value=2),
)
@settings(max_examples=25, deadline=None)
def test_additivity(a, width, frac, pick):
    f = [np.cos, lambda t: 1.0 / (1 + t * t), lambda t: np.exp(-t * t)][pick]
    b = a + width
    c = a + frac * width
    tol = 1e-10
    v_ab, _ = reference_integrate(f, a, b, tol)
    v_ac, _ = reference_integrate(f, a, c, tol)
    v_cb, _ = reference_integrate(f, c, b, tol)
    assert abs(v_ac + v_cb - v_ab) <= 2 * tol


@pytest.mark.filterwarnings("ignore:overflow")
def test_integrand_singular_error():
    with pytest.raises(IntegrandSingularError, match="integrand singular on interval"):
        reference_integrate(lambda t: 1.0 / t, 0.0, 1.0)


def test_tolerance_not_met_carries_best_estimate():
    # a kink makes the estimate stall above an impossible tolerance
    f = lambda t: abs(t - math.pi / 10) ** 0.5
    with pytest.raises(ToleranceNotMetError) as exc:
        reference_integrate(f, 0, 1, 1e-16, limit=24)
    err = exc.value
    assert math.isfinite(err.value) and err.error_estimate > 1e-16
    ref = simpson_oracle(f, 0.0, 1.0, panels=200_000)
    assert abs(err.value - ref) < 1e-4


def test_determinism():
    f = lambda t: np.sin(3 * t) / (1 + t * t)
    assert reference_integrate(f, 0, 2, 1e-11) == reference_integrate(f, 0, 2, 1e-11)


def _cos_primitive():
    return Primitive(jt.cos, np.sin)


def test_primitive_jet_of_cosine():
    j = _cos_primitive().jet(0.0, 3)
    assert np.allclose(j.c, [0, 1, 0, -1 / 6])  # sin r


def test_primitive_jet_of_square():
    P = Primitive(lambda t: t * t, lambda r: r**3 / 3)
    j = P.jet(1.0, 2)
    assert abs(j.c[0] - 1 / 3) < 1e-15
    assert j.c[1] == 1.0 and j.c[2] == 1.0  # F'' = 2r -> coefficient 2/2!


def test_primitive_vanishes_at_zero_with_a_positive_zero():
    assert _cos_primitive().jet(0.0, 4).value == 0.0
    P = Primitive(jt.cos, lambda r: -np.sin(r))  # -0.0 at r = 0
    assert math.copysign(1.0, P.value(0.0)) == 1.0
    assert math.copysign(1.0, P.jet(np.array([0.0, 0.5]), 1).value[0]) == 1.0


def test_complex_primitive_is_its_two_parts_bit_for_bit():
    # the real and the imaginary part of a complex primitive's jet are the jets of
    # the two real primitives (NumPy's complex division would round apart)
    re = Primitive(lambda t: 1 / (1 + t * t), np.arctan)
    im = Primitive(lambda t: jt.cos(t) / 3, lambda r: np.sin(r) / 3)
    both = Primitive(lambda t: 1 / (1 + t * t) + 1j * (jt.cos(t) / 3),
                     lambda r: np.arctan(r) + 1j * (np.sin(r) / 3))
    r = np.array([0.0, 0.3, 1.7, 0.3])
    for degree in (0, 3, 5):
        j = both.jet(r, degree)
        assert j.c.real.tobytes() == re.jet(r, degree).c.tobytes()
        assert j.c.imag.tobytes() == im.jet(r, degree).c.tobytes()


def test_primitive_value_is_its_closed_form():
    P = _cos_primitive()
    assert P.value(0.8) == np.sin(np.array([0.8]))[0]
    v, _ = reference_integrate(np.cos, 0, 0.8, 1e-11)
    assert abs(P.value(0.8) - v) < 1e-11


def test_primitive_derivative_consistency():
    from cmc_lab.surfaces import delaunay_timelike

    P = delaunay_timelike(2.0, 0.5).meta["profile"]  # F' = (t^2 + 1)/sqrt((t^2 + 3)^2 - 8)
    for r0 in (0.2, 0.7, 1.1):
        j = P.jet(r0, 3)
        assert abs(j.c[1] - float((r0 * r0 + 1) / math.sqrt((r0 * r0 + 3) ** 2 - 8))) < 1e-12


def test_integrand_jet_value_agrees_with_point():
    f = lambda t: (t * t + 1) / jt.sqrt((t * t + 3) ** 2 - 8)
    for r in (0.0, 0.5, 1.3):
        assert abs(f(Jet1.coordinate(r, 3)).value - f(r)) < 1e-14


# -- Carlson's R_F against exact identities ------------------------------------

_POSITIVE = st.floats(1e-30, 1e30)
_OFF_THE_CUT = st.tuples(_POSITIVE, st.floats(-3.1, 3.1)).map(lambda m: m[0] * np.exp(1j * m[1]))


@given(st.one_of(_POSITIVE, _OFF_THE_CUT))
@settings(max_examples=60, deadline=None)
def test_carlson_rf_of_equal_arguments_is_the_inverse_root(x):
    # R_F(x, x, x) = x^(-1/2), the principal root off the cut
    assert abs(carlson(x, x, x)[0] * np.sqrt(x) - 1) <= 1e-15


def test_carlson_rf_lemniscate_constant():
    # R_F(0, 1, 2) = Gamma(1/4)^2 / (4 sqrt(2 pi)) (DLMF 19.20.2)
    want = math.gamma(0.25) ** 2 / (4 * math.sqrt(2 * math.pi))
    assert abs(carlson(0.0, 1.0, 2.0)[0] / want - 1) <= 4e-16
    assert abs(carlson(2.0, 0.0, 1.0)[0] / want - 1) <= 4e-16  # symmetric


@given(st.floats(1e-8, 1e8), st.floats(1.0, 1e8, exclude_min=True))
@settings(max_examples=60, deadline=None)
def test_carlson_rf_degenerate_case_is_the_arccosine(x, ratio):
    # R_F(x, y, y) = arccos sqrt(x/y) / sqrt(y - x), 0 < x < y; written as
    # arctan sqrt((y - x)/x), which keeps its accuracy where y/x is near 1
    y = x * ratio
    want = math.atan(math.sqrt((y - x) / x)) / math.sqrt(y - x)
    assert abs(carlson(x, y, y)[0] / want - 1) <= 2e-15


@given(st.lists(st.tuples(st.floats(1e-8, 1e8), _OFF_THE_CUT), min_size=1, max_size=9))
@settings(max_examples=40, deadline=None)
def test_carlson_rf_of_conjugate_arguments_is_real_and_elementwise(args):
    # R_F(x, z, conj z), x > 0, is real: the chart's J on a complex-conjugate
    # radicand pair; a batch gives each element the bits it gets alone
    x = np.array([a for a, _ in args])
    z = np.array([b for _, b in args])
    got = carlson(x, z, np.conj(z))[0]
    assert np.all(np.abs(got.imag) <= 1e-16 * np.abs(got))
    assert [carlson(a, b, np.conj(b))[0] for a, b in args] == got.tolist()


# -- R_D and R_J: Carlson's published values, and one loop for all three ------------


@pytest.mark.parametrize("args, want", [
    # B. C. Carlson, Numer. Algorithms 10 (1995) 13-26 (arXiv:math/9409227), the tables
    # of R_D and R_J; R_D(x, y, z) is R_J(z, x, y, z), `carlson`'s second value
    ((1.0, 0.0, 2.0, 1.0), 1.7972103521034),  # R_D(0, 2, 1)
    ((4.0, 2.0, 3.0, 4.0), 0.16510527294261),  # R_D(2, 3, 4)
    ((2.0, 1j, -1j, 2.0), 0.65933854154220),  # R_D(i, -i, 2)
    ((0.0, 1.0, 2.0, 3.0), 0.77688623778582),  # R_J(0, 1, 2, 3)
    ((2.0, 3.0, 4.0, 5.0), 0.14297579667157),  # R_J(2, 3, 4, 5)
    ((1j, -1j, 0.0, 2.0), 1.6490011662711),  # R_J(i, -i, 0, 2)
])
def test_carlson_rd_rj_at_published_values(args, want):
    _, got = carlson(*args)
    assert abs(got.imag) <= 1e-16 and abs(got.real / want - 1) <= 1e-13


def test_carlson_rf_with_rho_is_rf_alone_to_roundoff():
    # R_J's stopping rule runs the loop on: R_F gets more steps, not other digits
    want = math.gamma(0.25) ** 2 / (4 * math.sqrt(2 * math.pi))  # R_F(0, 1, 2)
    assert abs(carlson(2.0, 0.0, 1.0, 2.0, 3.0)[0] / want - 1) <= 4e-16


@given(st.booleans(), st.lists(st.tuples(st.floats(1e-8, 1e8), _OFF_THE_CUT, st.floats(1e-8, 1e8)),
                                min_size=1, max_size=9))
@settings(max_examples=40, deadline=None)
def test_carlson_batch_is_the_elements_bit_for_bit(real, args):
    # R_F(x, z, conj z), R_D(z, conj z, x) and R_J(x, z, conj z, rho) of a batch, real
    # (z = |z|) or complex: each element leaves the loop on its own stopping rule, so
    # it gets the bits it gets alone
    args = [(a, abs(b) if real else b, p) for a, b, p in args]
    x, z, rho = (np.array([a[i] for a in args]) for i in range(3))
    got = carlson(x, z, np.conj(z), x, rho)
    for i, (a, b, p) in enumerate(args):
        one = carlson(a, b, np.conj(b), a, p)
        assert [np.asarray(v).tobytes() for v in one] == [v[i].tobytes() for v in got]


# -- every surface profile integrand against a per-node loop ------------------------


def _per_node(f):
    """The integrand sampled node by node: one call per node, on a 1-element array."""
    return lambda xs: np.concatenate([np.asarray(f(xs[i:i + 1]), float) for i in range(len(xs))])


def _profile_integrands(family, k, H):
    """(surface, integrands of its profile integrals, the r-interval to integrate over)."""
    from cmc_lab import representation as rp
    from cmc_lab import surfaces as sf

    if family == "delaunay-t":
        S = sf.delaunay_timelike(k, H)
        return S, [S.meta["profile"].integrand]
    if family == "delaunay-s":
        S = sf.delaunay_spacelike(k, H)
        return S, [S.meta["profile"].integrand]
    if family.startswith("conjugate-of-"):
        base = {"conjugate-of-delaunay-t": "delaunay_timelike",
                "conjugate-of-delaunay-s": "delaunay_spacelike"}[family]
        S = sf.conjugate_of(base, k, H)
        f = S.meta["profile"].integrand  # lambda + i Phi: its two parts
        return S, [lambda x: np.real(f(x)), lambda x: np.imag(f(x))]
    # the conformal-chart integrand sqrt(E/G) of a Delaunay surface, in closed form
    S = {"chart-delaunay-t": lambda: sf.delaunay_timelike(k, H),
         "chart-delaunay-s": lambda: sf.delaunay_spacelike(k, H),
         "chart-delaunay-l-i": lambda: sf.delaunay_lightlike("i", H),
         "chart-delaunay-l-ii": lambda: sf.delaunay_lightlike("ii", H)}[family]()
    return S, [rp._chart_speed(S)]


PROFILE_FAMILIES = {
    "delaunay-t": (-3.0, 4.0),
    "delaunay-s": (-3.0, 4.0),
    "conjugate-of-delaunay-t": (-2.5, 4.0),
    "conjugate-of-delaunay-s": (-3.0, -1.0),
    "chart-delaunay-t": (1.25, 4.0),
    "chart-delaunay-s": (1.25, 4.0),
    "chart-delaunay-l-i": None,
    "chart-delaunay-l-ii": None,
}


@given(st.sampled_from(sorted(PROFILE_FAMILIES)), st.floats(0.0, 1.0), st.booleans(),
       st.floats(0.3, 1.0), st.floats(0.0, 0.9), st.floats(0.05, 1.0))
@settings(max_examples=40, deadline=None)
def test_surface_profile_integrals_bit_identical_to_a_per_node_loop(family, t, at_minus_1, H,
                                                                    lo, width):
    ks = PROFILE_FAMILIES[family]
    k = None
    if ks:
        k = -1.0 if at_minus_1 and family.startswith("conjugate") else ks[0] + t * (ks[1] - ks[0])
        if k != -1.0 and (abs(k - 1) < 0.25 or abs(k) < 0.25 or abs(k + 1) < 1e-9):
            k = 2.0
    S, integrands = _profile_integrands(family, k, H)
    r_hi = S.u_range[1]
    if family.startswith("chart"):  # the chart's radii: 0.15 to 0.65 of the domain end
        a = (0.15 + 0.5 * lo) * r_hi
        b = min(a + 0.5 * width * r_hi, 0.65 * r_hi)
    else:
        a = (2 * lo - 1) * r_hi
        b = min(a + 2 * width * r_hi, r_hi)
    for f in integrands:
        outcomes = []
        for g in (f, _per_node(f)):
            try:
                outcomes.append(reference_integrate(g, a, b, 1e-11))
            except ToleranceNotMetError as e:
                outcomes.append((type(e), str(e), e.value, e.error_estimate))
        got, want = outcomes
        assert repr(got) == repr(want)


@pytest.mark.parametrize("family,k", [("delaunay-t", 2.0), ("conjugate-of-delaunay-t", 3.0),
                                      ("conjugate-of-delaunay-s", 2.0),
                                      ("conjugate-of-delaunay-s", -1.0)])
def test_primitive_jet_of_a_batch_is_the_per_radius_values(family, k):
    # conjugate-of-delaunay-s at k = 2 reaches a pole of its integrands at both
    # domain ends, where adaptive quadrature fails; the closed forms do not
    S, _ = _profile_integrands(family, k, 0.5)
    rs = np.linspace(-S.u_range[1], S.u_range[1], 9)
    P = S.meta["profile"]
    want = np.array([P.value(r) for r in rs])
    assert np.isfinite(want).all()
    got = P.jet(np.concatenate([rs[::-1], rs]), 2)
    assert got.c[:, 0].tobytes() == np.concatenate([want[::-1], want]).tobytes()
