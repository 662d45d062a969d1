import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmc_lab import jets as jt
from cmc_lab.quadrature import (
    Integrand,
    IntegrandSingularError,
    PRIMITIVE_TOL,
    Primitive,
    TabulatedPrimitive,
    ToleranceNotMetError,
    integrate,
    simpson_oracle,
)


def test_polynomial_integral():
    val, err = integrate(lambda t: t * t, 0, 1, 1e-12)
    assert abs(val - 1 / 3) < 1e-12
    assert err < 1e-12


def test_cosine_integral():
    val, _ = integrate(np.cos, 0, 1)
    assert abs(val - math.sin(1)) < 1e-12


def test_timelike_profile_integrand_vs_simpson():
    # (tau^2 + 1)/sqrt((tau^2 + 3)^2 - 8): the k = 2 profile integrand
    f = lambda t: (t * t + 1) / np.sqrt((t * t + 3) ** 2 - 8)
    val, _ = integrate(f, 0, 1, 1e-12)
    oracle = simpson_oracle(f, 0.0, 1.0, panels=1_000_000)
    assert abs(val - oracle) < 1e-9


def test_reversed_and_empty_intervals():
    val, _ = integrate(np.cos, 1, 0)
    assert abs(val + math.sin(1)) < 1e-12
    assert integrate(np.cos, 0.5, 0.5) == (0.0, 0.0)


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
    v_ab, _ = integrate(f, a, b, tol)
    v_ac, _ = integrate(f, a, c, tol)
    v_cb, _ = integrate(f, c, b, tol)
    assert abs(v_ac + v_cb - v_ab) <= 2 * tol


@pytest.mark.filterwarnings("ignore:overflow")
def test_integrand_singular_error():
    with pytest.raises(IntegrandSingularError, match="integrand singular on interval"):
        integrate(lambda t: 1.0 / t, 0.0, 1.0)


def test_tolerance_not_met_carries_best_estimate():
    # a kink makes the estimate stall above an impossible tolerance
    f = lambda t: abs(t - math.pi / 10) ** 0.5
    with pytest.raises(ToleranceNotMetError) as exc:
        integrate(f, 0, 1, 1e-16, limit=24)
    err = exc.value
    assert math.isfinite(err.value) and err.error_estimate > 1e-16
    ref = simpson_oracle(f, 0.0, 1.0, panels=200_000)
    assert abs(err.value - ref) < 1e-4


def test_determinism():
    f = lambda t: np.sin(3 * t) / (1 + t * t)
    assert integrate(f, 0, 2, 1e-11) == integrate(f, 0, 2, 1e-11)


def _cos_integrand():
    return Integrand(jt.cos)


def test_primitive_jet_of_cosine():
    P = Primitive(_cos_integrand())
    j = P.jet(0.0, 3)
    assert np.allclose(j.c, [0, 1, 0, -1 / 6])  # sin r


def test_primitive_jet_of_square():
    P = Primitive(Integrand(lambda t: t * t))
    j = P.jet(1.0, 2)
    assert abs(j.c[0] - 1 / 3) < 1e-11
    assert j.c[1] == 1.0 and j.c[2] == 1.0  # F'' = 2r -> coefficient 2/2!


def test_primitive_vanishes_at_base():
    P = Primitive(_cos_integrand())
    assert P.jet(0.0, 4).value == 0.0


def test_primitive_value_matches_integrate():
    P = Primitive(_cos_integrand())
    v, _ = integrate(np.cos, 0, 0.8, 1e-11)
    assert abs(P.value(0.8) - v) < 1e-11


def test_primitive_derivative_consistency():
    f = lambda t: (t * t + 1) / jt.sqrt((t * t + 3) ** 2 - 8)
    P = Primitive(Integrand(f))
    for r0 in (0.2, 0.7, 1.1):
        j = P.jet(r0, 3)
        assert abs(j.c[1] - float(f(r0))) < 1e-12


def test_integrand_jet_value_agrees_with_point():
    f = Integrand(lambda t: (t * t + 1) / jt.sqrt((t * t + 3) ** 2 - 8))
    for r in (0.0, 0.5, 1.3):
        assert abs(f.jet(r, 3).value - f(r)) < 1e-14


def test_tabulated_primitive_values_inverse_and_edges():
    calls = []

    def f(t):
        calls.append(t)
        return 1.0 / (1.0 + t * t)

    T = TabulatedPrimitive(f, 0.1, 0.5, 1.7)
    assert T.error <= PRIMITIVE_TOL
    built = len(calls)
    xs = np.linspace(0.1, 1.7, 33)
    for x in xs:
        y = T.value(x)
        assert abs(y - (math.atan(x) - math.atan(0.5))) < PRIMITIVE_TOL
        assert abs(T.solve(y) - x) <= 1e-15
    assert len(calls) == built  # read from the stored panels only
    assert T.value(0.5) == 0.0
    assert T.solve(T.value(0.1)) == 0.1 and T.solve(T.value(1.7)) == 1.7
    # outside [a, b]: the edge value plus a fresh integral from that edge
    for x in (0.02, 2.5):
        assert abs(T.value(x) - (math.atan(x) - math.atan(0.5))) < 2 * PRIMITIVE_TOL
    for y in (math.nextafter(T.value(0.1), -1), math.nextafter(T.value(1.7), 2)):
        with pytest.raises(ValueError):
            T.solve(y)
    with pytest.raises(ValueError):
        TabulatedPrimitive(f, 0.5, 0.5, 1.7)


# -- the array contract: one integrand call per panel ---------------------------


def _counting_gk15():
    """A wrapper of quadrature._gk15 and its log: the panels, the calls of the
    integrand and the shapes it was passed."""
    from cmc_lab import quadrature

    log = {"panels": 0, "f_calls": 0, "shapes": set()}
    gk15 = quadrature._gk15

    def counted(f, a, b):
        log["panels"] += 1

        def g(xs):
            log["f_calls"] += 1
            log["shapes"].add(np.shape(xs))
            return f(xs)

        return gk15(g, a, b)

    return log, counted


@given(st.sampled_from(["cos", "runge", "kink", "profile"]), st.floats(-2, 2), st.floats(0.05, 2),
       st.floats(1e-13, 1e-8))
@settings(max_examples=40, deadline=None)
def test_gk15_calls_f_once_per_panel(name, a, width, tol):
    from unittest import mock

    from cmc_lab import quadrature

    f = {
        "cos": np.cos,
        "runge": lambda t: 1.0 / (1 + 25 * t * t),
        "kink": lambda t: abs(t - math.pi / 10) ** 0.5,
        "profile": Integrand(lambda t: (t * t + 1) / jt.sqrt((t * t + 3) ** 2 - 8)),
    }[name]
    log, counted = _counting_gk15()
    with mock.patch.object(quadrature, "_gk15", counted):
        try:
            integrate(f, a, a + width, tol, limit=64)
        except ToleranceNotMetError:
            pass
    assert log["panels"] >= 1
    assert log["f_calls"] == log["panels"]
    assert log["shapes"] == {(15,)}


def test_gk15_names_the_first_singular_node_in_sampling_order():
    # nodes 0..7 run from a towards the midpoint, 8..14 from b back towards it:
    # both ends are singular, and node 0 (next to a = 0) is reported
    with pytest.raises(IntegrandSingularError) as err:
        integrate(lambda t: 1.0 / (t * (1 - t)) * np.where((t < 0.01) | (t > 0.99), np.inf, 1.0),
                  0.0, 1.0)
    half, mid = 0.5, 0.5
    x0 = mid - half * 0.991455371120812639206854697526329
    assert str(err.value) == f"integrand singular on interval: f({np.float64(x0)}) = inf"


def test_primitive_caches_a_failed_integral():
    from unittest import mock

    from cmc_lab import quadrature

    for integrand, r, error in (
        (Integrand(lambda t: jt.sqrt(t - 0.5)), 1.0, IntegrandSingularError),
        # a pole just past the end, as at the domain end of a conjugate profile
        (Integrand(lambda t: 1.0 / (1.0 - t)), 1.0 - 1e-12, ToleranceNotMetError),
    ):
        P = Primitive(integrand)
        with pytest.raises(error) as first:
            P.value(r)
        log, counted = _counting_gk15()
        with mock.patch.object(quadrature, "_gk15", counted):
            with pytest.raises(error) as again:
                P.value(r)
            with pytest.raises(error):
                P.jet(np.array([r, r]), 2)
        assert log["panels"] == 0
        assert type(again.value) is type(first.value) and str(again.value) == str(first.value)


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
        return S, [p.integrand for p in S.meta["profiles"]]
    # the conformal-chart integrand sqrt(E/G) of a rotational surface
    S = {"chart-delaunay-t": lambda: sf.delaunay_timelike(k, H),
         "chart-delaunay-s": lambda: sf.delaunay_spacelike(k, H),
         "chart-delaunay-l-i": lambda: sf.delaunay_lightlike("i", H),
         "chart-delaunay-l-ii": lambda: sf.delaunay_lightlike("ii", H)}[family]()
    return S, [rp._ProfileIntegrand(S, 0.0)]


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
                outcomes.append(integrate(g, a, b, PRIMITIVE_TOL))
            except ToleranceNotMetError as e:
                outcomes.append((type(e), str(e), e.value, e.error_estimate))
        got, want = outcomes
        assert repr(got) == repr(want)
