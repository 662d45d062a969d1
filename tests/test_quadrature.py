import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmc_lab import jets as jt
from cmc_lab.jets import Jet1
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
    val, _ = integrate(math.cos, 0, 1)
    assert abs(val - math.sin(1)) < 1e-12


def test_timelike_profile_integrand_vs_simpson():
    # (tau^2 + 1)/sqrt((tau^2 + 3)^2 - 8): the k = 2 profile integrand
    f = lambda t: (t * t + 1) / np.sqrt((t * t + 3) ** 2 - 8)
    val, _ = integrate(f, 0, 1, 1e-12)
    oracle = simpson_oracle(f, 0.0, 1.0, panels=1_000_000)
    assert abs(val - oracle) < 1e-9


def test_reversed_and_empty_intervals():
    val, _ = integrate(math.cos, 1, 0)
    assert abs(val + math.sin(1)) < 1e-12
    assert integrate(math.cos, 0.5, 0.5) == (0.0, 0.0)


@given(
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=0.1, max_value=2),
    st.floats(min_value=0.1, max_value=0.9),
    st.integers(min_value=0, max_value=2),
)
@settings(max_examples=25, deadline=None)
def test_additivity(a, width, frac, pick):
    f = [math.cos, lambda t: 1.0 / (1 + t * t), lambda t: math.exp(-t * t)][pick]
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
    f = lambda t: math.sin(3 * t) / (1 + t * t)
    assert integrate(f, 0, 2, 1e-11) == integrate(f, 0, 2, 1e-11)


def _cos_integrand():
    return Integrand(lambda t: jt.cos(t) if isinstance(t, Jet1) else math.cos(t))


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
    v, _ = integrate(math.cos, 0, 0.8, 1e-11)
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
