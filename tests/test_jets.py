import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmc_lab import jets as jt
from cmc_lab.jets import (
    Jet1,
    Jet2,
    JetDivisionError,
    JetDomainError,
    JetOrderError,
    VectorFieldJet,
    apply_vector_field,
    iterated_field_derivative,
)

BASE = (0.0, 0.0)


def test_coordinate_and_constant_jets():
    u = Jet2.coordinate(BASE, 2, 0)
    assert u.value == 0 and u.c[1, 0] == 1 and np.count_nonzero(u.c) == 1
    c = Jet2.constant(3.0, BASE, 2)
    assert c.value == 3 and np.count_nonzero(c.c) == 1
    v = Jet2.coordinate((1.0, 2.0), 2, 1)
    assert v.value == 2.0 and v.c[0, 1] == 1.0


def test_sin_maclaurin_degree5():
    u = Jet2.coordinate(BASE, 5, 0)
    s = jt.sin(u)
    assert np.allclose(s.c[:, 0], [0, 1, 0, -1 / 6, 0, 1 / 120])
    assert np.count_nonzero(s.c[:, 1:]) == 0


def test_rational_division_example():
    u = Jet2.coordinate(BASE, 2, 0)
    q = (1 + u) / (1 - u)
    assert np.allclose(q.c[:, 0], [1, 2, 2])


def test_sqrt_perfect_square():
    u = Jet2.coordinate(BASE, 3, 0)
    r = jt.sqrt(1 + 2 * u + u * u)
    assert np.allclose(r.c[:, 0], [1, 1, 0, 0], atol=1e-14)


def test_division_by_zero_value_jet():
    u = Jet2.coordinate(BASE, 3, 0)
    with pytest.raises(JetDivisionError, match="jet division singular"):
        (1 + u) / u


def test_elementary_domain_errors():
    u = Jet2.coordinate(BASE, 3, 0)
    with pytest.raises(JetDomainError):
        jt.sqrt(u - 1.0)
    with pytest.raises(JetDomainError):
        jt.artanh(u + 2.0)
    with pytest.raises(JetDomainError):
        jt.log(u - 5.0)


def test_apply_vector_field_examples():
    # field d_u + u d_v on f = v: once -> u, twice -> 1
    f = Jet2.coordinate(BASE, 2, 1)
    field = VectorFieldJet(Jet2.constant(1.0, BASE), Jet2.coordinate(BASE, 5, 0))
    g1 = apply_vector_field(field, f)
    assert g1.degree == 1 and g1.c[1, 0] == 1.0 and g1.value == 0.0
    assert apply_vector_field(field, g1).value == 1.0

    # d_v twice on v^2 -> 2
    v = Jet2.coordinate(BASE, 5, 1)
    dv = VectorFieldJet.constant(0.0, 1.0, BASE)
    assert apply_vector_field(dv, apply_vector_field(dv, v * v)).value == 2.0

    # d_u on a constant -> 0
    du = VectorFieldJet.constant(1.0, 0.0, BASE)
    assert apply_vector_field(du, Jet2.constant(7.0, BASE)).value == 0.0


def test_apply_vector_field_degree_exhausted():
    dv = VectorFieldJet.constant(0.0, 1.0, BASE, degree=0)
    with pytest.raises(JetOrderError, match="jet order exhausted"):
        apply_vector_field(dv, Jet2.constant(1.0, BASE, 0))


def test_iterated_field_derivative_models():
    u = Jet2.coordinate(BASE, 5, 0)
    v = Jet2.coordinate(BASE, 5, 1)
    dv = VectorFieldJet.constant(0.0, 1.0, BASE)
    X25 = (u, v * v, v**5)
    assert np.allclose(iterated_field_derivative(X25, dv, 2), [0, 2, 0])
    assert np.allclose(iterated_field_derivative(X25, dv, 5), [0, 0, 120])
    X3 = (u, v * v, v**3)
    assert np.allclose(iterated_field_derivative(X3, dv, 3), [0, 0, 6])


SMALL_INT = st.integers(min_value=-4, max_value=4)


@given(st.lists(SMALL_INT, min_size=6, max_size=6), st.integers(0, 1), st.integers(1, 3))
def test_polynomial_iterated_derivatives_exact(coeffs, axis, k):
    """Constant-coefficient fields on integer polynomials are bit-exact."""
    u = Jet2.coordinate(BASE, 5, 0)
    v = Jet2.coordinate(BASE, 5, 1)
    f = (
        coeffs[0]
        + coeffs[1] * u
        + coeffs[2] * v
        + coeffs[3] * u * v
        + coeffs[4] * v * v * v
        + coeffs[5] * u * u * v
    )
    field = VectorFieldJet.constant(1.0 - axis, float(axis), BASE)
    out = f
    for _ in range(k):
        out = apply_vector_field(field, out)
    # reference: differentiate the coefficient array symbolically
    ref = f
    for _ in range(k):
        ref = ref.du() if axis == 0 else ref.dv()
    assert out.value == ref.value


def _richardson(fn, x, h=1e-3):
    d1 = (fn(x + h) - fn(x - h)) / (2 * h)
    d2 = (fn(x + h / 2) - fn(x - h / 2)) / h
    return (4 * d2 - d1) / 3


@pytest.mark.parametrize("seed", range(6))
def test_first_order_coefficients_match_finite_differences(seed):
    """Independent oracle: degree-1 jet coefficients of sin/sqrt/div chains
    agree with Richardson-extrapolated central differences to 1e-7 relative."""
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(0.3, 1.2, 3)
    u0, v0 = rng.uniform(-0.4, 0.4, 2)

    def build(uu, vv):
        return jt.sin(a * uu + vv * vv) / jt.sqrt(2.0 + jt.cos(b * vv)) + (
            1.0 + c * uu * vv
        ) / (2.0 + jt.sin(uu))

    f = build(Jet2.coordinate((u0, v0), 5, 0), Jet2.coordinate((u0, v0), 5, 1))
    fu_fd = _richardson(lambda x: build(x, v0), u0)
    fv_fd = _richardson(lambda x: build(u0, x), v0)
    assert abs(f.c[1, 0] - fu_fd) < 1e-7 * max(1, abs(fu_fd))
    assert abs(f.c[0, 1] - fv_fd) < 1e-7 * max(1, abs(fv_fd))


JCOEF = st.floats(min_value=-2, max_value=2, allow_nan=False)


@given(st.lists(JCOEF, min_size=6, max_size=6), st.lists(JCOEF, min_size=6, max_size=6))
@settings(max_examples=60)
def test_leibniz_property(cf, cg):
    u = Jet2.coordinate(BASE, 5, 0)
    v = Jet2.coordinate(BASE, 5, 1)
    f = cf[0] + cf[1] * u + cf[2] * v + cf[3] * u * v + cf[4] * u * u + cf[5] * v * v
    g = cg[0] + cg[1] * u + cg[2] * v + cg[3] * u * v + cg[4] * u * u + cg[5] * v * v
    field = VectorFieldJet(1.0 + u * 0.5, v * v - u, )
    lhs = apply_vector_field(field, f * g)
    rhs = apply_vector_field(field, f) * g.truncated(4) + f.truncated(4) * apply_vector_field(field, g)
    scale = max(np.abs(lhs.c).max(), 1.0)
    assert np.allclose(lhs.c, rhs.c, atol=1e-13 * scale)


def test_jet1_inverse_composition():
    s = Jet1.coordinate(2.0, 5) ** 2  # s(r) = r^2 at r = 2
    inv = s.compose_inverse()  # r(s) = sqrt(s) at s = 4
    ref = jt.sqrt(Jet1.coordinate(4.0, 5))
    assert np.allclose(inv.c, ref.c)


def test_compose2_against_direct():
    F = jt.sin(Jet2.coordinate((0.3, 0.1), 5, 0)) * Jet2.coordinate((0.3, 0.1), 5, 1)
    U = 0.3 + Jet2.coordinate(BASE, 5, 0) * 2.0
    V = 0.1 + Jet2.coordinate(BASE, 5, 1) ** 2 - Jet2.coordinate(BASE, 5, 0)
    comp = jt.compose2(F, U, V)
    # direct construction of sin(u') v' with u' = 0.3 + 2u, v' = 0.1 + v^2 - u
    direct = jt.sin(U) * V
    assert comp.allclose(direct, atol=1e-13)


def test_partial_extraction_and_orders():
    u = Jet2.coordinate(BASE, 5, 0)
    v = Jet2.coordinate(BASE, 5, 1)
    f = u * u * v * 3.0
    assert f.partial(2, 1) == 6.0
    with pytest.raises(JetOrderError):
        f.partial(5, 1)


def test_power_integer_vs_generic():
    x = 2.0 + Jet2.coordinate(BASE, 4, 0)
    assert np.allclose((x**3).c, jt.power(x, 3).c)
    y = jt.power(x, 0.5)
    assert np.allclose(y.c, jt.sqrt(x).c)


def test_base_point_mismatch_rejected():
    a = Jet2.coordinate((0.0, 0.0), 3, 0)
    b = Jet2.coordinate((1.0, 0.0), 3, 0)
    with pytest.raises(jt.JetError):
        a + b


def test_mixing_univariate_and_bivariate_rejected():
    with pytest.raises(jt.JetError, match="cannot mix"):
        Jet2.coordinate(BASE, 3, 0) * Jet1.coordinate(0.0, 3)
    with pytest.raises(jt.JetError, match="cannot mix"):
        Jet1.coordinate(0.0, 3) + Jet2.coordinate(BASE, 3, 0)


# -- the table-driven product against the schoolbook loop it replaced ---------


def schoolbook_product2(A, B):
    D = min(A.shape[0], B.shape[0]) - 1
    A, B = A[: D + 1, : D + 1], B[: D + 1, : D + 1]
    out = np.zeros((D + 1, D + 1), dtype=np.result_type(A, B))
    for a in range(D + 1):
        for b in range(D + 1 - a):
            x = A[a, b]
            if x == 0:
                continue
            out[a:, b:] += x * B[: D + 1 - a, : D + 1 - b]
    n = np.arange(D + 1)
    out[n[:, None] + n[None, :] > D] = 0
    return out


def schoolbook_product1(A, B):
    D = min(A.shape[0], B.shape[0]) - 1
    out = np.zeros(D + 1, dtype=np.result_type(A, B))
    for a in range(D + 1):
        x = A[a]
        if x == 0:
            continue
        out[a:] += x * B[: D + 1 - a]
    return out


def _real_coefficient():
    """Exactly zero about 30% of the time, else +-10^e with e in [-8, 8]."""
    nonzero = st.builds(lambda e, s: s * 10.0**e, st.floats(-8, 8), st.sampled_from([-1.0, 1.0]))
    return st.integers(0, 9).flatmap(lambda i: st.just(0.0) if i < 3 else nonzero)


@st.composite
def coefficient_arrays(draw, nvars):
    degree = draw(st.integers(0, 5))
    shape = (degree + 1,) * nvars
    n = int(np.prod(shape))
    re = draw(st.lists(_real_coefficient(), min_size=n, max_size=n))
    if not draw(st.booleans()):
        return degree, np.array(re).reshape(shape)
    im = draw(st.lists(_real_coefficient(), min_size=n, max_size=n))
    return degree, (np.array(re) + 1j * np.array(im)).reshape(shape)


@given(coefficient_arrays(2), coefficient_arrays(2), coefficient_arrays(1), coefficient_arrays(1))
@settings(max_examples=300, deadline=None)
def test_products_bit_identical_to_schoolbook_loop(a2, b2, a1, b1):
    for jet, base, (da, A), (db, B), reference in (
        (Jet2, BASE, a2, b2, schoolbook_product2),
        (Jet1, 0.0, a1, b1, schoolbook_product1),
    ):
        got = (jet(base, da, A) * jet(base, db, B)).c
        want = reference(A, B)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# -- the batch axis against the scalar kernel, element by element -------------


def test_gradient_of_a_batch_is_one_row_per_element():
    us, vs = np.array([0.5, -1.0, 2.0]), np.array([1.5, 0.25, -3.0])
    x, y = Jet2.variables((us, vs), 3)
    g = (x * x * y).gradient()
    assert g.shape == (3, 2)
    np.testing.assert_allclose(g, np.stack([2 * us * vs, us * us], axis=-1), rtol=1e-15)
    assert (x * y).element(1).gradient().shape == (2,)


@given(st.integers(1, 4), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_batched_gradient_matches_partials(size, degree, data):
    n = size * (degree + 1) ** 2
    c = np.array(data.draw(st.lists(_real_coefficient(), min_size=n, max_size=n)))
    jet, elements = _batch_and_elements(Jet2, size, degree, c.reshape(size, degree + 1, degree + 1))
    g = jet.gradient()
    assert g.shape == (size, 2)
    for i, e in enumerate(elements):
        assert g[i].tolist() == [e.partial(1, 0), e.partial(0, 1)]
        assert g[i].tolist() == e.gradient().tolist()



@st.composite
def batched_pairs(draw, nvars):
    """Two coefficient batches of B elements (degrees in 0..5) whose value
    coefficients are nonzero, so that either can divide."""
    size = draw(st.integers(1, 4))
    arrays = []
    for _ in range(2):
        degree = draw(st.integers(0, 5))
        shape = (size,) + (degree + 1,) * nvars
        n = int(np.prod(shape))
        c = np.array(draw(st.lists(_real_coefficient(), min_size=n, max_size=n))).reshape(shape)
        value = c[(slice(None),) + (0,) * nvars]
        value[value == 0] = 1.5
        arrays.append((degree, c))
    return size, arrays


def _batch_and_elements(jet, size, degree, c):
    """A batched jet of `jet`'s class and the scalar jets of its elements."""
    us = np.linspace(-1.0, 2.0, size)
    if jet is Jet2:
        vs = np.linspace(0.5, -0.5, size)
        return jet((us, vs), degree, c), [jet((us[i], vs[i]), degree, c[i]) for i in range(size)]
    return jet(us, degree, c), [jet(us[i], degree, c[i]) for i in range(size)]


ARITHMETIC = {
    "product": lambda a, b, k: a * b,
    "sum": lambda a, b, k: a + b,
    "difference": lambda a, b, k: a - b,
    "quotient": lambda a, b, k: a / b,
    "reciprocal": lambda a, b, k: 1.0 / a,
    "cube": lambda a, b, k: a**3,
    "plus per-element constant": lambda a, b, k: a + k,
    "times per-element constant": lambda a, b, k: a * k,
}


@given(batched_pairs(2), batched_pairs(1))
@settings(max_examples=100, deadline=None)
def test_batched_arithmetic_bit_identical_to_scalar(pairs2, pairs1):
    for jet, (size, ((da, A), (db, B))) in ((Jet2, pairs2), (Jet1, pairs1)):
        a, a_i = _batch_and_elements(jet, size, da, A)
        b, b_i = _batch_and_elements(jet, size, db, B)
        k = np.linspace(-2.0, 3.0, size)
        for name, op in ARITHMETIC.items():
            got = op(a, b, k).c
            for i in range(size):
                want = op(a_i[i], b_i[i], k[i]).c
                assert got[i].tobytes() == want.tobytes(), (name, i)


ELEMENTARY = {
    "sqrt": (jt.sqrt, (0.1, 10.0)),
    "exp": (jt.exp, (-3.0, 3.0)),
    "log": (jt.log, (0.1, 10.0)),
    "sin": (jt.sin, (-3.0, 3.0)),
    "cos": (jt.cos, (-3.0, 3.0)),
    "sinh": (jt.sinh, (-3.0, 3.0)),
    "cosh": (jt.cosh, (-3.0, 3.0)),
    "arctan": (jt.arctan, (-3.0, 3.0)),
    "artanh": (jt.artanh, (-0.9, 0.9)),
    "power": (lambda x: jt.power(x, 1.7), (0.1, 10.0)),
}


@given(st.sampled_from(sorted(ELEMENTARY)), st.sampled_from([Jet1, Jet2]), st.integers(0, 5),
       st.data())
@settings(max_examples=150, deadline=None)
def test_batched_elementary_functions_match_scalar(name, jet, degree, data):
    fn, (lo, hi) = ELEMENTARY[name]
    size = data.draw(st.integers(1, 4))
    shape = (size,) + (degree + 1,) * jet._NVARS
    c = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape))))).reshape(shape)
    c[(slice(None),) + (0,) * jet._NVARS] = data.draw(
        st.lists(st.floats(lo, hi), min_size=size, max_size=size))
    x, x_i = _batch_and_elements(jet, size, degree, c)
    got = fn(x).c
    for i in range(size):
        want = fn(x_i[i]).c
        assert np.all(np.abs(got[i] - want) <= 1e-13 * np.maximum(np.abs(want), np.abs(want).max()))


def test_batch_domain_errors_and_base_mismatch():
    u = Jet2.coordinate((np.array([0.5, 1.5]), np.zeros(2)), 2, 0)
    with pytest.raises(JetDomainError):
        jt.sqrt(1 - u)
    with pytest.raises(JetDivisionError):
        1.0 / (u - 0.5)
    with pytest.raises(jt.JetError, match="different base points"):
        u + Jet2.coordinate((np.array([0.5, 1.0]), np.zeros(2)), 2, 0)
    with pytest.raises(jt.JetError, match="different base points"):
        u * Jet2.coordinate((0.5, 0.0), 2, 0)
    # a scalar jet and a batch of one at the same point differ in batch shape
    scalar = Jet2.coordinate((0.5, 0.0), 2, 0)
    one = Jet2.coordinate((np.array([0.5]), np.zeros(1)), 2, 0)
    x, x1 = Jet1.coordinate(0.5, 2), Jet1.coordinate(np.array([0.5]), 2)
    for a, b in ((scalar, one), (one, scalar), (x, x1), (x1, x)):
        for op in (operator.mul, operator.add):
            with pytest.raises(jt.JetError, match="different base points"):
                op(a, b)
    with pytest.raises(jt.JetError, match="share base point"):
        VectorFieldJet(scalar, one)


@pytest.mark.parametrize("jet, base", [(Jet1, 0.5), (Jet2, (0.5, 0.0))])
def test_constructor_rejects_degree_base_and_coefficient_shapes(jet, base):
    c = jet.constant(1.0, base, 2).c
    with pytest.raises(jt.JetError, match=r"degree must be in \[0, 5\], got 6"):
        jet(base, 6, np.zeros((7,) * jet._NVARS))
    with pytest.raises(jt.JetError, match=r"degree must be in \[0, 5\], got -1"):
        jet(base, -1, c)
    square = np.zeros((2, 2))
    with pytest.raises(jt.JetError, match=r"got shapes \(2, 2\)"):
        jet(square if jet is Jet1 else (square, square), 2, np.zeros((2, 2) + c.shape))
    if jet is Jet2:
        with pytest.raises(jt.JetError, match=r"got shapes \(2,\), \(3,\)"):
            jet((np.zeros(2), np.zeros(3)), 2, np.zeros((2,) + c.shape))
        with pytest.raises(jt.JetError, match=r"got shapes \(2,\), \(\)"):
            jet((np.zeros(2), 0.0), 2, np.zeros((2,) + c.shape))
    with pytest.raises(jt.JetError, match=r"coefficient array must be \(3, 3\), got \(4, 3\)"
                       if jet is Jet2 else r"coefficient array must be \(3,\), got \(4,\)"):
        jet(base, 2, np.zeros((4,) + c.shape[1:]))
    batch = jet.coordinate(np.zeros(2) if jet is Jet1 else (np.zeros(2), np.zeros(2)), 2)
    with pytest.raises(jt.JetError, match=r"coefficient array must be \(2, 3"):
        jet(batch.base, 2, c)


def test_scalar_jets_give_numbers_not_0d_arrays():
    u = Jet2.coordinate((0.5, 1.0), 3, 0) * 2.0
    x = Jet1.coordinate(0.5, 3) * 2.0
    for got in (u.value, u.partial(1, 0), u.partial(0, 0), x.value, x.derivative_value(0),
                x.derivative_value(2), jt.exp(u).value):
        assert isinstance(got, float) and not isinstance(got, np.ndarray)
    assert u.value == 1.0 and u.partial(1, 0) == 2.0 and x.derivative_value(1) == 2.0
    batch = Jet2.coordinate((np.array([0.5, 1.5]), np.zeros(2)), 3, 0)
    assert batch.value.shape == batch.partial(1, 0).shape == (2,)


@given(st.integers(1, 4), st.integers(0, 5), st.integers(0, 5), st.data())
@settings(max_examples=100, deadline=None)
def test_batched_compose2_bit_identical_to_scalar(size, f_degree, degree, data):
    """F(U, V) of a batch, element by element against the scalar composition;
    F's coefficients are often zero, in some elements and not in others."""
    F_shape = (size, f_degree + 1, f_degree + 1)
    F_c = np.array(data.draw(st.lists(_real_coefficient(), min_size=int(np.prod(F_shape)),
                                      max_size=int(np.prod(F_shape))))).reshape(F_shape)
    uv_shape = (size, degree + 1, degree + 1)
    U_c, V_c = (np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=int(np.prod(uv_shape)),
                                            max_size=int(np.prod(uv_shape))))).reshape(uv_shape)
                for _ in range(2))
    F, F_i = _batch_and_elements(Jet2, size, f_degree, F_c)
    U_c[:, 0, 0], V_c[:, 0, 0] = F.base  # U, V take the values of F's base points
    new_base = (np.linspace(0.3, -0.7, size), np.linspace(1.0, 2.0, size))
    U, V = (Jet2(new_base, degree, c) for c in (U_c, V_c))
    got = jt.compose2(F, U, V).c
    for i in range(size):
        want = jt.compose2(F_i[i], U.element(i), V.element(i))
        assert want.base == (new_base[0][i], new_base[1][i])
        assert got[i].tobytes() == want.c.tobytes(), i


@given(st.integers(1, 4), st.integers(1, 5), st.data())
@settings(max_examples=100, deadline=None)
def test_batched_compose_inverse_bit_identical_to_scalar(size, degree, data):
    """The inverse of each element of a batch against the scalar inverse; the
    higher coefficients are often zero, in some elements and not in others."""
    shape = (size, degree + 1)
    c = np.array(data.draw(st.lists(_real_coefficient(), min_size=size * (degree + 1),
                                    max_size=size * (degree + 1)))).reshape(shape)
    c[:, 1] = data.draw(st.lists(st.floats(0.1, 10.0), min_size=size, max_size=size))
    c[:, 1] *= data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size, max_size=size))
    x, x_i = _batch_and_elements(Jet1, size, degree, c)
    inv = x.compose_inverse()
    for i in range(size):
        want = x_i[i].compose_inverse()
        assert inv.base[i] == want.base and inv.degree == want.degree
        assert inv.c[i].tobytes() == want.c.tobytes(), i


def test_batched_compose_inverse_rejects_a_vanishing_slope():
    x = Jet1(np.array([0.0, 1.0]), 2, np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 2.0]]))
    with pytest.raises(JetDomainError, match="not invertible"):
        x.compose_inverse()


def test_element_is_the_scalar_jet():
    u = Jet2.coordinate((np.array([0.5, 1.5]), np.array([0.0, 2.0])), 3, 0)
    e = u.element(1)
    assert e.base == (1.5, 2.0) and e.degree == 3
    assert e.c.tobytes() == Jet2.coordinate((1.5, 2.0), 3, 0).c.tobytes()
    x = Jet1.coordinate(np.array([0.5, 1.5]), 2)
    assert x.element(0).base == 0.5 and x.element(0).c.tolist() == [0.5, 1.0, 0.0]
