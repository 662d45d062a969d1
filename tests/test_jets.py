import operator
from unittest import mock

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
    assert comp.base == direct.base and comp.degree == direct.degree
    assert np.allclose(comp.c, direct.c, atol=1e-13, rtol=1e-12)


def test_partial_extraction_and_orders():
    u = Jet2.coordinate(BASE, 5, 0)
    v = Jet2.coordinate(BASE, 5, 1)
    f = u * u * v * 3.0
    assert f.partial(2, 1) == 6.0
    with pytest.raises(JetOrderError):
        f.partial(5, 1)


def test_truncated_is_the_jet_of_the_lower_degree():
    """A truncated Jet2 keeps the coefficients of total degree <= d and zeroes
    the square's slots above them: its .c is the degree-d evaluation's.  The
    degree-5 jets of delaunay-t at k = 2.3 have nonzero (1, 2), (2, 1) and
    (2, 2) slots, which a degree-2 evaluation does not."""
    from cmc_lab import surfaces as sf

    S = sf.delaunay_timelike(2.3, 0.5)
    for p in ((0.7, 1.1), (np.array([0.7, -0.3, 1.2]), np.array([1.1, 0.2, 2.5]))):
        high, low = S.jet(*p, 5), S.jet(*p, 2)
        assert any(np.any(x.c[..., 1:3, 1:3][..., [0, 1, 1], [1, 0, 1]]) for x in high)
        for x, y in zip(high, low):
            t = x.truncated(2)
            assert t.degree == 2 and t.base == x.base and t.c.tobytes() == y.c.tobytes()
            assert np.array_equal(t.c, y.c) and np.allclose(t.c, y.c)
    z = Jet2(BASE, 3, np.arange(16.0).reshape(4, 4) * (1 + 1j))
    assert np.array_equal(z.truncated(1).c, [[0, 1 + 1j], [4 + 4j, 0]])
    assert z.truncated(3) is z
    assert np.array_equal(Jet1(0.0, 3, np.arange(4.0)).truncated(2).c, [0.0, 1.0, 2.0])


def test_power_takes_integer_exponents_only():
    x = 2.0 + Jet2.coordinate(BASE, 4, 0)
    assert np.allclose((x**3).c, (x * x * x).c, atol=0, rtol=1e-15)
    assert np.allclose((x**-2).c, (1.0 / (x * x)).c, atol=0, rtol=1e-15)
    with pytest.raises(TypeError):
        x**0.5


def test_power_forms_no_power_beyond_its_exponent():
    """x ** 2 of a jet whose value is 1e100 is finite: the square-and-multiply
    loop does not square its base past the exponent's last bit (x^4 overflows)."""
    x = 1e100 + Jet1.coordinate(0.0, 5)
    with np.errstate(over="raise"):
        y = x**2
    assert y.value == 1e200 and y.c[1] == 2e100 and y.c[2] == 1.0


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


def reference_convolve(A, B, table):
    """The product kernel that built each batch's gather on every call: the
    reference the cached flat maps are held to, bit for bit (it fails on an
    empty batch)."""
    ia, ib, io, m = table
    n = A.size // m
    if n > 1:
        w = (A.reshape(n, m)[:, ia] * B.reshape(n, m)[:, ib]).ravel()
        io = (np.arange(0, n * m, m)[:, None] + io).ravel()
    else:
        w = A.ravel()[ia] * B.ravel()[ib]
    if w.dtype.kind == "c":
        out = np.empty(A.size, w.dtype)
        out.real = np.bincount(io, w.real, A.size)
        out.imag = np.bincount(io, w.imag, A.size)
    else:
        out = np.bincount(io, w, A.size)
    out.shape = A.shape
    return out


def _random_coefficients(rng, shape, is_complex):
    """Like _real_coefficient, elementwise: zero with probability 0.3, else
    +-10^e with e uniform in [-8, 8]; real and imaginary parts drawn apart."""
    def part():
        x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)
        x[rng.random(shape) < 0.3] = 0.0
        return x
    return part() + 1j * part() if is_complex else part()


@given(st.sampled_from([Jet1, Jet2]), st.integers(0, 5), st.integers(0, 5), st.booleans(),
       st.booleans(), st.one_of(st.none(), st.integers(0, 64)), st.integers(0, 2**32 - 1),
       st.one_of(st.none(), st.integers(0, 1 << 14)))
@settings(max_examples=300, deadline=None)
def test_batched_products_bit_identical_to_schoolbook_and_reference(jet, da, db, ca, cb, size,
                                                                     seed, budget):
    # size None: a scalar jet; 0: an empty batch; a small map budget multiplies
    # a batch in chunks (budget 0: one element at a time), None keeps the default
    rng = np.random.default_rng(seed)
    batch = () if size is None else (size,)
    A = _random_coefficients(rng, batch + (da + 1,) * jet._NVARS, ca)
    B = _random_coefficients(rng, batch + (db + 1,) * jet._NVARS, cb)
    base = (0.0 if jet is Jet1 else BASE) if size is None else (
        np.zeros(size) if jet is Jet1 else (np.zeros(size), np.zeros(size)))
    a, b = jet(base, da, A), jet(base, db, B)
    with mock.patch.object(jt, "_MAPS", jt._MAPS if budget is None else {}), \
            mock.patch.object(jt, "_PASS_BYTES", jt._PASS_BYTES if budget is None else budget):
        got = (a * b).c
        assert (a * b).c.tobytes() == got.tobytes()  # the second product reuses the maps
    D = min(da, db)
    assert got.shape == batch + (D + 1,) * jet._NVARS
    assert got.dtype == np.result_type(A, B)
    schoolbook = schoolbook_product2 if jet is Jet2 else schoolbook_product1
    for i in np.ndindex(batch):
        assert got[i].tobytes() == schoolbook(A[i], B[i]).tobytes()
    if size != 0:
        want = reference_convolve(a._coeffs(D), b._coeffs(D), jt._PAIRS[jet._NVARS][D])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("jet", [Jet1, Jet2])
def test_an_empty_batch_gives_empty_batches(jet):
    x = jet.coordinate(np.array([]) if jet is Jet1 else (np.array([]), np.array([])), 3)
    results = (x * x, x * 2.0, 1.0 / (x + 1.0), x / (x + 2.0), jt.sqrt(x + 1.0), (x + 1.0) ** 3,
               jt.sin(x))
    for y in results:
        assert y.c.shape == (0,) + (4,) * jet._NVARS and y.value.shape == (0,)


def test_flat_maps_are_views_of_the_capacity_maps():
    with mock.patch.object(jt, "_MAPS", {}):
        u = Jet2.coordinate((np.zeros(3), np.ones(3)), 5, 0)
        u * u
        n = jt._capacity(2, 5)
        full = jt._MAPS[2, 5]  # the capacity's maps, built by the first product
        assert [len(idx) for idx in full] == [n * len(jt._PAIRS[2][5][0])] * 3
        assert not any(idx.flags.writeable for idx in full)
        maps = jt._flat_maps(2, 5, 3 * 36)
        assert all(np.shares_memory(idx, whole) and len(idx) == 3 * len(jt._PAIRS[2][5][0])
                   for idx, whole in zip(maps, full))
        # every size reads views of the capacity's maps, built once per pair table
        for size in range(2, 400):
            x = Jet1.coordinate(np.zeros(size), 5)
            x * x
        assert set(jt._MAPS) == {(2, 5), (1, 5)}
        assert jt._MAPS[2, 5] is full
        # a batch over the capacity is multiplied in chunks of the capacity
        v = Jet2.coordinate((np.zeros(3 * n + 2), np.ones(3 * n + 2)), 5, 0)
        assert jt._flat_maps(2, 5, v.c.size) is None
        got = (v * v).c
        assert all(got[i].tobytes() == schoolbook_product2(v.c[i], v.c[i]).tobytes()
                   for i in range(3 * n + 2))


@pytest.mark.parametrize("jet", [Jet1, Jet2])
def test_scalar_constructors_store_float_bases(jet):
    # a base of floats skips the batch normalisation; other numbers take the
    # general path; both store Python floats
    points = [0.5, np.float64(0.5), 1, np.int64(1)] if jet is Jet1 else \
        [(0.5, 0.0), (np.float64(0.5), 0.0), (1, 0), [0.5, 0.0], (np.float64(0.5), np.int64(0))]
    for point in points:
        for made in (jet.constant(2.0, point, 3), jet.coordinate(point, 3),
                     jet(point, 3, np.zeros((4,) * jet._NVARS))):
            coords = made.base if jet is Jet2 else (made.base,)
            assert all(type(x) is float for x in coords) and made.degree == 3
        # the batch path, on a batch of one at the same point
        one = np.array([float(point)]) if jet is Jet1 else tuple(np.array([float(x)]) for x in point)
        for made, batch in ((jet.constant(2.0, point, 3), jet.constant(2.0, one, 3)),
                            (jet.coordinate(point, 3), jet.coordinate(one, 3))):
            assert made.c.tobytes() == batch.c[0].tobytes()
    assert jet.constant(1j, points[0], 2).c.dtype == complex
    assert jet.coordinate(points[0], 0).c.tolist() == ([0.5] if jet is Jet1 else [[0.5]])
    for degree in (6, -1):
        with pytest.raises(jt.JetError, match=rf"degree must be in \[0, 5\], got {degree}"):
            jet.constant(1.0, points[0], degree)


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
    "log": (jt.log, (0.1, 10.0)),
    "sin": (jt.sin, (-3.0, 3.0)),
    "cos": (jt.cos, (-3.0, 3.0)),
    "sinh": (jt.sinh, (-3.0, 3.0)),
    "cosh": (jt.cosh, (-3.0, 3.0)),
    "arctan": (jt.arctan, (-3.0, 3.0)),
    "artanh": (jt.artanh, (-0.9, 0.9)),
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
                x.derivative_value(2), jt.sin(u).value):
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


def _compose2_per_term(F, U, V):
    """F(U, V) term by term in the jet algebra, one component at a time: the
    reference composition, skipping a term that vanishes in every element."""
    du, dv = U - F.base[0], V - F.base[1]
    D = min(U.degree, V.degree)
    one = type(U).constant(1.0, U.base, D)
    pu, pv = [one], [one]
    for _ in range(F.degree):
        pu.append(pu[-1] * du)
        pv.append(pv[-1] * dv)
    out = type(U).constant(0.0, U.base, D)
    for a in range(F.degree + 1):
        for b in range(F.degree + 1 - a):
            if np.any(F.c[..., a, b]):
                out = out + (pu[a] * pv[b]) * F.c[..., a, b]
    return out


@given(st.integers(0, 3), st.integers(1, 6), st.integers(0, 5), st.integers(0, 5),
       st.sampled_from([Jet1, Jet2]), st.data())
@settings(max_examples=100, deadline=None)
def test_compose2_of_a_tuple_bit_identical_to_each_component(size, n, f_degree, degree, curve,
                                                            data):
    """n jets composed as one tuple, and one at a time, against the per-term
    reference: a scalar jet (size 0) or a batch, along a curve (Jet1) or through
    a change of chart (Jet2); a term often vanishes in some components only."""
    batch = (size,) if size else ()
    F_shape = (n,) + batch + (f_degree + 1, f_degree + 1)
    F_c = np.array(data.draw(st.lists(_real_coefficient(), min_size=int(np.prod(F_shape)),
                                      max_size=int(np.prod(F_shape))))).reshape(F_shape)
    F_base = (np.linspace(-1.0, 2.0, size), np.linspace(0.5, -0.5, size)) if size else (0.25, -0.5)
    Fs = tuple(Jet2(F_base, f_degree, c) for c in F_c)
    uv_shape = batch + (degree + 1,) * curve._NVARS
    U_c, V_c = (np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=int(np.prod(uv_shape)),
                                            max_size=int(np.prod(uv_shape))))).reshape(uv_shape)
                for _ in range(2))
    U_c[curve._VALUE_AT], V_c[curve._VALUE_AT] = F_base  # U, V take the values of F's base
    new_base = (np.linspace(0.3, -0.7, size), np.linspace(1.0, 2.0, size)) if size else (0.3, 1.0)
    U, V = (curve(new_base if curve is Jet2 else new_base[0], degree, c) for c in (U_c, V_c))
    got = jt.compose2(Fs, U, V)
    assert type(got) is tuple and len(got) == n
    for F, G in zip(Fs, got):
        want = _compose2_per_term(F, U, V)
        for jet in (G, jt.compose2(F, U, V)):
            assert type(jet) is curve and jet.degree == want.degree
            assert jet.c.tobytes() == want.c.tobytes()


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


# -- the stacked kernels against the jet-by-jet kernels they replaced ---------
# Each reference below is the operation as it was written in the jet algebra,
# one Jet product or sum at a time; the array kernels must agree to the bit.


def reference_compose(jet, series):
    """Horner evaluation of sum_n series[n] * (jet - value)^n, jet by jet."""
    c = jet.c.copy()
    c[jet._VALUE_AT] = 0
    hat = jet._like(jet.degree, c)
    out = hat * 0 + series[-1]
    for n in range(len(series) - 2, -1, -1):
        out = out * hat + series[n]
    return out


def reference_power(jet, p):
    """jet ** p (p >= 0) by binary powering, jet by jet."""
    out = type(jet).constant(1.0, jet.base, jet.degree)
    b, n = jet, p
    while n:
        if n & 1:
            out = out * b
        n >>= 1
        if n:
            b = b * b
    return out


def reference_compose2(F, U, V):
    """compose2 with one Jet product per power and per term."""
    Fs = (F,) if isinstance(F, Jet2) else tuple(F)
    d = Fs[0].degree
    du = U - Fs[0].base[0]
    dv = V - Fs[0].base[1]
    D = min(U.degree, V.degree)
    one = type(U).constant(1.0, U.base, D)
    pu, pv = [one], [one]
    for _ in range(d):
        pu.append(pu[-1] * du)
        pv.append(pv[-1] * dv)
    W = np.stack([f.c for f in Fs])
    nonzero = W.reshape(len(Fs), -1, d + 1, d + 1).any(axis=1) & jt._TRIANGLE[d]
    out = np.zeros((len(Fs),) + one.c.shape, np.result_type(W, one.c))
    lift = (1,) * U._NVARS
    for a, b in np.argwhere(nonzero.any(axis=0)).tolist():
        w = W[..., a, b]
        np.add(out, (pu[a] * pv[b]).c * w.reshape(w.shape + lift), out=out,
               where=nonzero[:, a, b].reshape((-1,) + (1,) * (out.ndim - 1)))
    comps = tuple(one._like(D, c) for c in out)
    return comps[0] if isinstance(F, Jet2) else comps


def reference_apply(field, f):
    return field.e1 * f.du() + field.e2 * f.dv()


def reference_field_chain(X, field, k):
    """field_chain with one apply per jet of X and order."""
    if k > min(j.degree for j in X):
        raise JetOrderError("jet order exhausted")
    chain = [X]
    for _ in range(k):
        for j in chain[-1]:
            if j.degree < 1:
                raise JetOrderError("jet order exhausted")
        chain.append([reference_apply(field, j) for j in chain[-1]])
    return np.array([np.stack([j.value for j in row], axis=-1) for row in chain])


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _jet_of(jet, base, degree, c):
    return jet(base if jet is Jet2 else base[0], degree, c)


# size None: a scalar jet; a size over the capacity (86 elements at degree 5 in two
# variables) or a small map budget splits the stacked passes and chunks a product
SIZES = st.one_of(st.none(), st.integers(1, 4), st.integers(87, 120))
BUDGETS = st.one_of(st.none(), st.integers(0, 1 << 14))


def _bases(size, shift=0.0):
    if size is None:
        return (0.25 + shift, -0.5)
    return (np.linspace(-1.0, 2.0, size) + shift, np.linspace(0.5, -0.5, size))


def _maps_budget(budget):
    return (mock.patch.object(jt, "_MAPS", jt._MAPS if budget is None else {}),
            mock.patch.object(jt, "_PASS_BYTES", jt._PASS_BYTES if budget is None else budget))


@given(st.sampled_from([Jet1, Jet2]), SIZES, st.integers(0, 5), st.integers(1, 6),
       st.sampled_from(["real", "complex", "complex series"]), BUDGETS, st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_horner_and_powers_bit_identical_to_the_jet_kernels(jet, size, degree, n, kind, budget,
                                                            seed):
    rng = np.random.default_rng(seed)
    batch = () if size is None else (size,)
    c = _random_coefficients(rng, batch + (degree + 1,) * jet._NVARS, kind == "complex")
    x = _jet_of(jet, _bases(size), degree, c)
    series = [_random_coefficients(rng, (size or 1,), kind != "real") for _ in range(n)]
    if size is None:
        series = [s.item() for s in series]  # numbers, as the scalar elementary functions give
    m, b = _maps_budget(budget)
    with m, b:
        got = jt._compose(x, series)
        powers = [x**p for p in range(6)]
    want = reference_compose(x, series)
    assert type(got) is jet and got.degree == degree and _same_bits(got.c, want.c)
    for p, got in enumerate(powers):
        assert _same_bits(got.c, reference_power(x, p).c), p


@given(SIZES, st.integers(1, 3), st.integers(0, 5), st.integers(0, 5), st.sampled_from([Jet1, Jet2]),
       st.sampled_from(["real", "complex", "complex V"]), BUDGETS, st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_compose2_bit_identical_to_the_jet_kernel(size, n, f_degree, degree, curve, kind, budget,
                                                 seed):
    """Several components or one, through a change of chart or along a curve;
    complex F with complex U and V, or with V alone complex."""
    rng = np.random.default_rng(seed)
    batch = () if size is None else (size,)
    F_base = _bases(size)
    Fs = [Jet2(F_base, f_degree,
               _random_coefficients(rng, batch + (f_degree + 1,) * 2, kind != "real"))
          for _ in range(n)]
    U_c, V_c = (_random_coefficients(rng, batch + (degree + 1,) * curve._NVARS, cplx)
                for cplx in (kind == "complex", kind != "real"))
    U_c[curve._VALUE_AT], V_c[curve._VALUE_AT] = F_base  # U, V take the values of F's base
    U, V = (_jet_of(curve, _bases(size, 0.5), degree, c) for c in (U_c, V_c))
    for F in (Fs[0], Fs):
        m, b = _maps_budget(budget)
        with m, b:
            got = jt.compose2(F, U, V)
        want = reference_compose2(F, U, V)
        for g, w in zip(*((x,) if isinstance(F, Jet2) else x for x in (got, want))):
            assert type(g) is curve and g.degree == w.degree and _same_bits(g.c, w.c)


@given(SIZES, st.lists(st.integers(1, 5), min_size=1, max_size=3), st.integers(0, 5),
       st.integers(1, 5), st.booleans(), BUDGETS, st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_field_chains_bit_identical_to_the_jet_kernels(size, degrees, e_degree, k, is_complex,
                                                       budget, seed):
    """Field chains of orders 1 to 5 over jets of one degree or several, and one
    field application per jet; a chain the degrees cannot carry raises in both."""
    rng = np.random.default_rng(seed)
    batch = () if size is None else (size,)
    base = _bases(size)
    X = [Jet2(base, d, _random_coefficients(rng, batch + (d + 1,) * 2, is_complex)) for d in degrees]
    field = VectorFieldJet(*(Jet2(base, e_degree, _random_coefficients(rng, batch + (e_degree + 1,) * 2,
                                                                       is_complex and i))
                             for i in range(2)))
    m, b = _maps_budget(budget)
    with m, b:
        try:
            got = jt.field_chain(X, field, k)
        except JetOrderError:
            got = None
        applied = [apply_vector_field(field, j) for j in X]
    try:
        want = reference_field_chain(X, field, k)
    except JetOrderError:
        assert got is None
    else:
        assert _same_bits(got, want) and got.flags.c_contiguous
    for j, g in zip(X, applied):
        w = reference_apply(field, j)
        assert g.degree == w.degree and g.base == w.base and _same_bits(g.c, w.c)


def test_field_passes_check_order_and_base():
    X = (Jet2.coordinate(BASE, 2, 0), Jet2.coordinate(BASE, 5, 1))
    du = VectorFieldJet.constant(1.0, 0.0, BASE)
    with pytest.raises(JetOrderError, match="jet order exhausted"):
        jt.field_chain(X, du, 3)
    assert jt.field_chain(X, du, 2).tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    elsewhere = VectorFieldJet.constant(1.0, 0.0, (1.0, 0.0))
    with pytest.raises(jt.JetError, match="different base points"):
        jt.field_chain(X, elsewhere, 1)
    assert jt.field_chain(X, elsewhere, 0).tolist() == [[0.0, 0.0]]  # no pass, no check
