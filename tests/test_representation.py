import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cmc_lab import jets as jt
from cmc_lab import representation as rp
from cmc_lab import surfaces as sf
from cmc_lab.jets import Jet1, Jet2, partial_values
from cmc_lab.lorentz import euclid_inner, lorentz_inner
from cmc_lab.quadrature import Integrand, integrate
from cmc_lab.representation import (
    GaussData,
    compatibility_residuals,
    conformal_profile_chart,
    derivative_identity_residual,
    extended_harmonic_residual,
    gauss_codazzi_residual,
    gauss_map_of,
    harmonic_residual,
    integrate_representation,
    laplacian_identity_residual,
    representation_constant,
    representation_roundtrip,
)
from cmc_lab.surfaces import NotSpacelikeError


def _tilted_plane():
    """A spacelike plane with constant normal (5/4, 3/4, 0): g = const = -3."""
    n = np.array([5 / 4, 3 / 4, 0.0])
    e1 = np.array([3 / 4, 5 / 4, 0.0])  # <e1, n>_L = 0, spacelike
    e2 = np.array([0.0, 0.0, 1.0])

    def builder(u0, v0, degree):
        uj = Jet2.coordinate((u0, v0), degree, 0)
        vj = Jet2.coordinate((u0, v0), degree, 1)
        return tuple(uj * e1[i] + vj * e2[i] for i in range(3))

    return sf.custom_surface(builder, H=0.0)


# -- conformal chart ------------------------------------------------------------


def test_profile_chart_derivative_closed_form(profile_t_k2):
    # s'(r) = 1/(H sqrt(delta)) = 2/sqrt(delta) at H = 1/2, k = 2
    for r in (0.3, 0.7, 1.2):
        sj = profile_t_k2.s_jet(r, 2)
        assert abs(sj.c[1] - 2 / math.sqrt((r * r + 3) ** 2 - 8)) < 1e-12


def test_profile_chart_anchor_and_inverse(profile_t_k2):
    assert profile_t_k2.s_of_r(profile_t_k2.r_anchor) == 0.0
    s = profile_t_k2.s_of_r(0.9)
    assert abs(profile_t_k2.r_of_s(s) - 0.9) < 1e-12


def test_profile_chart_conformality(profile_t_k2):
    for r in (0.25, 0.7, 1.45):
        res = profile_t_k2.conformality_residual(profile_t_k2.s_of_r(r), 0.3)
        assert res < 1e-9


@pytest.mark.parametrize("build", [lambda: sf.standard_model("cusp25"),
                                   lambda: sf.conjugate_of("delaunay_lightlike_i", H=0.5)],
                         ids=["cusp25", "conjugate of delaunay-l-i"])
def test_profile_chart_requires_a_delaunay_surface(build):
    # the chart's speed is a closed form per Delaunay family; a lightlike
    # conjugate carries a variant too, but no chart
    with pytest.raises(ValueError, match="no conformal profile chart") as e:
        conformal_profile_chart(build(), 0.2, 1.0)
    assert not isinstance(e.value, NotSpacelikeError)


def test_profile_chart_clips_axis():
    S = sf.delaunay_timelike(2.0, 0.5)
    prof = conformal_profile_chart(S, -0.5, 1.0)
    assert prof.r_range[0] > 0
    assert prof.notes


# the charts `rep --export-from` builds: r from 0.15 to 0.65 of the domain end
EXPORT_CHARTS = {
    "delaunay-t k=2": lambda: sf.delaunay_timelike(2.0, 0.5),
    "delaunay-t k=-0.5": lambda: sf.delaunay_timelike(-0.5, 0.7),
    "delaunay-s k=2": lambda: sf.delaunay_spacelike(2.0, 0.5),
    "delaunay-l-i": lambda: sf.delaunay_lightlike("i", 0.5),
}


def _export_chart(name):
    S = EXPORT_CHARTS[name]()
    r_hi = S.u_range[1]
    return S, conformal_profile_chart(S, 0.15 * r_hi, 0.65 * r_hi)


def _surface_speed(S, conditioning=False):
    """sqrt(E/G) along t = 0 from the surface's own degree-1 jets: the route
    the closed form of `_chart_speed` replaced, an array function of r.  With
    `conditioning`, the function also returns |X_r|^2 / |E| (|X_r| Euclidean),
    the factor by which E = <X_r, X_r> cancels: its relative rounding error."""
    def speed(r):
        X = S.jet(r, np.zeros(np.shape(r)), 1)
        Xu, Xv = [c.du().value for c in X], [c.dv().value for c in X]
        E = lorentz_inner(Xu, Xu)
        value = np.sqrt(E / lorentz_inner(Xv, Xv))
        return (value, euclid_inner(Xu, Xu) / np.abs(E)) if conditioning else value

    return speed


@pytest.mark.parametrize("name", EXPORT_CHARTS)
def test_export_path_integrand_evaluations(monkeypatch, name):
    # s(r) is a closed form: an export evaluates the speed only in the Newton steps
    # of r(s), over the rows still open, and in the rows' jets (5-6 calls, 44-52
    # radii; integrating s(r) per root-finder step made 834-984 calls)
    samples = []
    speed = rp._chart_speed

    def counted(S):
        f = speed(S)
        return Integrand(lambda x: samples.append(np.size(x.value if isinstance(x, Jet1) else x))
                         or f.expr(x))

    monkeypatch.setattr(rp, "_chart_speed", counted)
    S, prof = _export_chart(name)
    r0, r1 = prof.r_range
    s0, s1 = prof.s_of_r(r0 * 1.02), prof.s_of_r(r1 * 0.98)
    rp.gauss_data_from_surface(prof, s0, s1, 0.0, 1.0, 9, 5)
    assert 0 < sum(samples) <= 100


@pytest.mark.parametrize("name", EXPORT_CHARTS)
def test_chart_values_and_inverse(name):
    S, prof = _export_chart(name)
    r0, r1 = prof.r_range
    for r in np.linspace(r0, r1, 41):
        ref, _ = integrate(_surface_speed(S), prof.r_anchor, r, 1e-11)
        s = prof.s_of_r(r)
        assert abs(s - ref) <= 2e-11
        assert abs(prof.r_of_s(s) - r) <= 1e-13
    s_lo, s_hi = prof.s_range
    for s in (math.nextafter(s_lo, -math.inf), math.nextafter(s_hi, math.inf)):
        with pytest.raises(ValueError):
            prof.r_of_s(s)


@pytest.mark.parametrize("size", [2, 4, 5])
def test_batched_sigma_jet_is_the_per_s_jets(profile_t_k2, size):
    # sigma = log r(s): one batched log of the batched jet of r(s)
    prof = profile_t_k2
    ss = np.linspace(prof.s_of_r(0.3), prof.s_of_r(1.3), size)
    got = prof.sigma_jet(ss, 3)
    assert got.c.shape == (size, 4)
    for i, s in enumerate(ss):
        want = prof.sigma_jet(float(s), 3)
        assert got.base[i] == want.base
        # log of an array may round its last bits apart from log of one value
        assert np.all(np.abs(got.c[i] - want.c) <= 1e-13 * np.abs(want.c).max())


# -- Gauss data and residuals ------------------------------------------------------


# the families `rep --export-from` takes, with the k range drawn from
EXPORT_FAMILIES = {
    "delaunay-t": (lambda k, H: sf.delaunay_timelike(k, H), (-3.0, 4.0)),
    "delaunay-s": (lambda k, H: sf.delaunay_spacelike(k, H), (-3.0, 4.0)),
    "delaunay-l-i": (lambda k, H: sf.delaunay_lightlike("i", H), None),
    "delaunay-l-ii": (lambda k, H: sf.delaunay_lightlike("ii", H), None),
}


# k in each stratum of the Delaunay families: either side of the branch points -1, 0 and 1
K_STRATA = ((-3.0, -1.25), (-1.0, -1.0), (-0.75, -0.25), (0.25, 0.75), (1.25, 4.0))


@given(st.sampled_from(sorted(EXPORT_FAMILIES)), st.sampled_from(K_STRATA), st.floats(0.0, 1.0),
       st.floats(0.3, 1.2), st.booleans())
@settings(max_examples=40, deadline=None)
def test_chart_speed_is_the_surface_metric(family, stratum, t, H, negative):
    """The closed form of sqrt(E/G) against the surface's own jets, over the
    radii `rep --export-from` charts (0.15 to 0.65 of the domain end): within
    1e-13 relative, times the factor by which E cancels on the surface route
    (about an axis 1 - F'^2 = 4 r^2/delta; up to about 100 on delaunay-s near k = 1.25,
    where the two differ by 3.4e-13)."""
    build, ks = EXPORT_FAMILIES[family]
    k = stratum[0] + t * (stratum[1] - stratum[0]) if ks else None
    S = build(k, -H if negative else H)
    r = np.linspace(0.15, 0.65, 41) * S.u_range[1]
    got, (want, cancel) = rp._chart_speed(S)(r), _surface_speed(S, conditioning=True)(r)
    assert np.all(np.abs(got - want) <= 1e-13 * cancel * want)


# charts whose s(r) is elementary: (surface, the primitive of 1/sqrt(radicand))
EXACT_CHARTS = {
    # s' = 1/(|H| (1 + r^2)) and 1/(|H| (1 - r^2)) about the lightlike axis
    "delaunay-l-i": (lambda H: sf.delaunay_lightlike("i", H), math.atan),
    "delaunay-l-ii": (lambda H: sf.delaunay_lightlike("ii", H), math.atanh),
    # at k = 0 delta = (r^2 + 1)^2 about the timelike axis, (r^2 - 1)^2 about the spacelike one
    "delaunay-t k=0": (lambda H: sf.delaunay_timelike(0.0, H), math.atan),
    "delaunay-s k=0": (lambda H: sf.delaunay_spacelike(0.0, H), math.atanh),
}


@pytest.mark.parametrize("H", [0.5, -1.1, -0.3, 1e-5])
@pytest.mark.parametrize("name", EXACT_CHARTS)
def test_chart_is_the_exact_primitive(name, H):
    # s(r) = (arctan r - arctan r_a)/|H| or (artanh r - artanh r_a)/|H|, within
    # 1e-14 of the chart's largest |s| (at least 1)
    build, exact = EXACT_CHARTS[name]
    S = build(H)
    r_hi = S.u_range[1]
    prof = conformal_profile_chart(S, 0.15 * r_hi, 0.65 * r_hi)
    rs = np.linspace(*prof.r_range, 33)
    scale = max(1.0, *(abs(exact(r) - exact(prof.r_anchor)) / abs(H) for r in prof.r_range))
    for i, r in enumerate(rs):
        want = (exact(r) - exact(prof.r_anchor)) / abs(H)
        assert abs(prof.s_of_r(r) - want) <= 1e-14 * scale
        if 0 < i < len(rs) - 1:  # at the ends the exact s may lie an ulp outside s_range
            assert abs(prof.r_of_s(want) - r) <= 1e-13


@given(st.sampled_from(["delaunay-t", "delaunay-s"]), st.sampled_from(K_STRATA), st.floats(0.0, 1.0),
       st.floats(0.3, 1.2), st.booleans())
@settings(max_examples=40, deadline=None)
def test_chart_is_the_integral_of_its_speed(family, stratum, t, H, negative):
    """s(r) in closed form against `integrate` of the closed-form speed at
    tol 1e-13, over the radii `rep --export-from` charts; r(s) of all of them
    in one solve is, row for row, r(s) of each alone."""
    build, _ = EXPORT_FAMILIES[family]
    S = build(stratum[0] + t * (stratum[1] - stratum[0]), -H if negative else H)
    r_hi = S.u_range[1]
    prof = conformal_profile_chart(S, 0.15 * r_hi, 0.65 * r_hi)
    rs = np.linspace(*prof.r_range, 9)
    speed = rp._chart_speed(S)
    for r in rs:
        want, _ = integrate(speed, prof.r_anchor, r, 1e-13)
        assert abs(prof.s_of_r(r) - want) <= 1e-13 * max(1.0, abs(want))
    ss = prof.s_of_r(rs)
    got = prof.r_of_s(ss)
    assert np.all(np.abs(got - rs) <= 1e-13)
    assert got.tolist() == [prof.r_of_s(s) for s in ss.tolist()]


def _close(got, want):
    """Within 1e-13 of the largest modulus in `want`."""
    want = np.asarray(want)
    return np.all(np.abs(np.asarray(got) - want) <= 1e-13 * np.abs(want).max())


@given(st.sampled_from(sorted(EXPORT_FAMILIES)), st.floats(0.0, 1.0), st.floats(0.3, 1.0),
       st.integers(2, 6), st.integers(2, 5))
@settings(max_examples=20, deadline=None)
def test_gauss_data_nodes_match_per_node_evaluation(family, t, H, ns, nt):
    """The batched grid against _gauss_jet_in_chart node by node, as `rep
    --export-from` builds it."""
    build, ks = EXPORT_FAMILIES[family]
    k = None
    if ks:
        k = ks[0] + t * (ks[1] - ks[0])
        if abs(k - 1) < 0.25 or abs(k) < 0.25:
            k = 2.0
    S = build(k, H)
    r0, r1 = 0.15 * S.u_range[1], 0.65 * S.u_range[1]
    prof = conformal_profile_chart(S, r0, r1)
    s0, s1 = prof.s_of_r(r0 * 1.02), prof.s_of_r(r1 * 0.98)
    gd = rp.gauss_data_from_surface(prof, s0, s1, 0.0, 1.0, ns, nt)
    for i in range(ns):
        s = s0 + i * gd.du
        rj = prof.r_jet_of_s(s, 5)
        for j in range(nt):
            t_ = 0.0 + j * gd.dv
            gj = rp._gauss_jet_in_chart(prof, rj, s, t_, 4)
            node = gd.g_jet.element(i * nt + j)
            assert node.base == gj.base and node.degree == gj.degree == 4
            assert _close(node.c, gj.c)
            assert _close(gd.g[i, j], gj.value)
            assert _close(gd.omega_hat[i, j], rp.omega_hat_jet(gj).value)


def _grid_of(gj, g, omega_hat, nu=1, nv=1):
    """GaussData of nu x nv copies of one node: the scalar jet gj, g and omega_hat."""
    i, j = np.divmod(np.arange(nu * nv), nv)
    base = (gj.base[0] + 0.1 * i, gj.base[1] + 0.1 * j)
    batch = Jet2(base, gj.degree, np.repeat(gj.c[None], nu * nv, axis=0))
    return GaussData(*gj.base, 0.1, 0.1, nu, nv, 0.5, batch,
                     np.full((nu, nv), g, complex), np.full((nu, nv), omega_hat, complex))


def test_gauss_map_values(delaunay_t_k2):
    g = gauss_map_of(delaunay_t_k2, (0.5, 0.3))
    assert 0 < g.abs() < 1  # lower-sheet normal on the r > 0 side
    g2 = gauss_map_of(delaunay_t_k2, (-0.5, 0.3))
    assert g2.abs() > 1


def test_gauss_map_abs_straddles_unity(delaunay_t_k2):
    vals = [gauss_map_of(delaunay_t_k2, (r, 0.2)).abs() for r in (1e-3, -1e-3)]
    assert (vals[0] - 1) * (vals[1] - 1) < 0


def test_harmonic_residual_small_on_delaunay(gauss_data_t_k2):
    gd = gauss_data_t_k2
    assert harmonic_residual(gd).shape == (gd.nu, gd.nv)
    assert harmonic_residual(gd).max() < 1e-6


def test_extended_equals_harmonic_off_circle(gauss_data_t_k2):
    gd = gauss_data_t_k2
    d = abs(harmonic_residual(gd) - extended_harmonic_residual(gd))
    assert (d < 1e-9 * np.maximum(abs(gd.g), 1.0)).all()


def test_residuals_on_the_unit_circle_and_without_omega_hat(gauss_data_t_k2):
    import copy

    gd = copy.deepcopy(gauss_data_t_k2)
    gd.g[0, 0] = 1.0
    gd.omega_hat[1, 2] = complex(math.inf, 0.0)
    h, e = harmonic_residual(gd), extended_harmonic_residual(gd)
    assert np.isnan(h[0, 0]) and np.isfinite(e[0, 0])
    assert np.isnan(e[1, 2]) and np.isfinite(h[1, 2])
    assert np.isfinite(np.delete(h.ravel(), 0)).all()


def test_holomorphic_gauss_map_residuals_vanish():
    # g = z^2 + 1/2 (holomorphic): both residuals are zero, omega_hat = 0
    base = (0.3, 0.2)
    z = Jet2.coordinate(base, 3, 0) + 1j * Jet2.coordinate(base, 3, 1)
    gj = z * z + 0.5
    om = rp.omega_hat_jet(gj)
    assert abs(om.value) < 1e-15
    gd = _grid_of(gj, gj.value, om.value)
    assert harmonic_residual(gd)[0, 0] < 1e-14
    assert extended_harmonic_residual(gd)[0, 0] < 1e-14


def test_antiholomorphic_example_residual_and_omega():
    # g = conj(z)/2 at z = 0: g_zzbar = 0, g_z = 0 -> residual 0; omega_hat = 1/2
    base = (0.0, 0.0)
    gj = (Jet2.coordinate(base, 3, 0) - 1j * Jet2.coordinate(base, 3, 1)) * 0.5
    om = rp.omega_hat_jet(gj)
    assert abs(complex(om.value) - 0.5) < 1e-15
    gd = _grid_of(gj, gj.value, om.value)
    assert harmonic_residual(gd)[0, 0] == 0.0


def test_gauss_data_json_roundtrip(gauss_data_t_k2):
    text = gauss_data_t_k2.to_json()
    gd2 = GaussData.from_json(text)
    assert gd2.to_json() == text
    assert gd2.validate() == []


def test_gauss_data_json_strict_with_infinite_omega_hat():
    gj = Jet2.constant(0.25 + 0.1j, (0.0, 0.0), 2)
    gd = _grid_of(gj, 0.25 + 0.1j, complex(math.inf, 0.0))
    text = gd.to_json()

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    json.loads(text, parse_constant=reject)
    gd2 = GaussData.from_json(text)
    assert gd2.to_json() == text
    assert gd.validate() == gd2.validate() == [(0, 0, "omega_hat not finite")]


def test_eq_barz_limit_toward_curve(delaunay_t_k2, profile_t_k2):
    """g_zbar -> 0 approaching the |g| = 1 locus: extrapolated limit < 1e-5."""
    prof = profile_t_k2
    vals = []
    for r in (2e-2, 1e-2, 5e-3):
        s = prof.s_of_r(r) if r >= prof.r_range[0] else None
        gj = rp._gauss_jet_in_chart(prof, prof.s_jet(r, 3).compose_inverse(), 0.0, 0.3, 2)
        vals.append(abs(complex(rp._zbar_derivative(gj).value)))
    limit = vals[2] * 8 / 3 - 2 * vals[1] + vals[0] / 3
    assert abs(limit) < 1e-5


# -- representation integration --------------------------------------------------


def test_loop_closedness(gauss_data_t_k2):
    rec = integrate_representation(gauss_data_t_k2, z0=(12, 6))
    assert rec["loop_max_rel"] < 1e-8


def _integrate_per_node(gd, z0):
    """integrate_representation node by node and edge by edge: the reference
    the array version must match bit for bit."""
    nu, nv, du, dv = gd.nu, gd.nv, gd.du, gd.dv
    V, Vu, Vv, Vu3, Vv3 = (np.zeros((nu, nv, 3), dtype=complex) for _ in range(5))
    for i in range(nu):
        for j in range(nv):
            jets = rp._integrand_jets(gd.g_jet.element(i * nv + j))
            for c in range(3):
                V[i, j, c] = jets[c].value
                Vu[i, j, c] = jets[c].du().value
                Vv[i, j, c] = jets[c].dv().value
                if jets[c].degree >= 3:
                    Vu3[i, j, c] = jets[c].partial(3, 0)
                    Vv3[i, j, c] = jets[c].partial(0, 3)

    def edge_u(i, j):
        return (du / 2 * (V[i, j] + V[i + 1, j]) - du**2 / 12 * (Vu[i + 1, j] - Vu[i, j])
                + du**4 / 720 * (Vu3[i + 1, j] - Vu3[i, j]))

    def edge_v(i, j):
        return 1j * (dv / 2 * (V[i, j] + V[i, j + 1]) - dv**2 / 12 * (Vv[i, j + 1] - Vv[i, j])
                     + dv**4 / 720 * (Vv3[i, j + 1] - Vv3[i, j]))

    I = np.zeros((nu, nv, 3), dtype=complex)
    i0, j0 = z0
    for i in range(i0 + 1, nu):
        I[i, j0] = I[i - 1, j0] + edge_u(i - 1, j0)
    for i in range(i0 - 1, -1, -1):
        I[i, j0] = I[i + 1, j0] - edge_u(i, j0)
    for i in range(nu):
        for j in range(j0 + 1, nv):
            I[i, j] = I[i, j - 1] + edge_v(i, j - 1)
        for j in range(j0 - 1, -1, -1):
            I[i, j] = I[i, j + 1] - edge_v(i, j)
    loop_max, worst = 0.0, (0, 0)
    for i in range(nu - 1):
        for j in range(nv - 1):
            loop = edge_u(i, j) + edge_v(i + 1, j) - edge_u(i, j + 1) - edge_v(i, j)
            scale = max(np.linalg.norm(V[i, j]) * (abs(du) + abs(dv)), 1e-300)
            rel = float(np.linalg.norm(np.real(loop))) / scale
            if rel > loop_max:
                loop_max, worst = rel, (i, j)
    return 2.0 * representation_constant(gd.H) * np.real(I), V, loop_max, worst


@pytest.mark.parametrize("z0", [(0, 0), (12, 6), (24, 12)])
def test_integrate_representation_bit_identical_to_a_per_node_loop(gauss_data_t_k2, z0):
    X, V, loop_max, worst = _integrate_per_node(gauss_data_t_k2, z0)
    rec = integrate_representation(gauss_data_t_k2, z0=z0)
    assert rec["X"].tobytes() == X.tobytes() and rec["integrand"].tobytes() == V.tobytes()
    assert rec["loop_max_rel"] == loop_max and rec["worst_cell"] == worst


@given(st.integers(2, 4), st.integers(2, 4), st.integers(3, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_integrate_representation_bit_identical_on_random_grids(nu, nv, degree, data):
    """Random complex g jets with |g| < 1 (degree 5 reaches the third-derivative
    edge terms); a small grid makes each cell's loop the worst in some example."""
    n = nu * nv * (degree + 1) ** 2
    c = 0.5 * np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n)))
    i, j = np.divmod(np.arange(nu * nv), nv)
    gj = Jet2((0.1 * i, 0.2 * j), degree, c.view(complex).reshape(nu * nv, degree + 1, degree + 1))
    om = rp.omega_hat_jet(gj).value
    assume((abs(om) >= 1e-14).any())
    gd = GaussData(0.0, 0.0, 0.1, 0.2, nu, nv, 0.5, gj, gj.value.reshape(nu, nv), om.reshape(nu, nv))
    z0 = (data.draw(st.integers(0, nu - 1)), data.draw(st.integers(0, nv - 1)))
    X, V, loop_max, worst = _integrate_per_node(gd, z0)
    rec = integrate_representation(gd, z0=z0)
    assert rec["X"].tobytes() == X.tobytes() and rec["integrand"].tobytes() == V.tobytes()
    assert rec["loop_max_rel"] == loop_max and rec["worst_cell"] == worst
    assert type(rec["worst_cell"][0]) is int


def test_roundtrip_reconstruction(profile_t_k2, gauss_data_t_k2):
    rt = representation_roundtrip(profile_t_k2, gauss_data_t_k2)
    assert rt["discrepancy"] < 1e-5


# the round trip's gate grid: every export family, each k where the family takes one, three H
ROUNDTRIP_CASES = [(family, k, H) for H in (0.3, 0.5, 1.2) for family in sorted(EXPORT_FAMILIES)
                   for k in ((-2.0, -1.0, -0.01, 0.01, 2.0) if EXPORT_FAMILIES[family][1] else (None,))]


@pytest.mark.parametrize("family,k,H", ROUNDTRIP_CASES)
def test_roundtrip_holds_on_every_export_family(family, k, H):
    """On the chart and 25 x 13 grid of `rep --export-from`, the chart's sign
    follows the surface's orientation: the reconstruction matches the surface
    and X_z = c V holds at every third node."""
    S = EXPORT_FAMILIES[family][0](k, H)
    r0, r1 = 0.15 * S.u_range[1], 0.65 * S.u_range[1]
    prof = conformal_profile_chart(S, r0, r1)
    s0, s1 = prof.s_of_r(r0 * 1.02), prof.s_of_r(r1 * 0.98)
    gd = rp.gauss_data_from_surface(prof, s0, s1, 0.0, 1.0, 25, 13)
    rec = integrate_representation(gd, z0=(12, 6))
    assert representation_roundtrip(prof, gd, rec)["discrepancy"] <= 1e-7
    i, j = np.divmod(np.arange(0, gd.nu * gd.nv, 3), gd.nv)
    X = prof.surface_jets(gd.u0 + i * gd.du, gd.v0 + j * gd.dv, 1)
    Xu, Xv = partial_values(X, 1, 0), partial_values(X, 0, 1)
    worst = max(derivative_identity_residual(gd, a, b, Xu[n], Xv[n]) for n, (a, b) in enumerate(zip(i, j)))
    assert worst <= 1e-10


def test_derivative_identity(profile_t_k2, gauss_data_t_k2):
    gd = gauss_data_t_k2
    for (i, j) in ((3, 3), (12, 6), (20, 10)):
        Xj = profile_t_k2.surface_jets(gd.u0 + i * gd.du, gd.v0 + j * gd.dv, 2)
        Xu = np.array([c.du().value for c in Xj])
        Xv = np.array([c.dv().value for c in Xj])
        assert derivative_identity_residual(gd, i, j, Xu, Xv) < 1e-7


def test_representation_constant_is_single_sourced():
    assert representation_constant(0.5) == -2.0
    assert representation_constant(1.0) == -1.0


def test_constant_gauss_map_rejected():
    base = (0.0, 0.0)
    gj = Jet2.constant(0.25 + 0.1j, base, 3)
    gd = _grid_of(gj, gj.value, 0j, 2, 2)
    with pytest.raises(ValueError, match="holomorphic Gauss map excluded"):
        integrate_representation(gd)


# -- compatibility equations and the Laplace identity --------------------------------


def test_gauss_codazzi_on_delaunay(profile_t_k2):
    for s in np.linspace(-0.5, 0.3, 5):
        for t in (0.2, 0.8):
            rg, rc = gauss_codazzi_residual(profile_t_k2, float(s), t)
            assert rg < 1e-6
            assert rc < 1e-7  # constant H: the Hopf coefficient is holomorphic


def test_compatibility_residuals_trivial_case():
    rg, rc = compatibility_residuals(0.0, 0.0, 0j, 0j, 0.0)
    assert rg == 0.0 and rc == 0.0


def test_laplacian_identity_on_surfaces(delaunay_t_k2, conj_k2):
    assert laplacian_identity_residual(delaunay_t_k2, (1.0, 0.3)) < 1e-6
    assert laplacian_identity_residual(conj_k2, (1.0, 0.3)) < 1e-6


def test_laplacian_plane_exact():
    plane = _tilted_plane()
    assert laplacian_identity_residual(plane, (0.2, -0.4)) < 1e-13


def test_laplacian_rejects_singular_point(delaunay_t_k2):
    with pytest.raises(NotSpacelikeError):
        laplacian_identity_residual(delaunay_t_k2, (0.0, 0.3))
