"""Acceptance gate: every criterion at its stated tolerance, one line each.

The PASS/FAIL lines are collected by the conftest terminal-summary hook, so a
plain `pytest -v` run shows them at the end of the session.
"""

import math

import numpy as np

import conftest
from reference_quadrature import simpson_oracle
from cmc_lab import jets as jt
from cmc_lab import representation as rp
from cmc_lab import singularities as sg
from cmc_lab import surfaces as sf
from cmc_lab.jets import Jet2, VectorFieldJet


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[ACCEPTANCE] criterion {num} ({name}): {status} {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- criterion 1: conjugate classification across (H, k) ---------------------------


def test_criterion_1_conjugate_classification():
    # the third case is (1/2, 3): the criterion's "(1,3)" contradicts its own
    # expected value -36 = -36/((1/2) |3-1|)^3 and the H = 1/2 pin elsewhere
    cases = [(0.5, 2.0, -288.0), (0.5, 0.5, -2304.0), (0.5, 3.0, -36.0)]
    ok = True
    details = []
    for H, k, expected in cases:
        S = sf.conjugate_of("delaunay_timelike", k=k, H=H)
        recs = sg.trace_singular_curve(S, box=(-0.3, 0.3, 0.05, 2.15), n_grid=21)
        rep = sg.criterion_25(S, recs)
        case_ok = (
            len(recs) >= 20
            and rep.verdict == "cusp25"
            and rep.condition3_max_abs_det < 1e-7
            and all(abs(s.cond4_det - expected) <= 1e-5 * abs(expected) for s in rep.samples)
        )
        formula = sg.conjugate_condition4_det(S.meta["branch"], k, H)
        details.append(
            f"(H={H},k={k}): n={len(recs)}, verdict={rep.verdict}, "
            f"cond4={rep.condition4_det:.6f} vs {formula}"
        )
        ok &= case_ok
    _report(1, "conjugate (2,5)-cuspidal edges", ok, "; ".join(details))


# -- criterion 2: signed area density closed form ----------------------------------


def test_criterion_2_signed_area_density(conj_k2):
    H, k = 0.5, 2.0
    delta = lambda r: (r * r + k + 1) ** 2 - 4 * k
    formula = lambda r: r * math.sqrt(delta(r) - (k + 1) * r * r) / (
        H * math.sqrt(k + 1) * math.sqrt(delta(r))
    )
    rng = np.random.default_rng(2024)
    points = []
    for _ in range(50):
        r = rng.uniform(0.05, 1.9) * rng.choice([-1.0, 1.0])
        points.append((r, rng.uniform(0.0, 2.0)))
    # det(X_u, X_v, n/|n|) at every point from one batched frontal evaluation
    r, t = np.array(points).T
    X, _, n, _, _, _ = sg._frontal_at(conj_k2, r, t)
    n = n / np.linalg.norm(n, axis=-1, keepdims=True)
    lam = np.linalg.det(np.concatenate([sg._dX_of(X), n[..., None]], axis=-1))
    want = np.array([formula(x) for x in r])
    worst = float(np.max(np.abs(lam - want) / np.abs(want)))
    grad_ok = True
    for t in np.linspace(0.1, 2.0, 7):
        lj = sg._lambda_jet(conj_k2, (0.0, float(t)), 2)
        dlam = np.array([lj.partial(1, 0), lj.partial(0, 1)])
        grad_ok &= abs(dlam[0] - 1.0 / (H * math.sqrt(k + 1))) < 1e-8 and abs(dlam[1]) < 1e-8
    _report(2, "signed area density closed form", worst < 1e-9 and grad_ok,
            f"max rel err {worst:.2e}; dlambda along the axis = dr/(H sqrt(k+1)): {grad_ok}")


# -- criterion 3: special null field ------------------------------------------------


def test_criterion_3_special_null_field(conj_k2, conj_k2_records):
    ok = True
    worst = {"a": 0.0, "b": 0.0, "res": 0.0, "C": 0.0, "col": 0.0}
    for rec in conj_k2_records[:8]:
        (a, b), _, res, e = sg.special_null_field(sg.StraightChart(conj_k2, rec).jets())
        C, col = sg.constant_C(e)
        worst["a"] = max(worst["a"], abs(a))
        worst["b"] = max(worst["b"], abs(b - 2.0))
        worst["res"] = max(worst["res"], max(res))
        worst["C"] = max(worst["C"], abs(C))
        worst["col"] = max(worst["col"], col)
    ok = (
        worst["a"] < 1e-7
        and worst["b"] < 1e-7
        and worst["res"] < 1e-8
        and worst["C"] < 1e-8
        and worst["col"] < 1e-8
    )
    _report(3, "special null field (a,b) = (0,2), C = 0", ok, str(worst))


# -- criterion 4: standard-model truth table ----------------------------------------


def test_criterion_4_standard_model_truth_table(cusp25_model, cuspidal_edge_model, fold_model):
    recs25 = sg.trace_singular_curve(cusp25_model, box=(-1, 1, -1, 1), n_grid=7)
    rep25 = sg.criterion_25(cusp25_model, recs25)
    ok25 = rep25.verdict == "cusp25" and abs(rep25.condition4_det - 720.0) < 1e-12 * 720

    recs_e = sg.trace_singular_curve(cuspidal_edge_model, box=(-1, 1, -1, 1), n_grid=7)
    rep_e = sg.criterion_25(cuspidal_edge_model, recs_e)
    ok_e = rep_e.verdict == "rejected_cond3" and abs(rep_e.samples[0].cond3_det - 12.0) < 1e-12 * 12

    recs_f = sg.trace_singular_curve(fold_model, box=(-1, 1, -1, 1), n_grid=7)
    rep_f = sg.criterion_25(fold_model, recs_f)
    ft = sg.fold_symmetry_test(fold_model, recs_f[:1])[0]
    ok_f = ft.verdict == "fold_candidate" and ft.residual < 1e-12 and rep_f.verdict == "rejected_cond4"

    _report(4, "standard-model truth table", ok25 and ok_e and ok_f,
            f"cusp25 det={rep25.condition4_det}, cuspidal-edge cond3={rep_e.samples[0].cond3_det}, "
            f"fold=({ft.verdict},{rep_f.verdict})")


# -- criterion 5: fold-obstruction certificates across the three axis types ----------


def test_criterion_5_fold_obstruction_certificates():
    surfaces = [
        sf.delaunay_timelike(2.0, 0.5),
        sf.delaunay_spacelike(-1.0, 0.5),
        sf.delaunay_lightlike("i", 0.5),
        sf.delaunay_lightlike("ii", 0.5),
    ]
    ok = True
    details = []
    for S in surfaces:
        hw = 0.5 * S.u_range[1]
        recs = sg.trace_singular_curve(S, box=(-hw, hw, *S.v_range), n_grid=9)
        recs = [r for r in recs if r.rank == 1]
        assert recs, S.family
        certs = sg.cmc_fold_obstruction(S, recs[:5], flank=0.45 * S.u_range[1])
        fam_ok = all(
            cert["sides"]["plus"]["abs_g_minus_1"] < 1e-6
            and cert["sides"]["minus"]["abs_g_minus_1"] < 1e-6
            and cert["sheet_flip"]
            and cert["laplacian_residual_max"] is not None
            and cert["laplacian_residual_max"] < 1e-5
            and ft.verdict == "rejected"
            for cert, ft in zip(certs, sg.fold_symmetry_test(S, recs[:5]))
        )
        details.append(f"{S.family}: {'ok' if fam_ok else 'FAIL'} ({len(recs)} samples)")
        ok &= fam_ok
    _report(5, "no folds on CMC surfaces (certificates)", ok, "; ".join(details))


# -- criterion 6: invariance suite ---------------------------------------------------


def test_criterion_6_invariance_suite(cusp25_model, conj_k2, conj_k2_records):
    rng = np.random.default_rng(20240809)
    base = (0.0, 0.0)
    u = Jet2.coordinate(base, 5, 0)
    v = Jet2.coordinate(base, 5, 1)
    xi0 = VectorFieldJet.constant(0.0, 1.0, base)
    recs25 = sg.trace_singular_curve(cusp25_model, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)
    m = len(conj_k2_records) // 2
    targets = [
        (cusp25_model, recs25[len(recs25) // 2], recs25[:: max(1, len(recs25) // 3)][:3]),
        (conj_k2, conj_k2_records[m], conj_k2_records[m - 4 : m + 5 : 4]),
    ]
    field_ok = 0
    trials_per = 50
    for S, rec, curve_samples in targets:
        chart = sg.StraightChart(S, rec)
        Y = chart.jets()
        curve_jets = [sg.StraightChart(S, r).jets() for r in curve_samples]
        (_, _), eta0, _, e0 = sg.special_null_field(Y)
        C0, _ = sg.constant_C(e0)
        d4_0, _ = sg.condition4_det(sg.xi_X(Y, None), e0, C0)
        for _ in range(trials_per):
            c = rng.uniform(-0.8, 0.8, size=11)
            a1 = Jet2.constant(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]), base) + c[0] * u + c[1] * v
            b2 = Jet2.constant(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]), base) + c[2] * u + c[3] * v
            a2 = u * (c[4] + c[5] * u + c[6] * v)
            b1g = u * (c[7] + c[8] * v)
            b1s = u ** 3 * (c[9] + c[10] * v)
            eta_plain = VectorFieldJet.constant(1.0, 0.0, base)
            xib, etab, _ = sg.perturb_fields(xi0, eta_plain, a1, a2, b1g, b2)
            # the vanishing condition must survive the change along the curve
            r3 = max(sg.condition3_det(Yc, xi=xib, eta=etab)[1] for Yc in curve_jets)
            xis, etas, pred = sg.perturb_fields(xi0, eta0, a1, a2, b1s, b2, special=True)
            es = jt.field_chain(Y, etas, 5)
            Cb, _ = sg.constant_C(es)
            d4b, _ = sg.condition4_det(sg.xi_X(Y, xis), es, Cb)
            field_ok += r3 < 1e-7 and abs(d4b / d4_0 - pred) / abs(pred) < 1e-6

    models = [
        ("cusp25", "cusp25"),
        ("fold", "rejected_cond4"),
        ("cuspidal_edge", "rejected_cond3"),
    ]
    baselines = {}
    for name, verdict in models:
        S = sf.standard_model(name)
        recs = sg.trace_singular_curve(S, box=(-0.4, 0.4, -0.4, 0.4), n_grid=5)
        ft = sg.fold_symmetry_test(S, [recs[len(recs) // 2]])[0]
        baselines[name] = (S, verdict, ft.verdict)
    diffeo_ok = 0
    n_diffeos = 50
    for i in range(n_diffeos):
        det_target = rng.uniform(0.5, 2.0)
        A = np.eye(3) + rng.uniform(-0.35, 0.35, (3, 3))
        A *= (det_target / abs(np.linalg.det(A))) ** (1 / 3)
        Q = rng.uniform(-0.1, 0.1, (3, 3, 3))
        Cc = rng.uniform(-0.05, 0.05, (3, 3, 3, 3))
        name = models[i % len(models)][0]
        S, verdict, foldv = baselines[name]
        P = sg.diffeo_push(S, A, Q, Cc)
        recs = sg.trace_singular_curve(P, box=(-0.4, 0.4, -0.4, 0.4), n_grid=5)
        found = sg.criterion_25(P, recs)
        ft = sg.fold_symmetry_test(P, [recs[len(recs) // 2]])[0]
        diffeo_ok += found.verdict == verdict and ft.verdict == foldv

    ok = field_ok == 2 * trials_per and diffeo_ok == n_diffeos
    _report(6, "field-change and diffeomorphism invariance", ok,
            f"fields {field_ok}/{2*trials_per}, diffeos {diffeo_ok}/{n_diffeos}")


# -- criterion 7: conjugacy isometry at H = 1/2 ---------------------------------------


def test_criterion_7_conjugate_isometry(delaunay_t_k2, conj_k2):
    rs = np.linspace(0.12, 1.9, 20)
    ts = np.linspace(0.05, 2.0, 20)
    worst_iso = worst_H = 0.0
    for r in rs:
        for t in ts:
            f1 = sf.fundamental_forms(delaunay_t_k2, (r, t))
            f2 = sf.fundamental_forms(conj_k2, (r, t))
            worst_iso = max(worst_iso, abs(f1.E - f2.E) + abs(f1.F - f2.F) + abs(f1.G - f2.G))
            worst_H = max(worst_H, abs(f1.H_mean - 0.5), abs(f2.H_mean - 0.5))
    ok = worst_iso < 1e-7 and worst_H < 1e-7
    _report(7, "conjugacy isometry at H = 1/2", ok,
            f"max |ds^2 - ds^2#| = {worst_iso:.2e}, max |H_mean - 1/2| = {worst_H:.2e} on 20x20")


# -- criterion 8: representation round trip -------------------------------------------


def test_criterion_8_representation_roundtrip(profile_t_k2, gauss_data_t_k2):
    gd = gauss_data_t_k2
    hmax = rp.harmonic_residual(gd).max()
    rec = rp.integrate_representation(gd, z0=(12, 6))
    rt = rp.representation_roundtrip(profile_t_k2, gd, rec)
    gc = [rp.gauss_codazzi_residual(profile_t_k2, float(s), float(t))
          for s in np.linspace(-0.6, 0.35, 5) for t in (0.2, 0.9)]
    worst_g = max(g for g, c in gc)
    worst_c = max(c for g, c in gc)
    ok = (
        hmax < 1e-6
        and rec["loop_max_rel"] < 1e-8
        and rt["discrepancy"] < 1e-5
        and worst_g < 1e-6
        and worst_c < 1e-6
    )
    _report(8, "representation round trip", ok,
            f"harmonic {hmax:.2e}, loops {rec['loop_max_rel']:.2e}, "
            f"roundtrip {rt['discrepancy']:.2e}, compatibility ({worst_g:.2e},{worst_c:.2e})")


# -- criterion 9: numerical-kernel oracles ---------------------------------------------


def test_criterion_9_numerical_kernel_oracles():
    # jet engine vs hand values on polynomial models (exact)
    u = Jet2.coordinate((0.0, 0.0), 5, 0)
    v = Jet2.coordinate((0.0, 0.0), 5, 1)
    dv = VectorFieldJet.constant(0.0, 1.0, (0.0, 0.0))
    exact = (
        np.array_equal(jt.iterated_field_derivative((u, v * v, v**5), dv, 5), [0, 0, 120])
        and np.array_equal(jt.iterated_field_derivative((u, v * v, v**3), dv, 3), [0, 0, 6])
        and np.array_equal(jt.iterated_field_derivative((u, v * v, v**5), dv, 2), [0, 2, 0])
    )

    # jet engine vs Richardson finite differences on transcendental composites
    def richardson(fn, x, h=1e-3):
        d1 = (fn(x + h) - fn(x - h)) / (2 * h)
        d2 = (fn(x + h / 2) - fn(x - h / 2)) / h
        return (4 * d2 - d1) / 3

    rng = np.random.default_rng(99)
    fd_ok = True
    for _ in range(8):
        a, b = rng.uniform(0.3, 1.2, 2)
        u0, v0 = rng.uniform(-0.4, 0.4, 2)

        def build(uu, vv):
            return jt.sin(a * uu + vv * vv) / jt.sqrt(2.0 + jt.cos(b * vv)) + jt.arctan(uu * vv)

        f = build(Jet2.coordinate((u0, v0), 5, 0), Jet2.coordinate((u0, v0), 5, 1))
        fu = richardson(lambda x: build(x, v0), u0)
        fv = richardson(lambda x: build(u0, x), v0)
        fd_ok &= abs(f.c[1, 0] - fu) < 1e-7 * max(1, abs(fu))
        fd_ok &= abs(f.c[0, 1] - fv) < 1e-7 * max(1, abs(fv))

    # the shipped closed-form profiles F(1.5) (Carlson's R_F, R_D and R_J) vs
    # 1e6-panel composite Simpson on their integrands
    def timelike(k):
        return lambda x: (x * x + k - 1) / np.sqrt((x * x + k + 1) ** 2 - 4 * k)

    def spacelike(k):
        return lambda x: (x * x - k + 1) / np.sqrt((x * x - k - 1) ** 2 - 4 * k)

    def conj_lambda(k, H):
        K = abs(1 + k)
        return lambda x: (
            math.sqrt(2 * K) * x**4
            / (H * np.sqrt((x * x + k + 1) ** 2 - 4 * k) * (2 * (k + 1) * x * x + (1 - k) ** 2))
        )

    def conj_phi(k, H):
        K = abs(1 + k)
        return lambda x: (
            math.sqrt(2 * K) * (1 - k) * x * x
            / (np.sqrt((x * x + k + 1) ** 2 - 4 * k) * (2 * (k + 1) * x * x + (1 - k) ** 2))
        )

    # (closed-form value at 1.5, integrand)
    cases = [(sf.delaunay_timelike(k, 0.5).meta["profile"].value(1.5), timelike(k))
             for k in (2.0, 0.5, 3.0)]
    cases.append((sf.delaunay_spacelike(-1.0, 0.5).meta["profile"].value(1.5), spacelike(-1.0)))
    for k in (2.0, 0.5, 3.0):
        value = sf.conjugate_of("delaunay_timelike", k, 0.5).meta["profile"].value(1.5)
        cases += [(value.real, conj_lambda(k, 0.5)), (value.imag, conj_phi(k, 0.5))]
    quad_ok = True
    worst = 0.0
    for val, f in cases:
        oracle = simpson_oracle(f, 0.0, 1.5, panels=1_000_000)
        worst = max(worst, abs(val - oracle))
        quad_ok &= abs(val - oracle) < 1e-9

    ok = exact and fd_ok and quad_ok
    _report(9, "numerical-kernel oracles", ok,
            f"polynomial exact: {exact}, FD oracle: {fd_ok}, "
            f"closed-form profiles F(1.5) vs Simpson worst |diff| = {worst:.2e} over {len(cases)} profiles")
