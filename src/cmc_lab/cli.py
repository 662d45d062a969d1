"""Command-line front end: build surfaces and meshes, classify singular
curves, sweep parameters, run the verification suites, and integrate the
representation formula.  All output goes to files (OBJ / JSON / CSV).

Exit codes: 0 ok, 1 property/verdict failure or computational failure,
2 bad input, 3 I/O failure.  Identical config + seed produce byte-identical
payloads; wall-clock timing lives in a separate envelope field.

In-process callers share one parser: `main` builds it on its first call and
keeps it for the life of the process.  The subcommand (`cmd_<name>`) and the
flag converters are looked up by name at each call, so a later rebinding of
them (a profiler's wrapper, a test's monkeypatch) still takes effect.  The
`verify` fields suite's two fixed target charts are likewise computed once.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from . import representation as rp
from . import singularities as sg
from . import surfaces as sf
from .jets import Jet2, VectorFieldJet, field_chain, partial_values

FAMILIES = {
    "delaunay-t": "delaunay_timelike",
    "delaunay-s": "delaunay_spacelike",
    "delaunay-l-i": "delaunay_lightlike_i",
    "delaunay-l-ii": "delaunay_lightlike_ii",
    "model-fold": "model_fold",
    "model-cuspidal-edge": "model_cuspidal_edge",
    "model-25": "model_25",
    "model-cone": "model_cone",
}


# rep --export-from on delaunay-t and delaunay-s: the exported Gauss data's harmonic residual
# grows like k^2 (3e-6 at |k| = 1e3, 5e-2 at 2.5e4, the bound at H = 1/2, 4 at 1e5, 9e4 at 3e6)
# while the chart meets its tolerance up to |k| = 1e7 at least; the bound keeps g harmonic
EXPORT_K_PER_H, EXPORT_K_MAX = 5e4, 1e7


class InputError(ValueError):
    pass


def build_surface(family: str, k=None, H=0.5, variant=None, of=None, r_cap=None):
    """The surface named by the CLI flags.  `variant` is ignored (a lightlike
    variant is part of the family name); it stays for positional callers."""
    kw = {} if r_cap is None else {"r_cap": r_cap}
    if family == "conjugate":
        if of is None:
            raise InputError("--family conjugate requires --of <base family>")
        base = FAMILIES.get(of, of)
        if base.startswith("delaunay_lightlike"):
            return sf.conjugate_of(base, H=H, variant=base.rsplit("_", 1)[-1], **kw)
        return sf.conjugate_of(base, k=k, H=H, **kw)
    name = FAMILIES.get(family, family)
    if name == "delaunay_timelike":
        _need(k, "--k")
        return sf.delaunay_timelike(k, H, **kw)
    if name == "delaunay_spacelike":
        _need(k, "--k")
        return sf.delaunay_spacelike(k, H, **kw)
    if name == "delaunay_lightlike_i":
        return sf.delaunay_lightlike("i", H, **kw)
    if name == "delaunay_lightlike_ii":
        return sf.delaunay_lightlike("ii", H, **kw)
    if name.startswith("model_"):
        return sf.standard_model(name.removeprefix("model_").replace("25", "cusp25"))
    raise InputError(f"unknown family {family!r}")


def _need(value, flag):
    if value is None:
        raise InputError(f"{flag} is required for this family")


def _at_least(minimum, **flags):
    """Reject a count below `minimum`; each keyword names its flag (nr for --nr)."""
    for name, value in flags.items():
        if value < minimum:
            raise InputError(f"--{name} must be at least {minimum}, got {value}")


def finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and +-inf are bad input."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def positive_float(text: str) -> float:
    """argparse type of --r-cap: a finite number above zero."""
    value = finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type of the tolerances (--tol3, --tol4, --tol-C, --loop-tol): a
    finite number at or above zero."""
    value = finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text!r}")
    return value


def _by_name(name: str):
    """An argparse type that calls this module's binding of `name` at parse time,
    not the function bound when the shared parser was built; argparse's error
    messages name it `name` as before."""

    def convert(text):
        return globals()[name](text)

    convert.__name__ = name
    return convert


def _float_list(text: str, flag: str) -> list:
    """A comma-separated list of finite floats (sweep's --k and --H)."""
    try:
        return [finite_float(x) for x in text.split(",") if x.strip() != ""]
    except (ValueError, argparse.ArgumentTypeError) as e:
        raise InputError(f"{flag}: {e}") from e


def envelope(config: dict, results, t_start: float) -> dict:
    return {
        "tool": "cmc-lab",
        "version": __version__,
        "config": config,
        "results": results,
        "timing": {"seconds": time.time() - t_start},
    }


def write_json(path, payload):
    """Strict JSON (RFC 8259), indented by 2 with sorted keys: undefined
    numbers are written as null.  The text goes out in one write."""
    with open(path, "w") as fh:
        fh.write(sf._json_text(payload) + "\n")


# -- generate -----------------------------------------------------------------


def cmd_generate(args) -> int:
    t0 = time.time()
    _at_least(2, nr=args.nr, nt=args.nt)
    S = build_surface(args.family, args.k, args.H, of=args.of, r_cap=args.r_cap)
    for flag, span, (lo, hi) in (("--r-range", args.r_range, S.u_range),
                                 ("--t-range", args.t_range, S.v_range)):
        if span and not lo <= span[0] < span[1] <= hi:
            raise InputError(f"{flag} must be an increasing pair inside the admissible "
                             f"interval [{lo}, {hi}] of {S.family}, got {span[0]} {span[1]}")
    u_range = tuple(args.r_range) if args.r_range else None
    v_range = tuple(args.t_range) if args.t_range else None
    mesh = sf.mesh_export(S, args.nr, args.nt, u_range=u_range, v_range=v_range)
    if args.singular_curve:
        recs = sg.trace_singular_curve(S, n_grid=max(9, args.nr // 3))
        mesh.sidecar["singular_curve"] = [r.as_dict() for r in recs]
    mesh.sidecar["config"] = _config_dict(args)
    mesh.sidecar["seed"] = args.seed
    sidecar = mesh.write_obj(args.out)
    print(f"wrote {args.out} and {sidecar}")
    return 0


# -- classify -----------------------------------------------------------------


def _scan(S, args):
    """The singular samples over the whole domain at --grid, and the (2,5)
    criterion on them (None without samples); classify and sweep share it."""
    recs = sg.trace_singular_curve(S, n_grid=args.grid)
    if not recs:
        return recs, None
    return recs, sg.criterion_25(S, recs, tol3=args.tol3, tol4=args.tol4, tol_C=args.tol_C)


def _fold_tests(S, recs, criterion, rows: slice):
    """The fold tests of recs[rows], on the criterion's chart of recs where there is one."""
    if criterion is not None and criterion.jets is not None:
        return sg.fold_symmetry_of_chart(criterion.jets)[rows]
    return sg.fold_symmetry_test(S, recs[rows])


def classify_payload(S, args) -> dict:
    recs, criterion = _scan(S, args)
    shown = slice(args.samples)
    certificates = []
    if S.family.startswith("delaunay"):
        certificates = sg.cmc_fold_obstruction(S, [rec for rec in recs[shown] if rec.rank == 1])
    report = sg.classification_report(S, recs, criterion, certificates)
    report["unconfirmed_roots"] = recs.unconfirmed_roots
    report["fold_symmetry"] = [f.as_dict() for f in _fold_tests(S, recs, criterion, shown)]
    report["tolerances"] = {"tol3": args.tol3, "tol4": args.tol4, "tol_C": args.tol_C}
    return report


def cmd_classify(args) -> int:
    t0 = time.time()
    _at_least(2, grid=args.grid)
    _at_least(0, samples=args.samples)
    S = build_surface(args.family, args.k, args.H, of=args.of, r_cap=args.r_cap)
    report = classify_payload(S, args)
    payload = envelope(_config_dict(args), report, t0)
    write_json(args.out, payload)
    verdict = report["criterion"]["verdict"] if report["criterion"] else "no-singular-points"
    print(f"classified {S.family}: verdict {verdict}; report at {args.out}")
    return 0


# -- sweep ---------------------------------------------------------------------


def sweep_row(k, H, args) -> dict:
    row = dict.fromkeys(("k", "H", "branch", "template", "h", "rho0", "cond4_det",
                         "predicted_case_I", "rel_diff", "verdict", "error"), "")
    row.update(k=k, H=H)
    try:
        S = build_surface("conjugate", k, H, of="delaunay-t")
        row["branch"] = S.meta["branch"]
        row["template"] = S.meta["template"]
        row["h"] = repr(S.meta["h"])
        row["rho0"] = repr(S.meta["rho0"])
        _, rep = _scan(S, args)
        row["verdict"] = rep.verdict if rep else "no-singular-points"
        if rep and rep.condition4_det is not None:  # None: not computed, nothing to compare
            row["cond4_det"] = repr(rep.condition4_det)
            pred = sg.conjugate_condition4_det(S.meta["branch"], k, H)
            row["predicted_case_I"] = repr(pred)
            row["rel_diff"] = repr(abs(rep.condition4_det - pred) / abs(pred))
    except Exception as e:  # per-row failures recorded, sweep continues
        row["error"] = f"{type(e).__name__}: {e}"
    return row


def cmd_sweep(args) -> int:
    t0 = time.time()
    ks = _float_list(args.k, "--k")
    Hs = _float_list(args.H, "--H")
    if not ks or not Hs:
        raise InputError("sweep needs nonempty --k and --H lists")
    _at_least(2, grid=args.grid)
    rows = [sweep_row(k, H, args) for H in Hs for k in ks]
    with open(args.out, "w", newline="") as fh:
        sg.sweep_rows_to_csv(rows, fh)
    meta = {
        "config": _config_dict(args),
        "rows": len(rows),
        "provenance": {"predicted_case_I": "closed-form", "cond4_det": "computed"},
        "timing": {"seconds": time.time() - t0},
    }
    write_json(args.out + ".json", meta)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


# -- verify ----------------------------------------------------------------------


@functools.cache
def _field_targets():
    """The fields suite's two targets, computed on the first call and shared from
    then on: their family names and a read-only (3, 2, 6, 6) array, [i, t] the
    coefficients of component i of target t's chart at its middle record.  Only
    these immutable values are kept, never a surface (its caches would grow)."""
    targets = [(sf.standard_model("cusp25"), (-0.5, 0.5, -0.5, 0.5)),
               (sf.conjugate_of("delaunay_timelike", k=2.0, H=0.5), (-0.3, 0.3, 0.2, 1.0))]
    charts = []
    for S, box in targets:
        recs = sg.trace_singular_curve(S, box=box, n_grid=5)
        charts.append(sg.StraightChart(S, recs[len(recs) // 2]).jets())
    coeffs = np.array([[Yt[i].c for Yt in charts] for i in range(3)], dtype=np.float64)
    coeffs.flags.writeable = False
    return tuple(S.family for S, _ in targets), coeffs


def _suite_fields(trials, rng, failures):
    """All trials as one batch: element t * per + i is trial i at the middle
    record of target t, and the draws are made in that order."""
    families, coeffs = _field_targets()
    per = max(1, trials // len(families))
    c = np.array([[*rng.uniform(-0.8, 0.8, size=11),
                   rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]),
                   rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])]
                  for _ in range(per * len(families))]).T  # row n: coefficient n of every trial
    base = (np.zeros(c.shape[1]),) * 2
    Y = tuple(Jet2(base, 5, np.repeat(coeffs[i], per, axis=0)) for i in range(3))
    _, eta0, _, e = sg.special_null_field(Y)
    C0, _ = sg.constant_C(e)
    d4_0, _ = sg.condition4_det(partial_values(Y, 0, 1), e, C0)

    # jets first: a (B,) array on the left of a jet would make an object array
    u, v = Jet2.variables(base, 5)
    a1 = Jet2.constant(c[11], base) + u * c[0] + v * c[1]
    b2 = Jet2.constant(c[12], base) + u * c[2] + v * c[3]
    a2 = u * (u * c[5] + c[4] + v * c[6])
    b1g = u * (v * c[8] + c[7])
    b1s = u * u * u * (v * c[10] + c[9])
    xi0 = VectorFieldJet.constant(0.0, 1.0, base)
    xi_b, eta_b, _ = sg.perturb_fields(xi0, VectorFieldJet.constant(1.0, 0.0, base), a1, a2, b1g, b2)
    _, r3 = sg.condition3_det(Y, xi=xi_b, eta=eta_b)
    xi_s, eta_s, pred = sg.perturb_fields(xi0, eta0, a1, a2, b1s, b2, special=True)
    e = field_chain(Y, eta_s, 5)  # C and condition 4 read one chain
    Cb, _ = sg.constant_C(e)
    d4_b, _ = sg.condition4_det(sg.xi_X(Y, xi_s), e, Cb)
    ratio = d4_b / d4_0
    good = (r3 < 1e-7) & (np.abs(ratio - pred) / np.abs(pred) < 1e-6)
    for i in np.flatnonzero(~good).tolist():
        failures.append({"suite": "fields", "surface": families[i // per],
                         "cond3_rel": r3[i].item(), "ratio": ratio[i].item(), "predicted": pred[i].item()})
    return int(good.sum()), c.shape[1]


# _verdicts of each unpushed model over (-0.5, 0.5)^2: a diffeomorphism must keep them
MODEL_VERDICTS = {"cusp25": ("cusp25", "rejected"), "fold": ("rejected_cond4", "fold_candidate"),
                  "cuspidal_edge": ("rejected_cond3", "rejected")}


def _suite_diffeo(trials, rng, failures):
    """Random parameters are drawn up front (one deterministic stream); the
    pushed surfaces are then checked as one stack (`_verdicts`)."""
    cases = [(name, sf.standard_model(name), *v) for name, v in MODEL_VERDICTS.items()]
    per = max(1, trials // len(cases))
    jobs = []
    for name, S, verdict0, fold0 in cases:
        for _ in range(per):
            det_target = rng.uniform(0.5, 2.0)
            A = rng.uniform(-0.4, 0.4, (3, 3)) + np.eye(3)
            A *= (det_target / abs(np.linalg.det(A))) ** (1 / 3)
            Q = rng.uniform(-0.1, 0.1, (3, 3, 3))
            Cc = rng.uniform(-0.05, 0.05, (3, 3, 3, 3))
            jobs.append((name, S, verdict0, fold0, A, Q, Cc))

    stack = [sg.diffeo_push(S, A, Q, Cc) for _, S, _, _, A, Q, Cc in jobs]
    ok = 0
    for trial, (job, (verdict, fold)) in enumerate(zip(jobs, _verdicts(stack, (-0.4, 0.4, -0.4, 0.4)))):
        name, _, verdict0, fold0, A, _, _ = job
        good = verdict == verdict0 and fold == fold0
        ok += good
        if not good:
            failures.append({"suite": "diffeo", "trial": trial, "model": name, "verdict": verdict,
                             "expected": verdict0, "fold": fold, "expected_fold": fold0, "A": A.tolist()})
    return ok, len(jobs)


def _verdicts(S, box):
    """The criterion verdict and the middle record's fold verdict of a grid-5
    scan of box: a pair for a surface, one per member for a stack, from one
    scan, chart and fold pass.  A stack that raises reruns member by member,
    so it raises what a loop over the members meets first."""
    members = [S] if isinstance(S, sf.Surface) else list(S)
    try:
        scans = sg.trace_singular_curve(members, box=box, n_grid=5)
        reports = sg.criterion_25(members, scans)
        chart = next((rep.jets for rep in reports if rep.jets), None)
        folds, pairs = iter(sg.fold_symmetry_of_chart(chart) if chart else ()), []
        for T, recs, rep in zip(members, scans, reports):  # the chart's rows are in member order
            mid = slice(len(recs) // 2, len(recs) // 2 + 1)
            rows = list(itertools.islice(folds, len(recs)))[mid] if rep.jets else None
            pairs.append((rep.verdict, (rows or sg.fold_symmetry_test(T, recs[mid]))[0].verdict))
    except Exception:
        for T in members if len(members) > 1 else ():
            _verdicts(T, box)
        raise
    return pairs[0] if isinstance(S, sf.Surface) else pairs


def _suite_laplacian(trials, rng, failures):
    """One residual call per surface, at its (per,) drawn points."""
    surfaces = [
        sf.delaunay_timelike(2.0, 0.5),
        sf.delaunay_spacelike(-1.0, 0.5),
        sf.delaunay_lightlike("i", 0.5),
        sf.conjugate_of("delaunay_timelike", k=2.0, H=0.5),
    ]
    per = max(1, trials // len(surfaces))
    ok = 0
    for S in surfaces:
        r, t = np.array([(rng.uniform(0.3, 0.9 * S.u_range[1]), rng.uniform(*S.v_range))
                         for _ in range(per)]).T
        res = rp.laplacian_identity_residual(S, (r, t))
        good = res < 1e-5
        ok += int(good.sum())
        for i in np.flatnonzero(~good).tolist():
            failures.append({"suite": "laplacian", "surface": S.family, "point": [r[i].item(), t[i].item()],
                             "residual": res[i].item()})
    return ok, per * len(surfaces)


def _suite_gauss_limit(trials, rng, failures):
    ok = total = 0
    surfaces = [
        sf.delaunay_timelike(2.0, 0.5),
        sf.delaunay_spacelike(-1.0, 0.5),
        sf.delaunay_lightlike("i", 0.5),
        sf.delaunay_lightlike("ii", 0.5),
    ]
    per = max(1, trials // len(surfaces))
    # sample density scales with the requested trials; records are what count
    n_grid = min(41, max(7, per))
    for S in surfaces:
        recs = sg.trace_singular_curve(
            S, box=(-0.5 * S.u_range[1], 0.5 * S.u_range[1], *S.v_range), n_grid=n_grid
        )
        recs = [r for r in recs if r.rank == 1][:per]
        for cert in sg.cmc_fold_obstruction(S, recs, flank=0.45 * S.u_range[1]):
            good = (
                cert["conclusion"] == "fold impossible"  # sheet flip; undetermined has no sides
                and cert["sides"]["plus"]["abs_g_minus_1"] < 1e-6
                and cert["sides"]["minus"]["abs_g_minus_1"] < 1e-6
            )
            ok += good
            total += 1
            if not good:
                failures.append({"suite": "gauss-limit", "surface": S.family, "cert": cert})
    return ok, total


def _suite_lambda_rank(trials, rng, failures):
    """One degree-1 jet call and one stacked SVD per surface, at its kept records."""
    ok = total = 0
    surfaces = [
        sf.standard_model("cusp25"),
        sf.standard_model("fold"),
        sf.delaunay_timelike(2.0, 0.5),
        sf.conjugate_of("delaunay_timelike", k=2.0, H=0.5),
    ]
    for S in surfaces:
        recs = sg.trace_singular_curve(S, n_grid=9)[: max(1, trials // len(surfaces))]
        p = np.array([rec.location for rec in recs], float)
        X = S.jet(p[:, 0], p[:, 1], 1)
        sv = np.linalg.svd(np.stack([partial_values(X, 1, 0), partial_values(X, 0, 1)], axis=-1),
                           compute_uv=False)
        good = sv[:, 1] < 1e-7 * sv[:, 0]
        ok += int(good.sum())
        total += len(recs)
        for i in np.flatnonzero(~good).tolist():
            failures.append({"suite": "lambda-rank", "surface": S.family,
                             "location": list(recs[i].location), "sv": sv[i].tolist()})
    return ok, total


SUITES = {
    "fields": _suite_fields,
    "diffeo": _suite_diffeo,
    "laplacian": _suite_laplacian,
    "gauss-limit": _suite_gauss_limit,
    "lambda-rank": _suite_lambda_rank,
}


def cmd_verify(args) -> int:
    t0 = time.time()
    _at_least(1, trials=args.trials)
    _at_least(0, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if any(n not in SUITES for n in names):
        raise InputError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)} or 'all'")
    failures = []
    results = {}
    all_ok = True
    for name in names:
        ok, total = SUITES[name](args.trials, rng, failures)
        results[name] = {"passed": int(ok), "total": int(total)}
        status = "pass" if ok == total else "FAIL"
        print(f"suite {name}: {ok}/{total} {status}")
        all_ok &= ok == total
    payload = envelope(_config_dict(args), {"suites": results, "failures": failures}, t0)
    if args.out:
        write_json(args.out, payload)
    if not all_ok:
        if failures:
            print(
                f"first counterexample: {json.dumps(failures[0], sort_keys=True, default=repr)}",
                file=sys.stderr,
            )
        return 1
    return 0


# -- rep -------------------------------------------------------------------------


def cmd_rep(args) -> int:
    t0 = time.time()
    if args.export_from:
        if not FAMILIES.get(args.export_from, args.export_from).startswith("delaunay"):
            raise InputError("--export-from must be a Delaunay family (delaunay-t, delaunay-s, "
                             f"delaunay-l-i or delaunay-l-ii), got {args.export_from!r}")
        _at_least(2, ns=args.ns, nt=args.nt)
        S = build_surface(args.export_from, args.k, args.H, r_cap=args.r_cap)
        if S.k is not None and abs(S.k) > min(EXPORT_K_PER_H * abs(S.H), EXPORT_K_MAX):
            raise sf.SurfaceParameterError(
                f"k = {args.k!r} is too large to export at H = {args.H!r}: rep "
                f"--export-from takes |k| <= min({EXPORT_K_PER_H:g} |H|, {EXPORT_K_MAX:g})", param="k")
        r0, r1 = 0.15 * S.u_range[1], 0.65 * S.u_range[1]
        prof = rp.conformal_profile_chart(S, r0, r1)
        s0, s1 = prof.s_of_r(np.array([r0 * 1.02, r1 * 0.98]))
        gd = rp.gauss_data_from_surface(prof, s0, s1, 0.0, 1.0, args.ns, args.nt)
        with open(args.out, "w") as fh:
            fh.write(gd.to_json())
            fh.write("\n")
        print(f"wrote Gauss data to {args.out}")
        return 0

    if not args.gauss_data:
        raise InputError("rep needs --gauss-data <file> or --export-from <family>")
    try:
        with open(args.gauss_data) as fh:
            gd = rp.GaussData.from_json(fh.read())
    except FileNotFoundError:
        raise
    except Exception as e:
        raise InputError(f"malformed Gauss data JSON: {e}") from e

    problems = gd.validate()
    residuals = {"validation_problems": problems}
    # the harmonic form off |g| = 1, the extended form on it; nan is skipped
    on = gd.on_unit_circle()
    if not np.isfinite(gd.omega_hat[on]).all():
        raise ValueError("not regular extended harmonic: omega_hat not extendable")
    h = np.where(on, rp.extended_harmonic_residual(gd), rp.harmonic_residual(gd))
    hmax = residuals["harmonic_max"] = float(np.fmax.reduce(h, axis=None, initial=0.0))
    rec = rp.integrate_representation(gd)  # raises on holomorphic data
    residuals["loop_max_rel"] = rec["loop_max_rel"]
    payload = envelope(_config_dict(args), residuals, t0)
    if args.report:
        write_json(args.report, payload)
    if rec["loop_max_rel"] > args.loop_tol:
        print(
            f"integrand not closed: worst relative loop {rec['loop_max_rel']:.3e} "
            f"> {args.loop_tol:.1e} at cell {rec['worst_cell']} "
            f"(g not harmonic or grid too coarse)",
            file=sys.stderr,
        )
        return 1
    verts = rec["X"].reshape(-1, 3)
    mesh = sf.Mesh(verts, sf.grid_faces(gd.nu, gd.nv), {"source": "representation",
                                                        "H": gd.H, "config": _config_dict(args)})
    mesh.write_obj(args.out)
    print(f"wrote reconstruction {args.out}; harmonic max {hmax:.3e}, loop {rec['loop_max_rel']:.3e}")
    return 0


# -- argument plumbing -------------------------------------------------------------


def _config_dict(args) -> dict:
    return dict(sorted(vars(args).items()))


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on the first call and shared from then on."""
    finite, positive, nonnegative = map(_by_name, ("finite_float", "positive_float",
                                                   "_nonnegative_float"))
    ap = argparse.ArgumentParser(prog="cmc-lab", description=__doc__)
    ap.add_argument("--version", action="version", version=f"cmc-lab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, out_default):
        p.add_argument("--family", required=True,
                       help="delaunay-t | delaunay-s | delaunay-l-i | delaunay-l-ii | "
                            "conjugate (--of base) | model-fold | model-cuspidal-edge | model-25 | model-cone")
        p.add_argument("--of", help="base family for --family conjugate")
        p.add_argument("--k", type=finite)
        p.add_argument("--H", type=finite, default=0.5)
        p.add_argument("--r-cap", type=positive, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("-o", "--out", default=out_default)

    g = sub.add_parser("generate", help="export a surface mesh (OBJ + JSON sidecar)")
    common(g, "surface.obj")
    g.add_argument("--nr", type=int, default=101)
    g.add_argument("--nt", type=int, default=101)
    g.add_argument("--r-range", type=finite, nargs=2)
    g.add_argument("--t-range", type=finite, nargs=2)
    g.add_argument("--singular-curve", action="store_true")

    c = sub.add_parser("classify", help="trace singular curves and classify them")
    common(c, "classify.json")
    c.add_argument("--grid", type=int, default=21)
    c.add_argument("--samples", type=int, default=8)
    c.add_argument("--tol3", type=nonnegative, default=sg.DET_TOL)
    c.add_argument("--tol4", type=nonnegative, default=sg.DET_TOL)
    c.add_argument("--tol-C", dest="tol_C", type=nonnegative, default=sg.DET_TOL)

    s = sub.add_parser("sweep", help="criterion sweep over k (and H) lists; CSV out")
    s.add_argument("--k", required=True, help="comma-separated k list")
    s.add_argument("--H", default="0.5", help="comma-separated H list")
    s.add_argument("--grid", type=int, default=9)
    s.add_argument("--tol3", type=nonnegative, default=sg.DET_TOL)
    s.add_argument("--tol4", type=nonnegative, default=sg.DET_TOL)
    s.add_argument("--tol-C", dest="tol_C", type=nonnegative, default=sg.DET_TOL)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("-o", "--out", default="sweep.csv")

    v = sub.add_parser("verify", help="run the invariance/residual property suites")
    v.add_argument("--suite", default="all", help=f"all | {' | '.join(sorted(SUITES))}")
    v.add_argument("--trials", type=int, default=40)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("-o", "--out", default=None)

    r = sub.add_parser("rep", help="representation-formula tools (export / reconstruct)")
    r.add_argument("--gauss-data", help="GaussData JSON to reconstruct from")
    r.add_argument("--export-from", help="family to export Gauss data from")
    r.add_argument("--k", type=finite)
    r.add_argument("--H", type=finite, default=0.5)
    r.add_argument("--r-cap", type=positive, default=None)
    r.add_argument("--ns", type=int, default=25)
    r.add_argument("--nt", type=int, default=13)
    r.add_argument("--loop-tol", type=nonnegative, default=1e-8)
    r.add_argument("--report", default=None)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("-o", "--out", default="reconstruction.obj")
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except (InputError, sf.SurfaceParameterError) as e:
        param = getattr(e, "param", None) or ()  # a surface parameter is set by the flag of its name
        flags = ", ".join("--" + p.replace("_", "-") for p in ((param,) if isinstance(param, str) else param))
        print(f"error: {flags + ': ' if flags else ''}{e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        print(f"computational failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
