"""Output checks, one per job kind.

Where an independent reference exists the check uses it: closed forms and
``scipy.integrate.quad`` of profile integrands written out here for the
rotational meshes, invariants of the helicoidal templates for conjugate
meshes, and the documented condition-4 closed form at H = 1/2.  Reports are
parsed so that NaN, Infinity and null are all accepted.

Every check returns a ``Check``: ``ok``, a one-line ``reason`` when not ok,
and ``notes`` with measured values worth keeping (the condition-4 ratios of
inconsistency (a), loop closures).
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad

VERTEX_RTOL = 1e-9  # vertex vs reference, relative to 1 + |coordinate|
ROW_RTOL = 1e-9  # row invariants of conjugate meshes
H_RTOL = 1e-6  # mean curvature at sampled conjugate vertices
COND4_RTOL = 1e-6  # condition-4 determinant vs closed form at H = 1/2
HARMONIC_TOL = 1e-9  # harmonic residual of exported Gauss data


@dataclass
class Check:
    ok: bool
    reason: str = ""
    notes: dict = field(default_factory=dict)


def fail(reason, **notes):
    return Check(False, reason, notes)


_CONSTANTS = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def load_report(path):
    """JSON report with NaN / Infinity / -Infinity / null all accepted."""
    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=_CONSTANTS.__getitem__)


def read_obj(path):
    """Vertices as (x0, x1, x2) rows (the OBJ stores x1 x2 x0) and the face count."""
    verts, faces = [], 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                _, a, b, c = line.split()
                verts.append((float(c), float(a), float(b)))
            elif line.startswith("f "):
                faces += 1
    return np.array(verts, dtype=float).reshape(-1, 3), faces


def closed_form_cond4(k, H):
    """The documented condition-4 determinant of the timelike-axis conjugate."""
    return -72.0 / (H * H * abs(k - 1.0) ** 3)


def check_job(job, out, rcs):
    """Check one finished job; ``rcs`` holds the exit code of each step run."""
    if len(rcs) < len(job.steps) or any(rc != 0 for rc in rcs):
        return fail(f"exit codes {rcs}")
    return _CHECKERS[job.kind](job, out)


# -- generate --------------------------------------------------------------------


def _quad(fn, r):
    """int_0^r fn, with break points closing in on r: the admissible domain of a
    profile ends just short of a zero of its radicand."""
    if r == 0.0:
        return 0.0
    points = [r * (1 - 10.0**-j) for j in range(1, 10)]
    with warnings.catch_warnings():  # tolerances are asked for below roundoff on purpose
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(fn, 0.0, r, points=points, epsabs=1e-13, epsrel=1e-13, limit=400)
    return value


def _rotational_reference(family, k, H, r, t):
    """Reference vertices of one grid row (fixed r) from the closed forms."""
    c = 1.0 / (2.0 * H)
    if family == "delaunay-t":
        F = _quad(lambda x: (x * x + k - 1) / math.sqrt((x * x + k + 1) ** 2 - 4 * k), r)
        w = 2.0 * H * t
        return np.stack([np.full_like(t, F * c), r * np.cos(w) * c, r * np.sin(w) * c], axis=1)
    if family == "delaunay-s":
        G = _quad(lambda x: (x * x - k + 1) / math.sqrt((x * x - k - 1) ** 2 - 4 * k), r)
        w = 2.0 * H * t
        return np.stack([r * np.cosh(w) * c, r * np.sinh(w) * c, np.full_like(t, G * c)], axis=1)
    sign = 1.0 if family == "delaunay-l-i" else -1.0
    zeta = _quad(lambda x: 2.0 * x * x / (8 * H * H * (1 + sign * x * x) ** 2), r)
    quart = t * t / 4.0
    return np.stack([zeta - r * (1 + quart), -r * t, zeta + r * (1 - quart)], axis=1)


def _row_invariant(family, H, r, row):
    """The invariant of the rotation orbit: (its value at each vertex of the row,
    the value the closed form gives)."""
    x0, x1, x2 = row.T
    if family == "delaunay-t":
        return np.hypot(x1, x2), abs(r) / (2 * abs(H))
    if family == "delaunay-s":
        return np.sqrt(np.maximum(x0 * x0 - x1 * x1, 0.0)), abs(r) / (2 * abs(H))
    return x2 - x0, 2.0 * r  # lightlike axis


def _conjugate_template(of, k):
    if k == -1.0:
        return "L"
    if of == "delaunay-t":
        return "T" if k > -1 else "S"
    return "S" if k > -1 else "T"


def _diff_ok(values, order, scale):
    return np.abs(np.diff(values, n=order)).max() <= ROW_RTOL * (1 + scale) * 2**order


def _conjugate_rows(template, grid):
    """Per-row invariants of the helicoidal templates (phi affine in t)."""
    for i, row in enumerate(grid):
        x0, x1, x2 = row.T
        scale = float(np.abs(row).max())
        if template == "T":
            rho = np.hypot(x1, x2)
            ok = (np.ptp(rho) <= ROW_RTOL * (1 + scale)
                  and _diff_ok(np.unwrap(np.arctan2(x2, x1)), 2, 1.0)
                  and _diff_ok(x0, 2, scale))
        elif template == "S":
            rho = np.sqrt(x1 * x1 - x0 * x0)
            ok = (np.ptp(rho * rho) <= ROW_RTOL * (1 + scale * scale)
                  and _diff_ok(np.arcsinh(x0 / rho), 2, 1.0)
                  and _diff_ok(x2, 2, scale))
        else:
            ok = _diff_ok(x2 - x0, 2, scale) and _diff_ok(x1, 3, scale) and _diff_ok(x0, 4, scale)
        if not ok:
            return i
    return None


def _check_conjugate_sample(job, verts, us, vs, nv):
    """Mean curvature H (and X itself) at sampled vertices, via the library."""
    from cmc_lab import surfaces as sf
    from cmc_lab.cli import build_surface

    p = job.params
    S = build_surface("conjugate", p["k"], p["H"], None, p["family"].removeprefix("conjugate-of-"))
    checked = 0
    for fi in (0.3, 0.7):
        for fj in (1 / 3, 2 / 3):
            i, j = int(fi * (len(us) - 1)), int(fj * (len(vs) - 1))
            x = verts[i * nv + j]
            if not np.allclose(x, S.point(us[i], vs[j]), rtol=1e-12, atol=1e-12):
                return f"vertex ({i},{j}) differs from X(u, v)"
            try:
                H = sf.fundamental_forms(S, (us[i], vs[j]), conformal_q=False).H_mean
            except sf.NotSpacelikeError:
                continue
            if abs(H - p["H"]) > H_RTOL * abs(p["H"]):
                return f"mean curvature {H!r} at vertex ({i},{j}), expected {p['H']!r}"
            checked += 1
    return None if checked >= 2 else f"only {checked} regular sample vertices"


def check_generate(job, out):
    p = job.params
    obj = os.path.join(out, "mesh.obj")
    verts, faces = read_obj(obj)
    sidecar = load_report(obj + ".json")
    n = p["n"]
    if verts.shape[0] != n * n or faces != 2 * (n - 1) ** 2:
        return fail(f"{verts.shape[0]} vertices / {faces} faces for a {n}x{n} grid")
    if not np.isfinite(verts).all():
        return fail("non-finite vertex")
    if sidecar["grid"] != {"nu": n, "nv": n}:
        return fail(f"sidecar grid {sidecar['grid']}")
    us = np.linspace(*sidecar["domain"]["u"], n)
    vs = np.linspace(*sidecar["domain"]["v"], n)
    grid = verts.reshape(n, n, 3)
    family = p["family"]
    if family.startswith("conjugate-of-"):
        bad = _conjugate_rows(_conjugate_template(family.removeprefix("conjugate-of-"), p["k"]), grid)
        if bad is not None:
            return fail(f"row {bad} breaks the template invariants")
        reason = _check_conjugate_sample(job, verts, us, vs, n)
        return fail(reason) if reason else Check(True)
    for i, r in enumerate(us):
        ref = _rotational_reference(family, p["k"], p["H"], r, vs)
        err = np.abs(grid[i] - ref) / (1 + np.abs(ref))
        if err.max() > VERTEX_RTOL:
            j = int(err.max(axis=1).argmax())
            return fail(f"vertex ({i},{j}) off the closed form by {err.max():.2e}")
        inv, expected = _row_invariant(family, p["H"], r, grid[i])
        if np.abs(inv - expected).max() > VERTEX_RTOL * (1 + abs(expected)):
            return fail(f"row {i} leaves its rotation orbit")
    return Check(True)


# -- classify / sweep ------------------------------------------------------------


def _cond4_notes(k, H, det):
    """Condition-4 determinant against the closed form; a check only at H = 1/2."""
    if k == -1.0:
        return None, {"det": det, "det_H2": det * H * H}
    ratio = det / closed_form_cond4(k, H)
    notes = {"det": det, "ratio": ratio, "ratio_2H": ratio * 2 * H}
    if H == 0.5 and abs(ratio - 1.0) > COND4_RTOL:
        return f"condition4_det {det!r} vs closed form {closed_form_cond4(k, H)!r}", notes
    return None, notes


def check_classify(job, out):
    p = job.params
    rep = load_report(os.path.join(out, "classify.json"))["results"]
    crit = rep["criterion"]
    if crit is None:
        return fail("no singular points found")
    if p["family"].startswith("conjugate-of-"):
        if crit["verdict"] != "cusp25":
            return fail(f"verdict {crit['verdict']!r}, expected 'cusp25' ({crit['reason']})")
        reason, notes = _cond4_notes(p["k"], p["H"], crit["condition4_det"])
        return Check(reason is None, reason or "", notes)
    kinds = {s["kind"] for s in rep["samples"]}
    if crit["verdict"] != "not_applicable" or kinds != {"conelike"}:
        return fail(f"verdict {crit['verdict']!r} with sample kinds {sorted(kinds)}")
    certs = rep["certificates"]
    if not certs or not all(c["sheet_flip"] for c in certs):
        return fail("missing sheet-flip certificate")
    return Check(True)


def check_sweep(job, out):
    p = job.params
    with open(os.path.join(out, "sweep.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(p["ks"]):
        return fail(f"{len(rows)} rows for {len(p['ks'])} cases")
    notes = []
    for row, k in zip(rows, p["ks"]):
        if row["error"] or row["verdict"] != "cusp25":
            return fail(f"k={k!r} H={p['H']!r}: verdict {row['verdict']!r} {row['error']}".strip(),
                        rows=notes)
        reason, note = _cond4_notes(k, p["H"], float(row["cond4_det"]))
        notes.append(note)
        if reason:
            return fail(reason, rows=notes)
    return Check(True, notes={"rows": notes})


# -- rep -------------------------------------------------------------------------


def check_rep(job, out):
    p = job.params
    gauss = load_report(os.path.join(out, "gauss.json"))
    if (gauss["grid"]["nu"], gauss["grid"]["nv"]) != (p["ns"], p["nt"]):
        return fail(f"exported grid {gauss['grid']}")
    res = load_report(os.path.join(out, "residuals.json"))["results"]
    notes = {"loop_max_rel": res["loop_max_rel"], "harmonic_max": res["harmonic_max"]}
    if res["validation_problems"]:
        return fail(f"validation problems {res['validation_problems'][:2]}", **notes)
    if not res["loop_max_rel"] <= p["loop_tol"]:
        return fail(f"loop {res['loop_max_rel']!r} above {p['loop_tol']!r}", **notes)
    if not res["harmonic_max"] <= HARMONIC_TOL:
        return fail(f"harmonic residual {res['harmonic_max']!r}", **notes)
    verts, _ = read_obj(os.path.join(out, "reconstruction.obj"))
    if verts.shape[0] != p["ns"] * p["nt"] or not np.isfinite(verts).all():
        return fail(f"reconstruction has {verts.shape[0]} vertices or non-finite ones", **notes)
    return Check(True, notes=notes)


# -- verify ----------------------------------------------------------------------


def check_verify(job, out):
    suites = load_report(os.path.join(out, "verify.json"))["results"]["suites"]
    s = suites.get(job.params["suite"])
    if s is None or s["total"] < 1 or s["passed"] != s["total"]:
        return fail(f"suite result {s}")
    return Check(True, notes={"total": s["total"]})


_CHECKERS = {
    "generate": check_generate,
    "classify": check_classify,
    "sweep": check_sweep,
    "rep": check_rep,
    "verify": check_verify,
}
