import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cmc_lab import cli
from cmc_lab import jets as jt
from cmc_lab import singularities as sg
from cmc_lab.cli import main


def run(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def test_generate_timelike_with_pinch(tmp_path):
    code = run(
        tmp_path, "generate", "--family", "delaunay-t", "--k", "2", "--H", "0.5",
        "--nr", "9", "--nt", "8", "--r-range", "-0.5", "0.5", "-o", "dt.obj",
    )
    assert code == 0
    lines = (tmp_path / "dt.obj").read_text().splitlines()
    vs = [l.split()[1:] for l in lines if l.startswith("v ")]
    assert len(vs) == 72
    # middle row r = 0 pinches to the cone point
    mid = np.array(vs[4 * 8 : 5 * 8], dtype=float)
    assert np.allclose(mid, 0.0, atol=1e-12)
    side = json.loads((tmp_path / "dt.obj.json").read_text())
    assert side["family"] == "delaunay_timelike"
    assert side["H"] == 0.5 and side["k"] == 2.0


def test_generate_conjugate_and_model(tmp_path):
    assert run(
        tmp_path, "generate", "--family", "conjugate", "--of", "delaunay-t",
        "--k", "2", "--H", "0.5", "--nr", "7", "--nt", "7", "-o", "conj.obj",
    ) == 0
    assert run(tmp_path, "generate", "--family", "model-25", "--nr", "5", "--nt", "5", "-o", "m.obj") == 0
    side = json.loads((tmp_path / "m.obj.json").read_text())
    assert side["family"] == "model_25"


def test_generate_singular_curve_sidecar(tmp_path):
    assert run(
        tmp_path, "generate", "--family", "delaunay-t", "--k", "2", "--nr", "9",
        "--nt", "7", "--r-range", "-0.5", "0.5", "--singular-curve", "-o", "sc.obj",
    ) == 0
    side = json.loads((tmp_path / "sc.obj.json").read_text())
    assert side["singular_curve"]
    assert all(abs(rec["location"][0]) < 1e-10 for rec in side["singular_curve"])


def test_generate_invalid_parameters_exit2(tmp_path):
    assert run(tmp_path, "generate", "--family", "delaunay-t", "--H", "0.5") == 2
    assert run(tmp_path, "generate", "--family", "delaunay-t", "--k", "1", "--H", "0.5") == 2
    assert run(tmp_path, "generate", "--family", "nosuch") == 2
    assert run(tmp_path, "generate", "--family", "conjugate", "--k", "2") == 2


def test_generate_io_failure_exit3(tmp_path):
    assert run(
        tmp_path, "generate", "--family", "model-fold", "--nr", "3", "--nt", "3",
        "-o", "missing_dir/out.obj",
    ) == 3


def test_classify_conjugate(tmp_path):
    assert run(
        tmp_path, "classify", "--family", "conjugate", "--of", "delaunay-t",
        "--k", "2", "--H", "0.5", "--grid", "11", "--samples", "2", "-o", "c.json",
    ) == 0
    doc = json.loads((tmp_path / "c.json").read_text())
    res = doc["results"]
    assert res["criterion"]["verdict"] == "cusp25"
    assert abs(res["criterion"]["condition4_det"] + 288.0) < 1e-3
    assert all(s["kind"] == "first_kind" for s in res["samples"])
    assert doc["config"]["seed"] == 0
    assert "timing" in doc


def strict_json(path):
    """Parse a file as strict JSON: NaN and Infinity tokens are errors."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_classify_delaunay_conelike_with_certificates(tmp_path):
    assert run(
        tmp_path, "classify", "--family", "delaunay-t", "--k", "2", "--H", "0.5",
        "--grid", "9", "--samples", "2", "-o", "d.json",
    ) == 0
    res = strict_json(tmp_path / "d.json")["results"]
    assert all(s["kind"] == "conelike" for s in res["samples"])
    assert res["criterion"]["verdict"] == "not_applicable"
    assert res["criterion"]["C"] is None and res["criterion"]["reason"]
    assert res["certificates"]
    assert all(c["conclusion"] == "fold impossible" for c in res["certificates"])
    assert all(f["verdict"] == "rejected" for f in res["fold_symmetry"])
    assert all(f["residual"] is None and f["reason"] for f in res["fold_symmetry"])
    # near k = 1 the conjugate's samples are not of the first kind either
    assert run(
        tmp_path, "classify", "--family", "conjugate", "--of", "delaunay-t",
        "--k", "1.0000001", "-o", "k1.json",
    ) == 0
    res = strict_json(tmp_path / "k1.json")["results"]
    assert res["criterion"]["verdict"] == "not_applicable"
    assert res["criterion"]["C"] is None
    assert res["criterion"]["condition3_max_abs_det"] is None


def test_classify_model_cone_stays_in_the_domain(tmp_path):
    assert run(tmp_path, "classify", "--family", "model-cone", "-o", "cone.json") == 0
    res = json.loads((tmp_path / "cone.json").read_text())["results"]
    assert res["samples"] and all(s["kind"] == "conelike" for s in res["samples"])


@pytest.mark.parametrize("argv, flag", [
    (("generate", "--family", "model-fold", "--nr", "1"), "--nr"),
    (("generate", "--family", "model-fold", "--nt", "1"), "--nt"),
    (("classify", "--family", "model-25", "--grid", "1"), "--grid"),
    (("classify", "--family", "model-25", "--grid", "0"), "--grid"),
    (("sweep", "--k", "2", "--grid", "1"), "--grid"),
    (("rep", "--export-from", "delaunay-t", "--k", "2", "--ns", "1"), "--ns"),
    (("rep", "--export-from", "delaunay-t", "--k", "2", "--nt", "1"), "--nt"),
    (("verify", "--suite", "fields", "--trials", "-3"), "--trials"),
])
def test_bad_counts_exit2_naming_the_flag(tmp_path, capsys, argv, flag):
    assert run(tmp_path, *argv, "-o", "out") == 2
    assert flag in capsys.readouterr().err


def exit_code(tmp_path, *argv):
    try:
        return run(tmp_path, *argv)
    except SystemExit as e:  # argparse rejected a flag's value
        return e.code


DT = ("--family", "delaunay-t", "--k", "2", "--nr", "5", "--nt", "5")


@pytest.mark.parametrize("argv, flag", [
    (("classify", "--family", "model-25", "--grid", "5", "--samples", "-1"), "--samples"),
    (("generate", "--family", "delaunay-t", "--k", "nan", "--nr", "5", "--nt", "5"), "--k"),
    (("generate", *DT, "--H", "nan"), "--H"),
    (("generate", *DT, "--H", "-inf"), "--H"),
    (("generate", *DT, "--r-cap", "inf"), "--r-cap"),
    (("generate", *DT, "--r-range", "nan", "0.5"), "--r-range"),
    (("generate", *DT, "--t-range", "0", "inf"), "--t-range"),
    (("classify", "--family", "model-25", "--tol3", "nan"), "--tol3"),
    (("classify", "--family", "model-25", "--tol4", "inf"), "--tol4"),
    (("classify", "--family", "model-25", "--tol-C", "nan"), "--tol-C"),
    (("sweep", "--k", "2,nan"), "--k"),
    (("sweep", "--k", "2", "--H", "inf"), "--H"),
    (("rep", "--export-from", "delaunay-t", "--k", "inf"), "--k"),
    (("rep", "--gauss-data", "gd.json", "--loop-tol", "nan"), "--loop-tol"),
    (("classify", "--family", "conjugate", "--of", "delaunay-t", "--k", "2", "--grid", "5",
      "--tol3", "-1"), "--tol3"),
    (("classify", "--family", "model-25", "--tol4=-1e-12"), "--tol4"),
    (("classify", "--family", "model-25", "--tol-C", "-1"), "--tol-C"),
    (("sweep", "--k", "2", "--tol3", "-1"), "--tol3"),
    (("sweep", "--k", "2", "--tol4", "-1"), "--tol4"),
    (("sweep", "--k", "2", "--tol-C", "-1"), "--tol-C"),
    (("rep", "--gauss-data", "gd.json", "--loop-tol", "-1"), "--loop-tol"),
    (("generate", *DT, "--r-range", "0", "9"), "--r-range"),
    (("generate", *DT, "--r-range", "0.5", "-0.5"), "--r-range"),
    (("generate", *DT, "--r-range", "0.5", "0.5"), "--r-range"),
    (("generate", *DT, "--t-range", "-1", "1"), "--t-range"),
    (("generate", *DT, "--r-cap", "0"), "--r-cap"),
    (("rep", "--export-from", "delaunay-t", "--k", "2", "--r-cap", "-1"), "--r-cap"),
    (("rep", "--export-from", "model-fold"), "--export-from"),
    (("rep", "--export-from", "conjugate", "--k", "2"), "--export-from"),
])
def test_bad_numbers_exit2_naming_the_flag(tmp_path, capsys, argv, flag):
    assert exit_code(tmp_path, *argv, "-o", "out") == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("generate", "--family", "delaunay-l-i", "--nr", "5", "--nt", "5"),
    ("classify", "--family", "delaunay-l-i", "--grid", "5"),
    ("rep", "--export-from", "delaunay-l-i", "--ns", "5", "--nt", "5"),
])
def test_variant_flag_rejected(tmp_path, capsys, argv):
    # the family name carries the lightlike variant; the flag was never read
    assert exit_code(tmp_path, *argv, "--variant", "ii", "-o", "out") == 2
    assert "--variant" in capsys.readouterr().err


def test_cli_import_leaves_scipy_out():
    code = "import sys, cmc_lab.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"


def test_cli_runs_leave_scipy_out(tmp_path):
    code = (
        "import sys\n"
        "from cmc_lab.cli import main\n"
        "codes = [main(argv.split()) for argv in (\n"
        "    'generate --family delaunay-t --k 2 --nr 9 --nt 5 -o g.obj',\n"
        "    'classify --family conjugate --of delaunay-t --k 2 --grid 5 --samples 1 -o c.json',\n"
        "    'rep --export-from delaunay-t --k 2 --ns 9 --nt 5 -o gd.json',\n"
        "    'rep --gauss-data gd.json -o rec.obj')]\n"
        "print(codes, any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip().splitlines()[-1] == "[0, 0, 0, 0] False"


@pytest.mark.parametrize("k", ["0", "0.005", "0.01", "0.02"])
def test_delaunay_s_near_k0_clips_the_domain(tmp_path, k):
    # delta < 0 on (1 - sqrt(k), 1 + sqrt(k)): the domain must end below it
    DS = ("--family", "delaunay-s", "--k", k)
    assert run(tmp_path, "generate", *DS, "--nr", "9", "--nt", "5", "-o", "g.obj") == 0
    r_hi = json.loads((tmp_path / "g.obj.json").read_text())["domain"]["u"][1]
    assert 0.8 < r_hi < 1 - float(k) ** 0.5
    assert run(tmp_path, "classify", *DS, "--grid", "5", "--samples", "1", "-o", "c.json") == 0
    assert run(tmp_path, "rep", "--export-from", "delaunay-s", "--k", k,
               "--ns", "9", "--nt", "5", "-o", "gd.json") == 0


@pytest.mark.parametrize("k", ["1.00001", "0.99999"])
def test_delaunay_s_k_near_1_exit2(tmp_path, capsys, k):
    # delta(0) = (k - 1)^2 is below the domain guard and delta falls from there
    assert run(tmp_path, "generate", "--family", "delaunay-s", "--k", k, "-o", "g.obj") == 2
    assert "k too close to 1" in capsys.readouterr().err


@pytest.mark.parametrize("of, k", [
    ("delaunay-s", "-1.0000000000000002"),  # one ulp below -1
    ("delaunay-t", "-0.9999999999999999"),  # one ulp above
    ("delaunay-t", "-1.000000000001"),
    ("delaunay-s", "-0.9999999995"),
])
def test_conjugate_k_next_to_minus_1_exit2_naming_the_flag(tmp_path, capsys, of, k):
    # the k != -1 templates divide by |k + 1|: there they keep no correct digit
    assert run(tmp_path, "generate", "--family", "conjugate", "--of", of, f"--k={k}",
               "--nr", "5", "--nt", "5", "-o", "g.obj") == 2
    err = capsys.readouterr().err
    assert "--k" in err and "branch point k = -1" in err
    assert run(tmp_path, "classify", "--family", "conjugate", "--of", of, f"--k={k}",
               "--grid", "5", "-o", "c.json") == 2


def test_failed_profile_integral_runs_once(tmp_path, capsys, monkeypatch):
    # the batched mesh call integrates the grid's radii in one lockstep run and
    # fails at both domain ends; naming the grid index then reads the failure
    # from the Primitive cache instead of integrating again
    from collections import Counter

    from cmc_lab import quadrature

    runs = []  # per kernel run: [integrand, intervals, outcomes, panels sampled]
    gk15, adaptive = quadrature._gk15, quadrature._adaptive

    def counted_gk15(f, lo, hi):
        runs[-1][3].update(zip(lo.tolist(), hi.tolist()))
        return gk15(f, lo, hi)

    def counted_adaptive(f, ends, *args):
        runs.append([f, list(ends), None, Counter()])
        runs[-1][2] = adaptive(f, ends, *args)
        return runs[-1][2]

    monkeypatch.setattr(quadrature, "_gk15", counted_gk15)
    monkeypatch.setattr(quadrature, "_adaptive", counted_adaptive)
    assert run(tmp_path, "generate", "--family", "conjugate", "--of", "delaunay-s", "--k", "2",
               "--H", "0.5", "--nr", "11", "--nt", "11", "-o", "g.obj") == 1
    assert ("evaluation failed at grid index (0,0), (u,v)=(-0.4082482880143733,-1.5): "
            "tolerance not met: estimate") in capsys.readouterr().err
    intervals = Counter((id(f), tuple(end)) for f, ends, _, _ in runs for end in ends)
    assert max(intervals.values()) == 1  # no interval is integrated twice
    for _, _, outcomes, panels in runs:
        assert max(panels.values()) == 1  # no panel is sampled twice in a run
        # an interval samples 2n - 1 panels to accept n, and 4095 to fail after 2048
        assert sum(panels.values()) == sum(
            4095 if isinstance(o, quadrature.ToleranceNotMetError) else 2 * len(o[0]) - 1
            for o in outcomes)
    failed = sorted((tuple(end), str(o)) for _, ends, outcomes, _ in runs
                    for end, o in zip(ends, outcomes) if isinstance(o, quadrature.QuadratureError))
    r_hi = 0.4082482880143733
    assert [end for end, _ in failed] == [(-r_hi, 0.0), (0.0, r_hi)]
    assert all(message.endswith("after 2048 panels") for _, message in failed)


def test_classify_fold_model(tmp_path):
    assert run(
        tmp_path, "classify", "--family", "model-fold", "--grid", "9", "--samples", "1", "-o", "f.json",
    ) == 0
    res = json.loads((tmp_path / "f.json").read_text())["results"]
    assert res["criterion"]["verdict"] == "rejected_cond4"
    assert res["fold_symmetry"][0]["verdict"] == "fold_candidate"


def test_sweep_rows_and_predictions(tmp_path):
    assert run(tmp_path, "sweep", "--k", "2,0.5,3,-1", "--H", "0.5", "--grid", "7", "-o", "s.csv") == 0
    lines = (tmp_path / "s.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    assert [r["branch"] for r in rows] == ["I-i", "I-i", "I-i", "I-ii"]
    preds = {r["k"]: r["predicted_case_I"] for r in rows}
    assert abs(float(preds["2.0"]) + 288.0) < 1e-12
    assert abs(float(preds["0.5"]) + 2304.0) < 1e-12
    assert abs(float(preds["3.0"]) + 36.0) < 1e-12
    assert abs(float(preds["-1.0"]) - 36.0) < 1e-12  # branch I-ii: 9/H^2
    assert all(r["verdict"] == "cusp25" for r in rows)
    assert all(float(r["rel_diff"]) < 1e-6 for r in rows if r["rel_diff"])


def test_uncomputed_condition4_det_is_null(tmp_path):
    # samples not of the first kind: the determinant is never computed
    assert run(tmp_path, "classify", "--family", "delaunay-t", "--k", "2", "-o", "c.json") == 0
    crit = strict_json(tmp_path / "c.json")["results"]["criterion"]
    assert crit["verdict"] == "not_applicable" and "not of the first kind" in crit["reason"]
    assert crit["condition4_det"] is None
    # next to k = 1 (rho0 = 8e-5) the grid-4 records read as rank 2: nothing to compare
    assert run(tmp_path, "sweep", "--k", "1.0001", "--H", "0.3", "--grid", "4", "-o", "s.csv") == 0
    with open(tmp_path / "s.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["verdict"] == "not_applicable"
    assert row["cond4_det"] == row["predicted_case_I"] == row["rel_diff"] == ""
    # the root gate keeps the finer grid's records on the curve: the determinant is computed
    assert run(tmp_path, "sweep", "--k", "-1", "--H", "0.3", "--grid", "33", "-o", "s.csv") == 0
    with open(tmp_path / "s.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["verdict"] == "cusp25"
    assert abs(float(row["cond4_det"]) - 100.0) <= 1e-9 * 100.0
    # a collinearity residual above tolerance comes after the determinant: it stays
    assert run(tmp_path, "sweep", "--k", "2", "--H", "0.5", "--tol-C", "0", "-o", "c.csv") == 0
    with open(tmp_path / "c.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["verdict"] == "not_applicable"
    assert abs(float(row["cond4_det"]) + 288.0) < 1e-5 * 288
    assert float(row["rel_diff"]) < 1e-6


@pytest.mark.parametrize("k, H, grid", [(2.0, 1.0, "9"), (0.5, 0.7, "5"), (-2.0, 0.5, "9"),
                                        (-1.0, 0.3, "9"), (-1.0, 0.8, "5")])
def test_sweep_matches_classify(tmp_path, k, H, grid):
    """Sweep scans the domain classify scans, on branch I-i and I-ii alike, and
    its prediction is the library's closed form."""
    assert run(tmp_path, "sweep", f"--k={k}", f"--H={H}", "--grid", grid, "-o", "s.csv") == 0
    assert run(tmp_path, "classify", "--family", "conjugate", "--of", "delaunay-t", f"--k={k}",
               f"--H={H}", "--grid", grid, "--samples", "0", "-o", "c.json") == 0
    with open(tmp_path / "s.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    crit = strict_json(tmp_path / "c.json")["results"]["criterion"]
    assert row["branch"] == ("I-ii" if k == -1.0 else "I-i")
    assert row["verdict"] == crit["verdict"] == "cusp25"
    assert float(row["cond4_det"]) == crit["condition4_det"]
    pred = sg.conjugate_condition4_det(row["branch"], k, H)
    assert float(row["predicted_case_I"]) == pred
    assert abs(crit["condition4_det"] - pred) <= 1e-9 * abs(pred)


def test_classify_reports_unconfirmed_roots(tmp_path):
    """classify writes the root gate's count.  At grid 33 the k = -1 scan takes
    the grid nodes on the curve as roots (their anchors are roundoff), so it
    brackets no sign change of the anchored density off the curve and drops
    nothing."""
    assert run(tmp_path, "classify", "--family", "conjugate", "--of", "delaunay-t", "--k", "-1",
               "--H", "0.3", "--grid", "33", "--samples", "0", "-o", "c.json") == 0
    res = strict_json(tmp_path / "c.json")["results"]
    assert res["unconfirmed_roots"] == 0
    assert {s["kind"] for s in res["samples"]} == {"first_kind"}
    assert res["criterion"]["verdict"] == "cusp25"
    assert abs(res["criterion"]["condition4_det"] - 100.0) <= 1e-9 * 100.0
    assert run(tmp_path, "classify", "--family", "conjugate", "--of", "delaunay-t", "--k", "2",
               "--samples", "0", "-o", "c.json") == 0
    assert strict_json(tmp_path / "c.json")["results"]["unconfirmed_roots"] == 0


def test_fields_suite_builds_one_special_chain_per_trial(monkeypatch):
    """Per trial: condition 3 (12 field applications), the special change's
    check (2), the special field's chain to order 5 (15) and xi X (3)."""
    calls = []
    apply = jt.apply_vector_field
    monkeypatch.setattr(jt, "apply_vector_field", lambda f, j: calls.append(1) or apply(f, j))

    def count(trials):
        calls.clear()
        assert cli._suite_fields(trials, np.random.default_rng(0), []) == (trials, trials)
        return len(calls)

    assert (count(4) - count(2)) / 2 <= 32  # two more trials, one per target


def test_classify_straightens_each_record_once(tmp_path, monkeypatch):
    """One batched chart covers exactly the first-kind records, and its jets
    serve the fold test too."""
    built = []
    post_init = sg.StraightChart.__post_init__
    monkeypatch.setattr(sg.StraightChart, "__post_init__",
                        lambda chart: built.append(list(chart.records)) or post_init(chart))
    assert run(tmp_path, "classify", "--family", "conjugate", "--of", "delaunay-t",
               "--k", "2", "--H", "0.5", "-o", "c.json") == 0
    samples = json.loads((tmp_path / "c.json").read_text())["results"]["samples"]
    first = [tuple(r["location"]) for r in samples if r["kind"] == "first_kind"]
    assert len(built) == 1
    assert first and [tuple(map(float, r.location)) for r in built[0]] == first


def test_conjugate_condition4_closed_form():
    assert sg.conjugate_condition4_det("I-i", 2.0, 0.5) == -288.0
    assert sg.conjugate_condition4_det("I-i", 3.0, 1.0) == -4.5
    assert sg.conjugate_condition4_det("I-ii", -1.0, 0.3) == 9.0 / 0.09


def test_sweep_empty_list_exit2(tmp_path):
    assert run(tmp_path, "sweep", "--k", "", "-o", "s.csv") == 2


def test_sweep_row_error_recorded(tmp_path):
    assert run(tmp_path, "sweep", "--k", "1", "--H", "0.5", "-o", "e.csv") == 0
    lines = (tmp_path / "e.csv").read_text().splitlines()
    assert "k=1 degenerate" in lines[1]


def test_verify_suite_filter_and_determinism(tmp_path):
    assert run(tmp_path, "verify", "--suite", "laplacian", "--trials", "4",
               "--seed", "7", "-o", "v1.json") == 0
    assert run(tmp_path, "verify", "--suite", "laplacian", "--trials", "4",
               "--seed", "7", "-o", "v2.json") == 0
    d1 = json.loads((tmp_path / "v1.json").read_text())
    d2 = json.loads((tmp_path / "v2.json").read_text())
    d1.pop("timing"), d2.pop("timing")
    for d in (d1, d2):
        d["config"].pop("out")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_verify_unknown_suite_exit2(tmp_path):
    assert run(tmp_path, "verify", "--suite", "nosuch") == 2


def test_rep_export_and_reconstruct(tmp_path):
    assert run(
        tmp_path, "rep", "--export-from", "delaunay-t", "--k", "2", "--H", "0.5",
        "--ns", "11", "--nt", "7", "-o", "g.json",
    ) == 0
    assert run(
        tmp_path, "rep", "--gauss-data", "g.json", "-o", "rec.obj", "--report", "r.json",
    ) == 0
    rep = json.loads((tmp_path / "r.json").read_text())["results"]
    assert rep["harmonic_max"] < 1e-6
    assert rep["loop_max_rel"] < 1e-8
    assert (tmp_path / "rec.obj").exists()


@pytest.mark.parametrize("k", ["2", "-0.01", "0.01"])
def test_rep_reconstructs_delaunay_s_exports(tmp_path, k):
    """Exports from the spacelike axis (orientation -1) close their loops:
    the chart's sign follows the surface's orientation."""
    assert run(tmp_path, "rep", "--export-from", "delaunay-s", "--k", k, "-o", "g.json") == 0
    assert run(tmp_path, "rep", "--gauss-data", "g.json", "-o", "rec.obj") == 0


def test_rep_constant_g_exit1(tmp_path):
    from cmc_lab.jets import Jet2

    gj = Jet2.constant(0.25 + 0.1j, (0.0, 0.0), 3)
    node = {"g": [0.25, 0.1], "omega_hat": [0.0, 0.0],
            "g_jet": [[float(np.real(z)), float(np.imag(z))] for z in gj.c.ravel()]}
    doc = {"grid": {"u0": 0.0, "v0": 0.0, "du": 0.1, "dv": 0.1, "nu": 2, "nv": 2},
           "H": 0.5, "degree": 3, "nodes": [[node, node], [node, node]]}
    (tmp_path / "const.json").write_text(json.dumps(doc))
    assert run(tmp_path, "rep", "--gauss-data", "const.json", "-o", "x.obj") == 1


def test_rep_malformed_json_exit2(tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    assert run(tmp_path, "rep", "--gauss-data", "bad.json", "-o", "x.obj") == 2


def test_rep_missing_file_exit3(tmp_path):
    assert run(tmp_path, "rep", "--gauss-data", "nope.json", "-o", "x.obj") == 3


def test_classify_determinism(tmp_path):
    for name in ("a.json", "b.json"):
        assert run(
            tmp_path, "classify", "--family", "model-25", "--grid", "7",
            "--samples", "1", "--seed", "5", "-o", name,
        ) == 0
    da = json.loads((tmp_path / "a.json").read_text())
    db = json.loads((tmp_path / "b.json").read_text())
    da.pop("timing"), db.pop("timing")
    da["config"].pop("out"), db["config"].pop("out")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_threads_env_does_not_change_results(tmp_path, monkeypatch):
    monkeypatch.setenv("CMC_LAB_THREADS", "3")
    assert run(tmp_path, "sweep", "--k", "2,3", "--H", "0.5", "--grid", "5", "-o", "p.csv") == 0
    monkeypatch.setenv("CMC_LAB_THREADS", "1")
    assert run(tmp_path, "sweep", "--k", "2,3", "--H", "0.5", "--grid", "5", "-o", "q.csv") == 0
    assert (tmp_path / "p.csv").read_text() == (tmp_path / "q.csv").read_text()
