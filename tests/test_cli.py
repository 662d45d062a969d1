import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cmc_lab import cli
from cmc_lab import jets as jt
from cmc_lab import singularities as sg
from cmc_lab import surfaces as sf
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
    # near k = 1 the conjugate's samples are of the first kind, with rank decided
    # on the root gate's scale; the determinant is off its closed form by 3% here
    assert run(
        tmp_path, "classify", "--family", "conjugate", "--of", "delaunay-t",
        "--k", "1.0000001", "-o", "k1.json",
    ) == 0
    res = strict_json(tmp_path / "k1.json")["results"]
    assert {s["kind"] for s in res["samples"]} == {"first_kind"}
    assert res["criterion"]["verdict"] == "cusp25"
    pred = sg.conjugate_condition4_det("I-i", 1.0000001, 0.5)
    assert abs(res["criterion"]["condition4_det"] - pred) <= 0.05 * abs(pred)


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
    (("verify", "--suite", "fields", "--seed", "-1"), "--seed"),
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
    # |k| from about 1.34e154 on, (k - 1)^2 overflows a float
    (("generate", "--family", "delaunay-t", "--k", "1.4e154"), "--k"),
    (("generate", "--family", "conjugate", "--of", "delaunay-t", "--k", "1e200"), "--k"),
    (("rep", "--export-from", "delaunay-s", "--k=-1e300"), "--k"),
    (("classify", "--family", "conjugate", "--of", "delaunay-s", "--k=-1e160"), "--k"),
    # 1/(8 H^2) is not a finite positive float
    (("generate", "--family", "delaunay-l-i", "--H=1e-200", "--nr", "5", "--nt", "5"), "--H"),
    (("generate", *DT, "--H=1e-300"), "--H"),
    (("generate", *DT, "--H=1e300"), "--H"),
    # no orientation probe point is spacelike: the message names every parameter
    (("generate", "--family", "conjugate", "--of", "delaunay-t", "--k=1e18", "--nr", "5", "--nt", "5"),
     "--k"),
    (("classify", "--family", "delaunay-s", "--k", "2", "--H", "250"), "--H"),
    # a conjugate on the S template evaluates sinh and cosh of phi_t t at t = +-1.5,
    # which overflow from |k + 1| of about 4.49e5 on
    (("classify", "--family", "conjugate", "--of", "delaunay-t", "--k=-1e100"), "--k"),
    (("generate", "--family", "conjugate", "--of", "delaunay-t", "--k=-1e100", "--nr", "5", "--nt", "5"),
     "--k"),
    (("classify", "--family", "conjugate", "--of", "delaunay-s", "--k=1e100"), "--k"),
    (("classify", "--family", "conjugate", "--of", "delaunay-s", "--k=1e6"), "--k"),
    # the T template at huge |k|: no spacelike orientation probe, or |k - 1|^3 overflows
    (("classify", "--family", "conjugate", "--of", "delaunay-t", "--k=1e100"), "--k"),
    (("classify", "--family", "conjugate", "--of", "delaunay-s", "--k=-1e100"), "--k"),
    (("classify", "--family", "conjugate", "--of", "delaunay-t", "--k=1e120"), "--k"),
    # rep --export-from past the conformal chart's bound, |k| <= min(5e4 |H|, 1e7)
    (("rep", "--export-from", "delaunay-t", "--k", "1e6"), "--k"),
    (("rep", "--export-from", "delaunay-t", "--k", "1e12"), "--k"),
    (("rep", "--export-from", "delaunay-s", "--k=-1e8"), "--k"),
    (("rep", "--export-from", "delaunay-t", "--k=2e7", "--H", "1000"), "--k"),
    # an H at which E G at the orientation probe, about 1/H^4, would overflow; just
    # above that bound no probe point orients the surface
    (("classify", "--family", "conjugate", "--of", "delaunay-t", "--k", "2", "--H=1e-100"), "--H"),
    (("classify", "--family", "conjugate", "--of", "delaunay-t", "--k", "2", "--H=1.2e-77"), "--H"),
    (("classify", "--family", "conjugate", "--of", "delaunay-t", "--k", "2", "--H=1.3e-77"), "--H"),
    # a conjugate's degree-5 jets take (H |k - 1|^3)^-5, refused from |H| of about
    # 4.5e-62 down at k = 2
    (("classify", "--family", "conjugate", "--of", "delaunay-t", "--k", "2", "--H=1e-70"), "--H"),
])
def test_bad_numbers_exit2_naming_the_flag(tmp_path, capsys, argv, flag):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert exit_code(tmp_path, *argv, "-o", "out") == 2
    assert flag in capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("family, k, H", [("delaunay-t", "2.5e4", "0.5"), ("delaunay-s", "-2.5e4", "0.5"),
                                        ("delaunay-t", "-1e7", "500")])
def test_export_runs_up_to_its_k_bound(tmp_path, family, k, H):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert exit_code(tmp_path, "rep", "--export-from", family, f"--k={k}", "--H", H,
                         "--ns", "5", "--nt", "3", "-o", "out") == 0
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("H", ["1e-13", "1e-30"])
@pytest.mark.parametrize("spec", [("conjugate", "--of", "delaunay-t", "--k", "2"),
                                  ("conjugate", "--of", "delaunay-l-ii"),
                                  ("delaunay-t", "--k", "2"), ("delaunay-s", "--k", "2")])
def test_classify_orients_surfaces_at_tiny_H(tmp_path, spec, H):
    """The orientation probe compares H_mean with H, relative to |H|."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert exit_code(tmp_path, "classify", "--family", *spec, f"--H={H}", "-o", "out") == 0
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("H", ["1e-13", "1e-30"])
def test_lightlike_i_at_tiny_H_stays_unoriented(tmp_path, capsys, H):
    assert exit_code(tmp_path, "classify", "--family", "delaunay-l-i", f"--H={H}", "-o", "out") == 2
    assert "--H: could not orient surface" in capsys.readouterr().err


@pytest.mark.parametrize("family, k", [("delaunay-t", "1e100"), ("delaunay-s", "-1e100")])
def test_generate_at_huge_k_runs_without_overflow(tmp_path, family, k):
    """Below the (k - 1)^2 refusal the axis profiles' jets stay finite: their
    largest coefficient is delta's, about k^2."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert exit_code(tmp_path, "generate", "--family", family, f"--k={k}", "--nr", "5", "--nt", "5",
                         "-o", "out") == 0
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("argv, named", [
    (("--family", "conjugate", "--of", "delaunay-t", "--k=1e18"), ("--k", "--H", "k = 1e+18", "H = 0.5")),
    (("--family", "delaunay-s", "--k", "2", "--H", "250"), ("--k", "--H", "k = 2.0", "H = 250.0")),
    (("--family", "delaunay-l-i", "--H", "1e-60"), ("--H", "H = 1e-60")),
])
def test_orientation_failure_names_every_parameter(tmp_path, capsys, argv, named):
    assert exit_code(tmp_path, "generate", *argv, "--nr", "5", "--nt", "5", "-o", "out") == 2
    err = capsys.readouterr().err
    assert "could not orient surface" in err and all(text in err for text in named), err
    assert ("--k" in err) == ("--k" in named)  # a lightlike surface has no k


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


GENERATE = ("generate", "--family", "delaunay-t", "--k", "2", "--nr", "9", "--nt", "8", "-o", "g.obj")


def test_shared_parser_serves_a_sequence_of_calls_as_fresh_processes_do(tmp_path, capsys):
    """A rejected argv, a run, --version and the same run again in one process
    give the exit codes, output and files of one fresh process per call."""
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir(), fresh.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    bad = ("generate", "--family", "delaunay-t", "--k", "abc", "-o", "g.obj")
    for argv, code in ((bad, 2), (GENERATE, 0), (("--version",), 0), (GENERATE, 0)):
        assert exit_code(here, *argv) == code
        got = capsys.readouterr()
        want = subprocess.run([sys.executable, "-m", "cmc_lab.cli", *argv], env=env, cwd=fresh,
                              capture_output=True, text=True, timeout=120)
        assert (code, got.out, got.err) == (want.returncode, want.stdout, want.stderr), argv
        if argv is bad:  # argparse names the converter as before
            assert "argument --k: invalid finite_float value: 'abc'" in got.err
        for name in ("g.obj", "g.obj.json"):  # the sidecar carries no timing
            assert (here / name).exists() == (fresh / name).exists()
            if (here / name).exists():
                assert (here / name).read_bytes() == (fresh / name).read_bytes()


def test_shared_parser_calls_the_current_command_and_converters(tmp_path, monkeypatch):
    """Rebinding cli.cmd_verify or cli.finite_float after the parser is built
    takes effect at the next call (a profiler wraps them the same way)."""
    assert run(tmp_path, *GENERATE) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.trials) or 7)
    finite = cli.finite_float
    monkeypatch.setattr(cli, "finite_float", lambda text: seen.append(text) or finite(text))
    assert run(tmp_path, "verify", "--trials", "3") == 7
    assert run(tmp_path, *GENERATE, "--H", "0.25") == 0
    assert seen == [3, "2", "0.25"]


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


@pytest.mark.parametrize("family", ["delaunay-t", "delaunay-s"])
@pytest.mark.parametrize("k", ["3000", "-5000", "1e16", "1e100", "-1e100"])
def test_classify_at_large_k_certifies_what_it_can_probe(tmp_path, family, k):
    """Some fold-obstruction probes leave the spacelike set at large |k|: their
    records' certificates are undetermined with the reason, and classify
    exits 0 (at |k| = 1e100 too: the profile's jets stay finite).  Every
    sample is a cone point."""
    assert run(tmp_path, "classify", "--family", family, f"--k={k}", "-o", "c.json") == 0
    results = json.loads((tmp_path / "c.json").read_text())["results"]
    assert results["samples"] and {s["kind"] for s in results["samples"]} == {"conelike"}
    certs = results["certificates"]
    assert any(c["conclusion"] == "undetermined" for c in certs)
    for cert in certs:
        if cert["conclusion"] == "undetermined":
            assert cert["reason"] == "a probe point is off the spacelike regular set"
            assert sorted(cert) == ["conclusion", "location", "offset", "reason"]
        else:
            assert cert["conclusion"] == "fold impossible" and cert["sheet_flip"] is True


def test_gauss_limit_suite_counts_an_undetermined_certificate_as_failed(monkeypatch):
    certify = sg.cmc_fold_obstruction

    def undetermined(S, recs, **kw):
        return [{"location": c["location"], "offset": c["offset"], "conclusion": "undetermined",
                 "reason": "a probe point is off the spacelike regular set"} for c in certify(S, recs, **kw)]

    monkeypatch.setattr(sg, "cmc_fold_obstruction", undetermined)
    failures = []
    ok, total = cli._suite_gauss_limit(8, np.random.default_rng(0), failures)
    assert ok == 0 and total == len(failures) > 0
    assert all(f["cert"]["conclusion"] == "undetermined" for f in failures)


def test_uncomputed_condition4_det_is_null(tmp_path):
    # samples not of the first kind: the determinant is never computed
    assert run(tmp_path, "classify", "--family", "delaunay-t", "--k", "2", "-o", "c.json") == 0
    crit = strict_json(tmp_path / "c.json")["results"]["criterion"]
    assert crit["verdict"] == "not_applicable" and "not of the first kind" in crit["reason"]
    assert crit["condition4_det"] is None
    # next to k = 1 (rho0 = 8e-5) the grid-4 records are rank 1 on the root gate's
    # scale, as the finer grids' are: the determinant is computed
    assert run(tmp_path, "sweep", "--k", "1.0001", "--H", "0.3", "--grid", "4", "-o", "s.csv") == 0
    with open(tmp_path / "s.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["verdict"] == "cusp25"
    assert float(row["rel_diff"]) < 1e-6
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


@pytest.mark.parametrize("k", ["1.0001", "0.9999", "1.000001"])
def test_sweep_next_to_k_1_is_grid_independent(tmp_path, k):
    """Next to k = 1 dX of a record is nearly rank 0 (rho0 = 8e-5 to 8e-7 at
    H = 0.3); its rank is decided on the root gate's scale, so every grid
    gives cusp25 with one determinant."""
    rows = []
    for grid in ("2", "4", "9", "21"):
        assert run(tmp_path, "sweep", "--k", k, "--H", "0.3", "--grid", grid, "-o", "s.csv") == 0
        with open(tmp_path / "s.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        rows.append(row)
    assert {row["verdict"] for row in rows} == {"cusp25"}
    assert len({row["cond4_det"] for row in rows}) == 1


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


def _reference_suite_fields(trials, rng, failures):
    """The per-trial loop the batched fields suite replaced: scalar jets, one
    perturbation, chain and condition-4 determinant per trial."""
    from cmc_lab.jets import Jet2, VectorFieldJet, field_chain, partial_values

    ok = 0
    M = sf.standard_model("cusp25")
    C = sf.conjugate_of("delaunay_timelike", k=2.0, H=0.5)
    targets = [
        (M, sg.trace_singular_curve(M, box=(-0.5, 0.5, -0.5, 0.5), n_grid=5)),
        (C, sg.trace_singular_curve(C, box=(-0.3, 0.3, 0.2, 1.0), n_grid=5)),
    ]
    base = (0.0, 0.0)
    xi0 = VectorFieldJet.constant(0.0, 1.0, base)
    eta_g = VectorFieldJet.constant(1.0, 0.0, base)
    u, v = Jet2.variables(base, 5)
    per = max(1, trials // len(targets))
    for S, recs in targets:
        Y = sg.StraightChart(S, recs[len(recs) // 2]).jets()
        _, eta0, _, e = sg.special_null_field(Y)
        C0, _ = sg.constant_C(e)
        d4_0, _ = sg.condition4_det(partial_values(Y, 0, 1), e, C0)
        for _ in range(per):
            c = rng.uniform(-0.8, 0.8, size=11)
            a1 = Jet2.constant(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]), base) + c[0] * u + c[1] * v
            b2 = Jet2.constant(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]), base) + c[2] * u + c[3] * v
            a2 = u * (c[4] + c[5] * u + c[6] * v)
            b1g = u * (c[7] + c[8] * v)
            b1s = u * u * u * (c[9] + c[10] * v)
            xi_b, eta_b, _ = sg.perturb_fields(xi0, eta_g, a1, a2, b1g, b2)
            _, r3 = sg.condition3_det(Y, xi=xi_b, eta=eta_b)
            xi_s, eta_s, pred = sg.perturb_fields(xi0, eta0, a1, a2, b1s, b2, special=True)
            e = field_chain(Y, eta_s, 5)
            Cb, _ = sg.constant_C(e)
            d4_b, _ = sg.condition4_det(sg.xi_X(Y, xi_s), e, Cb)
            good = r3 < 1e-7 and abs(d4_b / d4_0 - pred) / abs(pred) < 1e-6
            ok += good
            if not good:
                failures.append({"suite": "fields", "surface": S.family,
                                 "cond3_rel": r3, "ratio": d4_b / d4_0, "predicted": pred})
    return ok, per * len(targets)


@pytest.mark.parametrize("trials", [1, 2, 3, 5, 40])
def test_batched_fields_suite_records_the_per_trial_numbers_to_the_bit(monkeypatch, trials):
    """Every trial fails (the prediction is negated, exactly), so each trial's
    cond3_rel, ratio and predicted are recorded: in trial order, as Python
    floats, with the same bits as the per-trial loop's."""
    perturb = sg.perturb_fields

    def negated(*args, **kw):
        xi, eta, pred = perturb(*args, **kw)
        return xi, eta, -pred

    monkeypatch.setattr(sg, "perturb_fields", negated)
    for seed in range(10):
        want, got = [], []
        per = max(1, trials // 2)
        assert _reference_suite_fields(trials, np.random.default_rng(seed), want) == (0, 2 * per)
        assert cli._suite_fields(trials, np.random.default_rng(seed), got) == (0, 2 * per)
        assert len(got) == 2 * per
        assert all(type(f[k]) is float for f in got for k in ("cond3_rel", "ratio", "predicted"))
        assert repr(got) == repr(want)


def test_fields_suite_makes_the_same_field_applications_at_any_trial_count(monkeypatch):
    """The trials are one batch: 4 and 40 trials make equally many field passes,
    each over the jets of every trial."""
    passes = []
    field_pass = jt._field_pass
    monkeypatch.setattr(jt, "_field_pass", lambda e, F: passes.append(F.shape[1]) or field_pass(e, F))

    def count(trials):
        passes.clear()
        ok, total = cli._suite_fields(trials, np.random.default_rng(0), [])
        assert (type(ok), ok, total) == (int, trials, trials)
        return len(passes)

    n = count(4)
    assert n > 0 and set(passes) == {4}
    assert count(40) == n and set(passes) == {40}


@pytest.fixture
def cold_field_targets():
    """The fields suite's target cache, empty before the test and after it."""
    cli._field_targets.cache_clear()
    yield
    cli._field_targets.cache_clear()


def test_field_targets_are_the_uncached_charts_read_only(cold_field_targets):
    families, coeffs = cli._field_targets()
    fresh_families, fresh = cli._field_targets.__wrapped__()
    assert families == fresh_families == ("model_25", "conjugate_of_delaunay_timelike")
    assert (coeffs.dtype, coeffs.shape) == (np.float64, (3, 2, 6, 6))
    assert coeffs.tobytes() == fresh.tobytes()
    assert cli._field_targets()[1] is coeffs and cli._field_targets.cache_info().currsize == 1
    with pytest.raises(ValueError):
        coeffs[0, 0, 0, 0] = 1.0


def test_a_second_fields_suite_call_neither_scans_nor_charts(monkeypatch, cold_field_targets):
    calls = []
    scan, chart = sg.trace_singular_curve, sg.StraightChart
    monkeypatch.setattr(sg, "trace_singular_curve", lambda *a, **kw: calls.append("scan") or scan(*a, **kw))
    monkeypatch.setattr(sg, "StraightChart", lambda *a, **kw: calls.append("chart") or chart(*a, **kw))
    first = []
    assert cli._suite_fields(4, np.random.default_rng(5), first) == (4, 4)
    assert calls == ["scan", "chart"] * 2
    calls.clear()
    again = []
    assert cli._suite_fields(4, np.random.default_rng(5), again) == (4, 4)
    assert calls == [] and again == first == []


def test_importing_the_cli_computes_no_field_targets():
    code = "import cmc_lab.cli as cli; print(cli._field_targets.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "0"


def test_cold_and_warm_verify_give_the_fresh_process_payload(tmp_path, capsys, cold_field_targets):
    """verify --suite all --trials 8 with the target cache empty, then filled,
    gives a fresh process's stdout and payload apart from timing."""
    argv = ("verify", "--suite", "all", "--trials", "8", "--seed", "3", "-o", "v.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    want = subprocess.run([sys.executable, "-m", "cmc_lab.cli", *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert want.returncode == 0, want.stderr

    def payload(path):
        p = strict_json(path)
        p.pop("timing")
        return p

    expected = payload(tmp_path / "v.json")
    for state in ("cold", "warm"):
        here = tmp_path / state
        here.mkdir()
        assert cli._field_targets.cache_info().currsize == (state == "warm")
        assert run(here, *argv) == 0
        assert capsys.readouterr().out == want.stdout
        assert payload(here / "v.json") == expected, state


def test_batched_laplacian_suite_lists_the_per_point_residuals_in_trial_order(monkeypatch):
    """The residual of each surface's batch equals the per-point one to the bit,
    and failures (forced by an offset) come in the order the points were drawn."""
    from cmc_lab import representation as rp

    residual = rp.laplacian_identity_residual
    seen = []

    def offset(S, p):
        res = residual(S, p)
        seen.append((S, p, res))
        return res + 1.0

    monkeypatch.setattr(rp, "laplacian_identity_residual", offset)
    failures = []
    assert cli._suite_laplacian(12, np.random.default_rng(3), failures) == (0, 12)
    want = []
    for S, (r, t), res in seen:
        assert r.shape == (3,)
        for i in range(3):
            one = residual(S, (float(r[i]), float(t[i])))
            assert one == res[i]
            want.append({"suite": "laplacian", "surface": S.family,
                         "point": [float(r[i]), float(t[i])], "residual": one + 1.0})
    assert repr(failures) == repr(want)


@pytest.mark.parametrize("name", cli.MODEL_VERDICTS)
def test_diffeo_suite_model_verdicts_are_the_computed_ones(name):
    S = sf.standard_model(name)
    assert cli._verdicts(S, (-0.5, 0.5, -0.5, 0.5)) == cli.MODEL_VERDICTS[name]


def _diffeo_suite_per_trial(trials, rng, failures):
    """The diffeo suite as a loop over its trials, each pushed surface scanned,
    tested and folded alone (a stack of one)."""
    box, draws = (-0.4, 0.4, -0.4, 0.4), []
    for name, (verdict0, fold0) in cli.MODEL_VERDICTS.items():
        for _ in range(max(1, trials // len(cli.MODEL_VERDICTS))):
            det_target = rng.uniform(0.5, 2.0)
            A = rng.uniform(-0.4, 0.4, (3, 3)) + np.eye(3)
            A *= (det_target / abs(np.linalg.det(A))) ** (1 / 3)
            Q, Cc = rng.uniform(-0.1, 0.1, (3, 3, 3)), rng.uniform(-0.05, 0.05, (3, 3, 3, 3))
            draws.append((name, verdict0, fold0, A, Q, Cc))
    ok = 0
    for trial, (name, verdict0, fold0, A, Q, Cc) in enumerate(draws):
        verdict, fold = cli._verdicts(sg.diffeo_push(sf.standard_model(name), A, Q, Cc), box)
        ok += verdict == verdict0 and fold == fold0
        if (verdict, fold) != (verdict0, fold0):
            failures.append({"suite": "diffeo", "trial": trial, "model": name, "verdict": verdict,
                             "expected": verdict0, "fold": fold, "expected_fold": fold0, "A": A.tolist()})
    return ok, len(draws)


@pytest.mark.parametrize("trials", [3, 40])
def test_stacked_diffeo_failures_are_the_per_trial_loops(monkeypatch, trials):
    """With expected verdicts that the cusp25 trials miss on the criterion and
    the fold trials miss on the fold test only, the stacked suite fails the
    same trials as the per-trial loop, entry for entry, each with its index in
    the draw."""
    monkeypatch.setitem(cli.MODEL_VERDICTS, "cusp25", ("rejected_cond3", "rejected"))
    monkeypatch.setitem(cli.MODEL_VERDICTS, "fold", ("rejected_cond4", "rejected"))
    got, want = [], []
    assert cli._suite_diffeo(trials, np.random.default_rng(9), got) \
        == _diffeo_suite_per_trial(trials, np.random.default_rng(9), want)
    per = max(1, trials // 3)
    assert json.dumps(got) == json.dumps(want) and len(got) == 2 * per
    assert [f["trial"] for f in got] == list(range(2 * per))
    assert {(f["fold"], f["expected_fold"]) for f in got if f["model"] == "fold"} == {("fold_candidate", "rejected")}


def test_diffeo_suite_makes_one_scan_and_one_chart(monkeypatch):
    """verify --suite diffeo --trials 40: its 39 pushes are one stack, scanned
    once and straightened in one chart."""
    calls = []
    scan, chart = sg.trace_singular_curve, sg.StraightChart
    monkeypatch.setattr(sg, "trace_singular_curve", lambda *a, **kw: calls.append("scan") or scan(*a, **kw))
    monkeypatch.setattr(sg, "StraightChart", lambda *a, **kw: calls.append("chart") or chart(*a, **kw))
    assert main(["verify", "--suite", "diffeo", "--trials", "40"]) == 0
    assert calls == ["scan", "chart"]


def test_lambda_rank_suite_counts_python_ints():
    ok, total = cli._suite_lambda_rank(40, np.random.default_rng(0), [])
    assert (type(ok), type(total)) == (int, int)
    assert ok == total == 36


def test_classify_straightens_each_record_once(tmp_path, monkeypatch, cold_field_targets):
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


def _finite_or_null(obj):
    """The payload with every non-finite float replaced by None: the former
    writer's first pass."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _reference_write_json(fh, payload):
    """The former write_json, on an open text file: json.dump with indent 2,
    sorted keys and allow_nan=False, chunk by chunk, then a newline."""
    json.dump(_finite_or_null(payload), fh, indent=2, sort_keys=True, allow_nan=False)
    fh.write("\n")


_JSON_FLOATS = st.one_of(
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -1.5e-310, 2.2250738585072014e-308,
                     np.float64(math.nan), np.float64(-math.inf), np.float64(-0.0)]))
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2**63, 10**400).flatmap(lambda n: st.sampled_from([n, -n])),
    st.text(st.characters(exclude_categories=())), _JSON_FLOATS)
_JSON_PAYLOADS = st.recursive(_JSON_SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=5), st.lists(kids, max_size=5).map(tuple),
    st.dictionaries(st.text(st.characters(exclude_categories=()), max_size=6), kids, max_size=5),
    st.dictionaries(st.integers(), kids, max_size=3)), max_leaves=30)


@given(_JSON_PAYLOADS)
@settings(max_examples=300, deadline=None)
@example({"a": [], "b": {}, "c": (), "d": [[], [{}], ((),)], "\x00\u00e9\ud800\n\"": "\x1f\u2028\U0001f600"})
@example([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, np.float64(0.1), 10**400, True, False, None])
@example({1: "int", 2: [1.5]})
@example({True: 1, 0: 2})
@example({None: 1})
@example({2.5: 1})
@example({math.nan: 1})
@example({"a": 1, 2: 3})
@example({(1, 2): 3})
@example(object())
def test_write_json_is_the_former_writer_byte_for_byte(payload):
    """The one-pass writer gives the former writer's text, or raises its
    exception type where it raised."""
    ref = io.StringIO()
    try:
        _reference_write_json(ref, payload)
    except (TypeError, ValueError) as e:
        with pytest.raises(type(e)):
            cli.write_json(os.devnull, payload)
        return
    assert sf._json_text(payload) + "\n" == ref.getvalue()


def test_write_json_writes_the_former_bytes_in_one_write(tmp_path, monkeypatch):
    """A classify report's file holds the former writer's bytes, written by one call."""
    assert run(tmp_path, "classify", "--family", "conjugate", "--of", "delaunay-t", "--k", "2", "-o", "c.json") == 0
    payload = json.loads((tmp_path / "c.json").read_text())
    payload["results"]["criterion"]["C"] = math.nan  # one non-finite float
    writes = []

    class Counting(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr("builtins.open", lambda path, mode: Counting())
    cli.write_json("c.json", payload)
    monkeypatch.undo()
    ref = io.StringIO()
    _reference_write_json(ref, payload)
    assert len(writes) == 1 and writes[0] == ref.getvalue() and '"C": null' in writes[0]


def test_mesh_sidecar_is_the_former_json_dump(tmp_path):
    mesh = sf.mesh_export(sf.delaunay_timelike(2.0, 0.5), 5, 4)
    mesh.sidecar["config"] = {"family": "delaunay-t", "k": 2.0, "out": "m.obj", "seed": None}
    path = mesh.write_obj(tmp_path / "m.obj")
    assert open(path).read() == json.dumps(mesh.sidecar, indent=2, sort_keys=True, allow_nan=False)


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


@pytest.mark.parametrize("k, H", [("2", "1e-4"), ("0.5", "1e-4"), ("0.5", "1e-5")])
def test_rep_round_trip_of_delaunay_s_at_small_H(tmp_path, k, H):
    """The chart's closed-form speed meets its table's tolerance where the
    surface route, which cancels in 1 - F'^2, did not."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(tmp_path, "rep", "--export-from", "delaunay-s", "--k", k, "--H", H, "-o", "g.json") == 0
        assert run(tmp_path, "rep", "--gauss-data", "g.json", "-o", "rec.obj", "--report", "r.json") == 0
    assert not caught, [str(w.message) for w in caught]
    assert json.loads((tmp_path / "r.json").read_text())["results"]["loop_max_rel"] < 1e-10


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
