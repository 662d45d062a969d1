"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402

import cmc_lab.cli as cli  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a = workloads.generate(workload, 7, rounds=3)
    assert a == workloads.generate(workload, 7, rounds=3)
    assert workloads.argv_digest(a) == workloads.argv_digest(workloads.generate(workload, 7, rounds=3))
    assert workloads.argv_digest(a) != workloads.argv_digest(workloads.generate(workload, 8, rounds=3))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_keep_the_same_strata_across_seeds(workload):
    labels = [[run.label(j) for j in workloads.generate(workload, s, rounds=2)] for s in (1, 2)]
    assert labels[0] == labels[1]


def test_reports_accept_nan_infinity_and_null(tmp_path):
    p = tmp_path / "r.json"
    p.write_text('{"a": NaN, "b": Infinity, "c": -Infinity, "d": null}')
    r = checks.load_report(p)
    assert math.isnan(r["a"]) and r["b"] == math.inf and r["c"] == -math.inf and r["d"] is None


def _run(job, out):
    rcs, _, _ = run.run_job(cli, job, str(out))
    return rcs


def _perturb_vertex(obj, index, delta):
    lines = obj.read_text().splitlines()
    v = [i for i, line in enumerate(lines) if line.startswith("v ")][index]
    _, a, b, c = lines[v].split()
    lines[v] = f"v {float(a) + delta!r} {b} {c}"
    obj.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("family,k", [("delaunay-t", 2.0), ("delaunay-s", -2.0),
                                      ("delaunay-l-ii", None), ("conjugate-of-delaunay-t", 2.0)])
def test_checker_rejects_a_vertex_moved_by_1e_6(tmp_path, family, k):
    argv = ("generate", *workloads._family_args(family, k), "--H=0.5", "--nr", "9", "--nt", "9",
            "-o", "{out}/mesh.obj")
    job = Job("generate", (argv,), {"family": family, "k": k, "H": 0.5, "n": 9})
    out = tmp_path / "job"
    rcs = _run(job, out)
    assert checks.check_job(job, str(out), rcs).ok
    _perturb_vertex(out / "mesh.obj", 9 * 3 + 4, 1e-6)
    assert not checks.check_job(job, str(out), rcs).ok


def test_checker_rejects_a_flipped_verdict(tmp_path):
    job = workloads._classify("conjugate-of-delaunay-t", 2.0, 0.5)
    out = tmp_path / "job"
    rcs = _run(job, out)
    assert checks.check_job(job, str(out), rcs).ok
    report = out / "classify.json"
    report.write_text(report.read_text().replace('"verdict": "cusp25"', '"verdict": "rejected_cond4"'))
    result = checks.check_job(job, str(out), rcs)
    assert not result.ok and "verdict" in result.reason


def test_checker_rejects_a_flipped_sweep_verdict(tmp_path):
    job = Job("sweep", (("sweep", "--k=2.0", "--H=0.5", "--grid", "5", "-o", "{out}/sweep.csv"),),
              {"ks": [2.0], "H": 0.5})
    out = tmp_path / "job"
    rcs = _run(job, out)
    assert checks.check_job(job, str(out), rcs).ok
    csv = out / "sweep.csv"
    csv.write_text(csv.read_text().replace("cusp25", "not_applicable"))
    assert not checks.check_job(job, str(out), rcs).ok


def test_checker_rejects_a_nonzero_exit(tmp_path):
    # the conjugate of delaunay-s at k = 2 fails over its default domain (README (d))
    argv = ("generate", "--family", "conjugate", "--of", "delaunay-s", "--k=2.0", "--H=0.5",
            "--nr", "5", "--nt", "5", "-o", "{out}/mesh.obj")
    job = Job("generate", (argv,), {"family": "conjugate-of-delaunay-s", "k": 2.0, "H": 0.5, "n": 5})
    out = tmp_path / "job"
    rcs = _run(job, out)
    assert rcs == [1]
    result = checks.check_job(job, str(out), rcs)
    assert not result.ok and "exit codes" in result.reason
    assert not checks.check_job(workloads._verify("fields", 4, 0), str(out), [0, 3]).ok


def test_condition4_is_checked_only_at_half():
    assert checks._cond4_notes(2.0, 0.5, -288.0)[0] is None
    assert checks._cond4_notes(2.0, 0.5, -287.0)[0] is not None
    reason, notes = checks._cond4_notes(2.0, 1.0, -36.0)  # inconsistency (a): recorded, not judged
    assert reason is None and notes["ratio_2H"] == pytest.approx(1.0)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_on_a_synthetic_nested_trace():
    clock = FakeClock()
    t = tr.Tracer(clock)
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and B [5, 7]
    for when, event in [(0, "A"), (1, "B"), (2, "C"), (3, None), (4, None), (5, "B"), (7, None),
                        (10, None)]:
        clock.t = float(when)
        t.enter(event) if event else t.exit()
    assert t.spans[("A", None)] == [1, 10.0, 5.0]
    assert t.spans[("B", "A")] == [2, 5.0, 4.0]
    assert t.spans[("C", "B")] == [1, 1.0, 1.0]
    assert t.self_s({"A", "B", "C"}) == 10.0
    assert not t.stack


def test_wrappers_count_every_call_and_match_cprofile(tmp_path):
    tracer = tr.Tracer()
    originals = dict(vars(cli.sg.Surface))
    tracer.install(tr.cmc_modules())
    session = run.Session(cli, checks, tmp_path, tracer)
    job = workloads._classify("conjugate-of-delaunay-t", 2.0, 0.5)
    try:
        assert session.run(job, traced=True)["ok"]
        counts = tr.profile_counts(lambda: session.run(job))
        assert tr.cross_check(tracer, counts) == []
        assert tracer.calls["jets.Jet2.__mul__"] > 0 and tracer.counts["records"] > 0
    finally:
        tracer.uninstall()
    assert dict(vars(cli.sg.Surface)) == originals
