"""cmc-lab benchmark: seeded streams of real CLI jobs, checked and timed.

    python3 perfbench/run.py --workload mesh --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  Each job is one in-process ``cmc_lab.cli.main(argv)`` call
writing into a scratch directory (``rep`` jobs are an export and the
reconstruction of that export).  One client runs jobs back to back with no
think time; ``CMC_LAB_THREADS`` is removed from the environment, so the
program runs serially.  Every job's output is checked.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` replays a fixed
prefix of the stream untraced and then traced, and reports per-layer metrics
and the tracing overhead.  Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record, with provenance and every
job, is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# On a shared host the same job can run at half speed, in phases from a
# fraction of a second to minutes.  While a job runs, a short fixed loop of
# Python arithmetic and small NumPy operations (independent of cmc_lab) is
# timed every PACE_INTERVAL_S from a SIGALRM handler; the job's wall time, less
# the time spent in the loop, is scaled by REF_NOMINAL_S / (the loop's mean
# duration), i.e. to the speed of the reference host (2 vCPUs, CPython 3.11.7,
# NumPy 2.4.6) when undisturbed.
# Raw wall times are printed too.
PACE_INTERVAL_S = 0.01
REF_LOOPS = 25
REF_NOMINAL_S = 1e-4  # REF_LOOPS at about 4 us each on that host, undisturbed
_REF_B = np.arange(36.0).reshape(6, 6)
THREAD_ENV = ("CMC_LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the program and generate the jobs, then exit (set-up timing)")
    return ap.parse_args(argv)


# -- jobs ------------------------------------------------------------------------


def reference_s():
    """Duration of the machine-speed reference loop (about REF_NOMINAL_S)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_LOOPS):
        a = np.zeros((6, 6))
        a[1:, 1:] += 0.5 * _REF_B[:5, :5]
        acc += math.sqrt(a[2, 2] + i)
    return time.perf_counter() - t0


class Pace:
    """Samples ``reference_s`` before, during (every PACE_INTERVAL_S) and after
    a job, and converts the job's wall time to normalized seconds."""

    def __enter__(self):
        self.samples = [reference_s()]
        self.spent = 0.0
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PACE_INTERVAL_S, PACE_INTERVAL_S)
        return self

    def _tick(self, signum, frame):
        t = reference_s()
        self.samples.append(t)
        self.spent += t

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.samples.append(reference_s())

    def normalized(self, wall):
        """(wall time less the sampling, that time in normalized seconds)."""
        own = wall - self.spent
        return own, own * REF_NOMINAL_S / statistics.fmean(self.samples)


def run_job(cli, job, out):
    """Run a job's steps in-process; (exit codes, wall seconds, last stderr line)."""
    os.makedirs(out)
    rcs, seconds, message = [], 0.0, ""
    for step in job.steps:
        argv = [a.replace("{out}", out) for a in step]
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as e:  # argparse rejects the argv
                rc = e.code if isinstance(e.code, int) else 2
            seconds += time.perf_counter() - t0
        rcs.append(rc)
        if rc != 0:
            message = (sink.getvalue().strip().splitlines() or [""])[-1]
            break
    return rcs, seconds, message


def bytes_in(path):
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


def label(job):
    p = job.params
    return f"{job.kind}:{p.get('suite') or p.get('family') or 'sweep'}"


class Session:
    """Runs jobs in a scratch directory inside the checkout and checks them."""

    def __init__(self, cli, checks, workdir, tracer=None):
        self.cli, self.checks, self.workdir, self.tracer = cli, checks, workdir, tracer
        self.n = 0

    def run(self, job, traced=False):
        out = str(self.workdir / f"job-{self.n}")
        self.n += 1
        if self.tracer:
            self.tracer.enabled = traced
        try:
            with Pace() as pace:
                rcs, seconds, message = run_job(self.cli, job, out)
        finally:
            if self.tracer:
                self.tracer.enabled = False
        wall, seconds = pace.normalized(seconds)
        try:
            result = self.checks.check_job(job, out, rcs)
        except Exception as e:  # a malformed output is a failed job, not a crash
            result = self.checks.fail(f"check raised {type(e).__name__}: {e}")
        if not result.ok and message:
            result.reason += f" [{message}]"
        record = {"job": label(job), "argv": [list(s) for s in job.steps],
                  "seconds": seconds, "wall_s": wall, "pace_s": pace.spent,
                  "ok": result.ok, "reason": result.reason, "notes": result.notes,
                  "bytes": bytes_in(out)}
        shutil.rmtree(out, ignore_errors=True)
        return record


def run_stream(session, jobs, period, seconds, min_jobs):
    """Closed loop, one client: run jobs back to back until ``seconds`` of wall
    time in jobs have passed, at least ``min_jobs`` have run, and the current
    round of ``period`` jobs is complete."""
    records, busy, i = [], 0.0, 0
    while busy < seconds or i < min_jobs or i % period:
        rec = session.run(jobs[i % len(jobs)])
        records.append(rec)
        busy += rec["wall_s"]
        i += 1
    return records


# -- known inconsistencies -------------------------------------------------------


def known_issues(workload, cli, checks, workdir):
    """Fixed probes of the documented inconsistencies, reported as measured."""
    out = str(workdir / "probe")
    os.makedirs(out)
    runs = []

    def run(*argv):
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            rc = cli.main([a.replace("{out}", out) for a in argv])
        runs.append(" ".join(argv))
        return rc, (sink.getvalue().strip().splitlines() or [""])[-1]

    issues = {}
    if workload == "classify":
        run("classify", "--family", "conjugate", "--of", "delaunay-t", "--k=2.0", "--H=1.0",
            "--grid", "5", "--samples", "2", "-o", "{out}/c.json")
        det = checks.load_report(f"{out}/c.json")["results"]["criterion"]["condition4_det"]
        closed = checks.closed_form_cond4(2.0, 1.0)
        issues["a_cond4_off_half"] = {"k": 2.0, "H": 1.0, "computed": det, "closed_form": closed,
                                      "ratio": det / closed, "one_over_2H": 0.5}
        run("sweep", "--k=-1.0", "--H=0.3", "-o", "{out}/s.csv")
        with open(f"{out}/s.csv") as fh:
            row = next(csv.DictReader(fh))
        run("classify", "--family", "conjugate", "--of", "delaunay-t", "--k=-1.0", "--H=0.3",
            "-o", "{out}/c.json")
        crit = checks.load_report(f"{out}/c.json")["results"]["criterion"]
        issues["b_sweep_vs_classify"] = {
            "k": -1.0, "H": 0.3, "sweep_verdict": row["verdict"], "sweep_det": row["cond4_det"],
            "classify_verdict": crit["verdict"], "classify_det": crit["condition4_det"],
            "failed": row["verdict"] != crit["verdict"]}
    elif workload == "rep":
        run("rep", "--export-from", "delaunay-s", "--k=-1.0", "--H=0.5", "-o", "{out}/g.json")
        rc, msg = run("rep", "--gauss-data", "{out}/g.json", "--report", "{out}/r.json",
                      "-o", "{out}/r.obj")
        loop = checks.load_report(f"{out}/r.json")["results"]["loop_max_rel"]
        issues["c_rep_loop_margin"] = {"family": "delaunay-s", "k": -1.0, "H": 0.5,
                                       "loop_max_rel": loop, "loop_tol": 1e-8, "exit": rc,
                                       "margin": 1e-8 / loop}
        rc, msg = run("rep", "--export-from", "delaunay-s", "--k=0.01", "--H=0.5", "--ns", "9",
                      "--nt", "5", "-o", "{out}/g0.json")
        issues["e_spacelike_k_near_0"] = {"k": 0.01, "H": 0.5, "exit": rc, "message": msg[:160]}
    elif workload == "mesh":
        rc, msg = run("generate", "--family", "conjugate", "--of", "delaunay-s", "--k=2.0",
                      "--H=0.5", "--nr", "11", "--nt", "11", "-o", "{out}/m.obj")
        issues["d_conjugate_s_domain"] = {"k": 2.0, "H": 0.5, "exit": rc, "message": msg[:160]}
    shutil.rmtree(out, ignore_errors=True)
    return {"probes": runs, **issues}


# -- reporting -------------------------------------------------------------------


def provenance(workload, seed, jobs, digest, env_before):
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        src.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return {"git_commit": commit, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "thread_env": env_before, "workload": workload, "seed": seed,
            "jobs_generated": len(jobs), "argv_sha256": digest}


def quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records, period, setup_times, peak_mb):
    """End-to-end metrics (job times normalized, set-up in raw wall time), with
    raw wall-clock figures and sample counts for the summary lines."""
    times = [r["seconds"] for r in records]
    wall = [r["wall_s"] for r in records]
    busy = sum(times)
    rounds = [period / sum(times[i:i + period]) for i in range(0, len(times), period)]
    p90 = quantile(times, 0.9)
    ok = sum(r["ok"] for r in records)
    metrics = {
        "jobs_per_s": metric(statistics.median(rounds), "1/s"),
        "job_p50_s": metric(statistics.median(times), "s"),
        "job_p90_s": metric(p90, "s"),
        "ok_share": metric(ok / len(records), "share"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    samples = {
        "jobs_per_s": f"median of n={len(rounds)} rounds of {period} jobs; {len(records)} jobs "
                      f"over {busy:.2f} normalized s; raw {len(wall) / sum(wall):.4g} jobs/s",
        "job_p50_s": f"n={len(records)}; raw {statistics.median(wall):.4g} s",
        "job_p90_s": f"n={len(records)}, {sum(t > p90 for t in times)} beyond; "
                     f"raw {quantile(wall, 0.9):.4g} s",
        "ok_share": f"n={len(records)}, failed_share={(len(records) - ok) / len(records)!r}",
        "setup_s": f"n={len(setup_times)} fresh interpreters, wall time: "
                   + ", ".join(f"{t:.3f}" for t in setup_times),
        "peak_rss_mb": "n=1 (ru_maxrss of this process)",
    }
    return metrics, samples


def measure_setup(workload, seed):
    """Wall time of fresh interpreters that import the program and build the jobs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
           "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def print_failures(records):
    for i, r in enumerate(records):
        if not r["ok"]:
            print(f"failed job {i} {r['job']}: {r['reason']} :: {' | '.join(map(' '.join, r['argv']))}")


# -- modes -----------------------------------------------------------------------


def untraced(args, cli, checks, workloads, jobs, workdir):
    setup_times = measure_setup(args.workload, args.seed)
    period = workloads.jobs_per_round(args.workload)
    records = run_stream(Session(cli, checks, workdir), jobs, period, args.seconds,
                         workloads.min_jobs(args.workload))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, samples = end_to_end(records, period, setup_times, peak_mb)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']} ({samples[name]})")
    print_failures(records)
    return records, metrics, {"samples": samples}


def traced(args, cli, checks, workloads, jobs, workdir):
    import tracer as tr

    prefix = jobs[: workloads.TRACE_ROUNDS[args.workload] * workloads.jobs_per_round(args.workload)]
    tracer = tr.Tracer()
    tracer.install(tr.cmc_modules())
    session = Session(cli, checks, workdir, tracer)
    try:
        plain = [session.run(job) for job in prefix]
        by_label = {}
        traced_records = []
        for job in prefix:
            before = tracer.calls["quadrature.integrate"]
            rec = session.run(job, traced=True)
            traced_records.append(rec)
            by_label.setdefault(rec["job"], []).append(tracer.calls["quadrature.integrate"] - before)
        job_s = sum(r["seconds"] for r in traced_records)
        raw_s = sum(r["wall_s"] + r["pace_s"] for r in traced_records)  # what spans measure
        metrics = tr.per_layer_metrics(tracer, len(prefix), raw_s, job_s / raw_s,
                                       sum(r["bytes"] for r in traced_records))
        d0 = metrics["surfaces.jet_calls.d0"]["value"]
        all_jets = sum(metrics[f"surfaces.jet_calls.d{d}"]["value"] for d in range(6))
        metrics["surfaces.jet_d0_share"] = metric(d0 / all_jets if all_jets else 0.0, "share")
        plain_jps = len(plain) / sum(r["seconds"] for r in plain)
        traced_jps = len(prefix) / job_s
        metrics["trace.overhead"] = metric(plain_jps / traced_jps - 1.0, "share")

        # the same job traced alone and under cProfile: every wrapped binding site shows
        tracer.reset()
        session.run(prefix[0], traced=True)
        counts = tr.profile_counts(lambda: session.run(prefix[0]))
        mismatches = tr.cross_check(tracer, counts)
    finally:
        tracer.uninstall()
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(f"trace: {len(prefix)} jobs, untraced {plain_jps!r} jobs/s, traced {traced_jps!r} jobs/s")
    for lab, deltas in sorted(by_label.items()):
        print(f"by_job {lab}: quadrature.integrate_calls per job = {sum(deltas) / len(deltas)!r}")
    print(f"cross_check vs cProfile on {label(prefix[0])}: "
          + ("all call counts equal" if not mismatches else f"MISMATCH {mismatches}"))
    records = plain + traced_records
    print_failures(records)
    issues = known_issues(args.workload, cli, checks, workdir)
    print("known_issues " + json.dumps(issues, sort_keys=True))
    extra = {"known_issues": issues, "cross_check_mismatches": mismatches,
             "untraced_jobs_per_s": plain_jps,
             "traced_jobs_per_s": traced_jps,
             "integrate_calls_by_job": {k: sum(v) / len(v) for k, v in by_label.items()}}
    return records, metrics, extra


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cmc_lab" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'cmc_lab'}; run from a cmc-lab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env_before = {k: os.environ.get(k) for k in THREAD_ENV}
    os.environ.pop("CMC_LAB_THREADS", None)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import cmc_lab.cli as cli

    jobs = workloads.generate(args.workload, args.seed)
    if args.setup_only:
        return 0
    if Path(cli.__file__).resolve().parent != SRC / "cmc_lab":
        print(f"perfbench: imported cmc_lab from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks

    digest = workloads.argv_digest(jobs)
    prov = provenance(args.workload, args.seed, jobs, digest, env_before)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    base = ROOT / ".perfbench"
    workdir = base / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        mode = traced if args.trace else untraced
        records, metrics, extra = mode(args, cli, checks, workloads, jobs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(not r["ok"] for r in records)
    correct = failed == 0 and not extra.get("cross_check_mismatches")
    result = {"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}
    (base / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(base / "results" / name, "w") as fh:
        json.dump({**result, "provenance": prov, **extra, "jobs": records}, fh, indent=1,
                  default=repr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
