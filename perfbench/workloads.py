"""Seeded job streams for the four workloads.

A job is one unit of user work: one ``cmc_lab.cli.main(argv)`` call, or for
``rep`` an export followed by the reconstruction of that export.  Argument
lists carry the placeholder ``{out}`` for the job's scratch directory; the
runner substitutes it.  ``params`` holds what the checker needs to know about
the inputs, so checks never re-parse argv.

Streams are built in rounds.  Every round holds one job per stratum (family,
branch of k, grid size, suite) in a fixed order, and only the continuous
parameters and the verify seeds are drawn, so two seeds load the layers in the
same proportions and differ only in the numbers.  Runs end on a round
boundary, so every run has the same job mix.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("mesh", "classify", "rep", "invariance")

# H values drawn by classify/sweep jobs: the closed form for condition 4 is
# documented at H = 1/2, and H = 0.3 is where inconsistency (b) was reported.
H_GRID = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
MESH_SIZES = (21, 31, 41)
CLASSIFY_GRID = 5
CLASSIFY_SAMPLES = 2
REP_NS, REP_NT, REP_LOOP_TOL = 9, 5, 1e-4
FIELDS_TRIALS, DIFFEO_TRIALS = 4, 3
# one diffeo job (about 1.3 s) per four fields jobs (about 0.11 s): job_p90_s
# then sits near the median diffeo job, not on the edge between the two kinds
FIELDS_PER_ROUND = 4

# rounds generated per stream; the runner cycles if a run outlasts them
ROUNDS = {"mesh": 20, "classify": 20, "rep": 40, "invariance": 40}
# rounds replayed by a traced run (fixed, so traced counts repeat exactly)
TRACE_ROUNDS = {"mesh": 1, "classify": 2, "rep": 2, "invariance": 2}


@dataclass(frozen=True)
class Job:
    kind: str  # generate | classify | sweep | verify | rep
    steps: tuple  # one argv tuple per cli.main call
    params: dict = field(default_factory=dict, compare=False)


def _draw_k(rng, lo, hi):
    """k ~ U(lo, hi), kept 0.25 away from k = 1 (excluded by the program) and
    k = 0 (where the spacelike-axis radicand gets a double root; README (e))."""
    while True:
        k = float(rng.uniform(lo, hi))
        if abs(k - 1.0) >= 0.25 and abs(k) >= 0.25:
            return k


def _family_args(family, k):
    if family.startswith("conjugate-of-"):
        args = ["--family", "conjugate", "--of", family.removeprefix("conjugate-of-")]
    else:
        args = ["--family", family]
    return args + ([f"--k={k!r}"] if k is not None else [])


# -- mesh ------------------------------------------------------------------------

# k ranges per family on which `generate` succeeds over the full default
# domain; conjugate-of-delaunay-s fails for k > -1 (see README, issue (d)).
MESH_FAMILIES = (
    ("delaunay-t", (-3.0, 4.0)),
    ("delaunay-s", (-3.0, 4.0)),
    ("delaunay-l-i", None),
    ("delaunay-l-ii", None),
    ("conjugate-of-delaunay-t", (-2.5, 4.0)),
    ("conjugate-of-delaunay-s", (-3.0, -1.0)),
)


def mesh_jobs(rng, rounds):
    jobs = []
    for _ in range(rounds):
        for n in MESH_SIZES:
            for family, krange in MESH_FAMILIES:
                k = None if krange is None else _draw_k(rng, *krange)
                H = float(rng.uniform(0.3, 1.0))
                argv = ("generate", *_family_args(family, k), f"--H={H!r}",
                        "--nr", str(n), "--nt", str(n), "-o", "{out}/mesh.obj")
                jobs.append(Job("generate", (argv,), {"family": family, "k": k, "H": H, "n": n}))
    return jobs


# -- classify --------------------------------------------------------------------

# strata of k for the conjugate of delaunay-t: both sides of 1, -1 < k < 0,
# k < -1 (a different template) and k = -1 exactly (the lightlike template)
CONJ_K_STRATA = ((1.25, 4.0), (0.25, 0.75), (-0.8, -0.25), (-3.0, -1.2), (-1.0, -1.0))
DELAUNAY_FAMILIES = ("delaunay-t", "delaunay-s", "delaunay-l-i", "delaunay-l-ii")


def _classify(family, k, H):
    argv = ("classify", *_family_args(family, k), f"--H={H!r}", "--grid", str(CLASSIFY_GRID),
            "--samples", str(CLASSIFY_SAMPLES), "-o", "{out}/classify.json")
    return Job("classify", (argv,), {"family": family, "k": k, "H": H})


def classify_jobs(rng, rounds):
    jobs = []
    for _ in range(rounds):
        for lo, hi in CONJ_K_STRATA * 2:
            k = lo if lo == hi else _draw_k(rng, lo, hi)
            jobs.append(_classify("conjugate-of-delaunay-t", k, float(rng.choice(H_GRID))))
        for family in DELAUNAY_FAMILIES:
            k = _draw_k(rng, -3.0, 4.0) if family in ("delaunay-t", "delaunay-s") else None
            jobs.append(_classify(family, k, float(rng.uniform(0.3, 1.0))))
        # one k per sweep keeps sweeps as short as classify jobs, so job_p90_s
        # does not sit on the edge between two kinds of job
        for k in (-1.0, _draw_k(rng, -3.0, 4.0)):
            H = float(rng.choice(H_GRID))
            argv = ("sweep", f"--k={k!r}", f"--H={H!r}", "--grid", str(CLASSIFY_GRID),
                    "-o", "{out}/sweep.csv")
            jobs.append(Job("sweep", (argv,), {"ks": [k], "H": H}))
    return jobs


# -- rep -------------------------------------------------------------------------


# Exports from delaunay-t cost about twice as much for 0.25 < k < 4 as for
# k < 0, most near k = 1.25.  Each round holds one of each, so that the costly
# fifth of the jobs puts job_p90_s near its median rather than on the edge
# between the two groups, and the costly k cycles through four sub-ranges, so
# that every run of four rounds or more covers them all.
REP_COSTLY_K = ((0.25, 0.75), (1.25, 2.0), (2.0, 3.0), (3.0, 4.0))
REP_FAMILIES = ("delaunay-t", "delaunay-t", "delaunay-s", "delaunay-l-i", "delaunay-l-ii")


def rep_jobs(rng, rounds):
    jobs = []
    for r in range(rounds):
        kranges = ((-3.0, -0.25), REP_COSTLY_K[r % len(REP_COSTLY_K)], (-3.0, 4.0), None, None)
        for family, krange in zip(REP_FAMILIES, kranges):
            k = None if krange is None else _draw_k(rng, *krange)
            H = float(rng.uniform(0.3, 1.0))
            export = ("rep", "--export-from", family, *([f"--k={k!r}"] if k is not None else []),
                      f"--H={H!r}", "--ns", str(REP_NS), "--nt", str(REP_NT), "-o", "{out}/gauss.json")
            rebuild = ("rep", "--gauss-data", "{out}/gauss.json", "--loop-tol", repr(REP_LOOP_TOL),
                       "--report", "{out}/residuals.json", "-o", "{out}/reconstruction.obj")
            jobs.append(Job("rep", (export, rebuild), {"family": family, "k": k, "H": H,
                                                       "ns": REP_NS, "nt": REP_NT,
                                                       "loop_tol": REP_LOOP_TOL}))
    return jobs


# -- invariance ------------------------------------------------------------------


def _verify(suite, trials, seed):
    argv = ("verify", "--suite", suite, "--trials", str(trials), "--seed", str(seed),
            "-o", "{out}/verify.json")
    return Job("verify", (argv,), {"suite": suite, "trials": trials, "seed": seed})


def invariance_jobs(rng, rounds):
    jobs = []
    for _ in range(rounds):
        seeds = rng.integers(0, 2**31, size=FIELDS_PER_ROUND + 1)
        jobs += [_verify("fields", FIELDS_TRIALS, int(s)) for s in seeds[:-1]]
        jobs.append(_verify("diffeo", DIFFEO_TRIALS, int(seeds[-1])))
    return jobs


_GENERATORS = {"mesh": mesh_jobs, "classify": classify_jobs, "rep": rep_jobs,
               "invariance": invariance_jobs}


def generate(workload: str, seed: int, rounds: int | None = None) -> list:
    """The job stream of a workload; the same (workload, seed) gives the same jobs."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _GENERATORS[workload](rng, ROUNDS[workload] if rounds is None else rounds)


def jobs_per_round(workload: str) -> int:
    return len(generate(workload, 0, rounds=1))


def min_jobs(workload: str) -> int:
    """Jobs a run completes however slow the machine: one cycle of the strata."""
    return jobs_per_round(workload) * (len(REP_COSTLY_K) if workload == "rep" else 1)


def argv_digest(jobs) -> str:
    """sha256 of the generated argument lists, for provenance."""
    text = json.dumps([list(map(list, job.steps)) for job in jobs])
    return hashlib.sha256(text.encode()).hexdigest()
