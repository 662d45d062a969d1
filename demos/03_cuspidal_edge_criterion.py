"""The (2,5)-cuspidal-edge criterion on conjugates of Delaunay surfaces.

For the conjugate of a timelike-axis Delaunay surface the singular curve
r = 0 is first kind; the order-3 determinant vanishes along it and the
order-5 determinant det(xi X, eta~^2 X, 3 eta~^5 X - 10 C eta~^4 X) is the
nonzero constant -36/(H |k-1|)^3 (9/H^2 on the k = -1 branch), certifying a
(2,5)-cuspidal edge at every sample.  The standard local models calibrate the machinery:
(u, v^2, v^5) scores 720 exactly, (u, v^2, v^3) fails the order-3 condition
with determinant 12, and the fold (u, v^2, 0) fails at order 5.
"""

from cmc_lab import criterion_25, conjugate_of, standard_model, trace_singular_curve
from cmc_lab.singularities import conjugate_condition4_det

print("standard models:")
for name in ("cusp25", "cuspidal_edge", "fold"):
    S = standard_model(name)
    recs = trace_singular_curve(S, box=(-1, 1, -1, 1), n_grid=7)
    rep = criterion_25(S, recs)
    extra = f"cond4 = {rep.condition4_det:g}" if rep.verdict != "rejected_cond3" else \
            f"cond3 = {rep.samples[0].cond3_det:g}"
    print(f"  {name:14s} -> {rep.verdict:15s} {extra}")

print("\nconjugate Delaunay surfaces (H = 1/2):")
print(f"  {'k':>5} {'(a, b)':>18} {'C':>10} {'cond4 det':>14} {'-36/(H|k-1|)^3':>18} verdict")
H = 0.5
for k in (2.0, 0.5, 3.0):
    S = conjugate_of("delaunay_timelike", k=k, H=H)
    recs = trace_singular_curve(S, box=(-0.3, 0.3, 0.1, 1.5), n_grid=13)
    rep = criterion_25(S, recs)
    pred = conjugate_condition4_det(S.meta["branch"], k, H)
    a, b = rep.special_field
    print(f"  {k:5.2f} ({a:8.1e}, {b:6.3f}) {rep.C:10.2e} {rep.condition4_det:14.6f} "
          f"{pred:18.1f} {rep.verdict}")

print("\nthe k = -1 branch (lightlike template) gets the same verdict:")
S = conjugate_of("delaunay_timelike", k=-1.0, H=H)
recs = trace_singular_curve(S, box=(-0.3, 0.3, 0.1, 1.3), n_grid=9)
rep = criterion_25(S, recs)
print(f"  k=-1.00 cond4 = {rep.condition4_det:.6f} (9/H^2 = {conjugate_condition4_det('I-ii', -1.0, H):.1f})"
      f" -> {rep.verdict}")
