"""Harmonic Gauss map and the integral-representation round trip.

Puts a timelike-axis Delaunay surface into a conformal chart, extracts its
Gauss map g and the 1-form coefficient omega_hat on a grid, checks the
harmonic-map residual and the closedness of the reconstruction integrand,
rebuilds the surface by path integration, and measures the discrepancy after
aligning the frame at the base node.  The compatibility (Gauss-Codazzi)
residuals certify the triple (metric, H, Hopf coefficient).
"""

import numpy as np

from cmc_lab import (
    conformal_profile_chart,
    delaunay_timelike,
    gauss_data_from_surface,
    harmonic_residual,
    integrate_representation,
    representation_roundtrip,
)
from cmc_lab.representation import gauss_codazzi_residual

S = delaunay_timelike(k=2.0, H=0.5)
profile = conformal_profile_chart(S, 0.2, 1.5)
print(f"conformal chart: s({profile.r_anchor}) = 0, s-range = {profile.s_range}")
for r in (0.3, 0.8, 1.4):
    res = profile.conformality_residual(profile.s_of_r(r), 0.4)
    print(f"  conformality residual at r = {r}: {res:.2e}")

s0, s1 = profile.s_of_r(0.3), profile.s_of_r(1.3)
gd = gauss_data_from_surface(profile, s0, s1, 0.0, 1.2, 25, 13)
worst = harmonic_residual(gd).max()  # one residual per grid node, a (nu, nv) array
print(f"\nGauss data on a {gd.nu}x{gd.nv} grid; worst harmonic residual {worst:.2e}")

rec = integrate_representation(gd, z0=(12, 6))
print(f"worst relative loop integral (closedness): {rec['loop_max_rel']:.2e}")

rt = representation_roundtrip(profile, gd, rec)
print(f"round-trip discrepancy after frame alignment: {rt['discrepancy']:.2e}")

print("\ncompatibility residuals (Gauss, Codazzi):")
for s in np.linspace(-0.6, 0.3, 4):
    rg, rc = gauss_codazzi_residual(profile, float(s), 0.5)
    print(f"  s = {s:+.2f}: ({rg:.2e}, {rc:.2e})")
