"""Cone points and why CMC surfaces cannot have folds.

Traces the singular curve of a timelike-axis Delaunay surface (all of it
conelike: the curve r = 0 maps to one point), then prints the numerical
certificate that excludes fold singular points: the Gauss map's modulus tends
to 1 from both sides of the curve but with opposite signs of |g| - 1 (the
unit normal switches sheets of the hyperboloid), while the Laplace identity
Delta X = -2 H nu pins the normal to one sheet for a symmetric map.
"""

import json

from cmc_lab import (
    cmc_fold_obstruction,
    delaunay_timelike,
    fold_symmetry_test,
    gauss_map_of,
    trace_singular_curve,
)

S = delaunay_timelike(k=2.0, H=0.5)
records = trace_singular_curve(S, box=(-0.8, 0.8, 0.1, 2.0), n_grid=13)
print(f"traced {len(records)} singular samples; kinds: {sorted({r.kind for r in records})}")

rec = records[len(records) // 2]
print(f"\nsample at (r, t) = {rec.location}: dlambda = {rec.dlam}, null = {rec.null_vector}")

for r in (0.1, 0.01, -0.01, -0.1):
    g = gauss_map_of(S, (r, rec.location[1]))
    print(f"  |g| at r = {r:+.2f}: {g.abs():.6f}")

# one certificate per record: all records share one Gauss-map call and one Laplace call
certs = cmc_fold_obstruction(S, records)
print("\ncertificate at that sample:")
print(json.dumps(certs[len(records) // 2], indent=2, sort_keys=True, default=repr))
print(f"fold impossible at {sum(c.get('sheet_flip', False) for c in certs)} of {len(certs)} samples")

ft = fold_symmetry_test(S, records)[len(records) // 2]
print(f"\nfold symmetry test: {ft.verdict} ({ft.reason})")
