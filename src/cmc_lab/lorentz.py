"""Lorentz-Minkowski linear algebra, the two-sheeted hyperboloid, the
extended complex plane of Gauss-map values, and the frame of a surface: its
first fundamental form and its oriented Lorentz unit normal.

The ambient space is R^3 = {(x0, x1, x2)} with the indefinite pairing
<x, y> = -x0*y0 + x1*y1 + x2*y2; x0 is the timelike coordinate.  The unit
timelike vectors form the two-sheeted hyperboloid (the values of a spacelike
surface's unit normal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets as jt

H2_TOL = 1e-12


class NotSpacelikeError(ValueError):
    """Raised off the spacelike regular set ("not a spacelike regular point")."""


@dataclass(frozen=True)
class LVec3:
    """A point/vector of Lorentz-Minkowski 3-space."""

    x0: float
    x1: float
    x2: float

    @classmethod
    def of(cls, arr) -> "LVec3":
        a = np.asarray(arr, dtype=float)
        return cls(float(a[0]), float(a[1]), float(a[2]))


def _components(x):
    if isinstance(x, LVec3):
        return x.x0, x.x1, x.x2
    return x[0], x[1], x[2]


def lorentz_inner(x, y):
    """<x, y>; the components may be numbers or jets."""
    x0, x1, x2 = _components(x)
    y0, y1, y2 = _components(y)
    return -(x0 * y0) + x1 * y1 + x2 * y2


def euclid_inner(x, y) -> float:
    x0, x1, x2 = _components(x)
    y0, y1, y2 = _components(y)
    return x0 * y0 + x1 * y1 + x2 * y2


def euclid_cross(x, y) -> tuple:
    """The Euclidean cross product x x y, component by component; the
    components may be numbers or jets."""
    x0, x1, x2 = _components(x)
    y0, y1, y2 = _components(y)
    return (x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0)


def lorentz_cross(x, y) -> LVec3:
    """The vector w with <w, z> = det(x, y, z) for every z.

    Relative to the Euclidean cross product this flips the timelike component:
    pairing the candidate against the three basis vectors shows w = (-e0, e1, e2)
    where e = x x y.
    """
    e = euclid_cross(x, y)
    return LVec3(-e[0], e[1], e[2])


def first_fundamental_form(Xu, Xv) -> tuple:
    """(E, F, G) = (<X_u, X_u>, <X_u, X_v>, <X_v, X_v>) of a surface frame,
    as numbers or as jets (whichever X_u and X_v are)."""
    return lorentz_inner(Xu, Xu), lorentz_inner(Xu, Xv), lorentz_inner(Xv, Xv)


def lorentz_normal(Xu, Xv, sign=1) -> tuple:
    """The oriented Lorentz unit normal nu = sign * w / sqrt(-<w, w>) of a
    surface frame, w = lorentz_cross(X_u, X_v), so that <nu, nu> = -1.

    `sign` is the surface's orientation (times any chart sign), making the
    mean curvature +H.  X_u and X_v may be numbers (the normal is computed
    in floating point) or jets (the normal's jet, one division by the jet of
    the norm).  Off the spacelike regular set <w, w> >= 0, and
    NotSpacelikeError is raised.  Every Lorentz normal in the library is
    built here.  Batched jets (see cmc_lab.jets) give a batched normal, and
    one element off the spacelike regular set raises for the whole batch.
    """
    e = euclid_cross(Xu, Xv)
    w = (-e[0], e[1], e[2])
    q = lorentz_inner(w, w)
    if not jt._all((q.value if isinstance(q, (jt.Jet1, jt.Jet2)) else q) < 0):
        raise NotSpacelikeError("not a spacelike regular point")
    norm = jt.sqrt(-q)
    return tuple((sign * wi) / norm for wi in w)


@dataclass(frozen=True)
class H2Point:
    """A point of the unit two-sheeted hyperboloid, tagged with its sheet."""

    point: LVec3
    sheet: str  # "upper" | "lower"

    def __post_init__(self):
        q = lorentz_inner(self.point, self.point)
        # scale-relative: <p,p> is a difference of ~x0^2-sized terms, so the
        # absolute 1e-12 bound is only meaningful at O(1) coordinates
        if abs(q + 1.0) >= H2_TOL * max(1.0, self.point.x0 * self.point.x0):
            raise ValueError(f"not on the hyperboloid: <p,p> = {q}")
        expected = "upper" if self.point.x0 > 0 else "lower"
        if self.sheet != expected:
            raise ValueError(f"sheet tag {self.sheet!r} inconsistent with x0 = {self.point.x0}")

    @classmethod
    def of(cls, arr) -> "H2Point":
        p = LVec3.of(arr)
        return cls(p, "upper" if p.x0 > 0 else "lower")


@dataclass(frozen=True)
class ExtComplex:
    """A point of the Riemann sphere: a finite complex value or the tagged infinity."""

    value: complex = 0j
    infinite: bool = False

    @classmethod
    def infinity(cls) -> "ExtComplex":
        return cls(0j, True)

    @classmethod
    def of(cls, w) -> "ExtComplex":
        if isinstance(w, ExtComplex):
            return w
        return cls(complex(w), False)

    def abs(self) -> float:
        return math.inf if self.infinite else abs(self.value)
