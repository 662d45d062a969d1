"""Truncated Taylor (jet) arithmetic in one and two variables.

All derivative information in this library flows through these jets: a jet of
degree D at a base point stores the Taylor coefficients c[a] (univariate) or
c[a, b] (bivariate, monomial u^a v^b, a + b <= D).  Arithmetic is exact
truncation: the product of two jets is the coefficient convolution restricted
to total degree <= D, and elementary functions are composed through their
Taylor series, which is exact through degree D because the non-constant part
of a jet is nilpotent in the truncated algebra.

A product is computed from a pair table built once per degree at import: the
flat indices (ia, ib, io) of every term A[ia] * B[ib] that lands on an output
coefficient io of total degree <= D.  The terms are gathered from the raveled
coefficients by integer indexing (faster than ndarray.take here), multiplied
in one array operation and summed per output coefficient by np.bincount (the
real and imaginary parts separately for complex jets).  The table lists the
terms in lexicographic order of the left factor's monomial, and bincount adds
them in table order starting from 0.0, so each output coefficient is the same
sequence of rounded additions as the schoolbook loop
"for each (a, b): out[a:, b:] += A[a, b] * B[...]": for finite coefficients
the result is bit-identical to it.  (That loop skipped zero A[a, b]; adding
the exact zero terms changes no bit of a sum that starts from +0.0.)

One element (a scalar jet or a batch of one) gathers through the table itself.
A batch of B elements gathers through flat maps: the table offset by the start
of each element's coefficients, so that element e's terms fill the bins of
element e in table order.  The capacity of a product pass is the number of
elements whose maps take at most _PASS_BYTES (86 at degree 5 in two
variables); the maps of the capacity are built once per table, and a batch of
B elements reads views of their first B elements.  A larger batch is
multiplied in chunks of the capacity.  An empty batch gives an empty batch.

Composite operations are array kernels over coefficient arrays, not chains of
jets: independent products are stacked on a leading axis and made by one call
of the product kernel, which takes a stack over the capacity in chunks of
elements (compose2's term products go in passes of as many items as fit in
the capacity).  Since each element is binned in table order on its own, a
product in a stack is bit for bit the product made alone.

Degree is capped at 5: the fifth-order directional derivatives consumed by the
cuspidal-edge criterion are the deepest anything here needs, and a fixed cap
keeps every coefficient array the same small shape.

Batch axis.  A jet's coefficient array has shape batch + (D+1,) * nvars:
batch is () for a jet at one base point and (B,) for a batch of B base
points, evaluated by one array operation instead of B Python calls.  Every
operator is written once, with c[..., idx] indexing, so a scalar jet is the
jet with an empty batch shape.  The base of a Jet2 is (u0, v0) and that of a
Jet1 is x0, numbers or (B,) arrays; `constant` and `coordinate` build a batch
from arrays of base points.  `value`, `partial` and the elementary functions
give (B,) arrays where a scalar jet gives numbers; a (B,) array adds or
multiplies as one constant per element, and `element(i)` is the scalar jet
of element i.  Jets combine only at the same base, batch shape included: a
scalar jet never meets a batch of one.

Array contract.  The elementary functions (sqrt, log, sin, cos, sinh, cosh,
arctan, artanh) take a jet, a float or an array of floats: a
non-jet argument goes to the NumPy ufunc, so one expression written with them
serves a jet, a single point and an array of points alike (the quadrature
integrands are such expressions).  Outside its domain a ufunc returns NaN
rather than raising; the jet branch raises JetDomainError.

Sums, products, reciprocals, quotients, integer powers and square roots of a
batch are bit-identical to the scalar kernel applied element by element: the
batched bincount adds each element's terms in table order starting from 0.0,
and the reciprocal and square-root series are built from 1/g0 and sqrt(g0) by
multiplication only.  So are `compose2` (and with it the Lorentz normal, which
takes products, a square root and a quotient) and `compose_inverse`.

Each composite kernel makes the products and sums that the same operation
written jet by jet makes, with the same factors in the same order, so for
finite coefficients it is bit-identical to that (the test suite keeps the
jet-by-jet versions as references):
  - Horner evaluation of a series (every elementary function, the reciprocal
    and so division) makes per order one product with the nilpotent part and
    one sum at the value slot; an integer power makes the products of binary
    powering in their order.
  - `compose2` makes per degree one pass for the next powers of U - u0 and
    V - v0, then passes for the products pu[a] * pv[b] of every term.  Each
    component sums those times its own coefficients in row-major order from
    0.0, skipping a term whose coefficient vanishes in every element, so a
    sequence of jets gives each component as its own composition.
  - A field chain stacks all jets of X; per order one pass makes e1 * df/du
    and e2 * df/dv of every jet, and the two are summed as jets are summed.
Stacking a real with a complex factor computes the real one in complex
arithmetic with zero imaginary parts, which gives the real products' bits.
The other elementary functions agree with the scalar ones to 1e-13 relative:
NumPy may evaluate a transcendental function of an array with another kernel
than of a single value, so their series may differ in the last bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

MAX_DEGREE = 5

# the coefficients (a, b) with a + b <= d of a bivariate jet of degree d
_TRIANGLE = [np.add.outer(np.arange(d + 1), np.arange(d + 1)) <= d for d in range(MAX_DEGREE + 1)]


class JetError(Exception):
    pass


class JetDomainError(JetError):
    """Elementary function evaluated outside its domain ("jet domain error")."""


class JetDivisionError(JetError):
    """Division by a jet whose value coefficient is zero ("jet division singular")."""


class JetOrderError(JetError):
    """Differentiation requested on a degree-0 jet ("jet order exhausted")."""


def _batch_shape(x):
    """() for one base coordinate, (B,) for a (B,) array of them."""
    return x.shape if isinstance(x, np.ndarray) else ()


def _same_base(a, b):
    """Whether two base points agree: both one point or both batches (a jet
    stores numbers or (B,) arrays), with equal coordinates."""
    x, y = (a[0], b[0]) if isinstance(a, tuple) else (a, b)
    if type(x) is not type(y):  # a number and an array: never mixed
        return False
    try:
        return a is b or bool(a == b)
    except ValueError:  # batches of more than one point compare elementwise
        return np.array_equal(a, b)


def _all(mask):
    """`mask` is true everywhere (one flag, or one per batch element)."""
    return mask.all() if isinstance(mask, np.ndarray) else bool(mask)


def _pair_table(degree: int, nvars: int):
    """Flat indices (ia, ib, io) of the truncated product of two coefficient
    arrays of shape (degree + 1,) * nvars, left monomials in lexicographic order,
    and the number of coefficients of one such array."""
    shape = (degree + 1,) * nvars
    monomials = [m for m in itertools.product(range(degree + 1), repeat=nvars)
                 if sum(m) <= degree]
    terms = [(x, y, tuple(p + q for p, q in zip(x, y)))
             for x in monomials for y in monomials if sum(x) + sum(y) <= degree]
    ia, ib, io = (np.ravel_multi_index(tuple(np.array(idx).T), shape) for idx in zip(*terms))
    return ia, ib, io, math.prod(shape)


# pair tables by number of variables and degree
_PAIRS = {nvars: [_pair_table(d, nvars) for d in range(MAX_DEGREE + 1)] for nvars in (1, 2)}

# the flat maps of each pair table by (nvars, degree): those of `_capacity`
# elements, built on first use
_MAPS = {}
_PASS_BYTES = 1 << 18  # the flat maps of one product pass take at most this


def _capacity(nvars, degree):
    """The most elements one product pass takes: those whose flat maps fit in
    _PASS_BYTES (86 at degree 5 in two variables)."""
    return max(1, _PASS_BYTES // (3 * _PAIRS[nvars][degree][0].nbytes))


def _flat_maps(nvars, degree, size):
    """The pair table of (nvars, degree) offset for each element of a batch of `size`
    coefficients, as read-only flat gather and bin indices; None over the capacity.
    Elements come in order, so a batch of B elements reads the first B entries
    per term of the capacity's maps, sliced on each call."""
    ia, ib, io, m = _PAIRS[nvars][degree]
    full = _MAPS.get((nvars, degree))
    if full is None:
        off = np.arange(0, _capacity(nvars, degree) * m, m)[:, None]
        full = _MAPS[nvars, degree] = tuple((off + idx).ravel() for idx in (ia, ib, io))
        for idx in full:
            idx.flags.writeable = False
    n, (ga, gb, bins) = size // m * len(ia), full
    return (ga[:n], gb[:n], bins[:n]) if n <= len(ga) else None


def _convolve(A, B, nvars, degree):
    """Truncated product of two coefficient arrays of one shape, by the pair
    table of (nvars, degree): the terms of every element are gathered at once
    and binned into slot (element, output), each slot in table order."""
    ia, ib, io, m = _PAIRS[nvars][degree]
    if A.size != m:  # a batch of B != 1 elements
        if not A.size:  # B = 0 (bincount would count nothing in int64)
            return np.empty(A.shape, np.result_type(A, B))
        maps = _flat_maps(nvars, degree, A.size)
        if maps is None:  # in chunks of the capacity, the last one shorter
            step = _capacity(nvars, degree)
            out = np.empty(A.shape, np.result_type(A, B))
            a, b, o = A.reshape(-1, m), B.reshape(-1, m), out.reshape(-1, m)
            for i in range(0, len(a), step):
                o[i:i + step] = _convolve(a[i:i + step], b[i:i + step], nvars, degree)
            return out
        ia, ib, io = maps
    w = A.ravel()[ia] * B.ravel()[ib]
    if w.dtype.kind == "c":
        out = np.empty(A.size, w.dtype)
        out.real = np.bincount(io, w.real, A.size)
        out.imag = np.bincount(io, w.imag, A.size)
    else:
        out = np.bincount(io, w, A.size)
    out.shape = A.shape
    return out


def _passes(n, size, nvars, degree):
    """Slices of n stacked items of `size` coefficients each, one slice per
    product pass: as many items as fit in the capacity in elements, at least one."""
    per = max(1, _capacity(nvars, degree) * _PAIRS[nvars][degree][3] // max(1, size))
    return [slice(i, i + per) for i in range(0, n, per)] or [slice(0, 0)]


def _plus(c, x, at):
    """The coefficients `c` (an array of one's own, changed in place when no type
    promotes) plus x, a number or a (B,) array of one per element, at the value
    index `at`."""
    if not (isinstance(x, float) and c.dtype.kind in "fc"):  # np.result_type costs more than the sum
        c = c.astype(np.result_type(c, x), copy=False)
    if c.ndim < len(at) and not isinstance(x, np.ndarray):
        c.flat[0] += x  # one element: a fifth of the time of the indexed sum
    else:
        c[at] += x
    return c


class _Jet:
    """A jet with coefficients c of shape batch + (degree + 1,) * _NVARS, and
    the arithmetic shared by Jet1 and Jet2.

    The traced operators (*, / and the reflected /) are defined in each
    class's own body, so profilers report Jet1 and Jet2 products apart.
    """

    __slots__ = ("base", "degree", "c")

    def __init_subclass__(cls):
        # for any batch shape: the index of the value coefficient and of each linear one
        zeros = (0,) * cls._NVARS
        cls._VALUE_AT = (...,) + zeros
        cls._LINEAR_AT = [(...,) + zeros[:k] + (1,) + zeros[k + 1:] for k in range(cls._NVARS)]

    def __init__(self, base, degree, coeffs):
        if not 0 <= degree <= MAX_DEGREE:
            raise JetError(f"degree must be in [0, {MAX_DEGREE}], got {degree}")
        nvars = self._NVARS
        coords = (base,) if nvars == 1 else tuple(base)
        batch = _batch_shape(coords[0])
        if batch or _batch_shape(coords[-1]):  # coords[-1]: v0, or x0 itself
            coords = tuple(np.asarray(x, float) for x in coords)
            if len(batch) != 1 or coords[-1].shape != batch:
                raise JetError(f"base coordinates must be numbers or (B,) arrays of one shape, "
                               f"got shapes {', '.join(str(x.shape) for x in coords)}")
            self.base = coords if nvars == 2 else coords[0]
        else:
            self.base = (float(coords[0]), float(coords[1])) if nvars == 2 else float(base)
        self.degree = int(degree)
        c = np.asarray(coeffs)
        shape = batch + (degree + 1,) * nvars
        if c.shape != shape:
            raise JetError(f"coefficient array must be {shape}, got {c.shape}")
        self.c = c

    @classmethod
    def constant(cls, value, base=None, degree=MAX_DEGREE):
        """The constant `value` (a number, or a (B,) array for a batch) at
        `base`, the origin by default."""
        if base is None:
            base = (0.0, 0.0) if cls._NVARS == 2 else 0.0
        batch = _batch_shape(base if cls._NVARS == 1 else base[0])
        c = np.zeros(batch + (degree + 1,) * cls._NVARS,
                     dtype=complex if isinstance(value, complex) else float)
        point = None if batch else cls._point(base)
        if point is None or not 0 <= degree <= MAX_DEGREE:  # the constructor converts and checks
            jet = cls(base, degree, c)
        else:  # one base point of float coordinates: nothing to convert or check
            jet = object.__new__(cls)
            jet.base, jet.degree, jet.c = point, int(degree), c
        jet.c[cls._VALUE_AT] = value
        return jet

    @classmethod
    def coordinate(cls, base, degree=MAX_DEGREE, axis=0):
        """Jet of the coordinate function along `axis` (u = 0, v = 1).

        The value coefficient is the base coordinate itself; the linear
        coefficient in that variable is 1.
        """
        jet = cls.constant(base if cls._NVARS == 1 else base[axis], base, degree)
        if degree >= 1:
            jet.c[cls._LINEAR_AT[axis]] = 1.0
        return jet

    @property
    def value(self):
        """The value coefficient: a number, or a (B,) array for a batch."""
        return self.c[self._VALUE_AT][()]

    def _like(self, degree, c):
        """A jet of this class and base point; `c` is trusted, not validated."""
        jet = object.__new__(type(self))
        jet.base, jet.degree, jet.c = self.base, degree, c
        return jet

    def _coeffs(self, degree):
        """The coefficients of degree <= `degree` in each variable (a view)."""
        if degree == self.degree:
            return self.c
        return self.c[(...,) + (slice(degree + 1),) * self._NVARS]

    def _coerce(self, other):
        if isinstance(other, _Jet):
            if type(other) is not type(self):
                raise JetError("cannot mix univariate and bivariate jets")
            if other.base is not self.base and not _same_base(other.base, self.base):
                raise JetError("jets have different base points")
            return other
        return None  # a number, or a (B,) array of one number per batch element

    def element(self, i: int):
        """The scalar jet of element i of a batched jet (a copy)."""
        base = self.base[i] if self._NVARS == 1 else tuple(x[i] for x in self.base)
        return type(self)(base, self.degree, self.c[i].copy())

    def truncated(self, degree: int):
        """The coefficients of total degree <= `degree` (the jet of that degree)."""
        if degree > self.degree:
            raise JetError("cannot raise jet degree")
        if degree == self.degree:
            return self
        c = self._coeffs(degree).copy()
        if self._NVARS == 2:  # the square's slots above the triangle
            c[..., ~_TRIANGLE[degree]] = 0.0
        return self._like(degree, c)

    def __add__(self, other):
        o = self._coerce(other)
        if o is not None:
            D = min(self.degree, o.degree)
            return self._like(D, self._coeffs(D) + o._coeffs(D))
        return self._like(self.degree, _plus(self.c.copy(), other, self._VALUE_AT))

    __radd__ = __add__

    def __neg__(self):
        return self._like(self.degree, -self.c)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _product(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, np.ndarray) and other.ndim:  # one factor per element
                other = other.reshape(other.shape + (1,) * self._NVARS)
            return self._like(self.degree, self.c * other)
        D = min(self.degree, o.degree)
        return self._like(D, _convolve(self._coeffs(D), o._coeffs(D), self._NVARS, D))

    def _reciprocal(self):
        g0 = self.value
        if not _all(g0 != 0):
            raise JetDivisionError("jet division singular")
        # (-1)^n / g0^(n+1) by multiplication only, the same in a batch
        series = [1.0 / g0]
        for _ in range(self.degree):
            series.append(-series[-1] * series[0])
        return _compose(self, series)

    def __pow__(self, p):
        if not isinstance(p, int):
            return NotImplemented
        if p < 0:
            return self._reciprocal() ** (-p)
        nvars, D = self._NVARS, self.degree
        out = np.zeros(self.c.shape)  # the constant 1.0
        out[self._VALUE_AT] = 1.0
        b, n = self.c, p
        while n:
            if n & 1:
                out = _convolve(out, b, nvars, D)
            n >>= 1
            if n:  # the last bit needs no square of b
                b = _convolve(b, b, nvars, D)
        return self._like(D, out)

    def __repr__(self):
        return f"{type(self).__name__}(base={self.base}, degree={self.degree}, value={self.value})"


class Jet2(_Jet):
    """Bivariate truncated Taylor polynomial at a base point.

    coeffs[a, b] is the Taylor coefficient of (u - u0)^a (v - v0)^b, i.e.
    d^{a+b} f / du^a dv^b / (a! b!).
    """

    __slots__ = ()
    _NVARS = 2

    @staticmethod
    def _point(base):
        """(u0, v0) as floats when `base` is a pair of floats, else None."""
        if type(base) is tuple and len(base) == 2 and isinstance(base[0], float) \
                and isinstance(base[1], float):
            return (float(base[0]), float(base[1]))
        return None

    @classmethod
    def variables(cls, base, degree=MAX_DEGREE):
        return (cls.coordinate(base, degree, 0), cls.coordinate(base, degree, 1))

    @classmethod
    def lift(cls, j1: "Jet1", base, degree=MAX_DEGREE) -> "Jet2":
        """The jet at `base` of (u, v) -> f(u), from the jet j1 of f (batched if j1 is)."""
        c = np.zeros(j1.c.shape[:-1] + (degree + 1, degree + 1), dtype=j1.c.dtype)
        n = min(degree, j1.degree) + 1
        c[..., :n, 0] = j1.c[..., :n]
        return cls(base, degree, c)

    def partial(self, a: int, b: int):
        """The mixed partial derivative d^{a+b} f / du^a dv^b at the base point."""
        if a + b > self.degree:
            raise JetOrderError("jet order exhausted")
        return self.c[..., a, b] * math.factorial(a) * math.factorial(b)

    def gradient(self):
        """(df/du, df/dv) at the base point: shape (2,), or (B, 2) for a batch."""
        if self.degree < 1:
            raise JetOrderError("jet order exhausted")
        return np.stack([self.c[..., 1, 0], self.c[..., 0, 1]], axis=-1)

    def conjugate(self) -> "Jet2":
        return self._like(self.degree, np.conj(self.c))

    def real_part(self) -> "Jet2":
        return self._like(self.degree, np.real(self.c).copy())

    def du(self) -> "Jet2":
        """Jet of df/du; one degree lower (truncation loses the top order)."""
        if self.degree < 1:
            raise JetOrderError("jet order exhausted")
        D = self.degree - 1
        return self._like(D, self.c[..., 1:, : D + 1] * np.arange(1, self.degree + 1)[:, None])

    def dv(self) -> "Jet2":
        if self.degree < 1:
            raise JetOrderError("jet order exhausted")
        D = self.degree - 1
        return self._like(D, self.c[..., : D + 1, 1:] * np.arange(1, self.degree + 1)[None, :])

    # -- traced operators ----------------------------------------------------

    def __mul__(self, other):
        return self._product(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return self * (1.0 / other)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other


class Jet1(_Jet):
    """Univariate truncated Taylor polynomial; coeffs[a] multiplies (x - x0)^a."""

    __slots__ = ()
    _NVARS = 1

    @staticmethod
    def _point(base):
        """x0 as a float when `base` is a float, else None."""
        return float(base) if isinstance(base, float) else None

    def derivative_value(self, n: int):
        if n > self.degree:
            raise JetOrderError("jet order exhausted")
        return self.c[..., n] * math.factorial(n)

    def __mul__(self, other):
        return self._product(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return self * (1.0 / other)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def compose_inverse(self) -> "Jet1":
        """Jet of the inverse function x(y) at y0 = self.value (one inverse per
        element of a batch).

        Requires a nonzero linear coefficient.  Solved order by order from
        (self o inverse)(y) = y.
        """
        if self.degree < 1 or not _all(self.c[..., 1] != 0):
            raise JetDomainError("jet not invertible: vanishing first derivative")
        D = self.degree
        series = [self.c[..., n] for n in range(D + 1)]
        inv = np.zeros(self.c.shape)
        inv[..., 0] = self.base
        inv[..., 1] = 1.0 / series[1]
        for n in range(2, D + 1):
            # coefficient of (y - y0)^n in self(inv(y)); must equal 0
            hat = inv.copy()
            hat[..., n:] = 0.0
            hat[..., 0] = 0.0
            inv[..., n] = -_horner(hat, series, 1, D)[..., n] / series[1]
        return Jet1(self.value, D, inv)


def _compose(jet, series, base=None):
    """Horner evaluation of sum_n series[n] * (jet - value)^n in the jet algebra:
    per order one product with the nilpotent part and one sum at the value slot.

    With `base`, series holds the Taylor coefficients of an outer function at
    `base` (a univariate jet's c), and the result is outer(jet); jet.value
    must then equal base.
    """
    if base is not None and not _all(np.isclose(jet.value, base, rtol=0, atol=1e-12)):
        raise JetError("composition base mismatch")
    hat = jet.c.copy()
    hat[jet._VALUE_AT] = 0
    return jet._like(jet.degree, _horner(hat, series, jet._NVARS, jet.degree))


def _horner(hat, series, nvars, degree):
    """The coefficients of sum_n series[n] * hat^n for the coefficients `hat` of
    a jet whose value is 0."""
    at = (...,) + (0,) * nvars
    out = _plus(hat * 0, series[-1], at)
    for s in reversed(series[:-1]):
        out = _plus(_convolve(out, hat, nvars, degree), s, at)
    return out


def compose2(F, U, V):
    """F(U, V) for jets U, V based at the new point, with values at F.base.

    U and V are both bivariate (a change of chart) or both univariate (the
    restriction of F to the curve (U(s), V(s))).  F, U and V may be batched
    alike: then a term is skipped only where it vanishes in every element,
    and each element is the same sequence of roundings as its scalar
    composition.

    F may also be a sequence of Jet2 of one base and degree (the components
    of a map), composed into the tuple of their compositions: the powers of U
    and V and their products are built once for all components, and each
    term is added to every component whose coefficient does not vanish in
    every element, in row-major order from 0.0, so each component is the
    same sequence of roundings as its own composition.

    The products are stacked passes: per degree one pass makes the next power
    of U - u0 and of V - v0, and one more makes pu[a] * pv[b] for every term.
    """
    Fs = (F,) if isinstance(F, Jet2) else tuple(F)
    d = Fs[0].degree
    D = min(U.degree, V.degree)
    nvars, at = U._NVARS, U._VALUE_AT
    step = np.stack([U._coeffs(D), V._coeffs(D)])  # (U - u0, V - v0)
    step[0][at] += -Fs[0].base[0]
    step[1][at] += -Fs[0].base[1]
    powers = np.zeros((d + 1,) + step.shape, np.result_type(step, np.float64))
    powers[0][at] = 1.0  # row i: (pu[i], pv[i])
    for i in range(d):
        powers[i + 1] = _convolve(powers[i], step, nvars, D)
    W = np.stack([f.c for f in Fs])  # (components,) + batch + (d + 1, d + 1)
    # the terms of each component that do not vanish in every element
    nonzero = W.reshape(len(Fs), -1, d + 1, d + 1).any(axis=1) & _TRIANGLE[d]
    ia, ib = np.nonzero(nonzero.any(axis=0))  # row-major order
    # per term: the weight of each component and element, over all its coefficients,
    # and whether the component takes the term (every one does, or some)
    w = np.moveaxis(W[..., ia, ib], -1, 0)
    w = w.reshape(w.shape + (1,) * nvars)
    takes = nonzero[:, ia, ib].T
    every = takes.all(axis=1).tolist()
    takes = takes.reshape(takes.shape + (1,) * (w.ndim - 2))
    out = np.zeros((len(Fs),) + step.shape[1:], np.result_type(W, np.float64))
    pu, pv = powers[:, 0], powers[:, 1]
    for s in _passes(len(ia), step[0].size, nvars, D):
        P = _convolve(pu[ia[s]], pv[ib[s]], nvars, D)  # pu[a] * pv[b] per term of the pass
        for t, p in enumerate(P, s.start):
            if every[t]:
                out += p * w[t]
            else:
                np.add(out, p * w[t], out=out, where=takes[t])
    comps = tuple(U._like(D, c) for c in out)
    return comps[0] if isinstance(F, Jet2) else comps


# -- elementary functions ----------------------------------------------------


def _is_jet(x):
    return isinstance(x, (Jet1, Jet2))


def _series_from_derivative(jet, deriv_builder, value_fn):
    """Taylor coefficients of f at v0 from a rational expression for f'.

    deriv_builder(x) must build the jet of f' out of rational operations on a
    coordinate jet x; the coefficients of f follow by termwise integration.
    """
    v0 = jet.value
    D = jet.degree
    if D == 0:
        return [value_fn(v0)]
    x = Jet1.coordinate(v0, D - 1)
    u = deriv_builder(x)
    return [value_fn(v0)] + [u.c[..., n] / (n + 1) for n in range(D)]


def sqrt(x):
    if not _is_jet(x):
        return np.sqrt(x)
    v0 = x.value
    if not _all(v0 > 0):
        raise JetDomainError("jet domain error: sqrt requires positive value coefficient")
    s = np.sqrt(v0)
    inv = 1.0 / v0
    series = [s]
    b, term = 1.0, s
    for n in range(1, x.degree + 1):
        # binomial(1/2, n) * v0^(1/2 - n), by multiplication only (the same in a batch)
        b *= (0.5 - (n - 1)) / n
        term = term * inv
        series.append(b * term)
    return _compose(x, series)


def log(x):
    if not _is_jet(x):
        return np.log(x)
    v0 = x.value
    if not _all((np.real(v0) > 0) & (np.imag(v0) == 0)):
        raise JetDomainError("jet domain error: log requires positive value coefficient")
    series = [np.log(np.real(v0))] + [
        (-1.0) ** (n + 1) / (n * v0**n) for n in range(1, x.degree + 1)
    ]
    return _compose(x, series)


def sin(x):
    if not _is_jet(x):
        return np.sin(x)
    s, c = np.sin(x.value), np.cos(x.value)
    cycle = [s, c, -s, -c]
    series = [cycle[n % 4] / math.factorial(n) for n in range(x.degree + 1)]
    return _compose(x, series)


def cos(x):
    if not _is_jet(x):
        return np.cos(x)
    s, c = np.sin(x.value), np.cos(x.value)
    cycle = [c, -s, -c, s]
    series = [cycle[n % 4] / math.factorial(n) for n in range(x.degree + 1)]
    return _compose(x, series)


def sinh(x):
    if not _is_jet(x):
        return np.sinh(x)
    s, c = np.sinh(x.value), np.cosh(x.value)
    series = [(s if n % 2 == 0 else c) / math.factorial(n) for n in range(x.degree + 1)]
    return _compose(x, series)


def cosh(x):
    if not _is_jet(x):
        return np.cosh(x)
    s, c = np.sinh(x.value), np.cosh(x.value)
    series = [(c if n % 2 == 0 else s) / math.factorial(n) for n in range(x.degree + 1)]
    return _compose(x, series)


def arctan(x):
    if not _is_jet(x):
        return np.arctan(x)
    series = _series_from_derivative(x, lambda t: 1.0 / (1.0 + t * t), np.arctan)
    return _compose(x, series)


def artanh(x):
    if not _is_jet(x):
        return np.arctanh(x)
    if not _all(abs(x.value) < 1):
        raise JetDomainError("jet domain error: artanh requires |value| < 1")
    series = _series_from_derivative(x, lambda t: 1.0 / (1.0 - t * t), np.arctanh)
    return _compose(x, series)


# -- vector fields -----------------------------------------------------------


@dataclass(frozen=True)
class VectorFieldJet:
    """Coefficient jets (e1, e2) of the planar field e1*d_u + e2*d_v."""

    e1: Jet2
    e2: Jet2

    def __post_init__(self):
        if not _same_base(self.e1.base, self.e2.base) or self.e1.degree != self.e2.degree:
            raise JetError("vector field components must share base point and degree")

    @classmethod
    def constant(cls, e1, e2, base=(0.0, 0.0), degree=MAX_DEGREE):
        return cls(Jet2.constant(e1, base, degree), Jet2.constant(e2, base, degree))

    @property
    def base(self):
        return self.e1.base


def _field_pass(e, F):
    """e1 * dF/du + e2 * dF/dv for the stack F of bivariate coefficient arrays
    (items on the first axis) and the stack e of the field's (e1, e2): one
    product pass over every item's two products, summed as jets are summed.
    The degree drops by one (a product takes the lower degree of its factors)."""
    D = min(e.shape[-1], F.shape[-1] - 1) - 1
    k = np.arange(1, D + 2)
    Fu = F[..., 1:D + 2, :D + 1] * k[:, None]
    Fv = F[..., :D + 1, 1:D + 2] * k
    e = e[..., :D + 1, :D + 1]
    n = len(F)
    P = _convolve(np.repeat(e, n, axis=0), np.concatenate([Fu, Fv]), 2, D)
    return P[:n] + P[n:]


def _field_stack(field: VectorFieldJet, X):
    """The field's (e1, e2) and the jets X as coefficient stacks for _field_pass (X
    truncated to its lowest degree), after checking that X can take one pass."""
    d = min(j.degree for j in X)
    if d < 1:
        raise JetOrderError("jet order exhausted")
    if not all(_same_base(field.base, j.base) for j in X):
        raise JetError("field and jet have different base points")
    return np.stack([field.e1.c, field.e2.c]), np.stack([j._coeffs(d) for j in X])


def apply_vector_field(field: VectorFieldJet, f: Jet2) -> Jet2:
    """Jet of e1 * df/du + e2 * df/dv; degree drops by one (a product takes the
    lower degree of its factors, so the field needs no truncation)."""
    c = _field_pass(*_field_stack(field, (f,)))[0]
    return field.e1._like(c.shape[-1] - 1, c)


def partial_values(X, a: int, b: int) -> np.ndarray:
    """The partial derivative d^{a+b}/du^a dv^b at the base point of each jet of
    the triple X: (3,), or (B, 3) for batched jets (a = 1, b = 0 gives X_u)."""
    return np.stack([comp.partial(a, b) for comp in X], axis=-1)


def field_chain(X, field: VectorFieldJet, k: int) -> np.ndarray:
    """Values at the base point of field^n X, n = 0..k (row n: (3,), or (B, 3) for
    batched jets), from k field passes over all jets of X at once; exact, no
    finite differencing."""
    if k > min(j.degree for j in X):
        raise JetOrderError("jet order exhausted")
    F = np.stack([j.c[..., 0, 0] for j in X])
    rows = [F]
    if k:
        e, F = _field_stack(field, X)
    for _ in range(k):
        if F.shape[-1] < 2:
            raise JetOrderError("jet order exhausted")
        F = _field_pass(e, F)
        rows.append(F[..., 0, 0])
    return np.ascontiguousarray(np.moveaxis(np.array(rows), 1, -1))


def iterated_field_derivative(X, field: VectorFieldJet, k: int) -> np.ndarray:
    """The k-fold field derivative of each jet of X at the base point (row k of `field_chain`)."""
    return field_chain(X, field, k)[k]
