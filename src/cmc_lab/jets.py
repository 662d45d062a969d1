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
coefficient io of total degree <= D.  The terms are multiplied in one array
operation and summed per output coefficient by np.bincount (the real and
imaginary parts separately for complex jets).  The table lists the terms in
lexicographic order of the left factor's monomial, and bincount adds them in
table order starting from 0.0, so each output coefficient is the same sequence
of rounded additions as the schoolbook loop "for each (a, b): out[a:, b:] +=
A[a, b] * B[...]": for finite coefficients the result is bit-identical to it.
(That loop skipped zero A[a, b]; adding the exact zero terms changes no bit of
a sum that starts from +0.0.)

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

Array contract.  The elementary functions (sqrt, exp, log, sin, cos, sinh,
cosh, arctan, artanh, power) take a jet, a float or an array of floats: a
non-jet argument goes to the NumPy ufunc, so one expression written with them
serves a jet, a single point and an array of points alike (the quadrature
integrands are such expressions).  Outside its domain a ufunc returns NaN
rather than raising; the jet branch raises JetDomainError.

Sums, products, reciprocals, quotients, integer powers and square roots of a
batch are bit-identical to the scalar kernel applied element by element: the
batched bincount adds each element's terms in table order starting from 0.0,
and the reciprocal and square-root series are built from 1/g0 and sqrt(g0) by
multiplication only.  So are `compose2` (and with it the Lorentz normal, which
takes products, a square root and a quotient) and `compose_inverse`.  The
other elementary functions agree with the scalar ones to 1e-13 relative: NumPy
may evaluate a transcendental function or a non-integer power of an array with
another kernel than of a single value, so their series may differ in the last
bits.
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


def _convolve(A, B, table):
    """Truncated product of two coefficient arrays of one shape, by `table`.

    The terms of every element are gathered at once and binned into slot
    (element, output), each slot in table order.  One element (a scalar jet or a
    batch of one), selected by size, takes the flat gather: a third of the time."""
    ia, ib, io, m = table
    n = A.size // m
    if n > 1:
        w = (A.reshape(n, m)[:, ia] * B.reshape(n, m)[:, ib]).ravel()
        io = (np.arange(0, n * m, m)[:, None] + io).ravel()
    else:
        w = A.ravel()[ia] * B.ravel()[ib]
    if w.dtype.kind == "c":
        out = np.empty(A.size, w.dtype)
        out.real = np.bincount(io, w.real, A.size)
        out.imag = np.bincount(io, w.imag, A.size)
    else:
        out = np.bincount(io, w, A.size)
    out.shape = A.shape
    return out


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
        c[cls._VALUE_AT] = value
        return cls(base, degree, c)

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
        if degree > self.degree:
            raise JetError("cannot raise jet degree")
        if degree == self.degree:
            return self
        return self._like(degree, self._coeffs(degree).copy())

    def __add__(self, other):
        o = self._coerce(other)
        if o is not None:
            D = min(self.degree, o.degree)
            return self._like(D, self._coeffs(D) + o._coeffs(D))
        if isinstance(other, float) and self.c.dtype.kind in "fc":
            c = self.c.copy()  # no type promotion (np.result_type costs more than the sum)
        else:
            c = self.c.astype(np.result_type(self.c, other))
        if c.size == self._PAIRS[self.degree][3] and not isinstance(other, np.ndarray):
            c.flat[0] += other  # one element, by size: a fifth of the time of the indexed sum
        else:
            c[self._VALUE_AT] += other
        return self._like(self.degree, c)

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
        return self._like(D, _convolve(self._coeffs(D), o._coeffs(D), self._PAIRS[D]))

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
        if isinstance(p, int):
            if p < 0:
                return self._reciprocal() ** (-p)
            out = type(self).constant(1.0, self.base, self.degree)
            b, n = self, p
            while n:
                if n & 1:
                    out = out * b
                b = b * b
                n >>= 1
            return out
        return power(self, p)

    def _nilpotent(self):
        c = self.c.copy()
        c[self._VALUE_AT] = 0
        return self._like(self.degree, c)

    def allclose(self, other, atol=1e-12, rtol=1e-12):
        return np.array_equal(self.base, other.base) and np.allclose(
            self.c, other._coeffs(self.degree), atol=atol, rtol=rtol
        )

    def __repr__(self):
        return f"{type(self).__name__}(base={self.base}, degree={self.degree}, value={self.value})"


class Jet2(_Jet):
    """Bivariate truncated Taylor polynomial at a base point.

    coeffs[a, b] is the Taylor coefficient of (u - u0)^a (v - v0)^b, i.e.
    d^{a+b} f / du^a dv^b / (a! b!).
    """

    __slots__ = ()
    _NVARS = 2
    _PAIRS = [_pair_table(d, 2) for d in range(MAX_DEGREE + 1)]  # product tables by degree

    @classmethod
    def variables(cls, base, degree=MAX_DEGREE):
        return (cls.coordinate(base, degree, 0), cls.coordinate(base, degree, 1))

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
    _PAIRS = [_pair_table(d, 1) for d in range(MAX_DEGREE + 1)]  # product tables by degree

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
        y0 = self.value
        series = [self.c[..., n] for n in range(D + 1)]
        inv = np.zeros(self.c.shape)
        inv[..., 0] = self.base
        inv[..., 1] = 1.0 / series[1]
        for n in range(2, D + 1):
            # coefficient of (y - y0)^n in self(inv(y)); must equal 0
            partial = inv.copy()
            partial[..., n:] = 0.0
            comp = _compose(Jet1(y0, D, partial), series, self.base)
            inv[..., n] = -comp.c[..., n] / series[1]
        return Jet1(y0, D, inv)


def _compose(jet, series, base=None):
    """Horner evaluation of sum_n series[n] * (jet - value)^n in the jet algebra.

    With `base`, series holds the Taylor coefficients of an outer function at
    `base` (a univariate jet's c), and the result is outer(jet); jet.value
    must then equal base.
    """
    if base is not None and not _all(np.isclose(jet.value, base, rtol=0, atol=1e-12)):
        raise JetError("composition base mismatch")
    hat = jet._nilpotent()
    out = hat * 0 + series[-1]
    for n in range(len(series) - 2, -1, -1):
        out = out * hat + series[n]
    return out


def compose2(F: Jet2, U, V):
    """F(U, V) for jets U, V based at the new point, with values at F.base.

    U and V are both bivariate (a change of chart) or both univariate (the
    restriction of F to the curve (U(s), V(s))).  F, U and V may be batched
    alike: then a term is skipped only where it vanishes in every element,
    and each element is the same sequence of roundings as its scalar
    composition.
    """
    du = U - F.base[0]
    dv = V - F.base[1]
    D = min(U.degree, V.degree)
    jet = type(U)
    one = jet.constant(1.0, U.base, D)
    pu, pv = [one], [one]
    for _ in range(F.degree):
        pu.append(pu[-1] * du)
        pv.append(pv[-1] * dv)
    nonzero = F.c.reshape(-1, F.degree + 1, F.degree + 1).any(axis=0)  # in any element
    out = jet.constant(0.0, U.base, D)
    for a, b in np.argwhere(nonzero & _TRIANGLE[F.degree]).tolist():  # row-major order
        out = out + (pu[a] * pv[b]) * F.c[..., a, b]
    return out


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


def exp(x):
    if not _is_jet(x):
        return np.exp(x)
    e = np.exp(x.value)
    series = [e / math.factorial(n) for n in range(x.degree + 1)]
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


def power(x, p):
    if not _is_jet(x):
        return np.power(x, p)
    if isinstance(p, int):
        return x**p
    v0 = x.value
    if not _all(v0 > 0):
        raise JetDomainError("jet domain error: non-integer power requires positive value")
    series = [v0**p]
    b = 1.0
    for n in range(1, x.degree + 1):
        b *= (p - (n - 1)) / n
        series.append(b * v0 ** (p - n))
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


def apply_vector_field(field: VectorFieldJet, f: Jet2) -> Jet2:
    """Jet of e1 * df/du + e2 * df/dv; degree drops by one (a product takes the
    lower degree of its factors, so the field needs no truncation)."""
    if f.degree < 1:
        raise JetOrderError("jet order exhausted")
    if not _same_base(field.base, f.base):
        raise JetError("field and jet have different base points")
    return field.e1 * f.du() + field.e2 * f.dv()


def partial_values(X, a: int, b: int) -> np.ndarray:
    """The partial derivative d^{a+b}/du^a dv^b at the base point of each jet of
    the triple X: (3,), or (B, 3) for batched jets (a = 1, b = 0 gives X_u)."""
    return np.stack([comp.partial(a, b) for comp in X], axis=-1)


def field_chain(X, field: VectorFieldJet, k: int) -> np.ndarray:
    """Values at the base point of field^n X, n = 0..k (row n: (3,), or (B, 3) for
    batched jets), from k field applications per jet of X; exact, no finite differencing."""
    if k > min(j.degree for j in X):
        raise JetOrderError("jet order exhausted")
    chain = [X]
    for _ in range(k):
        chain.append([apply_vector_field(field, j) for j in chain[-1]])
    return np.array([np.stack([j.value for j in row], axis=-1) for row in chain])


def iterated_field_derivative(X, field: VectorFieldJet, k: int) -> np.ndarray:
    """The k-fold field derivative of each jet of X at the base point (row k of `field_chain`)."""
    return field_chain(X, field, k)[k]
