"""Exact reference arithmetic for the correctness gate, independent of kcomm2.

The gate must not share code with what it checks: a wrong change to
``Mat2`` or to the field scalars would otherwise corrupt the answer and the
reference alike.  So references are computed here, on plain values:

- a matrix is a 4-tuple ``(a11, a12, a21, a22)``;
- a Q scalar is an ``int`` or a ``fractions.Fraction``;
- a Qi scalar is a :class:`Gauss`, an exact ``re + im*i`` with ``int`` or
  ``Fraction`` parts.

Float matrices (R64, C64) are read exactly (``Fraction(float)``).  The
bracket lifts each matrix to integers over one common denominator, so its
loop never reduces a fraction.  Only ``to_mat``, ``of_mat`` and ``of_floats``
touch kcomm2 objects, to hand inputs over and to read answers back.
"""

from __future__ import annotations

import math
from fractions import Fraction

from kcomm2.fields import GaussianRational
from kcomm2.matrices import Mat2


class Gauss:
    """Exact Gaussian rational ``re + im*i``."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = re
        self.im = im

    @staticmethod
    def _of(x) -> "Gauss":
        return x if isinstance(x, Gauss) else Gauss(x, 0)

    def __add__(self, other):
        o = Gauss._of(other)
        return Gauss(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = Gauss._of(other)
        return Gauss(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return Gauss._of(other) - self

    def __neg__(self):
        return Gauss(-self.re, -self.im)

    def __mul__(self, other):
        o = Gauss._of(other)
        return Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, (Gauss, int, Fraction)) or isinstance(other, bool):
            return NotImplemented
        o = Gauss._of(other)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Gauss({self.re}, {self.im})"


# -- matrices ------------------------------------------------------------------


def add(X, Y):
    return tuple(x + y for x, y in zip(X, Y))


def sub(X, Y):
    return tuple(x - y for x, y in zip(X, Y))


def scale(c, X):
    return tuple(c * x for x in X)


def mul(X, Y):
    a, b, c, d = X
    e, f, g, h = Y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _lift(X):
    """(integer tuple, D) with X = tuple / D exactly."""
    parts = [p for x in X for p in ((x.re, x.im) if isinstance(x, Gauss) else (x,))]
    D = math.lcm(*(Fraction(p).denominator for p in parts))

    def up(p):
        p = Fraction(p)
        return p.numerator * (D // p.denominator)

    return tuple(Gauss(up(x.re), up(x.im)) if isinstance(x, Gauss) else up(x) for x in X), D


def bracket(A, B, k: int):
    """[A, B]_k: A, then R -> RB - BR, k times.

    [Ai / Da, Bi / Db]_k = [Ai, Bi]_k / (Da * Db**k): the bracket is linear in
    A and of degree k in B, so the loop runs on integers.
    """
    R, Da = _lift(A)
    Bi, Db = _lift(B)
    for _ in range(k):
        R = sub(mul(R, Bi), mul(Bi, R))
    s = Da * Db**k
    return tuple(Gauss(Fraction(z.re, s), Fraction(z.im, s)) if isinstance(z, Gauss) else Fraction(z, s)
                 for z in R)


def combine(mats, coeffs):
    """sum_j coeffs[j] * mats[j]."""
    acc = (0, 0, 0, 0)
    for M, c in zip(mats, coeffs):
        acc = add(acc, scale(c, M))
    return acc


def scalar_matrix(c):
    return (c, 0, 0, c)


def is_zero(X) -> bool:
    return all(x == 0 for x in X)


def is_scalar(X) -> bool:
    a, b, c, d = X
    return b == 0 and c == 0 and a == d


def trace(X):
    return X[0] + X[3]


def det(X):
    a, b, c, d = X
    return a * d - b * c


def discriminant(X):
    t = trace(X)
    return t * t - 4 * det(X)


def independent(X, Y) -> bool:
    """The vectorisations of X and Y are linearly independent (a nonzero 2x2 minor)."""
    return any(X[i] * Y[j] - X[j] * Y[i] != 0 for i in range(4) for j in range(i + 1, 4))


# -- conversion to and from kcomm2 --------------------------------------------


def of_scalar(variant: str, z):
    """A Q or Qi scalar of kcomm2 as a reference value (raises on a wrong type)."""
    if variant == "Q" and isinstance(z, (int, Fraction)) and not isinstance(z, bool):
        return Fraction(z)
    if variant == "Qi" and isinstance(z, GaussianRational):
        return Gauss(Fraction(z.a, z.den), Fraction(z.b, z.den))
    raise TypeError(f"not a {variant} scalar: {z!r}")


def of_mat(M: Mat2):
    """The entries of an exact kcomm2 matrix as a reference tuple."""
    if not isinstance(M, Mat2) or len(M.entries) != 4:
        raise TypeError(f"not a 2x2 matrix: {M!r}")
    return tuple(of_scalar(M.field.variant, z) for z in M.entries)


def to_scalar(field, x):
    """A reference scalar as a kcomm2 scalar of ``field`` (Q or Qi)."""
    if field.variant == "Q":
        return Fraction(x)
    x = Gauss._of(x)
    return GaussianRational(x.re, x.im)


def to_mat(field, X) -> Mat2:
    """A reference tuple as a kcomm2 matrix over ``field`` (Q or Qi)."""
    return Mat2(field, tuple(to_scalar(field, x) for x in X))


def of_floats(M: Mat2):
    """The entries of an R64 or C64 matrix of kcomm2, exactly, as a reference tuple."""
    if M.field.variant == "R64":
        return tuple(Fraction(float(x)) for x in M.entries)
    return tuple(Gauss(Fraction(complex(z).real), Fraction(complex(z).imag)) for z in M.entries)


def float_bracket(A: Mat2, B: Mat2, k: int) -> list:
    """Correctly rounded entries of the exact bracket of two float matrices."""
    R = bracket(of_floats(A), of_floats(B), k)
    if A.field.variant == "R64":
        return [float(x) for x in R]
    return [complex(float(z.re), float(z.im)) for z in R]
