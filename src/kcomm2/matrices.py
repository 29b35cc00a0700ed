"""2x2 matrices over a pluggable scalar field.

Entries are row-major, a flat 4-tuple (a11, a12, a21, a22).  Over the exact
fields a matrix also has an integer form, its four entries written over one
shared denominator:

    Q:   (den, n11, n12, n21, n22)                          entry = n / den
    Qi:  (den, a11, b11, a12, b12, a21, b21, a22, b22)      entry = (a + b i) / den

The form is canonical (den > 0 and gcd(den, all numerators) = 1), so equal
values have equal forms.  The hot exact operations (``@``, ``+``, ``-``,
``_bracket_step``, ``scale``, ``shift``, ``discriminant``, ``top_left``,
equality, hashing, the zero and scalar tests and the sandwich images
``unit_images``) compute on these integers, written out slot by slot for the
5- and 9-slot forms, and reduce with one multi-argument gcd, where entrywise
``Fraction`` / ``GaussianRational`` arithmetic would take one gcd per scalar
operation.  ``unit_images`` yields one image per matrix unit, in
``matrix_units`` order, so the sandwich solver builds none past its witness.
``integer_entries`` hands the forms to the exact row reduction.
The cold ones (``trace``, ``det``, ``conj_t``, negation and ``outer``) read or
build ``.entries``.  The hash reads the form (or the float entries), not the
field: matrices over unequal fields never compare equal.

``_bracket_step`` is ``kcomm`` after its two products P = A @ B and Q = B @ A:
c*(P - Q), or c*[P - Q, B] at even orders, entries built (or, when asked, the
reduced form alone), in one pass.  The scalar c = delta**m grows with the order,
and the step alone reduces by it with one rule.  With c = p/q in lowest terms and X = (r; x1, .., x4), reduced or
not, entry j's factor gcd(parts of p*xj, q*r) divides r*N(xj), where N(x) is
|x| over Q and a^2 + b^2 for x = a + b i over Q(i) (proved prime by prime in
``tests/test_matrices.py::TestBracketStep``).  So entry j's gcd is seeded with
r*N(xj), of X's size, and the form's factor is the gcd of the four: no gcd
takes two operands of the size of the product.  ``scale`` is one product on
the integer form and one gcd, as ``@`` is.

``Mat2(field, entries)`` is the one checked constructor: exactly four entries,
each coerced into the field (a wrong kind raises FieldMismatch), and over Q
and Q(i) the form derived at once.  A hot operation's result is built
unchecked from canonical parts: an exact one from its form, its entries built
on first read; a float (R64, C64) one from its entries.  Every other exact
matrix comes from the constructor.  Values are immutable.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .errors import EmptySystem, RankNotOne
from .fields import (FieldTag, GaussianRational, coprime_fraction, coprime_gaussian, raw_fraction,
                     require_same_field)

def _integer_form(field: FieldTag, parts) -> tuple:
    """Canonical integer form of exact field scalars, over the lcm of their denominators.

    No gcd is needed: each scalar is in lowest terms, so for every prime power
    p**e exactly dividing the lcm, the scalar whose denominator holds p**e
    keeps a numerator that p does not divide.
    """
    if field.is_complex:
        den = lcm(*[x.den for x in parts])
        return (den, *[v for x in parts for v in (x.a * (den // x.den), x.b * (den // x.den))])
    den = lcm(*[x.denominator for x in parts])
    return (den, *[x.numerator * (den // x.denominator) for x in parts])


def _built(field: FieldTag, entries, form) -> "Mat2":
    """Operation result from canonical parts: exact (None, form) or float (entries, None)."""
    m = object.__new__(Mat2)
    m._f, m._e, m._z = field, entries, form
    return m


def _combine(field: FieldTag, x: tuple, y: tuple, subtract: bool) -> "Mat2":
    """x + y or x - y on integer forms of the same field, slot by slot, over
    the product of the denominators when they differ."""
    d, e = x[0], y[0]
    if len(x) == 5:
        _, x1, x2, x3, x4 = x
        _, y1, y2, y3, y4 = y
        if d != e:
            x1, x2, x3, x4 = x1 * e, x2 * e, x3 * e, x4 * e
            y1, y2, y3, y4 = y1 * d, y2 * d, y3 * d, y4 * d
            d *= e
        if subtract:
            return _normalised(field, (d, x1 - y1, x2 - y2, x3 - y3, x4 - y4))
        return _normalised(field, (d, x1 + y1, x2 + y2, x3 + y3, x4 + y4))
    _, x1, x2, x3, x4, x5, x6, x7, x8 = x
    _, y1, y2, y3, y4, y5, y6, y7, y8 = y
    if d != e:
        x1, x2, x3, x4, x5, x6, x7, x8 = x1 * e, x2 * e, x3 * e, x4 * e, x5 * e, x6 * e, x7 * e, x8 * e
        y1, y2, y3, y4, y5, y6, y7, y8 = y1 * d, y2 * d, y3 * d, y4 * d, y5 * d, y6 * d, y7 * d, y8 * d
        d *= e
    if subtract:
        return _normalised(field, (d, x1 - y1, x2 - y2, x3 - y3, x4 - y4,
                                   x5 - y5, x6 - y6, x7 - y7, x8 - y8))
    return _normalised(field, (d, x1 + y1, x2 + y2, x3 + y3, x4 + y4,
                               x5 + y5, x6 + y6, x7 + y7, x8 + y8))


def _normalised(field: FieldTag, z: tuple) -> "Mat2":
    """Matrix of the 5- or 9-slot integer form z (den > 0), reduced by one gcd.

    The denominator goes first, so the gcd shrinks at once when it is small.
    """
    if z[0] != 1:
        g = gcd(*z)
        if g != 1:
            if len(z) == 5:
                z = (z[0] // g, z[1] // g, z[2] // g, z[3] // g, z[4] // g)
            else:
                z = (z[0] // g, z[1] // g, z[2] // g, z[3] // g, z[4] // g,
                     z[5] // g, z[6] // g, z[7] // g, z[8] // g)
    m = object.__new__(Mat2)
    m._f, m._e, m._z = field, None, z
    return m


class Mat2:
    """Immutable 2x2 matrix: ``Mat2(field, entries)`` with ``.field`` and ``.entries``.

    The constructor takes exactly four entries, coerces each into the field
    and, over Q and Q(i), derives the integer form; the hot exact operations
    branch on the field once and then run on ``self._z``.
    """

    # field; entries, or None until an exact result's are read; integer form, or None
    __slots__ = ("_f", "_e", "_z")

    def __init__(self, field: FieldTag, entries):
        a, b, c, d = entries
        co = field.coerce
        self._f, self._e = field, (co(a), co(b), co(c), co(d))
        self._z = _integer_form(field, self._e) if field.is_exact else None

    @property
    def field(self) -> FieldTag:
        return self._f

    @property
    def entries(self) -> tuple:
        """(a11, a12, a21, a22); an exact result builds them from its form on first read,
        each reduced by its gcd with the denominator."""
        e = self._e
        if e is not None:
            return e
        if len(z := self._z) == 9:
            d, raw = z[0], GaussianRational._raw
            e = (raw(z[1], z[2], d), raw(z[3], z[4], d), raw(z[5], z[6], d), raw(z[7], z[8], d))
        else:
            d = z[0]
            e = (raw_fraction(z[1], d), raw_fraction(z[2], d), raw_fraction(z[3], d), raw_fraction(z[4], d))
        self._e = e
        return e

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldTag, rows) -> "Mat2":
        (a, b), (c, d) = rows
        return cls(field, (a, b, c, d))

    @classmethod
    @lru_cache(maxsize=8)
    def zero(cls, field: FieldTag) -> "Mat2":
        """Built once per field, like ``matrix_units``: values are immutable."""
        return cls(field, (0, 0, 0, 0))

    @classmethod
    @lru_cache(maxsize=8)
    def identity(cls, field: FieldTag) -> "Mat2":
        """Built once per field, like ``zero``."""
        return cls(field, (1, 0, 0, 1))

    @classmethod
    def unit(cls, field: FieldTag, i: int, j: int) -> "Mat2":
        """Matrix unit E_ij, 1-based indices."""
        e = [0, 0, 0, 0]
        e[(i - 1) * 2 + (j - 1)] = 1
        return cls(field, e)

    @classmethod
    def diag(cls, field: FieldTag, a, b) -> "Mat2":
        return cls(field, (a, 0, 0, b))

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        if self._f != other._f:
            return False
        if self._f.is_exact:
            return self._z == other._z
        return self._e == other._e

    def __hash__(self):
        return hash(self._z or self._e)

    def __repr__(self):
        return f"Mat2(field={self._f!r}, entries={self.entries!r})"

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Mat2") -> "Mat2":
        f = self._f
        if other._f is not f:
            require_same_field(f, other._f)
        if f.is_exact:
            return _combine(f, self._z, other._z, False)
        a, b = self._e, other._e
        return _built(f, (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]), None)

    def __sub__(self, other: "Mat2") -> "Mat2":
        f = self._f
        if other._f is not f:
            require_same_field(f, other._f)
        if f.is_exact:
            return _combine(f, self._z, other._z, True)
        a, b = self._e, other._e
        return _built(f, (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]), None)

    def __neg__(self) -> "Mat2":
        a = self.entries
        return Mat2(self._f, (-a[0], -a[1], -a[2], -a[3]))

    def __matmul__(self, other: "Mat2") -> "Mat2":
        f = self._f
        if other._f is not f:
            require_same_field(f, other._f)
        if not f.is_exact:
            a11, a12, a21, a22 = self._e
            b11, b12, b21, b22 = other._e
            return _built(f, (
                a11 * b11 + a12 * b21,
                a11 * b12 + a12 * b22,
                a21 * b11 + a22 * b21,
                a21 * b12 + a22 * b22,
            ), None)
        if f.is_complex:
            # entry (p + q i) of self times entry (r + s i) of other
            d, p11, q11, p12, q12, p21, q21, p22, q22 = self._z
            e, r11, s11, r12, s12, r21, s21, r22, s22 = other._z
            return _normalised(f, (
                d * e,
                p11 * r11 - q11 * s11 + p12 * r21 - q12 * s21,
                p11 * s11 + q11 * r11 + p12 * s21 + q12 * r21,
                p11 * r12 - q11 * s12 + p12 * r22 - q12 * s22,
                p11 * s12 + q11 * r12 + p12 * s22 + q12 * r22,
                p21 * r11 - q21 * s11 + p22 * r21 - q22 * s21,
                p21 * s11 + q21 * r11 + p22 * s21 + q22 * r21,
                p21 * r12 - q21 * s12 + p22 * r22 - q22 * s22,
                p21 * s12 + q21 * r12 + p22 * s22 + q22 * r22,
            ))
        d, a11, a12, a21, a22 = self._z
        e, b11, b12, b21, b22 = other._z
        return _normalised(f, (
            d * e,
            a11 * b11 + a12 * b21,
            a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21,
            a21 * b12 + a22 * b22,
        ))

    def _bracket_step(self, other, B=None, c=None, entries=True) -> "Mat2":
        """c*X for X = self - other (of equal traces, as ``kcomm``'s A @ B and B @ A), or
        c*[X, B]; c a field scalar, or None for 1; the entries built unless ``entries``
        is false, when an exact result is its reduced form alone.  X is traceless,
        so only x11, x12 and x21 are read,
        [X, B] = [[n, 2 x11 b12 - x12 v], [x21 v - 2 x11 b21, -n]] with
        n = x12 b21 - b12 x21, v = b11 - b22, and the answer's fourth entry is its
        first one negated (as 0.0 - x over R64 and C64, so that a zero gives +0.0).
        Over Q and Q(i) the step runs on the integer forms, and the result is reduced
        entries first by the rule in the module docstring, which nothing else uses."""
        f = self._f
        if not f.is_exact:
            p, q = self._e, other._e
            x1, x2, x3 = p[0] - q[0], p[1] - q[1], p[2] - q[2]
            if B is not None:
                b11, b12, b21, b22 = B._e
                u, v = x1 + x1, b11 - b22
                x1, x2, x3 = x2 * b21 - b12 * x3, b12 * u - x2 * v, x3 * v - b21 * u
            if c is not None:
                x1, x2, x3 = c * x1, c * x2, c * x3
            return _built(f, (x1, x2, x3, 0.0 - x1), None)
        if not f.is_complex:  # entry x / r times c = p / q; x22 = -x11
            r, x1, x2, x3, _ = self._z
            e, y1, y2, y3, _ = other._z
            if r != e:
                x1, x2, x3, y1, y2, y3, r = x1 * e, x2 * e, x3 * e, y1 * r, y2 * r, y3 * r, r * e
            x1, x2, x3 = x1 - y1, x2 - y2, x3 - y3
            if B is not None:
                e, b11, b12, b21, b22 = B._z
                u, v = x1 + x1, b11 - b22
                x1, x2, x3, r = x2 * b21 - b12 * x3, b12 * u - x2 * v, x3 * v - b21 * u, r * e
            if c is None:
                d, n1, n2, n3 = r, x1, x2, x3
                h1, h2, h3 = gcd(d, n1), gcd(d, n2), gcd(d, n3)
            else:
                p, q = c._numerator, c._denominator
                d, n1, n2, n3 = q * r, p * x1, p * x2, p * x3
                h1, h2, h3 = gcd(d, r * x1, n1), gcd(d, r * x2, n2), gcd(d, r * x3, n3)
            g = gcd(h1, h2, h3)
            z = (d, n1, n2, n3, -n1) if g == 1 else (d // g, n1 // g, n2 // g, n3 // g, -n1 // g)
            if not entries:
                return _built(f, None, z)
            n1, r = n1 // h1, d // h1
            return _built(f, (coprime_fraction(n1, r), coprime_fraction(n2 // h2, d // h2),
                              coprime_fraction(n3 // h3, d // h3), coprime_fraction(-n1, r)), z)
        # the same on (re, im) pairs: entry (a + b i) / r, c = (s + t i) / q, B's entries g + h i
        r, a1, b1, a2, b2, a3, b3, _, _ = self._z
        e, p1, q1, p2, q2, p3, q3, _, _ = other._z
        if r != e:
            a1, b1, a2, b2, a3, b3 = a1 * e, b1 * e, a2 * e, b2 * e, a3 * e, b3 * e
            p1, q1, p2, q2, p3, q3, r = p1 * r, q1 * r, p2 * r, q2 * r, p3 * r, q3 * r, r * e
        a1, b1, a2, b2, a3, b3 = a1 - p1, b1 - q1, a2 - p2, b2 - q2, a3 - p3, b3 - q3
        if B is not None:
            e, g11, h11, g12, h12, g21, h21, g22, h22 = B._z
            u, ui, v, vi = a1 + a1, b1 + b1, g11 - g22, h11 - h22
            n, ni = a2 * g21 - b2 * h21 - g12 * a3 + h12 * b3, a2 * h21 + b2 * g21 - g12 * b3 - h12 * a3
            a2, b2, a3, b3 = (g12 * u - h12 * ui - a2 * v + b2 * vi, g12 * ui + h12 * u - a2 * vi - b2 * v,
                              a3 * v - b3 * vi - g21 * u + h21 * ui, a3 * vi + b3 * v - g21 * ui - h21 * u)
            a1, b1, r = n, ni, r * e
        if c is None:
            h1, h2, h3 = gcd(r, a1, b1), gcd(r, a2, b2), gcd(r, a3, b3)
        else:
            s, t, q = c.a, c.b, c.den
            n1, n2, n3 = r * (a1 * a1 + b1 * b1), r * (a2 * a2 + b2 * b2), r * (a3 * a3 + b3 * b3)
            a1, b1, a2, b2 = a1 * s - b1 * t, a1 * t + b1 * s, a2 * s - b2 * t, a2 * t + b2 * s
            a3, b3, r = a3 * s - b3 * t, a3 * t + b3 * s, q * r
            h1, h2, h3 = gcd(r, n1, a1, b1), gcd(r, n2, a2, b2), gcd(r, n3, a3, b3)
        g = gcd(h1, h2, h3)
        z = (r, a1, b1, a2, b2, a3, b3, -a1, -b1)
        if g != 1:
            z = (r // g, a1 // g, b1 // g, a2 // g, b2 // g, a3 // g, b3 // g, -a1 // g, -b1 // g)
        if not entries:
            return _built(f, None, z)
        a1, b1, d = a1 // h1, b1 // h1, r // h1
        return _built(f, (coprime_gaussian(a1, b1, d), coprime_gaussian(a2 // h2, b2 // h2, r // h2),
                          coprime_gaussian(a3 // h3, b3 // h3, r // h3), coprime_gaussian(-a1, -b1, d)), z)

    def scale(self, c) -> "Mat2":
        """c * self; over Q and Q(i) one product on the integer form and one gcd, as
        ``@``: (q*r; p*x1, .., p*x4) for c = p/q and self = (r; x1, .., x4)."""
        f = self._f
        if f.is_exact or type(c) is not (complex if f.is_complex else float):
            c = f.coerce(c)
        if not f.is_exact:
            a = self._e
            return _built(f, (c * a[0], c * a[1], c * a[2], c * a[3]), None)
        if f.is_complex:  # entry (a + b i) / r times c = (s + t i) / q
            r, a1, b1, a2, b2, a3, b3, a4, b4 = self._z
            s, t = c.a, c.b
            return _normalised(f, (c.den * r, a1 * s - b1 * t, a1 * t + b1 * s, a2 * s - b2 * t,
                                   a2 * t + b2 * s, a3 * s - b3 * t, a3 * t + b3 * s,
                                   a4 * s - b4 * t, a4 * t + b4 * s))
        r, x1, x2, x3, x4 = self._z
        p = c._numerator
        return _normalised(f, (c._denominator * r, p * x1, p * x2, p * x3, p * x4))

    def shift(self, c) -> "Mat2":
        """self + c*I with one gcd on the integer form; over R64 and C64 the float
        operations of ``self + Mat2.identity(field).scale(c)``, signed zeros included."""
        f = self._f
        if not f.is_exact:
            return self + Mat2.identity(f).scale(c)
        c = f.coerce(c)  # c*I in integer form, (p + q i) / r on the diagonal
        if f.is_complex:
            return _combine(f, self._z, (c.den, c.a, c.b, 0, 0, 0, 0, c.a, c.b), False)
        return _combine(f, self._z, (c.denominator, c.numerator, 0, 0, c.numerator), False)

    def __rmul__(self, c) -> "Mat2":
        return self.scale(c)  # M * M never gets here: Python reflects only across types

    def power(self, n: int) -> "Mat2":
        if n < 0:
            raise ValueError("only nonnegative matrix powers are supported")
        result = Mat2.identity(self._f)
        for _ in range(n):
            result = result @ self
        return result

    def conj_t(self) -> "Mat2":
        """Conjugate transpose (field conjugation entrywise, then transpose)."""
        a11, a12, a21, a22 = self.entries
        c = self._f.conj
        return Mat2(self._f, (c(a11), c(a21), c(a12), c(a22)))

    # -- scalar invariants and predicates ------------------------------------

    def top_left(self):
        """Entry a11; an exact result reads it from its form and builds no other entry."""
        if self._e is not None:
            return self._e[0]
        z = self._z
        return raw_fraction(z[1], z[0]) if len(z) == 5 else GaussianRational._raw(z[1], z[2], z[0])

    def trace(self):
        a = self.entries
        return a[0] + a[3]

    def det(self):
        a11, a12, a21, a22 = self.entries
        return a11 * a22 - a12 * a21

    def discriminant(self):
        """(a11 - a22)^2 + 4 a12 a21, which is tr^2 - 4 det without its cancellation."""
        f = self._f
        if not f.is_exact:
            a11, a12, a21, a22 = self._e
            u = a11 - a22
            return u * u + 4 * a12 * a21
        if f.is_complex:
            d, p11, q11, p12, q12, p21, q21, p22, q22 = self._z
            u, w = p11 - p22, q11 - q22
            return GaussianRational._raw(
                u * u - w * w + 4 * (p12 * p21 - q12 * q21),
                2 * u * w + 4 * (p12 * q21 + q12 * p21),
                d * d,
            )
        d, n11, n12, n21, n22 = self._z
        u = n11 - n22
        return raw_fraction(u * u + 4 * n12 * n21, d * d)

    def eq(self, other: "Mat2") -> bool:
        f = self._f
        if other._f is not f:
            require_same_field(f, other._f)
        if f.is_exact:
            return self._z == other._z
        eq = f.eq
        return all(eq(a, b) for a, b in zip(self._e, other._e))

    def is_zero(self) -> bool:
        f = self._f
        if f.is_exact:
            return not any(self._z[1:])
        is_zero = f.is_zero
        return all(is_zero(a) for a in self._e)

    def is_scalar(self) -> bool:
        """Zero off-diagonals and equal diagonal entries; over Q and Q(i) read on
        the integer form, whose entries share one denominator."""
        f = self._f
        if f.is_exact:
            z = self._z
            if f.is_complex:
                return not (z[3] or z[4] or z[5] or z[6]) and z[1] == z[7] and z[2] == z[8]
            return not (z[2] or z[3]) and z[1] == z[4]
        a11, a12, a21, a22 = self._e
        return f.is_zero(a12) and f.is_zero(a21) and f.eq(a11, a22)

    def max_abs(self) -> float:
        """Largest entry magnitude of a float matrix."""
        return max(self._f.abs2(a) for a in self.entries)

    def __str__(self):
        a11, a12, a21, a22 = self.entries
        return f"[[{a11}, {a12}], [{a21}, {a22}]]"


@lru_cache(maxsize=8)
def matrix_units(field: FieldTag) -> tuple:
    """(E11, E12, E21, E22) in the row-major order of ``.entries``, built once per field.

    The units are rank one and span M2(F): a statement linear in T that holds
    on them holds for every T, and they are the rank-one probes of every test.
    """
    return tuple(Mat2.unit(field, i, j) for i in (1, 2) for j in (1, 2))


def unit_images(pairs, field=None):
    """Yield the images sum A E B over the (A, B) pairs of the four matrix units E,
    one at a time in ``matrix_units`` order: the columns of the sandwich operator
    T -> sum A T B.  A caller that stops at an image computes none past it.

    E_ij = e_i e_j*, so A E_ij B is column i of A times row j of B.  The pairs are
    checked to be over ``field`` (by default the first matrix's), and over Q and
    Q(i) written over one common denominator per side, before the first image;
    there each image sums integer products and is reduced by one gcd.  Over R64 and
    C64 the sums start from the field's zero, so that a sum of zeros is +0.0, never
    -0.0, as when A @ E @ B is added to the zero matrix.
    """
    if not pairs:
        raise EmptySystem("need at least one (A, B) pair")
    f = pairs[0][0]._f if field is None else field
    for A, B in pairs:
        require_same_field(f, A._f)
        require_same_field(f, B._f)
    if not f.is_exact:  # entries behind a dummy slot, indexed as the Q form
        forms = [((None, *A._e), (None, *B._e)) for A, B in pairs]
        zero = f.zero()
    else:
        den_a = lcm(*[A._z[0] for A, _ in pairs])
        den_b = lcm(*[B._z[0] for _, B in pairs])
        forms, zero, den = [], 0, den_a * den_b
        for A, B in pairs:
            a, b = A._z, B._z
            s = den_a // a[0] * (den_b // b[0])
            forms.append((a if s == 1 else [v * s for v in a], b))
    if f.is_exact and f.is_complex:  # (x + y i)(u + v i) = (xu - yv) + (xv + yu) i
        for i in (1, 3):  # column of A: slots i, i + 1 and i + 4, i + 5
            for j in (1, 5):  # row of B: slots j to j + 3
                n1 = m1 = n2 = m2 = n3 = m3 = n4 = m4 = 0
                for a, b in forms:
                    x, y, X, Y = a[i], a[i + 1], a[i + 4], a[i + 5]
                    u, v, U, V = b[j], b[j + 1], b[j + 2], b[j + 3]
                    n1, m1 = n1 + x * u - y * v, m1 + x * v + y * u
                    n2, m2 = n2 + x * U - y * V, m2 + x * V + y * U
                    n3, m3 = n3 + X * u - Y * v, m3 + X * v + Y * u
                    n4, m4 = n4 + X * U - Y * V, m4 + X * V + Y * U
                yield _normalised(f, (den, n1, m1, n2, m2, n3, m3, n4, m4))
        return
    for i in (1, 2):  # column of A: slots i and i + 2
        for j in (1, 3):  # row of B: slots j and j + 1
            n1 = n2 = n3 = n4 = zero
            for a, b in forms:
                x, X, u, U = a[i], a[i + 2], b[j], b[j + 1]
                n1, n2, n3, n4 = n1 + x * u, n2 + x * U, n3 + X * u, n4 + X * U
            if f.is_exact:
                yield _normalised(f, (den, n1, n2, n3, n4))
            else:
                yield _built(f, (n1, n2, n3, n4), None)


def integer_entries(mats) -> tuple:
    """(dens, numerators) of exact matrices: matrix j is numerators[j] / dens[j],
    its integer form, with four row-major numerators, ints over Q and (re, im)
    pairs over Q(i)."""
    forms = [M._z for M in mats]
    dens = [z[0] for z in forms]
    if forms and len(forms[0]) == 9:
        return dens, [((z[1], z[2]), (z[3], z[4]), (z[5], z[6]), (z[7], z[8])) for z in forms]
    return dens, [z[1:] for z in forms]


class RankOneFactor(NamedTuple):
    """Vectors x, f with A = x f* (f conjugated on pairing)."""

    x: tuple
    f: tuple


def outer(field: FieldTag, x, f) -> Mat2:
    """Rank-(at most)-one matrix x f*; entry (p, q) is x_p * conj(f_q).

    Each coordinate is coerced into the field (a wrong kind raises
    FieldMismatch).  An exact result comes from the checked constructor; a
    float one is built from its four products as they are.
    """
    co, c = field.coerce, field.conj
    x0, x1 = co(x[0]), co(x[1])
    f0, f1 = c(co(f[0])), c(co(f[1]))
    entries = (x0 * f0, x0 * f1, x1 * f0, x1 * f1)
    return Mat2(field, entries) if field.is_exact else _built(field, entries, None)


def rank_one_factor(A: Mat2) -> RankOneFactor:
    """Canonical factorization A = x f* of a rank-one matrix.

    x is the first nonzero column over its leading nonzero coordinate, which
    is set to exactly one (over C64 z / z can miss it); f absorbs all scale.
    """
    f = A.field
    if f.is_exact:
        rank_one = f.is_zero(A.det())
    else:  # a float det is zero within tolerance * (1 + m * m), m the largest entry
        m = A.max_abs()
        rank_one = abs(A.det()) <= f.tolerance * (1.0 + m * m)
    if not rank_one or A.is_zero():
        raise RankNotOne("matrix is not rank one")
    a11, a12, a21, a22 = A.entries
    for col in ((a11, a21), (a12, a22)):
        nz = [i for i in range(2) if not f.is_zero(col[i])]
        if nz:
            lead = col[nz[0]]
            x = (f.one(), col[1] / lead) if nz[0] == 0 else (col[0] / lead, f.one())
            break
    # row of the leading coordinate gives f (up to conjugation)
    row = (a11, a12) if nz[0] == 0 else (a21, a22)
    c = f.conj
    return RankOneFactor(x=x, f=(c(row[0]), c(row[1])))
