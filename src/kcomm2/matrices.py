"""2x2 matrices over a pluggable scalar field.

Entries are row-major, a flat 4-tuple (a11, a12, a21, a22).  Over the exact
fields a matrix also has an integer form, its four entries written over one
shared denominator:

    Q:   (den, n11, n12, n21, n22)                          entry = n / den
    Qi:  (den, a11, b11, a12, b12, a21, b21, a22, b22)      entry = (a + b i) / den

The form is canonical (den > 0 and gcd(den, all numerators) = 1), so equal
values have equal forms.  Every exact operation computes on these integers
and normalises with one multi-argument gcd, where entrywise ``Fraction`` /
``GaussianRational`` arithmetic would take one gcd per scalar operation.  A
matrix built from entries derives its form on first use; the result of an
operation holds only the form and builds its canonical entries the first
time ``.entries`` is read.  The float fields (R64, C64) compute on the
entries.  Matrix values are immutable; every operation returns a fresh
``Mat2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import FieldMismatch, InvariantViolation, NotScalarPlusNilpotent, RankNotOne
from .fields import FieldTag, GaussianRational, require_same_field

def _rational_parts(x):
    """(numerator, denominator) of a Q scalar."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    if isinstance(x, GaussianRational) and not x.b:
        return x.a, x.den
    raise FieldMismatch(f"cannot use {x!r} as a Q scalar")


def _gaussian_parts(x):
    """(re numerator, im numerator, denominator) of a Q(i) scalar."""
    if isinstance(x, GaussianRational):
        return x.a, x.b, x.den
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    raise FieldMismatch(f"cannot use {x!r} as a Q(i) scalar")


def _integer_form(variant: str, entries) -> tuple:
    """Canonical integer form of exact entries, over the lcm of their denominators.

    No gcd is needed: each entry is in lowest terms, so for every prime power
    p**e exactly dividing the lcm, the entry whose denominator holds p**e keeps
    a numerator that p does not divide.
    """
    if variant == "Q":
        parts = [_rational_parts(x) for x in entries]
        den = lcm(*[d for _, d in parts])
        return (den, *[n * (den // d) for n, d in parts])
    parts = [_gaussian_parts(x) for x in entries]
    den = lcm(*[d for _, _, d in parts])
    return (den, *[v for a, b, d in parts for v in (a * (den // d), b * (den // d))])


def _from_form(field: FieldTag, z: tuple) -> "Mat2":
    """Matrix holding only the canonical integer form z."""
    m = object.__new__(Mat2)
    m._f = field
    m._e = None
    m._z = z
    return m


def _combine(field: FieldTag, x: tuple, y: tuple, subtract: bool) -> "Mat2":
    """x + y or x - y on integer forms of the same field."""
    d, e = x[0], y[0]
    if d == e:
        x, y = x[1:], y[1:]
    else:
        x, y, d = [v * e for v in x[1:]], [v * d for v in y[1:]], d * e
    if subtract:
        return _normalised(field, (d, *[p - q for p, q in zip(x, y)]))
    return _normalised(field, (d, *[p + q for p, q in zip(x, y)]))


def _normalised(field: FieldTag, z: tuple) -> "Mat2":
    """Matrix of the integer form z (den > 0), reduced by one gcd.

    The denominator goes first, so the gcd shrinks at once when it is small.
    """
    if z[0] != 1:
        g = gcd(*z)
        if g != 1:
            z = tuple([v // g for v in z])
    return _from_form(field, z)


class Mat2:
    """Immutable 2x2 matrix: ``Mat2(field, entries)`` with ``.field`` and ``.entries``.

    Exact operations branch on the field once and then run on integer forms;
    ``self._z or self._form()`` reads the form, deriving it if needed.
    """

    __slots__ = ("_f", "_e", "_z")  # field, entries or None, integer form or None

    def __init__(self, field: FieldTag, entries):
        self._f = field
        self._e = tuple(entries)
        self._z = None

    @property
    def field(self) -> FieldTag:
        return self._f

    @property
    def entries(self) -> tuple:
        """(a11, a12, a21, a22); built from the integer form on first read."""
        e = self._e
        if e is None:
            z = self._z
            d = z[0]
            if len(z) == 5:
                e = (Fraction(z[1], d), Fraction(z[2], d), Fraction(z[3], d), Fraction(z[4], d))
            else:
                raw = GaussianRational._raw
                e = (raw(z[1], z[2], d), raw(z[3], z[4], d), raw(z[5], z[6], d), raw(z[7], z[8], d))
            self._e = e
        return e

    def _form(self):
        """The integer form (None over float fields), derived on first use."""
        z = self._z
        if z is None and self._f.variant in ("Q", "Qi"):
            z = self._z = _integer_form(self._f.variant, self._e)
        return z

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldTag, rows) -> "Mat2":
        (a, b), (c, d) = rows
        co = field.coerce
        return cls(field, (co(a), co(b), co(c), co(d)))

    @classmethod
    def zero(cls, field: FieldTag) -> "Mat2":
        z = field.zero()
        return cls(field, (z, z, z, z))

    @classmethod
    def identity(cls, field: FieldTag) -> "Mat2":
        z, o = field.zero(), field.one()
        return cls(field, (o, z, z, o))

    @classmethod
    def unit(cls, field: FieldTag, i: int, j: int) -> "Mat2":
        """Matrix unit E_ij, 1-based indices."""
        z, o = field.zero(), field.one()
        e = [z, z, z, z]
        e[(i - 1) * 2 + (j - 1)] = o
        return cls(field, tuple(e))

    @classmethod
    def diag(cls, field: FieldTag, a, b) -> "Mat2":
        z = field.zero()
        return cls(field, (field.coerce(a), z, z, field.coerce(b)))

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        if self._f != other._f:
            return False
        if self._f.variant in ("Q", "Qi"):
            return (self._z or self._form()) == (other._z or other._form())
        return self._e == other._e

    def __hash__(self):
        return hash((self._f, self._form() or self._e))

    def __repr__(self):
        return f"Mat2(field={self._f!r}, entries={self.entries!r})"

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Mat2") -> "Mat2":
        f = self._f
        if other._f is not f:
            require_same_field(f, other._f)
        if f.variant in ("Q", "Qi"):
            return _combine(f, self._z or self._form(), other._z or other._form(), False)
        a, b = self._e, other._e
        return Mat2(f, (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))

    def __sub__(self, other: "Mat2") -> "Mat2":
        f = self._f
        if other._f is not f:
            require_same_field(f, other._f)
        if f.variant in ("Q", "Qi"):
            return _combine(f, self._z or self._form(), other._z or other._form(), True)
        a, b = self._e, other._e
        return Mat2(f, (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]))

    def __neg__(self) -> "Mat2":
        f = self._f
        if f.variant in ("Q", "Qi"):
            z = self._z or self._form()
            return _from_form(f, (z[0], *[-v for v in z[1:]]))
        a = self._e
        return Mat2(f, (-a[0], -a[1], -a[2], -a[3]))

    def __matmul__(self, other: "Mat2") -> "Mat2":
        f = self._f
        if other._f is not f:
            require_same_field(f, other._f)
        v = f.variant
        if v == "Q":
            d, a11, a12, a21, a22 = self._z or self._form()
            e, b11, b12, b21, b22 = other._z or other._form()
            return _normalised(f, (
                d * e,
                a11 * b11 + a12 * b21,
                a11 * b12 + a12 * b22,
                a21 * b11 + a22 * b21,
                a21 * b12 + a22 * b22,
            ))
        if v == "Qi":
            # entry (p + q i) of self times entry (r + s i) of other
            d, p11, q11, p12, q12, p21, q21, p22, q22 = self._z or self._form()
            e, r11, s11, r12, s12, r21, s21, r22, s22 = other._z or other._form()
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
        a11, a12, a21, a22 = self._e
        b11, b12, b21, b22 = other._e
        return Mat2(
            f,
            (
                a11 * b11 + a12 * b21,
                a11 * b12 + a12 * b22,
                a21 * b11 + a22 * b21,
                a21 * b12 + a22 * b22,
            ),
        )

    def scale(self, c) -> "Mat2":
        f = self._f
        v = f.variant
        if v == "Q":
            # as in Fraction.__mul__: the only common factors are gcd(p, d) and
            # gcd(q, numerators), so no gcd of the (possibly huge) products
            p, q = _rational_parts(c)
            d, n11, n12, n21, n22 = self._z or self._form()
            g, h = gcd(p, d), gcd(q, n11, n12, n21, n22)
            p, d, q = p // g, d // g, q // h
            return _from_form(f, (d * q, n11 // h * p, n12 // h * p, n21 // h * p, n22 // h * p))
        if v == "Qi":
            # each entry (a + b i) times c = (p + q i) / r
            p, q, r = _gaussian_parts(c)
            z = self._z or self._form()
            form = [z[0] * r]
            for a, b in zip(z[1::2], z[2::2]):
                form += (a * p - b * q, a * q + b * p)
            return _normalised(f, tuple(form))
        a = self._e
        return Mat2(f, (c * a[0], c * a[1], c * a[2], c * a[3]))

    def __rmul__(self, c) -> "Mat2":
        if isinstance(c, Mat2):
            return NotImplemented
        return self.scale(c)

    def power(self, n: int) -> "Mat2":
        if n < 0:
            raise ValueError("only nonnegative matrix powers are supported")
        result = Mat2.identity(self._f)
        for _ in range(n):
            result = result @ self
        return result

    def conj_t(self) -> "Mat2":
        """Conjugate transpose (field conjugation entrywise, then transpose)."""
        f = self._f
        v = f.variant
        if v == "Q":
            d, n11, n12, n21, n22 = self._z or self._form()
            return _from_form(f, (d, n11, n21, n12, n22))
        if v == "Qi":
            d, p11, q11, p12, q12, p21, q21, p22, q22 = self._z or self._form()
            return _from_form(f, (d, p11, -q11, p21, -q21, p12, -q12, p22, -q22))
        a11, a12, a21, a22 = self._e
        c = f.conj
        return Mat2(f, (c(a11), c(a21), c(a12), c(a22)))

    # -- scalar invariants and predicates ------------------------------------

    def trace(self):
        v = self._f.variant
        if v == "Q":
            d, n11, _, _, n22 = self._z or self._form()
            return Fraction(n11 + n22, d)
        if v == "Qi":
            z = self._z or self._form()
            return GaussianRational._raw(z[1] + z[7], z[2] + z[8], z[0])
        return self._e[0] + self._e[3]

    def det(self):
        v = self._f.variant
        if v == "Q":
            d, n11, n12, n21, n22 = self._z or self._form()
            return Fraction(n11 * n22 - n12 * n21, d * d)
        if v == "Qi":
            d, p11, q11, p12, q12, p21, q21, p22, q22 = self._z or self._form()
            return GaussianRational._raw(
                p11 * p22 - q11 * q22 - p12 * p21 + q12 * q21,
                p11 * q22 + q11 * p22 - p12 * q21 - q12 * p21,
                d * d,
            )
        a11, a12, a21, a22 = self._e
        return a11 * a22 - a12 * a21

    def discriminant(self):
        """(a11 - a22)^2 + 4 a12 a21, which is tr^2 - 4 det without its cancellation."""
        v = self._f.variant
        if v == "Q":
            d, n11, n12, n21, n22 = self._z or self._form()
            u = n11 - n22
            return Fraction(u * u + 4 * n12 * n21, d * d)
        if v == "Qi":
            d, p11, q11, p12, q12, p21, q21, p22, q22 = self._z or self._form()
            u, w = p11 - p22, q11 - q22
            return GaussianRational._raw(
                u * u - w * w + 4 * (p12 * p21 - q12 * q21),
                2 * u * w + 4 * (p12 * q21 + q12 * p21),
                d * d,
            )
        a11, a12, a21, a22 = self._e
        u = a11 - a22
        return u * u + 4 * a12 * a21

    def eq(self, other: "Mat2") -> bool:
        f = self._f
        if other._f is not f:
            require_same_field(f, other._f)
        if f.variant in ("Q", "Qi"):
            return (self._z or self._form()) == (other._z or other._form())
        eq = f.eq
        return all(eq(a, b) for a, b in zip(self._e, other._e))

    def is_zero(self) -> bool:
        f = self._f
        if f.variant in ("Q", "Qi"):
            return not any((self._z or self._form())[1:])
        z = f.zero()
        eq = f.eq
        return all(eq(a, z) for a in self._e)

    def is_scalar(self) -> bool:
        """Zero off-diagonals and equal diagonal entries."""
        f = self._f
        v = f.variant
        if v == "Q":
            _, n11, n12, n21, n22 = self._z or self._form()
            return n12 == 0 and n21 == 0 and n11 == n22
        if v == "Qi":
            _, p11, q11, p12, q12, p21, q21, p22, q22 = self._z or self._form()
            return p12 == q12 == p21 == q21 == 0 and p11 == p22 and q11 == q22
        a11, a12, a21, a22 = self._e
        return f.is_zero(a12) and f.is_zero(a21) and f.eq(a11, a22)

    def max_abs(self) -> float:
        return max(self._f.abs2(a) for a in self.entries)

    def row(self, i: int):
        return self.entries[2 * i : 2 * i + 2]

    def rows(self):
        e = self.entries
        return [list(e[:2]), list(e[2:])]

    def __str__(self):
        r = self.rows()
        return f"[[{r[0][0]}, {r[0][1]}], [{r[1][0]}, {r[1][1]}]]"


@dataclass(frozen=True)
class RankOneFactor:
    """Vectors x, f with A = x f* (f conjugated on pairing)."""

    x: tuple
    f: tuple

    def pairing(self, field: FieldTag):
        """<x, f> = f* x, the value deciding idempotency of x f*."""
        c = field.conj
        return c(self.f[0]) * self.x[0] + c(self.f[1]) * self.x[1]


def outer(field: FieldTag, x, f) -> Mat2:
    """Rank-(at most)-one matrix x f*; entry (p, q) is x_p * conj(f_q)."""
    c = field.conj
    f0, f1 = c(f[0]), c(f[1])
    return Mat2(field, (x[0] * f0, x[0] * f1, x[1] * f0, x[1] * f1))


@dataclass(frozen=True)
class SpectralSplit:
    """Normal form S = lam*I + N with N^2 = 0, valid when the discriminant vanishes."""

    lam: object
    nilpotent: Mat2
    discriminant: object


def is_nilpotent(A: Mat2) -> bool:
    """True iff A^2 = 0; at 2x2 this is trace = 0 and det = 0.

    For exact fields both characterizations are computed and must agree; float
    fields use the squared test alone (the two can diverge inside the
    tolerance band).
    """
    f = A.field
    square_zero = (A @ A).is_zero()
    if f.is_exact:
        char_zero = f.is_zero(A.trace()) and f.is_zero(A.det())
        if square_zero != char_zero:
            raise InvariantViolation("nilpotency characterizations disagree")
    return square_zero


def is_idempotent(A: Mat2) -> bool:
    """True iff A^2 = A."""
    return (A @ A).eq(A)


def _is_rank_one(A: Mat2) -> bool:
    f = A.field
    if A.is_zero():
        return False
    if f.is_exact:
        return f.is_zero(A.det())
    # scale-aware zero test for float fields
    m = A.max_abs()
    return abs(A.det()) <= f.tolerance * (1.0 + m * m)


def rank_one_factor(A: Mat2) -> RankOneFactor:
    """Canonical factorization A = x f* of a rank-one matrix.

    x is the first nonzero column with its leading nonzero coordinate
    normalized to 1; all scale is absorbed into f.
    """
    if not _is_rank_one(A):
        raise RankNotOne(f"matrix {A} is not rank one")
    f = A.field
    a11, a12, a21, a22 = A.entries
    cols = [(a11, a21), (a12, a22)]
    for col in cols:
        nz = [i for i in range(2) if not f.is_zero(col[i])]
        if nz:
            lead = col[nz[0]]
            x = (col[0] / lead, col[1] / lead)
            break
    # row of the leading coordinate gives f (up to conjugation)
    p0 = nz[0]
    row = A.row(p0)
    c = f.conj
    fvec = (c(row[0]), c(row[1]))
    return RankOneFactor(x=x, f=fvec)


def spectral_split(S: Mat2) -> SpectralSplit:
    """Split S = lam*I + N when the discriminant tr^2 - 4 det vanishes.

    Raises NotScalarPlusNilpotent (carrying the discriminant) otherwise; float
    fields compare the discriminant to zero under the field tolerance.
    """
    f = S.field
    tr = S.trace()
    disc = tr * tr - 4 * S.det()
    if not f.is_zero(disc):
        raise NotScalarPlusNilpotent(disc)
    lam = tr / 2
    N = S - Mat2.identity(f).scale(lam)
    return SpectralSplit(lam=lam, nilpotent=N, discriminant=disc)
