"""2x2 matrices over a pluggable scalar field.

Entries are stored row-major as a flat 4-tuple (a11, a12, a21, a22).  Matrix
values are immutable; every operation returns a fresh ``Mat2``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, NotScalarPlusNilpotent, RankNotOne
from .fields import FieldTag, require_same_field


@dataclass(frozen=True)
class Mat2:
    field: FieldTag
    entries: tuple  # (a11, a12, a21, a22)

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

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Mat2") -> "Mat2":
        require_same_field(self.field, other.field)
        a, b = self.entries, other.entries
        return Mat2(self.field, (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))

    def __sub__(self, other: "Mat2") -> "Mat2":
        require_same_field(self.field, other.field)
        a, b = self.entries, other.entries
        return Mat2(self.field, (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]))

    def __neg__(self) -> "Mat2":
        a = self.entries
        return Mat2(self.field, (-a[0], -a[1], -a[2], -a[3]))

    def __matmul__(self, other: "Mat2") -> "Mat2":
        require_same_field(self.field, other.field)
        a11, a12, a21, a22 = self.entries
        b11, b12, b21, b22 = other.entries
        return Mat2(
            self.field,
            (
                a11 * b11 + a12 * b21,
                a11 * b12 + a12 * b22,
                a21 * b11 + a22 * b21,
                a21 * b12 + a22 * b22,
            ),
        )

    def scale(self, c) -> "Mat2":
        a = self.entries
        return Mat2(self.field, (c * a[0], c * a[1], c * a[2], c * a[3]))

    def __rmul__(self, c) -> "Mat2":
        if isinstance(c, Mat2):
            return NotImplemented
        return self.scale(c)

    def power(self, n: int) -> "Mat2":
        if n < 0:
            raise ValueError("only nonnegative matrix powers are supported")
        result = Mat2.identity(self.field)
        for _ in range(n):
            result = result @ self
        return result

    def conj_t(self) -> "Mat2":
        """Conjugate transpose (field conjugation entrywise, then transpose)."""
        a11, a12, a21, a22 = self.entries
        c = self.field.conj
        return Mat2(self.field, (c(a11), c(a21), c(a12), c(a22)))

    # -- scalar invariants and predicates ------------------------------------

    def trace(self):
        return self.entries[0] + self.entries[3]

    def det(self):
        a11, a12, a21, a22 = self.entries
        return a11 * a22 - a12 * a21

    def eq(self, other: "Mat2") -> bool:
        require_same_field(self.field, other.field)
        eq = self.field.eq
        return all(eq(a, b) for a, b in zip(self.entries, other.entries))

    def is_zero(self) -> bool:
        z = self.field.zero()
        eq = self.field.eq
        return all(eq(a, z) for a in self.entries)

    def is_scalar(self) -> bool:
        """Zero off-diagonals and equal diagonal entries."""
        a11, a12, a21, a22 = self.entries
        f = self.field
        return f.is_zero(a12) and f.is_zero(a21) and f.eq(a11, a22)

    def max_abs(self) -> float:
        return max(self.field.abs2(a) for a in self.entries)

    def row(self, i: int):
        return self.entries[2 * i : 2 * i + 2]

    def rows(self):
        return [list(self.entries[:2]), list(self.entries[2:])]

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
