"""Scalar fields: exact rationals, Gaussian rationals, and float real/complex.

Scalars are plain Python values: ``Fraction`` for Q, :class:`GaussianRational`
for Q(i), ``float``/``complex`` for the approximate fields.  A ``FieldTag``
carries the field choice (and tolerance, for floats) as data so the CLI can
select it per invocation.  All values are immutable; everything here is a pure
function.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction

from .errors import FieldMismatch, InvalidOrder, InputError, ResultTooLarge


class GaussianRational:
    """Element of Q(i), stored as (a + b*i)/den with gcd(a, b, den) = 1, den > 0.

    Integer numerators over a shared denominator keep the hot arithmetic paths
    on machine ints instead of pairs of ``Fraction`` objects.
    """

    __slots__ = ("a", "b", "den")

    def __new__(cls, re=0, im=0):
        re = Fraction(re)
        im = Fraction(im)
        return cls._raw(re.numerator * im.denominator, im.numerator * re.denominator,
                        re.denominator * im.denominator)

    @classmethod
    def _raw(cls, a, b, den):
        """(a + b*i)/den reduced by gcd(a, b, den); every caller passes den > 0."""
        if den != 1:
            g = math.gcd(a, b, den)
            if g != 1:
                a //= g
                b //= g
                den //= g
        self = object.__new__(cls)
        self.a = a
        self.b = b
        self.den = den
        return self

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.den)

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, int):
            return GaussianRational._raw(other, 0, 1)
        if isinstance(other, Fraction):
            return GaussianRational._raw(other.numerator, 0, other.denominator)
        return NotImplemented

    def __add__(self, other):
        o = other if type(other) is GaussianRational else self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational._raw(
            self.a * o.den + o.a * self.den,
            self.b * o.den + o.b * self.den,
            self.den * o.den,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is GaussianRational else self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational._raw(
            self.a * o.den - o.a * self.den,
            self.b * o.den - o.b * self.den,
            self.den * o.den,
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        return GaussianRational._raw(-self.a, -self.b, self.den)

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational._raw(
            self.a * o.a - self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.den * o.den,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational._raw(self.den * self.a, -self.den * self.b, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        """Square-and-multiply on a + b i (a square is (x + y)(x - y) + 2xy i), then one reduction.

        gcd(a, b, den) = 1, so no odd prime p dividing den divides
        (a + b i)**n in Z[i]: an inert p would divide a + b i, and a split
        p = pi * conj(pi) would need both (non-associate) factors to divide
        it.  The common factor of the result and den**n is therefore a power
        of two, read from trailing zero bits instead of a gcd of n-fold sized
        integers.
        """
        if n < 0:
            return self.inverse() ** (-n)
        a, b = 1, 0
        x, y = self.a, self.b
        e = n
        while e:
            if e & 1:
                a, b = a * x - b * y, a * y + b * x
            e >>= 1
            if e:
                x, y = (x + y) * (x - y), 2 * x * y
        den = self.den**n
        low = a | b | den
        shift = (low & -low).bit_length() - 1
        return coprime_gaussian(a >> shift, b >> shift, den >> shift)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self.a, -self.b, self.den)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.den == o.den

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.den))
        return hash((self.a, self.b, self.den))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.b == 0:
            return str(self.re)
        return f"{self.re}+{self.im}i"


_I = GaussianRational(0, 1)


def raw_fraction(n: int, den: int) -> Fraction:
    """Fraction(n, den) for ints with den > 0, its slots set after one gcd (none when
    den is 1), as ``GaussianRational._raw`` and Python 3.12's
    ``Fraction._from_coprime_ints`` do."""
    if den != 1:
        g = math.gcd(n, den)
        if g != 1:
            n //= g
            den //= g
    self = object.__new__(Fraction)
    self._numerator = n
    self._denominator = den
    return self


def coprime_fraction(n: int, den: int) -> Fraction:
    """Fraction(n, den) for coprime ints with den > 0: ``raw_fraction`` without its gcd."""
    self = object.__new__(Fraction)
    self._numerator = n
    self._denominator = den
    return self


def coprime_gaussian(a: int, b: int, den: int) -> GaussianRational:
    """(a + b*i)/den for ints with gcd(a, b, den) = 1 and den > 0: ``GaussianRational._raw``
    without its gcd."""
    self = object.__new__(GaussianRational)
    self.a = a
    self.b = b
    self.den = den
    return self


def _fraction(x) -> Fraction:
    """Fraction(x), but a string exponent past the digit limit ``encode`` applies is refused."""
    if isinstance(x, str):
        try:
            exponent = abs(int(x.lower().partition("e")[2]))
        except ValueError:  # no exponent, or one Fraction refuses too
            exponent = 0
        if 0 < sys.get_int_max_str_digits() < exponent:
            raise ValueError(f"exponent past the {sys.get_int_max_str_digits()}-digit limit")
    return Fraction(x)


def _part_str(n: int, den: int) -> str:
    """str(Fraction(n, den)), but when |n| >= 10**limit * den (on bit lengths, log2(10) =
    3.32...) ``str(n)`` raises its ValueError, with no gcd of two large integers."""
    limit = sys.get_int_max_str_digits()
    if limit and n.bit_length() > den.bit_length() + 3.3219280948873626 * limit + 2:
        str(n)
    return str(Fraction(n, den))


FIELD_CODES = ("Q", "Qi", "R64", "C64")


class FieldTag:
    """Field selector carried as data: ``FieldTag(variant, tolerance=1e-9)``.

    variant is one of ``FIELD_CODES``.  ``is_exact`` (Q, Qi) and ``is_complex``
    (Qi, C64) are decided here, once; every other module reads them instead
    of the code.  tolerance must be finite and >= 0 and is read only by the
    float variants R64 and C64, so exact tags compare and hash by variant
    alone, whatever tolerance they were given.
    """

    __slots__ = ("variant", "tolerance", "is_exact", "is_complex")

    def __init__(self, variant: str, tolerance: float = 1e-9):
        if variant not in FIELD_CODES:
            raise InputError(f"unknown field code {variant!r}; expected one of {FIELD_CODES}")
        if not 0 <= tolerance < math.inf:
            raise InputError(f"tolerance must be finite and >= 0, got {tolerance!r}")
        for name, value in (("variant", variant), ("tolerance", tolerance),
                            ("is_exact", variant in ("Q", "Qi")),
                            ("is_complex", variant in ("Qi", "C64"))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"FieldTag is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, FieldTag):
            return NotImplemented
        return self.variant == other.variant and (self.is_exact or self.tolerance == other.tolerance)

    def __hash__(self):
        return hash(self.variant if self.is_exact else (self.variant, self.tolerance))

    def __repr__(self):
        return f"FieldTag(variant={self.variant!r}, tolerance={self.tolerance!r})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return FieldTag, (self.variant, self.tolerance)

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def coerce(self, x):
        """Bring a scalar into this field's type by its kind, or raise FieldMismatch.

        Exact fields take int and Fraction; float fields int, float and
        Fraction, and C64 complex too.  A GaussianRational is kept over Q(i),
        made complex over C64, and over Q and R64 taken by its real part when
        it has no imaginary one.  Each field tests its own scalar type first.
        """
        if self.is_exact:
            if self.is_complex:
                if isinstance(x, GaussianRational):
                    return x
                if isinstance(x, (int, Fraction)):
                    return GaussianRational._raw(x.numerator, 0, x.denominator)
            elif isinstance(x, Fraction):
                return x
            elif isinstance(x, int):
                return Fraction(x)
        elif isinstance(x, (complex if self.is_complex else float, float, int, Fraction)):
            return complex(x) if self.is_complex else float(x)
        if isinstance(x, GaussianRational) and (self.is_complex or not x.b):
            return complex(float(x.re), float(x.im)) if self.is_complex else self.coerce(x.re)
        raise FieldMismatch(f"cannot coerce {type(x).__name__} into {self.variant}")

    def eq(self, a, b) -> bool:
        """Field equality: strict for exact variants, |a-b| <= tol for floats."""
        if self.is_exact:
            return a == b
        return abs(a - b) <= self.tolerance

    def is_zero(self, a) -> bool:
        if self.is_exact:
            return not a
        return abs(a) <= self.tolerance

    def conj(self, z):
        return z.conjugate()

    def abs2(self, z) -> float:
        """Magnitude of a float scalar, for pivoting and the rank-one test."""
        return abs(z)

    # -- JSON scalar encoding (see the schemas in serialize.py) --------------

    def encode(self, z):
        """JSON form of one scalar; a value JSON cannot carry raises ResultTooLarge."""
        if not self.is_exact:
            if not cmath.isfinite(z):
                raise ResultTooLarge(f"{self.variant} value {z!r} is not finite")
            return {"re": z.real, "im": z.imag} if self.is_complex else z
        try:
            return {"re": _part_str(z.a, z.den), "im": _part_str(z.b, z.den)} if self.is_complex else str(z)
        except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
            raise ResultTooLarge(f"exact value too large to print: {exc}") from exc

    def parse(self, obj):
        """Decode one JSON scalar, or over Qi and C64 an object {"re", "im"} of two.

        An exact scalar is a string or an integer, a float one an integer or a
        float; booleans and non-finite floats are refused, alone or as parts.
        """
        value = None
        kinds = (str, int) if self.is_exact else (int, float)
        try:
            pair = self.is_complex and isinstance(obj, dict)
            parts = [obj["re"], obj["im"]] if pair else [obj]
            if all(isinstance(x, kinds) and not isinstance(x, bool) for x in parts):
                if self.is_exact:
                    parts = [_fraction(x) for x in parts]
                    value = GaussianRational(*parts) if pair else self.coerce(parts[0])
                else:
                    value = complex(float(parts[0]), float(parts[1])) if pair else self.coerce(obj)
        except (ValueError, TypeError, KeyError, ZeroDivisionError, OverflowError) as exc:
            raise InputError(f"bad scalar {obj!r} for field {self.variant}: {exc}") from exc
        if value is None or (not self.is_exact and not cmath.isfinite(value)):
            raise InputError(f"bad scalar {obj!r} for field {self.variant}")
        return value


RATIONAL_Q = FieldTag("Q")
GAUSSIAN_QI = FieldTag("Qi")
FLOAT_R = FieldTag("R64")
FLOAT_C = FieldTag("C64")


def require_same_field(a: FieldTag, b: FieldTag):
    if a.variant != b.variant:
        raise FieldMismatch(f"{a.variant} vs {b.variant}")


def roots_of_unity(field: FieldTag, m: int):
    """All solutions of z**m = 1 inside the field, ascending by argument.

    Q and R64 contain only {1} (m odd) or {1, -1} (m even); Q(i) adds the
    imaginary units when 4 | m; C64 has the full cyclic group of order m.
    """
    if not isinstance(m, int) or m < 1:
        raise InvalidOrder(f"root order must be a positive integer, got {m!r}")
    if field.is_complex and not field.is_exact:
        return [cmath.rect(1.0, 2.0 * math.pi * j / m) for j in range(m)]
    one = field.one()
    if m % 2:
        return [one]
    if field.is_complex and m % 4 == 0:
        return [one, _I, -one, -_I]
    return [one, -one]
