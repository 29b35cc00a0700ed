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
from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldMismatch, InvalidOrder, InputError, ResultTooLarge


class GaussianRational:
    """Element of Q(i), stored as (a + b*i)/den with gcd(a, b, den) = 1, den > 0.

    Integer numerators over a shared denominator keep the hot arithmetic paths
    on machine ints instead of pairs of ``Fraction`` objects.
    """

    __slots__ = ("a", "b", "den")

    def __init__(self, re=0, im=0):
        re = Fraction(re)
        im = Fraction(im)
        den = re.denominator * im.denominator
        a = re.numerator * im.denominator
        b = im.numerator * re.denominator
        g = math.gcd(a, b, den)
        if g > 1:
            a //= g
            b //= g
            den //= g
        self.a = a
        self.b = b
        self.den = den

    @classmethod
    def _raw(cls, a, b, den):
        if den != 1:
            g = math.gcd(a, b, den)
            if den < 0:
                g = -g
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
        if n < 0:
            return self.inverse() ** (-n)
        result = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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


@dataclass(frozen=True)
class FieldTag:
    """Field selector carried as data.

    variant is one of "Q", "Qi", "R64", "C64".  tolerance is only consulted by
    the float variants; exact variants compare by strict equality.
    """

    variant: str
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.variant not in ("Q", "Qi", "R64", "C64"):
            raise InputError(f"unknown field variant {self.variant!r}")
        if self.tolerance < 0:
            raise InputError("tolerance must be nonnegative")

    @property
    def is_exact(self) -> bool:
        return self.variant in ("Q", "Qi")

    @property
    def is_complex(self) -> bool:
        return self.variant in ("Qi", "C64")

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def coerce(self, x):
        """Bring an int/Fraction/native value into this field's scalar type."""
        v = self.variant
        if v == "Q":
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
            if isinstance(x, GaussianRational):
                if x.b != 0:
                    raise FieldMismatch("imaginary value in rational field")
                return x.re
            raise FieldMismatch(f"cannot coerce {type(x).__name__} into Q")
        if v == "Qi":
            if isinstance(x, GaussianRational):
                return x
            if isinstance(x, int):
                return GaussianRational._raw(x, 0, 1)
            if isinstance(x, Fraction):
                return GaussianRational._raw(x.numerator, 0, x.denominator)
            raise FieldMismatch(f"cannot coerce {type(x).__name__} into Q(i)")
        if v == "R64":
            if isinstance(x, complex):
                raise FieldMismatch("complex value in real float field")
            return float(x)
        # C64
        if isinstance(x, GaussianRational):
            return complex(float(x.re), float(x.im))
        return complex(x)

    def eq(self, a, b) -> bool:
        """Field equality: strict for exact variants, |a-b| <= tol for floats."""
        if self.is_exact:
            return a == b
        return abs(a - b) <= self.tolerance

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero())

    def conj(self, z):
        return z.conjugate()

    def abs2(self, z) -> float:
        """Magnitude proxy used only for float pivoting/diagnostics."""
        if self.variant == "Q":
            return abs(float(z))
        if self.variant == "Qi":
            return abs(float(z.re)) + abs(float(z.im))
        return abs(z)

    # -- JSON scalar encoding (see the schemas in serialize.py) --------------

    def encode(self, z):
        v = self.variant
        try:
            if v == "Q":
                return str(z)
            if v == "Qi":
                return {"re": str(z.re), "im": str(z.im)}
        except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
            raise ResultTooLarge(f"exact value too large to print: {exc}") from exc
        if v == "R64":
            return z
        return {"re": z.real, "im": z.imag}

    def parse(self, obj):
        """Decode one JSON scalar; booleans and non-finite floats are refused."""
        v = self.variant
        value = None
        try:
            if isinstance(obj, bool):
                pass
            elif v == "Q":
                if isinstance(obj, (str, int)):
                    value = Fraction(obj)
            elif v == "Qi":
                if isinstance(obj, dict):
                    value = GaussianRational(Fraction(obj["re"]), Fraction(obj["im"]))
                elif isinstance(obj, (str, int)):
                    value = GaussianRational(Fraction(obj))
            elif v == "R64":
                if isinstance(obj, (int, float)):
                    value = float(obj)
            else:
                if isinstance(obj, dict):
                    value = complex(float(obj["re"]), float(obj["im"]))
                elif isinstance(obj, (int, float)):
                    value = complex(obj)
        except (ValueError, TypeError, KeyError, ZeroDivisionError, OverflowError) as exc:
            raise InputError(f"bad scalar {obj!r} for field {v}: {exc}") from exc
        if value is None or (not self.is_exact and not cmath.isfinite(value)):
            raise InputError(f"bad scalar {obj!r} for field {v}")
        return value


RATIONAL_Q = FieldTag("Q")
GAUSSIAN_QI = FieldTag("Qi")
FLOAT_R = FieldTag("R64")
FLOAT_C = FieldTag("C64")


def require_same_field(a: FieldTag, b: FieldTag):
    if a.variant != b.variant:
        raise FieldMismatch(f"{a.variant} vs {b.variant}")


def scalar_eq(a, b, field: FieldTag) -> bool:
    """Equality of two scalars of the same field under the field's policy."""
    return field.eq(a, b)


def roots_of_unity(field: FieldTag, m: int):
    """All solutions of z**m = 1 inside the field, ascending by argument.

    Q and R64 contain only {1} (m odd) or {1, -1} (m even); Q(i) adds the
    imaginary units when 4 | m; C64 has the full cyclic group of order m.
    """
    if not isinstance(m, int) or m < 1:
        raise InvalidOrder(f"root order must be a positive integer, got {m!r}")
    v = field.variant
    if v == "Q":
        return [Fraction(1)] if m % 2 else [Fraction(1), Fraction(-1)]
    if v == "R64":
        return [1.0] if m % 2 else [1.0, -1.0]
    if v == "Qi":
        if m % 4 == 0:
            return [GaussianRational(1), _I, GaussianRational(-1), -_I]
        if m % 2 == 0:
            return [GaussianRational(1), GaussianRational(-1)]
        return [GaussianRational(1)]
    return [cmath.rect(1.0, 2.0 * math.pi * j / m) for j in range(m)]
