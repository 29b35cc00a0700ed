import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from kcomm2 import (
    FLOAT_C,
    FLOAT_R,
    GAUSSIAN_QI,
    RATIONAL_Q,
    FieldTag,
    GaussianRational,
    roots_of_unity,
    scalar_eq,
)
from kcomm2.errors import FieldMismatch, InvalidOrder


fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=9)
gaussians = st.builds(GaussianRational, fractions_st, fractions_st)


class TestRootsOfUnity:
    def test_rational_m4(self):
        assert roots_of_unity(RATIONAL_Q, 4) == [Fraction(1), Fraction(-1)]

    def test_rational_m3(self):
        assert roots_of_unity(RATIONAL_Q, 3) == [Fraction(1)]

    def test_gaussian_m4_full_unit_group(self):
        roots = roots_of_unity(GAUSSIAN_QI, 4)
        assert roots == [
            GaussianRational(1),
            GaussianRational(0, 1),
            GaussianRational(-1),
            GaussianRational(0, -1),
        ]

    def test_gaussian_m6(self):
        assert roots_of_unity(GAUSSIAN_QI, 6) == [GaussianRational(1), GaussianRational(-1)]

    @pytest.mark.parametrize("field", [RATIONAL_Q, GAUSSIAN_QI, FLOAT_R, FLOAT_C])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 12])
    def test_every_root_actually_works(self, field, m):
        roots = roots_of_unity(field, m)
        one = field.one()
        assert any(field.eq(z, one) for z in roots)
        for z in roots:
            assert scalar_eq(z**m, one, field)
        # duplicate-free
        for i, a in enumerate(roots):
            assert not any(field.eq(a, b) for b in roots[i + 1 :])

    def test_float_complex_count(self):
        assert len(roots_of_unity(FLOAT_C, 7)) == 7

    def test_zero_order_rejected(self):
        with pytest.raises(InvalidOrder):
            roots_of_unity(RATIONAL_Q, 0)


class TestScalarEq:
    def test_reduction_to_lowest_terms(self):
        assert scalar_eq(Fraction(1, 2), Fraction(2, 4), RATIONAL_Q)

    def test_float_tolerance(self):
        assert scalar_eq(0.1 + 0.2, 0.3, FLOAT_R)

    def test_distinct_rationals(self):
        assert not scalar_eq(Fraction(1), Fraction(-1), RATIONAL_Q)

    def test_tolerance_knob(self):
        loose = FieldTag("R64", 0.5)
        assert scalar_eq(1.0, 1.3, loose)
        assert not scalar_eq(1.0, 1.6, loose)


class TestGaussianRational:
    def test_stored_reduced(self):
        z = GaussianRational(Fraction(2, 4), Fraction(-6, 8))
        assert z.re == Fraction(1, 2)
        assert z.im == Fraction(-3, 4)

    @given(gaussians, gaussians)
    def test_conjugation_multiplicative(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @given(gaussians)
    def test_conjugation_involution(self, a):
        assert a.conjugate().conjugate() == a

    @given(gaussians, gaussians)
    def test_ring_closure(self, a, b):
        for v in (a + b, a - b, a * b, -a):
            assert isinstance(v, GaussianRational)
        if b:
            assert isinstance(a / b, GaussianRational)
            assert b * b.inverse() == GaussianRational(1)

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(0).inverse()

    def test_pow_negative(self):
        z = GaussianRational(0, 1)
        assert z**-1 == GaussianRational(0, -1)
        assert z**-4 == GaussianRational(1)

    def test_pow_matches_repeated_multiplication(self):
        rng = Random(17)
        values = [GaussianRational(0), GaussianRational(1), GaussianRational(0, 1)]
        values += [GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                                    Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
                   for _ in range(40)]
        for z in values:
            for n in range(-5, 41):
                if n < 0 and not z:
                    with pytest.raises(ZeroDivisionError):
                        z**n
                    continue
                base, want = z if n >= 0 else z.inverse(), GaussianRational(1)
                for _ in range(abs(n)):
                    want = want * base
                got = z**n
                assert (got.a, got.b, got.den) == (want.a, want.b, want.den), (z, n)
                assert got.den > 0 and math.gcd(got.a, got.b, got.den) == 1

    def test_int_interop(self):
        z = GaussianRational(1, 2)
        assert 2 * z == GaussianRational(2, 4)
        assert z + 1 == GaussianRational(2, 2)
        assert 1 - z == GaussianRational(0, -2)


class TestCoercion:
    def test_real_field_rejects_complex(self):
        with pytest.raises(FieldMismatch):
            FLOAT_R.coerce(1j)

    def test_rational_rejects_imaginary(self):
        with pytest.raises(FieldMismatch):
            RATIONAL_Q.coerce(GaussianRational(0, 1))

    def test_rational_accepts_real_gaussian(self):
        assert RATIONAL_Q.coerce(GaussianRational(Fraction(3, 2))) == Fraction(3, 2)

    def test_conj_identity_on_real_fields(self, any_field):
        z = any_field.coerce(Fraction(5, 3))
        if any_field.is_complex:
            assert any_field.eq(any_field.conj(z), z)  # real value, trivial conj
        else:
            assert any_field.conj(z) == z
