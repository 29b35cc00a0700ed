import math
import operator
import pickle
import sys
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
    Mat2,
    roots_of_unity,
)
from kcomm2 import fields
from kcomm2.errors import FieldMismatch, InputError, InvalidOrder, ResultTooLarge
from kcomm2.randgen import random_scalar

CODES = ("Q", "Qi", "R64", "C64")


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
            assert field.eq(z**m, one)
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
        assert RATIONAL_Q.eq(Fraction(1, 2), Fraction(2, 4))

    def test_float_tolerance(self):
        assert FLOAT_R.eq(0.1 + 0.2, 0.3)

    def test_distinct_rationals(self):
        assert not RATIONAL_Q.eq(Fraction(1), Fraction(-1))

    def test_tolerance_knob(self):
        loose = FieldTag("R64", 0.5)
        assert loose.eq(1.0, 1.3)
        assert not loose.eq(1.0, 1.6)

    def test_exact_zero_test_reads_the_truth_value(self, monkeypatch):
        # no GaussianRational is built from the 0 to compare against
        def no_coerce(self, other):
            raise AssertionError("is_zero coerced its argument")

        monkeypatch.setattr(GaussianRational, "_coerce", no_coerce)
        zero, i = GaussianRational._raw(0, 0, 1), GaussianRational._raw(0, 1, 3)
        assert GAUSSIAN_QI.is_zero(zero) and not GAUSSIAN_QI.is_zero(i)
        assert RATIONAL_Q.is_zero(Fraction(0)) and not RATIONAL_Q.is_zero(Fraction(-1, 7))


class TestFieldTag:
    def test_codes_and_attributes(self):
        assert fields.FIELD_CODES == CODES
        tags = [FieldTag(code) for code in CODES]
        assert [(t.is_exact, t.is_complex) for t in tags] == [
            (True, False), (True, True), (False, False), (False, True)]
        assert repr(FieldTag("R64", 0.5)) == "FieldTag(variant='R64', tolerance=0.5)"

    def test_unknown_code(self):
        with pytest.raises(InputError, match=r"unknown field code 'F7'; expected one of \("):
            FieldTag("F7")

    @pytest.mark.parametrize("tolerance", [-1e-9, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("code", CODES)
    def test_non_finite_or_negative_tolerance_refused(self, code, tolerance):
        with pytest.raises(InputError):
            FieldTag(code, tolerance)

    def test_exact_tags_equal_whatever_their_tolerance(self):
        for code in ("Q", "Qi"):
            loose = FieldTag(code, 1e-3)
            assert loose == FieldTag(code) and hash(loose) == hash(FieldTag(code))
        assert FieldTag("R64", 1e-3) != FLOAT_R
        assert FieldTag("C64", 1e-3) != FLOAT_C
        assert RATIONAL_Q != GAUSSIAN_QI

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, complex(math.inf, 0),
                                       complex(0, math.nan)])
    def test_encode_refuses_non_finite_floats(self, value):
        field = FLOAT_C if isinstance(value, complex) else FLOAT_R
        with pytest.raises(ResultTooLarge, match="not finite"):
            field.encode(value)
        assert FLOAT_R.encode(1e300) == 1e300
        assert FLOAT_C.encode(complex(1.5, -2)) == {"re": 1.5, "im": -2.0}

    def test_immutable_and_picklable(self):
        with pytest.raises(AttributeError):
            RATIONAL_Q.tolerance = 0.5
        tag = FieldTag("C64", 0.25)
        assert pickle.loads(pickle.dumps(tag)) == tag


class TestGaussianRational:
    def test_stored_reduced(self):
        z = GaussianRational(Fraction(2, 4), Fraction(-6, 8))
        assert z.re == Fraction(1, 2)
        assert z.im == Fraction(-3, 4)

    @given(fractions_st, fractions_st)
    def test_constructor_reduces_as_raw_does(self, re, im):
        z = GaussianRational(re, im)
        assert (z.re, z.im) == (re, im)
        assert z.den > 0 and math.gcd(z.a, z.b, z.den) == 1
        assert pickle.loads(pickle.dumps(z)) == z

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
        assert 1 / GaussianRational(0, 1) == GaussianRational(0, -1)

    @pytest.mark.parametrize("other", [1.5, "1", None], ids=["float", "str", "None"])
    def test_foreign_operand_is_not_implemented(self, other):
        """Against a float, str or None, + - * / raise TypeError on either side, and
        a Gaussian rational or an exact matrix compares unequal."""
        x = GaussianRational(Fraction(1, 2), 3)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for left, right in ((x, other), (other, x)):
                with pytest.raises(TypeError):
                    op(left, right)
        for value in (x, Mat2(GAUSSIAN_QI, (x, 0, 0, x))):
            assert (value == other) is False and (other == value) is False


class TestRawFraction:
    """``raw_fraction(n, d)`` is ``Fraction(n, d)`` on the running interpreter: the same
    parts, value, hash, repr, pickle round trip and arithmetic."""

    CASES = [(0, 1), (0, 6), (5, 1), (-5, 1), (3, 9), (-6, 4), (12, 18), (-7, 3),
             (2**70, 6 * 2**65), (-(3**40), 3**41)]

    @staticmethod
    def _parts(x):
        return type(x), x.numerator, x.denominator

    def _check(self, n, d):
        got, want = fields.raw_fraction(n, d), Fraction(n, d)
        parts = self._parts
        assert parts(got) == parts(want)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert parts(pickle.loads(pickle.dumps(got))) == parts(want)
        for other in (Fraction(-3, 10), 2, want):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                divide = op is operator.truediv
                if other or not divide:
                    assert parts(op(got, other)) == parts(op(want, other))
                if want or not divide:
                    assert parts(op(other, got)) == parts(op(other, want))

    @pytest.mark.parametrize("n, d", CASES, ids=str)
    def test_cases(self, n, d):
        self._check(n, d)

    def test_seeded(self):
        rng = Random(45)
        for _ in range(500):
            g = rng.choice((1, 2, 6, 35))  # a common factor of n and d, or none
            self._check(g * rng.randint(-10**6, 10**6), g * rng.randint(1, 10**6))


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


class TestParse:
    LIMIT = sys.get_int_max_str_digits()

    @pytest.mark.parametrize("field", [RATIONAL_Q, GAUSSIAN_QI], ids=lambda f: f.variant)
    def test_exact_scalar_strings(self, field):
        assert field.parse("1e3") == 1000
        assert field.parse("-2.5e-1") == Fraction(-1, 4)
        assert field.parse("3/4") == Fraction(3, 4)
        assert field.parse(f"1e{self.LIMIT}") == 10**self.LIMIT  # at the limit: parsed

    @pytest.mark.parametrize("field, obj", [
        (GAUSSIAN_QI, {"re": True, "im": 0}),
        (GAUSSIAN_QI, {"re": 0, "im": False}),
        (GAUSSIAN_QI, {"re": 0.5, "im": 0}),
        (FLOAT_C, {"re": "1", "im": "2"}),
        (FLOAT_C, {"re": True, "im": 0.0}),
        (FLOAT_C, {"re": 1.0, "im": False}),
    ], ids=["Qi-true", "Qi-false", "Qi-float", "C64-strings", "C64-true", "C64-false"])
    def test_complex_parts_follow_the_real_scalar_rule(self, field, obj):
        """A Qi part is what Q takes (a string or an integer), a C64 part what R64
        takes (an integer or a float); neither takes a boolean."""
        with pytest.raises(InputError, match="bad scalar"):
            field.parse(obj)

    def test_complex_parts_of_the_right_kind(self):
        assert GAUSSIAN_QI.parse({"re": "1/2", "im": -3}) == GaussianRational(Fraction(1, 2), -3)
        assert FLOAT_C.parse({"re": 1, "im": -2.5}) == complex(1, -2.5)
        assert GAUSSIAN_QI.parse(4) == GaussianRational(4) and FLOAT_C.parse(0.5) == 0.5

    @pytest.mark.parametrize("text", ["1e1000000", "1e-300000", "1E1_000_000", "-2.5e-{over}",
                                      "7e{over}", "1/2e{over}"])
    @pytest.mark.parametrize("field", [RATIONAL_Q, GAUSSIAN_QI], ids=lambda f: f.variant)
    def test_exponent_past_the_print_limit_refused(self, field, text):
        text = text.format(over=self.LIMIT + 1)
        with pytest.raises(InputError, match="exponent"):
            field.parse(text)
        if field.is_complex:
            with pytest.raises(InputError, match="exponent"):
                field.parse({"re": "1", "im": text})


class TestRandomScalar:
    @pytest.mark.parametrize("seed", range(4))
    def test_gaussian_draw_is_the_two_fractions_it_draws(self, seed):
        # a/b + (c/d) i from the four integers, drawn in that order, as
        # GaussianRational(Fraction(a, b), Fraction(c, d)) would be
        rng, twin = Random(seed), Random(seed)
        for _ in range(200):
            x = random_scalar(GAUSSIAN_QI, rng, denominators=True)
            a, b = twin.randrange(19) - 9, twin.randrange(4) + 1
            c, d = twin.randrange(19) - 9, twin.randrange(4) + 1
            want = GaussianRational(Fraction(a, b), Fraction(c, d))
            assert (x.a, x.b, x.den) == (want.a, want.b, want.den)
        assert rng.getstate() == twin.getstate()
