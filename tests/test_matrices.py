from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from kcomm2 import (
    GAUSSIAN_QI,
    RATIONAL_Q,
    GaussianRational,
    Mat2,
    is_idempotent,
    is_nilpotent,
    outer,
    rank_one_factor,
    spectral_split,
)
from kcomm2.errors import FieldMismatch, NotScalarPlusNilpotent, RankNotOne
from kcomm2.randgen import random_mat, random_nonzero_vec

from conftest import units


class TestRingOps:
    def test_unit_multiplication(self, any_field):
        e11, e12, e21, e22 = units(any_field)
        assert (e12 @ e21).eq(e11)
        assert (e21 @ e12).eq(e22)
        assert (e12 @ e12).is_zero()

    def test_conj_transpose_real_symmetric(self, any_field):
        e11 = Mat2.unit(any_field, 1, 1)
        assert e11.conj_t().eq(e11)

    def test_conj_transpose_gaussian(self):
        i = GaussianRational(0, 1)
        M = Mat2.from_rows(GAUSSIAN_QI, [[0, i], [0, 0]])
        expected = Mat2.from_rows(GAUSSIAN_QI, [[0, 0], [-i, 0]])
        assert M.conj_t().eq(expected)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            Mat2.identity(RATIONAL_Q) @ Mat2.identity(GAUSSIAN_QI)

    def test_trace_det_against_expansion(self, exact_field):
        rng = Random(7)
        for _ in range(25):
            A = random_mat(exact_field, rng, denominators=True)
            a11, a12, a21, a22 = A.entries
            assert A.trace() == a11 + a22
            assert A.det() == a11 * a22 - a12 * a21

    def test_power(self, exact_field):
        A = Mat2.from_rows(exact_field, [[1, 1], [0, 1]])
        assert A.power(0).eq(Mat2.identity(exact_field))
        assert A.power(3).eq(Mat2.from_rows(exact_field, [[1, 3], [0, 1]]))

    def test_cayley_hamilton_self_check(self, exact_field):
        rng = Random(11)
        eye = Mat2.identity(exact_field)
        for _ in range(50):
            S = random_mat(exact_field, rng, denominators=True)
            residual = S @ S - S.scale(S.trace()) + eye.scale(S.det())
            assert residual.is_zero()


class TestPredicates:
    def test_nilpotent_units(self, any_field):
        _, e12, _, _ = units(any_field)
        assert is_nilpotent(e12)
        assert is_nilpotent(Mat2.zero(any_field))

    def test_nilpotent_derived_example(self, exact_field):
        A = Mat2.from_rows(exact_field, [[1, 1], [-1, -1]])
        assert (A @ A).is_zero()
        assert is_nilpotent(A)

    def test_idempotent_not_nilpotent(self, any_field):
        e11 = Mat2.unit(any_field, 1, 1)
        assert not is_nilpotent(e11)
        assert is_idempotent(e11)

    @pytest.mark.parametrize(
        "rows", [[[1, 1], [0, 0]], [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]]
    )
    def test_idempotent_examples(self, rows):
        A = Mat2.from_rows(RATIONAL_Q, rows)
        assert (A @ A).eq(A)
        assert is_idempotent(A)

    def test_idempotent_iff_unit_pairing(self, exact_field):
        rng = Random(3)
        for _ in range(60):
            x = random_nonzero_vec(exact_field, rng, denominators=True)
            f = random_nonzero_vec(exact_field, rng, denominators=True)
            A = outer(exact_field, x, f)
            c = exact_field.conj
            pairing = c(f[0]) * x[0] + c(f[1]) * x[1]
            assert is_idempotent(A) == exact_field.eq(pairing, exact_field.one())


class TestRankOneFactor:
    def test_unit_factorization(self, exact_field):
        fac = rank_one_factor(Mat2.unit(exact_field, 1, 2))
        assert fac.x == (exact_field.one(), exact_field.zero())
        assert fac.f == (exact_field.zero(), exact_field.one())

    def test_roundtrip_example(self):
        A = Mat2.from_rows(RATIONAL_Q, [[2, 4], [1, 2]])
        fac = rank_one_factor(A)
        assert outer(RATIONAL_Q, fac.x, fac.f).eq(A)

    def test_identity_rejected(self, any_field):
        with pytest.raises(RankNotOne):
            rank_one_factor(Mat2.identity(any_field))

    def test_zero_rejected(self, any_field):
        with pytest.raises(RankNotOne):
            rank_one_factor(Mat2.zero(any_field))

    def test_roundtrip_random(self, exact_field):
        rng = Random(5)
        for _ in range(100):
            x = random_nonzero_vec(exact_field, rng, denominators=True)
            f = random_nonzero_vec(exact_field, rng, denominators=True)
            A = outer(exact_field, x, f)
            if A.is_zero():
                continue
            fac = rank_one_factor(A)
            assert outer(exact_field, fac.x, fac.f).eq(A)
            # canonical: leading nonzero coordinate of x is one
            lead = next(v for v in fac.x if not exact_field.is_zero(v))
            assert exact_field.eq(lead, exact_field.one())


class TestSpectralSplit:
    def test_jordan_block(self, any_field):
        S = Mat2.from_rows(any_field, [[1, 1], [0, 1]])
        split = spectral_split(S)
        assert any_field.eq(split.lam, any_field.one())
        assert split.nilpotent.eq(Mat2.unit(any_field, 1, 2))

    def test_derived_example(self):
        S = Mat2.from_rows(RATIONAL_Q, [[2, 1], [-1, 0]])
        split = spectral_split(S)
        assert split.lam == Fraction(1)
        N = split.nilpotent
        assert N.eq(Mat2.from_rows(RATIONAL_Q, [[1, 1], [-1, -1]]))
        assert (N @ N).is_zero()

    def test_rotation_rejected_with_discriminant(self):
        S = Mat2.from_rows(RATIONAL_Q, [[0, 1], [-1, 0]])
        with pytest.raises(NotScalarPlusNilpotent) as exc:
            spectral_split(S)
        assert exc.value.discriminant == Fraction(-4)

    def test_reassembly_random(self, exact_field):
        rng = Random(9)
        from kcomm2.randgen import random_scalar_plus_nilpotent

        for _ in range(50):
            S = random_scalar_plus_nilpotent(exact_field, rng)
            split = spectral_split(S)
            eye = Mat2.identity(exact_field)
            assert (eye.scale(split.lam) + split.nilpotent).eq(S)
            assert (split.nilpotent @ split.nilpotent).is_zero()


# -- the integer form under exact matrices -----------------------------------

small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _scalars(field):
    if field.variant == "Q":
        return small_fractions
    return st.builds(GaussianRational, small_fractions, small_fractions)


def _exact_case(field):
    mat = st.tuples(*[_scalars(field)] * 4).map(lambda e: Mat2(field, e))
    return st.tuples(st.just(field), mat, mat, _scalars(field))


exact_cases = st.sampled_from([RATIONAL_Q, GAUSSIAN_QI]).flatmap(_exact_case)


def _parts(x):
    """The stored canonical parts of an exact scalar, with its type."""
    if isinstance(x, GaussianRational):
        return type(x), x.a, x.b, x.den
    return type(x), x.numerator, x.denominator


def _same(got, want):
    """Entrywise identical canonical parts (Mat2 against a tuple of scalars)."""
    assert [_parts(x) for x in got.entries] == [_parts(x) for x in want]


def _expected(field, a, b, c):
    """Every exact operation, written entrywise with Fraction / GaussianRational."""
    co = field.coerce
    a, b, c = tuple(co(x) for x in a), tuple(co(x) for x in b), co(c)
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return {
        "matmul": (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                   a21 * b11 + a22 * b21, a21 * b12 + a22 * b22),
        "add": tuple(x + y for x, y in zip(a, b)),
        "sub": tuple(x - y for x, y in zip(a, b)),
        "neg": tuple(-x for x in a),
        "scale": tuple(c * x for x in a),
        "conj_t": tuple(x.conjugate() for x in (a11, a21, a12, a22)),
        "trace": a11 + a22,
        "det": a11 * a22 - a12 * a21,
        "discriminant": (a11 - a22) * (a11 - a22) + 4 * a12 * a21,
    }


def _check_against_scalars(field, A, B, c):
    want = _expected(field, A.entries, B.entries, c)
    _same(A @ B, want["matmul"])
    _same(A + B, want["add"])
    _same(A - B, want["sub"])
    _same(-A, want["neg"])
    _same(A.scale(c), want["scale"])
    _same(A.conj_t(), want["conj_t"])
    for name in ("trace", "det", "discriminant"):
        assert _parts(getattr(A, name)()) == _parts(want[name]), name


class TestIntegerForm:
    """Exact Mat2 operations run on integer forms; their answers must be the
    entrywise Fraction / GaussianRational answers, canonical parts included."""

    def test_operations_match_scalar_formulas_seeded(self, exact_field):
        rng = Random(41)
        for _ in range(60):
            A = random_mat(exact_field, rng, denominators=True)
            B = random_mat(exact_field, rng, denominators=True)
            c = random_mat(exact_field, rng, denominators=True).entries[rng.randrange(4)]
            _check_against_scalars(exact_field, A, B, c)
            # results of operations as inputs (form only, entries built lazily)
            _check_against_scalars(exact_field, A @ B - B, B.scale(c) + A, c)

    @given(exact_cases)
    def test_operations_match_scalar_formulas(self, case):
        _check_against_scalars(*case)

    @pytest.mark.parametrize("c", [3, Fraction(-2, 9), 0, Fraction(5, 2)])
    def test_scale_by_int_and_fraction(self, exact_field, c):
        # the second matrix has numerators sharing 2, and denominator 5
        for A in (random_mat(exact_field, Random(2), denominators=True),
                  Mat2(exact_field, (2, 4, Fraction(6, 5), 8))):
            _same(A.scale(c), tuple(exact_field.coerce(c) * x for x in A.entries))

    @given(exact_cases)
    def test_built_and_computed_values_agree(self, case):
        field, A, B, _ = case
        eye = Mat2.identity(field)
        for built, computed in ((A, A @ eye), (A, eye @ A), (A, (A + B) - B), (B, -(-B))):
            assert built == computed and computed == built
            assert hash(built) == hash(computed)
            assert built.eq(computed) and computed.eq(built)
        assert (A == A + eye) is False

    def test_predicates_on_computed_values(self, exact_field):
        A = random_mat(exact_field, Random(8), denominators=True)
        assert (A - A).is_zero() and not (A - A + Mat2.identity(exact_field)).is_zero()
        third = Mat2.identity(exact_field).scale(Fraction(1, 3))
        ninth = Fraction(1, 9)
        assert (third @ third).is_scalar() and (third @ third).eq(Mat2.diag(exact_field, ninth, ninth))
        assert not (third + Mat2.unit(exact_field, 1, 2)).is_scalar()

    def test_equal_values_in_different_fields_differ(self):
        assert Mat2.identity(RATIONAL_Q) != Mat2.identity(GAUSSIAN_QI)

    def test_entries_and_field_are_read_only(self, any_field):
        A = Mat2.identity(any_field)
        B = A @ A
        for M in (A, B):
            with pytest.raises(AttributeError):
                M.entries = (1, 2, 3, 4)
            with pytest.raises(AttributeError):
                M.field = RATIONAL_Q
        assert B.eq(A)

    def test_int_entries(self, exact_field):
        A = Mat2(exact_field, (1, 2, 3, 4))
        assert A.entries == (1, 2, 3, 4)
        assert A == Mat2.from_rows(exact_field, [[1, 2], [3, 4]])
        assert (A @ A).eq(Mat2.from_rows(exact_field, [[7, 10], [15, 22]]))
        assert A.det() == -2 and A.trace() == 5 and A.discriminant() == 33

    def test_float_discriminant(self, any_field):
        A = Mat2.from_rows(any_field, [[1, 2], [3, 4]])
        assert any_field.eq(A.discriminant(), any_field.coerce(33))

    def test_wrong_scalar_type_rejected(self):
        with pytest.raises(FieldMismatch):
            Mat2.identity(RATIONAL_Q).scale(GaussianRational(0, 1))
        with pytest.raises(FieldMismatch):
            Mat2.identity(GAUSSIAN_QI).scale(0.5)
