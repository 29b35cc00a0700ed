import cmath
import math
import struct
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
    kcomm,
    kcomm_recursive,
    outer,
    rank_one_factor,
    scalar_plus_nilpotent_spectral,
)
from kcomm2 import matrices
from kcomm2.errors import FieldMismatch, RankNotOne, ResultTooLarge
from kcomm2.randgen import random_nonzero_vec
from kcomm2.serialize import canonical_dumps, mat_from_json, mat_to_json

from conftest import units
from support import Poly, poly_bracket, random_mat, random_scalar_plus_nilpotent


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

    def test_scalar_on_the_left(self, any_field):
        M = Mat2(any_field, (1, 2, 3, 4))
        assert 2 * M == M.scale(2)
        with pytest.raises(TypeError):
            M * M

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
        Z = Mat2.zero(any_field)
        assert (e12 @ e12).is_zero()
        assert (Z @ Z).is_zero()

    def test_nilpotent_derived_example(self, exact_field):
        A = Mat2.from_rows(exact_field, [[1, 1], [-1, -1]])
        assert (A @ A).is_zero()
        assert exact_field.is_zero(A.trace()) and exact_field.is_zero(A.det())

    def test_idempotent_not_nilpotent(self, any_field):
        e11 = Mat2.unit(any_field, 1, 1)
        assert not (e11 @ e11).is_zero()
        assert (e11 @ e11).eq(e11)

    @pytest.mark.parametrize(
        "rows", [[[1, 1], [0, 0]], [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]]
    )
    def test_idempotent_examples(self, rows):
        A = Mat2.from_rows(RATIONAL_Q, rows)
        assert (A @ A).eq(A)

    def test_idempotent_iff_unit_pairing(self, exact_field):
        rng = Random(3)
        for _ in range(60):
            x = random_nonzero_vec(exact_field, rng, denominators=True)
            f = random_nonzero_vec(exact_field, rng, denominators=True)
            A = outer(exact_field, x, f)
            c = exact_field.conj
            pairing = c(f[0]) * x[0] + c(f[1]) * x[1]
            assert (A @ A).eq(A) == exact_field.eq(pairing, exact_field.one())


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

    def test_entry_past_the_print_limit_is_typed(self):
        # 10**4400 has more digits than str will print
        with pytest.raises(RankNotOne):
            rank_one_factor(Mat2.diag(RATIONAL_Q, 10**4400, 1))

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

    @pytest.mark.parametrize("field", [FLOAT_R, FLOAT_C], ids=lambda f: f.variant)
    def test_roundtrip_float(self, field):
        rng = Random(5)
        for _ in range(200):
            A = outer(field, random_nonzero_vec(field, rng), random_nonzero_vec(field, rng))
            fac = rank_one_factor(A)
            assert outer(field, fac.x, fac.f).eq(A)
            # exactly one, not within tolerance: over C64 z / z can be 1 + 1e-17j
            lead = next(v for v in fac.x if not field.is_zero(v))
            assert lead == 1.0 and type(lead) is type(field.one())


class TestSpectralSplit:
    """The split S = lam*I + N that the Lemma 2.3 classifier returns."""

    def test_jordan_block(self, any_field):
        S = Mat2.from_rows(any_field, [[1, 1], [0, 1]])
        split = scalar_plus_nilpotent_spectral(S).split
        assert any_field.eq(split.lam, any_field.one())
        assert split.nilpotent.eq(Mat2.unit(any_field, 1, 2))

    def test_derived_example(self):
        S = Mat2.from_rows(RATIONAL_Q, [[2, 1], [-1, 0]])
        split = scalar_plus_nilpotent_spectral(S).split
        assert split.lam == Fraction(1)
        N = split.nilpotent
        assert N.eq(Mat2.from_rows(RATIONAL_Q, [[1, 1], [-1, -1]]))
        assert (N @ N).is_zero()

    def test_rotation_rejected_with_discriminant(self):
        S = Mat2.from_rows(RATIONAL_Q, [[0, 1], [-1, 0]])
        assert scalar_plus_nilpotent_spectral(S) == (False, None, Fraction(-4))

    def test_float_discriminant_without_cancellation(self):
        # tr^2 - 4 det cancels to 0.0 here; the true discriminant is 1
        S = Mat2.from_rows(FLOAT_R, [[1e8 + 1, 1], [0, 1e8]])
        assert scalar_plus_nilpotent_spectral(S) == (False, None, 1.0)

    def test_reassembly_random(self, exact_field):
        rng = Random(9)
        for _ in range(50):
            S = random_scalar_plus_nilpotent(exact_field, rng)
            split = scalar_plus_nilpotent_spectral(S).split
            eye = Mat2.identity(exact_field)
            assert (eye.scale(split.lam) + split.nilpotent).eq(S)
            assert (split.nilpotent @ split.nilpotent).is_zero()


# -- the integer form under exact matrices -----------------------------------


def _pair_bracket(R, B):
    """RB - BR on row-major matrices whose entries are (re, im) pairs of polynomials."""
    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def matmul(X, Y):
        return [tuple(p + q for p, q in zip(mul(X[2 * r], Y[c]), mul(X[2 * r + 1], Y[2 + c])))
                for r in (0, 1) for c in (0, 1)]

    return [tuple(p - q for p, q in zip(x, y)) for x, y in zip(matmul(R, B), matmul(B, R))]


small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _scalars(field):
    if field.variant == "Q":
        return small_fractions
    return st.builds(GaussianRational, small_fractions, small_fractions)


def _exact_case(field):
    mat = st.tuples(*[_scalars(field)] * 4).map(lambda e: Mat2(field, e))
    return st.tuples(st.just(field), mat, mat, _scalars(field))


exact_fields = st.sampled_from([RATIONAL_Q, GAUSSIAN_QI])
exact_cases = exact_fields.flatmap(_exact_case)


# The platform's default NaN, the one inf - inf and 0 * inf make.  It is the only NaN
# drawn, so every NaN an operation meets has its bits, and the one it keeps cannot
# depend on which operand CPython 3.11 picks (it can differ once it has specialised
# the bytecode).
_NAN = math.inf - math.inf


def _float_scalars(field):
    """Any float (the default NaN, infinities and -0.0 included), or a complex of two."""
    floats = st.floats(width=64, allow_nan=False) | st.just(_NAN)
    return st.builds(complex, floats, floats) if field.is_complex else floats


def _bits(x):
    """The IEEE-754 bits of a float, or of both parts of a complex."""
    return struct.pack("<2d", x.real, x.imag) if isinstance(x, complex) else struct.pack("<d", x)


def _as_float(x):
    """An exact scalar rounded to a float, or over Q(i) to a complex."""
    return complex(x.re, x.im) if isinstance(x, GaussianRational) else float(x)


def _vectors(field):
    return st.tuples(_scalars(field), _scalars(field))


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


def _composed(P, Q, B, c):
    """What ``Mat2._bracket_step`` fuses, as separate operations: P - Q, then its
    bracket with B (when given), then the scale by c (when given)."""
    R = P - Q
    if B is not None:
        R = R @ B - B @ R
    return R if c is None else R.scale(c)


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

    # Q entries (A, B) for each branch of the slot-by-slot + and -: equal or
    # unequal denominators, and a result whose gcd with that denominator is 1
    # or above 1.  Over Q(i) each entry x becomes x - 2x i, which keeps every
    # gcd and gives negative numerators.
    COMBINE_CASES = {
        "equal-den-gcd-1": ("1/2 1 3/2 0", "1/2 0 0 -1/2"),
        "equal-den-gcd-2": ("1/2 1/2 0 0", "1/2 -1/2 1 0"),
        "unequal-den-gcd-1": ("1/3 0 1 0", "1/5 2 0 0"),
        "unequal-den-gcd-4": ("1/6 1 0 0", "1/10 0 0 1"),
    }

    @pytest.mark.parametrize("case", COMBINE_CASES, ids=str)
    def test_add_and_sub_branches(self, exact_field, case):
        lift = (lambda x: GaussianRational(x, -2 * x)) if exact_field.is_complex else (lambda x: x)
        a, b = ([lift(Fraction(x)) for x in entries.split()] for entries in self.COMBINE_CASES[case])
        A, B = Mat2(exact_field, a), Mat2(exact_field, b)
        d, e = A._z[0], B._z[0]
        assert (d == e) == case.startswith("equal")
        raw_den = d if d == e else d * e  # the denominator before the gcd
        for X, Y in ((A, B), (B, A)):
            want = _expected(exact_field, X.entries, Y.entries, 1)
            for got, entries in ((X + Y, want["add"]), (X - Y, want["sub"])):
                _same(got, entries)
                assert got._z == Mat2(exact_field, entries)._z
                assert (got._z[0] == raw_den) == case.endswith("gcd-1")
            for zero in (X - X, X + (-X)):
                assert zero._z == Mat2.zero(exact_field)._z
                _same(zero, (exact_field.zero(),) * 4)

    @pytest.mark.parametrize("c, reduced", [
        (GaussianRational(Fraction(2, 3), Fraction(-5, 3)), False),  # p, q, r = 2, -5, 3
        (GaussianRational(Fraction(3, 2), Fraction(3, 2)), True),  # p, q, r = 3, 3, 2
    ])
    def test_gaussian_scale_by_a_full_scalar(self, c, reduced):
        parts = (("1/3", "2"), ("-1", "2/3"), ("0", "-4/3"), ("5/3", "-1"))
        A = Mat2(GAUSSIAN_QI, [GaussianRational(Fraction(a), Fraction(b)) for a, b in parts])
        assert c.a and c.b and c.den != 1
        got = A.scale(c)
        want = tuple(c * x for x in A.entries)
        _same(got, want)
        assert got._z == Mat2(GAUSSIAN_QI, want)._z
        assert (got._z[0] < A._z[0] * c.den) == reduced

    def test_integral_rational_entries(self):
        A, half = Mat2(RATIONAL_Q, (1, -2, 0, 4)), Fraction(1, 2)
        B = Mat2(RATIONAL_Q, (half, -half, 0, half))
        for M in (A @ A, B + B, A - A, A.scale(-3), A.shift(half).shift(half)):
            assert M._z[0] == 1 and M._e is None
            for x, n in zip(M.entries, M._z[1:]):
                assert type(x) is Fraction and _parts(x) == _parts(Fraction(n, 1))
                assert x == n and hash(x) == hash(n) == hash(Fraction(n, 1))

    @given(exact_cases)
    def test_built_and_computed_values_agree(self, case):
        field, A, B, c = case
        eye = Mat2.identity(field)
        for built, computed in ((A, A @ eye), (A, eye @ A), (A, (A + B) - B), (B, -(-B)),
                                (Mat2(field, (A @ B).entries), A @ B)):
            assert built == computed and computed == built
            assert hash(built) == hash(computed)
            assert built.eq(computed) and computed.eq(built)
        assert (A == A + eye) is False
        loose = FieldTag(field.variant, 1e-3)  # an exact tag's tolerance splits no value
        for M in (A, A @ B, A.scale(c) - B):
            twin = Mat2(loose, M.entries)
            assert twin == M and hash(twin) == hash(M)

    def test_predicates_on_computed_values(self, exact_field):
        A = random_mat(exact_field, Random(8), denominators=True)
        assert (A - A).is_zero() and not (A - A + Mat2.identity(exact_field)).is_zero()
        third = Mat2.identity(exact_field).scale(Fraction(1, 3))
        ninth = Fraction(1, 9)
        assert (third @ third).is_scalar() and (third @ third).eq(Mat2.diag(exact_field, ninth, ninth))
        assert not (third + Mat2.unit(exact_field, 1, 2)).is_scalar()

    @given(exact_fields.flatmap(lambda f: st.tuples(
        st.just(f),
        st.one_of(st.tuples(*[_scalars(f)] * 4),  # random
                  st.tuples(_scalars(f), st.just(0), st.just(0), _scalars(f)),  # diagonal
                  _scalars(f).map(lambda c: (c, 0, 0, c))),  # scalar
        _scalars(f))))
    def test_is_scalar_reads_the_form(self, case):
        field, entries, c = case
        A, eye = Mat2(field, entries), Mat2.identity(field)
        for M in (A, (A + eye) - eye, A @ eye.scale(field.coerce(2)), A.scale(c)):
            computed = M is not A
            assert not computed or type(M._e) is not tuple  # no entry built yet
            holds = M.is_scalar()
            assert not computed or type(M._e) is not tuple  # decided without building entries
            a11, a12, a21, a22 = M.entries
            assert holds == (field.is_zero(a12) and field.is_zero(a21) and field.eq(a11, a22))

    @given(exact_cases)
    def test_shift_is_the_sum_with_a_scaled_identity(self, case):
        field, A, B, c = case
        eye = Mat2.identity(field)
        for X in (A, A @ B):
            for s in (c, 3, Fraction(-2, 3)):  # every kind of scalar the field takes
                got, want = X.shift(s), X + eye.scale(s)
                assert got._z == want._z and hash(got) == hash(want)
                assert got._e is None  # computed on the form
                _same(got, want.entries)

    @given(exact_cases)
    def test_top_left_reads_the_form(self, case):
        field, A, B, c = case
        for M in (A, A @ B, (A @ B).shift(c)):
            value = M.top_left()
            assert M is A or M._e is None  # no entry built
            assert _parts(value) == _parts(M.entries[0])

    @given(st.sampled_from([FLOAT_R, FLOAT_C]).flatmap(lambda f: st.tuples(
        st.just(f), st.tuples(*[_float_scalars(f)] * 4), _float_scalars(f))))
    def test_float_shift_makes_the_operations_of_the_sum(self, case):
        field, entries, c = case
        X = Mat2(field, entries)
        got, want = X.shift(c), X + Mat2.identity(field).scale(c)
        assert [_bits(x) for x in got.entries] == [_bits(x) for x in want.entries]

    @given(exact_cases)
    def test_commutator_is_the_difference_of_the_products(self, case):
        """The step on the products RS and SR is RS - SR, and with S its bracket with
        S, each with its entries built."""
        field, A, B, c = case
        eye = Mat2.identity(field)
        # inputs and results of operations; traceless, scalar and equal pairs give zeros
        for R, S in ((A, B), (A @ B - B @ A, B), (B.scale(c), A @ B), (A, eye.scale(c)), (A, A)):
            want = R @ S - S @ R
            for got, want in (((R @ S)._bracket_step(S @ R), want),
                              ((R @ S)._bracket_step(S @ R, S), want @ S - S @ want)):
                assert got._z == want._z and hash(got) == hash(want) and got == want
                assert type(got._e) is tuple  # built by the step
                _same(got, want.entries)

    @pytest.mark.parametrize("field", [RATIONAL_Q, GAUSSIAN_QI], ids=lambda f: f.variant)
    def test_commutator_symbolic(self, field, monkeypatch):
        """The integer-form difference and bracket of ``Mat2._bracket_step``, run with
        no reduction on forms of polynomial numerators over the denominator 1, give
        the expanded [R - Y, B], for Y of R's trace (its last entry is fixed by it),
        and the entries it builds hold the same parts over 1."""
        monkeypatch.setattr(matrices, "gcd", lambda *args: 1)  # so every // is by 1
        n = 8 if field.is_complex else 4
        R, Y, B = ((Poly({(): 1}), *[Poly.var(f"{x}{i}") for i in range(n)]) for x in "ryb")
        m = n // 4  # parts per entry
        Y = Y[:-m] + tuple(r4 + r1 - y1 for r4, r1, y1 in zip(R[-m:], R[1:1 + m], Y[1:1 + m]))
        step = matrices._built(field, None, R)._bracket_step(
            matrices._built(field, None, Y), matrices._built(field, None, B))
        got = step._z
        assert got[0] == 1 and type(step._e) is tuple
        parts = [(x.a, x.b, x.den) if field.is_complex else (x.numerator, x.denominator) for x in step._e]
        assert [p for e in parts for p in e[:-1]] == list(got[1:]) and all(e[-1] == 1 for e in parts)
        X = tuple(r - y for r, y in zip(R[1:], Y[1:]))
        if not field.is_complex:
            assert got[1:] == poly_bracket(X, B[1:])
            return
        pairs = [tuple(zip(M[0::2], M[1::2])) for M in (X, B[1:])]
        want = _pair_bracket(*pairs)
        assert got[1:] == tuple(part for entry in want for part in entry)

    # Q entries (R, B) whose commutator is zero, keeps its raw denominator
    # 2 * 3 = 6 (gcd 1) or reduces it (gcd 2), or has negative numerators.
    # Over Q(i) each entry x becomes x - 2x i, as in COMBINE_CASES.
    COMMUTATOR_CASES = {
        "zero": ("1/2 1 0 1/2", "1/3 0 0 1/3"),
        "gcd-1": ("1/2 1 3/2 0", "1/3 1 0 0"),
        "gcd-above-1": ("1/2 0 0 -1/2", "0 1/3 1/3 0"),
        "negative": ("0 -1/2 -3/2 0", "-5/3 1 0 2"),
    }

    @pytest.mark.parametrize("case", COMMUTATOR_CASES, ids=str)
    def test_commutator_cases(self, exact_field, case):
        lift = (lambda x: GaussianRational(x, -2 * x)) if exact_field.is_complex else (lambda x: x)
        r, b = ([lift(Fraction(x)) for x in entries.split()] for entries in self.COMMUTATOR_CASES[case])
        R, B = Mat2(exact_field, r), Mat2(exact_field, b)
        for X, Y in ((R, B), (B, R)):
            got = (X @ Y)._bracket_step(Y @ X)
            want = _expected(exact_field, X.entries, Y.entries, 1)["matmul"]
            back = _expected(exact_field, Y.entries, X.entries, 1)["matmul"]
            _same(got, tuple(p - q for p, q in zip(want, back)))
            assert got._z == (X @ Y - Y @ X)._z
            # the kernel's even step: the difference of the products, bracketed with Y
            assert (X @ Y)._bracket_step(Y @ X, Y)._z == _composed(X @ Y, Y @ X, Y, None)._z
        got = (R @ B)._bracket_step(B @ R)
        assert got.is_zero() == (case == "zero")
        if case.startswith("gcd"):
            assert (got._z[0] == R._z[0] * B._z[0] == 6) == (case == "gcd-1")
        if case == "negative":
            assert min(got._z[1:]) < 0

    def test_float_step_is_accurate_against_the_exact_lift(self):
        """Over R64 and C64 the step on P = R @ B and Q = B @ R, with and without B
        and c, is within a few ulps of the scale |R| |B| (|B|) |c| of the exact answer:
        ``kcomm_recursive`` at order 1 or 2 over Q or Q(i) on exact copies of the
        float inputs, times c."""
        rng = Random(44)

        def real():
            return rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-30, 30)

        for field, exact in ((FLOAT_R, RATIONAL_Q), (FLOAT_C, GAUSSIAN_QI)):
            lift = Fraction if exact is RATIONAL_Q else (
                lambda z: GaussianRational(Fraction(z.real), Fraction(z.imag)))
            worst = 0.0
            for _ in range(1_000):
                R, B = (Mat2(field, [complex(real(), real()) if field.is_complex else real()
                                     for _ in range(4)]) for _ in range(2))
                c = complex(real(), real()) if field.is_complex else real()
                R_, B_ = (Mat2(exact, [lift(x) for x in M.entries]) for M in (R, B))
                for S, s in ((None, None), (B, None), (None, c), (B, c)):
                    got = (R @ B)._bracket_step(B @ R, S, s)
                    want = kcomm_recursive(R_, B_, 1 if S is None else 2)
                    scale = R.max_abs() * B.max_abs() ** (1 if S is None else 2)
                    if s is not None:
                        want, scale = want.scale(lift(s)), scale * abs(s)
                    err = max(abs(g - complex(_as_float(w))) for g, w in zip(got.entries, want.entries))
                    worst = max(worst, err / scale)
            assert worst <= 16 * sys.float_info.epsilon, (field, worst)

    # signed zeros, units, infinities, subnormals and magnitudes whose products overflow
    FLOAT_SPECIALS = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, 5e-324, -5e-324,
                      1e-310, -2.5e-320, 1e300, -1e300)

    @pytest.mark.parametrize("field", [FLOAT_R, FLOAT_C], ids=lambda f: f.variant)
    def test_float_kernel_refuses_every_non_finite_answer(self, field):
        """On pairs of special values at k = 1..4, ``kcomm`` returns the zero matrix of
        +0.0 when delta**m is zero, raises ResultTooLarge when delta**m or the step's
        answer is not finite, and otherwise returns that answer: never an inf or a nan."""
        rng, kinds = Random(45), set()

        def scalar():
            if rng.random() < 0.25:
                return rng.uniform(-1e3, 1e3)
            return rng.choice(self.FLOAT_SPECIALS)

        for _ in range(10_000):
            R, B = (Mat2(field, [complex(scalar(), scalar()) if field.is_complex else scalar()
                                 for _ in range(4)]) for _ in range(2))
            k = rng.randint(1, 4)
            c = B.discriminant() if k > 2 else 1.0
            step = (R @ B)._bracket_step(B @ R, None if k % 2 else B, c)
            finite = cmath.isfinite(c) and all(cmath.isfinite(x) for x in step.entries)
            try:
                got = kcomm(R, B, k)
            except ResultTooLarge:
                kinds.add("refused")
                assert not finite
                continue
            if not c:
                kinds.add("zero")
                assert got is Mat2.zero(field) and repr(got.entries) == repr(Mat2.zero(field).entries)
            else:
                kinds.add("answer")
                assert finite and got.entries == step.entries
        assert kinds == {"refused", "zero", "answer"}

    @pytest.mark.parametrize("field", [FLOAT_R, FLOAT_C], ids=lambda f: f.variant)
    def test_float_shift_signs_its_zeros_as_the_sum_does(self, field):
        # -0.0 + 2.0 * 0.0 is +0.0, and -0.0 + -2.0 * 0.0 is -0.0: a shift that
        # only added c to the diagonal would keep -0.0 both times
        X = Mat2(field, (1.0, -0.0, -0.0, 1.0))
        for c, sign in ((2.0, 1.0), (-2.0, -1.0)):
            off = X.shift(c).entries[1:3]
            assert [complex(x).real for x in off] == [0.0, 0.0]
            assert [math.copysign(1.0, complex(x).real) for x in off] == [sign, sign]

    def test_equal_values_in_different_fields_differ(self):
        assert Mat2.identity(RATIONAL_Q) != Mat2.identity(GAUSSIAN_QI)

    def test_exact_tolerance_does_not_split_values(self, exact_field):
        loose = FieldTag(exact_field.variant, 1e-3)
        A, B = Mat2.unit(loose, 1, 2), Mat2.unit(exact_field, 1, 2)
        assert A == B and hash(A) == hash(B) and A.eq(B)

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
        assert all(type(x) is type(exact_field.one()) for x in A.entries)
        assert mat_from_json(mat_to_json(A)) == A
        assert A == Mat2.from_rows(exact_field, [[1, 2], [3, 4]])
        assert (A @ A).eq(Mat2.from_rows(exact_field, [[7, 10], [15, 22]]))
        assert A.det() == -2 and A.trace() == 5 and A.discriminant() == 33

    def test_int_entry_invariants_are_field_scalars(self, exact_field):
        # trace and det read the entries; the spectral classifier halves the trace
        scalar = type(exact_field.one())
        A = Mat2(exact_field, (1, 1, 0, 1))
        assert type(A.trace()) is scalar and A.trace() == 2
        assert type(A.det()) is scalar and A.det() == 1
        split = scalar_plus_nilpotent_spectral(A).split
        assert type(split.lam) is scalar and split.lam == 1
        assert split.nilpotent.eq(Mat2.unit(exact_field, 1, 2))

    def test_float_discriminant(self, any_field):
        A = Mat2.from_rows(any_field, [[1, 2], [3, 4]])
        assert any_field.eq(A.discriminant(), any_field.coerce(33))

    @given(exact_fields.flatmap(lambda f: st.tuples(st.just(f), _vectors(f), _vectors(f))))
    def test_outer_matches_scalar_formula(self, case):
        field, x, f = case
        want = tuple(p * q.conjugate() for p in x for q in f)
        A = outer(field, x, f)
        _same(A, want)
        assert A == Mat2(field, want) and hash(A) == hash(Mat2(field, want))

    def test_wrong_scalar_type_rejected(self):
        for field, c in ((RATIONAL_Q, GaussianRational(0, 1)), (GAUSSIAN_QI, 0.5),
                         (FLOAT_R, 1j), (FLOAT_R, GaussianRational(0, 1))):
            with pytest.raises(FieldMismatch):
                Mat2.identity(field).scale(c)
        for field in (RATIONAL_Q, GAUSSIAN_QI):
            with pytest.raises(FieldMismatch):
                outer(field, (Fraction(1, 2), 0.5), (1, 0))
            with pytest.raises(FieldMismatch):
                outer(field, (1, 0), (Fraction(1, 3), 0.25))


# -- the scaling rule ----------------------------------------------------------

def _scale_case(field):
    """A matrix whose entries mix integers, zeros and negative parts (or is zero),
    and a scalar c that is small or a power delta**m with m up to 499."""
    entry = st.one_of(_scalars(field), st.just(0), st.integers(-9, 9))
    mat = st.one_of(st.tuples(*[entry] * 4), st.just((0, 0, 0, 0))).map(lambda e: Mat2(field, e))
    power = st.tuples(_scalars(field), st.sampled_from([1, 2, 5, 31, 499])).map(lambda t: t[0] ** t[1])
    return st.tuples(mat, st.one_of(_scalars(field), st.integers(-4, 4).map(field.coerce), power))


class TestScaleRule:
    """``scale`` over Q and Q(i), one product on the integer form and one gcd, gives
    the canonical form and entries of the entrywise products, for c small or a
    power delta**m as large as ``kcomm``'s."""

    @staticmethod
    def _check(A, c):
        want = tuple(c * x for x in A.entries)  # Fraction / GaussianRational products
        got, built = A.scale(c), Mat2(A.field, want)
        assert got._z == built._z  # canonical: the constructor's form
        assert got == built and hash(got) == hash(built)
        _same(got, want)
        assert got.top_left() == want[0] and got.is_zero() == (not any(want))

    @given(exact_fields.flatmap(_scale_case))
    def test_scale_is_the_entrywise_product(self, case):
        self._check(*case)

    def test_kernel_scalings_seeded(self, exact_field):
        """c = delta**m on the order-1 and order-2 brackets, the products ``kcomm``
        makes, with m up to 499."""
        rng = Random(33)
        for _ in range(40):
            A = random_mat(exact_field, rng, denominators=True)
            B = random_mat(exact_field, rng, denominators=True)
            delta, X = B.discriminant(), A @ B - B @ A
            for m in (1, 2, 5, 31, 499):
                c = delta**m
                self._check(X, c)
                self._check(X @ B - B @ X, c)

def _step_case(field):
    """Two matrices whose entries mix integers, zeros and negative parts, whether B is
    bracketed, and c: none, small, or a power delta**m with m up to 499."""
    entry = st.one_of(_scalars(field), st.just(0), st.integers(-9, 9))
    mat = st.tuples(*[entry] * 4).map(lambda e: Mat2(field, e))
    power = st.tuples(_scalars(field), st.sampled_from([1, 2, 5, 31, 499])).map(lambda t: t[0] ** t[1])
    c = st.one_of(st.none(), _scalars(field).map(field.coerce), power)
    return st.tuples(mat, mat, st.booleans(), c)


class TestBracketStep:
    """``_bracket_step`` over Q and Q(i) gives the form, entries (parts and type) and
    hash of the operations it fuses: P - Q, the bracket with B, ``scale(c)``, on the
    products P = A @ B and Q = B @ A of ``kcomm``, whose difference is traceless.
    It reduces c*X with gcds that start from an operand of X's size.

    Write c = p/q in lowest terms (over Q(i), p = s + t i with gcd(s, t, q) = 1)
    and X = (r; x1, .., x4) in integer form, reduced or not.  Entry j of cX is
    p*xj / (q*r); its reduction factor Gj = gcd(the parts of p*xj, q*r) divides
    r*N(xj), where N(x) = |x| over Q and a^2 + b^2 for x = a + b i over Q(i).
    Prime by prime, for xj != 0, a rational prime l and v its exponent:

    - l does not divide q: v(Gj) <= v(q*r) = v(r).
    - l divides q, over Q: l does not divide p, so v(Gj) <= v(p*xj) = v(xj).
    - l divides q and is inert in Z[i] (l = 3 mod 4): l is a Gaussian prime
      that does not divide p (it would divide s, t and q), so l^e | p*xj
      forces l^e | xj, and e <= v(xj) <= v(N(xj)).
    - l divides q and splits, l = w * conj(w) with w, conj(w) non-associate
      Gaussian primes: l^e | p*xj needs w^e and conj(w)^e to divide p*xj, and
      one of them, w', does not divide p (else l would), so w'^e | xj and
      e <= v_w(xj) + v_conj(w)(xj) = v(N(xj)).
    - l = 2 divides q, 2 = -i (1 + i)^2 ramified: (1 + i)^2 does not divide p
      (else 2 would), so 2^e | p*xj needs 2e <= 1 + u with
      u = v_(1+i)(xj) = v(N(xj)), that is e <= u (and e = 0 when u = 0).

    So Gj | r*N(xj) in every case (no step above uses that X is reduced, and the
    step's X = P - Q, or its bracket with B, is not), and the step seeds entry j's
    gcd with r*N(xj) and takes the form's factor as gcd(G1, .., G4): no seed
    changes a gcd, and each gcd starts from an operand whose size does not grow
    with c.
    """

    @staticmethod
    def _check(P, Q, B, c):
        got, want = P._bracket_step(Q, B, c), _composed(P, Q, B, c)
        assert type(got._e) is tuple  # the entries are built in the step
        assert got._z == want._z and got == want and hash(got) == hash(want)
        _same(got, want.entries)
        assert got._z == Mat2(got.field, got.entries)._z  # canonical

    @given(exact_fields.flatmap(_step_case))
    def test_step_is_the_composition(self, case):
        A, B, even, c = case
        self._check(A @ B, B @ A, B if even else None, c)

    def test_kernel_scalings_seeded(self, exact_field):
        """c = delta**m, m up to 499, on products of matrices with and without
        denominators, at odd (no B) and even (B) orders."""
        rng = Random(34)
        for i in range(40):
            A = random_mat(exact_field, rng, denominators=i % 2 == 0)
            B = random_mat(exact_field, rng, denominators=i % 4 < 2)
            delta = B.discriminant()
            for m in (0, 1, 2, 5, 31, 499):
                for S in (None, B):
                    self._check(A @ B, B @ A, S, delta**m if m else None)

    @pytest.mark.parametrize("rows", [
        ((1, 2, 3, 4), (0, 1, 1, 0)),  # integer inputs: every form over the denominator 1
        ((1, -2, -3, 4), (-5, 1, 0, -2)),  # negative parts
        ((2, 0, 0, 2), (1, 2, 3, 4)),  # A scalar: a zero bracket
        ((Fraction(1, 2), 1, 0, Fraction(1, 2)), (Fraction(1, 3), 0, 0, Fraction(1, 3))),  # zero
    ], ids=["den-1", "negative", "scalar", "zero"])
    def test_cases(self, exact_field, rows):
        A, B = (Mat2(exact_field, r) for r in rows)
        delta = B.discriminant()
        for c in (None, exact_field.coerce(3), delta**2, delta**31):
            for S in (None, B):
                self._check(A @ B, B @ A, S, c)
                assert (A @ B)._bracket_step(B @ A, S, c).is_zero() == (A.is_scalar() or B.is_scalar())


# -- construction ------------------------------------------------------------

def _raw_scalars(field):
    """int / Fraction inputs, plus the GaussianRationals the field can hold."""
    options = [st.integers(-50, 50), small_fractions]
    if field.is_complex:
        options.append(st.builds(GaussianRational, small_fractions, small_fractions))
    elif field.is_exact:
        options.append(st.builds(GaussianRational, small_fractions))
    return st.one_of(*options)


def _constructed(field, s):
    """Every public way to make a matrix, fed the raw scalars s."""
    yield Mat2(field, s)
    yield Mat2.from_rows(field, [s[:2], s[2:]])
    yield Mat2.zero(field)
    yield Mat2.identity(field)
    for i in (1, 2):
        for j in (1, 2):
            yield Mat2.unit(field, i, j)
    yield Mat2.diag(field, s[0], s[3])
    yield outer(field, s[:2], s[2:])
    yield mat_from_json(mat_to_json(Mat2(field, s)))


class TestConstruction:
    """``Mat2(field, entries)`` checks and coerces; every matrix is canonical."""

    @pytest.mark.parametrize("entries", [(1, 2, 3), (1, 2, 3, 4, 5), ()],
                             ids=["three", "five", "none"])
    def test_entry_count_checked(self, any_field, entries):
        with pytest.raises(ValueError):
            Mat2(any_field, entries)

    @pytest.mark.parametrize("field, entries", [
        (RATIONAL_Q, (0.5, 1, 1, 1)),
        (RATIONAL_Q, (GaussianRational(0, 1), 1, 1, 1)),
        (GAUSSIAN_QI, (1, 2, 3, 0.5)),
        (FLOAT_R, (1j, 2, 3, 4)),
        (FLOAT_R, ("1", 0, 0, 0)),
        (FLOAT_C, ("1+2j", 0, 0, 0)),
        (FLOAT_R, (GaussianRational(1, 1), 0, 0, 0)),
        (FLOAT_R, (None, 0, 0, 0)),
        (FLOAT_C, (None, 0, 0, 0)),
    ], ids=["Q-float", "Q-imaginary", "Qi-float", "R64-complex", "R64-string", "C64-string",
            "R64-imaginary", "R64-none", "C64-none"])
    def test_wrong_scalar_kind_refused(self, field, entries):
        with pytest.raises(FieldMismatch):
            Mat2(field, entries)

    def test_float_fields_take_every_kind_they_hold(self):
        kinds = (1, 0.5, Fraction(1, 4), GaussianRational(3))
        assert Mat2(FLOAT_R, kinds).entries == (1.0, 0.5, 0.25, 3.0)
        assert all(type(x) is float for x in Mat2(FLOAT_R, kinds).entries)
        M = Mat2(FLOAT_C, (1, Fraction(1, 2), 2 - 1j, GaussianRational(1, 2)))
        assert M.entries == (1, 0.5, 2 - 1j, 1 + 2j)
        assert all(type(x) is complex for x in M.entries)

    def test_float_scale_takes_every_kind_the_field_holds(self):
        scaled = Mat2(FLOAT_R, (1, 2, 3, 4)).scale(GaussianRational(2))
        assert scaled.entries == (2.0, 4.0, 6.0, 8.0)
        assert all(type(x) is float for x in scaled.entries)
        scaled = Mat2(FLOAT_C, (1, 2, 3, 4)).scale(Fraction(1, 2))
        assert scaled.entries == (0.5, 1, 1.5, 2)
        assert all(type(x) is complex for x in scaled.entries)

    def test_float_outer_coerces_its_vectors(self):
        for field in (FLOAT_R, FLOAT_C):
            A = outer(field, (1, 2), (3, 4))
            assert A.entries == (3, 4, 6, 8)
            assert all(type(x) is type(field.one()) for x in A.entries)
        text = canonical_dumps(mat_to_json(outer(FLOAT_R, (1, 2), (3, 4))))
        assert text == '{"entries":[[3.0,4.0],[6.0,8.0]],"field":"R64"}'

    @pytest.mark.parametrize("field", [RATIONAL_Q, GAUSSIAN_QI], ids=lambda f: f.variant)
    def test_exact_outer_reads_every_kind_the_field_holds(self, field):
        kinds = [0, -3, Fraction(2, 3), Fraction(-5, 4), GaussianRational(Fraction(7, 6))]
        if field.is_complex:
            kinds += [GaussianRational(1, -2), GaussianRational(Fraction(1, 2), Fraction(1, 3))]
        scalar, c = type(field.one()), field.conj
        for x in zip(kinds, kinds[1:] + kinds[:1]):
            for f in zip(kinds[::-1], kinds[-2::-1] + kinds[-1:]):
                A = outer(field, x, f)
                x_, f_ = [field.coerce(v) for v in x], [field.coerce(v) for v in f]
                want = Mat2(field, [p * c(q) for p in x_ for q in f_])
                assert A == want and hash(A) == hash(want) and A.entries == want.entries
                assert A == outer(field, x_, f_)
                assert all(type(e) is scalar for e in A.entries)
                assert A._z == matrices._integer_form(field, A.entries)

    @pytest.mark.parametrize("field, bad", [
        (RATIONAL_Q, 0.5), (GAUSSIAN_QI, 0.5), (RATIONAL_Q, GaussianRational(0, 1)),
        (GAUSSIAN_QI, 1j),
    ], ids=["Q-float", "Qi-float", "Q-imaginary", "Qi-complex"])
    def test_exact_outer_refuses_what_the_field_cannot_hold(self, field, bad):
        for x, f in (((bad, 1), (1, 1)), ((1, 1), (1, bad))):
            with pytest.raises(FieldMismatch):
                outer(field, x, f)

    @given(st.sampled_from([RATIONAL_Q, GAUSSIAN_QI, FLOAT_R, FLOAT_C]).flatmap(
        lambda f: st.tuples(st.just(f), st.tuples(*[_raw_scalars(f)] * 4))))
    def test_every_constructor_yields_canonical_matrices(self, case):
        field, s = case
        scalar = type(field.one())
        for M in _constructed(field, s):
            assert all(type(x) is scalar for x in M.entries)
            if field.is_exact:
                assert M._z == matrices._integer_form(field, M.entries)
            again = Mat2(field, M.entries)
            assert again == M and hash(again) == hash(M)
